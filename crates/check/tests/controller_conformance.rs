//! End-to-end conformance: a real controller drives a real device with the
//! oracle shadowing every accepted command (the device observer hook).
//!
//! Two directions are covered: legal schedules — deterministic mixes and a
//! property sweep over random request streams — must produce **zero**
//! violations, and an intentionally broken device (tFAW shrunk from 26 to
//! 8) must be caught with the constraint named "tFAW".

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use sam_check::oracle::{OracleConfig, ProtocolOracle};
use sam_check::Violation;
use sam_dram::device::DeviceConfig;
use sam_memctrl::controller::{Controller, ControllerConfig, ControllerStats};
use sam_memctrl::mapping::Location;
use sam_memctrl::request::{MemRequest, Provenance, ReqKind, StrideSpec};

/// A controller shadowed by an oracle configured from `oracle_device`
/// (usually the controller's own device; different for bug injection).
fn shadowed(
    ctrl_device: DeviceConfig,
    oracle_device: &DeviceConfig,
) -> (Controller, Arc<Mutex<ProtocolOracle>>) {
    let oracle = Arc::new(Mutex::new(ProtocolOracle::new(OracleConfig::from_device(
        oracle_device,
    ))));
    let mut ctrl = Controller::new(ControllerConfig::with_device(ctrl_device));
    ctrl.attach_observer(oracle.clone());
    (ctrl, oracle)
}

fn verdict(ctrl: Controller, oracle: Arc<Mutex<ProtocolOracle>>) -> (usize, Vec<Violation>) {
    drop(ctrl);
    let oracle = Arc::try_unwrap(oracle)
        .expect("controller dropped, oracle is sole owner")
        .into_inner()
        .expect("oracle lock poisoned");
    (oracle.command_count(), oracle.finish())
}

fn submit(ctrl: &mut Controller, req: MemRequest, now: u64) {
    if ctrl.enqueue(req, now).is_err() {
        ctrl.drain(now);
        ctrl.enqueue(req, now).expect("queue just drained");
    }
}

#[test]
fn mixed_ddr4_workload_with_refresh_is_clean() {
    let device = DeviceConfig::ddr4_server();
    let (mut ctrl, oracle) = shadowed(device, &device);
    let mut id = 0;
    // Batches spread over ~4 refresh intervals so periodic REFs interleave
    // with reads, writes, narrow and stride traffic on both ranks.
    for batch in 0..20u64 {
        let now = batch * 2000;
        for i in 0..24u64 {
            let addr = (batch * 977 + i * 131) * 64;
            let req = match i % 6 {
                0 => MemRequest::read(id, addr),
                1 => MemRequest::write(id, addr),
                2 => MemRequest::narrow_read(id, addr),
                3 => MemRequest::narrow_write(id, addr),
                4 => MemRequest::stride_read(id, addr, StrideSpec::ssc()),
                _ => MemRequest::stride_write(id, addr, StrideSpec::ssc_dsd()),
            };
            id += 1;
            submit(&mut ctrl, req, now);
        }
        ctrl.drain(now);
    }
    let (count, violations) = verdict(ctrl, oracle);
    assert!(count > 500, "expected a substantial stream, got {count}");
    assert!(violations.is_empty(), "{violations:#?}");
}

#[test]
fn mixed_rram_workload_is_clean() {
    let device = DeviceConfig::rram_server();
    let (mut ctrl, oracle) = shadowed(device, &device);
    for i in 0..400u64 {
        let addr = (i * 389) * 64;
        let req = match i % 4 {
            0 => MemRequest::read(i, addr),
            1 => MemRequest::write(i, addr),
            2 => MemRequest::stride_read(i, addr, StrideSpec::ssc()),
            _ => MemRequest::stride_write(i, addr, StrideSpec::ssc()),
        };
        submit(&mut ctrl, req, i * 3);
    }
    ctrl.drain(1200);
    let (count, violations) = verdict(ctrl, oracle);
    assert!(count > 400, "{count}");
    assert!(violations.is_empty(), "{violations:#?}");
}

#[test]
fn mode_thrash_between_stride_and_regular_is_clean() {
    // Alternating stride/regular requests force an MRS before almost every
    // column command; long write-queue residence back-dates some of them.
    let device = DeviceConfig::ddr4_server();
    let (mut ctrl, oracle) = shadowed(device, &device);
    for i in 0..300u64 {
        let addr = (i * 67) * 64;
        let req = if i % 2 == 0 {
            MemRequest::stride_write(i, addr, StrideSpec::ssc())
        } else {
            MemRequest::read(i, addr)
        };
        submit(&mut ctrl, req, i);
    }
    ctrl.drain(300);
    let (_, violations) = verdict(ctrl, oracle);
    assert!(violations.is_empty(), "{violations:#?}");
}

/// Provenance is payload-only: tagging every request with a (core, kind)
/// must not move a single command cycle — the oracle-shadowed schedule is
/// identical to the untagged run's — while the per-core lanes account for
/// every completion exactly (the telescoping invariant, under a schedule
/// the protocol oracle simultaneously certifies as legal).
#[test]
fn tagged_provenance_is_timing_invisible_and_lane_conserved() {
    let device = DeviceConfig::ddr4_server();
    let build = |i: u64| {
        let addr = (i * 157) * 64;
        match i % 5 {
            0 => MemRequest::read(i, addr),
            1 => MemRequest::write(i, addr),
            2 => MemRequest::narrow_read(i, addr),
            3 => MemRequest::stride_read(i, addr, StrideSpec::ssc()),
            _ => MemRequest::stride_write(i, addr, StrideSpec::ssc_dsd()),
        }
    };
    let kinds = [
        ReqKind::Demand,
        ReqKind::Writeback,
        ReqKind::Prefetch,
        ReqKind::EccExtra,
        ReqKind::Traffic,
    ];

    let run = |tagged: bool| {
        let (mut ctrl, oracle) = shadowed(device, &device);
        let mut done = Vec::new();
        for i in 0..400u64 {
            let mut req = build(i);
            if tagged {
                req = req.with_provenance(Provenance::new((i % 7) as u8, kinds[i as usize % 5]));
            }
            if ctrl.enqueue(req, i * 2).is_err() {
                done.extend(ctrl.drain(i * 2));
                ctrl.enqueue(req, i * 2).expect("queue just drained");
            }
        }
        done.extend(ctrl.drain(800));
        let lanes = ctrl.per_core().clone();
        let stats = *ctrl.stats();
        let (count, violations) = verdict(ctrl, oracle);
        (done, lanes, stats, count, violations)
    };

    let (plain_done, plain_lanes, _, _, plain_violations) = run(false);
    let (tagged_done, tagged_lanes, stats, count, tagged_violations) = run(true);

    // Same schedule, command for command.
    assert!(count > 400, "{count}");
    assert!(plain_violations.is_empty(), "{plain_violations:#?}");
    assert!(tagged_violations.is_empty(), "{tagged_violations:#?}");
    let key = |d: &sam_memctrl::request::Completion| (d.id, d.issue, d.finish, d.row_hit);
    assert_eq!(
        plain_done.iter().map(key).collect::<Vec<_>>(),
        tagged_done.iter().map(key).collect::<Vec<_>>(),
        "provenance tags changed the schedule"
    );

    // Untagged runs collapse to one (core 0, demand) lane; tagged runs
    // spread over all seven cores — and both telescope to the aggregates.
    assert_eq!(plain_lanes.cores(), 1);
    assert_eq!(tagged_lanes.cores(), 7);
    let total = tagged_lanes.total();
    assert_eq!(
        ControllerStats {
            refreshes: stats.refreshes,
            ..total
        },
        stats
    );
    for core in 0..tagged_lanes.cores() as u8 {
        for kind in ReqKind::ALL {
            assert_eq!(
                tagged_lanes.lane(core, kind).refreshes,
                0,
                "no lane owns a refresh"
            );
        }
    }
    assert_eq!(plain_lanes.total(), total);
}

#[test]
fn injected_tfaw_bug_is_caught_by_name() {
    // The injected bug: the device believes tFAW is 8, so it happily issues
    // five ACTs inside the real 26-cycle window. The oracle checks against
    // the true DDR4 timing and must name the broken constraint.
    let truth = DeviceConfig::ddr4_server();
    let mut buggy = truth;
    buggy.timing.faw = 8;
    let (mut ctrl, oracle) = shadowed(buggy, &truth);
    let mapper = *ctrl.mapper();
    for i in 0..12u8 {
        let loc = Location {
            rank: 0,
            bank_group: i % 4,
            bank: (i / 4) % 4,
            row: 5,
            col: 0,
            offset: 0,
        };
        let addr = mapper.encode(&loc);
        ctrl.enqueue(MemRequest::read(i as u64, addr), 0)
            .expect("queue has room");
    }
    ctrl.drain(0);
    let (_, violations) = verdict(ctrl, oracle);
    let faw: Vec<_> = violations
        .iter()
        .filter(|v| v.constraint.name() == "tFAW")
        .collect();
    assert!(!faw.is_empty(), "tFAW bug not caught: {violations:#?}");
    // Every report carries the window-opening ACT for the post-mortem.
    assert!(faw.iter().all(|v| v.prior.is_some()));

    // Control: the identical workload on the correct device is clean.
    let (mut ctrl, oracle) = shadowed(truth, &truth);
    let mapper = *ctrl.mapper();
    for i in 0..12u8 {
        let loc = Location {
            rank: 0,
            bank_group: i % 4,
            bank: (i / 4) % 4,
            row: 5,
            col: 0,
            offset: 0,
        };
        ctrl.enqueue(MemRequest::read(i as u64, mapper.encode(&loc)), 0)
            .expect("queue has room");
    }
    ctrl.drain(0);
    let (_, violations) = verdict(ctrl, oracle);
    assert!(violations.is_empty(), "{violations:#?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]
    #[test]
    fn random_schedules_produce_zero_violations(
        ops in collection::vec((0u8..6, 0u16..512, 0u64..48), 4..28),
        rram in any::<bool>(),
    ) {
        let device = if rram {
            DeviceConfig::rram_server()
        } else {
            DeviceConfig::ddr4_server()
        };
        let (mut ctrl, oracle) = shadowed(device, &device);
        let mut now = 0u64;
        for (id, (op, slot, jitter)) in ops.into_iter().enumerate() {
            now += jitter;
            let addr = u64::from(slot) * 64;
            let id = id as u64;
            let req = match op {
                0 => MemRequest::read(id, addr),
                1 => MemRequest::write(id, addr),
                2 => MemRequest::narrow_read(id, addr),
                3 => MemRequest::narrow_write(id, addr),
                4 => MemRequest::stride_read(id, addr, StrideSpec::ssc()),
                _ => MemRequest::stride_write(id, addr, StrideSpec::ssc_dsd()),
            };
            submit(&mut ctrl, req, now);
        }
        ctrl.drain(now);
        let (count, violations) = verdict(ctrl, oracle);
        prop_assert!(count > 0);
        prop_assert!(violations.is_empty(), "{violations:#?}");
    }
}
