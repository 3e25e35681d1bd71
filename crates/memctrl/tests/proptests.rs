//! Property-based tests of the controller substrate: address mapping
//! bijectivity, remap involutions, and scheduler sanity over arbitrary
//! request streams.

use proptest::prelude::*;
use sam_dram::device::DeviceConfig;
use sam_memctrl::controller::{Controller, ControllerConfig};
use sam_memctrl::mapping::{bank_swizzle, stride_page_remap, AddressMapper};
use sam_memctrl::request::{MemRequest, StrideSpec};

proptest! {
    #[test]
    fn decode_encode_is_identity_within_capacity(addr in 0u64..(1 << 35)) {
        // Capacity: 2 ranks x 16 banks x 128K rows x 8KB = 32 GiB = 2^35;
        // beyond it the row field wraps (aliasing), so the identity holds
        // exactly on in-capacity addresses.
        let m = AddressMapper::new(&DeviceConfig::ddr4_server());
        let loc = m.decode(addr);
        prop_assert_eq!(m.encode(&loc), addr);
    }

    #[test]
    fn decode_fields_always_in_range(addr in any::<u64>()) {
        let cfg = DeviceConfig::ddr4_server();
        let m = AddressMapper::new(&cfg);
        let loc = m.decode(addr);
        prop_assert!(usize::from(loc.rank) < cfg.ranks);
        prop_assert!(usize::from(loc.bank_group) < cfg.bank_groups);
        prop_assert!(usize::from(loc.bank) < cfg.banks_per_group);
        prop_assert!(u64::from(loc.row) < cfg.rows_per_bank);
        prop_assert!(u64::from(loc.col) < cfg.cols_per_row);
        prop_assert!(loc.offset < 64);
    }

    #[test]
    fn stride_remap_is_involution(addr in any::<u64>(), seg in 2u32..=3) {
        prop_assert_eq!(stride_page_remap(stride_page_remap(addr, seg), seg), addr);
    }

    #[test]
    fn bank_swizzle_roundtrips(target in 0u64..32, row in any::<u64>()) {
        let emitted = bank_swizzle(target, row, 5);
        prop_assert!(emitted < 32);
        prop_assert_eq!(bank_swizzle(emitted, row, 5), target);
    }

    #[test]
    fn controller_completes_every_request_exactly_once(
        addrs in proptest::collection::vec(0u64..(1 << 30), 1..40),
        strides in proptest::collection::vec(any::<bool>(), 40),
        writes in proptest::collection::vec(any::<bool>(), 40),
    ) {
        let mut ctrl = Controller::new(ControllerConfig::default());
        let mut expected = Vec::new();
        for (i, addr) in addrs.iter().enumerate() {
            let id = i as u64 + 1;
            let addr = addr & !63;
            let req = match (strides[i], writes[i]) {
                (true, false) => MemRequest::stride_read(id, addr, StrideSpec::ssc_dsd()),
                (true, true) => MemRequest::stride_write(id, addr, StrideSpec::ssc_dsd()),
                (false, false) => MemRequest::read(id, addr),
                (false, true) => MemRequest::write(id, addr),
            };
            if ctrl.enqueue(req, 0).is_ok() {
                expected.push(id);
            }
        }
        let mut done: Vec<u64> = ctrl.drain(0).iter().map(|c| c.id).collect();
        done.sort_unstable();
        expected.sort_unstable();
        prop_assert_eq!(done, expected);
    }

    /// The behavioural bound the stress engine checks, as a property:
    /// with any nonzero starvation cap, no read sits in the queue longer
    /// than the cap plus a generous drain window — the backlog that can
    /// legally be served ahead of it (a queue's worth of reads plus every
    /// write in the stream, each at worst-case service cost) plus
    /// refresh theft. See `sam_stress::driver::read_residency_bound`
    /// (recomputed here so the substrate test stays dependency-free).
    #[test]
    fn capped_reads_have_bounded_queue_residency(
        cap in 1u64..=4096,
        addrs in proptest::collection::vec(0u64..(1 << 30), 1..60),
        writes in proptest::collection::vec(any::<bool>(), 60),
        arrivals in proptest::collection::vec(0u64..20_000, 60),
    ) {
        let cfg = ControllerConfig {
            starvation_cap: cap,
            ..Default::default()
        };
        let bound = {
            let t = &cfg.device.timing;
            let svc = t.rp + t.rcd + t.cl + t.cwl + t.burst + t.wr + t.rtr + t.wtw
                + t.ccd_l + t.rrd_l + t.faw;
            let stream_writes = writes.iter().filter(|&&w| w).count() as u64;
            let backlog = (cfg.read_queue_capacity + 4) as u64 + stream_writes;
            let busy = cap + backlog * svc;
            let refresh = if cfg.refresh_enabled() {
                (busy / t.refi + 2) * cfg.device.ranks as u64 * t.rfc
            } else {
                0
            };
            busy + refresh
        };
        let mut ctrl = Controller::new(cfg);
        let mut admitted = std::collections::BTreeMap::new();
        for (i, addr) in addrs.iter().enumerate() {
            let id = i as u64 + 1;
            let req = if writes[i] {
                MemRequest::write(id, addr & !63)
            } else {
                MemRequest::read(id, addr & !63)
            };
            if ctrl.enqueue(req, arrivals[i]).is_ok() {
                admitted.insert(id, (writes[i], arrivals[i]));
            }
        }
        for c in ctrl.drain(0) {
            let (is_write, arrival) = admitted[&c.id];
            if !is_write {
                let residency = c.finish.saturating_sub(arrival);
                prop_assert!(
                    residency <= bound,
                    "read {} sat {} cycles, bound {}", c.id, residency, bound
                );
            }
        }
    }

    #[test]
    fn completions_respect_causality(
        addrs in proptest::collection::vec(0u64..(1 << 28), 1..30),
        arrivals in proptest::collection::vec(0u64..10_000, 30),
    ) {
        let mut ctrl = Controller::new(ControllerConfig::default());
        for (i, addr) in addrs.iter().enumerate() {
            let _ = ctrl.enqueue(MemRequest::read(i as u64, addr & !63), arrivals[i]);
        }
        for c in ctrl.drain(0) {
            prop_assert!(c.finish > c.issue, "data follows the command");
            let arrival = arrivals[c.id as usize];
            prop_assert!(c.issue >= arrival, "no request issues before it arrives");
        }
    }
}
