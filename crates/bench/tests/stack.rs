//! Cross-crate integration of the simulation stack: device + controller +
//! cache + system, plus the functional data path (I/O buffer modes feeding
//! ECC codeword layouts).

use sam::designs::{commodity, sam_en};
use sam::layout::{Store, TableSpec};
use sam::ops::{partition_records, TraceOp};
use sam::system::{Instrumentation, System, SystemConfig};
use sam_check::oracle::{OracleConfig, ProtocolOracle};
use sam_dram::iobuf::{deserialize_stride, IoBuffer};
use sam_dram::moderegs::IoMode;
use sam_dram::subarray::{HffWidth, MatGrid};
use sam_ecc::codes::SscCode;
use sam_ecc::layout::{decode_line, encode_line, CodewordLayout};
use sam_memctrl::controller::{Controller, ControllerConfig};
use sam_memctrl::request::{MemRequest, StrideSpec};
use sam_trace::{Category, RunRecorder};
use std::sync::{Arc, Mutex};

#[test]
fn stride_data_path_is_bit_exact_end_to_end() {
    // A strided unit travels: DRAM array -> I/O buffer (Sx4_n mode) -> DQ
    // beats -> controller deserializer. Verify the bytes survive.
    let mut buf = IoBuffer::new();
    // Four gathered cachelines' worth of this chip's data (32 bits each).
    let words: [u32; 4] = [0xAABB_CCDD, 0x1122_3344, 0xDEAD_BEEF, 0x0BAD_F00D];
    let mut wide: u128 = 0;
    for (i, w) in words.iter().enumerate() {
        wide |= (*w as u128) << (32 * i);
    }
    buf.load_wide(wide);
    for lane in 0..4u8 {
        let beats = buf.read_burst(IoMode::Sx4(lane));
        let bytes = deserialize_stride(&beats);
        for (b, byte) in bytes.iter().enumerate() {
            let expected = (words[b] >> (8 * lane as usize)) as u8;
            assert_eq!(*byte, expected, "lane {lane} buffer {b}");
        }
    }
}

#[test]
fn ecc_protects_the_transposed_io_layout() {
    // SAM-IO stores codeword symbols lane-wise; the transposed layout must
    // still decode after chip loss — tying sam-dram's data path to
    // sam-ecc's codewords.
    let code = SscCode::new();
    let line: Vec<u8> = (0..64).map(|i| (i * 3 + 1) as u8).collect();
    let mut burst = encode_line(&code, &line, CodewordLayout::Transposed);
    burst.kill_chip(4, 0x1357_9BDF_2468_ACE0);
    let decoded = decode_line(&code, &burst, CodewordLayout::Transposed).unwrap();
    assert_eq!(&decoded[..], &line[..]);
}

#[test]
fn sam_sub_matgrid_gathers_match_expected_records() {
    // The SAM-sub substrate: 8 records aligned across 8 mat rows; a
    // column-wise gather returns one word of each record.
    let mut grid = MatGrid::new(8, 4, 16, 8, HffWidth::W8);
    for record in 0..8 {
        for word in 0..8 {
            grid.write_word(record, 2, 3, word, (record * 10 + word) as u8);
        }
    }
    let gathered = grid.gather_column_wise(2, 3, 5);
    let expected: Vec<u8> = (0..8).map(|r| (r * 10 + 5) as u8).collect();
    assert_eq!(gathered, expected);
}

#[test]
fn controller_serves_mixed_stride_and_regular_streams() {
    let mut ctrl = Controller::new(ControllerConfig::default());
    let mut id = 0;
    for i in 0..24u64 {
        id += 1;
        let req = if i % 3 == 0 {
            MemRequest::stride_read(id, i * 512, StrideSpec::ssc_dsd())
        } else {
            MemRequest::read(id, i * 64)
        };
        ctrl.enqueue(req, 0).unwrap();
    }
    let done = ctrl.drain(0);
    assert_eq!(done.len(), 24);
    assert!(ctrl.device_stats().stride_reads == 8);
    // The mode-aware scheduler batches same-mode requests, so the mixed
    // stream may collapse to a single switch — but never zero.
    assert!(
        ctrl.device_stats().mode_switches >= 1,
        "mixed modes force a switch"
    );
    // Every completion is consistent: finish after issue.
    assert!(done.iter().all(|c| c.finish > c.issue));
}

#[test]
fn system_conserves_traffic_across_designs() {
    // The same trace must touch the same number of distinct sectors no
    // matter the design; only the *burst* counts may differ.
    let table = TableSpec::ta(0x4000_0000, 2048);
    let traces = partition_records(0..2048, 4, |r, t| {
        t.push(TraceOp::read_fields(r, vec![7]));
    });
    let base = System::new(SystemConfig::default(), commodity(), Store::Row).run(&[table], &traces);
    let sam = System::new(SystemConfig::default(), sam_en(), Store::Row).run(&[table], &traces);
    // Baseline: one 64B line per record. SAM: one burst per 8 records.
    assert_eq!(base.line_bursts, 2048);
    assert_eq!(sam.stride_bursts, 2048 / 8);
    // SAM transfers 8x fewer bytes for the same logical scan.
    assert_eq!(base.line_bursts, 8 * sam.stride_bursts);
}

#[test]
fn run_results_are_reproducible_across_invocations() {
    let table = TableSpec::tb(0x1_0000_0000, 4096);
    let traces = partition_records(0..4096, 4, |r, t| {
        t.push(TraceOp::Fields {
            table: 0,
            record: r,
            fields: Arc::from([2]),
            write: r % 7 == 0,
        });
        t.push(TraceOp::compute(3));
    });
    let run = || System::new(SystemConfig::default(), sam_en(), Store::Row).run(&[table], &traces);
    let a = run();
    let b = run();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.device, b.device);
    assert_eq!(a.writeback_bursts, b.writeback_bursts);
}

/// The device tap serves the protocol oracle while the controller draws
/// the same commands into the run's trace recorder: one run carries both
/// without either perturbing the simulation or the other.
#[test]
fn oracle_and_trace_recorder_observe_one_run_side_by_side() {
    let table = TableSpec::tb(0x1_0000_0000, 2048);
    let traces = partition_records(0..2048, 4, |r, t| {
        t.push(TraceOp::Fields {
            table: 0,
            record: r,
            fields: Arc::from([2]),
            write: r % 5 == 0,
        });
    });
    let sys = System::new(SystemConfig::default(), sam_en(), Store::Row);
    let oracle = || {
        Arc::new(Mutex::new(ProtocolOracle::new(OracleConfig::from_device(
            &sam_en().device_config(),
        ))))
    };
    let shadowed = |oracle: Arc<Mutex<ProtocolOracle>>| {
        let oracle = Arc::try_unwrap(oracle).ok().unwrap().into_inner().unwrap();
        let count = oracle.command_count();
        assert!(oracle.finish().is_empty(), "the run obeys the protocol");
        count
    };
    let plain = sys.run(&[table], &traces);

    let alone = oracle();
    let checked = sys.run_instrumented(
        &[table],
        &traces,
        &mut Instrumentation {
            observer: Some(alone.clone()),
            ..Default::default()
        },
    );
    assert_eq!(checked, plain);
    let alone = shadowed(alone);

    let both = oracle();
    let recorder = RunRecorder::shared(1 << 20, 10_000);
    let run = sys.run_instrumented(
        &[table],
        &traces,
        &mut Instrumentation {
            observer: Some(both.clone()),
            trace: Some(recorder.clone()),
            ..Default::default()
        },
    );
    assert_eq!(run, plain, "observing must not perturb the simulation");
    assert_eq!(shadowed(both), alone, "the oracle sees every command");

    let recorder = recorder.lock().unwrap();
    assert_eq!(recorder.ring.dropped(), 0, "the ring holds the whole run");
    let lanes = recorder
        .ring
        .events()
        .filter(|e| e.cat == Category::Dram)
        .count() as u64;
    let d = &run.device;
    assert!(d.mode_switches > 0 && d.writes + d.stride_writes > 0);
    assert_eq!(
        lanes,
        d.acts + d.pres + d.column_commands() + d.mode_switches,
        "one lane span per accepted non-REF command"
    );
}
