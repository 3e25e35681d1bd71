//! Pins the compiled plans: a stable hash of every Table 3 query's plan,
//! plus one arithmetic and one aggregate query, at the unit-test scale and
//! at the goldens' scale. A change to how `plan::compile` builds its traces
//! must emit the same ops in the same order, or one of these constants
//! moves.

use sam::ops::TraceOp;
use sam_imdb::plan::{compile, Plan, PlanConfig};
use sam_imdb::query::Query;

/// FNV-1a, fed field by field in a fixed byte order.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Hashes the tables, then each core's trace: its length, then every op
/// with a tag byte, its table, record, field ids, write flag or cycles.
fn plan_digest(plan: &Plan) -> u64 {
    let mut h = Fnv::new();
    h.u64(plan.tables.len() as u64);
    for t in &plan.tables {
        h.u64(t.base);
        h.u64(u64::from(t.fields));
        h.u64(t.records);
    }
    h.u64(plan.traces.len() as u64);
    for trace in &plan.traces {
        h.u64(trace.len() as u64);
        for op in trace {
            match op {
                TraceOp::Fields {
                    table,
                    record,
                    fields,
                    write,
                } => {
                    h.bytes(&[0, *table]);
                    h.u64(*record);
                    h.u64(fields.len() as u64);
                    for &f in fields.iter() {
                        h.bytes(&f.to_le_bytes());
                    }
                    h.bytes(&[u8::from(*write)]);
                }
                TraceOp::Whole {
                    table,
                    record,
                    write,
                } => {
                    h.bytes(&[1, *table]);
                    h.u64(*record);
                    h.bytes(&[u8::from(*write)]);
                }
                TraceOp::Compute(cycles) => {
                    h.bytes(&[2]);
                    h.bytes(&cycles.to_le_bytes());
                }
            }
        }
    }
    h.0
}

/// Every Table 3 query, then one arithmetic and one aggregate query.
fn queries() -> Vec<Query> {
    let mut qs: Vec<Query> = Query::q_set().into_iter().collect();
    qs.extend(Query::qs_set());
    qs.push(Query::Arithmetic {
        projectivity: 8,
        selectivity: 0.5,
    });
    qs.push(Query::Aggregate {
        projectivity: 4,
        selectivity: 0.25,
    });
    qs
}

fn check(cfg: &PlanConfig, expected: &[u64]) {
    let got: Vec<u64> = queries()
        .into_iter()
        .map(|q| plan_digest(&compile(q, cfg)))
        .collect();
    let drifted: Vec<String> = queries()
        .iter()
        .zip(got.iter().zip(expected))
        .filter(|(_, (g, e))| g != e)
        .map(|(q, (g, e))| format!("{}: {g:#018x} (pinned {e:#018x})", q.name()))
        .collect();
    assert!(
        drifted.is_empty() && got.len() == expected.len(),
        "compiled plans drifted:\n{}\nall digests: {got:#018x?}",
        drifted.join("\n")
    );
}

#[test]
fn plans_at_tiny_scale_are_pinned() {
    check(&PlanConfig::tiny(), &TINY);
}

#[test]
fn plans_at_golden_scale_are_pinned() {
    let cfg = PlanConfig {
        ta_records: 2048,
        tb_records: 8192,
        ..PlanConfig::default_scale()
    };
    check(&cfg, &GOLDEN);
}

/// Digests at `PlanConfig::tiny()`, in `queries()` order.
const TINY: [u64; 20] = [
    0xa827_693f_351b_5f6a, // Q1
    0x88be_9727_c1c7_71e9, // Q2
    0xbb1a_4938_52a9_5b92, // Q3
    0xac29_6d08_2c1d_3c4b, // Q4
    0x88bd_9f09_ac0c_2ee2, // Q5
    0x4323_0695_8b07_4383, // Q6
    0x5442_920f_c00e_f5ce, // Q7
    0x6909_b2a4_fdd6_838e, // Q8
    0x0ed9_17ef_6f76_7c17, // Q9
    0x6bdb_d82e_dcf3_1727, // Q10
    0x4e43_0688_321f_72a8, // Q11
    0x3d91_6f5f_772f_6d36, // Q12
    0xea29_9a8d_2bf5_5350, // Qs1
    0x623f_be34_d02e_f810, // Qs2
    0x8533_ad43_422c_d752, // Qs3
    0x246d_e05a_028a_5c0c, // Qs4
    0xa26f_d790_d92e_9150, // Qs5
    0xf7ec_d815_0d22_ba10, // Qs6
    0x4929_96ad_b3c8_1c8f, // Arithmetic
    0x61d1_d98f_542e_29e8, // Aggregate
];

/// Digests at the goldens' scale (Ta 2048, Tb 8192 records).
const GOLDEN: [u64; 20] = [
    0x4a4b_1d0b_2c78_a011, // Q1
    0x0bab_f3e3_e78d_bdce, // Q2
    0x436d_9492_7988_c8fd, // Q3
    0x4ab6_c0b3_8301_6d09, // Q4
    0xf9bc_9058_8581_0f7d, // Q5
    0x9c17_8eb9_e5f8_0319, // Q6
    0xf999_48b9_727e_46e7, // Q7
    0x64c3_dd94_267b_49d7, // Q8
    0x5619_62a5_a60b_d7a5, // Q9
    0xe390_6bdd_ac2f_16f1, // Q10
    0x16a6_4bc9_fd83_d101, // Q11
    0xbfcc_926e_7eba_e0f5, // Q12
    0x49ea_b27f_644f_aefa, // Qs1
    0xb3dd_4b73_346b_98fa, // Qs2
    0xfe9a_0f7c_cb1e_1948, // Qs3
    0xa5fc_5c77_4bf1_5c2b, // Qs4
    0x1aa7_114e_f742_6efa, // Qs5
    0x4052_2e7a_5723_28fa, // Qs6
    0x4539_d4a4_3fbb_2a7d, // Arithmetic
    0xc476_d056_cc9a_e526, // Aggregate
];
