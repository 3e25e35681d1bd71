//! The engine's stride MSHR entries, checked exhaustively on small tables
//! for every Figure 12 design, both stores and every granularity: a
//! stride burst books one pending key per (gather block, sector offset),
//! and a stride writeback rebuilds its burst from (gather block, unit).

use std::collections::{BTreeMap, BTreeSet};

use sam::design::{Design, Granularity};
use sam::designs::all_designs;
use sam::layout::{Placement, Store, TableSpec};

/// Ta- and Tb-shaped tables at the query plans' bases. 21 records leave
/// the last K-group partial at every gather factor (8, 4 and 2).
fn tables() -> [TableSpec; 2] {
    [
        TableSpec::ta(0x4000_0000, 21),
        TableSpec::tb(0x1_0000_0000, 21),
    ]
}

fn check_placement(p: &Placement, what: &str) {
    let spec = *p.spec();
    // Every sector a live record's field occupies, with the first
    // (record, field) landing in it.
    let mut live = BTreeMap::new();
    for r in 0..spec.records {
        for f in 0..spec.fields {
            live.entry(p.field_addr(r, f) & !15).or_insert((r, f));
        }
    }
    let mut by_key: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for &s in live.keys() {
        by_key.entry(p.pending_key(s)).or_default().push(s);
    }

    let mut bursts = 0;
    for r in 0..spec.records {
        for f in 0..spec.fields {
            let Some(burst) = p.stride_burst(r, f) else {
                continue;
            };
            bursts += 1;
            let run = burst.sectors;
            assert!(run.contains(p.field_addr(r, f) & !15), "{what} ({r},{f})");
            // (a) Every sector of the run maps to one of the keys the
            // engine books for it: those of the run's first line.
            let keys: BTreeSet<u64> = run.head().iter().map(|s| p.pending_key(s)).collect();
            assert_eq!(keys.len(), run.per_line as usize, "{what} ({r},{f})");
            for s in run.iter() {
                assert!(
                    keys.contains(&p.pending_key(s)),
                    "{what} ({r},{f}): sector {s:#x} maps off the burst's keys"
                );
            }
            // (c) The writeback path's (block, unit) form names the same
            // burst.
            let block = p.gather_block(run.first_line()).expect("a burst's block");
            assert_eq!(block, run.first_line(), "{what} ({r},{f})");
            assert!(p.gather_block_index(block) < p.gather_blocks());
            assert_eq!(
                p.block_burst(block, burst.unit),
                (burst.burst_addr, burst.lane),
                "{what} ({r},{f})"
            );
        }
    }
    assert_eq!(bursts > 0, p.gather().is_some(), "{what}");

    // (b) Live sectors share a key only when one burst covers them all.
    for (key, sectors) in &by_key {
        if sectors.len() == 1 {
            continue;
        }
        let (r, f) = live[&sectors[0]];
        let burst = p
            .stride_burst(r, f)
            .unwrap_or_else(|| panic!("{what}: sectors {sectors:x?} share key {key:#x}"));
        let covered: BTreeSet<u64> = burst.sectors.iter().collect();
        for s in sectors {
            assert!(
                covered.contains(s),
                "{what}: sector {s:#x} shares key {key:#x} outside ({r},{f})'s burst"
            );
        }
    }
}

#[test]
fn stride_bursts_book_one_pending_key_per_sector_offset() {
    for design in all_designs() {
        for store in [Store::Row, Store::Column] {
            for gran in [Granularity::Bits4, Granularity::Bits8, Granularity::Bits16] {
                for spec in tables() {
                    let p = Placement::new(spec, store, &design, gran);
                    check_placement(
                        &p,
                        &format!("{} {store} {gran:?} {} fields", design.name, spec.fields),
                    );
                }
            }
        }
    }
}

/// At 4-bit granularity a stride burst gathers one 8 B unit per line, but
/// the sector cache installs whole 16 B sectors, so fields `2j` and
/// `2j + 1` travel on different lanes yet fill the same sectors: whichever
/// burst is issued first installs both fields (DESIGN.md §4, "Sector
/// install unit").
#[test]
fn bits4_field_pairs_share_one_sector_run_on_two_lanes() {
    for design in all_designs().into_iter().filter(Design::supports_stride) {
        for spec in tables() {
            let p = Placement::new(spec, Store::Row, &design, Granularity::Bits4);
            for r in 0..spec.records {
                for f in (0..spec.fields - 1).step_by(2) {
                    let what = format!("{} {} fields ({r},{f})", design.name, spec.fields);
                    let even = p.stride_burst(r, f).expect("a grouped table");
                    let odd = p.stride_burst(r, f + 1).expect("a grouped table");
                    assert_eq!(even.sectors, odd.sectors, "{what}");
                    assert_ne!(even.lane, odd.lane, "{what}");
                }
            }
        }
    }
}
