//! Property-based tests of record placement: bijectivity of the grouped
//! layout, coverage of stride fills, and vertical-stack invariants — for
//! arbitrary table geometries and granularities. Also differential tests
//! of the engine's allocation-free front end (op expansion, stride-burst
//! descriptors, gather-block keys) against straightforward reference
//! implementations.

use proptest::prelude::*;
use std::collections::BTreeSet;

use sam::design::{Design, Granularity};
use sam::designs::{commodity, rc_nvm_wd, sam_en, sam_sub};
use sam::layout::{Placement, Store, TableSpec, FIELD_BYTES};
use sam::ops::TraceOp;
use sam::system::{expand_op, SectorTouch};

/// Linear (commodity, SAM-en) and vertical (SAM-sub, RC-NVM) designs.
fn design(i: usize) -> Design {
    [commodity(), sam_en(), sam_sub(), rc_nvm_wd()][i % 4].clone()
}

/// The op expansion as first written: a `BTreeSet` dedup over a fresh
/// `Vec`, kept here as the reference `expand_op` must match exactly.
fn reference_expansion(placements: &[Placement], op: &TraceOp) -> Vec<SectorTouch> {
    let (table, record, write) = match *op {
        TraceOp::Compute(_) => return Vec::new(),
        TraceOp::Fields {
            table,
            record,
            write,
            ..
        }
        | TraceOp::Whole {
            table,
            record,
            write,
        } => (table, record, write),
    };
    let p = &placements[table as usize];
    let (fields, field_access): (Vec<u32>, bool) = match op {
        TraceOp::Fields { fields, .. } => (fields.iter().map(|&f| u32::from(f)).collect(), true),
        _ => ((0..p.spec().fields).collect(), false),
    };
    let mut seen = BTreeSet::new();
    let mut touches = Vec::new();
    for f in fields {
        let sector = p.field_addr(record, f) & !15;
        if seen.insert(sector) {
            touches.push(SectorTouch {
                cache_sector: sector,
                table,
                record,
                field: f as u16,
                write,
                field_access,
            });
        }
    }
    if field_access && touches.len() as u64 * 16 * 2 > p.spec().record_bytes() {
        for t in &mut touches {
            t.field_access = false;
        }
    }
    touches
}

/// The stride-fill sector list as first written: one push per live group
/// line, clipped at the table's last record.
fn reference_stride_sectors(
    spec: TableSpec,
    gran: Granularity,
    record: u64,
    field: u32,
) -> Vec<u64> {
    let k = gran.gather() as u64;
    let unit = gran.unit_bytes();
    let rb = spec.record_bytes().next_multiple_of(64);
    let g = record / k;
    let u = field as u64 * FIELD_BYTES / unit;
    let first_line = spec.base + g * k * rb + (u / k) * k * 64;
    let sector_off = ((u % k) * unit) & !15;
    let mut out = Vec::new();
    for r in 0..k {
        if g * k + r >= spec.records {
            break;
        }
        for s in 0..(unit / 16).max(1) {
            out.push(first_line + r * 64 + sector_off + s * 16);
        }
    }
    out
}

fn granularity() -> impl Strategy<Value = Granularity> {
    prop_oneof![
        Just(Granularity::Bits16),
        Just(Granularity::Bits8),
        Just(Granularity::Bits4),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn grouped_layout_never_collides(
        fields in prop_oneof![Just(2u32), Just(4), Just(8), Just(16), Just(64), Just(128)],
        records in 8u64..200,
        gran in granularity(),
    ) {
        let spec = TableSpec::new(0, fields, records);
        let p = Placement::new(spec, Store::Row, &sam_en(), gran);
        let mut seen = BTreeSet::new();
        for r in 0..records {
            for f in 0..fields {
                prop_assert!(seen.insert(p.field_addr(r, f)), "collision at ({r},{f})");
            }
        }
    }

    #[test]
    fn stride_fill_covers_the_requesting_sector(
        fields in prop_oneof![Just(16u32), Just(128)],
        records in 16u64..128,
        record in 0u64..128,
        field in 0u32..128,
        gran in granularity(),
    ) {
        let record = record % records;
        let field = field % fields;
        let spec = TableSpec::new(0, fields, records);
        let p = Placement::new(spec, Store::Row, &sam_en(), gran);
        let fill = p.stride_fill(record, field).unwrap();
        let sector = p.field_addr(record, field) & !15;
        prop_assert!(fill.sector_addrs.contains(&sector),
            "fill must cover the sector that triggered it");
        // All group-mates' same-field sectors are covered too.
        let k = gran.gather() as u64;
        let g = record / k;
        for r in (g * k)..((g + 1) * k).min(records) {
            let s = p.field_addr(r, field) & !15;
            prop_assert!(fill.sector_addrs.contains(&s), "group mate {r} missing");
        }
    }

    #[test]
    fn stride_fill_lines_are_consecutive(
        record in 0u64..512,
        field in 0u32..128,
        gran in granularity(),
    ) {
        let spec = TableSpec::ta(0, 512);
        let p = Placement::new(spec, Store::Row, &sam_en(), gran);
        let fill = p.stride_fill(record, field % 128).unwrap();
        let lines: Vec<u64> = fill.sector_addrs.iter().map(|s| s & !63).collect();
        let mut unique: Vec<u64> = lines.clone();
        unique.dedup();
        for w in unique.windows(2) {
            prop_assert_eq!(w[1] - w[0], 64, "gathered lines must be consecutive");
        }
    }

    #[test]
    fn vertical_mapping_is_injective_per_table(
        records in 16u64..96,
        fields in prop_oneof![Just(16u32), Just(128)],
    ) {
        let spec = TableSpec::new(0, fields, records);
        for design in [sam_sub(), rc_nvm_wd()] {
            let p = Placement::new(spec, Store::Row, &design, Granularity::Bits4);
            let mut seen = BTreeSet::new();
            for r in 0..records {
                for f in 0..fields {
                    let a = p.dram_addr_for(r, f);
                    prop_assert!(seen.insert(a), "{}: DRAM collision at ({r},{f})", design.name);
                }
            }
        }
    }

    #[test]
    fn column_store_is_field_major(
        records in 64u64..512,
        r1 in 0u64..512,
        f in 0u32..128,
    ) {
        let r1 = r1 % records;
        let spec = TableSpec::ta(0, records);
        let p = Placement::new(spec, Store::Column, &commodity(), Granularity::Bits4);
        if r1 + 1 < records {
            prop_assert_eq!(p.field_addr(r1 + 1, f) - p.field_addr(r1, f), 8);
        }
    }

    #[test]
    fn expand_op_matches_the_btreeset_expansion(
        (fields, records, record) in (prop_oneof![Just(4u32), Just(8), Just(16), Just(128)], 1u64..64, 0u64..64),
        picks in proptest::collection::vec(0u16..128, 0..24),
        (whole, write, table) in (any::<bool>(), any::<bool>(), 0u8..2),
        (design_idx, column) in (0usize..4, any::<bool>()),
        gran in granularity(),
    ) {
        let specs = [
            TableSpec::new(0x4000_0000, fields, records),
            TableSpec::tb(0x1_0000_0000, records),
        ];
        let store = if column { Store::Column } else { Store::Row };
        let d = design(design_idx);
        let placements: Vec<Placement> =
            specs.iter().map(|t| Placement::new(*t, store, &d, gran)).collect();
        let spec = specs[table as usize];
        let record = record % spec.records;
        // Unsorted, duplicated and empty field lists all occur.
        let picked: Vec<u16> = picks.iter().map(|&f| f % spec.fields as u16).collect();
        let op = if whole {
            TraceOp::Whole { table, record, write }
        } else {
            TraceOp::Fields { table, record, fields: picked.into(), write }
        };
        // A stale buffer must be replaced, not appended to.
        let mut out = vec![SectorTouch {
            cache_sector: 1,
            table: 9,
            record: 9,
            field: 9,
            write: true,
            field_access: true,
        }];
        expand_op(&placements, &op, &mut out);
        prop_assert_eq!(out, reference_expansion(&placements, &op), "{} {store} {gran:?}", d.name);
        expand_op(&placements, &TraceOp::Compute(3), &mut out);
        prop_assert!(out.is_empty());
    }

    #[test]
    fn stride_burst_matches_stride_fill_and_the_reference(
        (fields, records, record, field) in (prop_oneof![Just(8u32), Just(16), Just(128)], 1u64..100, 0u64..100, 0u32..128),
        design_idx in 1usize..4,
        gran in granularity(),
    ) {
        let record = record % records;
        let field = field % fields;
        let spec = TableSpec::new(0x4000_0000, fields, records);
        let p = Placement::new(spec, Store::Row, &design(design_idx), gran);
        let burst = p.stride_burst(record, field).unwrap();
        let fill = p.stride_fill(record, field).unwrap();
        let sectors: Vec<u64> = burst.sectors.iter().collect();
        prop_assert_eq!(&sectors, &fill.sector_addrs);
        prop_assert_eq!(sectors.len() as u32, burst.sectors.lines * burst.sectors.per_line);
        prop_assert_eq!((burst.burst_addr, burst.lane), (fill.burst_addr, fill.lane));
        // Clipped last groups included: `records` is not a multiple of K
        // in most cases drawn here.
        prop_assert_eq!(sectors, reference_stride_sectors(spec, gran, record, field));
    }

    #[test]
    fn every_line_a_burst_fills_maps_to_its_block_key(
        (fields, records, record, field) in (prop_oneof![Just(8u32), Just(16), Just(128)], 1u64..100, 0u64..100, 0u32..128),
        (other_record, other_field) in (0u64..100, 0u32..128),
        design_idx in 1usize..4,
        gran in granularity(),
    ) {
        let spec = TableSpec::new(0x4000_0000, fields, records);
        let p = Placement::new(spec, Store::Row, &design(design_idx), gran);
        let burst = p.stride_burst(record % records, field % fields).unwrap();
        let key = burst.sectors.first_line();
        for s in burst.sectors.iter() {
            prop_assert_eq!(p.gather_block(s & !63), Some(key));
        }
        // Bursts share a key exactly when they fill the same lines.
        let other = p.stride_burst(other_record % records, other_field % fields).unwrap();
        let lines = |b: &sam::layout::StrideBurst| -> BTreeSet<u64> {
            b.sectors.iter().map(|s| s & !63).collect()
        };
        prop_assert_eq!(other.sectors.first_line() == key, lines(&other) == lines(&burst));
        // Lines outside the table have no block.
        prop_assert_eq!(p.gather_block(spec.base - 64), None);
    }
}
