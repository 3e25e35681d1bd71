//! Table placement in physical memory, per design (Section 5.4.1).
//!
//! Three placements occur in the evaluation:
//!
//! * **Plain row store** (the baseline): record `r`'s field `f` lives at
//!   `base + r*record_bytes + f*8`. Scanning one field touches one line per
//!   record — the strided pattern of Figure 1.
//! * **Plain column store** (the Q-query "ideal"): field `f`'s values are
//!   contiguous, so scans are sequential.
//! * **Grouped row store** (all stride-capable designs, Figure 11(a)): the
//!   database aligns every `K` records (K = the gather factor) so that one
//!   stride burst returns the same field unit of all K group-mates. Within a
//!   group, line `b*K + r` holds units `[b*K, (b+1)*K)` of record `r`; the K
//!   units a burst gathers then sit in K *consecutive* cachelines.
//!
//! Two address spaces must be distinguished. The **cache address** uniquely
//! names a datum and is what the hierarchy is indexed by. The **DRAM
//! address** determines bank/row locality at the device. For SAM-IO/SAM-en
//! and GS-DRAM the two coincide (gathering happens inside a row). SAM-sub
//! and RC-NVM instead align records vertically across the rows of one bank:
//! their *regular* accesses see the vertical placement (sequential scans
//! lose bank-level parallelism — the Qs-query penalty), while their
//! *stride* accesses ride the orthogonal column-wise path with the same
//! locality as the row-wise gathers (the symmetric data path), except that
//! different field blocks occupy different rows of the same bank — so
//! interleaved multi-field scans pay the column-to-column field-switch
//! penalty as row ping-pong.

use crate::design::{AlignmentPolicy, Design, Granularity};

/// Bytes per field (the benchmark tables use 8B fields throughout).
pub const FIELD_BYTES: u64 = 8;

/// A table's geometry and base address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TableSpec {
    /// Base physical address (must be row-aligned for sensible locality).
    pub base: u64,
    /// Number of 8B fields per record.
    pub fields: u32,
    /// Number of records.
    pub records: u64,
}

impl TableSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if `fields == 0` or `records == 0`.
    pub fn new(base: u64, fields: u32, records: u64) -> Self {
        assert!(
            fields > 0 && records > 0,
            "table must have fields and records"
        );
        Self {
            base,
            fields,
            records,
        }
    }

    /// The paper's wide table Ta: 128 fields (1KB records).
    pub fn ta(base: u64, records: u64) -> Self {
        Self::new(base, 128, records)
    }

    /// The paper's narrow table Tb: 16 fields (128B records).
    pub fn tb(base: u64, records: u64) -> Self {
        Self::new(base, 16, records)
    }

    /// Bytes per record.
    pub fn record_bytes(&self) -> u64 {
        self.fields as u64 * FIELD_BYTES
    }

    /// Total bytes of table data.
    pub fn data_bytes(&self) -> u64 {
        self.record_bytes() * self.records
    }
}

/// Row-store or column-store table organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Store {
    /// Records contiguous (OLTP-friendly). The paper's baseline.
    #[default]
    Row,
    /// Fields contiguous (OLAP-friendly). The Q-query ideal.
    Column,
}

impl std::fmt::Display for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Store::Row => write!(f, "row-store"),
            Store::Column => write!(f, "column-store"),
        }
    }
}

/// A stride burst to issue and the cache sectors it fills.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrideFill {
    /// DRAM-schedule address of the burst (first gathered byte).
    pub burst_addr: u64,
    /// Cache-visible 16B-sector addresses the burst fills.
    pub sector_addrs: Vec<u64>,
    /// I/O-buffer lane the units travel on (selects the `Sx4_n` mode).
    pub lane: u8,
}

/// The cache sectors one fill installs: `per_line` consecutive 16B
/// sectors from `first` in each of `lines` consecutive cachelines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectorRun {
    /// Address of the first sector (16B aligned).
    pub first: u64,
    /// Consecutive cachelines the run covers.
    pub lines: u32,
    /// Consecutive sectors filled in each of those lines.
    pub per_line: u32,
}

impl SectorRun {
    /// A run of exactly one sector.
    pub fn single(sector: u64) -> Self {
        Self {
            first: sector,
            lines: 1,
            per_line: 1,
        }
    }

    /// The cacheline holding the first sector; for a stride burst it names
    /// the gather block (see [`Placement::gather_block`]).
    pub fn first_line(&self) -> u64 {
        self.first & !63
    }

    /// The run's sectors in its first line. A stride run's other lines
    /// share their pending keys (see [`Placement::pending_key`]).
    pub fn head(&self) -> SectorRun {
        SectorRun { lines: 1, ..*self }
    }

    /// The sector addresses, line by line.
    pub fn iter(&self) -> impl Iterator<Item = u64> {
        let (first, per_line) = (self.first, u64::from(self.per_line));
        (0..u64::from(self.lines))
            .flat_map(move |r| (0..per_line).map(move |s| first + r * 64 + s * 16))
    }

    /// Whether [`Self::iter`] yields `sector`, without walking the run.
    /// Exact for the runs placements build, whose `per_line` is at most 4.
    pub fn contains(&self, sector: u64) -> bool {
        let d = sector.wrapping_sub(self.first);
        d < u64::from(self.lines) * 64
            && d % 64 < u64::from(self.per_line) * 16
            && d.is_multiple_of(16)
    }
}

/// A stride burst to issue, described without allocating: the `Copy` form
/// of [`StrideFill`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrideBurst {
    /// DRAM-schedule address of the burst (first gathered byte).
    pub burst_addr: u64,
    /// I/O-buffer lane the units travel on (selects the `Sx4_n` mode).
    pub lane: u8,
    /// Which of the K units of each line of its gather block the burst
    /// gathers (`0..K`). With the block it names the burst: see
    /// [`Placement::block_burst`].
    pub unit: u8,
    /// Cache-visible sectors the burst fills.
    pub sectors: SectorRun,
}

/// Resolves (record, field) coordinates to cache and DRAM addresses under a
/// given design, store, and granularity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Placement {
    spec: TableSpec,
    store: Store,
    /// Gather factor K when the design supports stride (grouped layout).
    gather: Option<u64>,
    unit_bytes: u64,
    vertical: Option<u32>,
    /// Whether field-block switches cost a column-to-column row ping-pong.
    field_switch: bool,
}

impl Placement {
    /// Builds the placement a `design` uses for `spec` under `store`.
    pub fn new(spec: TableSpec, store: Store, design: &Design, gran: Granularity) -> Self {
        // Stride alignment only pays when records span at least a full
        // cacheline; smaller records fit in one line already, and padding
        // them to group alignment would waste 64B per record — a database
        // would simply not align such a table (Section 5.4.1).
        let grouped = design.supports_stride() && store == Store::Row && spec.record_bytes() >= 64;
        let vertical = match design.alignment {
            AlignmentPolicy::VerticalRows { depth } => Some(depth),
            AlignmentPolicy::Linear => None,
        };
        Self {
            spec,
            store,
            gather: grouped.then_some(gran.gather() as u64),
            unit_bytes: gran.unit_bytes(),
            vertical,
            field_switch: design.stride.is_some_and(|c| c.field_switch_cost),
        }
    }

    /// The table spec.
    pub fn spec(&self) -> &TableSpec {
        &self.spec
    }

    /// Cache-visible byte address of `field` of `record`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates exceed the table geometry.
    pub fn field_addr(&self, record: u64, field: u32) -> u64 {
        assert!(record < self.spec.records, "record {record} out of range");
        assert!(field < self.spec.fields, "field {field} out of range");
        let rb = self.spec.record_bytes();
        match (self.store, self.gather) {
            (Store::Column, _) => {
                // Field f's column, padded to line alignment.
                let col_stride = (self.spec.records * FIELD_BYTES).next_multiple_of(64);
                self.spec.base + field as u64 * col_stride + record * FIELD_BYTES
            }
            (Store::Row, None) => self.spec.base + record * rb + field as u64 * FIELD_BYTES,
            (Store::Row, Some(k)) => {
                // Grouped layout: within group g, line b*K + r holds units
                // [b*K, (b+1)*K) of record r — 64B of one record per line,
                // so records pad up to full cachelines (the Figure 11
                // alignment requirement). K and the unit size are powers
                // of two, so the group/unit arithmetic is shifts and masks.
                let rb = rb.next_multiple_of(64);
                let (ks, us) = (k.trailing_zeros(), self.unit_bytes.trailing_zeros());
                let r = record & (k - 1);
                let byte = field as u64 * FIELD_BYTES;
                let u = byte >> us;
                let b = u >> ks;
                let within_line = ((u & (k - 1)) << us) + (byte & (self.unit_bytes - 1));
                self.spec.base + (record - r) * rb + (((b << ks) + r) << 6) + within_line
            }
        }
    }

    /// DRAM-schedule address for a *regular* access to the cacheline holding
    /// `cache_addr` when only the line address is known (writebacks):
    /// identical for linear designs; vertically-aligned designs stack
    /// consecutive 8KB blocks into one bank.
    pub fn dram_addr_regular(&self, cache_addr: u64) -> u64 {
        match self.vertical {
            None => cache_addr,
            Some(depth) => {
                let rel = cache_addr.saturating_sub(self.spec.base);
                self.spec.base + vertical_stack(rel, depth as u64)
            }
        }
    }

    /// DRAM-schedule address for a regular access to (`record`, `field`).
    ///
    /// Linear designs: identical to the cache address. Vertically aligned
    /// designs (SAM-sub, RC-NVM; Section 5.4.1): record `r` of a gather
    /// group lives in DRAM row `r mod K` of the group's row set, so
    /// *consecutive records occupy different rows of the same bank* — the
    /// row-conflict source behind the paper's Qs-query degradation. Groups
    /// pack side by side within the row set until the rows fill, then the
    /// next row set begins (in the same bank, up to the stacking depth).
    pub fn dram_addr_for(&self, record: u64, field: u32) -> u64 {
        let Some(depth) = self.vertical else {
            return self.field_addr(record, field);
        };
        const ROW_BYTES: u64 = 8192;
        let rb = self.spec.record_bytes();
        let k = self.gather.unwrap_or(8);
        let within = field as u64 * FIELD_BYTES;
        if rb > ROW_BYTES {
            // Oversized records degenerate to block stacking.
            return self.dram_addr_regular(self.field_addr(record, field));
        }
        let lanes = ROW_BYTES / rb; // records per row
                                    // Row-batch factor: the controller's FR-FCFS window batches the
                                    // row-wise traffic of small records, effectively serving several
                                    // consecutive records per row visit before the vertical alignment
                                    // forces a row switch. One switch per ~16 cachelines of scan.
        let batch = (1024 / rb).clamp(1, lanes);
        let rowset = record / (k * lanes);
        let within_set = record % (k * lanes);
        let q = within_set / batch;
        let rec_row = q % k;
        let lane = (q / k) * batch + within_set % batch;
        let row_index = rowset * k + rec_row;
        let linear = row_index * ROW_BYTES + lane * rb + within;
        self.spec.base + vertical_stack(linear, depth as u64)
    }

    /// The stride burst that fills the 16B sector(s) containing
    /// (`record`, `field`) — `None` when the design/store cannot stride.
    /// The allocating form of [`Self::stride_burst`].
    pub fn stride_fill(&self, record: u64, field: u32) -> Option<StrideFill> {
        self.stride_burst(record, field).map(|b| {
            let mut sector_addrs =
                Vec::with_capacity(b.sectors.lines as usize * b.sectors.per_line as usize);
            sector_addrs.extend(b.sectors.iter());
            StrideFill {
                burst_addr: b.burst_addr,
                sector_addrs,
                lane: b.lane,
            }
        })
    }

    /// The stride burst that fills the 16B sector(s) containing
    /// (`record`, `field`) — `None` when the design/store cannot stride.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates exceed the table geometry.
    pub fn stride_burst(&self, record: u64, field: u32) -> Option<StrideBurst> {
        let k = self.gather?;
        assert!(record < self.spec.records, "record {record} out of range");
        assert!(field < self.spec.fields, "field {field} out of range");
        // Line-padded record size, matching `field_addr`'s grouped layout.
        let rb = self.spec.record_bytes().next_multiple_of(64);
        let (ks, us) = (k.trailing_zeros(), self.unit_bytes.trailing_zeros());
        let group_first = record & !(k - 1);
        let byte = field as u64 * FIELD_BYTES;
        let u = byte >> us;
        let b = u >> ks;
        let unit = (u & (k - 1)) as u8;

        // Cache sectors: the same unit offset in each of the K group lines,
        // clipped at table end (the last partial group gathers dead lines).
        let first_line = self.spec.base + group_first * rb + ((b << ks) << 6);
        let sectors = SectorRun {
            first: first_line + self.unit_sector_off(unit),
            lines: (self.spec.records - group_first).min(k) as u32,
            per_line: (self.unit_bytes >> 4).max(1) as u32,
        };
        let (burst_addr, lane) = self.burst_in_block(first_line, b, unit);
        Some(StrideBurst {
            burst_addr,
            lane,
            unit,
            sectors,
        })
    }

    /// Offset within a line of the first 16B sector holding `unit`.
    fn unit_sector_off(&self, unit: u8) -> u64 {
        (u64::from(unit) << self.unit_bytes.trailing_zeros()) & !15
    }

    /// DRAM-schedule address and lane of the stride burst that gathers
    /// `unit` from every line of the gather block `block` (named by its
    /// first line, as [`Self::gather_block`] gives it): the form the
    /// engine's stride writebacks use, through the same address formula as
    /// [`Self::stride_burst`].
    ///
    /// # Panics
    ///
    /// Panics if the table is not grouped.
    pub fn block_burst(&self, block: u64, unit: u8) -> (u64, u8) {
        // Block i of the table is field block i mod (lines per record) of
        // its group (see `field_addr`'s grouped layout).
        let lines_per_record = self.spec.record_bytes().div_ceil(64);
        let b = self.gather_block_index(block) as u64 % lines_per_record;
        self.burst_in_block(block, b, unit)
    }

    /// The stride-burst address formula: the burst gathering `unit` from
    /// the lines of gather block `block`, which holds field block `b`.
    fn burst_in_block(&self, block: u64, b: u64, unit: u8) -> (u64, u8) {
        let sector_addr = block + self.unit_sector_off(unit);
        // Linear designs gather inside the row (the burst's own lines);
        // vertical designs use the orthogonal column space where one
        // field-block's bursts are sequential and a field switch jumps.
        // Stride bursts ride the gathered lines themselves: along a scan of
        // one field, the column-wise access of SAM-sub/RC-NVM enjoys the
        // same buffer locality as the row-wise gathers of SAM-IO/SAM-en
        // (the paper's symmetric-data-path claim). But switching to a
        // *different field block* re-drives the orthogonal selection: for
        // the field-switch designs each block's column structures occupy a
        // different row of the *same* bank (an 8MB offset keeps the bank
        // fixed under the controller's XOR permutation), so interleaved
        // multi-field scans ping-pong rows — the paper's column-to-column
        // switch penalty.
        let burst_addr = if self.field_switch {
            const BLOCK_REGION: u64 = 8 * 1024 * 1024;
            sector_addr + 512 * 1024 * 1024 + b * BLOCK_REGION
        } else {
            sector_addr
        };
        (burst_addr, unit & 3)
    }

    /// The gather block holding cacheline `line`, named by its first line:
    /// the K consecutive lines every stride burst of one (group, field
    /// block) fills together. `None` when the table is not grouped or the
    /// line lies outside its grouped span.
    pub fn gather_block(&self, line: u64) -> Option<u64> {
        let k = self.gather?;
        let rel = line.checked_sub(self.spec.base)?;
        let rb = self.spec.record_bytes().next_multiple_of(64);
        // Whole groups: K is a power of two, so this rounds with a mask.
        let span = ((self.spec.records + k - 1) & !(k - 1)) * rb;
        (rel < span).then(|| self.spec.base + (rel & !(k * 64 - 1)))
    }

    /// Number of gather blocks in the table's grouped span (0 when the
    /// table is not grouped): the length of a per-block record.
    pub fn gather_blocks(&self) -> usize {
        self.gather.map_or(0, |k| {
            let lines = self.spec.record_bytes().div_ceil(64);
            (self.spec.records.div_ceil(k) * lines) as usize
        })
    }

    /// Index among [`Self::gather_blocks`] of the gather block `block`,
    /// named by its first line as [`Self::gather_block`] gives it.
    ///
    /// # Panics
    ///
    /// Panics if the table is not grouped.
    pub fn gather_block_index(&self, block: u64) -> usize {
        let k = self.gather.expect("only grouped tables have gather blocks");
        ((block - self.spec.base) >> (k.trailing_zeros() + 6)) as usize
    }

    /// The MSHR key of `sector` (16B aligned): a fill in flight covers the
    /// sector exactly when its key is pending. In a grouped table the key
    /// is the sector at the same offset of the gather block's first line,
    /// which every line of one stride burst shares, so a burst registers
    /// one key per sector offset rather than one per gathered sector.
    /// Elsewhere, as for narrow fills, it is the sector itself.
    pub fn pending_key(&self, sector: u64) -> u64 {
        let line = sector & !63;
        self.gather_block(line)
            .map_or(sector, |block| block + (sector - line))
    }

    /// Gather factor, if striding is available.
    pub fn gather(&self) -> Option<u64> {
        self.gather
    }
}

/// Restacks consecutive 8KB blocks vertically: `depth` blocks fill
/// consecutive rows of one *physical* bank before placement moves to the
/// next of the 32 banks (16 banks x 2 ranks). Inverse of the controller's
/// bank-interleaved default, and deliberately hostile to sequential scans.
/// The emitted bank field pre-compensates the controller's XOR bank
/// permutation so the physical bank really is fixed across the stacked rows.
fn vertical_stack(addr: u64, depth: u64) -> u64 {
    const ROW_BYTES: u64 = 8192;
    const BANKS: u64 = 32;
    let block = addr / ROW_BYTES;
    let within = addr % ROW_BYTES;
    let region = block / (BANKS * depth);
    let in_region = block % (BANKS * depth);
    let bank = in_region / depth;
    let row_slot = in_region % depth;
    let row = region * depth + row_slot;
    let bank_field = sam_memctrl::mapping::bank_swizzle(bank, row, 5);
    let new_block = row * BANKS + bank_field;
    new_block * ROW_BYTES + within
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::designs::{commodity, rc_nvm_wd, sam_en, sam_sub};

    fn ta() -> TableSpec {
        TableSpec::ta(0, 1024)
    }

    #[test]
    fn spec_geometry() {
        let t = ta();
        assert_eq!(t.record_bytes(), 1024);
        assert_eq!(t.data_bytes(), 1024 * 1024);
        assert_eq!(TableSpec::tb(0, 10).record_bytes(), 128);
    }

    #[test]
    fn plain_row_store_addresses() {
        let p = Placement::new(ta(), Store::Row, &commodity(), Granularity::Bits4);
        assert_eq!(p.field_addr(0, 0), 0);
        assert_eq!(p.field_addr(0, 3), 24);
        assert_eq!(p.field_addr(2, 0), 2048);
        assert!(p.stride_fill(0, 0).is_none(), "commodity cannot stride");
    }

    #[test]
    fn column_store_addresses() {
        let p = Placement::new(ta(), Store::Column, &commodity(), Granularity::Bits4);
        // Column stride: 1024 records x 8B = 8192.
        assert_eq!(p.field_addr(0, 1) - p.field_addr(0, 0), 8192);
        assert_eq!(p.field_addr(5, 0) - p.field_addr(4, 0), 8);
    }

    #[test]
    fn grouped_layout_keeps_units_in_consecutive_lines() {
        let p = Placement::new(ta(), Store::Row, &sam_en(), Granularity::Bits4);
        let fill = p.stride_fill(0, 5).unwrap();
        // K=8 at 4-bit granularity: 8 sectors in 8 consecutive lines.
        assert_eq!(fill.sector_addrs.len(), 8);
        for w in fill.sector_addrs.windows(2) {
            assert_eq!(w[1] - w[0], 64);
        }
        // Every group-mate's field 5 address lies in the fill set's sectors.
        for r in 0..8u64 {
            let a = p.field_addr(r, 5);
            let sector = a & !15;
            assert!(
                fill.sector_addrs.contains(&sector),
                "record {r} addr {a:#x}"
            );
        }
    }

    #[test]
    fn grouped_layout_is_a_bijection() {
        // No two (record, field) pairs may collide in the grouped layout.
        let spec = TableSpec::new(0, 16, 64);
        let p = Placement::new(spec, Store::Row, &sam_en(), Granularity::Bits4);
        let mut seen = std::collections::BTreeSet::new();
        for r in 0..64 {
            for f in 0..16 {
                assert!(seen.insert(p.field_addr(r, f)), "collision at ({r},{f})");
            }
        }
        // And stays inside the table's data span.
        let max = seen.iter().max().unwrap() + FIELD_BYTES;
        assert!(max <= spec.data_bytes());
    }

    #[test]
    fn whole_record_stays_within_one_group_span() {
        // Under the grouped layout a record's lines are scattered with
        // stride K*64 but confined to its group (so they share DRAM rows).
        let p = Placement::new(ta(), Store::Row, &sam_en(), Granularity::Bits4);
        let k = 8;
        let rb = 1024;
        for f in (0..128).step_by(2) {
            let a = p.field_addr(3, f);
            assert!(a < k * rb, "field {f} at {a:#x} escapes the group span");
        }
    }

    #[test]
    fn bits8_granularity_gathers_four() {
        let p = Placement::new(ta(), Store::Row, &sam_en(), Granularity::Bits8);
        let fill = p.stride_fill(0, 2).unwrap();
        assert_eq!(fill.sector_addrs.len(), 4);
        // A 16B unit covers two adjacent fields: 2 and 3 share a fill.
        let f3 = p.field_addr(0, 3);
        assert!(fill.sector_addrs.contains(&(f3 & !15)));
    }

    #[test]
    fn bits16_granularity_fills_two_sectors_per_line() {
        let p = Placement::new(ta(), Store::Row, &sam_en(), Granularity::Bits16);
        let fill = p.stride_fill(0, 0).unwrap();
        // K=2 lines x 2 sectors per 32B unit.
        assert_eq!(fill.sector_addrs.len(), 4);
    }

    #[test]
    fn partial_last_group_clips() {
        let spec = TableSpec::new(0, 16, 10); // 10 records, K=8: last group has 2
        let p = Placement::new(spec, Store::Row, &sam_en(), Granularity::Bits4);
        let fill = p.stride_fill(9, 0).unwrap();
        assert_eq!(fill.sector_addrs.len(), 2);
    }

    #[test]
    fn sector_run_contains_exactly_what_it_iterates() {
        let line = 0x1000;
        for lines in 0..=8u32 {
            for per_line in 0..=4u32 {
                for offset in (0..64).step_by(16) {
                    let run = SectorRun {
                        first: line + offset,
                        lines,
                        per_line,
                    };
                    let members: std::collections::BTreeSet<u64> = run.iter().collect();
                    // Two lines before the run to two lines past it, at
                    // half-sector steps: misaligned probes are never in.
                    let end = line + (u64::from(lines) + 2) * 64;
                    for probe in (line - 128..end).step_by(8) {
                        assert_eq!(
                            run.contains(probe),
                            members.contains(&probe),
                            "{run:?} probe {probe:#x}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn linear_designs_burst_addr_is_first_line() {
        let p = Placement::new(ta(), Store::Row, &sam_en(), Granularity::Bits4);
        let fill = p.stride_fill(0, 0).unwrap();
        assert_eq!(fill.burst_addr, fill.sector_addrs[0]);
        assert_eq!(p.dram_addr_regular(12345), 12345, "linear: identity");
    }

    #[test]
    fn vertical_designs_stride_like_linear_but_scan_vertically() {
        // Stride bursts pace like the linear designs along one field's scan
        // (symmetric data path): consecutive groups advance identically...
        let p = Placement::new(ta(), Store::Row, &sam_sub(), Granularity::Bits4);
        let pe = Placement::new(ta(), Store::Row, &sam_en(), Granularity::Bits4);
        let d_sub =
            p.stride_fill(8, 5).unwrap().burst_addr - p.stride_fill(0, 5).unwrap().burst_addr;
        let d_en =
            pe.stride_fill(8, 5).unwrap().burst_addr - pe.stride_fill(0, 5).unwrap().burst_addr;
        assert_eq!(d_sub, d_en);
        // ...but different field blocks land in different rows of the SAME
        // bank (the column-to-column switch penalty): 8MB apart keeps the
        // bank fixed under the XOR permutation.
        let b0 = p.stride_fill(0, 0).unwrap().burst_addr;
        let b1 = p.stride_fill(0, 8).unwrap().burst_addr;
        // One block region (8MB) plus the next block's line offset (512B).
        assert_eq!(b1 - b0, 8 * 1024 * 1024 + 512);
        // ...while regular accesses see the vertical alignment.
        assert_ne!(p.dram_addr_for(9, 0), pe.dram_addr_for(9, 0));
    }

    #[test]
    fn vertical_stack_keeps_blocks_in_one_physical_bank() {
        // Blocks 0..depth map to the same physical bank (the bank field is
        // pre-compensated for the controller's XOR permutation: physical
        // bank = field ^ row).
        let depth = 8;
        for b in 0..depth {
            let a = vertical_stack(b * 8192, depth);
            let field = (a / 8192) % 32;
            let row = (a / 8192) / 32;
            assert_eq!(field ^ row, 0, "block {b} physical bank");
            assert_eq!(row, b);
        }
        // Block `depth` moves to physical bank 1, row 0.
        let a = vertical_stack(depth * 8192, depth);
        assert_eq!(((a / 8192) % 32) ^ ((a / 8192) / 32), 1);
        assert_eq!((a / 8192) / 32, 0);
    }

    #[test]
    fn vertical_stack_is_a_bijection_on_blocks() {
        let depth = 8;
        let mut seen = std::collections::BTreeSet::new();
        for b in 0..1024u64 {
            let a = vertical_stack(b * 8192, depth);
            assert_eq!(a % 8192, 0);
            assert!(seen.insert(a), "block {b} collides");
        }
    }

    #[test]
    fn rc_nvm_uses_vertical_alignment() {
        let p = Placement::new(ta(), Store::Row, &rc_nvm_wd(), Granularity::Bits4);
        assert_ne!(p.dram_addr_regular(8192), 8192);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn field_addr_bounds_checked() {
        let p = Placement::new(ta(), Store::Row, &commodity(), Granularity::Bits4);
        p.field_addr(0, 128);
    }
}
