//! Physical address mapping: `rw:rk:bk:ch:cl:offset` (Table 2) and the
//! Figure 10 stride-mode bit swap.
//!
//! With one channel, 2 ranks, 16 banks/rank and 128 cachelines per 8KB row,
//! a physical address decomposes (from the least-significant end) into a 6-bit
//! line offset, 7-bit column, 0-bit channel, 4-bit bank (2-bit group + 2-bit
//! bank), 1-bit rank, and the row above. Consecutive cachelines therefore
//! fill a row before moving to the next bank — the open-page-friendly layout
//! the paper's Table 2 names `rw:rk:bk:ch:cl:offset`.
//!
//! Under stride mode an access gathers `K` consecutive cachelines in one
//! burst, so the OS page must map onto the reshaped rows: Figure 10 swaps a
//! small segment of the page offset (2 bits for 8-bit-per-chip granularity,
//! 3 bits for 4-bit granularity) with the bits just above it. The swap is
//! provided here as an explicit, invertible function.

use sam_dram::device::DeviceConfig;

/// A fully decoded DRAM location.
///
/// Every queued request carries one, so the fields are as narrow as the
/// geometry allows: 12 bytes in all. [`AddressMapper::new`] checks that
/// the geometry fits them; the controller widens them to the device's
/// `usize`/`u64` command fields when it issues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Location {
    /// Rank index.
    pub rank: u8,
    /// Bank group within the rank.
    pub bank_group: u8,
    /// Bank within the group.
    pub bank: u8,
    /// Row within the bank.
    pub row: u32,
    /// Cacheline-sized column within the row.
    pub col: u32,
    /// Byte offset within the cacheline.
    pub offset: u8,
}

/// Maps physical byte addresses onto the geometry of a [`DeviceConfig`]
/// using the `rw:rk:bk:ch:cl:offset` field order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AddressMapper {
    line_bits: u32,
    col_bits: u32,
    bank_bits: u32,
    group_bits: u32,
    rank_bits: u32,
    rows_per_bank: u64,
}

impl AddressMapper {
    /// Builds a mapper for `config`.
    ///
    /// # Panics
    ///
    /// Panics if any geometry dimension is not a power of two (hardware
    /// address decoders require it), or if an index does not fit its
    /// [`Location`] field: ranks, bank groups and banks per group above
    /// 256, rows per bank or columns per row above 2^32.
    pub fn new(config: &DeviceConfig) -> Self {
        let pow2 = |v: u64, what: &str| -> u32 {
            assert!(v.is_power_of_two(), "{what} ({v}) must be a power of two");
            v.trailing_zeros()
        };
        let fits = |count: u64, field_bits: u32, what: &str| {
            assert!(
                count <= 1 << field_bits,
                "{what} ({count}) does not fit a {field_bits}-bit location field"
            );
        };
        fits(config.ranks as u64, 8, "ranks");
        fits(config.bank_groups as u64, 8, "bank_groups");
        fits(config.banks_per_group as u64, 8, "banks_per_group");
        fits(config.rows_per_bank, 32, "rows_per_bank");
        fits(config.cols_per_row, 32, "cols_per_row");
        Self {
            line_bits: 6, // 64B lines
            col_bits: pow2(config.cols_per_row, "cols_per_row"),
            bank_bits: pow2(config.banks_per_group as u64, "banks_per_group"),
            group_bits: pow2(config.bank_groups as u64, "bank_groups"),
            rank_bits: pow2(config.ranks as u64, "ranks"),
            rows_per_bank: config.rows_per_bank,
        }
    }

    /// Decodes a physical byte address.
    ///
    /// The bank/group/rank field is XORed with the low row bits
    /// (permutation-based page interleaving, standard in modern
    /// controllers) so that power-of-two-strided streams do not alias into
    /// one bank. Use [`bank_swizzle`] to pre-compensate when a layout needs
    /// to target a specific physical bank.
    pub fn decode(&self, addr: u64) -> Location {
        let mut a = addr;
        let take = |a: &mut u64, bits: u32| -> u64 {
            let v = *a & ((1u64 << bits) - 1);
            *a >>= bits;
            v
        };
        let offset = take(&mut a, self.line_bits);
        let col = take(&mut a, self.col_bits);
        // channel: 1 channel -> 0 bits
        let combined_bits = self.bank_bits + self.group_bits + self.rank_bits;
        let mut combined = take(&mut a, combined_bits);
        let row = a % self.rows_per_bank;
        combined ^= row & ((1u64 << combined_bits) - 1);
        // `new` checked that every index fits its field, and the 64B line
        // offset fits a byte.
        let bank = (combined & ((1 << self.bank_bits) - 1)) as u8;
        let bank_group = ((combined >> self.bank_bits) & ((1 << self.group_bits) - 1)) as u8;
        let rank = (combined >> (self.bank_bits + self.group_bits)) as u8;
        Location {
            rank,
            bank_group,
            bank,
            row: row as u32,
            col: col as u32,
            offset: offset as u8,
        }
    }

    /// Encodes a location back into a physical byte address (inverse of
    /// [`Self::decode`] for in-range rows).
    pub fn encode(&self, loc: &Location) -> u64 {
        let combined_bits = self.bank_bits + self.group_bits + self.rank_bits;
        let mut combined = (u64::from(loc.rank) << (self.bank_bits + self.group_bits))
            | (u64::from(loc.bank_group) << self.bank_bits)
            | u64::from(loc.bank);
        let row = u64::from(loc.row);
        combined ^= row & ((1u64 << combined_bits) - 1);
        let mut a = row;
        a = (a << combined_bits) | combined;
        a = (a << self.col_bits) | u64::from(loc.col);
        (a << self.line_bits) | u64::from(loc.offset)
    }

    /// Number of bytes per row (all columns).
    pub fn row_bytes(&self) -> u64 {
        1u64 << (self.col_bits + self.line_bits)
    }

    /// Number of bytes covered by one bank before the mapping moves to the
    /// next bank.
    pub fn line_bytes(&self) -> u64 {
        1u64 << self.line_bits
    }
}

/// The controller's bank-permutation function: the bank-field value that,
/// combined with `row`, decodes to physical bank-field `target`. XOR is its
/// own inverse, so this both applies and removes the swizzle. `bits` is the
/// combined width of the bank+group+rank fields (5 for Table 2's geometry).
pub fn bank_swizzle(target: u64, row: u64, bits: u32) -> u64 {
    (target ^ row) & ((1u64 << bits) - 1)
}

/// The Figure 10 stride-mode page-offset remap.
///
/// Swaps the `seg_bits`-wide segment starting at bit 4 of the address (the
/// bits selecting which 16B strided unit within a gathered group) with the
/// segment immediately above it, so that an OS page still maps onto the
/// reshaped stride-mode rows. `seg_bits` is 2 for 8-bit-per-chip granularity
/// and 3 for 4-bit granularity (Section 5.2).
///
/// The function is an involution: applying it twice returns the original
/// address.
///
/// # Panics
///
/// Panics if `seg_bits` is not 2 or 3.
pub fn stride_page_remap(addr: u64, seg_bits: u32) -> u64 {
    assert!(
        seg_bits == 2 || seg_bits == 3,
        "segment is 2 or 3 bits (Figure 10)"
    );
    // Segment A: bits [4, 4+seg). Segment B: bits [4+seg, 4+2*seg).
    let mask = (1u64 << seg_bits) - 1;
    let a = (addr >> 4) & mask;
    let b = (addr >> (4 + seg_bits)) & mask;
    let cleared = addr & !((mask << 4) | (mask << (4 + seg_bits)));
    cleared | (b << 4) | (a << (4 + seg_bits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_dram::device::DeviceConfig;

    fn mapper() -> AddressMapper {
        AddressMapper::new(&DeviceConfig::ddr4_server())
    }

    #[test]
    fn decode_encode_roundtrip() {
        let m = mapper();
        for addr in [0u64, 64, 4096, 0xDEAD_BEC0, 0x1_0000_0000, 0x7FFF_FFC0] {
            let loc = m.decode(addr);
            assert_eq!(m.encode(&loc), addr, "addr {addr:#x}");
        }
    }

    #[test]
    fn consecutive_lines_fill_a_row() {
        // Open-page friendliness: the 128 lines of a row differ only in col.
        let m = mapper();
        let base = m.decode(0);
        for i in 1..128u64 {
            let loc = m.decode(i * 64);
            assert_eq!(u64::from(loc.col), i);
            assert_eq!(
                (loc.rank, loc.bank_group, loc.bank, loc.row),
                (base.rank, base.bank_group, base.bank, base.row)
            );
        }
        // Line 128 moves to the next bank.
        let next = m.decode(128 * 64);
        assert_ne!((next.bank, next.bank_group), (base.bank, base.bank_group));
    }

    #[test]
    fn field_widths_match_table2_geometry() {
        let m = mapper();
        assert_eq!(m.row_bytes(), 8192); // 128 lines x 64B
        assert_eq!(m.line_bytes(), 64);
        // 16 banks x 2 ranks x 8KB = 256KB before the row increments; the
        // bank permutation XORs the combined bank field with the row.
        let loc = m.decode(256 * 1024);
        assert_eq!(loc.row, 1);
        assert_eq!((loc.rank, loc.bank_group, loc.bank, loc.col), (0, 0, 1, 0));
    }

    #[test]
    fn bank_permutation_spreads_row_strided_streams() {
        // Addresses 256KB apart (same bank field, consecutive rows) land in
        // different physical banks thanks to the XOR swizzle.
        let m = mapper();
        let banks: std::collections::BTreeSet<(u8, u8, u8)> = (0..8u64)
            .map(|i| {
                let l = m.decode(i * 256 * 1024);
                (l.rank, l.bank_group, l.bank)
            })
            .collect();
        assert!(
            banks.len() >= 8,
            "swizzle must de-alias row-strided streams"
        );
    }

    #[test]
    fn bank_swizzle_is_involution() {
        for row in 0..64u64 {
            for target in 0..32u64 {
                let emitted = bank_swizzle(target, row, 5);
                assert_eq!(bank_swizzle(emitted, row, 5), target);
            }
        }
    }

    #[test]
    fn rank_bit_sits_above_banks() {
        let m = mapper();
        // 16 banks x 8KB = 128KB spans rank 0's banks; the next 128KB is rank 1.
        let loc = m.decode(128 * 1024);
        assert_eq!(loc.rank, 1);
        assert_eq!(loc.row, 0);
    }

    #[test]
    fn offset_is_byte_within_line() {
        let m = mapper();
        let loc = m.decode(64 + 17);
        assert_eq!(loc.offset, 17);
        assert_eq!(loc.col, 1);
    }

    #[test]
    fn stride_remap_is_involution() {
        for seg in [2u32, 3] {
            for addr in [
                0u64,
                0x12345678,
                0xFFFF_FFFF_FFFF_FFFF,
                0xABCD_EF01_2345_6789,
            ] {
                assert_eq!(stride_page_remap(stride_page_remap(addr, seg), seg), addr);
            }
        }
    }

    #[test]
    #[allow(clippy::unusual_byte_groupings)] // grouped by remap segment, not nibble
    fn stride_remap_swaps_expected_bits() {
        // addr with segment A = 0b11 at bits [4,6) and B = 0b00 at [6,8).
        let addr = 0b0011_0000u64;
        let remapped = stride_page_remap(addr, 2);
        assert_eq!(remapped, 0b1100_0000);
        // 3-bit variant.
        let addr3 = 0b000_111_0000u64;
        assert_eq!(stride_page_remap(addr3, 3), 0b111_000_0000);
    }

    #[test]
    fn stride_remap_preserves_low_and_high_bits() {
        let addr = 0xFFFF_0000_0000_FF0Fu64;
        let r = stride_page_remap(addr, 3);
        assert_eq!(r & 0xF, addr & 0xF, "16B offset untouched");
        assert_eq!(
            r >> 10,
            addr >> 10,
            "bits above the swapped segments untouched"
        );
    }

    #[test]
    #[should_panic(expected = "segment is 2 or 3 bits")]
    fn stride_remap_rejects_other_widths() {
        stride_page_remap(0, 4);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_geometry_rejected() {
        let mut cfg = DeviceConfig::ddr4_server();
        cfg.cols_per_row = 100;
        AddressMapper::new(&cfg);
    }

    #[test]
    fn a_location_is_12_bytes() {
        assert_eq!(std::mem::size_of::<Location>(), 12);
    }

    #[test]
    fn largest_fitting_geometries_are_accepted() {
        let mut wide = DeviceConfig::ddr4_server();
        (wide.ranks, wide.bank_groups, wide.banks_per_group) = (256, 256, 256);
        let mut tall = DeviceConfig::ddr4_server();
        tall.rows_per_bank = 1 << 32;
        for cfg in [wide, tall] {
            let m = AddressMapper::new(&cfg);
            let loc = Location {
                rank: (cfg.ranks - 1) as u8,
                bank_group: (cfg.bank_groups - 1) as u8,
                bank: (cfg.banks_per_group - 1) as u8,
                row: (cfg.rows_per_bank - 1) as u32,
                col: 127,
                offset: 63,
            };
            assert_eq!(m.decode(m.encode(&loc)), loc);
        }
    }

    #[test]
    #[should_panic(expected = "ranks (512) does not fit")]
    fn too_many_ranks_rejected() {
        let mut cfg = DeviceConfig::ddr4_server();
        cfg.ranks = 512;
        AddressMapper::new(&cfg);
    }

    #[test]
    #[should_panic(expected = "bank_groups (512) does not fit")]
    fn too_many_bank_groups_rejected() {
        let mut cfg = DeviceConfig::ddr4_server();
        cfg.bank_groups = 512;
        AddressMapper::new(&cfg);
    }

    #[test]
    #[should_panic(expected = "banks_per_group (512) does not fit")]
    fn too_many_banks_rejected() {
        let mut cfg = DeviceConfig::ddr4_server();
        cfg.banks_per_group = 512;
        AddressMapper::new(&cfg);
    }

    #[test]
    #[should_panic(expected = "rows_per_bank (8589934592) does not fit")]
    fn too_many_rows_rejected() {
        let mut cfg = DeviceConfig::ddr4_server();
        cfg.rows_per_bank = 1 << 33;
        AddressMapper::new(&cfg);
    }
}
