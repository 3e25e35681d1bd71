//! Area model (Section 6.1 "Area", Figure 14(c)).
//!
//! Two sources of overhead are modelled exactly as the paper counts them:
//!
//! 1. **Wire routing**: extra wires are charged as routing tracks in a metal
//!    layer relative to the tracks the baseline array already uses there
//!    ([`track_overhead`]). SAM-sub's four extra differential global
//!    bitlines need 8 M2 tracks against the 140 the subarray already routes
//!    (128 global WLs + 12 for LDLs/WLsels), giving the paper's 5.7%.
//! 2. **Peripheral logic**: fixed block areas (from CACTI-3DD at 32nm)
//!    relative to the die ([`peripheral_overhead`]); the paper's 0.14mm²
//!    of extra global sense-amps is 0.8% of the array-proportional die.
//!
//! [`report`] assembles the full Figure 14(c) dataset per design.

#![warn(missing_docs)]

/// M2 routing tracks a baseline 512-row subarray uses: 128 for global
/// wordlines plus 12 for four differential LDLs and four WLsel lines.
pub const BASE_M2_TRACKS: u32 = 140;

/// Die area (mm²) against which peripheral blocks are charged, chosen so
/// the paper's 0.14mm² of global SAs equals its quoted 0.8%.
pub const DIE_MM2: f64 = 17.5;

/// Fractional overhead of adding `extra` routing tracks to a layer already
/// carrying `base` tracks.
///
/// # Panics
///
/// Panics if `base == 0`.
pub fn track_overhead(extra: u32, base: u32) -> f64 {
    assert!(base > 0, "baseline layer must carry tracks");
    extra as f64 / base as f64
}

/// Fractional overhead of a peripheral block of `block_mm2` on the die.
pub fn peripheral_overhead(block_mm2: f64) -> f64 {
    block_mm2 / DIE_MM2
}

/// One design's area/storage overhead report (a Figure 14(c) bar).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaReport {
    /// Design name.
    pub name: &'static str,
    /// Silicon area overhead (fraction).
    pub area: f64,
    /// Storage overhead (fraction; embedded ECC, duplicate copies).
    pub storage: f64,
    /// Extra metal layers demanded (NVM crossbar designs).
    pub extra_metal_layers: u32,
}

/// SAM-sub: 8 extra M2 tracks (four differential global BLs) + M3 control
/// lines (0.7%) + 0.14mm² global SAs + negligible column-decode logic.
pub fn sam_sub() -> AreaReport {
    let wiring_m2 = track_overhead(8, BASE_M2_TRACKS); // 5.7%
    let wiring_m3 = 0.007;
    let global_sa = peripheral_overhead(0.14); // 0.8%
    let control = peripheral_overhead(0.002); // < 0.01%
    AreaReport {
        name: "SAM-sub",
        area: wiring_m2 + wiring_m3 + global_sa + control,
        storage: 0.0,
        extra_metal_layers: 0,
    }
}

/// SAM-IO: only the 7-bit mode register.
pub fn sam_io() -> AreaReport {
    AreaReport {
        name: "SAM-IO",
        area: peripheral_overhead(0.0005),
        storage: 0.0,
        extra_metal_layers: 0,
    }
}

/// SAM-en: SAM-sub's control lines plus an extra serializer set.
pub fn sam_en() -> AreaReport {
    AreaReport {
        name: "SAM-en",
        area: 0.007 + peripheral_overhead(0.001),
        storage: 0.0,
        extra_metal_layers: 0,
    }
}

/// GS-DRAM: per-chip row-address offsetting logic; no ECC storage.
pub fn gs_dram() -> AreaReport {
    AreaReport {
        name: "GS-DRAM",
        area: 0.005,
        storage: 0.0,
        extra_metal_layers: 0,
    }
}

/// GS-DRAM-ecc: embedded ECC consumes 8 bits per 64 (12.5% storage).
pub fn gs_dram_ecc() -> AreaReport {
    AreaReport {
        name: "GS-DRAM-ecc",
        area: 0.005,
        storage: 0.125,
        extra_metal_layers: 0,
    }
}

/// RC-NVM without reshaped subarrays: duplicated peripheral circuits
/// (~15% silicon) and two extra metal layers.
pub fn rc_nvm_bit() -> AreaReport {
    AreaReport {
        name: "RC-NVM-bit",
        area: 0.15,
        storage: 0.0,
        extra_metal_layers: 2,
    }
}

/// RC-NVM with the reshaped (square) subarray: up to ~33% area from the
/// added global BLs, plus the two extra metal layers.
pub fn rc_nvm_wd() -> AreaReport {
    AreaReport {
        name: "RC-NVM-wd",
        area: 0.33,
        storage: 0.0,
        extra_metal_layers: 2,
    }
}

/// A software row+column double store: no silicon cost, 100% storage.
pub fn double_store() -> AreaReport {
    AreaReport {
        name: "double-store",
        area: 0.0,
        storage: 1.0,
        extra_metal_layers: 0,
    }
}

/// The full Figure 14(c) report.
pub fn report() -> Vec<AreaReport> {
    vec![
        rc_nvm_bit(),
        rc_nvm_wd(),
        gs_dram(),
        gs_dram_ecc(),
        sam_sub(),
        sam_io(),
        sam_en(),
        double_store(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sam_sub_wiring_matches_paper_5_7_percent() {
        assert!((track_overhead(8, BASE_M2_TRACKS) - 0.0571).abs() < 0.001);
    }

    #[test]
    fn sam_sub_global_sa_is_0_8_percent() {
        assert!((peripheral_overhead(0.14) - 0.008).abs() < 0.0001);
    }

    #[test]
    fn sam_sub_total_is_about_7_2_percent() {
        let r = sam_sub();
        assert!((r.area - 0.072).abs() < 0.002, "got {:.4}", r.area);
    }

    #[test]
    fn sam_io_is_negligible() {
        assert!(sam_io().area < 0.0001);
    }

    #[test]
    fn sam_en_is_about_0_7_percent() {
        let r = sam_en();
        assert!((r.area - 0.007).abs() < 0.001, "got {:.4}", r.area);
    }

    #[test]
    fn rc_nvm_needs_extra_metal() {
        assert_eq!(rc_nvm_bit().extra_metal_layers, 2);
        assert_eq!(rc_nvm_wd().extra_metal_layers, 2);
        assert!(rc_nvm_wd().area > rc_nvm_bit().area);
    }

    #[test]
    fn storage_overheads() {
        assert_eq!(gs_dram_ecc().storage, 0.125);
        assert_eq!(double_store().storage, 1.0);
        assert_eq!(sam_en().storage, 0.0);
    }

    #[test]
    fn report_orders_sam_last_among_hardware() {
        let r = report();
        assert_eq!(r.len(), 8);
        // SAM designs have the smallest silicon overheads of the
        // stride-capable hardware designs.
        let sam_max = [sam_sub().area, sam_io().area, sam_en().area]
            .into_iter()
            .fold(0.0f64, f64::max);
        assert!(sam_max < rc_nvm_bit().area);
    }

    #[test]
    #[should_panic(expected = "baseline layer")]
    fn zero_base_tracks_panics() {
        track_overhead(1, 0);
    }
}
