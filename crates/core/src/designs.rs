//! Constructors for the eight hardware designs of the evaluation
//! (Figure 12): commodity DRAM (the row-store baseline and, with a
//! column-store table, the "ideal" reference), the three SAM designs, the
//! two GS-DRAM variants, and the two RC-NVM variants.
//!
//! Area and storage overheads follow Section 6.1 and Figure 14(c); they are
//! re-derived independently by `sam-area` and cross-checked in tests there.

use crate::design::{AlignmentPolicy, Design, EccScheme, PowerTraits, StrideCaps};
use sam_dram::timing::Substrate;
use sam_ecc::layout::CodewordLayout;

/// Commodity DDR4 with chipkill: the paper's baseline (row-store) and, with
/// a column-store table layout, its "ideal" reference.
pub fn commodity() -> Design {
    Design {
        name: "commodity",
        substrate: Substrate::Dram,
        area_overhead: 0.0,
        storage_overhead: 0.0,
        stride: None,
        sub_ranked: false,
        alignment: AlignmentPolicy::Linear,
        ecc: EccScheme::Chipkill,
        codeword_layout: CodewordLayout::BeatSpread,
        critical_word_first: true,
        power: PowerTraits::commodity(),
    }
}

/// Sub-ranked memory (DGMS-style, the Section 1 related work): the rank is
/// split into four 16B sub-ranks and sparse accesses fetch from just one,
/// letting four independent accesses share the channel. Effective for
/// random accesses — but strided data share a word offset and therefore a
/// sub-rank, so strided scans serialize on one sub-lane (the paper's
/// motivating observation).
pub fn dgms() -> Design {
    Design {
        name: "DGMS",
        substrate: Substrate::Dram,
        area_overhead: 0.028, // per-sub-rank control/CS routing (AGMS paper)
        storage_overhead: 0.0,
        stride: None,
        sub_ranked: true,
        alignment: AlignmentPolicy::Linear,
        ecc: EccScheme::Chipkill,
        codeword_layout: CodewordLayout::BeatSpread,
        critical_word_first: true,
        power: PowerTraits::commodity(),
    }
}

/// SAM-sub (Section 4.1): column-wise subarrays gather strided data through
/// the helper flip-flops. ~7.2% area (extra global BLs, control lines,
/// global SAs); records align vertically across rows of a bank.
pub fn sam_sub() -> Design {
    Design {
        name: "SAM-sub",
        substrate: Substrate::Dram,
        area_overhead: 0.072,
        storage_overhead: 0.0,
        stride: Some(StrideCaps {
            needs_mode_switch: true,
            extra_burst_period: 0,
            field_switch_cost: true,
        }),
        sub_ranked: false,
        // Alignment regions stack deep inside one bank (records align with
        // the rows of that bank's subarrays), so row-wise scans lose
        // bank-level parallelism (Section 5.4.1).
        alignment: AlignmentPolicy::VerticalRows { depth: 2048 },
        ecc: EccScheme::Chipkill,
        codeword_layout: CodewordLayout::BeatSpread,
        critical_word_first: true,
        power: PowerTraits {
            stride_overfetch: 1.0,
            background_extra: 0.02, // extra decoding and SA logic
            fine_grained_activation: false,
        },
    }
}

/// SAM-IO (Section 4.2): the common-die I/O buffers gather four sub-rows of
/// one row; near-zero area (<0.01%: the 7-bit mode register), but internal
/// over-fetch (4x) and a transposed codeword layout that loses
/// critical-word-first.
pub fn sam_io() -> Design {
    Design {
        name: "SAM-IO",
        substrate: Substrate::Dram,
        area_overhead: 0.0001,
        storage_overhead: 0.0,
        stride: Some(StrideCaps {
            needs_mode_switch: true,
            extra_burst_period: 0,
            field_switch_cost: false,
        }),
        sub_ranked: false,
        alignment: AlignmentPolicy::Linear,
        ecc: EccScheme::Chipkill,
        codeword_layout: CodewordLayout::Transposed,
        critical_word_first: false,
        power: PowerTraits {
            stride_overfetch: 4.0, // fetches 288B to send 72B (Section 4.2.2)
            background_extra: 0.0,
            fine_grained_activation: false,
        },
    }
}

/// SAM-en (Section 4.3): SAM-IO plus fine-grained activation (option 1) and
/// the two-dimensional I/O buffer (option 2). ~0.7% area (control lines),
/// default codeword layout restored, no over-fetch.
pub fn sam_en() -> Design {
    Design {
        name: "SAM-en",
        substrate: Substrate::Dram,
        area_overhead: 0.007,
        storage_overhead: 0.0,
        stride: Some(StrideCaps {
            needs_mode_switch: true,
            extra_burst_period: 0,
            field_switch_cost: false,
        }),
        sub_ranked: false,
        alignment: AlignmentPolicy::Linear,
        ecc: EccScheme::Chipkill,
        codeword_layout: CodewordLayout::BeatSpread,
        critical_word_first: true,
        power: PowerTraits {
            stride_overfetch: 1.0,
            background_extra: 0.0,
            fine_grained_activation: true,
        },
    }
}

/// A SAM-en ablation with only option 2 (the 2D I/O buffer) and not option 1
/// (fine-grained activation): layout benefits without the power savings.
pub fn sam_en_no_fga() -> Design {
    let mut d = sam_en();
    d.name = "SAM-en(-fga)";
    d.power.fine_grained_activation = false;
    d.power.stride_overfetch = 4.0;
    d
}

/// A SAM-en ablation with only option 1 (fine-grained activation) and not
/// option 2: power savings but SAM-IO's transposed layout.
pub fn sam_en_no_2d() -> Design {
    let mut d = sam_en();
    d.name = "SAM-en(-2d)";
    d.codeword_layout = CodewordLayout::Transposed;
    d.critical_word_first = false;
    d
}

/// GS-DRAM (Section 3.3.1): gather-scatter across chips via a widened
/// command interface. No mode-switch cost, small area — but the strided
/// gather cannot co-fetch ECC, so chipkill is lost.
pub fn gs_dram() -> Design {
    Design {
        name: "GS-DRAM",
        substrate: Substrate::Dram,
        area_overhead: 0.005,
        storage_overhead: 0.0,
        stride: Some(StrideCaps {
            needs_mode_switch: false,
            extra_burst_period: 0,
            field_switch_cost: false,
        }),
        sub_ranked: false,
        alignment: AlignmentPolicy::Linear,
        ecc: EccScheme::Unprotected,
        codeword_layout: CodewordLayout::GatherNoEcc,
        critical_word_first: false,
        power: PowerTraits::commodity(),
    }
}

/// GS-DRAM enhanced with embedded ECC (per \[55\]) to restore protection:
/// ECC words live in-page and cost extra bursts — especially for strided
/// accesses whose gathered lines come from different rows, and for writes,
/// which become read-modify-writes on the ECC words (Section 3.3.1 counts
/// up to five ECC updates per write transfer).
pub fn gs_dram_ecc() -> Design {
    Design {
        name: "GS-DRAM-ecc",
        substrate: Substrate::Dram,
        area_overhead: 0.005,
        storage_overhead: 0.125, // 8 ECC bits per 64 data bits, in-page
        stride: Some(StrideCaps {
            needs_mode_switch: false,
            extra_burst_period: 0,
            field_switch_cost: false,
        }),
        sub_ranked: false,
        alignment: AlignmentPolicy::Linear,
        ecc: EccScheme::Embedded,
        codeword_layout: CodewordLayout::BeatSpread,
        critical_word_first: false,
        power: PowerTraits::commodity(),
    }
}

/// RC-NVM without the reshaped (2D) subarray: the crossbar symmetry is
/// exploited at bit level, so one strided word is collected from several
/// bit-level sub-fields (multiple column operations per burst).
pub fn rc_nvm_bit() -> Design {
    Design {
        name: "RC-NVM-bit",
        substrate: Substrate::Rram,
        area_overhead: 0.15,
        storage_overhead: 0.0,
        stride: Some(StrideCaps {
            needs_mode_switch: false,
            extra_burst_period: 2,
            field_switch_cost: true,
        }),
        sub_ranked: false,
        // RC-NVM's alignment spans the reshaped 2K-row subarray (Section
        // 3.3.2), confining large stretches of the table to one bank.
        alignment: AlignmentPolicy::VerticalRows { depth: 2048 },
        ecc: EccScheme::Chipkill,
        codeword_layout: CodewordLayout::BeatSpread,
        critical_word_first: true,
        power: PowerTraits::commodity(),
    }
}

/// RC-NVM with the reshaped square subarray (word-level symmetry): single
/// column operation per strided burst, at ~33% area overhead.
pub fn rc_nvm_wd() -> Design {
    Design {
        name: "RC-NVM-wd",
        substrate: Substrate::Rram,
        area_overhead: 0.33,
        storage_overhead: 0.0,
        stride: Some(StrideCaps {
            needs_mode_switch: false,
            extra_burst_period: 0,
            field_switch_cost: true,
        }),
        sub_ranked: false,
        // Same 2K-row reshaped-subarray alignment as RC-NVM-bit.
        alignment: AlignmentPolicy::VerticalRows { depth: 2048 },
        ecc: EccScheme::Chipkill,
        codeword_layout: CodewordLayout::BeatSpread,
        critical_word_first: true,
        power: PowerTraits::commodity(),
    }
}

/// All eight evaluated hardware designs, in Figure 12's legend order
/// (the baseline and ideal are `commodity()` with row/best table stores).
pub fn all_designs() -> Vec<Design> {
    vec![
        rc_nvm_bit(),
        rc_nvm_wd(),
        gs_dram(),
        gs_dram_ecc(),
        sam_sub(),
        sam_io(),
        sam_en(),
        commodity(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam_dram::timing::{RefreshMode, TimingParams};

    #[test]
    fn all_designs_distinct_names() {
        let designs = all_designs();
        let mut names: Vec<&str> = designs.iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), designs.len());
        assert_eq!(designs.len(), 8);
    }

    /// Every design in the sweep matrix, on both substrates (the Figure
    /// 14(a) swap) and under every fine-granularity refresh mode, derives
    /// a JEDEC-consistent parameter set. An inconsistent one would not
    /// crash a sweep; it would quietly skew its results.
    #[test]
    fn sweep_matrix_timing_is_jedec_consistent() {
        let mut configs = 0;
        for design in all_designs() {
            for substrate in [Substrate::Dram, Substrate::Rram] {
                let base = design
                    .clone()
                    .with_substrate(substrate)
                    .device_config()
                    .timing;
                for mode in [RefreshMode::Fgr1x, RefreshMode::Fgr2x, RefreshMode::Fgr4x] {
                    let violations = base.with_refresh_mode(mode).check_relations();
                    assert!(
                        violations.is_empty(),
                        "{} on {substrate} at {mode:?}: {violations:?}",
                        design.name
                    );
                    configs += 1;
                }
            }
        }
        assert_eq!(configs, 48);
    }

    #[test]
    fn area_overheads_match_section_6_1() {
        assert!((sam_sub().area_overhead - 0.072).abs() < 1e-9);
        assert!(sam_io().area_overhead < 0.001);
        assert!((sam_en().area_overhead - 0.007).abs() < 1e-9);
        assert!((rc_nvm_wd().area_overhead - 0.33).abs() < 1e-9);
    }

    #[test]
    fn sam_sub_timing_inflated_by_area() {
        let cfg = sam_sub().device_config();
        let base = TimingParams::ddr4_2400();
        assert!(cfg.timing.rcd > base.rcd);
        let io_cfg = sam_io().device_config();
        assert_eq!(io_cfg.timing.rcd, base.rcd, "SAM-IO adds no array latency");
    }

    #[test]
    fn rc_nvm_runs_on_rram() {
        assert_eq!(rc_nvm_wd().substrate, Substrate::Rram);
        assert_eq!(
            rc_nvm_wd().device_config().timing.rcd,
            (35.0 * 1.33f64).round() as u64
        );
    }

    #[test]
    fn substrate_swap_for_figure_14a() {
        let d = rc_nvm_wd().with_substrate(Substrate::Dram);
        assert_eq!(d.substrate, Substrate::Dram);
        assert_eq!(d.device_config().timing.substrate, Substrate::Dram);
    }

    #[test]
    fn only_gs_dram_lacks_protection() {
        for d in all_designs() {
            if d.name == "GS-DRAM" {
                assert_eq!(d.ecc, crate::design::EccScheme::Unprotected);
                assert!(!d.codeword_layout.codewords_complete());
            } else {
                assert!(d.codeword_layout.codewords_complete(), "{}", d.name);
            }
        }
    }

    #[test]
    fn sam_designs_need_mode_switch_gs_dram_does_not() {
        assert!(sam_io().stride.unwrap().needs_mode_switch);
        assert!(sam_en().stride.unwrap().needs_mode_switch);
        assert!(!gs_dram().stride.unwrap().needs_mode_switch);
    }

    #[test]
    fn ablations_toggle_single_options() {
        assert!(!sam_en_no_fga().power.fine_grained_activation);
        assert!(sam_en_no_fga().critical_word_first);
        assert!(sam_en_no_2d().power.fine_grained_activation);
        assert!(!sam_en_no_2d().critical_word_first);
    }
}
