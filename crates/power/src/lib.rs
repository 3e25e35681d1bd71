//! Power and energy model (Section 6.1 "Power", Figure 13).
//!
//! Follows the Micron DDR4 power-calculator methodology the paper uses:
//! per-command energies derived from data-sheet IDD currents, plus
//! state-dependent background power, summed over a run's command counts.
//! Per-design adjustments mirror the paper:
//!
//! * **SAM-IO** internally activates and moves 4x the transferred data in
//!   stride mode (the whole 128-bit buffer is filled); its stride reads
//!   charge the array-side energy multiplied by the over-fetch factor.
//! * **SAM-en** adds fine-grained activation (option 1): activations serving
//!   stride bursts open only the mats that hold useful data.
//! * **SAM-sub** pays ~2% extra background power for its added decode/SA
//!   logic.
//! * **RRAM** (RC-NVM's substrate) has near-zero background power but
//!   expensive writes, and needs no refresh.
//!
//! # Example
//!
//! ```
//! use sam_power::{ActivityCounts, PowerParams};
//! use sam::designs::commodity;
//!
//! let params = PowerParams::ddr4();
//! let activity = ActivityCounts { cycles: 1_000_000, acts: 1_000, reads: 8_000,
//!     writes: 1_000, stride_reads: 0, stride_writes: 0, refreshes: 100, gather: 8 };
//! let breakdown = sam_power::breakdown(&params, &commodity(), &activity);
//! assert!(breakdown.total_mw() > 0.0);
//! ```

#![warn(missing_docs)]

use sam::design::Design;
use sam::system::RunResult;
use sam_dram::timing::Substrate;

/// Electrical parameters of one memory chip plus rank geometry.
///
/// DDR4 values follow the Micron 8Gb DDR4-2400 data sheet the paper cites
/// (IDD in mA, VDD in volts); RRAM values follow the RC-NVM/NVMain models:
/// negligible standby current, read similar to DRAM, writes several times
/// more expensive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerParams {
    /// Supply voltage (V).
    pub vdd: f64,
    /// One ACT-PRE cycle current (mA).
    pub idd0: f64,
    /// Precharge standby current (mA).
    pub idd2n: f64,
    /// Active standby current (mA).
    pub idd3n: f64,
    /// Read burst current (mA).
    pub idd4r: f64,
    /// Write burst current (mA).
    pub idd4w: f64,
    /// Refresh current (mA).
    pub idd5: f64,
    /// Clock period (ns) — DDR4-2400 command clock: 0.833 ns.
    pub tck_ns: f64,
    /// Chips per rank sharing the channel (18 for the x4 server rank).
    pub chips: u32,
    /// Row cycle / activate window in clocks (for ACT energy).
    pub trc: f64,
    /// Refresh cycle time in clocks (for REF energy).
    pub trfc: f64,
    /// Burst occupancy in clocks (BL8 = 4).
    pub tburst: f64,
    /// Fraction of a read burst's energy spent on the array/GIO side (the
    /// part SAM-IO's over-fetch multiplies) vs. the I/O drivers.
    pub array_fraction: f64,
    /// Write-energy multiplier relative to the IDD4W baseline (RRAM's
    /// SET/RESET pulses).
    pub write_multiplier: f64,
    /// Background-power scale (RRAM: near zero).
    pub background_scale: f64,
}

impl PowerParams {
    /// Micron 8Gb DDR4-2400 x4.
    pub fn ddr4() -> Self {
        Self {
            vdd: 1.2,
            idd0: 48.0,
            idd2n: 34.0,
            idd3n: 42.0,
            idd4r: 130.0,
            idd4w: 125.0,
            idd5: 38.0,
            tck_ns: 1.0 / 1.2,
            chips: 18,
            trc: 56.0,
            trfc: 420.0,
            tburst: 4.0,
            array_fraction: 0.6,
            write_multiplier: 1.0,
            background_scale: 1.0,
        }
    }

    /// RRAM modelled after the RC-NVM / NVMain parameters: near-zero
    /// background, no refresh, writes ~5x a DRAM write burst.
    pub fn rram() -> Self {
        Self {
            idd5: 0.0,
            write_multiplier: 5.0,
            background_scale: 0.02,
            ..Self::ddr4()
        }
    }

    /// Parameters matching a design's substrate.
    pub fn for_design(design: &Design) -> Self {
        match design.substrate {
            Substrate::Dram => Self::ddr4(),
            Substrate::Rram => Self::rram(),
        }
    }
}

/// Command counts and duration of a run (extractable from a
/// [`RunResult`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActivityCounts {
    /// Total memory-clock cycles.
    pub cycles: u64,
    /// Row activations.
    pub acts: u64,
    /// Regular read bursts.
    pub reads: u64,
    /// Regular write bursts.
    pub writes: u64,
    /// Stride-mode read bursts.
    pub stride_reads: u64,
    /// Stride-mode write bursts.
    pub stride_writes: u64,
    /// Refreshes.
    pub refreshes: u64,
    /// Gather factor of stride bursts (for fine-grained-activation scaling).
    pub gather: u64,
}

impl ActivityCounts {
    /// Extracts counts from a run result.
    pub fn from_run(run: &RunResult, gather: u64) -> Self {
        Self {
            cycles: run.cycles,
            acts: run.device.acts,
            reads: run.device.reads,
            writes: run.device.writes,
            stride_reads: run.device.stride_reads,
            stride_writes: run.device.stride_writes,
            refreshes: run.device.refreshes,
            gather,
        }
    }
}

/// Average-power breakdown over a run, in milliwatts (whole rank).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Breakdown {
    /// Standby/background power.
    pub background_mw: f64,
    /// Activate/precharge power.
    pub act_mw: f64,
    /// Read/write burst power (including refresh).
    pub rdwr_mw: f64,
}

impl Breakdown {
    /// Total average power.
    pub fn total_mw(&self) -> f64 {
        self.background_mw + self.act_mw + self.rdwr_mw
    }
}

/// Computes the average-power breakdown of a run under `design`.
///
/// # Panics
///
/// Panics if `activity.cycles == 0`.
pub fn breakdown(params: &PowerParams, design: &Design, activity: &ActivityCounts) -> Breakdown {
    assert!(activity.cycles > 0, "a run must span at least one cycle");
    let p = params;
    let chips = p.chips as f64;
    let time_ns = activity.cycles as f64 * p.tck_ns;

    // Background: blended standby current, scaled by substrate and the
    // design's extra logic. Assume banks active ~60% of a busy run.
    let bg_ma = 0.6 * p.idd3n + 0.4 * p.idd2n;
    let background_mw =
        p.vdd * bg_ma * chips * p.background_scale * (1.0 + design.power.background_extra);

    // ACT energy per command (nJ, rank-wide): the IDD0 loop minus the
    // standby floor over one tRC.
    let e_act = p.vdd * (p.idd0 - p.idd3n) * p.trc * p.tck_ns * chips * 1e-3; // mA*ns*V = pJ*1e0... keep consistent units below
                                                                              // Fine-grained activation (SAM-en option 1): activations that serve
                                                                              // stride bursts open only 1/gather of the mats.
    let total_bursts =
        (activity.reads + activity.writes + activity.stride_reads + activity.stride_writes).max(1);
    let stride_share =
        (activity.stride_reads + activity.stride_writes) as f64 / total_bursts as f64;
    let act_scale = if design.power.fine_grained_activation {
        let g = activity.gather.max(1) as f64;
        1.0 - stride_share * (1.0 - 1.0 / g)
    } else {
        1.0
    };
    let act_energy = e_act * activity.acts as f64 * act_scale;

    // Burst energies (per burst, rank-wide).
    let e_rd = p.vdd * (p.idd4r - p.idd3n) * p.tburst * p.tck_ns * chips * 1e-3;
    let e_wr =
        p.vdd * (p.idd4w - p.idd3n) * p.tburst * p.tck_ns * chips * 1e-3 * p.write_multiplier;
    // Stride reads: the array-side share is multiplied by the over-fetch
    // factor (SAM-IO moves 4 buffers internally to send one lane). Stride
    // writes drive only the selected lane's cells, so they do not pay the
    // over-fetch.
    let of = design.power.stride_overfetch;
    let e_srd = e_rd * (p.array_fraction * of + (1.0 - p.array_fraction));
    let e_swr = e_wr;
    let e_ref = p.vdd * (p.idd5 - p.idd3n).max(0.0) * p.trfc * p.tck_ns * chips * 1e-3;
    let rdwr_energy = e_rd * activity.reads as f64
        + e_wr * activity.writes as f64
        + e_srd * activity.stride_reads as f64
        + e_swr * activity.stride_writes as f64
        + e_ref * activity.refreshes as f64;

    // Energy (units: mA*V*ns*1e-3 = microjoule*1e-3... treat consistently):
    // power_mw = energy / time_ns * 1e3 with the 1e-3 factor above giving mW.
    Breakdown {
        background_mw,
        act_mw: act_energy / time_ns * 1e3,
        rdwr_mw: rdwr_energy / time_ns * 1e3,
    }
}

/// Total energy of a run in microjoules.
pub fn energy_uj(params: &PowerParams, design: &Design, activity: &ActivityCounts) -> f64 {
    let b = breakdown(params, design, activity);
    let time_ns = activity.cycles as f64 * params.tck_ns;
    b.total_mw() * time_ns * 1e-6 // mW * ns = pJ; 1e-6 pJ = uJ
}

/// Energy efficiency of `run` relative to `baseline` (the Figure 13 bottom
/// panel): how many times less energy the design uses for the same work.
pub fn energy_efficiency(baseline_uj: f64, design_uj: f64) -> f64 {
    assert!(design_uj > 0.0, "design energy must be positive");
    baseline_uj / design_uj
}

#[cfg(test)]
mod tests {
    use super::*;
    use sam::designs::{commodity, rc_nvm_wd, sam_en, sam_io, sam_sub};

    fn activity(stride: bool) -> ActivityCounts {
        ActivityCounts {
            cycles: 1_000_000,
            acts: 2_000,
            reads: if stride { 0 } else { 16_000 },
            writes: 500,
            stride_reads: if stride { 2_000 } else { 0 },
            stride_writes: 0,
            refreshes: 100,
            gather: 8,
        }
    }

    #[test]
    fn commodity_breakdown_positive_components() {
        let b = breakdown(&PowerParams::ddr4(), &commodity(), &activity(false));
        assert!(b.background_mw > 0.0 && b.act_mw > 0.0 && b.rdwr_mw > 0.0);
        assert!(b.total_mw() > b.background_mw);
    }

    #[test]
    fn sam_io_stride_reads_cost_more_than_sam_en() {
        let a = activity(true);
        let io = breakdown(&PowerParams::ddr4(), &sam_io(), &a);
        let en = breakdown(&PowerParams::ddr4(), &sam_en(), &a);
        assert!(io.rdwr_mw > en.rdwr_mw, "over-fetch must cost energy");
        assert!(
            io.act_mw > en.act_mw,
            "fine-grained activation saves ACT energy"
        );
    }

    #[test]
    fn sam_sub_background_exceeds_commodity() {
        let a = activity(false);
        let sub = breakdown(&PowerParams::ddr4(), &sam_sub(), &a);
        let base = breakdown(&PowerParams::ddr4(), &commodity(), &a);
        let ratio = sub.background_mw / base.background_mw;
        assert!((ratio - 1.02).abs() < 1e-9);
    }

    #[test]
    fn rram_background_near_zero_writes_expensive() {
        let a = ActivityCounts {
            writes: 5_000,
            refreshes: 0,
            ..activity(false)
        };
        let rram = breakdown(&PowerParams::rram(), &rc_nvm_wd(), &a);
        let dram = breakdown(&PowerParams::ddr4(), &commodity(), &a);
        assert!(rram.background_mw < 0.05 * dram.background_mw);
        assert!(rram.rdwr_mw > dram.rdwr_mw, "RRAM writes dominate");
    }

    #[test]
    fn energy_scales_with_time_and_commands() {
        let p = PowerParams::ddr4();
        let a1 = activity(false);
        let mut a2 = a1;
        a2.reads *= 2;
        let e1 = energy_uj(&p, &commodity(), &a1);
        let e2 = energy_uj(&p, &commodity(), &a2);
        assert!(e2 > e1);
        assert!(energy_efficiency(e2, e1) > 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one cycle")]
    fn zero_cycle_run_panics() {
        let a = ActivityCounts {
            cycles: 0,
            ..activity(false)
        };
        breakdown(&PowerParams::ddr4(), &commodity(), &a);
    }

    #[test]
    fn refresh_energy_absent_on_rram() {
        let p = PowerParams::rram();
        assert_eq!(p.idd5, 0.0);
        let a = ActivityCounts {
            refreshes: 1000,
            ..activity(false)
        };
        // (idd5 - idd3n) clamps at zero: refresh adds nothing.
        let with = breakdown(&p, &rc_nvm_wd(), &a);
        let without = breakdown(&p, &rc_nvm_wd(), &ActivityCounts { refreshes: 0, ..a });
        assert!((with.total_mw() - without.total_mw()).abs() < 1e-9);
    }
}
