//! Timing parameter sets (Table 2 of the paper).
//!
//! All values are in memory-controller clock cycles (DDR4-2400: 1200 MHz
//! command clock, data on both edges). The DDR4 numbers follow the paper's
//! Table 2 (`CL-nRCD-nRP: 17-17-17`, `nRTR-nCCDS-nCCDL: 2-4-6`) with the
//! remaining JEDEC parameters from the Micron 8Gb DDR4-2400 data sheet the
//! paper cites. The RRAM set follows Table 2's `17-35-1` with slow writes,
//! as modelled in the RC-NVM and NVMain sources the paper references.

/// Which physical memory technology a timing set models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Substrate {
    /// Commodity DDR4 DRAM.
    #[default]
    Dram,
    /// Crossbar resistive RAM (the RC-NVM substrate).
    Rram,
}

impl std::fmt::Display for Substrate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Substrate::Dram => write!(f, "DRAM"),
            Substrate::Rram => write!(f, "RRAM"),
        }
    }
}

/// DDR4 fine-granularity refresh modes (MR3): trading refresh frequency
/// against per-refresh lockout time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RefreshMode {
    /// 1x: tREFI / tRFC as specified (the default).
    #[default]
    Fgr1x,
    /// 2x: refresh twice as often, each ~58% of tRFC.
    Fgr2x,
    /// 4x: four times as often, each ~36% of tRFC.
    Fgr4x,
}

impl RefreshMode {
    /// Interval divisor.
    pub fn interval_divisor(self) -> u64 {
        match self {
            RefreshMode::Fgr1x => 1,
            RefreshMode::Fgr2x => 2,
            RefreshMode::Fgr4x => 4,
        }
    }

    /// tRFC scale factor (per JEDEC: tRFC2 ~ 0.58 tRFC1, tRFC4 ~ 0.36).
    pub fn rfc_scale(self) -> f64 {
        match self {
            RefreshMode::Fgr1x => 1.0,
            RefreshMode::Fgr2x => 0.58,
            RefreshMode::Fgr4x => 0.36,
        }
    }
}

/// A complete device timing parameter set, in clock cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimingParams {
    /// Which substrate these parameters model.
    pub substrate: Substrate,
    /// CAS latency (RD command to first data beat).
    pub cl: u64,
    /// CAS write latency (WR command to first data beat).
    pub cwl: u64,
    /// ACT to internal RD/WR delay.
    pub rcd: u64,
    /// PRE to ACT delay (row precharge).
    pub rp: u64,
    /// ACT to PRE minimum (row active time).
    pub ras: u64,
    /// ACT to ACT, same bank (= tRAS + tRP).
    pub rc: u64,
    /// RD to PRE delay (read to precharge).
    pub rtp: u64,
    /// Write recovery: last write data beat to PRE.
    pub wr: u64,
    /// Write-to-read turnaround, different bank group.
    pub wtr_s: u64,
    /// Write-to-read turnaround, same bank group.
    pub wtr_l: u64,
    /// RD/WR to RD/WR, different bank group.
    pub ccd_s: u64,
    /// RD/WR to RD/WR, same bank group.
    pub ccd_l: u64,
    /// ACT to ACT, different bank group.
    pub rrd_s: u64,
    /// ACT to ACT, same bank group.
    pub rrd_l: u64,
    /// Four-activate window.
    pub faw: u64,
    /// Rank-to-rank switch penalty on the data bus; the paper also charges
    /// this for an I/O mode switch (Section 5.3).
    pub rtr: u64,
    /// Same-bank write-to-write gap beyond tCCD. Zero for DRAM (the row
    /// buffer absorbs writes); RRAM must program cells with a SET/RESET
    /// pulse per write, serializing same-bank writes.
    pub wtw: u64,
    /// Data burst length on the bus (BL8 at DDR = 4 clock cycles).
    pub burst: u64,
    /// Average refresh interval.
    pub refi: u64,
    /// Refresh cycle time.
    pub rfc: u64,
}

impl TimingParams {
    /// DDR4-2400 parameters (Table 2 plus Micron data-sheet values).
    pub fn ddr4_2400() -> Self {
        Self {
            substrate: Substrate::Dram,
            cl: 17,
            cwl: 12,
            rcd: 17,
            rp: 17,
            ras: 39,
            rc: 56,
            rtp: 9,
            wr: 18,
            wtr_s: 3,
            wtr_l: 9,
            ccd_s: 4,
            ccd_l: 6,
            rrd_s: 4,
            rrd_l: 6,
            faw: 26,
            rtr: 2,
            wtw: 0,
            burst: 4,
            refi: 9360,
            rfc: 420,
        }
    }

    /// RRAM parameters: Table 2's `CL-nRCD-nRP: 17-35-1` with RC-NVM-style
    /// slow writes (write pulse dominates write recovery) and no refresh.
    pub fn rram() -> Self {
        Self {
            substrate: Substrate::Rram,
            cl: 17,
            cwl: 12,
            rcd: 35,
            rp: 1,
            ras: 47, // rcd + array restore; reads are non-destructive
            rc: 48,
            rtp: 9,
            wr: 120, // RRAM SET/RESET pulse ~100 ns
            wtr_s: 3,
            wtr_l: 9,
            ccd_s: 4,
            ccd_l: 6,
            rrd_s: 4,
            rrd_l: 6,
            faw: 26,
            rtr: 2,
            wtw: 60, // ~50 ns SET/RESET pulse between same-bank writes
            burst: 4,
            refi: u64::MAX, // non-volatile: no refresh
            rfc: 0,
        }
    }

    /// Returns a copy with the fine-granularity refresh mode applied:
    /// refreshes come `divisor` times as often but each locks the rank out
    /// for proportionally less time — shrinking worst-case read latency at
    /// slightly higher total refresh overhead.
    ///
    /// No effect on non-volatile parameter sets (no refresh).
    pub fn with_refresh_mode(mut self, mode: RefreshMode) -> Self {
        if self.needs_refresh() {
            self.refi /= mode.interval_divisor();
            self.rfc = ((self.rfc as f64) * mode.rfc_scale()).round() as u64;
        }
        self
    }

    /// Returns a copy with array-access latencies scaled by `1 + overhead`,
    /// the paper's coupling of area overhead to timing ("Other latency
    /// parameters, such as tRCD, tAL, etc, are increased proportionally to
    /// the area overhead", Section 6.1). Bus-side parameters (CL serialises
    /// through unchanged I/O, burst, turnarounds) are left untouched.
    ///
    /// # Panics
    ///
    /// Panics if `overhead` is negative.
    pub fn scaled_by_area(mut self, overhead: f64) -> Self {
        assert!(overhead >= 0.0, "area overhead cannot be negative");
        let scale = |v: u64| -> u64 { ((v as f64) * (1.0 + overhead)).round() as u64 };
        self.rcd = scale(self.rcd);
        self.rp = scale(self.rp);
        self.ras = scale(self.ras);
        self.rc = scale(self.rc);
        self.rtp = scale(self.rtp);
        self.wr = scale(self.wr);
        self
    }

    /// Read latency from RD issue to the *last* data beat on the bus.
    pub fn read_latency(&self) -> u64 {
        self.cl + self.burst
    }

    /// Validates the JEDEC relational constraints between parameters and
    /// returns one description per violation (empty = consistent).
    ///
    /// These are the invariants a *derived* parameter set (area scaling,
    /// fine-granularity refresh) must preserve, checked over the whole
    /// sweep matrix by `sam::designs`' `sweep_matrix_timing_is_jedec_consistent`
    /// test and dynamically by a `debug_assert!` at `Design` construction:
    ///
    /// - `tRAS >= tRCD + burst`: a row must stay open long enough to issue
    ///   the column access and stream the burst.
    /// - `|tRC - (tRAS + tRP)| <= 1`: ACT-to-ACT is row-active plus
    ///   precharge; independent per-field rounding under area scaling can
    ///   legally drift the sum by one cycle.
    /// - `tFAW >= 4 * tRRDS`: the four-activate window cannot be tighter
    ///   than four back-to-back different-bank-group ACTs.
    /// - `tCCDL >= tCCDS`, `tRRDL >= tRRDS`, `tWTRL >= tWTRS`: same-bank-
    ///   group spacing is never looser than cross-bank-group spacing.
    /// - `tREFI >= 2 * tRFC` (refreshing substrates only): a device that
    ///   spends more than half its time locked out refreshing cannot make
    ///   forward progress; FGR modes must keep this headroom.
    pub fn check_relations(&self) -> Vec<String> {
        let mut violations = Vec::new();
        let mut expect = |ok: bool, msg: String| {
            if !ok {
                violations.push(msg);
            }
        };
        expect(
            self.ras >= self.rcd + self.burst,
            format!(
                "tRAS ({}) < tRCD ({}) + burst ({}): row closes before the column access completes",
                self.ras, self.rcd, self.burst
            ),
        );
        expect(
            self.rc.abs_diff(self.ras + self.rp) <= 1,
            format!(
                "tRC ({}) != tRAS ({}) + tRP ({}) beyond rounding tolerance",
                self.rc, self.ras, self.rp
            ),
        );
        expect(
            self.faw >= 4 * self.rrd_s,
            format!(
                "tFAW ({}) < 4 * tRRDS ({}): four-activate window tighter than four ACTs",
                self.faw, self.rrd_s
            ),
        );
        expect(
            self.ccd_l >= self.ccd_s,
            format!("tCCDL ({}) < tCCDS ({})", self.ccd_l, self.ccd_s),
        );
        expect(
            self.rrd_l >= self.rrd_s,
            format!("tRRDL ({}) < tRRDS ({})", self.rrd_l, self.rrd_s),
        );
        expect(
            self.wtr_l >= self.wtr_s,
            format!("tWTRL ({}) < tWTRS ({})", self.wtr_l, self.wtr_s),
        );
        if self.needs_refresh() {
            expect(
                self.refi >= 2 * self.rfc,
                format!(
                    "tREFI ({}) < 2 * tRFC ({}): device spends over half its time refreshing",
                    self.refi, self.rfc
                ),
            );
        }
        violations
    }

    /// Whether this substrate needs periodic refresh.
    pub fn needs_refresh(&self) -> bool {
        self.refi != u64::MAX
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        Self::ddr4_2400()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr4_matches_table2() {
        let t = TimingParams::ddr4_2400();
        assert_eq!((t.cl, t.rcd, t.rp), (17, 17, 17));
        assert_eq!((t.rtr, t.ccd_s, t.ccd_l), (2, 4, 6));
        assert_eq!(t.substrate, Substrate::Dram);
        assert!(t.needs_refresh());
    }

    #[test]
    fn rram_matches_table2() {
        let t = TimingParams::rram();
        assert_eq!((t.cl, t.rcd, t.rp), (17, 35, 1));
        assert!(t.wr > TimingParams::ddr4_2400().wr, "RRAM writes are slow");
        assert_eq!(t.substrate, Substrate::Rram);
        assert!(!t.needs_refresh());
    }

    #[test]
    fn ras_rp_consistent_with_rc() {
        let t = TimingParams::ddr4_2400();
        assert_eq!(t.rc, t.ras + t.rp);
    }

    #[test]
    fn area_scaling_inflates_array_latencies_only() {
        let base = TimingParams::ddr4_2400();
        let scaled = base.scaled_by_area(0.072); // SAM-sub's 7.2%
        assert_eq!(scaled.rcd, 18); // 17 * 1.072 = 18.2 -> 18
        assert_eq!(scaled.cl, base.cl, "CL is bus-side, unscaled");
        assert_eq!(scaled.burst, base.burst);
        assert!(scaled.ras > base.ras);
    }

    #[test]
    fn zero_overhead_is_identity() {
        let base = TimingParams::ddr4_2400();
        assert_eq!(base.scaled_by_area(0.0), base);
    }

    #[test]
    #[should_panic(expected = "cannot be negative")]
    fn negative_overhead_panics() {
        TimingParams::ddr4_2400().scaled_by_area(-0.1);
    }

    #[test]
    fn read_latency_is_cl_plus_burst() {
        let t = TimingParams::ddr4_2400();
        assert_eq!(t.read_latency(), 21);
    }

    #[test]
    fn fgr_modes_scale_interval_and_lockout() {
        let base = TimingParams::ddr4_2400();
        let f2 = base.with_refresh_mode(RefreshMode::Fgr2x);
        assert_eq!(f2.refi, base.refi / 2);
        assert_eq!(f2.rfc, (base.rfc as f64 * 0.58).round() as u64);
        let f4 = base.with_refresh_mode(RefreshMode::Fgr4x);
        assert_eq!(f4.refi, base.refi / 4);
        assert!(f4.rfc < f2.rfc);
        // Total refresh overhead grows slightly with finer granularity.
        let overhead = |t: &TimingParams| t.rfc as f64 / t.refi as f64;
        assert!(overhead(&f4) > overhead(&base));
    }

    #[test]
    fn fgr_is_noop_on_rram() {
        let r = TimingParams::rram();
        assert_eq!(r.with_refresh_mode(RefreshMode::Fgr4x), r);
    }

    #[test]
    fn stock_parameter_sets_pass_relational_checks() {
        assert!(TimingParams::ddr4_2400().check_relations().is_empty());
        assert!(TimingParams::rram().check_relations().is_empty());
        for mode in [RefreshMode::Fgr1x, RefreshMode::Fgr2x, RefreshMode::Fgr4x] {
            let t = TimingParams::ddr4_2400().with_refresh_mode(mode);
            assert!(
                t.check_relations().is_empty(),
                "FGR {mode:?}: {:?}",
                t.check_relations()
            );
        }
        for overhead in [0.0, 0.007, 0.028, 0.072, 0.33] {
            for base in [TimingParams::ddr4_2400(), TimingParams::rram()] {
                let t = base.scaled_by_area(overhead);
                assert!(
                    t.check_relations().is_empty(),
                    "{:?} scaled by {overhead}: {:?}",
                    base.substrate,
                    t.check_relations()
                );
            }
        }
    }

    #[test]
    fn relational_checks_fire_on_bad_parameters() {
        let mut t = TimingParams::ddr4_2400();
        t.ras = t.rcd; // row closes before the burst finishes
        t.faw = 3 * t.rrd_s;
        t.ccd_l = t.ccd_s - 1;
        t.refi = t.rfc; // refresh-dominated
        let v = t.check_relations();
        assert!(v.iter().any(|m| m.contains("tRAS")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("tFAW")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("tCCDL")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("tREFI")), "{v:?}");
        assert!(v.iter().any(|m| m.contains("tRC ")), "{v:?}");
    }

    #[test]
    fn substrate_display() {
        assert_eq!(Substrate::Dram.to_string(), "DRAM");
        assert_eq!(Substrate::Rram.to_string(), "RRAM");
    }
}
