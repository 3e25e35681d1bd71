//! The memory-design abstraction: everything that distinguishes SAM-sub,
//! SAM-IO, SAM-en, GS-DRAM(-ecc), and RC-NVM(-bit/-wd) from commodity DRAM.

use sam_dram::device::DeviceConfig;
use sam_dram::timing::Substrate;
use sam_ecc::layout::CodewordLayout;

/// Strided granularity per chip (Section 4.4): how many bits of each strided
/// unit one chip contributes, which fixes how many consecutive cachelines a
/// burst gathers and the matching chipkill symbol size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Granularity {
    /// 16 bits per chip: 32B units, gathers 2 lines (coarsest).
    Bits16,
    /// 8 bits per chip: 16B units, gathers 4 lines; matches SSC symbols.
    Bits8,
    /// 4 bits per chip: 8B units, gathers 8 lines (two ranks fill the
    /// channel); matches SSC-DSD symbols. The paper's default (Figure 12).
    #[default]
    Bits4,
}

impl Granularity {
    /// Cachelines gathered per stride burst.
    pub fn gather(self) -> u8 {
        match self {
            Granularity::Bits16 => 2,
            Granularity::Bits8 => 4,
            Granularity::Bits4 => 8,
        }
    }

    /// Bytes of each gathered unit (64B burst / gather).
    pub fn unit_bytes(self) -> u64 {
        64 / self.gather() as u64
    }

    /// Width of the Figure 10 page-offset swap segment.
    pub fn remap_segment_bits(self) -> u32 {
        match self {
            Granularity::Bits16 => 2, // clamp: Figure 10 defines 2 and 3
            Granularity::Bits8 => 2,
            Granularity::Bits4 => 3,
        }
    }
}

impl std::fmt::Display for Granularity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Granularity::Bits16 => write!(f, "16-bit"),
            Granularity::Bits8 => write!(f, "8-bit"),
            Granularity::Bits4 => write!(f, "4-bit"),
        }
    }
}

/// ECC scheme a design runs under (Section 2.3, Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EccScheme {
    /// Rank-level chipkill (SSC or SSC-DSD): parity travels with the data
    /// in the same burst; no extra traffic.
    Chipkill,
    /// Embedded ECC (the GS-DRAM-ecc enhancement, after \[55\]): ECC words
    /// live in the same page as their data and cost extra bursts.
    Embedded,
    /// No ECC protection at all (plain GS-DRAM under strided access).
    Unprotected,
}

/// How the design requires IMDB records to be aligned in physical memory
/// (Section 5.4.1, Figure 11), which determines the bank behaviour of
/// sequential (Qs) scans.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AlignmentPolicy {
    /// Default linear placement; consecutive data walks across banks
    /// (commodity, GS-DRAM, SAM-IO, SAM-en: gathering happens inside a row).
    Linear,
    /// Records are aligned vertically across the rows of one bank so that a
    /// column-wise access can gather them (SAM-sub, RC-NVM). Sequential
    /// scans then hammer a single bank's rows: `depth` DRAM rows stack in
    /// one bank before placement moves to the next bank.
    VerticalRows {
        /// DRAM rows stacked per bank region.
        depth: u32,
    },
}

/// Stride-access capabilities and costs of a design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StrideCaps {
    /// Whether entering/leaving stride accesses needs an I/O mode switch
    /// (MRS + tRTR — SAM; GS-DRAM modified the command interface instead).
    pub needs_mode_switch: bool,
    /// Every `N`th stride burst costs one extra column operation (0 = never).
    /// RC-NVM-bit must collect words from bit-level sub-fields; adjacent
    /// sub-fields share column activations, so on average the bit-level
    /// symmetry costs one extra column operation every other burst.
    pub extra_burst_period: u32,
    /// Whether switching to a different field block costs a column-to-column
    /// switch (an extra column operation): accessing a new field in RC-NVM
    /// (and SAM-sub) re-drives the orthogonal selection in the same bank
    /// (Section 6.2's "high latency of field switch").
    pub field_switch_cost: bool,
}

/// Inputs to the power model that differ per design (Section 6.1 "Power").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerTraits {
    /// Ratio of internally moved data to transferred data for stride reads
    /// (SAM-IO fetches 4 buffers but sends one lane: 4.0; SAM-en's
    /// fine-grained activation avoids it: 1.0).
    pub stride_overfetch: f64,
    /// Extra background power fraction (SAM-sub's +2% decode/SA logic).
    pub background_extra: f64,
    /// Fine-grained activation (SAM-en option 1): ACT energy scales with
    /// the fraction of mats actually opened.
    pub fine_grained_activation: bool,
}

impl PowerTraits {
    /// Commodity defaults: no overfetch, no extra background.
    pub fn commodity() -> Self {
        Self {
            stride_overfetch: 1.0,
            background_extra: 0.0,
            fine_grained_activation: false,
        }
    }
}

/// A complete hardware design under evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct Design {
    /// Short display name used in figures ("SAM-en", "RC-NVM-wd", ...).
    pub name: &'static str,
    /// Memory substrate.
    pub substrate: Substrate,
    /// Silicon area overhead vs. commodity (scales array latencies per
    /// Section 6.1).
    pub area_overhead: f64,
    /// Extra storage consumed (embedded ECC bits, duplicated copies).
    pub storage_overhead: f64,
    /// Stride support; `None` means field scans fall back to line fills.
    pub stride: Option<StrideCaps>,
    /// Sub-ranked memory (the AGMS/DGMS baselines of Section 1): sparse
    /// field accesses become narrow 16B bursts on one channel sub-lane.
    pub sub_ranked: bool,
    /// Record alignment policy (drives Qs-query bank behaviour).
    pub alignment: AlignmentPolicy,
    /// ECC scheme.
    pub ecc: EccScheme,
    /// How codewords map onto bursts (reliability analysis; Table 1).
    pub codeword_layout: CodewordLayout,
    /// Whether the layout preserves critical-word-first (Table 1).
    pub critical_word_first: bool,
    /// Power-model traits.
    pub power: PowerTraits,
}

impl Design {
    /// The device configuration this design runs on: substrate timing with
    /// area-proportional latency scaling applied.
    pub fn device_config(&self) -> DeviceConfig {
        let base = match self.substrate {
            Substrate::Dram => DeviceConfig::ddr4_server(),
            Substrate::Rram => DeviceConfig::rram_server(),
        };
        let timing = base.timing.scaled_by_area(self.area_overhead);
        debug_assert!(
            timing.check_relations().is_empty(),
            "design {:?} derives JEDEC-inconsistent timing: {:?}",
            self.name,
            timing.check_relations()
        );
        base.with_timing(timing)
    }

    /// Whether field scans can use stride bursts.
    pub fn supports_stride(&self) -> bool {
        self.stride.is_some()
    }

    /// Returns a copy with the substrate (and its base timing) swapped —
    /// the Figure 14(a) experiment.
    pub fn with_substrate(mut self, substrate: Substrate) -> Self {
        self.substrate = substrate;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granularity_gather_and_units() {
        assert_eq!(Granularity::Bits16.gather(), 2);
        assert_eq!(Granularity::Bits8.gather(), 4);
        assert_eq!(Granularity::Bits4.gather(), 8);
        assert_eq!(Granularity::Bits16.unit_bytes(), 32);
        assert_eq!(Granularity::Bits8.unit_bytes(), 16);
        assert_eq!(Granularity::Bits4.unit_bytes(), 8);
        assert_eq!(Granularity::default(), Granularity::Bits4);
    }

    #[test]
    fn remap_segment_matches_figure10() {
        assert_eq!(Granularity::Bits8.remap_segment_bits(), 2);
        assert_eq!(Granularity::Bits4.remap_segment_bits(), 3);
    }

    #[test]
    fn granularity_display() {
        assert_eq!(Granularity::Bits4.to_string(), "4-bit");
    }
}
