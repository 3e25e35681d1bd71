//! Chipkill reliability under strided access — the paper's differentiator.
//!
//! ```text
//! cargo run --release --example chipkill_reliability
//! ```
//!
//! Encodes a cacheline into a DDR4 burst under each design's codeword
//! layout, kills an entire DRAM chip mid-flight, and attempts recovery:
//! SAM's layouts (beat-spread and transposed) correct every chip failure,
//! while GS-DRAM's strided gather cannot even assemble a codeword.

use sam::designs::all_designs;
use sam_ecc::codes::SscCode;
use sam_ecc::inject::{chipkill_campaign, run_trial, Fault, Outcome};
use sam_ecc::layout::CodewordLayout;
use sam_util::rng::Xoshiro256StarStar;

fn main() {
    let code = SscCode::new();
    let line: [u8; 64] = std::array::from_fn(|i| (i as u8).wrapping_mul(97).wrapping_add(13));
    let mut rng = Xoshiro256StarStar::new(2026);

    println!("Single trial: chip 11 dies during a burst\n");
    for layout in [
        CodewordLayout::BeatSpread,
        CodewordLayout::Transposed,
        CodewordLayout::GatherNoEcc,
    ] {
        let outcome = run_trial(
            &code,
            layout,
            &line,
            Fault::ChipFailure { chip: 11 },
            &mut rng,
        );
        println!("  {layout:?}: {outcome:?}");
        match layout {
            CodewordLayout::GatherNoEcc => {
                assert_eq!(
                    outcome,
                    Outcome::Unprotected,
                    "GS-DRAM gather has no ECC to decode"
                );
            }
            _ => assert_eq!(
                outcome,
                Outcome::Corrected,
                "chipkill must correct a dead chip"
            ),
        }
    }

    println!("\nFull campaign: 50 corruption patterns x 18 chips per design\n");
    for design in all_designs() {
        let report = chipkill_campaign(&code, design.codeword_layout, 50, 0xFEED);
        println!(
            "  {:>12}: corrected {:>4}, unprotected {:>4}, chipkill-safe: {}",
            design.name,
            report.corrected,
            report.unprotected,
            report.chipkill_safe()
        );
    }
    println!("\nThis is Table 1's Reliability row made executable: GS-DRAM trades");
    println!("chipkill away for its speedup; SAM keeps both (Sections 4.1-4.3).");
}
