//! Section 2.3's desktop-class configuration: an x8 single-rank part whose
//! 72-bit words are SEC-DED protected (Figure 4(a)) — contrasted with the
//! server rank's chipkill. Ties the device geometry to the matching code.

use sam_dram::command::Command;
use sam_dram::device::{DeviceConfig, MemoryDevice};
use sam_ecc::codes::SecDed;
use sam_util::rng::Xoshiro256StarStar;

#[test]
fn desktop_words_survive_single_bit_upsets_but_not_chip_loss() {
    let code = SecDed::new();
    let mut rng = Xoshiro256StarStar::new(77);
    for _ in 0..200 {
        let data = rng.next_u64();
        let cw = code.encode(data);
        // Any single bit flip: corrected.
        let bit = rng.next_below(72) as u32;
        let (out, _) = code.decode(cw ^ (1u128 << bit)).unwrap();
        assert_eq!(out, data);
        // An x8 chip failure corrupts 8 of the 72 bits of a beat — far
        // beyond SEC-DED. It must never be *silently* accepted as clean
        // data more often than blind chance; sample a few patterns.
        let chip = rng.next_below(9) as u32; // 9 chips x 8 bits
        let mut mask = 0u128;
        for b in 0..8 {
            if rng.next_below(2) == 1 {
                mask |= 1u128 << (chip * 8 + b);
            }
        }
        if mask.count_ones() >= 3 {
            // 3+ flipped bits: SEC-DED may miscorrect (distance 4) but the
            // decode must never return the original data unchanged.
            if let Ok((out, _)) = code.decode(cw ^ mask) {
                assert_ne!(
                    out, data,
                    "multi-bit chip damage cannot decode back to clean data"
                );
            }
        }
    }
}

#[test]
fn desktop_device_runs_the_same_command_protocol() {
    // The common-die story (Section 2.2): the same protocol and timing
    // drive the x8 desktop part; only geometry differs.
    let mut desktop = MemoryDevice::new(DeviceConfig::ddr4_desktop());
    let mut server = MemoryDevice::new(DeviceConfig::ddr4_server());
    for dev in [&mut desktop, &mut server] {
        dev.issue(&Command::act(0, 1, 2, 7), 0).unwrap();
        let rd = Command::read(0, 1, 2, 7, 3, false);
        let at = dev.earliest_issue(&rd, 0);
        let done = dev.issue(&rd, at).unwrap();
        assert_eq!(done, at + 17 + 4, "CL + burst");
    }
    assert_eq!(desktop.config().ranks, 1);
    assert_eq!(server.config().ranks, 2);
}
