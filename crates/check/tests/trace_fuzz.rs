//! Totality of command-trace decoding and replay: a trace handed to
//! `sam-check replay` is external input, so no text, however forged, may
//! panic, overflow or exhaust memory in `parse_trace` → `oracle::replay`.
//! Each trace must parse to `Ok` and replay, or be rejected with `Err`.
//!
//! The structured cases take a valid trace and forge one field: a
//! geometry count, a timing parameter or a command's cycle, set to an
//! edge value up to `u64::MAX` or a random `u64`. The unstructured cases
//! feed arbitrary bytes, alone or spliced into a valid trace's text. Two
//! fixed cases pin the forged geometries that once sized the oracle's
//! per-rank and per-bank state.

use proptest::prelude::*;
use sam_check::oracle::{replay, OracleConfig};
use sam_check::trace::{format_trace, parse_trace};
use sam_dram::command::Command;
use sam_dram::moderegs::IoMode;

/// A valid trace touching every command kind on both ranks.
fn valid() -> String {
    let cmds = [
        (Command::act(0, 1, 2, 99), 0),
        (Command::mrs(1, IoMode::Sx4(1)), 5),
        (Command::read(0, 1, 2, 99, 5, false), 17),
        (Command::write(0, 1, 2, 99, 6, false), 40),
        (Command::act(1, 0, 0, 4), 60),
        (Command::read_narrow(1, 0, 0, 4, 7, 3), 90),
        (Command::pre(0, 1, 2), 120),
        (Command::refresh(0), 9360),
    ];
    format_trace(&OracleConfig::ddr4_server(), &cmds)
}

/// Runs one trace text through both stages.
fn parse_and_replay(text: &str) {
    if let Ok((cfg, cmds)) = parse_trace(text) {
        let _ = replay(cfg, &cmds);
    }
}

/// Edge values for a forged numeric field.
const EDGES: [u64; 9] = [
    0,
    1,
    2,
    4,
    1 << 32,
    1 << 48,
    1 << 63,
    u64::MAX - 1,
    u64::MAX,
];

/// A value for a forged numeric field: an edge or a random `u64`.
fn forged_uint(pick: u64, random: u64) -> u64 {
    EDGES.get(pick as usize % 10).copied().unwrap_or(random)
}

/// Sets every `key=...` token of the trace to `key=value`.
fn set_key(text: &str, key: &str, value: &str) -> String {
    let lines: Vec<String> = text
        .lines()
        .map(|line| {
            let tokens: Vec<String> = line
                .split(' ')
                .map(|t| match t.split_once('=') {
                    Some((k, _)) if k == key => format!("{key}={value}"),
                    _ => t.to_string(),
                })
                .collect();
            tokens.join(" ")
        })
        .collect();
    lines.join("\n")
}

/// The numeric keys of the line that starts with `head` (`geometry` or
/// `timing`).
fn numeric_keys(text: &str, head: &str) -> Vec<String> {
    let line = text
        .lines()
        .find(|l| l.starts_with(head))
        .expect("header line");
    line.split(' ')
        .filter_map(|t| t.split_once('='))
        .filter(|(_, v)| v.parse::<u64>().is_ok())
        .map(|(k, _)| k.to_string())
        .collect()
}

/// Rewrites the cycle of the command line that `pick` selects.
fn forge_cycle(text: &str, pick: u64, value: u64) -> String {
    let commands = text
        .lines()
        .filter(|l| l.starts_with(|c: char| c.is_ascii_digit()))
        .count();
    let target = pick as usize % commands;
    let mut seen = 0;
    let lines: Vec<String> = text
        .lines()
        .map(|line| {
            if !line.starts_with(|c: char| c.is_ascii_digit()) {
                return line.to_string();
            }
            seen += 1;
            if seen - 1 != target {
                return line.to_string();
            }
            let (_, rest) = line.split_once(' ').expect("cycle and command");
            format!("{value} {rest}")
        })
        .collect();
    lines.join("\n")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn forged_trace_fields_never_panic(
        field in 0u64..3,
        pick in any::<u64>(),
        (value, random) in (any::<u64>(), any::<u64>()),
    ) {
        let value = forged_uint(value, random);
        let valid = valid();
        let text = match field {
            0 | 1 => {
                let keys = numeric_keys(&valid, if field == 0 { "geometry" } else { "timing" });
                set_key(&valid, &keys[pick as usize % keys.len()], &value.to_string())
            }
            _ => forge_cycle(&valid, pick, value),
        };
        parse_and_replay(&text);
    }

    #[test]
    fn arbitrary_bytes_never_panic(
        bytes in collection::vec(any::<u8>(), 0..256),
        at in any::<u64>(),
        splice in any::<bool>(),
    ) {
        let noise = String::from_utf8_lossy(&bytes);
        if splice {
            // Overwrite a stretch of a valid trace, so the noise lands
            // inside an otherwise well-formed document.
            let valid = valid();
            let start = at as usize % valid.len();
            let end = (start + noise.len()).min(valid.len());
            let mut text = valid.as_bytes()[..start].to_vec();
            text.extend_from_slice(noise.as_bytes());
            text.extend_from_slice(&valid.as_bytes()[end..]);
            parse_and_replay(&String::from_utf8_lossy(&text));
        } else {
            parse_and_replay(&noise);
        }
    }
}

/// A forged `ranks` of `u64::MAX` once overflowed the capacity of the
/// oracle's per-rank mode-register vector.
#[test]
fn huge_rank_count_is_rejected() {
    let text = set_key(&valid(), "ranks", "18446744073709551615");
    let err = parse_trace(&text).unwrap_err();
    assert!(err.contains("ranks"), "{err}");
}

/// Forged bank-group and bank counts of 2^32 once sized a 240 GB
/// allocation of per-bank checker state.
#[test]
fn huge_bank_count_is_rejected() {
    let text = set_key(&valid(), "bank_groups", "4294967296");
    let text = set_key(&text, "banks_per_group", "4294967296");
    let err = parse_trace(&text).unwrap_err();
    assert!(err.contains("bank_groups"), "{err}");
}

#[test]
fn zero_geometry_and_out_of_range_values_are_rejected() {
    for (key, value) in [
        ("ranks", "0"),
        ("rows_per_bank", "0"),
        ("cols_per_row", "0"),
        // 300 ranks of 16 banks: every count in range, the product not.
        ("ranks", "300"),
        ("rfc", "18446744073709551615"),
        ("refi", "18446744073709551614"),
    ] {
        let text = set_key(&valid(), key, value);
        let err = parse_trace(&text).expect_err(&format!("{key}={value} accepted"));
        assert!(err.contains(key), "{err}");
    }
    let late = forge_cycle(&valid(), 7, u64::MAX);
    assert!(parse_trace(&late).is_err(), "a cycle of u64::MAX accepted");
    let lane = valid().replace("RDN 1 0 0 4 7 3", "RDN 1 0 0 4 7 9");
    assert!(parse_trace(&lane).is_err(), "narrow lane 9 accepted");
}

#[test]
fn the_valid_trace_replays() {
    let (cfg, cmds) = parse_trace(&valid()).unwrap();
    assert_eq!(cmds.len(), 8);
    let _ = replay(cfg, &cmds);
}
