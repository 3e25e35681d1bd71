//! Totality of the stress-trace parser: `parse_stream` must answer every
//! input with a stream or an error message, never a panic — arbitrary
//! text, and valid traces mutated line by line and character by character.

use proptest::prelude::*;
use sam_memctrl::request::{MemRequest, StrideSpec};
use sam_stress::stream::{format_stream, parse_stream, StressConfig, StressStream, TimedRequest};

fn valid_trace() -> String {
    let requests = vec![
        TimedRequest {
            req: MemRequest::read(0, 0x40),
            arrival: 0,
        },
        TimedRequest {
            req: MemRequest::write(1, 0x2000),
            arrival: 3,
        },
        TimedRequest {
            req: MemRequest::stride_read(2, 0x4000, StrideSpec::ssc_dsd()),
            arrival: 3,
        },
        TimedRequest {
            req: MemRequest::narrow_read(3, 0x50),
            arrival: 9,
        },
        TimedRequest {
            req: MemRequest::stride_write(4, 0x8000, StrideSpec::ssc()),
            arrival: 12,
        },
        TimedRequest {
            req: MemRequest::narrow_write(5, 0x60),
            arrival: 20,
        },
    ];
    format_stream(&StressStream {
        config: StressConfig::ddr4_default(),
        requests,
    })
}

/// Replacement fragments that hit the parser's numeric and keyword paths.
const FRAGMENTS: &[&str] = &[
    "",
    " ",
    "\n",
    "0x",
    "0xZZ",
    "0xffffffffffffffffff",
    "99999999999999999999999",
    "-1",
    "=",
    "gather=",
    "lane=256",
    "device=rram",
    "sched=reference",
    "sched=",
    "req",
    "config",
    "SR",
    "SW",
    "NR",
    "#",
    "é",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parse_never_panics_on_byte_soup(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = parse_stream(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn parse_never_panics_on_soup_after_a_valid_header(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
    ) {
        let trace = valid_trace();
        let header = trace.lines().next().unwrap_or_default();
        let _ = parse_stream(&format!("{header}\n{}", String::from_utf8_lossy(&bytes)));
    }

    #[test]
    fn parse_never_panics_on_mutated_traces(
        // (op, line, word, fragment) edits: 0 replace a word, 1 drop a
        // line, 2 duplicate a line, 3 swap two lines, 4 cut a line short.
        edits in proptest::collection::vec((0u8..5, 0usize..16, 0usize..8, 0usize..64), 0..6),
    ) {
        let mut lines: Vec<String> = valid_trace().lines().map(str::to_string).collect();
        for (op, line, word, frag) in edits {
            if lines.is_empty() {
                break;
            }
            let line = line % lines.len();
            match op {
                0 => {
                    let mut words: Vec<String> =
                        lines[line].split(' ').map(str::to_string).collect();
                    let w = word % words.len();
                    words[w] = FRAGMENTS[frag % FRAGMENTS.len()].to_string();
                    lines[line] = words.join(" ");
                }
                1 => {
                    lines.remove(line);
                }
                2 => {
                    let l = lines[line].clone();
                    lines.insert(line, l);
                }
                3 => {
                    let other = frag % lines.len();
                    lines.swap(line, other);
                }
                _ => {
                    let cut = lines[line]
                        .char_indices()
                        .map(|(i, _)| i)
                        .nth(word)
                        .unwrap_or(0);
                    lines[line].truncate(cut);
                }
            }
        }
        let _ = parse_stream(&lines.join("\n"));
    }
}

#[test]
fn the_unmutated_trace_parses() {
    let text = valid_trace();
    let stream = parse_stream(&text).expect("valid trace");
    assert_eq!(stream.requests.len(), 6);
    assert_eq!(format_stream(&stream), text);
}
