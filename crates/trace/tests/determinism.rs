//! Byte-identity regression tests for the trace export path.
//!
//! The Chrome exporter builds interior maps (per-pid timestamps,
//! open-span stacks). Those maps are `BTreeMap`s precisely so that two
//! exports of the same recording are byte-for-byte identical; these
//! tests pin that property with a recording wide enough (many tracks,
//! many names, many pids) that a hash-ordered map would have many
//! chances to disagree between instantiations.

use sam_trace::chrome::{chrome_trace, lint_chrome_trace, RunTrace};
use sam_trace::event::{track, Category, TraceEvent};

/// A synthetic recording that touches many distinct tracks and names:
/// bank lanes across two ranks, per-core lanes, queue-depth counters,
/// drain windows, and request spans.
fn wide_recording(seed: u64) -> Vec<TraceEvent> {
    const NAMES: [&str; 8] = ["ACT", "PRE", "RD", "WR", "SRD", "SWR", "REF", "drain"];
    let mut events = Vec::new();
    let mut t = 1 + seed % 3;
    for i in 0..200u64 {
        let name = NAMES[(i % NAMES.len() as u64) as usize];
        let rank = (i % 2) as usize;
        let bg = ((i / 2) % 4) as usize;
        let bank = ((i / 8) % 4) as usize;
        events.push(TraceEvent::complete(
            track::bank(rank, bg, bank),
            Category::Dram,
            name,
            t,
            4 + i % 7,
            i,
        ));
        events.push(TraceEvent::counter(
            track::READQ,
            Category::Ctrl,
            "readq",
            t,
            i % 33,
        ));
        if i % 5 == 0 {
            events.push(TraceEvent::begin(
                track::CTRL,
                Category::Ctrl,
                "write-drain",
                t,
            ));
            events.push(TraceEvent::end(
                track::CTRL,
                Category::Ctrl,
                "write-drain",
                t + 3,
            ));
        }
        events.push(TraceEvent::complete(
            track::core((i % 6) as u8),
            Category::Ctrl,
            "demand",
            t,
            2,
            i,
        ));
        t += 1 + i % 4;
    }
    events
}

fn runs(seed: u64) -> Vec<RunTrace> {
    (0..4)
        .map(|r| RunTrace {
            label: format!("Q{r}/SAM-en/Row"),
            events: wide_recording(seed),
            dropped: 0,
            epoch_len: 1000,
            epochs: Vec::new(),
        })
        .collect()
}

#[test]
fn chrome_export_is_byte_identical_across_builds() {
    // Two exports from independently-constructed inputs: every interior
    // map is freshly instantiated, so any hash-order dependence between
    // map iteration and emitted JSON would show up here.
    let a = chrome_trace("fig12", &runs(0)).to_string();
    let b = chrome_trace("fig12", &runs(0)).to_string();
    assert_eq!(a, b, "chrome trace export must be deterministic");
    lint_chrome_trace(&sam_util::json::Json::parse(&a).expect("parses")).expect("lints clean");
}
