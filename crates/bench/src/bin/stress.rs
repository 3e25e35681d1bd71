//! Adversarial stress engine: named attack patterns run differentially
//! across scheduler knob settings, with behavioural-invariant checking
//! and failing-stream shrinking.
//!
//! ```text
//! cargo run --release -p sam-bench --bin stress [-- [PATTERN..] --seed N --jobs N]
//! ```
//!
//! Bare arguments select patterns (`row-hit-flood ping-pong write-burst
//! faw-train sector-straddle`; none = all). Every selected pattern is
//! executed against the standard case matrix (commodity DDR4 plus FCFS,
//! tight-cap, deep-drain, identity-twin, and RC-NVM variants; see
//! `sam_bench::stressrun::standard_cases`), checking per-run invariants
//! (read-residency bound, watermark supremacy, forward progress) and
//! cross-run oracles (starved-count monotone vs cap, byte-identical
//! stats for equal configs). The table and `results/stress.json` are
//! byte-identical at any `--jobs` count; `--trace[=PATH]` records every
//! cell into one Chrome trace document without changing either.
//!
//! On any violation the binary shrinks the first failing (config,
//! stream) pair to a 1-minimal repro, writes it next to the JSON report
//! as `stress.repro.trace` (replayable with `sam-check replay`), and
//! exits 1.

fn main() {
    sam_bench::bins::main(env!("CARGO_BIN_NAME"));
}
