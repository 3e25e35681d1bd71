//! Figure 16: the DRAM-as-cache hybrid topology — a commodity DDR4 cache
//! fronting the RC-NVM-wd RRAM substrate — swept over cache-block size ×
//! write policy, normalized per query to the flat RRAM baseline.
//!
//! ```text
//! cargo run --release -p sam-bench --bin fig16 [-- --rows N --tb-rows N --jobs N --checked]
//! ```
//!
//! Each of the 2 queries contributes a flat baseline plus 3 block sizes ×
//! 2 write policies = 14 constituent simulations, fanned out over
//! `--jobs` sweep workers; the table (and `results/fig16.json`) is
//! byte-identical at any job count. With `--checked`, the flat runs are
//! shadowed by the single-level protocol oracle and every hybrid run by
//! **two** oracles — one per device stream (DDR4 front, RRAM backing);
//! the binary exits non-zero if any run violates a check. `--trace`,
//! `--per-core` and `--heartbeat` compose exactly as for `fig12`.

fn main() {
    sam_bench::bins::main(env!("CARGO_BIN_NAME"));
}
