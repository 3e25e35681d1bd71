//! Figure 15: parametric arithmetic/aggregate query sweeps over
//! selectivity, projectivity, and record size, for RC-NVM-wd, GS-DRAM-ecc,
//! SAM-en, and the ideal store.
//!
//! ```text
//! cargo run --release -p sam-bench --bin fig15 [-- a b c d e f g h i] [--rows N --jobs N --trace]
//! ```
//! With no panel arguments, all nine panels run. The selected panels'
//! simulations form one sweep over `--jobs` workers.

fn main() {
    sam_bench::bins::main(env!("CARGO_BIN_NAME"));
}
