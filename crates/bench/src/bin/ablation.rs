//! Ablation studies behind the design choices DESIGN.md calls out:
//!
//! 1. SAM-en's two independent options (Section 4.3): fine-grained
//!    activation (power) and the 2D I/O buffer (layout), toggled
//!    independently against SAM-IO and full SAM-en.
//! 2. Miss-level-parallelism sensitivity: how the Figure 12 speedups
//!    depend on the cores' outstanding-miss window.
//!
//! ```text
//! cargo run --release -p sam-bench --bin ablation [-- --rows N --jobs N]
//! ```

fn main() {
    sam_bench::bins::main(env!("CARGO_BIN_NAME"));
}
