//! The Section 1 motivation experiment: sub-ranked memory (AGMS/DGMS)
//! "speeds up random accesses from different sub-ranks but is ineffective
//! for strided memory accesses whose data tend to reside in the same
//! sub-rank" — while SAM accelerates exactly those strided accesses.
//!
//! ```text
//! cargo run --release -p sam-bench --bin motivation [-- --rows N --jobs N]
//! ```

fn main() {
    sam_bench::bins::main(env!("CARGO_BIN_NAME"));
}
