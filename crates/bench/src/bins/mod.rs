//! The experiment registry: every bench binary's model code, and the one
//! table that names them.
//!
//! Each submodule owns one experiment's plan (every run described as data:
//! label, workload, design, store, or the stress cell) and its render
//! (stdout tables and the `--out` document, built only from the finished
//! runs and the parsed args). [`EXPERIMENTS`] registers each with the flags
//! it accepts; everything cross-cutting — argument parsing, observability,
//! `--jobs`, `--checked`, `--trace` and `--per-core` — lives once in
//! [`crate::experiment::drive`].
//!
//! The `fn main` under `src/bin/` is one line: [`main`] with the binary's
//! own name, and the `harness` binary runs every entry.

pub mod ablation;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod motivation;
pub mod reliability;
pub mod stress;
pub mod tables;

use sam_imdb::plan::PlanConfig;

use crate::cli::{parse_args, ArgSpec};
use crate::experiment::{drive, Experiment};

/// `--debug-cores` / `--per-core`: the per-core lanes of the simulating
/// figures.
const PER_CORE: &[&str] = &["--debug-cores", "--per-core"];

/// Every registered experiment, by binary name.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment::new(
        ArgSpec::new("fig12")
            .with_checked()
            .with_trace()
            .with_flags(PER_CORE),
        fig12::plan,
        fig12::render,
    ),
    Experiment::new(
        ArgSpec::new("fig13").with_trace().with_flags(PER_CORE),
        fig13::plan,
        fig13::render,
    ),
    Experiment::new(
        ArgSpec::new("fig14")
            .with_panels(&["a", "b", "c"])
            .with_trace()
            .with_flags(PER_CORE),
        fig14::plan,
        fig14::render,
    ),
    Experiment::new(
        ArgSpec::new("fig15")
            .with_panels(&["a", "b", "c", "d", "e", "f", "g", "h", "i"])
            .with_trace()
            .with_flags(PER_CORE),
        fig15::plan,
        fig15::render,
    ),
    Experiment::new(
        ArgSpec::new("fig16")
            .with_checked()
            .with_trace()
            .with_flags(PER_CORE),
        fig16::plan,
        fig16::render,
    ),
    Experiment::new(ArgSpec::new("table1"), tables::plan, tables::table1),
    Experiment::new(ArgSpec::new("table2"), tables::plan, tables::table2),
    Experiment::new(ArgSpec::new("table3"), tables::plan, tables::table3),
    Experiment::new(ArgSpec::new("ablation"), ablation::plan, ablation::render),
    Experiment::new(
        ArgSpec::new("motivation"),
        motivation::plan,
        motivation::render,
    ),
    Experiment::new(
        ArgSpec::new("reliability").with_trials(),
        reliability::plan,
        reliability::render,
    ),
    Experiment::new(
        ArgSpec::new("stress").with_trace().with_panels(&[
            "row-hit-flood",
            "ping-pong",
            "write-burst",
            "faw-train",
            "sector-straddle",
        ]),
        stress::plan,
        stress::render,
    ),
];

/// The registered experiment named `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|exp| exp.name() == name)
}

/// A bench binary's whole `main`: parses the process arguments against
/// experiment `name`'s flags (exit 2 with usage on a bad command line),
/// runs it, and exits with its status.
///
/// # Panics
///
/// If `name` is not registered.
pub fn main(name: &str) -> ! {
    let exp = find(name).unwrap_or_else(|| panic!("no experiment named '{name}'"));
    let args = parse_args(&exp.spec, PlanConfig::default_scale());
    std::process::exit(drive(exp, &args))
}
