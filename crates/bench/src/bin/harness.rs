//! One-shot harness: regenerates every registered experiment into a
//! results directory.
//!
//! ```text
//! cargo run --release -p sam-bench --bin harness [-- --out DIR --rows N --tb-rows N --seed N --jobs N]
//! ```
//!
//! Every experiment in `sam_bench::bins::EXPERIMENTS` runs as its own
//! binary; its stdout is both printed and written to `<out>/<name>.txt`,
//! matching the files EXPERIMENTS.md references. `--rows`, `--ta-rows`,
//! `--tb-rows`, `--seed` and `--jobs` pass through to every experiment;
//! any other argument is an error (exit 2 with usage).

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Stdio};

const PASSTHROUGH: [&str; 5] = ["--rows", "--ta-rows", "--tb-rows", "--seed", "--jobs"];

const USAGE: &str =
    "usage: harness [--out DIR] [--rows N] [--ta-rows N] [--tb-rows N] [--seed N] [--jobs N]";

fn main() {
    let mut out = "results".to_string();
    let mut passthrough = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--help" || flag == "-h" {
            println!("{USAGE}");
            return;
        }
        let known = flag == "--out" || PASSTHROUGH.contains(&flag.as_str());
        let Some(value) = argv.next().filter(|_| known) else {
            let what = if known {
                "flag requires a value:"
            } else {
                "unknown argument"
            };
            eprintln!("harness: {what} '{flag}'\n{USAGE}");
            std::process::exit(2);
        };
        if flag == "--out" {
            out = value;
        } else {
            passthrough.extend([flag, value]);
        }
    }

    fs::create_dir_all(&out).expect("create output directory");
    let exe_dir = std::env::current_exe()
        .expect("own path")
        .parent()
        .expect("bin dir")
        .to_path_buf();
    for exp in sam_bench::bins::EXPERIMENTS {
        let name = exp.name();
        let bin: PathBuf = exe_dir.join(name);
        print!("running {name}... ");
        let output = Command::new(&bin)
            .args(&passthrough)
            .stdout(Stdio::piped())
            .output()
            .unwrap_or_else(|e| panic!("spawn {}: {e}", bin.display()));
        assert!(output.status.success(), "{name} failed");
        let path = PathBuf::from(&out).join(format!("{name}.txt"));
        fs::write(&path, &output.stdout).expect("write result file");
        println!("{} bytes -> {}", output.stdout.len(), path.display());
    }
    println!("\nall experiments regenerated under {out}/");
}
