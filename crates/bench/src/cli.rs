//! Centralized, strict CLI parsing for the bench binaries.
//!
//! The old per-binary `args().any(..)` parsing silently ignored unknown
//! flags — `--cheked` ran a full figure *unchecked* with no warning. Every
//! flag is now matched against an explicit per-binary [`ArgSpec`], and
//! anything unrecognized is a hard error with the binary's usage string.
//!
//! Shared flags:
//!
//! * `--rows N` / `--ta-rows N` — Ta record count override
//! * `--tb-rows N` — Tb record count override; both counts must be
//!   positive, Ta must end at or below Tb's base address, and Tb must fit
//!   in the 64-bit address space
//! * `--seed N` — selection-hash seed
//! * `--jobs N` — sweep worker threads (default: available parallelism)
//! * `--out PATH` — where to write the JSON metrics report
//! * `--starvation-cap N` — FR-FCFS starvation cap override in memory
//!   cycles (`0` forces pure FCFS); ignored by binaries that do not
//!   simulate
//! * `--drain-hi N` / `--drain-lo N` — write-drain hysteresis watermark
//!   overrides; the pair (after filling in controller defaults) must
//!   satisfy `lo < hi <= 32`, the Table 2 write-queue depth
//!   ([`ControllerConfig::check_watermarks`], the stress runs' rule too);
//!   the three scheduler flags fill one [`BenchArgs::sched`] record, which
//!   every simulating binary applies with [`SchedOverrides::apply`]
//! * `--checked` — only on binaries that support the verification oracle
//! * `--trace[=PATH]` / `--epoch-len N` — only on binaries that support
//!   the `sam-trace` recorder (default trace path:
//!   `results/<bin>.trace.json`; default epoch length: 10000 cycles);
//!   incompatible with `--checked`
//! * `--heartbeat[=SECS]` — stderr progress lines (default interval: 5
//!   seconds)
//! * `--trials N` — only on the fault-injection binaries
//! * `--debug-cores` / `--per-core` — only on the simulating figure
//!   binaries (fig12-fig16): per-core progress dump on stderr, and
//!   per-core lane sections in the metrics JSON plus, on fig12-fig15, the
//!   `results/<bin>.rollup.json` cycles rollup
//! * bare panel names (e.g. `a b c`) — only on the panel binaries

use std::path::PathBuf;

use sam_imdb::plan::{PlanConfig, TA_BASE, TB_BASE};
use sam_memctrl::controller::{ControllerConfig, SchedOverrides};

use crate::sweep::default_jobs;

/// Default epoch length for the trace stats engine, in memory cycles.
pub const DEFAULT_EPOCH_LEN: u64 = 10_000;

/// Default fault-injection trial count (`--trials`).
pub const DEFAULT_TRIALS: u64 = 100;

/// Default heartbeat interval in seconds (`--heartbeat` with no value).
pub const DEFAULT_HEARTBEAT_SECS: u64 = 5;

/// What a specific binary accepts beyond the shared flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArgSpec {
    /// Binary name for usage/error messages (also the default JSON stem).
    pub bin: &'static str,
    /// Whether `--checked` is accepted.
    pub accepts_checked: bool,
    /// Whether `--trace[=PATH]` / `--epoch-len N` are accepted.
    pub accepts_trace: bool,
    /// Whether `--trials N` is accepted.
    pub accepts_trials: bool,
    /// Bare arguments accepted as panel selectors (empty: none).
    pub panels: &'static [&'static str],
    /// Extra binary-specific boolean flags (e.g. `--per-core`);
    /// matched literally, surfaced in [`BenchArgs::flags`].
    pub extra_flags: &'static [&'static str],
}

impl ArgSpec {
    /// A spec with only the shared flags.
    pub const fn new(bin: &'static str) -> Self {
        Self {
            bin,
            accepts_checked: false,
            accepts_trace: false,
            accepts_trials: false,
            panels: &[],
            extra_flags: &[],
        }
    }

    /// Accepts `--checked`.
    pub const fn with_checked(mut self) -> Self {
        self.accepts_checked = true;
        self
    }

    /// Accepts `--trace[=PATH]` and `--epoch-len N`.
    pub const fn with_trace(mut self) -> Self {
        self.accepts_trace = true;
        self
    }

    /// Accepts `--trials N`.
    pub const fn with_trials(mut self) -> Self {
        self.accepts_trials = true;
        self
    }

    /// Accepts the given bare panel names.
    pub const fn with_panels(mut self, panels: &'static [&'static str]) -> Self {
        self.panels = panels;
        self
    }

    /// Accepts the given extra boolean flags.
    pub const fn with_flags(mut self, flags: &'static [&'static str]) -> Self {
        self.extra_flags = flags;
        self
    }

    fn usage(&self) -> String {
        let mut u = format!(
            "usage: {} [--rows N] [--tb-rows N] [--seed N] [--jobs N] [--out PATH] \
             [--starvation-cap N] [--drain-hi N] [--drain-lo N]",
            self.bin
        );
        if self.accepts_checked {
            u.push_str(" [--checked]");
        }
        if self.accepts_trace {
            u.push_str(" [--trace[=PATH]] [--epoch-len N]");
        }
        if self.accepts_trials {
            u.push_str(" [--trials N]");
        }
        u.push_str(" [--heartbeat[=SECS]]");
        for flag in self.extra_flags {
            u.push_str(&format!(" [{flag}]"));
        }
        if !self.panels.is_empty() {
            u.push_str(&format!(" [{}]", self.panels.join(" ")));
        }
        u
    }
}

/// Parsed arguments for one bench binary.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Plan with CLI overrides applied.
    pub plan: PlanConfig,
    /// Sweep worker count (>= 1).
    pub jobs: usize,
    /// Whether `--checked` was given.
    pub checked: bool,
    /// Trace output path when `--trace[=PATH]` was given; `None` disables
    /// all recording (the zero-cost default).
    pub trace: Option<PathBuf>,
    /// Epoch length in memory cycles for the trace's stats engine.
    pub epoch_len: u64,
    /// Heartbeat interval in seconds when `--heartbeat[=SECS]` was given.
    pub heartbeat: Option<u64>,
    /// The `--starvation-cap`, `--drain-hi` and `--drain-lo` overrides;
    /// the watermark pair they leave the controller with is valid.
    pub sched: SchedOverrides,
    /// Extra boolean flags that were given, in spec order semantics
    /// (each at most once; see [`ArgSpec::extra_flags`]).
    pub flags: Vec<String>,
    /// Fault-injection trials (`--trials N`; binaries that accept it).
    pub trials: u64,
    /// Selected panels, in the order given (empty: run all).
    pub panels: Vec<String>,
    /// JSON metrics output path; defaults to `results/<bin>.json`.
    pub out: PathBuf,
}

impl BenchArgs {
    /// Whether the given extra boolean flag was present.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }
}

/// A rejected command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// A flag (or bare argument) the binary does not know.
    UnknownArg(String),
    /// A flag that requires a value came last.
    MissingValue(String),
    /// A value that failed to parse.
    BadValue(String, String),
    /// Two flags that cannot be combined.
    Conflict(String, String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::UnknownArg(a) => write!(f, "unknown argument '{a}'"),
            CliError::MissingValue(flag) => write!(f, "flag '{flag}' requires a value"),
            CliError::BadValue(flag, v) => write!(f, "bad value '{v}' for '{flag}'"),
            CliError::Conflict(a, b) => write!(f, "flag '{a}' cannot be combined with '{b}'"),
        }
    }
}

impl std::error::Error for CliError {}

/// Parses `argv` (without the program name) against `spec`.
///
/// # Errors
///
/// Returns a [`CliError`] for unknown arguments, missing values, or
/// unparsable numbers. Misspelled flags (`--cheked`) are errors, never
/// silently ignored.
pub fn try_parse_args(
    spec: &ArgSpec,
    mut plan: PlanConfig,
    argv: &[String],
) -> Result<BenchArgs, CliError> {
    let mut jobs = default_jobs();
    let mut checked = false;
    let mut trace: Option<PathBuf> = None;
    let mut epoch_len = DEFAULT_EPOCH_LEN;
    let mut heartbeat: Option<u64> = None;
    let mut sched = SchedOverrides::default();
    let mut trials = DEFAULT_TRIALS;
    let mut panels = Vec::new();
    let mut flags = Vec::new();
    let mut out: Option<PathBuf> = None;

    let mut i = 0;
    while i < argv.len() {
        let arg = argv[i].as_str();
        let value_of = |i: &mut usize| -> Result<String, CliError> {
            *i += 1;
            argv.get(*i)
                .cloned()
                .ok_or_else(|| CliError::MissingValue(arg.to_string()))
        };
        match arg {
            "--rows" | "--ta-rows" => {
                let v = value_of(&mut i)?;
                plan.ta_records = parse_num(arg, &v)?;
            }
            "--tb-rows" => {
                let v = value_of(&mut i)?;
                plan.tb_records = parse_num(arg, &v)?;
            }
            "--seed" => {
                let v = value_of(&mut i)?;
                plan.seed = parse_num(arg, &v)?;
            }
            "--jobs" => {
                let v = value_of(&mut i)?;
                let n: usize = v
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| CliError::BadValue(arg.to_string(), v.clone()))?;
                jobs = n;
            }
            "--out" => {
                let v = value_of(&mut i)?;
                out = Some(PathBuf::from(v));
            }
            "--starvation-cap" => {
                let v = value_of(&mut i)?;
                sched = SchedOverrides {
                    starvation_cap: Some(parse_num(arg, &v)?),
                    ..sched
                };
            }
            "--drain-hi" => {
                let v = value_of(&mut i)?;
                sched = SchedOverrides {
                    drain_hi: Some(parse_num(arg, &v)? as usize),
                    ..sched
                };
            }
            "--drain-lo" => {
                let v = value_of(&mut i)?;
                sched = SchedOverrides {
                    drain_lo: Some(parse_num(arg, &v)? as usize),
                    ..sched
                };
            }
            "--checked" if spec.accepts_checked => checked = true,
            "--trace" if spec.accepts_trace => {
                trace = Some(PathBuf::from(format!("results/{}.trace.json", spec.bin)));
            }
            t if spec.accepts_trace && t.starts_with("--trace=") => {
                let path = &t["--trace=".len()..];
                if path.is_empty() {
                    return Err(CliError::BadValue("--trace".to_string(), String::new()));
                }
                trace = Some(PathBuf::from(path));
            }
            "--heartbeat" => {
                heartbeat = Some(DEFAULT_HEARTBEAT_SECS);
            }
            t if t.starts_with("--heartbeat=") => {
                let v = &t["--heartbeat=".len()..];
                let secs: u64 =
                    v.parse().ok().filter(|&s| s >= 1).ok_or_else(|| {
                        CliError::BadValue("--heartbeat".to_string(), v.to_string())
                    })?;
                heartbeat = Some(secs);
            }
            "--epoch-len" if spec.accepts_trace => {
                let v = value_of(&mut i)?;
                epoch_len = parse_num(arg, &v)?;
                if epoch_len == 0 {
                    return Err(CliError::BadValue(arg.to_string(), v));
                }
            }
            "--trials" if spec.accepts_trials => {
                let v = value_of(&mut i)?;
                trials = parse_num(arg, &v)?;
                if trials == 0 {
                    return Err(CliError::BadValue(arg.to_string(), v));
                }
            }
            flag if spec.extra_flags.contains(&flag) => {
                if !flags.iter().any(|f| f == flag) {
                    flags.push(flag.to_string());
                }
            }
            bare if spec.panels.contains(&bare) => panels.push(bare.to_string()),
            other => return Err(CliError::UnknownArg(other.to_string())),
        }
        i += 1;
    }

    check_table_sizes(&plan)?;

    if checked && trace.is_some() {
        // The executor gives each run either a trace or a check report,
        // never both; the two audit modes stay separate runs.
        return Err(CliError::Conflict(
            "--trace".to_string(),
            "--checked".to_string(),
        ));
    }

    // A lone watermark override combines with the controller default for
    // the other one; the pair the controller would run with is checked.
    if let Err(e) = sched.apply(ControllerConfig::default()).check_watermarks() {
        let flag = if sched.drain_hi.is_some() {
            "--drain-hi"
        } else {
            "--drain-lo"
        };
        return Err(CliError::BadValue(flag.to_string(), e));
    }

    Ok(BenchArgs {
        plan,
        jobs,
        checked,
        trace,
        epoch_len,
        heartbeat,
        sched,
        trials,
        panels,
        flags,
        out: out.unwrap_or_else(|| PathBuf::from(format!("results/{}.json", spec.bin))),
    })
}

/// Rejects record counts the address map cannot hold: an empty table
/// (the layout needs records), a Ta that runs past Tb's base (the two
/// tables would share simulated addresses), or a Tb that runs off the
/// 64-bit address space.
fn check_table_sizes(plan: &PlanConfig) -> Result<(), CliError> {
    let bad = |flag: &str, records: u64| CliError::BadValue(flag.to_string(), records.to_string());
    if plan.ta_records == 0 {
        return Err(bad("--rows", 0));
    }
    if plan.tb_records == 0 {
        return Err(bad("--tb-rows", 0));
    }
    let end = |base: u64, table: sam::layout::TableSpec| {
        table
            .record_bytes()
            .checked_mul(table.records)
            .and_then(|bytes| bytes.checked_add(base))
    };
    if end(TA_BASE, plan.ta()).is_none_or(|ta_end| ta_end > TB_BASE) {
        return Err(bad("--rows", plan.ta_records));
    }
    if end(TB_BASE, plan.tb()).is_none() {
        return Err(bad("--tb-rows", plan.tb_records));
    }
    Ok(())
}

fn parse_num(flag: &str, v: &str) -> Result<u64, CliError> {
    v.parse()
        .map_err(|_| CliError::BadValue(flag.to_string(), v.to_string()))
}

/// Parses the process arguments; prints usage and exits on error (`2`) or
/// on `--help`/`-h` (`0`).
pub fn parse_args(spec: &ArgSpec, plan: PlanConfig) -> BenchArgs {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", spec.usage());
        std::process::exit(0);
    }
    match try_parse_args(spec, plan, &argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{}: {e}", spec.bin);
            eprintln!("{}", spec.usage());
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(std::string::ToString::to_string).collect()
    }

    fn spec() -> ArgSpec {
        ArgSpec::new("fig12").with_checked()
    }

    #[test]
    fn defaults_when_no_args() {
        let a = try_parse_args(&spec(), PlanConfig::tiny(), &[]).unwrap();
        assert_eq!(a.plan, PlanConfig::tiny());
        assert!(a.jobs >= 1);
        assert!(!a.checked);
        assert_eq!(a.trace, None);
        assert_eq!(a.epoch_len, DEFAULT_EPOCH_LEN);
        assert_eq!(a.sched, SchedOverrides::default());
        assert_eq!(a.trials, DEFAULT_TRIALS);
        assert_eq!(a.out, PathBuf::from("results/fig12.json"));
    }

    #[test]
    fn trace_flag_forms_and_gating() {
        let s = ArgSpec::new("fig12").with_trace();
        let a = try_parse_args(&s, PlanConfig::tiny(), &argv(&["--trace"])).unwrap();
        assert_eq!(a.trace, Some(PathBuf::from("results/fig12.trace.json")));
        let a = try_parse_args(
            &s,
            PlanConfig::tiny(),
            &argv(&["--trace=/tmp/t.json", "--epoch-len", "512"]),
        )
        .unwrap();
        assert_eq!(a.trace, Some(PathBuf::from("/tmp/t.json")));
        assert_eq!(a.epoch_len, 512);
        // An empty path and a zero epoch are rejected, not defaulted.
        assert_eq!(
            try_parse_args(&s, PlanConfig::tiny(), &argv(&["--trace="])).unwrap_err(),
            CliError::BadValue("--trace".to_string(), String::new())
        );
        assert_eq!(
            try_parse_args(&s, PlanConfig::tiny(), &argv(&["--epoch-len", "0"])).unwrap_err(),
            CliError::BadValue("--epoch-len".to_string(), "0".to_string())
        );
        // Binaries that never record reject the flags outright.
        let plain = ArgSpec::new("table1");
        let e = try_parse_args(&plain, PlanConfig::tiny(), &argv(&["--trace"])).unwrap_err();
        assert_eq!(e, CliError::UnknownArg("--trace".to_string()));
    }

    #[test]
    fn obs_flag_forms() {
        let s = ArgSpec::new("fig12");
        let a = try_parse_args(&s, PlanConfig::tiny(), &[]).unwrap();
        assert_eq!(a.heartbeat, None);
        let a = try_parse_args(&s, PlanConfig::tiny(), &argv(&["--heartbeat=2"])).unwrap();
        assert_eq!(a.heartbeat, Some(2));
        let a = try_parse_args(&s, PlanConfig::tiny(), &argv(&["--heartbeat"])).unwrap();
        assert_eq!(a.heartbeat, Some(DEFAULT_HEARTBEAT_SECS));
        // The retired phase profiler's and sharded sweep's flags are
        // unknown.
        for gone in ["--profile", "--profile=p.json", "--shard"] {
            let e = try_parse_args(&s, PlanConfig::tiny(), &argv(&[gone])).unwrap_err();
            assert_eq!(e, CliError::UnknownArg(gone.to_string()));
        }
        // Zero/garbage intervals are rejected, not defaulted.
        assert_eq!(
            try_parse_args(&s, PlanConfig::tiny(), &argv(&["--heartbeat=0"])).unwrap_err(),
            CliError::BadValue("--heartbeat".to_string(), "0".to_string())
        );
        assert!(try_parse_args(&s, PlanConfig::tiny(), &argv(&["--heartbeat=x"])).is_err());
    }

    #[test]
    fn trace_and_checked_conflict() {
        let s = ArgSpec::new("fig12").with_checked().with_trace();
        for args in [
            &["--checked", "--trace"][..],
            &["--trace=t.json", "--checked"][..],
        ] {
            let e = try_parse_args(&s, PlanConfig::tiny(), &argv(args)).unwrap_err();
            assert_eq!(
                e,
                CliError::Conflict("--trace".to_string(), "--checked".to_string())
            );
        }
        // Each alone is fine.
        assert!(try_parse_args(&s, PlanConfig::tiny(), &argv(&["--checked"])).is_ok());
        assert!(try_parse_args(&s, PlanConfig::tiny(), &argv(&["--trace"])).is_ok());
    }

    #[test]
    fn starvation_cap_is_shared_and_zero_is_legal() {
        let a = try_parse_args(
            &spec(),
            PlanConfig::tiny(),
            &argv(&["--starvation-cap", "0"]),
        )
        .unwrap();
        assert_eq!(a.sched.starvation_cap, Some(0));
        let a = try_parse_args(
            &ArgSpec::new("table2"),
            PlanConfig::tiny(),
            &argv(&["--starvation-cap", "512"]),
        )
        .unwrap();
        assert_eq!(a.sched.starvation_cap, Some(512));
    }

    #[test]
    fn drain_watermarks_shared_and_validated() {
        use sam_stress::stream::{DeviceKind, StressConfig};
        let a = try_parse_args(
            &spec(),
            PlanConfig::tiny(),
            &argv(&["--drain-hi", "20", "--drain-lo", "4"]),
        )
        .unwrap();
        assert_eq!(a.sched.drain_hi, Some(20));
        assert_eq!(a.sched.drain_lo, Some(4));
        // A lone override is validated against the default for the other
        // watermark (hi 28, lo 8), and the error names the flag given.
        for (flag, v) in [("--drain-lo", "30"), ("--drain-hi", "33")] {
            let e = try_parse_args(&spec(), PlanConfig::tiny(), &argv(&[flag, v])).unwrap_err();
            assert!(
                matches!(e, CliError::BadValue(f, _) if f == flag),
                "{flag} {v}"
            );
        }
        // Inverted and equal margins and hi beyond the queue depth are
        // rejected, with the verdict and message a stress run's
        // configuration gets on either device: both check one rule.
        for (hi, lo) in [(33, 8), (10, 10), (8, 28), (20, 4), (32, 31)] {
            let (hi_arg, lo_arg) = (hi.to_string(), lo.to_string());
            let args = argv(&["--drain-hi", &hi_arg, "--drain-lo", &lo_arg]);
            let cli = try_parse_args(&spec(), PlanConfig::tiny(), &args).map(|_| ());
            assert_eq!(cli.is_ok(), lo < hi && hi <= 32, "hi={hi} lo={lo}");
            for device in [DeviceKind::Ddr4, DeviceKind::Rram] {
                let stress = StressConfig::new(device, 4096, hi, lo)
                    .map(|_| ())
                    .map_err(|e| CliError::BadValue("--drain-hi".to_string(), e));
                assert_eq!(cli, stress, "{device:?} hi={hi} lo={lo}");
            }
        }
    }

    #[test]
    fn extra_flags_gated_and_deduped() {
        let s = ArgSpec::new("fig13").with_flags(&["--per-core"]);
        let a =
            try_parse_args(&s, PlanConfig::tiny(), &argv(&["--per-core", "--per-core"])).unwrap();
        assert_eq!(a.flags, vec!["--per-core"]);
        assert!(a.has_flag("--per-core"));
        assert!(!a.has_flag("--other"));
        let e = try_parse_args(&spec(), PlanConfig::tiny(), &argv(&["--per-core"])).unwrap_err();
        assert_eq!(e, CliError::UnknownArg("--per-core".to_string()));
    }

    #[test]
    fn trials_gated_and_validated() {
        let s = ArgSpec::new("reliability").with_trials();
        let a = try_parse_args(&s, PlanConfig::tiny(), &argv(&["--trials", "7"])).unwrap();
        assert_eq!(a.trials, 7);
        assert_eq!(
            try_parse_args(&s, PlanConfig::tiny(), &argv(&["--trials", "0"])).unwrap_err(),
            CliError::BadValue("--trials".to_string(), "0".to_string())
        );
        let e = try_parse_args(&spec(), PlanConfig::tiny(), &argv(&["--trials", "7"])).unwrap_err();
        assert_eq!(e, CliError::UnknownArg("--trials".to_string()));
    }

    #[test]
    fn parses_shared_flags() {
        let a = try_parse_args(
            &spec(),
            PlanConfig::tiny(),
            &argv(&[
                "--rows",
                "1024",
                "--tb-rows",
                "4096",
                "--seed",
                "9",
                "--jobs",
                "3",
                "--checked",
                "--out",
                "x.json",
            ]),
        )
        .unwrap();
        assert_eq!(a.plan.ta_records, 1024);
        assert_eq!(a.plan.tb_records, 4096);
        assert_eq!(a.plan.seed, 9);
        assert_eq!(a.jobs, 3);
        assert!(a.checked);
        assert_eq!(a.out, PathBuf::from("x.json"));
    }

    /// The motivating bug: misspelled flags used to be silently ignored,
    /// so `--cheked` ran a whole figure unchecked.
    #[test]
    fn misspelled_flag_is_an_error() {
        let e = try_parse_args(&spec(), PlanConfig::tiny(), &argv(&["--cheked"])).unwrap_err();
        assert_eq!(e, CliError::UnknownArg("--cheked".to_string()));
    }

    #[test]
    fn checked_rejected_where_unsupported() {
        let plain = ArgSpec::new("fig13");
        let e = try_parse_args(&plain, PlanConfig::tiny(), &argv(&["--checked"])).unwrap_err();
        assert_eq!(e, CliError::UnknownArg("--checked".to_string()));
    }

    #[test]
    fn panels_validated_against_spec() {
        let s = ArgSpec::new("fig14").with_panels(&["a", "b", "c"]);
        let a = try_parse_args(&s, PlanConfig::tiny(), &argv(&["c", "a"])).unwrap();
        assert_eq!(a.panels, vec!["c", "a"]);
        let e = try_parse_args(&s, PlanConfig::tiny(), &argv(&["d"])).unwrap_err();
        assert_eq!(e, CliError::UnknownArg("d".to_string()));
    }

    #[test]
    fn missing_and_bad_values_are_errors() {
        assert_eq!(
            try_parse_args(&spec(), PlanConfig::tiny(), &argv(&["--rows"])).unwrap_err(),
            CliError::MissingValue("--rows".to_string())
        );
        assert_eq!(
            try_parse_args(&spec(), PlanConfig::tiny(), &argv(&["--jobs", "0"])).unwrap_err(),
            CliError::BadValue("--jobs".to_string(), "0".to_string())
        );
        assert_eq!(
            try_parse_args(&spec(), PlanConfig::tiny(), &argv(&["--seed", "pi"])).unwrap_err(),
            CliError::BadValue("--seed".to_string(), "pi".to_string())
        );
    }

    /// An empty table would panic in the layout, and an oversized Ta would
    /// share simulated addresses with Tb: the parser rejects both.
    #[test]
    fn table_sizes_must_fit_the_address_map() {
        let parse = |args: &[&str]| try_parse_args(&spec(), PlanConfig::tiny(), &argv(args));
        let bad = |flag: &str, v: &str| Err(CliError::BadValue(flag.to_string(), v.to_string()));
        // 1 KB Ta records: 3 GiB of them end exactly at Tb's base.
        let fits = (TB_BASE - TA_BASE) / 1024;
        let over = (fits + 1).to_string();
        let max = u64::MAX.to_string();
        for (args, want) in [
            (&["--rows", "0"][..], bad("--rows", "0")),
            (&["--ta-rows", "0"][..], bad("--rows", "0")),
            (&["--tb-rows", "0"][..], bad("--tb-rows", "0")),
            (&["--rows", &over][..], bad("--rows", &over)),
            (&["--rows", &max][..], bad("--rows", &max)),
            (&["--tb-rows", &max][..], bad("--tb-rows", &max)),
        ] {
            assert_eq!(parse(args).map(|a| a.plan), want, "{args:?}");
        }
        assert!(parse(&["--rows", &fits.to_string()]).is_ok());
        // 128 B Tb records: the largest count whose end still fits in u64.
        let tb_max = (u64::MAX - TB_BASE) / 128;
        assert!(parse(&["--tb-rows", &tb_max.to_string()]).is_ok());
        assert!(parse(&["--tb-rows", &(tb_max + 1).to_string()]).is_err());
    }
}
