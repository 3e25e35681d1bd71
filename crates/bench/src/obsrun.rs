//! The binaries' observability session: one [`ObsSession::start`] after
//! argument parsing, one [`ObsSession::finish`] before exit.
//!
//! `start` arms the profiler, opens the session's `main` root phase, and
//! starts the heartbeat monitor. `finish` closes the root, merges every
//! thread's phase tree, and writes `results/<bin>.profile.json` with the
//! counters `counters` sums from the finished runs (notice on stderr
//! only — stdout stays byte-identical to the goldens).

use std::path::PathBuf;

use sam_obs::heartbeat::{self, Heartbeat};
use sam_obs::profile::{self, report_json, PhaseGuard};

use crate::checked::CheckReport;
use crate::experiment::{write_or_die, Outcome};

/// The profile report's counter names, in report order.
const COUNTERS: [&str; 12] = [
    "sim.cycles",
    "ctrl.requests_enqueued",
    "ctrl.starvation_forced",
    "ctrl.refreshes",
    "dram.acts",
    "dram.pres",
    "dram.col_reads",
    "dram.col_writes",
    "dram.mode_switches",
    "cache.mem_misses",
    "cache.llc.sector_misses",
    "oracle.commands",
];

/// One run's share of the counters between `sim.cycles` and
/// `oracle.commands`, read from the stats the run already returns. A
/// stress cell records no device or cache stats, and a campaign simulates
/// no memory system.
fn stats_counters(outcome: &Outcome) -> [u64; 10] {
    let r = match outcome {
        Outcome::Query(q) => &q.result,
        Outcome::Run(r) => r,
        Outcome::Stress(s) => {
            let mut row = [0; 10];
            row[..3].copy_from_slice(&[s.reads + s.writes, s.starved, s.refreshes]);
            return row;
        }
        Outcome::Campaign(_) => return [0; 10],
    };
    let (c, d, llc) = (&r.ctrl, &r.device, &r.cache.2);
    [
        c.reads_done + c.writes_done,
        c.starvation_forced,
        c.refreshes,
        d.acts,
        d.pres,
        d.reads + d.stride_reads,
        d.writes + d.stride_writes,
        d.mode_switches,
        llc.sector_misses + llc.line_misses,
        llc.sector_misses,
    ]
}

/// The profile report's counters: each summed over a finished plan's
/// outcomes, plus the commands its `--checked` oracles shadowed. Every
/// count comes from the per-run stats the sweep returns, so the report
/// agrees with the metrics document and is the same at any `--jobs`.
#[must_use]
pub(crate) fn counters(runs: &[Outcome], checks: &[CheckReport]) -> Vec<(&'static str, u64)> {
    let mut sums = [0u64; 12];
    for run in runs {
        sums[0] += run.sim_cycles();
        for (sum, v) in sums[1..].iter_mut().zip(stats_counters(run)) {
            *sum += v;
        }
    }
    sums[11] = checks.iter().map(|c| c.commands as u64).sum();
    COUNTERS.into_iter().zip(sums).collect()
}

/// Observability state carried across one binary's run.
#[derive(Debug)]
pub struct ObsSession {
    bin: &'static str,
    profile_out: Option<PathBuf>,
    root: Option<PhaseGuard>,
    heartbeat: Option<Heartbeat>,
}

impl ObsSession {
    /// Starts the session from the parsed `--profile`/`--heartbeat`
    /// flags.
    #[must_use]
    pub fn start(bin: &'static str, args: &crate::cli::BenchArgs) -> Self {
        if args.profile.is_some() {
            profile::enable();
        }
        Self {
            bin,
            profile_out: args.profile.clone(),
            // The root must open after enable() so the session's own
            // (non-sweep) work — table assembly, JSON emission — has a
            // parent and the report telescopes to total measured time.
            root: profile::phase("main"),
            heartbeat: args.heartbeat.map(|secs| heartbeat::start(bin, secs)),
        }
    }

    /// Ends the session: stops the heartbeat, closes the `main` root, and
    /// writes the profile report with `counters` if `--profile` was given.
    /// Exits(1) on an unwritable report, like the metrics writer.
    pub fn finish(mut self, counters: &[(&'static str, u64)]) {
        if let Some(hb) = self.heartbeat.take() {
            hb.stop();
        }
        drop(self.root.take());
        let Some(path) = self.profile_out.take() else {
            return;
        };
        let doc = report_json(self.bin, &profile::take_report(), counters);
        write_or_die(self.bin, &path, &doc, "phase profile");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::{try_parse_args, ArgSpec};
    use sam_imdb::plan::PlanConfig;
    use sam_util::json::Json;

    fn args(argv: &[&str]) -> crate::cli::BenchArgs {
        let spec = ArgSpec::new("obstest");
        let argv: Vec<String> = argv.iter().map(|s| (*s).to_string()).collect();
        try_parse_args(&spec, PlanConfig::tiny(), &argv).unwrap()
    }

    #[test]
    fn session_without_flags_is_inert() {
        let s = ObsSession::start("obstest", &args(&[]));
        assert!(s.root.is_none() || sam_obs::profile::enabled());
        s.finish(&[]);
    }

    #[test]
    fn profile_session_writes_a_lintable_report() {
        let dir = std::env::temp_dir().join("sam-obs-session-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("obstest.profile.json");
        let path_str = path.to_str().unwrap().to_string();
        let flag = format!("--profile={path_str}");
        let s = ObsSession::start("obstest", &args(&[&flag, "--heartbeat=3600"]));
        {
            let _inner = sam_obs::profile::phase("emit-json");
        }
        s.finish(&counters(&[], &[]));
        let text = std::fs::read_to_string(&path).unwrap();
        let doc = Json::parse(&text).unwrap();
        sam_obs::profile::lint_profile_json(&doc).expect("session report lints clean");
        assert_eq!(doc.get("bin").and_then(Json::as_str), Some("obstest"));
        let phases = doc.get("phases").and_then(Json::as_array).unwrap();
        assert!(
            phases.iter().any(|p| {
                p.get("name").and_then(Json::as_str) == Some("main")
                    && p.get("children")
                        .and_then(Json::as_array)
                        .is_some_and(|c| !c.is_empty())
            }),
            "main root with nested children missing: {text}"
        );
        let names: Vec<&str> = doc
            .get("counters")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter_map(|c| c.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, COUNTERS);
        std::fs::remove_file(&path).ok();
    }
}
