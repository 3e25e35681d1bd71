//! Experiments and the one driver that runs them.
//!
//! A bench binary is an [`Experiment`]: its registered name and accepted
//! flags (an [`ArgSpec`]), a weighted plan that describes every run as
//! data ([`Run`], [`Job`]), and a render function that prints stdout and
//! builds the `--out` document from the finished runs. [`drive`] does the
//! rest, once for every experiment: the `--heartbeat` monitor, the
//! [`SystemConfig`] built from the scheduler-knob flags, execution, the
//! metrics report and `--per-core` rollup, the trace document, and the
//! check summary and exit code.
//!
//! Plain, traced and checked runs go through the same executor: each plan
//! entry runs bare, with its own ring/epoch recorders (`--trace`), or under
//! protocol oracles (`--checked`), and the render never knows which.

use std::path::Path;
use std::sync::Arc;

use sam::design::Design;
use sam::layout::{Store, TableSpec};
use sam::ops::Trace;
use sam::system::{Instrumentation, RunResult, System, SystemConfig};
use sam_ecc::codes::SscCode;
use sam_ecc::inject::{chipkill_campaign, CampaignReport};
use sam_ecc::layout::CodewordLayout;
use sam_imdb::exec::{run_query_instrumented, QueryRun, Workload};
use sam_stress::driver::{run_stream_instrumented, StressOutcome};
use sam_stress::stream::StressConfig;
use sam_stress::{Pattern, PatternParams};
use sam_trace::RunTrace;
use sam_util::json::Json;

use crate::checked::{self, CheckReport};
use crate::cli::{ArgSpec, BenchArgs};
use crate::heartbeat;
use crate::metrics::MetricsReport;
use crate::sweep::{run_sweep_weighted_strict, SweepTask};
use crate::traced::{self, TraceOptions};

/// One registered experiment: everything a bench binary knows that the
/// driver does not.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The accepted flags. `spec.bin` is the registered name: the binary
    /// and the `results/<name>.json` stem.
    pub spec: ArgSpec,
    /// Every run the experiment needs, in render order.
    pub plan: fn(&Ctx) -> Vec<Run>,
    /// Prints stdout and builds the `--out` document from the runs.
    pub render: fn(&Ctx, Results) -> Rendered,
}

impl Experiment {
    /// An experiment from its flags, plan and render.
    pub const fn new(
        spec: ArgSpec,
        plan: fn(&Ctx) -> Vec<Run>,
        render: fn(&Ctx, Results) -> Rendered,
    ) -> Self {
        Self { spec, plan, render }
    }

    /// The registered name.
    pub fn name(&self) -> &'static str {
        self.spec.bin
    }
}

/// What plan and render see: the experiment, its parsed arguments, and
/// the system configuration those arguments select.
#[derive(Debug)]
pub struct Ctx<'a> {
    /// The experiment being run.
    pub exp: &'a Experiment,
    /// The parsed command line.
    pub args: &'a BenchArgs,
    /// The default system with the `--starvation-cap`, `--drain-hi`,
    /// `--drain-lo` and `--debug-cores` overrides applied.
    pub system: SystemConfig,
}

impl<'a> Ctx<'a> {
    /// The context `exp`'s plan and render see under `args`.
    pub fn new(exp: &'a Experiment, args: &'a BenchArgs) -> Self {
        let system = SystemConfig {
            sched: args.sched,
            debug_cores: args.has_flag("--debug-cores"),
            ..SystemConfig::default()
        };
        Self { exp, args, system }
    }

    /// The gather granularity of [`Self::system`] in bytes.
    pub fn gather(&self) -> u64 {
        self.system.granularity.gather() as u64
    }

    /// An empty metrics report for this run of the experiment.
    pub fn report(&self) -> MetricsReport {
        let args = self.args;
        MetricsReport::new(self.exp.name(), args.plan, args.jobs, args.checked)
            .with_per_core(args.has_flag("--per-core"))
    }

    /// The selected panels, in the order given; all of them when none was.
    pub fn panels(&self) -> Vec<&'a str> {
        if self.args.panels.is_empty() {
            self.exp.spec.panels.to_vec()
        } else {
            self.args.panels.iter().map(String::as_str).collect()
        }
    }
}

/// One planned run: its label (shown on a panic and carried by trace
/// documents), its weight in the sweep cost model, and the job.
#[derive(Debug, Clone)]
pub struct Run {
    /// Human-readable configuration, e.g. `"Q3/SAM-en/Row"`.
    pub label: String,
    /// Relative cost: schedules heaviest first and drives the heartbeat
    /// ETA.
    pub weight: u64,
    /// What to simulate.
    pub job: Job,
}

impl Run {
    /// A query run, weighted by the query's cost hint.
    pub fn query(
        label: impl Into<String>,
        workload: Workload,
        design: Design,
        store: Store,
    ) -> Self {
        Self {
            label: label.into(),
            weight: workload.query.cost_hint(&workload.plan),
            job: Job::Query {
                workload,
                design,
                store,
            },
        }
    }
}

/// A run described as data.
#[derive(Debug, Clone)]
pub enum Job {
    /// A compiled query on one design and store.
    Query {
        /// Query, plan scale and system.
        workload: Workload,
        /// The design under test.
        design: Design,
        /// Table layout.
        store: Store,
    },
    /// Hand-built per-core traces over one row-store table.
    Traces {
        /// The system to run on.
        system: SystemConfig,
        /// The design under test.
        design: Design,
        /// The table the traces address.
        table: TableSpec,
        /// One trace per core, shared between the designs that replay it.
        traces: Arc<Vec<Trace>>,
    },
    /// One adversarial stream against one bare-controller configuration.
    Stress {
        /// Controller knobs and device.
        config: StressConfig,
        /// The attack pattern.
        pattern: Pattern,
        /// Pattern generator knobs.
        params: PatternParams,
    },
    /// A chipkill fault-injection campaign (no memory system).
    Campaign {
        /// The codeword layout under test.
        layout: CodewordLayout,
        /// Corruption patterns per chip.
        trials: usize,
        /// Campaign seed.
        seed: u64,
    },
}

impl Job {
    /// Runs the job with `instr` attached and adds its simulated cycles to
    /// the heartbeat's tally. Stress cells use only the trace recorder of
    /// `instr`; campaigns simulate no memory system and use none of it.
    pub fn run(&self, instr: &mut Instrumentation<'_>) -> Outcome {
        let outcome = match self {
            Job::Query {
                workload,
                design,
                store,
            } => Outcome::Query(run_query_instrumented(workload, design, *store, instr)),
            Job::Traces {
                system,
                design,
                table,
                traces,
            } => Outcome::Run(
                System::new(*system, design.clone(), Store::Row).run_instrumented(
                    &[*table],
                    traces,
                    instr,
                ),
            ),
            Job::Stress {
                config,
                pattern,
                params,
            } => Outcome::Stress(run_stream_instrumented(
                config,
                &pattern.generate(params),
                instr.trace.clone(),
            )),
            Job::Campaign {
                layout,
                trials,
                seed,
            } => Outcome::Campaign(chipkill_campaign(&SscCode::new(), *layout, *trials, *seed)),
        };
        heartbeat::cycles_done(outcome.sim_cycles());
        outcome
    }

    /// The design a checked run shadows and whether it runs the hybrid
    /// topology; `None` for jobs with no DRAM device.
    pub(crate) fn shadowed(&self) -> Option<(&Design, bool)> {
        match self {
            Job::Query {
                workload, design, ..
            } => Some((design, workload.system.hybrid.is_some())),
            Job::Traces { system, design, .. } => Some((design, system.hybrid.is_some())),
            Job::Stress { .. } | Job::Campaign { .. } => None,
        }
    }
}

/// A finished run; the variant follows the [`Job`] variant.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// From [`Job::Query`].
    Query(QueryRun),
    /// From [`Job::Traces`].
    Run(RunResult),
    /// From [`Job::Stress`].
    Stress(StressOutcome),
    /// From [`Job::Campaign`].
    Campaign(CampaignReport),
}

impl Outcome {
    /// Simulated memory cycles: a run's end-to-end `cycles`, a stress
    /// cell's last completion, and 0 for a campaign.
    pub(crate) fn sim_cycles(&self) -> u64 {
        match self {
            Outcome::Query(q) => q.result.cycles,
            Outcome::Run(r) => r.cycles,
            Outcome::Stress(s) => s.last_finish,
            Outcome::Campaign(_) => 0,
        }
    }
}

/// The finished plan, in plan order.
#[derive(Debug, Default)]
pub struct Results {
    /// One outcome per planned run.
    pub runs: Vec<Outcome>,
    /// Per-run protocol plus cache violation counts (all zero unless
    /// `--checked`).
    pub violations: Vec<u64>,
}

fn kind_mismatch(want: &str) -> ! {
    panic!("the plan holds only {want} runs, so every outcome must be one")
}

impl Results {
    /// The outcomes of a plan made only of [`Job::Query`] runs.
    pub fn into_queries(self) -> Vec<QueryRun> {
        let each = |o| match o {
            Outcome::Query(r) => r,
            _ => kind_mismatch("query"),
        };
        self.runs.into_iter().map(each).collect()
    }

    /// The outcomes of a plan made only of [`Job::Traces`] runs.
    pub fn into_run_results(self) -> Vec<RunResult> {
        let each = |o| match o {
            Outcome::Run(r) => r,
            _ => kind_mismatch("trace"),
        };
        self.runs.into_iter().map(each).collect()
    }

    /// The outcomes of a plan made only of [`Job::Stress`] runs.
    pub fn into_stress(self) -> Vec<StressOutcome> {
        let each = |o| match o {
            Outcome::Stress(r) => r,
            _ => kind_mismatch("stress"),
        };
        self.runs.into_iter().map(each).collect()
    }

    /// The outcomes of a plan made only of [`Job::Campaign`] runs.
    pub fn into_campaigns(self) -> Vec<CampaignReport> {
        let each = |o| match o {
            Outcome::Campaign(r) => r,
            _ => kind_mismatch("campaign"),
        };
        self.runs.into_iter().map(each).collect()
    }
}

/// The document an experiment writes to `--out`.
#[derive(Debug)]
pub enum Doc {
    /// The standard metrics report; `--per-core` adds its rollup.
    Metrics(MetricsReport),
    /// An experiment-specific document (fig16, stress).
    Json(Json),
}

/// What a render hands back to the driver.
#[derive(Debug)]
pub struct Rendered {
    /// Written to `--out`.
    pub doc: Doc,
    /// The experiment's own verdict failed (stress invariants): exit 1.
    pub failed: bool,
}

impl From<MetricsReport> for Rendered {
    fn from(report: MetricsReport) -> Self {
        Self {
            doc: Doc::Metrics(report),
            failed: false,
        }
    }
}

impl From<Json> for Rendered {
    fn from(doc: Json) -> Self {
        Self {
            doc: Doc::Json(doc),
            failed: false,
        }
    }
}

/// Runs `exp` with `args` and returns the process exit code: executes the
/// plan, renders, and writes every output the flags ask for.
pub fn drive(exp: &Experiment, args: &BenchArgs) -> i32 {
    let name = exp.name();
    // Dropping the monitor stops it, on every return path below.
    let _heartbeat = args.heartbeat.map(|secs| heartbeat::start(name, secs));
    let ctx = Ctx::new(exp, args);
    let plan = (exp.plan)(&ctx);
    let (results, traces, checks) = execute(&plan, args);

    let rendered = (exp.render)(&ctx, results);
    match &rendered.doc {
        Doc::Metrics(report) => {
            let what = format!("{} run metrics", report.runs.len());
            write_or_die(name, &args.out, &report.to_json(), &what);
            if report.per_core {
                let path = args.out.with_extension("rollup.json");
                write_or_die(name, &path, &report.rollup_json(), "cycles rollup");
            }
        }
        Doc::Json(doc) => write_or_die(name, &args.out, doc, "report"),
    }
    if let Some(path) = &args.trace {
        let events: usize = traces.iter().map(|r| r.events.len()).sum();
        let dropped: u64 = traces.iter().map(|r| r.dropped).sum();
        let what = format!(
            "{} traced runs ({events} events, {dropped} dropped)",
            traces.len()
        );
        write_or_die(name, path, &sam_trace::chrome_trace(name, &traces), &what);
    }
    let clean = !args.checked || checked::summarize(&checks);
    i32::from(rendered.failed || !clean)
}

/// Runs the whole plan locally on `--jobs` workers: bare, traced or
/// checked as `args` say, returning the results plus each run's trace
/// (with `--trace`) or check report (with `--checked`), all in plan order.
pub fn execute(plan: &[Run], args: &BenchArgs) -> (Results, Vec<RunTrace>, Vec<CheckReport>) {
    let trace = args
        .trace
        .as_ref()
        .map(|_| TraceOptions::new(args.epoch_len));
    let checked = args.checked;
    let tasks = plan
        .iter()
        .map(|run| {
            let task = SweepTask::new(run.label.clone(), move || {
                if checked {
                    let (outcome, report) = checked::run_checked(&run.job);
                    (outcome, None, Some(report))
                } else if let Some(opts) = trace {
                    let (outcome, trace) = traced::run_traced(&run.job, &run.label, opts);
                    (outcome, Some(trace), None)
                } else {
                    (run.job.run(&mut Instrumentation::default()), None, None)
                }
            });
            (run.weight, task)
        })
        .collect();
    let mut results = Results::default();
    let mut traces = Vec::new();
    let mut checks = Vec::new();
    let done = run_sweep_weighted_strict(args.jobs, tasks);
    for (outcome, trace, check) in done {
        results.runs.push(outcome);
        results
            .violations
            .push(check.as_ref().map_or(0, CheckReport::violation_count));
        traces.extend(trace);
        checks.extend(check);
    }
    (results, traces, checks)
}

/// Writes `doc` to `path` with a trailing newline, creating parent
/// directories; the notice goes to stderr so stdout stays table-only.
/// Exits 1 on a filesystem error: an unwritable result is an error, not a
/// shrug.
fn write_or_die(bin: &str, path: &Path, doc: &Json, what: &str) {
    let write = || -> std::io::Result<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let mut text = doc.to_string();
        text.push('\n');
        std::fs::write(path, text)
    };
    match write() {
        Ok(()) => eprintln!("{bin}: wrote {what} to {}", path.display()),
        Err(e) => {
            eprintln!("{bin}: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_or_die_creates_parent_directories() {
        let dir = std::env::temp_dir().join(format!("sam-write-{}", std::process::id()));
        let path = dir.join("nested").join("out.json");
        write_or_die("test", &path, &Json::UInt(7), "a number");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "7\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
