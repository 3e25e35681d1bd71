//! `sam-perf`: the simulator's host-speed benchmark.
//!
//! ```text
//! sam-perf --workload <name> [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! One process runs one workload from a single thread: warm-up passes
//! (the first at the goldens' seed, checked against the committed
//! expectations), then timed passes at `--seed` for `--seconds`, each
//! checked to reproduce the reference pass exactly. With `--trace 1` one
//! more pass runs under the tracer and the per-layer metrics are
//! reported instead of the end-to-end ones. The last line of stdout is
//! the result as one JSON object; `perf/out/<workload>.json` keeps the
//! raw samples. `perf/README.md` describes the workloads and metrics.

mod cache;
mod ctrl;
mod golden;
mod probe;
mod sim;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use sam_bench::bench_fig12::HostMeta;
use sam_util::json::Json;

use probe::{Off, Probe, Site, Tracer};
use workload::{ratio, Layers, Pass, Workload, GOLDEN_SEED};

/// Timed passes run until `--seconds` have passed, and at least this
/// many times, so every lap has several samples to take the fastest of.
const MIN_TIMED_PASSES: usize = 5;

/// Failure messages kept for the report.
const FAILURES_SHOWN: usize = 20;

const USAGE: &str = "usage: sam-perf --workload <name> [--seed N] [--seconds N] [--trace 0|1]";

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: GOLDEN_SEED,
        seconds: 20,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload.clone_from(value),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// One metric of `BENCHMARK.json`.
#[derive(Debug)]
struct MetricSpec {
    name: String,
    unit: String,
    /// Share of the median by which the metric may worsen (end-to-end
    /// metrics only).
    bound: Option<f64>,
}

/// The benchmark definition, read from `BENCHMARK.json` so the names,
/// units and bounds have one source.
#[derive(Debug)]
struct Spec {
    workloads: Vec<String>,
    end_to_end: Vec<MetricSpec>,
    per_layer: Vec<MetricSpec>,
}

fn parse_spec(text: &str) -> Result<Spec, String> {
    let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<&[Json], String> {
        doc.get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("BENCHMARK.json: '{key}' must be an array"))
    };
    let name_of = |entry: &Json| -> Result<String, String> {
        entry
            .get("name")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json: entry without a name: {entry:?}"))
    };
    let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
        list(key)?
            .iter()
            .map(|m| {
                Ok(MetricSpec {
                    name: name_of(m)?,
                    unit: m
                        .get("unit")
                        .and_then(Json::as_str)
                        .ok_or_else(|| format!("BENCHMARK.json: metric without a unit: {m:?}"))?
                        .to_string(),
                    bound: m.get("bound").and_then(Json::as_f64),
                })
            })
            .collect()
    };
    Ok(Spec {
        workloads: list("workloads")?
            .iter()
            .map(name_of)
            .collect::<Result<_, _>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

/// Counts checked runs and failed ones across every pass of a process.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Tally {
    fn record(&mut self, runs: usize, failures: impl IntoIterator<Item = String>) {
        let mut failed = 0;
        for message in failures {
            failed += 1;
            if self.messages.len() < FAILURES_SHOWN {
                self.messages.push(message);
            }
        }
        self.attempted += runs as u64;
        self.failed += failed.min(runs as u64);
    }

    /// Every run of a pass must reproduce the reference pass exactly.
    fn compare<T: PartialEq + std::fmt::Debug>(&mut self, reference: &[T], items: &[T]) {
        let mut failures: Vec<String> = reference
            .iter()
            .zip(items)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| format!("run {i} differs from the reference pass"))
            .collect();
        if reference.len() != items.len() {
            failures.push(format!(
                "{} runs, reference {}",
                items.len(),
                reference.len()
            ));
        }
        self.record(reference.len(), failures);
    }
}

/// What the traced pass measured.
#[derive(Debug)]
struct Traced {
    layers: Layers,
    pass_s: f64,
    /// (layer self times + driver self time) / traced pass time.
    telescope: f64,
    json: Json,
}

/// The timed passes' measurements.
#[derive(Debug, Default)]
struct Timed {
    /// Wall time of each pass, s.
    wall_s: Vec<f64>,
    /// Each pass's set-up laps, ns.
    setup: Vec<Vec<u64>>,
    /// Each pass's simulation laps, ns.
    sim: Vec<Vec<u64>>,
    /// Simulated work of one pass (every pass does the same).
    work: u64,
}

/// Σ over lap positions of the fastest time that lap took in any pass,
/// in s: the pass as it runs when nothing else on the host interferes.
fn fastest(passes: &[Vec<u64>]) -> f64 {
    let laps = passes.first().map_or(0, Vec::len);
    let ns: u64 = (0..laps)
        .map(|i| {
            passes
                .iter()
                .filter_map(|p| p.get(i))
                .min()
                .copied()
                .unwrap_or(0)
        })
        .sum();
    ns as f64 / 1e9
}

impl Timed {
    /// Every end-to-end metric but `peak_rss_mb`: the reported value,
    /// and the per-pass samples behind it.
    fn end_to_end(&self) -> Vec<(&'static str, f64, Vec<f64>)> {
        let sums = |passes: &[Vec<u64>]| -> Vec<f64> {
            passes
                .iter()
                .map(|p| p.iter().sum::<u64>() as f64 / 1e9)
                .collect()
        };
        let rate = |sim_s: f64| ratio(self.work as f64 / 1e6, sim_s);
        let (setup, sim) = (fastest(&self.setup), fastest(&self.sim));
        vec![
            ("pass_s", setup + sim, self.wall_s.clone()),
            ("setup_s", setup, sums(&self.setup)),
            (
                "throughput_m_per_s",
                rate(sim),
                sums(&self.sim).into_iter().map(rate).collect(),
            ),
        ]
    }
}

/// Everything one process measured.
#[derive(Debug)]
struct Outcome {
    warmup: usize,
    timed: Timed,
    tally: Tally,
    digest: u64,
    traced: Option<Traced>,
}

fn run_pass<W: Workload, P: Probe>(
    w: &W,
    seed: u64,
    verify: bool,
    probe: &mut P,
) -> (Pass<W::Item>, f64) {
    let start = Instant::now();
    let pass = probe.span("driver.pass", |probe| w.pass(seed, verify, probe));
    (pass, start.elapsed().as_secs_f64())
}

/// FNV-1a over the reference pass's statistics: equal digests mean equal
/// simulated results, so two commits can be compared on any seed.
fn digest<T: std::fmt::Debug>(items: &[T]) -> u64 {
    format!("{items:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        })
}

/// Span and call-site metrics every workload gets from the tracer.
fn generic_layers(tracer: &Tracer, pass_layers: &Layers) -> Layers {
    let mut layers = pass_layers.clone();
    for site in Site::ALL {
        let c = tracer.calls(site);
        let name = site.name();
        layers.insert(format!("{name}.calls"), c.count as f64);
        layers.insert(
            format!("{name}.ns_mean"),
            ratio(c.total_ns as f64, c.count as f64),
        );
        layers.insert(format!("{name}.self_ms"), c.total_ns as f64 / 1e6);
        for (suffix, p) in [("ns_p50", 50.0), ("ns_p99", 99.0)] {
            if let Some(v) = stats::percentile(&c.samples, p) {
                layers.insert(format!("{name}.{suffix}"), v);
            }
        }
    }
    let mut spans: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for s in tracer
        .spans()
        .iter()
        .filter(|s| !s.name.starts_with("driver."))
    {
        let e = spans.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.self_ns();
    }
    for (name, (calls, self_ns)) in spans {
        layers.insert(format!("{name}.calls"), calls as f64);
        layers.insert(format!("{name}.self_ms"), self_ns as f64 / 1e6);
    }
    if let Some(&ops) = pass_layers.get("imdb.trace_ops") {
        let compile_ns: f64 = tracer.durations("imdb.compile").iter().sum();
        layers.insert("imdb.compile.ns_per_op".into(), ratio(compile_ns, ops));
    }
    layers.insert("driver.self_ms".into(), tracer.driver_ns() as f64 / 1e6);
    layers
}

/// Runs the traced pass; `untraced_s` is the untraced passes' median.
fn trace_pass<W: Workload>(
    w: &W,
    seed: u64,
    untraced_s: f64,
    workload: &str,
) -> (Vec<W::Item>, Traced) {
    let mut tracer = Tracer::default();
    let (pass, pass_s) = run_pass(w, seed, false, &mut tracer);
    let mut layers = generic_layers(&tracer, &pass.layers);
    layers.extend(w.layers(&pass, &tracer));
    layers.insert(
        "trace.overhead_frac".into(),
        ratio(pass_s, untraced_s) - 1.0,
    );
    let traced = Traced {
        telescope: ratio(
            (tracer.layer_ns() + tracer.driver_ns()) as f64,
            tracer.root_ns() as f64,
        ),
        layers,
        pass_s,
        json: tracer.to_json(workload),
    };
    (pass.items, traced)
}

fn drive<W: Workload>(w: &W, args: &Args) -> Outcome {
    let mut tally = Tally::default();
    let warmup = w.warmup();
    let mut reference = Vec::new();
    for i in 0..warmup {
        let seed = if i == 0 { GOLDEN_SEED } else { args.seed };
        let last = i + 1 == warmup;
        let verify = i == 0 || last;
        let (pass, _) = run_pass(w, seed, verify, &mut Off);
        if verify {
            let checked = w.check(seed, &pass.items);
            tally.record(pass.items.len(), pass.failures.into_iter().chain(checked));
        }
        if last {
            reference = pass.items;
        }
    }

    let mut timed = Timed::default();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    while timed.wall_s.len() < MIN_TIMED_PASSES || start.elapsed() < budget {
        let (pass, secs) = run_pass(w, args.seed, false, &mut Off);
        tally.compare(&reference, &pass.items);
        timed.wall_s.push(secs);
        timed.setup.push(pass.setup_ns);
        timed.sim.push(pass.sim_ns);
        timed.work = pass.work;
    }

    let traced = args.trace.then(|| {
        let untraced_s = stats::median(&timed.wall_s).unwrap_or(0.0);
        let (items, traced) = trace_pass(w, args.seed, untraced_s, &args.workload);
        tally.compare(&reference, &items);
        traced
    });

    Outcome {
        warmup,
        timed,
        tally,
        digest: digest(&reference),
        traced,
    }
}

/// `VmHWM`, the process's peak resident set, in MiB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Where results go: `perf/out/`, beside this package's manifest.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_json(path: &std::path::Path, doc: &Json) -> Result<(), String> {
    std::fs::create_dir_all(out_dir()).map_err(|e| format!("{}: {e}", out_dir().display()))?;
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

/// Per-pass lap times as nested arrays, one array per pass.
fn laps_json(passes: &[Vec<u64>]) -> Json {
    Json::Array(
        passes
            .iter()
            .map(|p| Json::Array(p.iter().map(|&ns| Json::UInt(ns)).collect()))
            .collect(),
    )
}

/// A number for the one-line result: every digit, and never NaN.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn report(spec: &Spec, args: &Args, out: Outcome) -> Result<(), String> {
    let rss = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let mut measured = out.timed.end_to_end();
    measured.push(("peak_rss_mb", rss, vec![rss]));
    let host = HostMeta::collect();
    let timed = out.timed.wall_s.len();
    println!(
        "sam-perf {}: seed {}, {} warm-up + {timed} timed passes, {} x{}, {}",
        args.workload, args.seed, out.warmup, host.cpu_model, host.cpu_cores, host.rustc
    );

    let mut metrics = Vec::new();
    let mut line = Vec::new();
    for m in &spec.end_to_end {
        let (_, value, samples) = measured
            .iter()
            .find(|(name, ..)| *name == m.name)
            .ok_or_else(|| {
                format!(
                    "BENCHMARK.json names {}, which sam-perf does not measure",
                    m.name
                )
            })?;
        let median = stats::median(samples).unwrap_or(0.0);
        let (q1, q3) = stats::quartiles(samples).unwrap_or((0.0, 0.0));
        let bound = m.bound.unwrap_or(0.0);
        let spread = ratio(q3 - q1, median);
        let unresolved = spread > bound;
        println!(
            "  {:<20} {value:>12.6} {:<5} per pass: median {median:.6}, IQR {:.2}%, n={}; bound {:.0}%{}",
            m.name,
            m.unit,
            spread * 100.0,
            samples.len(),
            bound * 100.0,
            if unresolved { "  UNRESOLVED" } else { "" }
        );
        let floats = |v: &[f64]| Json::Array(v.iter().map(|&x| Json::Float(x)).collect());
        metrics.push((
            m.name.clone(),
            Json::object([
                ("unit", Json::str(&m.unit)),
                ("value", Json::Float(*value)),
                ("median", Json::Float(median)),
                ("q1", Json::Float(q1)),
                ("q3", Json::Float(q3)),
                ("iqr", Json::Float(q3 - q1)),
                ("n", Json::UInt(samples.len() as u64)),
                ("bound", Json::Float(bound)),
                ("unresolved", Json::Bool(unresolved)),
                ("samples", floats(samples)),
            ]),
        ));
        if !args.trace {
            line.push((m.name.as_str(), m.unit.as_str(), *value));
        }
    }
    let t = &out.tally;
    println!(
        "  fail_frac {} ({} of {} runs failed a check)",
        ratio(t.failed as f64, t.attempted as f64),
        t.failed,
        t.attempted
    );
    for message in &t.messages {
        println!("    {message}");
    }
    println!("  sim_digest {:016x}", out.digest);

    let mut per_layer = Vec::new();
    if let Some(traced) = &out.traced {
        println!(
            "  traced pass {:.6} s; layer and driver self times add up to {:.2}% of it",
            traced.pass_s,
            traced.telescope * 100.0
        );
        for m in &spec.per_layer {
            let value = traced.layers.get(&m.name).copied().unwrap_or(0.0);
            println!("  {:<44} {value:>16.4} {}", m.name, m.unit);
            per_layer.push((m.name.clone(), Json::Float(value)));
            line.push((m.name.as_str(), m.unit.as_str(), value));
        }
        let path = out_dir().join(format!("{}.trace.json", args.workload));
        write_json(&path, &traced.json)?;
    }

    let mut doc = vec![
        ("workload", Json::str(&args.workload)),
        ("seed", Json::UInt(args.seed)),
        ("seconds", Json::UInt(args.seconds)),
        (
            "host",
            Json::object([
                ("cpu_model", Json::str(&host.cpu_model)),
                ("cpu_cores", Json::UInt(host.cpu_cores)),
                ("rustc", Json::str(&host.rustc)),
            ]),
        ),
        ("warmup_passes", Json::UInt(out.warmup as u64)),
        ("timed_passes", Json::UInt(timed as u64)),
        ("sim_digest", Json::str(format!("{:016x}", out.digest))),
        ("attempted", Json::UInt(t.attempted)),
        ("failed", Json::UInt(t.failed)),
        (
            "failures",
            Json::Array(t.messages.iter().map(Json::str).collect()),
        ),
        ("metrics", Json::Object(metrics)),
        (
            "laps_ns",
            Json::object([
                ("setup", laps_json(&out.timed.setup)),
                ("sim", laps_json(&out.timed.sim)),
            ]),
        ),
    ];
    if let Some(traced) = &out.traced {
        doc.push(("traced_pass_s", Json::Float(traced.pass_s)));
        doc.push(("telescope", Json::Float(traced.telescope)));
        doc.push(("per_layer", Json::Object(per_layer)));
    }
    write_json(
        &out_dir().join(format!("{}.json", args.workload)),
        &Json::object(doc),
    )?;

    let fields: Vec<String> = line
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        t.failed == 0,
        t.attempted.max(1),
        t.failed,
        fields.join(", ")
    );
    Ok(())
}

fn run(argv: &[String]) -> Result<(), String> {
    let args = parse_args(argv)?;
    let spec = parse_spec(include_str!("../../BENCHMARK.json"))?;
    if !spec.workloads.contains(&args.workload) {
        return Err(format!(
            "unknown workload {}; BENCHMARK.json lists {:?}",
            args.workload, spec.workloads
        ));
    }
    let outcome = match args.workload.as_str() {
        "fig12-golden" => drive(&sim::SimGrid::fig12()?, &args),
        "fig16-hybrid" => drive(&sim::SimGrid::fig16()?, &args),
        "ctrl-replay" => drive(&ctrl::CtrlReplay { len: 16384 }, &args),
        "cache-replay" => drive(&cache::CacheReplay::new()?, &args),
        other => {
            return Err(format!(
                "BENCHMARK.json lists {other}, which sam-perf does not run"
            ))
        }
    };
    report(&spec, &args, outcome)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&argv) {
        eprintln!("sam-perf: {e}\n{USAGE}");
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| (*a).to_string()).collect()
    }

    #[test]
    fn arguments_parse_with_defaults_and_reject_mistakes() {
        let a = parse_args(&argv(&[
            "--workload",
            "ctrl-replay",
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "ctrl-replay".into(),
                seed: 3,
                seconds: 2,
                trace: true,
            }
        );
        let d = parse_args(&argv(&["--workload", "fig12-golden"])).unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (GOLDEN_SEED, 20, false));
        for bad in [
            &[][..],
            &["--seed", "1"],
            &["--workload"],
            &["--workload", "x", "--trace", "2"],
            &["--workload", "x", "--seed", "-1"],
            &["--workload", "x", "--jobs", "2"],
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn spec_lists_the_workloads_this_binary_runs() {
        let spec = parse_spec(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(
            spec.workloads,
            [
                "fig12-golden",
                "fig16-hybrid",
                "ctrl-replay",
                "cache-replay"
            ]
        );
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.per_layer.len() <= 128);
        for bad in [
            "",
            "{}",
            "{\"workloads\": [{}], \"end_to_end\": [], \"per_layer\": []}",
        ] {
            assert!(parse_spec(bad).is_err(), "accepted {bad:?}");
        }
    }

    /// Every per-layer metric of `BENCHMARK.json` comes out of some
    /// workload's traced pass, and every traced pass telescopes.
    #[test]
    fn traced_tiny_passes_cover_every_per_layer_metric() {
        fn layers<W: Workload>(w: &W) -> Layers {
            let (_, traced) = trace_pass(w, 7, 1.0, "tiny");
            assert!(
                (0.95..=1.05).contains(&traced.telescope),
                "self times cover {} of the pass",
                traced.telescope
            );
            traced.layers
        }
        let mut measured = BTreeSet::new();
        measured.extend(layers(&sim::SimGrid::tiny(sim::fig12_points())).into_keys());
        measured.extend(layers(&sim::SimGrid::tiny(sim::fig16_points())).into_keys());
        measured.extend(layers(&ctrl::CtrlReplay { len: 256 }).into_keys());
        measured.extend(layers(&cache::CacheReplay::tiny()).into_keys());
        let spec = parse_spec(include_str!("../../BENCHMARK.json")).unwrap();
        let missing: Vec<&str> = spec
            .per_layer
            .iter()
            .map(|m| m.name.as_str())
            .filter(|name| !measured.contains(*name))
            .collect();
        assert!(missing.is_empty(), "never measured: {missing:?}");
    }

    #[test]
    fn a_short_drive_checks_every_run_and_samples_every_pass() {
        let args = Args {
            workload: "ctrl-replay".into(),
            seed: 5,
            seconds: 0,
            trace: true,
        };
        let out = drive(&ctrl::CtrlReplay { len: 256 }, &args);
        assert_eq!(out.tally.failed, 0, "{:?}", out.tally.messages);
        // Two verified warm-up passes, the timed passes and the traced one.
        assert_eq!(out.tally.attempted, 40 * (2 + MIN_TIMED_PASSES as u64 + 1));
        assert_eq!(out.timed.wall_s.len(), MIN_TIMED_PASSES);
        let metrics = out.timed.end_to_end();
        assert!(metrics
            .iter()
            .all(|(_, value, samples)| *value > 0.0 && samples.len() == MIN_TIMED_PASSES));
        let (_, pass_s, walls) = &metrics[0];
        assert!(
            *pass_s <= stats::median(walls).unwrap(),
            "laps are the fastest seen"
        );
        assert!(out.traced.is_some());
    }
}
