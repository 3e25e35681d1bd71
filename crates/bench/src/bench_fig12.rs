//! The fig12 throughput benchmark: simulated cycles per wall-clock second.
//!
//! `BENCH_fig12.json` (committed at the repo root) records the simulator's
//! speed *trajectory*: one entry per measurement, oldest first, each
//! tagged with the workload scale and job count it was taken at. The CI
//! bench step (`ci.sh`, via `sam-check bench-fig12`) re-measures the
//! golden-scale run, appends the result to `results/BENCH_fig12.json`
//! as an artifact, and fails if throughput regressed more than the gate
//! percentage against the last committed entry measured on the same host
//! (CPU model and core count; see [`baseline_for`]). With no such entry
//! the measurement is recorded and the gate is skipped.
//!
//! Wall-clock is measured by the *caller* (the shell step brackets the
//! fig12 run with timestamps) because measuring inside the binary would
//! exclude process startup and table rendering, which are real costs of
//! regenerating the figure. Simulated work is taken from the metrics
//! report fig12 already emits: the sum of every run's `cycles`. Golden
//! byte-identity pins that sum, so pre/post-change entries divide out to
//! a pure wall-clock ratio.
//!
//! The gate compares machine-local measurements against a committed
//! baseline, so it only compares entries from the same hardware;
//! `ci.sh` also honours `SAM_BENCH_GATE_PCT=off` for noisy runners.

use sam_util::json::Json;

/// The machine a measurement was taken on. Throughput numbers are only
/// comparable across comparable hardware, so each trajectory entry
/// records enough to judge that after the fact.
#[derive(Debug, Clone, PartialEq)]
pub struct HostMeta {
    /// CPU model string from `/proc/cpuinfo` ("unknown" off Linux).
    pub cpu_model: String,
    /// Logical cores available to the process.
    pub cpu_cores: u64,
    /// `rustc --version` of the toolchain that built the binary's peer
    /// tools ("unknown" when rustc is not on PATH).
    pub rustc: String,
}

impl HostMeta {
    /// Collects the running machine's metadata, with "unknown"
    /// fallbacks: a bench record on exotic hardware beats no record.
    #[must_use]
    pub fn collect() -> HostMeta {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let cpu_cores = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
        let rustc = std::process::Command::new("rustc")
            .arg("--version")
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map_or_else(
                || "unknown".to_string(),
                |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
            );
        HostMeta {
            cpu_model,
            cpu_cores,
            rustc,
        }
    }

    fn to_json(&self) -> Json {
        Json::object([
            ("cpu_model", Json::str(self.cpu_model.clone())),
            ("cpu_cores", Json::UInt(self.cpu_cores)),
            ("rustc", Json::str(self.rustc.clone())),
        ])
    }

    fn from_json(doc: &Json) -> Result<HostMeta, String> {
        let str_of = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("host missing string '{key}'"))
        };
        let cpu_cores = match doc.get("cpu_cores") {
            Some(&Json::UInt(v)) => v,
            _ => return Err("host missing uint 'cpu_cores'".into()),
        };
        Ok(HostMeta {
            cpu_model: str_of("cpu_model")?,
            cpu_cores,
            rustc: str_of("rustc")?,
        })
    }
}

/// One throughput measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Where the number came from (e.g. a commit id or "ci").
    pub label: String,
    /// `--jobs` the run used.
    pub jobs: u64,
    /// Workload scale, from the metrics report's `plan`.
    pub ta_records: u64,
    /// Workload scale, from the metrics report's `plan`.
    pub tb_records: u64,
    /// Caller-measured wall-clock for the whole fig12 run.
    pub wall_seconds: f64,
    /// Sum of `cycles` over every run in the metrics report.
    pub simulated_cycles: u64,
    /// Machine metadata, when the recorder collected it. Entries from
    /// before the field existed (or from minimal tooling) carry `None`
    /// and still parse.
    pub host: Option<HostMeta>,
}

impl BenchEntry {
    /// The headline number: simulated cycles per wall-clock second.
    pub fn cycles_per_sec(&self) -> f64 {
        self.simulated_cycles as f64 / self.wall_seconds
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("label", Json::str(self.label.clone())),
            ("jobs", Json::UInt(self.jobs)),
            ("ta_records", Json::UInt(self.ta_records)),
            ("tb_records", Json::UInt(self.tb_records)),
            ("wall_seconds", Json::Float(self.wall_seconds)),
            ("simulated_cycles", Json::UInt(self.simulated_cycles)),
            ("cycles_per_sec", Json::Float(self.cycles_per_sec())),
        ];
        if let Some(host) = &self.host {
            fields.push(("host", host.to_json()));
        }
        Json::object(fields)
    }

    fn from_json(doc: &Json) -> Result<BenchEntry, String> {
        let str_of = |key: &str| -> Result<String, String> {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("entry missing string '{key}'"))
        };
        let uint_of = |key: &str| -> Result<u64, String> {
            match doc.get(key) {
                Some(&Json::UInt(v)) => Ok(v),
                _ => Err(format!("entry missing uint '{key}'")),
            }
        };
        let float_of = |key: &str| -> Result<f64, String> {
            doc.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("entry missing number '{key}'"))
        };
        let host = match doc.get("host") {
            Some(h) => Some(HostMeta::from_json(h)?),
            None => None,
        };
        let entry = BenchEntry {
            label: str_of("label")?,
            jobs: uint_of("jobs")?,
            ta_records: uint_of("ta_records")?,
            tb_records: uint_of("tb_records")?,
            wall_seconds: float_of("wall_seconds")?,
            simulated_cycles: uint_of("simulated_cycles")?,
            host,
        };
        if !(entry.wall_seconds.is_finite() && entry.wall_seconds > 0.0) {
            return Err("entry wall_seconds must be a positive number".into());
        }
        Ok(entry)
    }
}

/// Extracts a [`BenchEntry`] from a fig12 metrics report (`plan` scale +
/// total simulated cycles) and a caller-measured wall clock.
///
/// # Errors
///
/// Rejects reports without a well-formed `plan`/`runs`, and nonsensical
/// measurements (zero cycles, non-positive wall-clock).
pub fn entry_from_metrics(
    metrics: &Json,
    label: &str,
    jobs: u64,
    wall_seconds: f64,
) -> Result<BenchEntry, String> {
    if !(wall_seconds.is_finite() && wall_seconds > 0.0) {
        return Err(format!("wall_seconds must be positive, got {wall_seconds}"));
    }
    let plan = metrics
        .get("plan")
        .ok_or_else(|| "metrics report has no 'plan'".to_string())?;
    let plan_uint = |key: &str| -> Result<u64, String> {
        match plan.get(key) {
            Some(&Json::UInt(v)) => Ok(v),
            _ => Err(format!("plan has no uint '{key}'")),
        }
    };
    let runs = metrics
        .get("runs")
        .and_then(Json::as_array)
        .ok_or_else(|| "metrics report has no 'runs' array".to_string())?;
    let mut simulated_cycles = 0u64;
    for (i, run) in runs.iter().enumerate() {
        match run.get("cycles") {
            Some(&Json::UInt(c)) => simulated_cycles += c,
            _ => return Err(format!("runs[{i}] has no uint 'cycles'")),
        }
    }
    if simulated_cycles == 0 {
        return Err("metrics report sums to zero simulated cycles".into());
    }
    Ok(BenchEntry {
        label: label.to_string(),
        jobs,
        ta_records: plan_uint("ta_records")?,
        tb_records: plan_uint("tb_records")?,
        wall_seconds,
        simulated_cycles,
        host: None,
    })
}

/// Parses the trajectory entries out of a `BENCH_fig12.json` document.
///
/// # Errors
///
/// Rejects documents that are not a `bench-fig12` report with at least
/// one well-formed entry.
pub fn parse_trajectory(doc: &Json) -> Result<Vec<BenchEntry>, String> {
    match doc.get("bin") {
        Some(Json::Str(s)) if s == "bench-fig12" => {}
        other => return Err(format!("'bin' must be \"bench-fig12\", got {other:?}")),
    }
    let entries = doc
        .get("entries")
        .and_then(Json::as_array)
        .ok_or_else(|| "missing 'entries' array".to_string())?;
    if entries.is_empty() {
        return Err("'entries' is empty".into());
    }
    entries
        .iter()
        .enumerate()
        .map(|(i, e)| BenchEntry::from_json(e).map_err(|err| format!("entries[{i}]: {err}")))
        .collect()
}

/// Renders a trajectory back to a `BENCH_fig12.json` document.
pub fn trajectory_to_json(entries: &[BenchEntry]) -> Json {
    Json::object([
        ("bin", Json::str("bench-fig12")),
        (
            "unit",
            Json::str("simulated DRAM cycles per wall-clock second"),
        ),
        (
            "entries",
            Json::Array(entries.iter().map(BenchEntry::to_json).collect()),
        ),
    ])
}

/// The baseline a measurement on `host` gates against: the last committed
/// entry recorded on the same CPU model with the same core count.
/// Throughput from other hardware says nothing about a regression here.
///
/// # Errors
///
/// When no entry matches, the error says why the gate cannot run.
pub fn baseline_for<'a>(
    committed: &'a [BenchEntry],
    host: &HostMeta,
) -> Result<&'a BenchEntry, String> {
    committed
        .iter()
        .rev()
        .find(|e| {
            e.host
                .as_ref()
                .is_some_and(|h| h.cpu_model == host.cpu_model && h.cpu_cores == host.cpu_cores)
        })
        .ok_or_else(|| {
            format!(
                "no committed entry was measured on this host ({} x{}); {} of {} entries \
                 record no host",
                host.cpu_model,
                host.cpu_cores,
                committed.iter().filter(|e| e.host.is_none()).count(),
                committed.len(),
            )
        })
}

/// The regression gate: `measured` must be within `gate_pct` percent of
/// the committed `baseline` throughput. Returns the human-readable
/// verdict line on success.
///
/// # Errors
///
/// The error is the failure message (measured throughput below the
/// floor), ready to print.
pub fn gate(baseline: &BenchEntry, measured: &BenchEntry, gate_pct: f64) -> Result<String, String> {
    let base_cps = baseline.cycles_per_sec();
    let cps = measured.cycles_per_sec();
    let floor = base_cps * (1.0 - gate_pct / 100.0);
    let ratio = cps / base_cps;
    if cps < floor {
        return Err(format!(
            "cycles/sec regression: measured {cps:.0} is {:.1}% of baseline '{}' ({base_cps:.0}); \
             gate allows no less than {floor:.0} (-{gate_pct}%)",
            ratio * 100.0,
            baseline.label,
        ));
    }
    Ok(format!(
        "bench-fig12: {cps:.0} cycles/sec ({:.1}% of baseline '{}' at {base_cps:.0}, gate -{gate_pct}%)",
        ratio * 100.0,
        baseline.label,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(cycles: &[u64]) -> Json {
        Json::object([
            ("bin", Json::str("fig12")),
            (
                "plan",
                Json::object([
                    ("ta_records", Json::UInt(2048)),
                    ("tb_records", Json::UInt(8192)),
                    ("seed", Json::UInt(1)),
                ]),
            ),
            (
                "runs",
                Json::Array(
                    cycles
                        .iter()
                        .map(|&c| Json::object([("cycles", Json::UInt(c))]))
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn entry_sums_cycles_and_divides_by_wall_clock() {
        let e = entry_from_metrics(&metrics(&[1000, 2000, 3000]), "here", 2, 3.0).unwrap();
        assert_eq!(e.simulated_cycles, 6000);
        assert_eq!(e.ta_records, 2048);
        assert!((e.cycles_per_sec() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn bad_measurements_are_rejected() {
        let m = metrics(&[100]);
        assert!(entry_from_metrics(&m, "x", 1, 0.0).is_err());
        assert!(entry_from_metrics(&m, "x", 1, f64::NAN).is_err());
        assert!(entry_from_metrics(&metrics(&[]), "x", 1, 1.0).is_err());
        assert!(entry_from_metrics(&Json::object([("bin", Json::Null)]), "x", 1, 1.0).is_err());
    }

    #[test]
    fn trajectory_roundtrips_through_json() {
        let entries = vec![
            entry_from_metrics(&metrics(&[500_000]), "pre", 2, 2.5).unwrap(),
            entry_from_metrics(&metrics(&[500_000]), "post", 2, 2.0).unwrap(),
        ];
        let doc = trajectory_to_json(&entries);
        let text = doc.to_string();
        let parsed = parse_trajectory(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, entries);
    }

    #[test]
    fn host_metadata_roundtrips_and_old_records_still_parse() {
        let mut with_host = entry_from_metrics(&metrics(&[500_000]), "ci", 2, 2.5).unwrap();
        with_host.host = Some(HostMeta {
            cpu_model: "Example CPU @ 3.0GHz".into(),
            cpu_cores: 16,
            rustc: "rustc 1.95.0".into(),
        });
        let bare = entry_from_metrics(&metrics(&[500_000]), "pre-host", 2, 2.0).unwrap();
        assert_eq!(bare.host, None);

        // A mixed trajectory — an old record without `host` next to a new
        // one with it — survives a JSON round trip intact.
        let entries = vec![bare, with_host.clone()];
        let text = trajectory_to_json(&entries).to_string();
        let parsed = parse_trajectory(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, entries);
        assert_eq!(parsed[1].host, with_host.host);

        // A present-but-broken host object is an error, not silently None.
        let mut doc = trajectory_to_json(&entries);
        let Json::Object(fields) = &mut doc else {
            unreachable!()
        };
        let Json::Array(list) = &mut fields.iter_mut().find(|(k, _)| k == "entries").unwrap().1
        else {
            unreachable!()
        };
        let Json::Object(entry_fields) = &mut list[1] else {
            unreachable!()
        };
        entry_fields.retain(|(k, _)| k != "host");
        entry_fields.push(("host".into(), Json::object([("cpu_model", Json::UInt(3))])));
        assert!(parse_trajectory(&doc).is_err());
    }

    #[test]
    fn collected_host_metadata_is_well_formed() {
        let host = HostMeta::collect();
        assert!(!host.cpu_model.is_empty());
        assert!(!host.rustc.is_empty());
        // Round-trips through its own JSON shape.
        assert_eq!(HostMeta::from_json(&host.to_json()).unwrap(), host);
    }

    #[test]
    fn trajectory_rejects_malformed_documents() {
        assert!(parse_trajectory(&Json::object([("bin", Json::str("fig12"))])).is_err());
        let empty = Json::object([
            ("bin", Json::str("bench-fig12")),
            ("entries", Json::Array(vec![])),
        ]);
        assert!(parse_trajectory(&empty).is_err());
    }

    fn on_host(label: &str, model: &str, cores: u64) -> BenchEntry {
        let mut e = entry_from_metrics(&metrics(&[1_000_000]), label, 2, 1.0).unwrap();
        e.host = Some(HostMeta {
            cpu_model: model.into(),
            cpu_cores: cores,
            rustc: "rustc 1.95.0".into(),
        });
        e
    }

    #[test]
    fn baseline_is_the_last_entry_from_the_same_host() {
        let here = on_host("here-new", "Example CPU", 2).host.unwrap();
        let committed = vec![
            on_host("here-old", "Example CPU", 2),
            on_host("here-new", "Example CPU", 2),
            on_host("bigger", "Example CPU", 16),
            on_host("other", "Other CPU", 2),
        ];
        assert_eq!(baseline_for(&committed, &here).unwrap().label, "here-new");
    }

    #[test]
    fn no_baseline_on_a_host_that_never_recorded_one() {
        let here = on_host("x", "Example CPU", 4).host.unwrap();
        let committed = vec![
            on_host("cores differ", "Example CPU", 2),
            on_host("model differs", "Other CPU", 4),
        ];
        let why = baseline_for(&committed, &here).unwrap_err();
        assert!(why.contains("Example CPU x4"), "{why}");
    }

    #[test]
    fn host_less_legacy_entries_never_serve_as_baseline() {
        let here = on_host("x", "Example CPU", 2).host.unwrap();
        let legacy = entry_from_metrics(&metrics(&[1_000_000]), "legacy", 2, 1.0).unwrap();
        let why = baseline_for(std::slice::from_ref(&legacy), &here).unwrap_err();
        assert!(why.contains("1 of 1 entries record no host"), "{why}");
        // A later matching entry is found past the legacy one.
        let committed = vec![on_host("match", "Example CPU", 2), legacy];
        assert_eq!(baseline_for(&committed, &here).unwrap().label, "match");
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let base = entry_from_metrics(&metrics(&[1_000_000]), "base", 2, 1.0).unwrap();
        // 8% slower: inside a 10% gate.
        let slower = entry_from_metrics(&metrics(&[1_000_000]), "ci", 2, 1.0 / 0.92).unwrap();
        assert!(gate(&base, &slower, 10.0).is_ok());
        // 20% slower: outside it.
        let slow = entry_from_metrics(&metrics(&[1_000_000]), "ci", 2, 1.25).unwrap();
        let err = gate(&base, &slow, 10.0).unwrap_err();
        assert!(err.contains("regression"), "{err}");
        // Faster is always fine.
        let fast = entry_from_metrics(&metrics(&[1_000_000]), "ci", 2, 0.5).unwrap();
        assert!(gate(&base, &fast, 10.0).is_ok());
    }
}
