//! Checked runs: one plan entry with the `sam-check` verification layer
//! attached.
//!
//! Every DRAM command the device accepts is shadowed by an independent
//! [`ProtocolOracle`] configured from the same device timing, and the
//! cache hierarchy is probed periodically for model invariants. A run on
//! the hybrid topology (`SystemConfig::hybrid` set) shadows **both** device
//! streams: the DDR4 front cache through the standard observer and the
//! backing store through the backing-observer hook, each against an oracle
//! configured from its own device. A clean [`CheckReport`] means the
//! design obeyed every JEDEC timing window and the cache never reached an
//! inconsistent state during that run.

use std::cell::RefCell;
use std::sync::{Arc, Mutex};

use sam::layout::Store;
use sam::system::Instrumentation;
use sam_cache::hierarchy::Hierarchy;
use sam_check::invariants::{check_hierarchy, CacheViolation};
use sam_check::oracle::{OracleConfig, ProtocolOracle};
use sam_check::Violation;
use sam_dram::device::DeviceConfig;
use sam_dram::observe::SharedObserver;

use crate::experiment::{Job, Outcome};

/// The verification outcome of one run.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Design name.
    pub design: String,
    /// Store layout the run used.
    pub store: Store,
    /// Commands the oracles shadowed (both levels on a hybrid run).
    pub commands: usize,
    /// Protocol violations (empty on a conforming run).
    pub violations: Vec<Violation>,
    /// Cache invariant violations (empty on a conforming run).
    pub cache_violations: Vec<CacheViolation>,
}

impl CheckReport {
    /// True when the run passed every check.
    pub fn clean(&self) -> bool {
        self.violations.is_empty() && self.cache_violations.is_empty()
    }

    /// Protocol plus cache violations: the run's `check_violations` metric.
    pub fn violation_count(&self) -> u64 {
        (self.violations.len() + self.cache_violations.len()) as u64
    }
}

/// Runs `job` with the protocol oracle(s) and the cache invariant probe
/// attached.
///
/// # Panics
///
/// If `job` drives no DRAM device: only experiments that simulate a
/// design accept `--checked`.
pub fn run_checked(job: &Job) -> (Outcome, CheckReport) {
    let (design, hybrid) = job
        .shadowed()
        .expect("--checked is accepted only by experiments that simulate a design");
    let oracle = |device: &DeviceConfig| {
        Arc::new(Mutex::new(ProtocolOracle::new(OracleConfig::from_device(
            device,
        ))))
    };
    let front = oracle(&if hybrid {
        DeviceConfig::ddr4_server()
    } else {
        design.device_config()
    });
    let back = hybrid.then(|| oracle(&design.device_config()));
    let cache_violations = RefCell::new(Vec::new());
    let outcome = {
        let mut probe = |h: &Hierarchy| {
            cache_violations.borrow_mut().extend(check_hierarchy(h));
        };
        job.run(&mut Instrumentation {
            observer: Some(front.clone()),
            backing_observer: back.clone().map(|b| -> SharedObserver { b }),
            cache_probe: Some(&mut probe),
            ..Default::default()
        })
    };
    let mut commands = 0;
    let mut violations = Vec::new();
    for oracle in std::iter::once(front).chain(back) {
        let oracle = Arc::try_unwrap(oracle)
            .expect("run finished, oracle is sole owner")
            .into_inner()
            .expect("oracle lock poisoned");
        commands += oracle.command_count();
        violations.extend(oracle.finish());
    }
    let store = match job {
        Job::Query { store, .. } => *store,
        _ => Store::Row,
    };
    let report = CheckReport {
        design: design.name.to_string(),
        store,
        commands,
        violations,
        cache_violations: cache_violations.into_inner(),
    };
    (outcome, report)
}

/// Prints the verification summary line plus up to ten violations per
/// dirty run; returns whether every run was clean.
pub fn summarize(reports: &[CheckReport]) -> bool {
    let commands: usize = reports.iter().map(|r| r.commands).sum();
    let dirty: Vec<_> = reports.iter().filter(|r| !r.clean()).collect();
    println!(
        "Verification: {} runs, {commands} DRAM commands shadowed, {} dirty",
        reports.len(),
        dirty.len()
    );
    for report in &dirty {
        println!("  {} ({:?}):", report.design, report.store);
        for v in report.violations.iter().take(10) {
            println!("    protocol: {v}");
        }
        for v in report.cache_violations.iter().take(10) {
            println!("    cache: {v}");
        }
    }
    dirty.is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Run;
    use sam::designs;
    use sam::system::SystemConfig;
    use sam_imdb::exec::Workload;
    use sam_imdb::plan::PlanConfig;
    use sam_imdb::query::Query;

    fn job(query: Query, system: SystemConfig) -> Job {
        let workload = Workload::new(query, PlanConfig::tiny()).with_system(system);
        Run::query("", workload, designs::sam_en(), Store::Row).job
    }

    #[test]
    fn tiny_checked_run_is_clean_counts_commands_and_matches_unchecked() {
        let job = job(Query::Q3, SystemConfig::default());
        let (outcome, report) = run_checked(&job);
        assert!(report.commands > 0);
        assert!(report.clean(), "{:#?}", report.violations);
        assert_eq!(report.violation_count(), 0);
        let plain = job.run(&mut Instrumentation::default());
        assert_eq!(outcome, plain);
    }

    /// A hybrid run gets both oracles without asking and stays clean.
    #[test]
    fn hybrid_run_shadows_both_device_streams() {
        let hybrid = SystemConfig {
            hybrid: Some(crate::fig16::point_configs()[0]),
            ..SystemConfig::default()
        };
        let (outcome, report) = run_checked(&job(Query::Q12, hybrid));
        assert!(report.clean(), "{:#?}", report.violations);
        let Outcome::Query(run) = outcome else {
            panic!("query job must finish as a query run");
        };
        let summary = run.result.hybrid.expect("hybrid run carries a summary");
        assert!(summary.back.acts > 0 && summary.front.acts > 0);
        assert!(report.commands as u64 > summary.front.acts + summary.back.acts);
    }
}
