//! What every workload provides to the driver, and the per-layer
//! counters several workloads share.

use std::collections::BTreeMap;
use std::time::Instant;

use sam_cache::set_assoc::CacheStats;
use sam_dram::device::DeviceStats;
use sam_memctrl::controller::ControllerStats;

use crate::probe::{Probe, Tracer};

/// The seed the figure goldens were recorded at (`PlanConfig`'s
/// default). The first warm-up pass always runs at it, so every run is
/// checked against the committed expectations whatever `--seed` says.
pub const GOLDEN_SEED: u64 = 0x5A11AD;

/// Per-layer metrics by name.
pub type Layers = BTreeMap<String, f64>;

/// One pass's results, as its workload measured them.
#[derive(Debug)]
pub struct Pass<T> {
    /// Simulated statistics of every run, in grid order.
    pub items: Vec<T>,
    /// Host ns of each set-up step (compiling a plan and placing its
    /// tables, or generating a stream), in order. With [`Self::sim_ns`]
    /// these are the pass's [`Laps`].
    pub setup_ns: Vec<u64>,
    /// Host ns of each run's simulation, in order.
    pub sim_ns: Vec<u64>,
    /// Simulated work: memory cycles, or hierarchy accesses.
    pub work: u64,
    /// Failures found by checks that need live simulator state, one per
    /// failing run.
    pub failures: Vec<String>,
    /// Per-layer counters only the pass itself can observe.
    pub layers: Layers,
}

impl<T> Pass<T> {
    pub fn new(capacity: usize) -> Self {
        Self {
            items: Vec::with_capacity(capacity),
            setup_ns: Vec::with_capacity(capacity),
            sim_ns: Vec::with_capacity(capacity),
            work: 0,
            failures: Vec::new(),
            layers: Layers::new(),
        }
    }
}

/// A benchmark workload: a fixed set of simulator runs per pass.
pub trait Workload {
    /// One run's simulated statistics; two passes at one seed must
    /// produce equal items.
    type Item: PartialEq + std::fmt::Debug;

    /// Passes before timing starts, at least 2: the first at
    /// [`GOLDEN_SEED`], the rest at the run's seed (the last is the timed
    /// passes' reference).
    fn warmup(&self) -> usize;

    /// Runs one pass. With `verify`, also runs the checks that need live
    /// state (reported in [`Pass::failures`]).
    fn pass<P: Probe>(&self, seed: u64, verify: bool, probe: &mut P) -> Pass<Self::Item>;

    /// Compares a pass at `seed` against the workload's reference: the
    /// committed goldens at [`GOLDEN_SEED`], or an independent reference
    /// run. Returns one message per mismatching run.
    fn check(&self, seed: u64, items: &[Self::Item]) -> Vec<String>;

    /// Per-layer metrics of a traced pass, beyond the generic span and
    /// call-site ones.
    fn layers(&self, pass: &Pass<Self::Item>, tracer: &Tracer) -> Layers;
}

/// Splits a pass into contiguous laps, so the laps of a pass add up to
/// (nearly all of) its wall time.
#[derive(Debug)]
pub struct Laps(Instant);

impl Laps {
    pub fn start() -> Self {
        Self(Instant::now())
    }

    /// ns since the previous lap ended.
    pub fn lap(&mut self) -> u64 {
        let now = Instant::now();
        let ns = (now - self.0).as_nanos() as u64;
        self.0 = now;
        ns
    }
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Hit rates and LLC counts of summed `(L1, L2, LLC)` statistics.
pub fn cache_counts(layers: &mut Layers, levels: &[CacheStats; 3]) {
    for (name, s) in ["l1", "l2", "llc"].iter().zip(levels) {
        layers.insert(
            format!("cache.{name}.hit_rate"),
            ratio(s.hits as f64, s.accesses() as f64),
        );
    }
    layers.insert(
        "cache.llc.sector_misses".into(),
        levels[2].sector_misses as f64,
    );
    layers.insert("cache.llc.writebacks".into(), levels[2].writebacks as f64);
}

/// Adds `b` into `a`, level by level.
pub fn add_cache(a: &mut [CacheStats; 3], b: [&CacheStats; 3]) {
    for (x, y) in a.iter_mut().zip(b) {
        x.hits += y.hits;
        x.sector_misses += y.sector_misses;
        x.line_misses += y.line_misses;
        x.writebacks += y.writebacks;
    }
}

/// Controller counters summed over a pass's runs.
#[derive(Debug, Default)]
pub struct CtrlTotals {
    pub stats: ControllerStats,
    /// Σ mean read latency × reads, for the read-weighted mean.
    pub read_latency_sum: f64,
    pub bus_busy: u64,
    pub cycles: u64,
}

impl CtrlTotals {
    pub fn add(&mut self, s: &ControllerStats, read_latency_mean: f64, bus_busy: u64, cycles: u64) {
        let t = &mut self.stats;
        t.row_hits += s.row_hits;
        t.row_misses += s.row_misses;
        t.row_conflicts += s.row_conflicts;
        t.reads_done += s.reads_done;
        t.writes_done += s.writes_done;
        t.total_latency += s.total_latency;
        t.refreshes += s.refreshes;
        t.starvation_forced += s.starvation_forced;
        self.read_latency_sum += read_latency_mean * s.reads_done as f64;
        self.bus_busy += bus_busy;
        self.cycles += cycles;
    }

    pub fn insert(&self, layers: &mut Layers) {
        let s = &self.stats;
        let served = s.row_hits + s.row_misses + s.row_conflicts;
        for (name, value) in [
            ("reads", s.reads_done as f64),
            ("writes", s.writes_done as f64),
            ("row_hit_rate", ratio(s.row_hits as f64, served as f64)),
            ("row_conflicts", s.row_conflicts as f64),
            ("starvation_forced", s.starvation_forced as f64),
            ("refreshes", s.refreshes as f64),
            (
                "read_latency_mean_cyc",
                ratio(self.read_latency_sum, s.reads_done as f64),
            ),
            (
                "bus_utilization",
                ratio(self.bus_busy as f64, self.cycles as f64),
            ),
        ] {
            layers.insert(format!("memctrl.{name}"), value);
        }
    }
}

/// Adds `b` into `a`, counter by counter.
pub fn add_device(a: &mut DeviceStats, b: &DeviceStats) {
    a.acts += b.acts;
    a.pres += b.pres;
    a.reads += b.reads;
    a.stride_reads += b.stride_reads;
    a.writes += b.writes;
    a.stride_writes += b.stride_writes;
    a.refreshes += b.refreshes;
    a.mode_switches += b.mode_switches;
}

/// Device command counts.
pub fn device_counts(layers: &mut Layers, d: &DeviceStats) {
    for (name, value) in [
        ("acts", d.acts),
        ("column_cmds", d.column_commands()),
        ("stride_reads", d.stride_reads),
        ("mode_switches", d.mode_switches),
        ("refreshes", d.refreshes),
    ] {
        layers.insert(format!("dram.{name}"), value as f64);
    }
}
