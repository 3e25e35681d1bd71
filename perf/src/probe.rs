//! Host-time instrumentation of one pass, recorded from the benchmark's
//! own loops around its calls into the simulator's layers.
//!
//! Pass functions are generic over [`Probe`]. Untraced passes use
//! [`Off`], whose hooks compile to nothing; the traced pass uses
//! [`Tracer`], which records
//!
//! * a span around each per-run call (`imdb.compile`, `system.run`, one
//!   replayed stream, ...), nested under the pass's root span, and
//! * a count and total-time accumulator per [`Site`] for the calls made
//!   once per request (`access`, `enqueue`, `schedule_one`, `issue`, ...),
//!   which would drown the trace as individual spans.
//!
//! A span's self time is its duration minus its child spans and the
//! accumulated calls made directly inside it, so the self times of every
//! span plus every call total add up to the root span's duration.
//! Spans named `driver.*` are the benchmark's own loop; all others, and
//! all call sites, belong to a layer of the simulator.

use std::time::Instant;

use sam_util::json::Json;

/// A per-request call into a layer, timed into an accumulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    Access,
    FillLine,
    FillSector,
    MarkDirty,
    FlushDirty,
    Enqueue,
    ScheduleOne,
    AdvanceTo,
    Issue,
}

impl Site {
    pub const ALL: [Site; 9] = [
        Site::Access,
        Site::FillLine,
        Site::FillSector,
        Site::MarkDirty,
        Site::FlushDirty,
        Site::Enqueue,
        Site::ScheduleOne,
        Site::AdvanceTo,
        Site::Issue,
    ];

    /// `<layer>.<call>`, the prefix of the site's per-layer metrics.
    pub fn name(self) -> &'static str {
        match self {
            Site::Access => "cache.access",
            Site::FillLine => "cache.fill_line",
            Site::FillSector => "cache.fill_sector",
            Site::MarkDirty => "cache.mark_dirty",
            Site::FlushDirty => "cache.flush_dirty",
            Site::Enqueue => "memctrl.enqueue",
            Site::ScheduleOne => "memctrl.schedule_one",
            Site::AdvanceTo => "memctrl.advance_to",
            Site::Issue => "dram.issue",
        }
    }
}

/// Instrumentation hooks a pass calls around its layer calls.
pub trait Probe {
    /// Whether this probe records anything (a traced pass).
    const ON: bool;

    /// Runs `f` inside a span named `name`.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R;

    /// Runs one call into a layer, accumulating its time under `site`.
    fn call<R>(&mut self, site: Site, f: impl FnOnce() -> R) -> R;

    /// `(count, total ns)` accumulated under `site` so far.
    fn totals(&self, site: Site) -> (u64, u64);
}

/// The probe of untraced passes: records nothing.
#[derive(Debug)]
pub struct Off;

impl Probe for Off {
    const ON: bool = false;

    #[inline(always)]
    fn span<R>(&mut self, _name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        f(self)
    }

    #[inline(always)]
    fn call<R>(&mut self, _site: Site, f: impl FnOnce() -> R) -> R {
        f()
    }

    fn totals(&self, _site: Site) -> (u64, u64) {
        (0, 0)
    }
}

/// One recorded span; times are ns since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    covered_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn self_ns(&self) -> u64 {
        self.ns().saturating_sub(self.covered_ns)
    }

    fn is_driver(&self) -> bool {
        self.name.starts_with("driver.")
    }
}

/// One call site's accumulator.
#[derive(Debug, Clone, Default)]
pub struct Calls {
    pub count: u64,
    pub total_ns: u64,
    /// Every call's duration, kept only for `schedule_one` (the site
    /// whose tail the per-layer metrics report).
    pub samples: Vec<f64>,
}

/// The probe of the traced pass.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    calls: [Calls; Site::ALL.len()],
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            calls: Default::default(),
        }
    }
}

impl Probe for Tracer {
    const ON: bool = true;

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            covered_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        if let Some(parent) = self.spans[id].parent {
            self.spans[parent].covered_ns += end_ns - start_ns;
        }
        out
    }

    fn call<R>(&mut self, site: Site, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        let acc = &mut self.calls[site as usize];
        acc.count += 1;
        acc.total_ns += ns;
        if site == Site::ScheduleOne {
            acc.samples.push(ns as f64);
        }
        if let Some(&top) = self.open.last() {
            self.spans[top].covered_ns += ns;
        }
        out
    }

    fn totals(&self, site: Site) -> (u64, u64) {
        let acc = &self.calls[site as usize];
        (acc.count, acc.total_ns)
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn calls(&self, site: Site) -> &Calls {
        &self.calls[site as usize]
    }

    /// Durations in ns of the spans named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Self time of the benchmark's own loop.
    pub fn driver_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.is_driver())
            .map(Span::self_ns)
            .sum()
    }

    /// Self time of every layer: layer spans plus every call site.
    pub fn layer_ns(&self) -> u64 {
        let spans: u64 = self
            .spans
            .iter()
            .filter(|s| !s.is_driver())
            .map(Span::self_ns)
            .sum();
        spans + self.calls.iter().map(|c| c.total_ns).sum::<u64>()
    }

    /// Duration of the outermost spans (the traced pass).
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::ns)
            .sum()
    }

    /// The spans as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto), with the call-site accumulators alongside.
    pub fn to_json(&self, workload: &str) -> Json {
        let us = |ns: u64| Json::Float(ns as f64 / 1e3);
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = vec![("id", Json::UInt(id as u64))];
                if let Some(p) = s.parent {
                    args.push(("parent", Json::UInt(p as u64)));
                }
                args.push(("self_us", us(s.self_ns())));
                Json::object([
                    ("name", Json::str(s.name)),
                    ("ph", Json::str("X")),
                    ("ts", us(s.start_ns)),
                    ("dur", us(s.ns())),
                    ("pid", Json::UInt(1)),
                    ("tid", Json::UInt(1)),
                    ("args", Json::object(args)),
                ])
            })
            .collect();
        let calls = Site::ALL
            .iter()
            .map(|&site| {
                let c = self.calls(site);
                Json::object([
                    ("site", Json::str(site.name())),
                    ("count", Json::UInt(c.count)),
                    ("total_ns", Json::UInt(c.total_ns)),
                ])
            })
            .collect();
        Json::object([
            ("workload", Json::str(workload)),
            ("traceEvents", Json::Array(events)),
            ("calls", Json::Array(calls)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(ns: u64) {
        let t = Instant::now();
        while (t.elapsed().as_nanos() as u64) < ns {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_times_telescope_to_the_root() {
        let mut t = Tracer::default();
        t.span("driver.pass", |t| {
            spin(20_000);
            t.span("imdb.compile", |_| spin(50_000));
            t.span("driver.stream", |t| {
                for _ in 0..10 {
                    t.call(Site::ScheduleOne, || spin(2_000));
                }
                t.span("system.run", |t| t.call(Site::Access, || spin(10_000)));
            });
        });
        assert_eq!(t.driver_ns() + t.layer_ns(), t.root_ns());
        assert_eq!(t.calls(Site::ScheduleOne).count, 10);
        assert_eq!(t.calls(Site::ScheduleOne).samples.len(), 10);
        assert_eq!(t.totals(Site::Access).0, 1);
        let run = t.spans().iter().find(|s| s.name == "system.run").unwrap();
        assert!(run.self_ns() < run.ns(), "the access call is a child");
        assert!(t.layer_ns() >= 50_000 + 20_000 + 10_000);
        assert_eq!(t.durations("imdb.compile").len(), 1);
        let doc = t.to_json("w");
        assert_eq!(doc.get("traceEvents").unwrap().as_array().unwrap().len(), 4);
    }
}
