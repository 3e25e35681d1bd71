//! Sequence-level differential test of the incremental FR-FCFS group
//! index. Random interleavings of `enqueue` and `schedule_one(now)` drive
//! a default controller, which decides through the index, and a
//! `reference_scheduler` controller, which scans the whole queue, in
//! lockstep. After every step both must agree on the step's outcome,
//! `stats()` and `per_core()`, and both controllers' queues must pass the
//! index audit: every queued request in exactly one group, each group's
//! representative its (arrival, seq) minimum, no empty groups, and group
//! sizes summing to the queue lengths.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use sam_dram::moderegs::IoMode;
use sam_dram::Cycle;
use sam_memctrl::controller::{Controller, ControllerConfig};
use sam_memctrl::mapping::Location;
use sam_memctrl::request::{MemRequest, Provenance, ReqKind, StrideSpec};

/// How much of each shape the index must survive one run reached.
#[derive(Debug, Default, Clone, Copy)]
struct Coverage {
    /// Most distinct (rank, bank group, bank, row, mode) groups queued at
    /// once.
    max_groups: usize,
    /// Admissions sharing their arrival cycle with an earlier admission.
    duplicate_arrivals: u64,
    /// Admissions arriving after the `now` they were enqueued at.
    future_arrivals: u64,
    /// Admissions arriving before an earlier admission did.
    stale_arrivals: u64,
    strides: u64,
    reads: u64,
    writes: u64,
    /// Write-drain windows that opened and closed again.
    drain_windows: u64,
    starved: u64,
}

impl Coverage {
    fn merge(&mut self, o: &Coverage) {
        self.max_groups = self.max_groups.max(o.max_groups);
        self.duplicate_arrivals += o.duplicate_arrivals;
        self.future_arrivals += o.future_arrivals;
        self.stale_arrivals += o.stale_arrivals;
        self.strides += o.strides;
        self.reads += o.reads;
        self.writes += o.writes;
        self.drain_windows += o.drain_windows;
        self.starved += o.starved;
    }
}

/// A request's group as the test sees it: (rank, bank group, bank, row,
/// stride lane + 1, or 0 for a regular access).
type GroupKey = (u8, u8, u8, u32, u8);

/// Both controllers, plus the test's own record of what is queued.
#[derive(Debug)]
struct Lockstep {
    indexed: Controller,
    reference: Controller,
    queued: BTreeMap<u64, GroupKey>,
    arrivals: BTreeSet<Cycle>,
    latest: Cycle,
    draining: bool,
    cov: Coverage,
}

impl Lockstep {
    fn new(cap: Cycle) -> Self {
        let config = |reference_scheduler| ControllerConfig {
            starvation_cap: cap,
            reference_scheduler,
            ..ControllerConfig::default()
        };
        Self {
            indexed: Controller::new(config(false)),
            reference: Controller::new(config(true)),
            queued: BTreeMap::new(),
            arrivals: BTreeSet::new(),
            latest: 0,
            draining: false,
            cov: Coverage::default(),
        }
    }

    /// Offers request `id`, decoded from the bit fields of `bits`, to both
    /// controllers at `now`; they must agree on whether it is admitted.
    fn enqueue(&mut self, id: u64, bits: u64, rows: u64, now: Cycle) {
        let field = |shift: u32, modulo: u64| (bits >> shift) % modulo;
        let loc = Location {
            rank: field(3, 2) as u8,
            bank_group: field(4, 4) as u8,
            bank: field(6, 4) as u8,
            row: field(8, rows) as u32,
            col: field(20, 128) as u32,
            offset: (field(27, 4) * 16) as u8,
        };
        let addr = self.indexed.mapper().encode(&loc);
        let write = field(29, 2) == 1;
        let lane = field(30, 4) as u8;
        let stride = StrideSpec {
            gather: 4,
            mode: IoMode::Sx4(lane),
        };
        let req = match (field(32, 4), write) {
            (0, false) => MemRequest::stride_read(id, addr, stride),
            (0, true) => MemRequest::stride_write(id, addr, stride),
            (1, false) => MemRequest::narrow_read(id, addr),
            (1, true) => MemRequest::narrow_write(id, addr),
            (_, false) => MemRequest::read(id, addr),
            (_, true) => MemRequest::write(id, addr),
        };
        let kind = ReqKind::ALL[field(34, ReqKind::COUNT as u64) as usize];
        let req = req.with_provenance(Provenance::new(field(37, 4) as u8, kind));
        let arrival = match field(39, 4) {
            0 => now + 1 + field(41, 400),
            1 => now.saturating_sub(field(41, 64)),
            _ => now,
        };
        let admitted = self.indexed.enqueue(req, arrival);
        assert_eq!(
            admitted,
            self.reference.enqueue(req, arrival),
            "request {id}: admission"
        );
        if admitted.is_err() {
            return;
        }
        let cov = &mut self.cov;
        cov.future_arrivals += u64::from(arrival > now);
        cov.stale_arrivals += u64::from(arrival < self.latest);
        cov.duplicate_arrivals += u64::from(!self.arrivals.insert(arrival));
        cov.strides += u64::from(req.stride.is_some());
        if write {
            cov.writes += 1;
        } else {
            cov.reads += 1;
        }
        self.latest = self.latest.max(arrival);
        let mode = if req.stride.is_some() { lane + 1 } else { 0 };
        self.queued
            .insert(id, (loc.rank, loc.bank_group, loc.bank, loc.row, mode));
    }

    /// One decision on both controllers, which must complete the same
    /// request at the same cycles; returns its finish, or `None` once both
    /// are idle.
    fn schedule(&mut self, now: Cycle) -> Option<Cycle> {
        let done = self.indexed.schedule_one(now);
        assert_eq!(
            done,
            self.reference.schedule_one(now),
            "decision at cycle {now}"
        );
        let done = done?;
        self.queued.remove(&done.id);
        Some(done.finish)
    }

    /// After every step: everything both controllers expose agrees, and
    /// both controllers' indices pass their audit.
    fn check(&mut self, step: usize, now: Cycle) {
        let (a, b) = (&self.indexed, &self.reference);
        assert_eq!(a.stats(), b.stats(), "step {step}: stats");
        assert_eq!(a.per_core(), b.per_core(), "step {step}: per-core lanes");
        assert_eq!(a.draining_writes(), b.draining_writes(), "step {step}");
        assert_eq!(
            a.oldest_pending_age(now),
            b.oldest_pending_age(now),
            "step {step}: oldest pending age"
        );
        assert_eq!(a.queued(), self.queued.len(), "step {step}: queue length");
        for (name, c) in [("indexed", a), ("reference", b)] {
            if let Err(e) = c.audit_queues() {
                panic!("step {step}: {name} controller: {e}");
            }
        }
        let groups: BTreeSet<&GroupKey> = self.queued.values().collect();
        self.cov.max_groups = self.cov.max_groups.max(groups.len());
        if a.draining_writes() != self.draining {
            self.draining = a.draining_writes();
            self.cov.drain_windows += u64::from(!self.draining);
        }
        self.cov.starved = a.stats().starvation_forced;
    }
}

/// Replays `steps` on both controllers in lockstep, then drains them. The
/// low three bits of each step pick its action: five in eight offer a
/// request, the rest advance `now` by 0 to 297 cycles and make one
/// decision.
fn run(steps: &[u64], rows: u64, cap: Cycle) -> Coverage {
    let mut both = Lockstep::new(cap);
    let mut now: Cycle = 0;
    for (step, &bits) in steps.iter().enumerate() {
        if bits % 8 < 5 {
            both.enqueue(step as u64, bits, rows, now);
        } else {
            now += ((bits >> 3) % 4) * ((bits >> 5) % 100);
            both.schedule(now);
        }
        both.check(step, now);
    }
    let mut step = steps.len();
    while let Some(finish) = both.schedule(now) {
        now = now.max(finish);
        both.check(step, now);
        step += 1;
    }
    assert!(both.queued.is_empty(), "never completed: {:?}", both.queued);
    both.cov
}

/// Request sequences, rows per bank, and starvation caps. A few rows give
/// long same-row runs and deep groups; thousands make nearly every
/// request its own group. A cap of 0 is pure FCFS.
fn sequences() -> impl Strategy<Value = (Vec<u64>, u64, Cycle)> {
    (
        collection::vec(any::<u64>(), 1..600),
        prop_oneof![Just(2u64), Just(16), Just(4096)],
        prop_oneof![Just(4096u64), Just(300), Just(0)],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn indexed_scheduler_matches_the_reference_after_every_step(
        (steps, rows, cap) in sequences()
    ) {
        run(&steps, rows, cap);
    }
}

/// The generator must reach every shape the index has to survive, or the
/// differential test above would pass on easy inputs only.
#[test]
fn sequences_reach_every_required_shape() {
    let strategy = sequences();
    let mut rng = TestRng::deterministic("sequences_reach_every_required_shape");
    let mut cov = Coverage::default();
    for _ in 0..16 {
        let (steps, rows, cap) = strategy.generate(&mut rng);
        cov.merge(&run(&steps, rows, cap));
    }
    assert!(cov.max_groups > 48, "{cov:?}");
    assert!(cov.duplicate_arrivals > 0, "{cov:?}");
    assert!(cov.future_arrivals > 0, "{cov:?}");
    assert!(cov.stale_arrivals > 0, "{cov:?}");
    assert!(
        cov.strides > 0 && cov.reads > 0 && cov.writes > 0,
        "{cov:?}"
    );
    assert!(cov.drain_windows > 0, "{cov:?}");
    assert!(cov.starved > 0, "{cov:?}");
}
