//! DRAM-as-cache hybrid topology: a DDR4 front end caching a slower,
//! larger backing substrate (DESIGN.md §16).
//!
//! [`DramCacheController`] is the first composite [`MemLevel`]: it owns
//! two inner [`Controller`]s — a DDR4 *front* acting as a direct-mapped
//! block cache, and a *back* controller driving the design's substrate
//! (the RC-NVM RRAM store in fig16) — and translates each external
//! request into a chain of inner requests:
//!
//! * **hit** — one front access at the block's cache frame. Tags live in
//!   DRAM alongside the data (Alloy-style tag-and-data: the burst that
//!   moves the data also carries the tag), so a hit costs exactly one
//!   front access.
//! * **miss** — a front *tag-probe* read of the set frame (the access
//!   that discovers the miss), then, under writeback with a dirty
//!   victim, victim extraction as two dependent steps — front reads of
//!   the victim frame, then back writes of the victim block carried as
//!   [`ReqKind::Writeback`] lanes owned by the victim's installing core
//!   (the substrate writeback cannot start before the victim data has
//!   been read out of the cache) — then the block fill (back reads
//!   charged to the installing core) and the install (front writes).
//!   The external request completes critical-line-first: when the back
//!   read covering its line finishes, while the remaining install
//!   traffic drains in the background.
//! * **writethrough** — hits write both levels (the back write is
//!   [`ReqKind::Writeback`] traffic); write misses bypass the cache
//!   entirely (write-no-allocate) and complete on the back write.
//!
//! Functional cache state (tags, dirty bits, owners) is host-side
//! metadata updated *eagerly* at admission, so the hit/miss/victim
//! decision sequence is a pure function of the admitted request stream —
//! that is the contract the [`MirrorModel`] checks: an independent,
//! timing-free reimplementation of the same policy whose decision stream
//! must match the cycle-level controller's exactly.

use std::collections::VecDeque;
use std::ops::Range;

use sam_dram::device::{DeviceConfig, DeviceStats};
use sam_dram::Cycle;
use sam_util::hist::Histogram;

use crate::controller::{Controller, ControllerConfig, QueueFull};
use crate::level::{LevelReport, MemLevel};
use crate::request::{Completion, MemRequest, Provenance, ReqKind};

/// Cache-line transfer unit within a block (one 64B burst).
pub const LINE_BYTES: u64 = 64;

/// Inner-request id space: the high bit marks ids minted by the hybrid
/// controller, so they can never collide with external ids from above.
const INNER_ID_BASE: u64 = 1 << 63;

/// What happens on writes (fig16's swept axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePolicy {
    /// Write-allocate; dirty blocks written back to the substrate on
    /// eviction.
    Writeback,
    /// Write-no-allocate; every write is propagated to the substrate
    /// immediately and blocks are never dirty.
    Writethrough,
}

impl WritePolicy {
    /// Stable label used in fig16 output and CLI-facing docs.
    pub fn label(self) -> &'static str {
        match self {
            WritePolicy::Writeback => "writeback",
            WritePolicy::Writethrough => "writethrough",
        }
    }
}

/// Geometry and policy of the DRAM cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HybridConfig {
    /// Cache-block size in bytes (power of two, multiple of 64).
    pub block_bytes: u64,
    /// Total cache capacity in bytes (multiple of `block_bytes`).
    pub capacity_bytes: u64,
    /// Write policy.
    pub policy: WritePolicy,
    /// External transactions admitted concurrently (backpressure bound).
    pub max_transactions: usize,
    /// Record the per-request [`HybridDecision`] stream (mirror-test
    /// hook; off in production runs so memory stays bounded).
    pub log_decisions: bool,
}

impl HybridConfig {
    /// A cache of `block_bytes` blocks under `policy` with the default
    /// 1 MiB capacity and a 32-transaction admission window.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` is not a power of two multiple of 64.
    pub fn new(block_bytes: u64, policy: WritePolicy) -> Self {
        let cfg = Self {
            block_bytes,
            capacity_bytes: 1 << 20,
            policy,
            max_transactions: 32,
            log_decisions: false,
        };
        cfg.validate();
        cfg
    }

    fn validate(&self) {
        assert!(
            self.block_bytes.is_power_of_two() && self.block_bytes >= LINE_BYTES,
            "block_bytes must be a power of two >= {LINE_BYTES}"
        );
        assert!(
            self.capacity_bytes >= self.block_bytes
                && self.capacity_bytes.is_multiple_of(self.block_bytes),
            "capacity must hold a whole number of blocks"
        );
        assert!(self.max_transactions > 0, "need at least one transaction");
    }

    /// Number of direct-mapped sets (frames).
    pub fn sets(&self) -> u64 {
        self.capacity_bytes / self.block_bytes
    }

    /// Lines per block.
    pub fn lines_per_block(&self) -> u64 {
        self.block_bytes / LINE_BYTES
    }
}

/// The functional outcome of one external request, in admission order.
/// This is the decision stream the [`MirrorModel`] reproduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HybridDecision {
    /// Block-aligned external address.
    pub block: u64,
    /// Whether the external request was a write.
    pub is_write: bool,
    /// Tag match in the frame.
    pub hit: bool,
    /// A dirty victim was evicted (writeback policy misses only).
    pub dirty_evict: bool,
    /// A write was propagated straight to the substrate (writethrough).
    pub wrote_through: bool,
}

/// End-of-run hybrid counters surfaced through [`MemLevel::report`] into
/// `RunResult` (fig16's per-point energy split needs the per-device
/// command counts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HybridSummary {
    /// External requests that hit the DRAM cache.
    pub hits: u64,
    /// External requests that missed.
    pub misses: u64,
    /// Block fills from the substrate (read-allocate misses).
    pub fills: u64,
    /// Dirty victim blocks written back to the substrate.
    pub dirty_evictions: u64,
    /// Writes propagated straight through to the substrate.
    pub writethroughs: u64,
    /// Front (DDR4 cache) device command counts.
    pub front: DeviceStats,
    /// Back (substrate) device command counts.
    pub back: DeviceStats,
}

impl HybridSummary {
    /// Hit fraction over all external requests (0.0 when none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Direct-mapped frame metadata (host-side; the in-DRAM tag copy is
/// modelled by the probe/access traffic, not stored twice).
#[derive(Debug, Clone, Copy)]
struct TagEntry {
    /// Block-aligned external base address cached in this frame.
    base: u64,
    dirty: bool,
    /// Core that installed (or last dirtied) the block; dirty-victim
    /// writeback traffic is attributed to it.
    owner: u8,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dest {
    Front,
    Back,
}

/// The most dependent steps a transaction has: the tag probe, the dirty
/// victim's front reads and back writes, the fill and the install.
const MAX_STEPS: usize = 5;

/// One external request in flight: its chain of inner requests, released
/// one step at a time, and the inner id whose completion surfaces the
/// external one.
#[derive(Debug)]
struct Txn {
    ext_id: u64,
    is_write: bool,
    arrival: Cycle,
    /// Every inner request of the chain in minting order, step after
    /// step, in one allocation.
    reqs: Vec<(Dest, MemRequest)>,
    /// End offset in `reqs` of each of the first `steps` steps.
    step_ends: [usize; MAX_STEPS],
    steps: usize,
    /// Steps released so far.
    released: usize,
    outstanding: usize,
    /// Latest inner-completion finish seen so far; the next step's
    /// arrival anchor, so a step never starts before every request of
    /// the step it depends on has finished (completions may be
    /// processed out of timestamp order across the two inner
    /// controllers).
    step_finish: Cycle,
    terminal_id: u64,
    external_done: bool,
}

impl Txn {
    /// Closes the step made of the requests pushed since the last one.
    fn end_step(&mut self) {
        self.step_ends[self.steps] = self.reqs.len();
        self.steps += 1;
    }

    /// Releases the next step: its requests become the outstanding ones.
    /// `None` once every step has been released.
    fn release_next(&mut self) -> Option<&[(Dest, MemRequest)]> {
        if self.released == self.steps {
            return None;
        }
        let start = match self.released {
            0 => 0,
            k => self.step_ends[k - 1],
        };
        let end = self.step_ends[self.released];
        self.released += 1;
        self.outstanding = end - start;
        Some(&self.reqs[start..end])
    }
}

/// The open transactions in admission order, each with the span of inner
/// ids it owns.
///
/// Every inner id is minted inside `DramCacheController::admit`, so a
/// transaction owns one contiguous span `first_id..end_id` and the spans
/// ascend in admission order. An inner completion's owner is therefore
/// the last entry whose span starts at or below its id: one binary search
/// over the compact run of span starts, with no map entry per inner
/// request. A retired transaction leaves a tombstone so positions stay
/// put while later transactions retire out of order; tombstones are
/// popped once they reach the front.
#[derive(Debug, Default)]
struct TxnTable {
    /// First inner id of each entry's span, ascending.
    starts: VecDeque<u64>,
    /// Each entry's transaction; `None` once it has retired.
    slots: VecDeque<Option<Txn>>,
    /// End of the newest span (exclusive).
    end: u64,
}

impl TxnTable {
    /// Appends a transaction owning `span`, which must start at or after
    /// every earlier span's end.
    fn push(&mut self, span: Range<u64>, txn: Txn) {
        debug_assert!(
            self.end <= span.start && span.start < span.end,
            "spans must be non-empty and ascend in admission order"
        );
        self.starts.push_back(span.start);
        self.slots.push_back(Some(txn));
        self.end = span.end;
    }

    /// The position of the open transaction whose span holds `inner_id`.
    fn position(&self, inner_id: u64) -> Option<usize> {
        if inner_id >= self.end {
            return None;
        }
        let pos = self
            .starts
            .partition_point(|&s| s <= inner_id)
            .checked_sub(1)?;
        self.slots[pos].is_some().then_some(pos)
    }

    fn get_mut(&mut self, pos: usize) -> &mut Txn {
        self.slots[pos]
            .as_mut()
            .expect("position of an open transaction")
    }

    /// Turns the transaction at `pos` into a tombstone, then pops the
    /// tombstones at the front.
    fn retire(&mut self, pos: usize) {
        self.slots[pos] = None;
        while matches!(self.slots.front(), Some(None)) {
            self.slots.pop_front();
            self.starts.pop_front();
        }
    }
}

/// The unified DRAM-cache controller (see the module docs).
#[derive(Debug)]
pub struct DramCacheController {
    cfg: HybridConfig,
    front: Controller,
    back: Controller,
    tags: Vec<Option<TagEntry>>,
    txns: TxnTable,
    /// Inner requests admitted to a full inner queue retry from here, in
    /// issue order (order is part of the determinism contract).
    backlog: VecDeque<(Dest, MemRequest, Cycle)>,
    next_inner_id: u64,
    open_externals: usize,
    hits: u64,
    misses: u64,
    fills: u64,
    dirty_evictions: u64,
    writethroughs: u64,
    decisions: Vec<HybridDecision>,
    read_latency_hist: Histogram,
    write_latency_hist: Histogram,
}

impl DramCacheController {
    /// Builds the hybrid level: a DDR4-server front cache over a backing
    /// controller configured by `back_cfg` (the design's device plus any
    /// scheduler-knob overrides, which apply to the substrate side).
    pub fn new(back_cfg: ControllerConfig, cfg: HybridConfig) -> Self {
        cfg.validate();
        Self {
            cfg,
            front: Controller::new(ControllerConfig::with_device(DeviceConfig::ddr4_server())),
            back: Controller::new(back_cfg),
            tags: vec![None; cfg.sets() as usize],
            txns: TxnTable::default(),
            backlog: VecDeque::new(),
            next_inner_id: INNER_ID_BASE,
            open_externals: 0,
            hits: 0,
            misses: 0,
            fills: 0,
            dirty_evictions: 0,
            writethroughs: 0,
            decisions: Vec::new(),
            read_latency_hist: Histogram::new(),
            write_latency_hist: Histogram::new(),
        }
    }

    /// The configured geometry and policy.
    pub fn hybrid_config(&self) -> &HybridConfig {
        &self.cfg
    }

    /// The recorded decision stream (empty unless
    /// [`HybridConfig::log_decisions`] is set).
    pub fn decisions(&self) -> &[HybridDecision] {
        &self.decisions
    }

    /// End-of-run counters (also part of the trait's
    /// [`MemLevel::report`]).
    pub fn summary(&self) -> HybridSummary {
        HybridSummary {
            hits: self.hits,
            misses: self.misses,
            fills: self.fills,
            dirty_evictions: self.dirty_evictions,
            writethroughs: self.writethroughs,
            front: *self.front.device_stats(),
            back: *self.back.device_stats(),
        }
    }

    /// Mints the next inner id. Only `admit` calls this, so each
    /// transaction's ids form one contiguous span ([`TxnTable`]).
    fn fresh_inner_id(&mut self) -> u64 {
        self.next_inner_id += 1;
        self.next_inner_id
    }

    fn block_base(&self, addr: u64) -> u64 {
        addr & !(self.cfg.block_bytes - 1)
    }

    fn set_of(&self, block: u64) -> usize {
        ((block / self.cfg.block_bytes) % self.cfg.sets()) as usize
    }

    /// The front-DRAM address of this set's cache frame.
    fn frame_base(&self, set: usize) -> u64 {
        set as u64 * self.cfg.block_bytes
    }

    /// Admits one external request: decides hit/miss against the
    /// host-side tags (eagerly, so the decision stream is functional),
    /// builds the inner request chain, and releases its first step.
    fn admit(&mut self, ext: MemRequest, arrival: Cycle) {
        let block = self.block_base(ext.addr);
        let set = self.set_of(block);
        let frame = self.frame_base(set);
        let in_frame = frame + (ext.addr - block);
        let lines = self.cfg.lines_per_block();
        let critical_line = (ext.addr - block) / LINE_BYTES;
        let first_id = self.next_inner_id + 1;

        let entry = self.tags[set];
        let hit = matches!(entry, Some(e) if e.base == block);
        let mut dirty_evict = false;
        let mut wrote_through = false;
        let mut txn = Txn {
            ext_id: ext.id,
            is_write: ext.is_write,
            arrival,
            // A hit has at most two requests; a miss at most the probe
            // and four steps of `lines` each.
            reqs: Vec::with_capacity(if hit { 2 } else { 1 + 4 * lines as usize }),
            step_ends: [0; MAX_STEPS],
            steps: 0,
            released: 0,
            outstanding: 0,
            step_finish: arrival,
            terminal_id: 0,
            external_done: false,
        };

        if hit {
            self.hits += 1;
            let id = self.fresh_inner_id();
            txn.terminal_id = id;
            txn.reqs.push((
                Dest::Front,
                MemRequest {
                    id,
                    addr: in_frame,
                    ..ext
                },
            ));
            if ext.is_write {
                match self.cfg.policy {
                    WritePolicy::Writeback => {
                        let e = self.tags[set].as_mut().expect("hit implies an entry");
                        e.dirty = true;
                        e.owner = ext.prov.core;
                    }
                    WritePolicy::Writethrough => {
                        wrote_through = true;
                        self.writethroughs += 1;
                        let tid = self.fresh_inner_id();
                        txn.reqs.push((
                            Dest::Back,
                            MemRequest {
                                id: tid,
                                prov: Provenance::new(ext.prov.core, ReqKind::Writeback),
                                ..ext
                            },
                        ));
                    }
                }
            }
            txn.end_step();
        } else {
            self.misses += 1;
            // The tag probe: the front access that discovers the miss.
            let probe_id = self.fresh_inner_id();
            txn.reqs.push((
                Dest::Front,
                MemRequest::read(probe_id, frame).with_provenance(ext.prov),
            ));
            txn.end_step();

            let allocate = !(ext.is_write && self.cfg.policy == WritePolicy::Writethrough);
            if allocate {
                // Dirty victim extraction (writeback policy only).
                if let Some(victim) = entry {
                    if victim.dirty {
                        dirty_evict = true;
                        self.dirty_evictions += 1;
                        let prov = Provenance::new(victim.owner, ReqKind::Writeback);
                        // Two dependent steps: the victim data must be
                        // read out of the cache before its substrate
                        // writeback can issue.
                        for i in 0..lines {
                            let rid = self.fresh_inner_id();
                            txn.reqs
                                .push((Dest::Front, MemRequest::read(rid, frame + i * LINE_BYTES)));
                        }
                        txn.end_step();
                        for i in 0..lines {
                            let wid = self.fresh_inner_id();
                            txn.reqs.push((
                                Dest::Back,
                                MemRequest::write(wid, victim.base + i * LINE_BYTES)
                                    .with_provenance(prov),
                            ));
                        }
                        txn.end_step();
                    }
                }
                // Fill: back reads charged to the installing core; the
                // external request completes critical-line-first.
                self.fills += 1;
                for i in 0..lines {
                    let rid = self.fresh_inner_id();
                    if i == critical_line {
                        txn.terminal_id = rid;
                    }
                    txn.reqs.push((
                        Dest::Back,
                        MemRequest::read(rid, block + i * LINE_BYTES).with_provenance(ext.prov),
                    ));
                }
                txn.end_step();
                // Install into the frame.
                for i in 0..lines {
                    let wid = self.fresh_inner_id();
                    txn.reqs.push((
                        Dest::Front,
                        MemRequest::write(wid, frame + i * LINE_BYTES).with_provenance(ext.prov),
                    ));
                }
                txn.end_step();
                self.tags[set] = Some(TagEntry {
                    base: block,
                    dirty: ext.is_write && self.cfg.policy == WritePolicy::Writeback,
                    owner: ext.prov.core,
                });
            } else {
                // Write-no-allocate: the store goes straight through.
                wrote_through = true;
                self.writethroughs += 1;
                let tid = self.fresh_inner_id();
                txn.terminal_id = tid;
                txn.reqs.push((
                    Dest::Back,
                    MemRequest {
                        id: tid,
                        prov: Provenance::new(ext.prov.core, ReqKind::Writeback),
                        ..ext
                    },
                ));
                txn.end_step();
            }
        }

        if self.cfg.log_decisions {
            self.decisions.push(HybridDecision {
                block,
                is_write: ext.is_write,
                hit,
                dirty_evict,
                wrote_through,
            });
        }

        let first = txn.release_next().expect("every chain has a step");
        self.backlog
            .extend(first.iter().map(|&(dest, req)| (dest, req, arrival)));
        self.open_externals += 1;
        self.txns.push(first_id..self.next_inner_id + 1, txn);
        self.pump();
    }

    /// Retries backlogged inner requests in order, stopping at the first
    /// full queue (order preservation is part of determinism).
    fn pump(&mut self) {
        while let Some((dest, req, when)) = self.backlog.front().copied() {
            let admitted = match dest {
                Dest::Front => self.front.enqueue(req, when).is_ok(),
                Dest::Back => self.back.enqueue(req, when).is_ok(),
            };
            if !admitted {
                break;
            }
            self.backlog.pop_front();
        }
    }

    /// Consumes one inner completion: advances its transaction's chain
    /// and surfaces the external completion when the terminal inner
    /// request finishes.
    fn on_inner_completion(&mut self, c: Completion) -> Option<Completion> {
        let pos = self
            .txns
            .position(c.id)
            .expect("inner completion must belong to a transaction");
        let txn = self.txns.get_mut(pos);
        txn.outstanding -= 1;
        txn.step_finish = txn.step_finish.max(c.finish);
        let mut external = None;
        if c.id == txn.terminal_id {
            txn.external_done = true;
            self.open_externals -= 1;
            let latency = c.finish.saturating_sub(txn.arrival);
            if txn.is_write {
                self.write_latency_hist.add(latency);
            } else {
                self.read_latency_hist.add(latency);
            }
            external = Some(Completion {
                id: txn.ext_id,
                issue: c.issue,
                finish: c.finish,
                row_hit: c.row_hit,
            });
        }
        if txn.outstanding == 0 {
            // Anchor to the step's *latest* finish, not this
            // completion's: the two may differ when inner
            // completions were consumed out of timestamp order.
            let release = txn.step_finish;
            if let Some(step) = txn.release_next() {
                self.backlog
                    .extend(step.iter().map(|&(dest, req)| (dest, req, release)));
                self.pump();
            } else {
                debug_assert!(txn.external_done, "chain ended before its terminal");
                self.txns.retire(pos);
            }
        }
        external
    }
}

impl MemLevel for DramCacheController {
    fn can_accept(&self, _is_write: bool) -> bool {
        self.open_externals < self.cfg.max_transactions
    }

    fn enqueue(&mut self, req: MemRequest, arrival: Cycle) -> Result<(), QueueFull> {
        if self.open_externals >= self.cfg.max_transactions {
            return Err(QueueFull {
                write_queue: req.is_write,
            });
        }
        self.admit(req, arrival);
        Ok(())
    }

    fn schedule_one(&mut self, now: Cycle) -> Option<Completion> {
        loop {
            self.pump();
            // Serve whichever inner controller is further behind in
            // time, so inner completions are consumed in (approximate)
            // timestamp order; always draining one side first would let
            // a far-ahead front starve the back's earlier completions
            // and skew chained-step anchoring in composite runs.
            let front_first = self.front.clock() <= self.back.clock();
            let inner = if front_first {
                self.front
                    .schedule_one(now.max(self.front.clock()))
                    .or_else(|| self.back.schedule_one(now.max(self.back.clock())))
            } else {
                self.back
                    .schedule_one(now.max(self.back.clock()))
                    .or_else(|| self.front.schedule_one(now.max(self.front.clock())))
            }?;
            if let Some(ext) = self.on_inner_completion(inner) {
                return Some(ext);
            }
        }
    }

    fn clock(&self) -> Cycle {
        self.front.clock().max(self.back.clock())
    }

    fn queued(&self) -> usize {
        self.front.queued() + self.back.queued() + self.backlog.len()
    }

    fn advance_to(&mut self, target: Cycle) {
        self.front.advance_to(target);
        self.back.advance_to(target);
    }

    fn report(&self) -> LevelReport {
        let mut ctrl = *self.front.stats();
        ctrl.accumulate(self.back.stats());
        let mut per_core = self.front.per_core().clone();
        per_core.accumulate(self.back.per_core());
        let mut device = *self.front.device_stats();
        device.accumulate(self.back.device_stats());
        LevelReport {
            ctrl,
            per_core,
            device,
            // The CPU-facing data bus is the front channel.
            bus_busy: self.front.device().channel().busy_cycles,
            read_latency: self.read_latency_hist.clone(),
            write_latency: self.write_latency_hist.clone(),
            hybrid: Some(self.summary()),
        }
    }

    fn attach_trace(&mut self, recorder: sam_trace::SharedRecorder) {
        // One clock domain per recorder: the CPU-facing controller only.
        self.front.attach_trace(recorder);
    }

    fn finish_epochs(&mut self, now: Cycle) {
        self.front.finish_epochs(now);
    }

    fn attach_observer(&mut self, observer: sam_dram::observe::SharedObserver) {
        self.front.attach_observer(observer);
    }

    fn attach_backing_observer(&mut self, observer: sam_dram::observe::SharedObserver) {
        self.back.attach_observer(observer);
    }
}

/// The pure functional reference model: same direct-mapped tag/dirty
/// policy as [`DramCacheController`], no timing, implemented
/// independently so a divergence means a real policy bug rather than a
/// shared one.
#[derive(Debug, Clone)]
pub struct MirrorModel {
    block_bytes: u64,
    sets: u64,
    policy: WritePolicy,
    /// `(block_base, dirty)` per frame.
    frames: Vec<Option<(u64, bool)>>,
    /// Counter mirror of [`HybridSummary`]'s decision-derived fields.
    pub hits: u64,
    /// External requests that missed.
    pub misses: u64,
    /// Block fills (allocating misses).
    pub fills: u64,
    /// Dirty victims evicted.
    pub dirty_evictions: u64,
    /// Writes propagated to the substrate.
    pub writethroughs: u64,
}

impl MirrorModel {
    /// A fresh (all-invalid) mirror of `cfg`'s cache.
    pub fn new(cfg: &HybridConfig) -> Self {
        Self {
            block_bytes: cfg.block_bytes,
            sets: cfg.sets(),
            policy: cfg.policy,
            frames: vec![None; cfg.sets() as usize],
            hits: 0,
            misses: 0,
            fills: 0,
            dirty_evictions: 0,
            writethroughs: 0,
        }
    }

    /// Applies one external access and returns the functional decision.
    pub fn access(&mut self, addr: u64, is_write: bool) -> HybridDecision {
        let block = addr & !(self.block_bytes - 1);
        let set = ((block / self.block_bytes) % self.sets) as usize;
        let frame = self.frames[set];
        let hit = matches!(frame, Some((base, _)) if base == block);
        let mut dirty_evict = false;
        let mut wrote_through = false;
        if hit {
            self.hits += 1;
            if is_write {
                match self.policy {
                    WritePolicy::Writeback => {
                        self.frames[set] = Some((block, true));
                    }
                    WritePolicy::Writethrough => {
                        wrote_through = true;
                        self.writethroughs += 1;
                    }
                }
            }
        } else {
            self.misses += 1;
            if is_write && self.policy == WritePolicy::Writethrough {
                wrote_through = true;
                self.writethroughs += 1;
            } else {
                if let Some((_, dirty)) = frame {
                    if dirty {
                        dirty_evict = true;
                        self.dirty_evictions += 1;
                    }
                }
                self.fills += 1;
                self.frames[set] = Some((block, is_write && self.policy == WritePolicy::Writeback));
            }
        }
        HybridDecision {
            block,
            is_write,
            hit,
            dirty_evict,
            wrote_through,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ControllerStats;
    use proptest::prelude::*;

    fn hybrid(policy: WritePolicy, block_bytes: u64) -> DramCacheController {
        let mut cfg = HybridConfig::new(block_bytes, policy);
        // Few sets so aliasing (and thus victims) shows up fast.
        cfg.capacity_bytes = block_bytes * 8;
        cfg.log_decisions = true;
        DramCacheController::new(
            ControllerConfig::with_device(DeviceConfig::rram_server()),
            cfg,
        )
    }

    /// Drives a `(addr, is_write)` stream to full completion, spacing
    /// arrivals a few cycles apart, and returns the controller.
    fn drive(h: DramCacheController, stream: &[(u64, bool)]) -> DramCacheController {
        drive_completions(h, stream).0
    }

    /// [`drive`], also returning the external ids in completion order.
    /// Request `i` of the stream has external id `i + 1`.
    fn drive_completions(
        mut h: DramCacheController,
        stream: &[(u64, bool)],
    ) -> (DramCacheController, Vec<u64>) {
        let mut done = Vec::new();
        let mut at = 0;
        for (i, &(addr, w)) in stream.iter().enumerate() {
            let id = i as u64 + 1;
            let req = if w {
                MemRequest::write(id, addr)
            } else {
                MemRequest::read(id, addr)
            };
            while MemLevel::enqueue(&mut h, req, at).is_err() {
                let now = MemLevel::clock(&h);
                let c =
                    MemLevel::schedule_one(&mut h, now).expect("full window implies pending work");
                done.push(c.id);
            }
            at += 4;
        }
        loop {
            let now = MemLevel::clock(&h);
            match MemLevel::schedule_one(&mut h, now) {
                Some(c) => done.push(c.id),
                None => break,
            }
        }
        assert_eq!(MemLevel::queued(&h), 0, "drain must empty the level");
        assert!(h.txns.slots.is_empty(), "no transaction may be left open");
        (h, done)
    }

    #[test]
    fn miss_then_hit_same_block() {
        let h = drive(
            hybrid(WritePolicy::Writeback, 256),
            &[(0x40, false), (0x80, false)],
        );
        let s = h.summary();
        assert_eq!((s.misses, s.hits, s.fills), (1, 1, 1));
        assert_eq!(s.dirty_evictions, 0);
        // One probe + 4 fill reads + 4 installs + 1 hit access.
        assert_eq!(s.back.reads, 4);
        assert!(s.front.reads >= 2 && s.front.writes == 4);
    }

    #[test]
    fn dirty_victim_is_written_back_with_writeback_provenance() {
        let block = 256;
        let alias = block * 8; // same set, different tag
        let h = drive(
            hybrid(WritePolicy::Writeback, block),
            &[(0, true), (alias, false)],
        );
        let s = h.summary();
        assert_eq!(s.dirty_evictions, 1);
        // Victim extraction: 4 front reads + 4 back writes...
        assert_eq!(s.back.writes, 4);
        // ...attributed to the Writeback lane of the owning core.
        let lanes = MemLevel::report(&h).per_core;
        assert_eq!(lanes.lane(0, ReqKind::Writeback).writes_done, 4);
    }

    #[test]
    fn writethrough_never_dirties_and_propagates_writes() {
        let h = drive(
            hybrid(WritePolicy::Writethrough, 256),
            &[(0, false), (0, true), (4096, true)],
        );
        let s = h.summary();
        assert_eq!(s.dirty_evictions, 0);
        // Hit write propagates; miss write bypasses (no second fill).
        assert_eq!(s.writethroughs, 2);
        assert_eq!(s.fills, 1);
    }

    #[test]
    fn external_latency_histograms_cover_every_request() {
        let h = drive(
            hybrid(WritePolicy::Writeback, 128),
            &[(0, false), (64, true), (8192, false)],
        );
        let report = MemLevel::report(&h);
        assert_eq!(report.read_latency.count(), 2);
        assert_eq!(report.write_latency.count(), 1);
    }

    /// A level's report carries lanes that add up to its aggregate, on
    /// the hybrid (front and back merged) and on a flat DDR4 controller
    /// whose stream spans several refreshes, which no lane owns.
    #[test]
    fn lanes_telescope_to_summed_stats() {
        let stream = [(0, true), (2048, false), (0, false), (2048 * 8, true)];
        let h = drive(hybrid(WritePolicy::Writeback, 256), &stream);
        let mut flat = Controller::new(ControllerConfig::default());
        let refi = flat.config().device.timing.refi;
        for (i, &(addr, w)) in stream.iter().enumerate() {
            let id = i as u64 + 1;
            let req = if w {
                MemRequest::write(id, addr)
            } else {
                MemRequest::read(id, addr)
            };
            let prov = Provenance::new(i as u8, ReqKind::ALL[i % ReqKind::COUNT]);
            flat.enqueue(req.with_provenance(prov), i as u64 * refi)
                .unwrap();
        }
        assert_eq!(flat.drain(0).len(), stream.len());
        let flat = MemLevel::report(&flat);
        assert!(flat.ctrl.refreshes > 0, "the flat stream spans refreshes");
        for report in [MemLevel::report(&h), flat] {
            let lanes = &report.per_core;
            let agg = report.ctrl;
            assert_eq!(
                ControllerStats {
                    refreshes: agg.refreshes,
                    ..lanes.total()
                },
                agg
            );
            for core in 0..lanes.cores() as u8 {
                for kind in ReqKind::ALL {
                    assert_eq!(
                        lanes.lane(core, kind).refreshes,
                        0,
                        "no lane owns a refresh"
                    );
                }
            }
        }
    }

    /// Inner completions route to their transactions while spans of very
    /// different lengths interleave and retire out of admission order:
    /// with 512 B blocks a hit mints 1 inner id and a dirty-victim miss
    /// 1 + 4 x 8, and the full 32-transaction window stays open.
    #[test]
    fn interleaved_spans_route_every_inner_completion() {
        let block = 512;
        let h = hybrid(WritePolicy::Writeback, block);
        assert_eq!(h.hybrid_config().max_transactions, 32);
        // Three tags per set on the 8 sets: revisits hit, the rest miss,
        // and a miss evicts a dirty victim when a write reached its frame.
        let stream: Vec<(u64, bool)> = (0..600u64)
            .map(|i| {
                let set = (i * 5) % 8;
                let tag = (i * 7 / 3) % 3;
                let line = (i * 3) % 8;
                (
                    tag * block * 8 + set * block + line * LINE_BYTES,
                    i % 3 == 0,
                )
            })
            .collect();
        let (h, mut done) = drive_completions(h, &stream);
        let s = h.summary();
        assert!(s.hits > 0, "the mix must hit");
        assert!(s.misses > s.dirty_evictions, "the mix must miss clean");
        assert!(s.dirty_evictions > 0, "the mix must evict dirty victims");
        assert!(
            !done.is_sorted(),
            "externals must complete out of admission order"
        );
        let report = MemLevel::report(&h);
        let completed = report.read_latency.count() + report.write_latency.count();
        assert_eq!(completed, stream.len() as u64);
        done.sort_unstable();
        let expect: Vec<u64> = (1..=stream.len() as u64).collect();
        assert_eq!(done, expect, "every external completes exactly once");
    }

    /// Feeds `h` a completion of inner request `id`.
    fn complete_inner(h: &mut DramCacheController, id: u64) {
        let _ = h.on_inner_completion(Completion {
            id,
            issue: 0,
            finish: 0,
            row_hit: false,
        });
    }

    #[test]
    #[should_panic(expected = "inner completion must belong to a transaction")]
    fn completion_of_a_popped_inner_id_panics() {
        let mut h = drive(
            hybrid(WritePolicy::Writeback, 512),
            &[(0, false), (64, false)],
        );
        // The first inner id minted: its transaction retired long ago.
        complete_inner(&mut h, INNER_ID_BASE + 1);
    }

    #[test]
    #[should_panic(expected = "inner completion must belong to a transaction")]
    fn completion_of_a_tombstoned_inner_id_panics() {
        let mut h = hybrid(WritePolicy::Writeback, 512);
        // A clean miss (17 inner ids), then a hit on the block it just
        // allocated (1 id): the hit retires while the miss still installs.
        MemLevel::enqueue(&mut h, MemRequest::read(1, 0), 0).expect("an empty window admits");
        MemLevel::enqueue(&mut h, MemRequest::read(2, 64), 4).expect("the window has room");
        let hit_id = h.next_inner_id;
        loop {
            let now = MemLevel::clock(&h);
            if MemLevel::schedule_one(&mut h, now)
                .expect("work is pending")
                .id
                == 2
            {
                break;
            }
        }
        assert!(!h.txns.slots.is_empty(), "the miss must still be open");
        complete_inner(&mut h, hit_id);
    }

    #[test]
    #[should_panic(expected = "inner completion must belong to a transaction")]
    fn completion_of_an_unminted_inner_id_panics() {
        let mut h = hybrid(WritePolicy::Writeback, 512);
        MemLevel::enqueue(&mut h, MemRequest::read(1, 0), 0).expect("an empty window admits");
        let next = h.next_inner_id + 1;
        complete_inner(&mut h, next);
    }

    #[test]
    fn hybrid_level_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<DramCacheController>();
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let stream: Vec<(u64, bool)> = (0..200u64)
            .map(|i| (((i * 977) % 8192) & !7, i % 3 == 0))
            .collect();
        let a = drive(hybrid(WritePolicy::Writeback, 256), &stream);
        let b = drive(hybrid(WritePolicy::Writeback, 256), &stream);
        assert_eq!(a.summary(), b.summary());
        assert_eq!(a.decisions(), b.decisions());
        assert_eq!(MemLevel::clock(&a), MemLevel::clock(&b));
    }

    proptest! {
        /// The mirror contract: for any request stream, block size, and
        /// policy, the cycle-level controller's decision stream and
        /// derived counters are identical to the pure model's.
        #[test]
        fn mirror_decision_identity(
            stream in proptest::collection::vec((0u64..32768, any::<bool>()), 1..120),
            block_shift in 7u32..10,
            wb in any::<bool>(),
        ) {
            let policy = if wb { WritePolicy::Writeback } else { WritePolicy::Writethrough };
            let h = drive(hybrid(policy, 1 << block_shift), &stream);
            let mut mirror = MirrorModel::new(h.hybrid_config());
            let expect: Vec<HybridDecision> =
                stream.iter().map(|&(a, w)| mirror.access(a, w)).collect();
            prop_assert_eq!(h.decisions(), expect.as_slice());
            let s = h.summary();
            prop_assert_eq!(
                (s.hits, s.misses, s.fills, s.dirty_evictions, s.writethroughs),
                (mirror.hits, mirror.misses, mirror.fills,
                 mirror.dirty_evictions, mirror.writethroughs)
            );
        }
    }
}
