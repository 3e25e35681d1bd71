//! Scheduling and execution: FR-FCFS selection, the write-drain
//! latch, command execution against the device, and `drain`.

use super::*;

impl Controller {
    /// Issues `cmd` on the device at its earliest legal cycle not before
    /// `not_before` and, with a trace recorder attached, draws the
    /// accepted command on its bank lane. Returns `(at, done)` as
    /// [`MemoryDevice::issue_earliest`] does.
    pub(super) fn issue(
        &mut self,
        cmd: &Command,
        not_before: Cycle,
    ) -> Result<(Cycle, Cycle), DeviceError> {
        let (at, done) = self.device.issue_earliest(cmd, not_before)?;
        if self.trace.is_attached() {
            if let Some(ev) = sam_dram::lanes::span(cmd, at, &self.cfg.device.timing) {
                self.trace.emit(ev);
            }
        }
        Ok((at, done))
    }

    /// Applies one per-request count to the aggregate and to `prov`'s
    /// lane, so the lanes add up to the aggregate by construction.
    fn count(&mut self, prov: Provenance, f: impl Fn(&mut ControllerStats)) {
        f(&mut self.stats);
        f(self.lanes.lane_mut(prov));
    }

    /// Picks the FR-FCFS winner within one queue. The policy sees each
    /// request only as its [`sched::SchedView`] (arrival, location,
    /// required mode — never provenance), and the closures hand it
    /// read-only access to the device's bank timing state and per-rank
    /// I/O mode. By default the queue's persistent group index decides
    /// ([`sched::GroupQueue::select`]); the `reference_scheduler` knob runs
    /// the whole-queue scan ([`sched::select_reference`]) over the same
    /// queue in enqueue order instead.
    fn select(&self, write_queue: bool, now: Cycle) -> Option<sched::Pick> {
        let queue = if write_queue {
            &self.writeq
        } else {
            &self.readq
        };
        let device = &self.device;
        let est = |loc: Location, base: Cycle| {
            device.earliest_column_for_row(
                usize::from(loc.rank),
                usize::from(loc.bank_group),
                usize::from(loc.bank),
                u64::from(loc.row),
                base,
            )
        };
        let mode = |rank: usize| device.io_mode(rank);
        let cap = self.cfg.starvation_cap;
        let trtr = self.cfg.device.timing.rtr;
        if !self.cfg.reference_scheduler {
            return queue.select(now, cap, trtr, est, mode);
        }
        let order = queue.ordered();
        let views = order.iter().map(|&t| queue.get(t).view());
        let d = sched::select_reference(views, now, cap, trtr, est, mode)?;
        Some(sched::Pick {
            ticket: order[d.index],
            starved: d.starved,
        })
    }

    /// Executes the full command sequence for `p`, returning its completion.
    fn execute(&mut self, p: Pending) -> Completion {
        self.service_refresh(self.clock.max(p.arrival));
        // The queued location is compact; the device API takes full words.
        let loc = p.loc;
        let (rank, bank_group, bank) = (
            usize::from(loc.rank),
            usize::from(loc.bank_group),
            usize::from(loc.bank),
        );
        let (row, col) = (u64::from(loc.row), u64::from(loc.col));
        // Start from the request's own arrival: per-bank state machines and
        // the shared data bus already serialize where physics requires, so
        // a later-selected request's PRE/ACT may overlap earlier requests'
        // column phases (bank-level parallelism).
        let mut cursor = p.arrival;

        // I/O mode switch if needed (MRS; tRTR charged by the rank state).
        let want = p.req.required_mode();
        if self.device.io_mode(rank) != want {
            let mrs = Command::mrs(rank, want);
            (cursor, _) = self.issue(&mrs, cursor).expect("MRS always issuable");
        }

        // Row state handling (open-page policy): a conflict closes the
        // open row, and any miss opens the requested one.
        let open = self.device.open_row(rank, bank_group, bank);
        if open != Some(row) {
            if open.is_some() {
                let pre = Command::pre(rank, bank_group, bank);
                (cursor, _) = self.issue(&pre, cursor).expect("PRE on an open bank");
            }
            let act = Command::act(rank, bank_group, bank, row);
            (cursor, _) = self.issue(&act, cursor).expect("ACT on a precharged bank");
        }

        // The column access itself.
        let stride = p.req.stride.is_some();
        let col_cmd = match (p.req.narrow, p.req.is_write) {
            (true, false) => {
                Command::read_narrow(rank, bank_group, bank, row, col, p.req.sub_lane())
            }
            (true, true) => {
                Command::write_narrow(rank, bank_group, bank, row, col, p.req.sub_lane())
            }
            (false, true) => Command::write(rank, bank_group, bank, row, col, stride),
            (false, false) => Command::read(rank, bank_group, bank, row, col, stride),
        };
        let (at, finish) = self
            .issue(&col_cmd, cursor)
            .expect("column command on the open row in the required mode");
        self.clock = self.clock.max(at);

        // A completion earlier than its own arrival means the scheduler (or
        // device timing) produced an impossible ordering; fail loudly
        // instead of silently recording a zero-cycle latency that would
        // mask the bug and skew every latency statistic.
        debug_assert!(
            finish >= p.arrival,
            "request {} completed at {finish} before its arrival {}",
            p.req.id,
            p.arrival
        );
        let latency = finish
            .checked_sub(p.arrival)
            .expect("completion must not precede arrival");
        self.count(p.req.prov, |s| {
            match open {
                Some(r) if r == row => s.row_hits += 1,
                Some(_) => s.row_conflicts += 1,
                None => s.row_misses += 1,
            }
            if p.req.is_write {
                s.writes_done += 1;
            } else {
                s.reads_done += 1;
            }
            s.total_latency += latency;
        });
        if p.req.is_write {
            self.write_latency_hist.add(latency);
        } else {
            self.read_latency_hist.add(latency);
        }
        if self.trace.is_attached() {
            self.trace.emit(TraceEvent::complete(
                track::REQUESTS,
                Category::Ctrl,
                if p.req.is_write { "write" } else { "read" },
                at,
                finish.saturating_sub(at),
                p.req.id,
            ));
            // Same service span again on the issuing core's lane, named by
            // the lowering path so Perfetto shows where each core's cycles
            // go.
            self.trace.emit(TraceEvent::complete(
                track::core(p.req.prov.core),
                Category::Ctrl,
                p.req.prov.kind.label(),
                at,
                finish.saturating_sub(at),
                p.req.id,
            ));
        }
        self.note_epoch(finish);
        Completion {
            id: p.req.id,
            issue: at,
            finish,
            row_hit: open == Some(row),
        }
    }

    /// Schedules and fully executes one request, FR-FCFS order, honouring
    /// the write-drain watermarks. Returns `None` when both queues are empty.
    pub fn schedule_one(&mut self, now: Cycle) -> Option<Completion> {
        // Watermark policy.
        let was_draining = self.draining_writes;
        self.draining_writes = sched::drain_latch(
            was_draining,
            self.writeq.len(),
            self.cfg.write_high_watermark,
            self.cfg.write_low_watermark,
        );
        if self.draining_writes != was_draining {
            let ev = if self.draining_writes {
                TraceEvent::begin(track::CTRL, Category::Ctrl, "write-drain", now)
            } else {
                TraceEvent::end(track::CTRL, Category::Ctrl, "write-drain", now)
            };
            self.trace.emit(ev);
        }
        let serve_writes = sched::serve_writes(
            self.readq.is_empty(),
            self.writeq.is_empty(),
            self.draining_writes,
        );
        let pick = self.select(serve_writes, now)?;
        let pending = if serve_writes {
            self.writeq.remove(pick.ticket)
        } else {
            self.readq.remove(pick.ticket)
        };
        if pick.starved {
            self.count(pending.req.prov, |s| s.starvation_forced += 1);
            self.trace.emit(TraceEvent::instant(
                track::CTRL,
                Category::Ctrl,
                "starved",
                now,
                pending.req.id,
            ));
        }
        Some(self.execute(pending))
    }

    /// Schedules until both queues are empty, returning all completions in
    /// execution order.
    pub fn drain(&mut self, now: Cycle) -> Vec<Completion> {
        let mut done = Vec::with_capacity(self.queued());
        while let Some(c) = self.schedule_one(now.max(self.clock)) {
            done.push(c);
        }
        done
    }
}
