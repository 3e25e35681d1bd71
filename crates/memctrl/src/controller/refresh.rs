//! Refresh and wake bookkeeping: per-rank tREFI service, the stored
//! wheel entries, and the `next_wake`/`advance_to` event-core surface.

use super::*;

impl Controller {
    /// Issues due refreshes for every rank relative to `now`.
    pub(super) fn service_refresh(&mut self, now: Cycle) {
        if !self.cfg.refresh_enabled {
            return;
        }
        let refi = self.cfg.device.timing.refi;
        let rfc = self.cfg.device.timing.rfc;
        // Refresh is rank-level background work with no owning request.
        self.device.set_command_origin(None);
        for rank in 0..self.cfg.device.ranks {
            while self.next_refresh[rank] <= now {
                let cmd = Command::refresh(rank);
                let at = self.device.earliest_issue(&cmd, self.next_refresh[rank]);
                self.device
                    .issue(&cmd, at)
                    .expect("refresh issue follows earliest_issue");
                self.stats.refreshes += 1;
                self.trace.emit(TraceEvent::complete(
                    track::rank(rank),
                    Category::Ctrl,
                    "REF",
                    at,
                    rfc,
                    rank as u64,
                ));
                self.next_refresh[rank] += refi;
                // Re-arm this rank's wake entry at the new deadline.
                self.wheel
                    .push(self.next_refresh[rank], WakeSource::Refresh { rank });
            }
        }
    }

    /// The earliest cycle at which controller-side work can become
    /// actionable while the caller is otherwise idle: the minimum over
    /// the event-driven core's wake publishers (DESIGN.md §13) —
    ///
    /// * stored wheel entries (rank refresh deadlines),
    /// * the earliest queued arrival still in the future, and
    /// * the earliest bank timing gate still closed
    ///   ([`MemoryDevice::next_wake`]).
    ///
    /// The returned cycle may be `<= now` when a refresh is overdue (the
    /// caller should advance or schedule, which performs the catch-up).
    /// Superseded wheel entries — deadlines a catch-up already serviced —
    /// are discarded here, so the wheel is conservative: spurious wakes
    /// are possible, missed wakes are not.
    pub fn next_wake(&mut self, now: Cycle) -> Option<Cycle> {
        let refresh = loop {
            let head = self
                .wheel
                .peek()
                .map(|(at, &WakeSource::Refresh { rank })| (at, rank));
            match head {
                Some((at, rank)) => {
                    if at == self.next_refresh[rank] {
                        break Some(at);
                    }
                    self.wheel.pop();
                }
                None => break None,
            }
        };
        let arrival = self
            .readq
            .arrivals()
            .chain(self.writeq.arrivals())
            .filter(|&a| a > now)
            .min();
        let bank = self.device.next_wake(now);
        [refresh, arrival, bank].into_iter().flatten().min()
    }

    /// Event-driven idle jump: advances controller-side background work
    /// to `target` by consuming wheel wakes in deadline order. Each
    /// refresh wake is serviced at its *original* due cycle and re-arms
    /// itself one tREFI later, so a jump across many tREFI issues every
    /// intervening refresh exactly when a cycle-ticked simulation would
    /// have (jump-safety; pinned by the refresh catch-up tests).
    ///
    /// Safe to skip entirely: `execute` performs the same catch-up
    /// lazily before serving a request, so `advance_to` only moves
    /// *when* the background work is performed, never what is issued.
    pub fn advance_to(&mut self, target: Cycle) {
        loop {
            let head = self
                .wheel
                .peek()
                .map(|(at, &WakeSource::Refresh { rank })| (at, rank));
            match head {
                Some((at, rank)) if at <= target => {
                    self.wheel.pop();
                    // Entries whose deadline no longer matches were
                    // superseded by an earlier catch-up; drop them.
                    if at == self.next_refresh[rank] {
                        self.service_refresh(at);
                    }
                }
                _ => break,
            }
        }
    }
}
