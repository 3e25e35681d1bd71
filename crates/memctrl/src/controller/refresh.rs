//! Refresh bookkeeping: per-rank tREFI service and the `advance_to`
//! idle jump that walks the per-rank deadlines in order.

use super::*;

impl Controller {
    /// Issues due refreshes for every rank relative to `now`.
    pub(super) fn service_refresh(&mut self, now: Cycle) {
        if !self.cfg.refresh_enabled() {
            return;
        }
        let refi = self.cfg.device.timing.refi;
        let rfc = self.cfg.device.timing.rfc;
        for rank in 0..self.cfg.device.ranks {
            while self.next_refresh[rank] <= now {
                let cmd = Command::refresh(rank);
                let (at, _) = self
                    .issue(&cmd, self.next_refresh[rank])
                    .expect("REF always issuable");
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
            }
        }
    }

    /// Event-driven idle jump: advances controller-side background work
    /// to `target` by servicing the per-rank refresh deadlines
    /// (`next_refresh`) in deadline order, ranks in index order among
    /// ties. Each refresh is serviced at its *original* due cycle and
    /// re-arms its rank one tREFI later, so a jump across many tREFI
    /// issues every intervening refresh exactly when a cycle-ticked
    /// simulation would have (jump-safety; pinned by the refresh
    /// catch-up tests). Returns at once when refresh is disabled.
    ///
    /// Safe to skip entirely: `execute` performs the same catch-up
    /// lazily before serving a request, so `advance_to` only moves
    /// *when* the background work is performed, never what is issued.
    pub fn advance_to(&mut self, target: Cycle) {
        if !self.cfg.refresh_enabled() {
            return;
        }
        while let Some(due) = self.next_refresh.iter().copied().min() {
            if due > target {
                break;
            }
            self.service_refresh(due);
        }
    }
}
