//! Request admission: queue occupancy accessors, backpressure, and
//! `enqueue` (the controller's ingress edge).

use super::*;

impl Controller {
    /// Whether the write-drain hysteresis latch is currently set (writes
    /// being served in preference to reads).
    pub fn draining_writes(&self) -> bool {
        self.draining_writes
    }

    /// Forward-progress probe: the age at `now` of the oldest queued
    /// request across both queues, or `None` when idle. An external
    /// harness can assert this never exceeds the starvation cap plus a
    /// drain-window bound; the controller itself only enforces the cap
    /// *within* the queue selected by the drain latch, so the combined
    /// bound is a property of the whole scheduler, not of `select()`.
    /// Each queue's oldest request is its oldest group representative, so
    /// the probe costs O(groups), not a queue scan.
    pub fn oldest_pending_age(&self, now: Cycle) -> Option<Cycle> {
        let oldest = [self.readq.oldest_arrival(), self.writeq.oldest_arrival()]
            .into_iter()
            .flatten()
            .min()?;
        Some(now.saturating_sub(oldest))
    }

    /// Checks both queues' scheduler group index against the requests
    /// they hold (see [`sched::GroupQueue::audit`]). The index is updated
    /// incrementally at every enqueue and dequeue; this is how tests show
    /// it never drifts from the queue contents.
    ///
    /// # Errors
    ///
    /// The first inconsistency found, prefixed with the queue's name.
    pub fn audit_queues(&self) -> Result<(), String> {
        self.readq
            .audit(Pending::view)
            .map_err(|e| format!("read queue: {e}"))?;
        self.writeq
            .audit(Pending::view)
            .map_err(|e| format!("write queue: {e}"))
    }

    /// Whether a read (or write) can currently be accepted.
    pub fn can_accept(&self, is_write: bool) -> bool {
        if is_write {
            self.writeq.len() < self.cfg.write_queue_capacity
        } else {
            self.readq.len() < self.cfg.read_queue_capacity
        }
    }

    /// Enqueues `req` arriving at cycle `arrival`.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] if the corresponding queue is at capacity; the
    /// caller should schedule work and retry.
    pub fn enqueue(&mut self, req: MemRequest, arrival: Cycle) -> Result<(), QueueFull> {
        if !self.can_accept(req.is_write) {
            return Err(QueueFull {
                write_queue: req.is_write,
            });
        }
        let loc = self.mapper.decode(req.addr);
        let pending = Pending { req, loc, arrival };
        if req.is_write {
            self.writeq.push(pending.view(), pending);
        } else {
            self.readq.push(pending.view(), pending);
        }
        if self.trace.is_attached() {
            let (name, lane, depth) = if req.is_write {
                ("enq-write", track::WRITEQ, self.writeq.len())
            } else {
                ("enq-read", track::READQ, self.readq.len())
            };
            self.trace.emit(TraceEvent::instant(
                track::CTRL,
                Category::Ctrl,
                name,
                arrival,
                req.id,
            ));
            self.trace.emit(TraceEvent::counter(
                lane,
                Category::Ctrl,
                "depth",
                arrival,
                depth as u64,
            ));
        }
        Ok(())
    }
}
