//! The FR-FCFS scheduling *policy*, isolated from the controller datapath.
//!
//! Everything in this module is deliberately blind to request identity: a
//! queued request is visible to the policy only as a [`SchedView`] — its
//! arrival cycle, decoded bank [`Location`], and required [`IoMode`] —
//! plus the enqueue sequence number [`GroupQueue`] gives it. The
//! invariant "provenance is payload, never policy" is structural here:
//! [`GroupQueue`] stores the controller's entries as an opaque generic
//! payload it never inspects, and [`select_reference`] takes only
//! [`SchedView`]s, so no code in this module can reach a provenance field.
//! Scheduling decisions therefore cannot depend on which core or lowering
//! path issued a request, which is what keeps per-core attribution
//! observational; `per_core_lanes.rs` and the `sam-check` controller
//! conformance suite pin that behaviour end to end.
//!
//! The policy has four parts:
//!
//! - [`GroupQueue`]: one controller queue together with its persistent
//!   FR-FCFS group index. A pushed request joins the group of queued
//!   requests with the same (rank, bank group, bank, row, mode), and each
//!   group keeps its representative — the member with the smallest
//!   (arrival, sequence number) — current as members come and go.
//! - [`GroupQueue::select`]: the FR-FCFS winner of the queue — earliest
//!   estimated column issue first (row hits sort first by construction),
//!   arrival and then enqueue order breaking ties, with the starvation
//!   cap overriding both — at one estimate per live group.
//! - [`select_reference`]: the whole-queue scan that is the spec
//!   [`GroupQueue::select`] is proven against.
//! - [`drain_latch`] and [`serve_writes`]: the write-drain hysteresis
//!   latch over the high/low watermarks, and which queue the next
//!   decision comes from.

use sam_dram::moderegs::IoMode;
use sam_dram::Cycle;
use sam_util::fxhash::FxHashMap;

use crate::mapping::Location;

/// The policy-visible projection of a queued request: *where* it goes and
/// *when* it arrived — never *who* issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedView {
    /// Cycle the request entered the queue.
    pub arrival: Cycle,
    /// Decoded device location.
    pub loc: Location,
    /// I/O mode the column access requires (stride accesses need a mode
    /// switch costing tRTR when the rank is in the other mode).
    pub mode: IoMode,
}

/// Outcome of one [`select_reference`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Index of the winning request within the scanned queue.
    pub index: usize,
    /// Whether the starvation cap forced this pick (the oldest request had
    /// waited more than the cap, bypassing first-ready preference).
    pub starved: bool,
}

/// Outcome of one [`GroupQueue::select`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pick {
    /// The winning request; [`GroupQueue::remove`] takes it out.
    pub ticket: Ticket,
    /// Whether the starvation cap forced this pick (see [`Decision`]).
    pub starved: bool,
}

/// A queued request's handle in a [`GroupQueue`]: its enqueue sequence
/// number, plus the storage slot that makes the lookup O(1). Slots are
/// reused once their request leaves; the sequence number is what
/// identifies the request, so a ticket kept past its removal is caught
/// instead of reaching whichever request took the slot over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket {
    seq: u64,
    slot: u32,
}

/// End of a member list.
const NIL: u32 = u32::MAX;

/// What makes two requests interchangeable to the estimate: same bank,
/// row, and required mode (`col` never enters the estimate). Packed into
/// one word, so filing a request hashes a single `u64`: the row in the
/// high 32 bits, then one byte each for bank, bank group, rank and the
/// mode's register bit (0..7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct GroupKey(u64);

impl GroupKey {
    fn of(v: &SchedView) -> Self {
        // `register_bit` asserts a stride lane below 4, so the seven modes
        // keep seven distinct codes.
        let mode = v.mode.register_bit();
        let loc = &v.loc;
        Self(
            u64::from(loc.row) << 32
                | u64::from(loc.bank) << 24
                | u64::from(loc.bank_group) << 16
                | u64::from(loc.rank) << 8
                | u64::from(mode),
        )
    }
}

/// One storage slot; `payload` is `None` while the slot is free.
#[derive(Debug, Clone)]
struct Entry<T> {
    seq: u64,
    arrival: Cycle,
    /// Index of this entry's group in `GroupQueue::groups`.
    group: u32,
    /// Next member of the same group in (arrival, seq) order, or [`NIL`].
    next: u32,
    payload: Option<T>,
}

/// One live group. Its members form a singly linked list sorted by
/// (arrival, seq), so the head is the representative.
#[derive(Debug, Clone, Copy)]
struct Group {
    /// The group key's location and mode with the representative's
    /// arrival: exactly what [`estimate`] reads.
    rep: SchedView,
    /// The representative's enqueue sequence number.
    rep_seq: u64,
    head: u32,
    tail: u32,
    len: u32,
    /// This group's position in `GroupQueue::live`.
    pos: u32,
}

impl Group {
    fn rep_ticket(&self) -> Ticket {
        Ticket {
            seq: self.rep_seq,
            slot: self.head,
        }
    }
}

/// A controller queue with a persistent FR-FCFS group index.
///
/// Holds the controller's per-request payloads `T` without looking inside
/// them: the policy sees each request only as the [`SchedView`] given to
/// [`Self::push`]. Every request gets the next enqueue sequence number and
/// joins the group of requests sharing its (rank, bank group, bank, row,
/// mode). A group is created with its first member and dropped with its
/// last, so there are never more groups than requests, and a decision
/// costs O(groups) with nothing rebuilt per decision.
#[derive(Debug, Clone)]
pub struct GroupQueue<T> {
    entries: Vec<Entry<T>>,
    free_entries: Vec<u32>,
    groups: Vec<Group>,
    free_groups: Vec<u32>,
    /// Indices of the live groups, in no particular order.
    live: Vec<u32>,
    lookup: FxHashMap<GroupKey, u32>,
    next_seq: u64,
    len: usize,
}

impl<T> Default for GroupQueue<T> {
    fn default() -> Self {
        Self {
            entries: Vec::new(),
            free_entries: Vec::new(),
            groups: Vec::new(),
            free_groups: Vec::new(),
            live: Vec::new(),
            lookup: FxHashMap::default(),
            next_seq: 0,
            len: 0,
        }
    }
}

impl<T> GroupQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of queued requests.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The payload of the queued request `ticket` names.
    ///
    /// # Panics
    ///
    /// If that request has left the queue.
    pub fn get(&self, ticket: Ticket) -> &T {
        let entry = &self.entries[ticket.slot as usize];
        assert_eq!(entry.seq, ticket.seq, "ticket outlived its request");
        entry.payload.as_ref().expect("ticket outlived its request")
    }

    /// Arrival cycles of every queued request, in no particular order.
    pub fn arrivals(&self) -> impl Iterator<Item = Cycle> + '_ {
        self.entries
            .iter()
            .filter(|e| e.payload.is_some())
            .map(|e| e.arrival)
    }

    /// The earliest arrival among queued requests, read off the group
    /// representatives rather than a queue scan.
    pub fn oldest_arrival(&self) -> Option<Cycle> {
        self.live
            .iter()
            .map(|&g| self.groups[g as usize].rep.arrival)
            .min()
    }

    /// Every queued request in enqueue order, the order
    /// [`select_reference`] scans. Allocates: meant for the reference
    /// path and tests.
    pub fn ordered(&self) -> Vec<Ticket> {
        let mut order: Vec<Ticket> = self
            .entries
            .iter()
            .zip(0u32..)
            .filter(|(e, _)| e.payload.is_some())
            .map(|(e, slot)| Ticket { seq: e.seq, slot })
            .collect();
        order.sort_unstable_by_key(|t| t.seq);
        order
    }

    /// Queues `payload`, which the policy sees as `view`, and files it
    /// under its group: one hash lookup, plus a walk of the group's list
    /// only when `view.arrival` is older than the group's newest member.
    pub fn push(&mut self, view: SchedView, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry {
            seq,
            arrival: view.arrival,
            group: NIL,
            next: NIL,
            payload: Some(payload),
        };
        let e = match self.free_entries.pop() {
            Some(e) => {
                self.entries[e as usize] = entry;
                e
            }
            None => {
                self.entries.push(entry);
                (self.entries.len() - 1) as u32
            }
        };
        let key = GroupKey::of(&view);
        let g = if let Some(&g) = self.lookup.get(&key) {
            self.link(g, e);
            g
        } else {
            let group = Group {
                rep: view,
                rep_seq: seq,
                head: e,
                tail: e,
                len: 1,
                pos: self.live.len() as u32,
            };
            let g = match self.free_groups.pop() {
                Some(g) => {
                    self.groups[g as usize] = group;
                    g
                }
                None => {
                    self.groups.push(group);
                    (self.groups.len() - 1) as u32
                }
            };
            self.live.push(g);
            self.lookup.insert(key, g);
            g
        };
        self.entries[e as usize].group = g;
        self.len += 1;
    }

    /// Links entry `e` into the existing group `g` at its (arrival, seq)
    /// position. `e` holds the largest sequence number issued so far, so
    /// it goes after every member with an equal or earlier arrival.
    fn link(&mut self, g: u32, e: u32) {
        let arrival = self.entries[e as usize].arrival;
        let group = &mut self.groups[g as usize];
        group.len += 1;
        if arrival >= self.entries[group.tail as usize].arrival {
            self.entries[group.tail as usize].next = e;
            group.tail = e;
        } else if arrival < group.rep.arrival {
            self.entries[e as usize].next = group.head;
            group.head = e;
            group.rep.arrival = arrival;
            group.rep_seq = self.entries[e as usize].seq;
        } else {
            // The head arrived no later and the tail strictly later, so
            // the walk meets a later member before the end of the list.
            let mut at = group.head;
            loop {
                let next = self.entries[at as usize].next;
                if self.entries[next as usize].arrival > arrival {
                    self.entries[e as usize].next = next;
                    self.entries[at as usize].next = e;
                    break;
                }
                at = next;
            }
        }
    }

    /// Takes the request `ticket` names out of the queue and its group.
    /// O(1) for a group representative, which every [`Self::select`]
    /// winner is; any other member costs a walk of its group's list.
    ///
    /// # Panics
    ///
    /// If that request has already left the queue.
    pub fn remove(&mut self, ticket: Ticket) -> T {
        let e = ticket.slot;
        let entry = &mut self.entries[e as usize];
        assert_eq!(entry.seq, ticket.seq, "ticket outlived its request");
        let payload = entry.payload.take().expect("ticket outlived its request");
        let (g, next) = (entry.group, entry.next);
        self.free_entries.push(e);
        self.len -= 1;
        let group = &mut self.groups[g as usize];
        group.len -= 1;
        if group.head != e {
            let mut at = group.head;
            while self.entries[at as usize].next != e {
                at = self.entries[at as usize].next;
            }
            self.entries[at as usize].next = next;
            if group.tail == e {
                group.tail = at;
            }
        } else if next != NIL {
            group.head = next;
            group.rep.arrival = self.entries[next as usize].arrival;
            group.rep_seq = self.entries[next as usize].seq;
        } else {
            self.drop_group(g);
        }
        payload
    }

    /// Retires the emptied group `g` from `live` and the key lookup.
    fn drop_group(&mut self, g: u32) {
        let group = self.groups[g as usize];
        self.live.swap_remove(group.pos as usize);
        if let Some(&moved) = self.live.get(group.pos as usize) {
            self.groups[moved as usize].pos = group.pos;
        }
        self.lookup.remove(&GroupKey::of(&group.rep));
        self.free_groups.push(g);
    }

    /// Picks the FR-FCFS winner among the queued requests: requests are
    /// ranked by the estimated earliest column-issue cycle (row hits first
    /// by construction), with arrival and then enqueue order breaking
    /// ties. Requests whose required mode differs from the rank's current
    /// mode are charged `trtr` in the estimate, which makes the scheduler
    /// batch same-mode requests and amortize switches (the controller
    /// behaviour Section 5.3 assumes).
    ///
    /// Starvation guard: if the oldest request has already waited more
    /// than `cap` cycles at `now`, it is returned directly — first-ready
    /// preference must not delay any request unboundedly. [`Pick::starved`]
    /// reports whether the guard fired, so the caller can count and trace
    /// cap firings.
    ///
    /// Device state is reached only through the two closures
    /// (`earliest_column` estimates the column-issue cycle for a location;
    /// `rank_mode` reports a rank's current I/O mode), so the decision is
    /// a pure function of the queue and its visible inputs.
    /// `earliest_column` must be pure and monotone non-decreasing in its
    /// cycle argument (every device form is `max(ready, base + fixed)`);
    /// that monotonicity is what lets the index skip dominated requests.
    ///
    /// # Algorithm
    ///
    /// Decision-for-decision identical to the reference scan
    /// ([`select_reference`]) over the queue in enqueue order. Requests of
    /// one group are interchangeable to the estimate except through
    /// `max(now, arrival)`, and the estimate is monotone in arrival, so the
    /// group's (arrival, seq) minimum dominates every other member under
    /// the `(est, arrival, seq)` order — and is also the group's oldest
    /// request. The index keeps that representative current at every push
    /// and remove, so a decision is the reference scan run over the
    /// representatives alone: one pass over the live groups, one estimate
    /// each. Nothing is rebuilt or rehashed per decision, and there is no
    /// group cap: a queue of all-distinct rows is simply as many groups as
    /// requests.
    pub fn select(
        &self,
        now: Cycle,
        cap: Cycle,
        trtr: Cycle,
        mut earliest_column: impl FnMut(Location, Cycle) -> Cycle,
        mut rank_mode: impl FnMut(usize) -> IoMode,
    ) -> Option<Pick> {
        let mut oldest: Option<&Group> = None;
        let mut best: Option<((Cycle, Cycle, u64), &Group)> = None;
        for &g in &self.live {
            let group = &self.groups[g as usize];
            let age = (group.rep.arrival, group.rep_seq);
            if oldest.is_none_or(|o| age < (o.rep.arrival, o.rep_seq)) {
                oldest = Some(group);
            }
            let est = estimate(&group.rep, now, trtr, &mut earliest_column, &mut rank_mode);
            let rank = (est, group.rep.arrival, group.rep_seq);
            if best.is_none_or(|(b, _)| rank < b) {
                best = Some((rank, group));
            }
        }
        let oldest = oldest?;
        if now.saturating_sub(oldest.rep.arrival) > cap {
            return Some(Pick {
                ticket: oldest.rep_ticket(),
                starved: true,
            });
        }
        best.map(|(_, group)| Pick {
            ticket: group.rep_ticket(),
            starved: false,
        })
    }

    /// Checks the index against the stored requests, whose views `view_of`
    /// recovers from their payloads: every queued request sits in exactly
    /// one group, the one of its own key; each group's members are in
    /// strict (arrival, seq) order with the representative at the head, so
    /// the representative is their minimum; no group is empty; and group
    /// sizes sum to the queue length. Returns the first inconsistency.
    pub fn audit(&self, view_of: impl Fn(&T) -> SchedView) -> Result<(), String> {
        if self.lookup.len() != self.live.len() {
            return Err(format!(
                "{} keys index {} live groups",
                self.lookup.len(),
                self.live.len()
            ));
        }
        let mut seen = vec![false; self.entries.len()];
        let mut total = 0usize;
        for (pos, &g) in self.live.iter().enumerate() {
            let group = &self.groups[g as usize];
            let key = GroupKey::of(&group.rep);
            if group.pos as usize != pos || self.lookup.get(&key) != Some(&g) {
                return Err(format!("group {g} is misfiled in the index"));
            }
            if group.len == 0 || group.head == NIL {
                return Err(format!("group {g} is empty"));
            }
            let head = &self.entries[group.head as usize];
            if (group.rep.arrival, group.rep_seq) != (head.arrival, head.seq) {
                return Err(format!("group {g}'s representative is not its head"));
            }
            let mut at = group.head;
            let mut last = NIL;
            let mut prev: Option<(Cycle, u64)> = None;
            let mut count = 0u32;
            while at != NIL {
                let entry = &self.entries[at as usize];
                let Some(payload) = &entry.payload else {
                    return Err(format!("group {g} links free slot {at}"));
                };
                if std::mem::replace(&mut seen[at as usize], true) {
                    return Err(format!("slot {at} is linked twice"));
                }
                let view = view_of(payload);
                if entry.group != g || GroupKey::of(&view) != key || view.arrival != entry.arrival {
                    return Err(format!("slot {at} is filed under the wrong group {g}"));
                }
                let order = (entry.arrival, entry.seq);
                if prev.is_some_and(|p| p >= order) {
                    return Err(format!(
                        "group {g} breaks (arrival, seq) order at slot {at}"
                    ));
                }
                prev = Some(order);
                last = at;
                at = entry.next;
                count += 1;
            }
            if count != group.len || last != group.tail {
                return Err(format!(
                    "group {g} links {count} members but records {}",
                    group.len
                ));
            }
            total += count as usize;
        }
        let occupied = self.entries.iter().filter(|e| e.payload.is_some()).count();
        if total != occupied || occupied != self.len {
            return Err(format!(
                "group sizes sum to {total}, {occupied} slots are occupied, length is {}",
                self.len
            ));
        }
        Ok(())
    }
}

fn estimate(
    v: &SchedView,
    now: Cycle,
    trtr: Cycle,
    earliest_column: &mut impl FnMut(Location, Cycle) -> Cycle,
    rank_mode: &mut impl FnMut(usize) -> IoMode,
) -> Cycle {
    let base = now.max(v.arrival);
    let mut est = earliest_column(v.loc, base);
    if rank_mode(usize::from(v.loc.rank)) != v.mode {
        est += trtr;
    }
    est
}

/// The reference FR-FCFS scan: estimates every queued request and keeps
/// the strict `(est, arrival)` minimum, first index winning ties.
///
/// This is the model [`GroupQueue::select`] is proven against — the
/// differential suite replays request streams through both and asserts
/// identical decisions (see `tests/` and the sam-stress matrix). Keep it
/// dead simple; it is the spec, not the fast path.
pub fn select_reference(
    queue: impl Iterator<Item = SchedView>,
    now: Cycle,
    cap: Cycle,
    trtr: Cycle,
    mut earliest_column: impl FnMut(Location, Cycle) -> Cycle,
    mut rank_mode: impl FnMut(usize) -> IoMode,
) -> Option<Decision> {
    let mut oldest: Option<(Cycle, usize)> = None;
    let mut best: Option<(Cycle, Cycle, usize)> = None;
    for (i, v) in queue.enumerate() {
        if oldest.is_none_or(|(a, _)| v.arrival < a) {
            oldest = Some((v.arrival, i));
        }
        let est = estimate(&v, now, trtr, &mut earliest_column, &mut rank_mode);
        if best.is_none_or(|(be, ba, _)| (est, v.arrival) < (be, ba)) {
            best = Some((est, v.arrival, i));
        }
    }
    let (oldest_arrival, oldest_idx) = oldest?;
    if now.saturating_sub(oldest_arrival) > cap {
        return Some(Decision {
            index: oldest_idx,
            starved: true,
        });
    }
    best.map(|(_, _, index)| Decision {
        index,
        starved: false,
    })
}

/// Advances the write-drain hysteresis latch: occupancy at or above `hi`
/// sets it (writes drain in a batch), occupancy at or below `lo` clears it
/// (reads regain priority). Between the watermarks the latch holds its
/// previous state — that hysteresis is what batches writes instead of
/// thrashing the bus turnaround on every enqueue.
pub fn drain_latch(current: bool, writeq_len: usize, hi: usize, lo: usize) -> bool {
    let mut latch = current;
    if writeq_len >= hi {
        latch = true;
    }
    if writeq_len <= lo {
        latch = false;
    }
    latch
}

/// Which queue the next scheduling decision serves: an empty side never
/// wins, otherwise the drain latch decides.
pub fn serve_writes(readq_empty: bool, writeq_empty: bool, draining: bool) -> bool {
    if readq_empty {
        !writeq_empty
    } else if writeq_empty {
        false
    } else {
        draining
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(arrival: Cycle, row: u32) -> SchedView {
        SchedView {
            arrival,
            loc: Location {
                row,
                ..Location::default()
            },
            mode: IoMode::X4,
        }
    }

    /// An estimate that charges 10 cycles unless the row is 7 ("open").
    fn est(loc: Location, base: Cycle) -> Cycle {
        base + if loc.row == 7 { 0 } else { 10 }
    }

    /// A queue whose payloads are the views themselves.
    fn queue_of(q: &[SchedView]) -> GroupQueue<SchedView> {
        let mut queue = GroupQueue::new();
        for v in q {
            queue.push(*v, *v);
        }
        queue
    }

    /// Audits `queue`, runs the indexed select and the reference scan
    /// over it (in enqueue order), asserts they agree, and returns the
    /// decision as a position in enqueue order.
    fn select_both(
        queue: &GroupQueue<SchedView>,
        now: Cycle,
        cap: Cycle,
        mode: impl Fn(usize) -> IoMode + Copy,
    ) -> Option<Decision> {
        queue.audit(|v| *v).expect("index is consistent");
        let order = queue.ordered();
        let views = order.iter().map(|&t| *queue.get(t));
        let reference = select_reference(views, now, cap, 2, est, mode);
        let fast = queue.select(now, cap, 2, est, mode).map(|p| Decision {
            index: order
                .iter()
                .position(|&t| t == p.ticket)
                .expect("winner is queued"),
            starved: p.starved,
        });
        assert_eq!(fast, reference, "index must match the reference scan");
        fast
    }

    fn select_checked(q: &[SchedView], now: Cycle, cap: Cycle) -> Option<Decision> {
        select_both(&queue_of(q), now, cap, |_| IoMode::X4)
    }

    #[test]
    fn row_hit_beats_older_miss() {
        let q = [view(0, 1), view(5, 7)];
        let d = select_checked(&q, 6, 100).unwrap();
        assert_eq!(
            d,
            Decision {
                index: 1,
                starved: false
            }
        );
    }

    #[test]
    fn arrival_breaks_estimate_ties() {
        let q = [view(3, 1), view(1, 1)];
        let d = select_checked(&q, 4, 100).unwrap();
        assert_eq!(d.index, 1);
    }

    #[test]
    fn starvation_cap_overrides_row_hits() {
        let q = [view(0, 1), view(200, 7)];
        let d = select_checked(&q, 150, 100).unwrap();
        assert_eq!(
            d,
            Decision {
                index: 0,
                starved: true
            }
        );
    }

    #[test]
    fn mode_mismatch_charges_trtr() {
        // Same arrival and row state; request 0 needs a stride mode the
        // rank is not in, so tRTR tips the estimate toward request 1.
        let mut q = [view(0, 7), view(0, 7)];
        q[0].mode = IoMode::Sx4(0);
        let d = select_checked(&q, 0, 100).unwrap();
        assert_eq!(d.index, 1);
    }

    #[test]
    fn empty_queue_selects_nothing() {
        assert!(select_checked(&[], 0, 100).is_none());
    }

    #[test]
    fn equal_arrival_ties_pick_the_first_index() {
        // Three same-group requests with equal arrivals: the reference
        // strict `<` keeps index 0; the representative (smallest seq among
        // equal arrivals) must be the same request.
        let q = [view(4, 7), view(4, 7), view(4, 7)];
        let d = select_checked(&q, 5, 100).unwrap();
        assert_eq!(d.index, 0);
    }

    #[test]
    fn one_group_per_distinct_row_stays_exact() {
        // Every request its own group, 81 of them; the winner (row 7, the
        // only "open" row) is queued last.
        let mut q: Vec<SchedView> = (0..80).map(|i| view(i as Cycle, 100 + i)).collect();
        q.push(view(90, 7));
        let queue = queue_of(&q);
        assert_eq!(queue.live.len(), 81);
        let d = select_both(&queue, 95, 10_000, |_| IoMode::X4).unwrap();
        assert_eq!(d.index, 80);
    }

    #[test]
    fn out_of_order_arrivals_keep_groups_sorted() {
        let arrivals = [10, 20, 5, 15, 15];
        let mut queue = queue_of(&arrivals.map(|a| view(a, 7)));
        assert_eq!(queue.live.len(), 1);
        assert_eq!(queue.oldest_arrival(), Some(5));
        let d = select_both(&queue, 30, 1_000, |_| IoMode::X4).unwrap();
        assert_eq!(d.index, 2, "the arrival-5 straggler represents the group");
        // Removing a middle member and the tail keeps the list intact.
        let order = queue.ordered();
        assert_eq!(queue.remove(order[4]).arrival, 15);
        assert_eq!(queue.remove(order[1]).arrival, 20);
        queue.audit(|v| *v).expect("index is consistent");
        assert_eq!(queue.len(), 3);
        assert_eq!(queue.remove(order[2]).arrival, 5);
        assert_eq!(queue.oldest_arrival(), Some(10));
        queue.audit(|v| *v).expect("index is consistent");
    }

    #[test]
    #[should_panic(expected = "ticket outlived its request")]
    fn a_stale_ticket_never_reaches_the_slot_reuser() {
        let mut queue = queue_of(&[view(1, 7)]);
        let stale = queue.ordered()[0];
        queue.remove(stale);
        queue.push(view(2, 7), view(2, 7));
        queue.remove(stale);
    }

    /// Randomized differential check over request *sequences*: pushes
    /// (repeated groups, duplicate and out-of-order arrivals, stride
    /// modes, up to a queue's worth of distinct rows) interleaved with
    /// select-and-remove steps, the index audited and matched against the
    /// reference scan before every removal.
    #[test]
    fn index_matches_reference_over_random_sequences() {
        let mut state = 0x5A11_AD5E_1EC7_0000_u64 ^ 0x1234_5678_9abc_def0;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mode = |r: usize| if r == 0 { IoMode::X4 } else { IoMode::Sx4(1) };
        for case in 0..200 {
            let mut queue = GroupQueue::new();
            let rows = 1 + next() % 60;
            for _ in 0..(next() % 300) {
                if next() % 5 < 3 && queue.len() < 96 {
                    let mut v = view(next() % 64, (next() % rows) as u32);
                    v.loc.bank = (next() % 4) as u8;
                    v.loc.bank_group = (next() % 4) as u8;
                    v.loc.rank = (next() % 2) as u8;
                    if next() % 3 == 0 {
                        v.mode = IoMode::Sx4((next() % 4) as u8);
                    }
                    queue.push(v, v);
                } else {
                    let now = next() % 80;
                    let cap = if next() % 4 == 0 { 20 } else { 10_000 };
                    if select_both(&queue, now, cap, mode).is_some() {
                        let pick = queue
                            .select(now, cap, 2, est, mode)
                            .expect("queue is not empty");
                        queue.remove(pick.ticket);
                    }
                }
            }
            queue
                .audit(|v| *v)
                .unwrap_or_else(|e| panic!("case {case}: {e}"));
        }
    }

    /// The packed key tells apart every (rank, bank group, bank) with the
    /// edge rows and every mode, on both shipped geometries.
    #[test]
    fn group_key_is_injective() {
        use sam_dram::device::DeviceConfig;
        for cfg in [DeviceConfig::ddr4_server(), DeviceConfig::rram_server()] {
            let last_row = (cfg.rows_per_bank - 1) as u32;
            let mut seen = std::collections::BTreeMap::new();
            for rank in 0..cfg.ranks as u8 {
                for bank_group in 0..cfg.bank_groups as u8 {
                    for bank in 0..cfg.banks_per_group as u8 {
                        for row in [0, 1, last_row] {
                            for mode in IoMode::ALL {
                                let loc = Location {
                                    rank,
                                    bank_group,
                                    bank,
                                    row,
                                    ..Location::default()
                                };
                                let v = SchedView {
                                    arrival: 0,
                                    loc,
                                    mode,
                                };
                                let key = GroupKey::of(&v).0;
                                if let Some(prev) = seen.insert(key, (loc, mode)) {
                                    panic!("{prev:?} and {:?} share key {key:#x}", (loc, mode));
                                }
                            }
                        }
                    }
                }
            }
            assert_eq!(seen.len(), cfg.ranks * cfg.banks_per_rank() * 3 * 7);
        }
    }

    #[test]
    #[should_panic(expected = "lane id 4 out of range")]
    fn group_key_rejects_a_fifth_stride_lane() {
        let mut v = view(0, 0);
        v.mode = IoMode::Sx4(4);
        GroupKey::of(&v);
    }

    #[test]
    fn latch_hysteresis_holds_between_watermarks() {
        assert!(drain_latch(false, 28, 28, 8));
        assert!(drain_latch(true, 15, 28, 8), "holds between watermarks");
        assert!(!drain_latch(false, 15, 28, 8), "holds when clear too");
        assert!(!drain_latch(true, 8, 28, 8));
    }

    #[test]
    fn queue_choice_never_picks_an_empty_side() {
        assert!(!serve_writes(false, true, true));
        assert!(serve_writes(true, false, false));
        assert!(!serve_writes(true, true, true));
        assert!(serve_writes(false, false, true));
        assert!(!serve_writes(false, false, false));
    }
}
