//! The event queue.
//!
//! A binary heap keyed by `(time, sequence)`. The sequence number is a
//! monotonically increasing insertion counter, which gives simultaneous
//! events a stable FIFO order — the property that makes whole-cluster runs
//! bit-reproducible for a fixed RNG seed.
//!
//! ## The same-time fast path
//!
//! DES engines schedule a large fraction of their events at *exactly the
//! current time*: zero-delay follow-ups, outbox drains, ack chains and
//! pipeline handoffs all fire "now". Routing those through the heap costs
//! two O(log n) sifts each. This queue instead keeps a FIFO side bucket
//! of events whose timestamp equals the time of the most recently popped
//! event; pushes and pops on that bucket are O(1).
//!
//! Ordering stays exactly the old `BinaryHeap` semantics: every bucket
//! entry carries a sequence number drawn from the same counter as heap
//! entries, and `pop` compares the heap head against the bucket head by
//! `(time, seq)` before choosing. The bucket is time-homogeneous by
//! construction (entries are only admitted when their time equals the
//! bucket's), so the comparison against its front entry decides for the
//! whole bucket. The property test at the bottom drives 10k random
//! interleaved operations — including pushes into the past — against a
//! brute-force reference model.
//!
//! ## The timer wheel
//!
//! Single-shot protocol timers (TCP RTO, delayed ACK, SYN retransmit,
//! lock-wait safety timeouts) are overwhelmingly *cancelled* — superseded
//! by a newer arming long before their deadline. Heaping each arming and
//! lazily discarding the stale pop wastes two O(log n) sifts plus one
//! dispatched event per dead timer, and dead timers dominate the event
//! count of a whole-cluster run.
//!
//! [`EventHeap::arm_timer`] instead parks the timer in a two-level
//! hierarchical wheel (256 slots of ~1 ms, cascading from 256 slots of
//! ~268 ms, with a far-overflow list). [`EventHeap::cancel_timer`] — or
//! re-arming the same key — removes it in O(1) *before* it ever touches
//! the heap. Only timers that survive to their deadline neighbourhood
//! cascade into the heap, carrying the **sequence number assigned at
//! arming time**. Because the heap orders by `(time, seq)` regardless of
//! insertion order, a surviving timer fires at exactly the `(time, seq)`
//! it would have had as a plain push — the pop stream of surviving
//! events is bit-identical to the heap-everything engine; only the dead
//! pops disappear. The wheel costs nothing when unused: every fast path
//! is gated on `timers_live == 0`.

use crate::hash::FxHashMap;
use crate::time::{Duration, SimTime};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// log2 of the level-0 slot width: 2^20 ns ≈ 1.05 ms per slot.
const L0_SHIFT: u32 = 20;
/// log2 of the slots per wheel level.
const WHEEL_BITS: u32 = 8;
const WHEEL_SLOTS: usize = 1 << WHEEL_BITS;
const WHEEL_MASK: u64 = (WHEEL_SLOTS - 1) as u64;

/// A parked timer: the payload plus the ordering identity it will carry
/// into the heap if it survives to its deadline.
struct TimerEnt<E> {
    time: SimTime,
    seq: u64,
    key: u64,
    payload: E,
}

/// Heap entries hold only ordering metadata plus a slab index; the
/// payload itself sits still in `EventHeap::slots`. Sift operations
/// therefore move 24 bytes regardless of how large the event enum is —
/// the whole-cluster event wraps entire network packets, and moving
/// those through every O(log n) sift dominated `pop` in profiles.
struct Entry {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A deterministic earliest-first event queue.
///
/// ```
/// use dclue_sim::{EventHeap, SimTime};
///
/// let mut q = EventHeap::new();
/// q.push(SimTime(20), "later");
/// q.push(SimTime(10), "sooner");
/// assert_eq!(q.pop(), Some((SimTime(10), "sooner")));
/// assert_eq!(q.pop(), Some((SimTime(20), "later")));
/// ```
pub struct EventHeap<E> {
    heap: BinaryHeap<Entry>,
    /// Payload slab for heap entries, indexed by `Entry::slot`; `None`
    /// slots are free and their indices are in `free`.
    slots: Vec<Option<E>>,
    free: Vec<u32>,
    /// Same-time FIFO bucket: entries scheduled at exactly `cur`.
    /// Invariant: time-homogeneous, sequence numbers ascending.
    immediate: VecDeque<(SimTime, u64, E)>,
    /// Time of the most recently popped event (the engine's "now").
    cur: SimTime,
    seq: u64,
    /// Total number of events ever pushed (for engine statistics).
    pushed: u64,
    /// Total number of events ever popped (events actually processed).
    popped: u64,
    // ---- timer wheel (see module docs) ----
    /// Parked-timer slab; `None` slots are free, indices in `timer_free`.
    timer_slots: Vec<Option<TimerEnt<E>>>,
    timer_free: Vec<u32>,
    /// Level 0: 256 slots of 2^20 ns. Cell `s & 255` holds timers whose
    /// deadline slot `s` satisfies `wheel_pos <= s < wheel_pos + 256`.
    /// Lazily allocated on the first `arm_timer`.
    l0: Vec<Vec<(u32, u64)>>,
    /// Level 1: 256 slots of 2^28 ns, strictly beyond the L0 window.
    l1: Vec<Vec<(u32, u64)>>,
    /// Timers beyond the L1 horizon (~68.7 s); re-examined at every L1
    /// cascade boundary.
    t_overflow: Vec<(u32, u64)>,
    /// The next absolute L0 slot (`time >> L0_SHIFT`) not yet flushed.
    /// All timers in slots `< wheel_pos` have been cascaded or cancelled.
    wheel_pos: u64,
    /// Number of timers currently parked in the wheel (not yet cascaded
    /// or cancelled). Gates every wheel code path.
    timers_live: usize,
    /// key -> (slab index, seq) for the live timer armed under that key.
    /// The entry is removed at cancel time *and* at cascade time, so a
    /// key maps to at most one wheel-resident timer.
    keyed: FxHashMap<u64, (u32, u64)>,
}

impl<E> Default for EventHeap<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventHeap<E> {
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Pre-size the queue for an expected number of pending events.
    pub fn with_capacity(events: usize) -> Self {
        EventHeap {
            heap: BinaryHeap::with_capacity(events),
            slots: Vec::with_capacity(events),
            free: Vec::new(),
            immediate: VecDeque::with_capacity(16),
            cur: SimTime::ZERO,
            seq: 0,
            pushed: 0,
            popped: 0,
            timer_slots: Vec::new(),
            timer_free: Vec::new(),
            l0: Vec::new(),
            l1: Vec::new(),
            t_overflow: Vec::new(),
            wheel_pos: 0,
            timers_live: 0,
            keyed: FxHashMap::default(),
        }
    }

    /// Schedule `payload` to fire at absolute time `at`.
    pub fn push(&mut self, at: SimTime, payload: E) {
        let seq = self.seq;
        self.seq += 1;
        self.pushed += 1;
        // Fast path: an event for "now" joins the FIFO bucket iff the
        // bucket stays time-homogeneous (it is empty or already holds
        // `at`). Out-of-order pushes into the past fall through to the
        // heap, which handles any timestamp.
        self.insert_raw(at, seq, payload);
    }

    /// Insert an event that already owns its sequence number, choosing
    /// the same-time bucket or the heap exactly as `push` would.
    fn insert_raw(&mut self, at: SimTime, seq: u64, payload: E) {
        if at == self.cur && self.immediate.front().is_none_or(|f| f.0 == at) {
            self.immediate.push_back((at, seq, payload));
        } else {
            self.heap_insert(at, seq, payload);
        }
    }

    /// Insert straight into the heap, preserving the given `(at, seq)`
    /// identity. Used by `push` and by timer cascade, where the seq was
    /// assigned at arming time.
    fn heap_insert(&mut self, at: SimTime, seq: u64, payload: E) {
        let slot = match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(payload);
                i
            }
            None => {
                self.slots.push(Some(payload));
                (self.slots.len() - 1) as u32
            }
        };
        self.heap.push(Entry {
            time: at,
            seq,
            slot,
        });
    }

    /// Schedule `payload` at the current time plus `delay` — the time of
    /// the most recently popped event, i.e. the engine's "now". With a
    /// zero delay this is the O(1) same-time fast path. Returns the
    /// absolute time the event was scheduled for.
    pub fn push_after(&mut self, delay: Duration, payload: E) -> SimTime {
        let at = self.cur + delay;
        self.push(at, payload);
        at
    }

    /// Remove and return the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.timers_live > 0 {
            self.flush_due_timers();
        }
        let take_heap = match (self.heap.peek(), self.immediate.front()) {
            (None, None) => return None,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(h), Some(&(itime, iseq, _))) => {
                h.time < itime || (h.time == itime && h.seq < iseq)
            }
        };
        self.popped += 1;
        if take_heap {
            let e = self.heap.pop().unwrap();
            let payload = self.slots[e.slot as usize].take().unwrap();
            self.free.push(e.slot);
            self.cur = e.time;
            Some((e.time, payload))
        } else {
            let (t, _, payload) = self.immediate.pop_front().unwrap();
            self.cur = t;
            Some((t, payload))
        }
    }

    // ---- timer wheel ----

    /// Arm (or re-arm) the single-shot timer identified by `key` to fire
    /// at absolute time `at`. Any previously armed timer under the same
    /// key is cancelled first, so a key holds at most one pending timer.
    ///
    /// The arming consumes a sequence number exactly like `push`, so the
    /// surviving-event order of a run is unchanged whether timers are
    /// armed here or pushed directly; only cancelled timers' dead pops
    /// are saved.
    pub fn arm_timer(&mut self, key: u64, at: SimTime, payload: E) {
        self.cancel_timer(key);
        let seq = self.seq;
        self.seq += 1;
        self.pushed += 1;
        if self.timers_live == 0 {
            // Empty wheel: skip ahead over any timer-free gap. Safe
            // because no slot below the current time can ever receive a
            // future timer.
            self.wheel_pos = self.wheel_pos.max(self.cur.0 >> L0_SHIFT);
        }
        let slot = at.0 >> L0_SHIFT;
        if at <= self.cur || slot < self.wheel_pos {
            // Due now / in the past, or inside an already-flushed slot:
            // the wheel can no longer hold it, so it goes straight into
            // the queue. A later cancel is then a no-op and the event
            // fires dead — exactly the pre-wheel engine's behavior.
            self.insert_raw(at, seq, payload);
            return;
        }
        if self.l0.is_empty() {
            self.l0.resize_with(WHEEL_SLOTS, Vec::new);
            self.l1.resize_with(WHEEL_SLOTS, Vec::new);
        }
        let idx = match self.timer_free.pop() {
            Some(i) => i,
            None => {
                self.timer_slots.push(None);
                (self.timer_slots.len() - 1) as u32
            }
        };
        self.timer_slots[idx as usize] = Some(TimerEnt {
            time: at,
            seq,
            key,
            payload,
        });
        self.keyed.insert(key, (idx, seq));
        self.timers_live += 1;
        self.place(idx, seq, slot);
    }

    /// Cancel the pending timer armed under `key`, if any. O(1). A timer
    /// that has already cascaded into the heap (its deadline slot was
    /// reached) can no longer be cancelled and will fire; callers guard
    /// fired timers with a generation check, as they did before the
    /// wheel existed.
    pub fn cancel_timer(&mut self, key: u64) {
        if let Some((idx, seq)) = self.keyed.remove(&key) {
            let slot = &mut self.timer_slots[idx as usize];
            debug_assert!(slot.as_ref().is_some_and(|e| e.seq == seq));
            if slot.as_ref().is_some_and(|e| e.seq == seq) {
                *slot = None;
                self.timer_free.push(idx);
                self.timers_live -= 1;
                // The (idx, seq) pair left in its wheel cell is a
                // tombstone; cascade skips it by seq validation.
            }
        }
    }

    /// File a live timer into the wheel level covering its deadline.
    fn place(&mut self, idx: u32, seq: u64, slot: u64) {
        debug_assert!(slot >= self.wheel_pos);
        if slot - self.wheel_pos < WHEEL_SLOTS as u64 {
            self.l0[(slot & WHEEL_MASK) as usize].push((idx, seq));
        } else if (slot >> WHEEL_BITS) - (self.wheel_pos >> WHEEL_BITS) < WHEEL_SLOTS as u64 {
            self.l1[((slot >> WHEEL_BITS) & WHEEL_MASK) as usize].push((idx, seq));
        } else {
            self.t_overflow.push((idx, seq));
        }
    }

    /// Advance the wheel until every timer due at or before the next
    /// queued event has cascaded into the heap (or, with an empty queue,
    /// until the earliest surviving timer has). Called before each pop.
    fn flush_due_timers(&mut self) {
        loop {
            let next_queued = match (self.heap.peek(), self.immediate.front()) {
                (None, None) => None,
                (Some(h), None) => Some(h.time),
                (None, Some(&(t, _, _))) => Some(t),
                (Some(h), Some(&(t, _, _))) => Some(h.time.min(t)),
            };
            match next_queued {
                Some(t) => {
                    // A timer in a slot beyond `t`'s cannot precede `t`.
                    let limit = t.0 >> L0_SHIFT;
                    while self.timers_live > 0 && self.wheel_pos <= limit {
                        self.flush_slot();
                    }
                    return;
                }
                None => {
                    if self.timers_live == 0 {
                        return;
                    }
                    // Queue empty but timers pending: advance slot by
                    // slot until one cascades, then re-check (it may
                    // unblock further due slots — it can't, its slot was
                    // just flushed, but the loop proves it).
                    self.flush_slot();
                }
            }
        }
    }

    /// Flush the single L0 slot at `wheel_pos`: cascade down from L1 and
    /// the overflow list when entering a new L1 slot, then move every
    /// surviving timer in the L0 cell into the heap with its original
    /// `(time, seq)` identity.
    fn flush_slot(&mut self) {
        let pos = self.wheel_pos;
        if pos & WHEEL_MASK == 0 && !self.l1.is_empty() {
            let l1_cell = ((pos >> WHEEL_BITS) & WHEEL_MASK) as usize;
            let mut cells = std::mem::take(&mut self.l1[l1_cell]);
            let cascaded = cells.len();
            for (idx, seq) in cells.drain(..) {
                if let Some(e) = &self.timer_slots[idx as usize] {
                    if e.seq == seq {
                        let slot = e.time.0 >> L0_SHIFT;
                        self.place(idx, seq, slot);
                    }
                }
            }
            dclue_trace::trace_event!(Sim, self.cur.0, "wheel_cascade_l1", pos, cascaded);
            self.l1[l1_cell] = cells;
            if !self.t_overflow.is_empty() {
                let far = std::mem::take(&mut self.t_overflow);
                for (idx, seq) in far {
                    if let Some(e) = &self.timer_slots[idx as usize] {
                        if e.seq == seq {
                            let slot = e.time.0 >> L0_SHIFT;
                            // `place` re-files into the overflow list if
                            // the deadline is still beyond the horizon.
                            self.place(idx, seq, slot);
                        }
                    }
                }
            }
        }
        if !self.l0.is_empty() {
            let cell = (pos & WHEEL_MASK) as usize;
            if !self.l0[cell].is_empty() {
                let mut cells = std::mem::take(&mut self.l0[cell]);
                dclue_trace::trace_event!(Sim, self.cur.0, "wheel_flush_l0", pos, cells.len());
                for (idx, seq) in cells.drain(..) {
                    let live = self.timer_slots[idx as usize]
                        .as_ref()
                        .is_some_and(|e| e.seq == seq);
                    if !live {
                        continue; // tombstone of a cancelled/re-armed timer
                    }
                    let ent = self.timer_slots[idx as usize].take().unwrap();
                    self.timer_free.push(idx);
                    self.timers_live -= 1;
                    debug_assert_eq!(self.keyed.get(&ent.key), Some(&(idx, seq)));
                    self.keyed.remove(&ent.key);
                    debug_assert!(ent.time > self.cur);
                    self.heap_insert(ent.time, ent.seq, ent.payload);
                }
                self.l0[cell] = cells;
            }
        }
        self.wheel_pos = pos + 1;
    }

    /// Time of the earliest pending event, timers included.
    pub fn peek_time(&self) -> Option<SimTime> {
        let queued = match (self.heap.peek(), self.immediate.front()) {
            (None, None) => None,
            (Some(h), None) => Some(h.time),
            (None, Some(&(t, _, _))) => Some(t),
            (Some(h), Some(&(t, _, _))) => Some(h.time.min(t)),
        };
        if self.timers_live == 0 {
            return queued;
        }
        let parked = self
            .timer_slots
            .iter()
            .filter_map(|s| s.as_ref().map(|e| e.time))
            .min();
        match (queued, parked) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Time of the most recently popped event (the queue's "now").
    pub fn current_time(&self) -> SimTime {
        self.cur
    }

    pub fn len(&self) -> usize {
        self.heap.len() + self.immediate.len() + self.timers_live
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.immediate.is_empty() && self.timers_live == 0
    }

    /// Total number of events pushed over the queue's lifetime.
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Total number of events popped (processed) over the queue's lifetime.
    pub fn total_popped(&self) -> u64 {
        self.popped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventHeap::new();
        q.push(SimTime(30), "c");
        q.push(SimTime(10), "a");
        q.push(SimTime(20), "b");
        assert_eq!(q.pop(), Some((SimTime(10), "a")));
        assert_eq!(q.pop(), Some((SimTime(20), "b")));
        assert_eq!(q.pop(), Some((SimTime(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventHeap::new();
        let t = SimTime(5);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventHeap::new();
        q.push(SimTime(10), 1);
        q.push(SimTime(5), 0);
        assert_eq!(q.pop().unwrap().1, 0);
        q.push(SimTime(7), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 1);
    }

    #[test]
    fn peek_time_tracks_head() {
        let mut q = EventHeap::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::ZERO + Duration::from_millis(2), ());
        q.push(SimTime::ZERO + Duration::from_millis(1), ());
        assert_eq!(q.peek_time(), Some(SimTime(1_000_000)));
    }

    #[test]
    fn counts_total_pushed() {
        let mut q = EventHeap::new();
        q.push(SimTime(1), ());
        q.push(SimTime(2), ());
        q.pop();
        assert_eq!(q.total_pushed(), 2);
        assert_eq!(q.total_popped(), 1);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    // ---- fast-path micro-tests ----

    #[test]
    fn same_time_pushes_stay_fifo_with_heap_tail() {
        let mut q = EventHeap::new();
        q.push(SimTime(10), 0);
        q.push(SimTime(20), 1);
        assert_eq!(q.pop(), Some((SimTime(10), 0)));
        // Now cur == 10: these take the bucket.
        q.push(SimTime(10), 2);
        q.push(SimTime(10), 3);
        // A later event interleaved between same-time pushes.
        q.push(SimTime(15), 4);
        q.push(SimTime(10), 5);
        assert_eq!(q.pop(), Some((SimTime(10), 2)));
        assert_eq!(q.pop(), Some((SimTime(10), 3)));
        assert_eq!(q.pop(), Some((SimTime(10), 5)));
        assert_eq!(q.pop(), Some((SimTime(15), 4)));
        assert_eq!(q.pop(), Some((SimTime(20), 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn push_after_zero_delay_is_fifo_at_now() {
        let mut q = EventHeap::new();
        q.push(SimTime(100), "anchor");
        assert_eq!(q.pop(), Some((SimTime(100), "anchor")));
        assert_eq!(q.current_time(), SimTime(100));
        let t1 = q.push_after(Duration::ZERO, "a");
        let t2 = q.push_after(Duration::ZERO, "b");
        let t3 = q.push_after(Duration::from_nanos(5), "c");
        assert_eq!((t1, t2, t3), (SimTime(100), SimTime(100), SimTime(105)));
        assert_eq!(q.pop(), Some((SimTime(100), "a")));
        assert_eq!(q.pop(), Some((SimTime(100), "b")));
        assert_eq!(q.pop(), Some((SimTime(105), "c")));
    }

    #[test]
    fn initial_pushes_at_time_zero_are_fifo() {
        // cur starts at ZERO, so setup-time pushes at ZERO use the
        // bucket; their order must still be insertion order.
        let mut q = EventHeap::new();
        q.push(SimTime::ZERO, 0);
        q.push(SimTime(3), 1);
        q.push(SimTime::ZERO, 2);
        assert_eq!(q.pop(), Some((SimTime::ZERO, 0)));
        assert_eq!(q.pop(), Some((SimTime::ZERO, 2)));
        assert_eq!(q.pop(), Some((SimTime(3), 1)));
    }

    #[test]
    fn push_into_past_still_pops_first() {
        let mut q = EventHeap::new();
        q.push(SimTime(10), "now");
        assert_eq!(q.pop(), Some((SimTime(10), "now")));
        q.push(SimTime(10), "bucket");
        // An out-of-order push into the past must pop before the
        // same-time bucket entry.
        q.push(SimTime(4), "past");
        assert_eq!(q.pop(), Some((SimTime(4), "past")));
        assert_eq!(q.pop(), Some((SimTime(10), "bucket")));
    }

    #[test]
    fn heap_entry_with_lower_seq_beats_bucket_at_same_time() {
        let mut q = EventHeap::new();
        // seq 0 at t=10 goes to the heap (cur is ZERO).
        q.push(SimTime(10), 0);
        q.push(SimTime(10), 1);
        q.push(SimTime(5), 2);
        assert_eq!(q.pop(), Some((SimTime(5), 2)));
        // cur == 5; these go to the heap as well.
        q.push(SimTime(10), 3);
        assert_eq!(q.pop(), Some((SimTime(10), 0)));
        // cur == 10; bucket takes this one with the highest seq so far.
        q.push(SimTime(10), 4);
        // FIFO across heap and bucket at the same timestamp.
        assert_eq!(q.pop(), Some((SimTime(10), 1)));
        assert_eq!(q.pop(), Some((SimTime(10), 3)));
        assert_eq!(q.pop(), Some((SimTime(10), 4)));
    }

    /// Brute-force reference with the old `BinaryHeap` semantics:
    /// earliest `(time, seq)` first, any timestamp accepted.
    struct Model {
        v: Vec<(SimTime, u64)>,
        seq: u64,
    }

    impl Model {
        fn push(&mut self, t: SimTime) -> u64 {
            let s = self.seq;
            self.seq += 1;
            self.v.push((t, s));
            s
        }
        fn pop(&mut self) -> Option<(SimTime, u64)> {
            let i = self
                .v
                .iter()
                .enumerate()
                .min_by_key(|(_, &(t, s))| (t, s))
                .map(|(i, _)| i)?;
            Some(self.v.swap_remove(i))
        }
        /// Model a timer cancellation: drop the entry armed as `seq`.
        fn remove(&mut self, seq: u64) {
            self.v.retain(|&(_, s)| s != seq);
        }
    }

    #[test]
    fn property_matches_binary_heap_semantics_over_10k_ops() {
        // Payloads are the model's sequence ids, so this asserts the
        // exact event identity, not just matching timestamps.
        let mut rng = crate::SimRng::new(0xDC1);
        let mut q = EventHeap::new();
        let mut m = Model {
            v: Vec::new(),
            seq: 0,
        };
        let mut cur = SimTime::ZERO;
        for _ in 0..10_000 {
            if rng.chance(0.6) || q.is_empty() {
                // Mix of future, same-time and (occasionally) past
                // timestamps relative to the last popped time.
                let t = if rng.chance(0.4) {
                    cur
                } else {
                    SimTime(cur.0.saturating_sub(2) + rng.uniform(0, 8))
                };
                let id = m.push(t);
                q.push(t, id);
            } else {
                let got = q.pop();
                let want = m.pop();
                assert_eq!(got, want);
                if let Some((t, _)) = got {
                    cur = t;
                }
            }
        }
        // Drain the rest.
        while let Some(want) = m.pop() {
            assert_eq!(q.pop(), Some(want));
        }
        assert_eq!(q.pop(), None);
        assert_eq!(q.total_pushed(), m.seq);
        assert_eq!(q.total_popped(), m.seq);
    }

    // ---- timer-wheel tests ----

    /// One L0 slot in nanoseconds.
    const G: u64 = 1 << 20;

    #[test]
    fn armed_timer_fires_at_exact_time_and_seq_order() {
        // Timers and plain pushes at the *same* deadline must pop in
        // pure arming/push order — the wheel cascade may not reorder
        // same-deadline events even though it inserts them late.
        let mut q = EventHeap::new();
        let t = SimTime(5 * G + 123);
        q.arm_timer(1, t, "t1"); // seq 0
        q.push(t, "p1"); // seq 1
        q.arm_timer(2, t, "t2"); // seq 2
        q.push(t, "p2"); // seq 3
        q.arm_timer(3, t, "t3"); // seq 4
        for want in ["t1", "p1", "t2", "p2", "t3"] {
            assert_eq!(q.pop(), Some((t, want)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancelled_timer_never_fires_and_rearm_supersedes() {
        let mut q = EventHeap::new();
        q.arm_timer(7, SimTime(10 * G), "old");
        q.arm_timer(7, SimTime(20 * G), "new"); // re-arm cancels "old"
        q.arm_timer(8, SimTime(15 * G), "gone");
        q.cancel_timer(8);
        q.cancel_timer(99); // unknown key: no-op
        q.push(SimTime(30 * G), "end");
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop(), Some((SimTime(20 * G), "new")));
        assert_eq!(q.pop(), Some((SimTime(30 * G), "end")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
        // Arms consume sequence numbers like pushes; cancels save pops.
        assert_eq!(q.total_pushed(), 4);
        assert_eq!(q.total_popped(), 2);
    }

    #[test]
    fn cancel_after_cascade_is_a_noop_and_timer_fires() {
        let mut q = EventHeap::new();
        q.arm_timer(1, SimTime(2 * G + 5), "timer");
        q.push(SimTime(2 * G + 1), "early");
        // Popping "early" flushes the wheel through its slot, which
        // cascades the timer into the heap.
        assert_eq!(q.pop(), Some((SimTime(2 * G + 1), "early")));
        // Too late: the timer is heap-resident now and must still fire
        // (callers treat it as a stale generation).
        q.cancel_timer(1);
        assert_eq!(q.pop(), Some((SimTime(2 * G + 5), "timer")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn long_horizon_timers_cascade_through_levels() {
        let mut q = EventHeap::new();
        q.arm_timer(1, SimTime(100 * G + 7), 100u64);
        q.arm_timer(2, SimTime(1000 * G + 7), 1000); // beyond L0 window
        q.arm_timer(3, SimTime(100_000 * G + 7), 100_000); // beyond L1 horizon
        assert_eq!(q.peek_time(), Some(SimTime(100 * G + 7)));
        assert_eq!(q.len(), 3);
        for i in 1..=10u64 {
            q.push(SimTime(i * 11 * G), i);
        }
        let mut got = Vec::new();
        while let Some((t, v)) = q.pop() {
            got.push((t.0 / G, v));
        }
        // Ticks at 11,22,..,99 precede the L0 timer (slot 100), then the
        // last tick at 110, then the L1 and overflow timers — each fired
        // at its exact deadline, never early.
        let mut want: Vec<(u64, u64)> = (1..=9).map(|i| (i * 11, i)).collect();
        want.push((100, 100));
        want.push((110, 10));
        want.push((1000, 1000));
        want.push((100_000, 100_000));
        assert_eq!(got, want);
    }

    #[test]
    fn timer_armed_in_the_past_fires_immediately() {
        let mut q = EventHeap::new();
        q.push(SimTime(10 * G), "anchor");
        assert_eq!(q.pop(), Some((SimTime(10 * G), "anchor")));
        // Deadline at/before now: bypasses the wheel, fires as a plain
        // event (and is no longer cancellable — like a due timer).
        q.arm_timer(1, SimTime(10 * G), "due-now");
        q.arm_timer(2, SimTime(3 * G), "past");
        q.cancel_timer(1);
        q.cancel_timer(2);
        assert_eq!(q.pop(), Some((SimTime(3 * G), "past")));
        assert_eq!(q.pop(), Some((SimTime(10 * G), "due-now")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn property_wheel_matches_model_under_arms_cancels_and_pushes() {
        // Drives the wheel against the brute-force model with keyed
        // arms across all three levels, cancellations, re-arms, plain
        // pushes and pops. Cancels and re-arms only target timers whose
        // deadline slot is provably still wheel-resident (beyond every
        // popped time's slot), where model-removal and wheel-cancel
        // agree; timers past that line are left to fire in both.
        let mut rng = crate::SimRng::new(0xBEE1);
        let mut q = EventHeap::new();
        let mut m = Model {
            v: Vec::new(),
            seq: 0,
        };
        // key -> (deadline, seq) of the arm we still track.
        let mut keys: std::collections::HashMap<u64, (SimTime, u64)> = Default::default();
        let mut cur = SimTime::ZERO;
        let mut max_pop = SimTime::ZERO;
        let cancellable = |dl: SimTime, max_pop: SimTime| dl.0 / G > max_pop.0 / G;
        for _ in 0..20_000 {
            let r = rng.uniform(0, 100);
            if r < 35 || q.is_empty() {
                // Plain push near now, occasionally into the past.
                let t = SimTime(cur.0.saturating_sub(2) + rng.uniform(0, 8));
                let id = m.push(t);
                q.push(t, id);
            } else if r < 60 {
                // Keyed arm, spanning L0, L1 and the overflow horizon.
                let key = rng.uniform(0, 24);
                let delta = match rng.uniform(0, 10) {
                    0..=5 => rng.uniform(2 * G, 200 * G),
                    6..=8 => rng.uniform(300 * G, 4000 * G),
                    _ => rng.uniform(70_000 * G, 80_000 * G),
                };
                let t = SimTime(cur.0 + delta);
                if let Some((dl, old)) = keys.remove(&key) {
                    if cancellable(dl, max_pop) {
                        m.remove(old); // the re-arm cancels it
                    }
                    // else: already cascaded — fires dead in both.
                }
                let id = m.push(t);
                q.arm_timer(key, t, id);
                keys.insert(key, (t, id));
            } else if r < 70 {
                let key = rng.uniform(0, 24);
                if let Some(&(dl, old)) = keys.get(&key) {
                    if cancellable(dl, max_pop) {
                        keys.remove(&key);
                        q.cancel_timer(key);
                        m.remove(old);
                    }
                }
            } else {
                let got = q.pop();
                assert_eq!(got, m.pop());
                if let Some((t, _)) = got {
                    cur = t;
                    max_pop = max_pop.max(t);
                }
            }
            assert_eq!(q.len(), m.v.len());
        }
        while let Some(want) = m.pop() {
            assert_eq!(q.pop(), Some(want));
        }
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
        assert_eq!(q.total_pushed(), m.seq);
    }

    // ---- slot-boundary cascade tests ----
    //
    // Deadlines landing exactly on L0 slot edges (t = k·G), on the
    // L1→L0 cascade instant (t = 256·G, where `wheel_pos & WHEEL_MASK
    // == 0`) and on the overflow horizon (t = 65536·G) are the
    // off-by-one hot spots of the wheel's shift arithmetic. The
    // uniform-random property test above almost never generates them.

    #[test]
    fn timers_at_exact_slot_edges_fire_at_their_deadline() {
        let mut q = EventHeap::new();
        let w = WHEEL_SLOTS as u64;
        let edges = [
            G,
            2 * G,
            (w - 1) * G, // last L0 slot
            w * G,       // first L1 slot == cascade boundary
            (w + 1) * G, // just past the boundary
            2 * w * G,   // second cascade boundary
            w * w * G,   // overflow horizon
        ];
        for (i, &t) in edges.iter().enumerate() {
            q.arm_timer(i as u64, SimTime(t), t);
        }
        let mut got = Vec::new();
        while let Some((t, v)) = q.pop() {
            assert_eq!(t.0, v, "timer fired away from its deadline");
            got.push(t.0);
        }
        let mut want: Vec<u64> = edges.to_vec();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn cascade_boundary_timer_keeps_fifo_order_with_pushes() {
        // A timer whose deadline is exactly the cascade instant moves
        // L1→L0 and L0→heap inside a single `flush_slot` call; it must
        // still interleave with plain pushes at the same deadline in
        // pure sequence order.
        let mut q = EventHeap::new();
        let t = SimTime(WHEEL_SLOTS as u64 * G);
        q.push(t, "p0"); // seq 0
        q.arm_timer(1, t, "t1"); // seq 1 — parked in L1
        q.push(t, "p2"); // seq 2
        q.arm_timer(3, t, "t3"); // seq 3
        for want in ["p0", "t1", "p2", "t3"] {
            assert_eq!(q.pop(), Some((t, want)));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_between_l1_cascade_and_l0_flush_still_wins() {
        // Crossing the 256-slot boundary cascades the L1 cell down into
        // L0, but a cascaded timer is still *wheel*-resident until its
        // own L0 slot flushes — a cancel in that window must still win.
        let mut q = EventHeap::new();
        let w = WHEEL_SLOTS as u64;
        let deadline = SimTime((w + 44) * G + 5);
        q.arm_timer(1, deadline, "victim");
        q.arm_timer(2, deadline, "survivor");
        // Pop an event just past the boundary: flushes slots 0..=256,
        // running the L1→L0 cascade at `wheel_pos == 256` without
        // reaching the timers' own slot.
        q.push(SimTime(w * G + 1), "early");
        assert_eq!(q.pop(), Some((SimTime(w * G + 1), "early")));
        q.cancel_timer(1);
        q.push(SimTime(2 * w * G), "end");
        assert_eq!(q.pop(), Some((deadline, "survivor")));
        assert_eq!(q.pop(), Some((SimTime(2 * w * G), "end")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_after_boundary_cascade_to_heap_is_a_noop() {
        // Same shape as `cancel_after_cascade_is_a_noop_and_timer_fires`
        // but with the deadline in the very slot where the L1→L0
        // cascade and the L0 flush happen in one step: once that slot
        // flushes, the timer is heap-resident and the cancel is too late.
        let mut q = EventHeap::new();
        let w = WHEEL_SLOTS as u64;
        q.arm_timer(1, SimTime(w * G + 7), "timer"); // L1-resident
        q.push(SimTime(w * G + 2), "early");
        assert_eq!(q.pop(), Some((SimTime(w * G + 2), "early")));
        q.cancel_timer(1);
        assert_eq!(q.pop(), Some((SimTime(w * G + 7), "timer")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn property_slot_aligned_deadlines_match_model() {
        // Model check with every deadline pinned to an exact slot edge
        // and half of them to multiples of the 256-slot cascade period.
        let mut rng = crate::SimRng::new(0xA119);
        let mut q = EventHeap::new();
        let mut m = Model {
            v: Vec::new(),
            seq: 0,
        };
        let mut cur = 0u64;
        let mut key = 0u64;
        for _ in 0..5_000 {
            if rng.uniform(0, 10) < 6 || q.is_empty() {
                let slots = if rng.uniform(0, 2) == 0 {
                    rng.uniform(1, 4) * WHEEL_SLOTS as u64
                } else {
                    rng.uniform(1, 600)
                };
                let t = SimTime((cur / G + slots) * G);
                let id = m.push(t);
                key += 1;
                q.arm_timer(key, t, id);
            } else {
                let got = q.pop();
                assert_eq!(got, m.pop());
                if let Some((t, _)) = got {
                    cur = t.0;
                }
            }
            assert_eq!(q.len(), m.v.len());
        }
        while let Some(want) = m.pop() {
            assert_eq!(q.pop(), Some(want));
        }
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }
}
