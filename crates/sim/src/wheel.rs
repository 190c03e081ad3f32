//! Hierarchical timer wheel (calendar queue) — the event kernel.
//!
//! The busy-hour workload is dominated by short-horizon, quantized work:
//! 20 ms vocoder frames, RTP ticks, GSM supervision timers. A binary heap
//! pays `O(log n)` per operation and sifts whole events through the heap
//! array; a timer wheel serves the same workload in amortized `O(1)` by
//! bucketing events into fixed-width time slots and draining each slot as a
//! batch.
//!
//! ## Layout
//!
//! * **Level 0** — 256 slots of 2^10 µs (1.024 ms) each, covering ≈262 ms of
//!   near horizon. The slot width quantizes the 20 ms frame cadence into
//!   ~20 slots, so a steady media stream occupies a rotating band of slots.
//! * **Level 1** — 256 slots of ≈262 ms each (horizon ≈67 s): call setup and
//!   supervision timers.
//! * **Level 2** — 256 slots of ≈67 s each (horizon ≈4.8 h): call hold times
//!   and long-idle work.
//! * **Overflow** — a small binary heap for anything beyond the level-2
//!   horizon. Population-scale runs put a negligible fraction of events here.
//!
//! Each level keeps a 256-bit occupancy bitmap so the drain path skips empty
//! slots with a couple of `trailing_zeros` calls instead of a linear scan.
//!
//! ## Payloads stay parked
//!
//! Simulation events are large (a `Message` alone is ~100 bytes), and a
//! binary heap sifts whole events through its array on every push and pop.
//! The wheel never does: payloads are written once into a slab (`items`)
//! whose freed indices are recycled through a free list, and everything the
//! wheel routes — through slots, cascades, the sorted batch, the overflow
//! heap — is a 24-byte [`Key`] `(at, seq, slab index)`. A payload is moved
//! exactly twice: into the slab at push, out of it at pop. Combined with
//! slot vectors whose capacity is retained across drains, steady-state
//! scheduling neither allocates nor copies payloads.
//!
//! ## Ordering contract
//!
//! Pops are strictly ordered by `(time, seq)` where `seq` is a per-wheel
//! monotone counter assigned at push — the order of a binary heap keyed
//! on `(time, seq)`, which `crates/sim/tests/differential.rs` checks it
//! against — so simultaneous events drain in FIFO push order. The proof
//! sketch (see `DESIGN.md` §2.13) rests on two invariants:
//!
//! 1. every buffered key whose level-0 slot index is `<= cursor` lives in
//!    the `batch` (sorted descending; the back is the minimum) or in the
//!    `late` min-heap, and
//! 2. every key still in a wheel slot or the overflow heap has a level-0
//!    slot index strictly greater than `cursor` — hence a time strictly
//!    after every key in `batch` or `late`.
//!
//! Together they mean the minimum of `batch.last()` and `late.peek()` is
//! always the global minimum. Late pushes that land at or behind the cursor
//! (possible when a caller peeks ahead and then schedules something
//! earlier) go to the `late` heap in `O(log k)` where `k` is the handful of
//! such keys in flight — never an `O(n)` insertion into the batch.

use std::collections::BinaryHeap;

use crate::time::SimTime;

/// log2 of the level-0 slot width in microseconds (2^10 µs = 1.024 ms).
const SLOT_BITS: u32 = 10;
/// log2 of the number of slots per level.
const LEVEL_BITS: u32 = 8;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Mask extracting a level-local slot index.
const SLOT_MASK: u64 = (SLOTS - 1) as u64;
/// Number of wheel levels before the overflow heap takes over.
const LEVELS: usize = 3;
/// Words in a per-level occupancy bitmap.
const WORDS: usize = SLOTS / 64;

/// What the wheel actually routes: the ordering key plus the slab index
/// of the parked payload. 24 bytes, `Copy`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Key {
    at: u64,
    seq: u64,
    idx: u32,
}

impl Key {
    #[inline]
    fn rank(self) -> (u64, u64) {
        (self.at, self.seq)
    }
}

/// Min-heap wrapper: `BinaryHeap<MinKey>` pops the smallest `(at, seq)`.
#[derive(PartialEq, Eq)]
struct MinKey(Key);

impl PartialOrd for MinKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for MinKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.rank().cmp(&self.0.rank())
    }
}

struct Level {
    slots: Vec<Vec<Key>>,
    occupied: [u64; WORDS],
}

impl Level {
    fn new() -> Self {
        Level {
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
        }
    }
}

fn set_bit(bits: &mut [u64; WORDS], idx: usize) {
    bits[idx / 64] |= 1u64 << (idx % 64);
}

fn clear_bit(bits: &mut [u64; WORDS], idx: usize) {
    bits[idx / 64] &= !(1u64 << (idx % 64));
}

/// First set bit at index `>= from`, if any.
fn find_set(bits: &[u64; WORDS], from: usize) -> Option<usize> {
    if from >= SLOTS {
        return None;
    }
    let word = from / 64;
    let masked = bits[word] & (!0u64 << (from % 64));
    if masked != 0 {
        return Some(word * 64 + masked.trailing_zeros() as usize);
    }
    for (w, &bitsw) in bits.iter().enumerate().skip(word + 1) {
        if bitsw != 0 {
            return Some(w * 64 + bitsw.trailing_zeros() as usize);
        }
    }
    None
}

/// A hierarchical timer wheel with deterministic `(time, seq)` ordering.
///
/// Drop-in priority-queue replacement for a `BinaryHeap` keyed on
/// `(SimTime, push order)`: [`push`](CalendarWheel::push) buffers an item
/// for a given instant, [`pop`](CalendarWheel::pop) returns items in
/// non-decreasing time order with FIFO tie-breaking for equal times. See the
/// [module docs](self) for the layout and the ordering argument.
pub struct CalendarWheel<T> {
    levels: [Level; LEVELS],
    overflow: BinaryHeap<MinKey>,
    /// Keys at or behind the cursor, sorted **descending** by `(at, seq)`:
    /// the back is the minimum, so a pop is `O(1)` with no shifting.
    batch: Vec<Key>,
    /// Keys pushed at or behind the cursor after the batch was formed.
    /// Usually empty or a handful deep; pops take the smaller of
    /// `batch.last()` and `late.peek()`.
    late: BinaryHeap<MinKey>,
    /// Parked payloads; `Key::idx` points here.
    items: Vec<Option<T>>,
    /// Recycled `items` indices.
    free: Vec<u32>,
    /// Absolute level-0 slot index the wheel has drained up to.
    cursor: u64,
    next_seq: u64,
    len: usize,
}

impl<T> Default for CalendarWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> CalendarWheel<T> {
    /// Creates an empty wheel with its cursor at time zero.
    pub fn new() -> Self {
        CalendarWheel {
            levels: [Level::new(), Level::new(), Level::new()],
            overflow: BinaryHeap::new(),
            batch: Vec::new(),
            late: BinaryHeap::new(),
            items: Vec::new(),
            free: Vec::new(),
            cursor: 0,
            next_seq: 0,
            len: 0,
        }
    }

    /// Number of buffered items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no items are buffered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Buffers `item` to pop at `at`. Items pushed for the same instant pop
    /// in push order.
    pub fn push(&mut self, at: SimTime, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let idx = match self.free.pop() {
            Some(idx) => {
                self.items[idx as usize] = Some(item);
                idx
            }
            None => {
                self.items.push(Some(item));
                (self.items.len() - 1) as u32
            }
        };
        self.place(Key {
            at: at.as_micros(),
            seq,
            idx,
        });
    }

    /// Removes and returns the earliest item, with the instant it was
    /// scheduled for.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        if !self.ensure_ready_until(None) {
            return None;
        }
        Some(self.take_min())
    }

    /// Like [`pop`](CalendarWheel::pop), but leaves the queue untouched and
    /// returns `None` if the earliest item is scheduled after `deadline`.
    ///
    /// The internal cursor advances **no further than the deadline's
    /// slot**. This matters for throughput, not correctness: a run loop
    /// that drains to a deadline and then schedules near-future work keeps
    /// that work on the O(1) wheel path instead of overshooting the cursor
    /// to the next far-future event and forcing every subsequent push
    /// through the late heap.
    pub fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<(SimTime, T)> {
        if !self.ensure_ready_until(Some(deadline.as_micros() >> SLOT_BITS)) {
            return None;
        }
        if self.min_key().at > deadline.as_micros() {
            return None;
        }
        Some(self.take_min())
    }

    /// The instant of the earliest buffered item. Advances the internal
    /// cursor (hence `&mut`), but removes nothing.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if !self.ensure_ready_until(None) {
            return None;
        }
        Some(SimTime::from_micros(self.min_key().at))
    }

    /// The instant of the earliest buffered item, if it is due at or
    /// before `deadline`; like [`peek_time`](CalendarWheel::peek_time) but
    /// with the cursor bounded by the deadline's slot (see
    /// [`pop_at_or_before`](CalendarWheel::pop_at_or_before)).
    pub fn next_at_or_before(&mut self, deadline: SimTime) -> Option<SimTime> {
        if !self.ensure_ready_until(Some(deadline.as_micros() >> SLOT_BITS)) {
            return None;
        }
        let at = self.min_key().at;
        (at <= deadline.as_micros()).then(|| SimTime::from_micros(at))
    }

    /// The smallest ready key. Callers must have seen
    /// [`ensure_ready_until`](Self::ensure_ready_until) return true.
    #[inline]
    fn min_key(&self) -> Key {
        match (self.batch.last(), self.late.peek()) {
            (Some(&b), Some(l)) => {
                if l.0.rank() < b.rank() {
                    l.0
                } else {
                    b
                }
            }
            (Some(&b), None) => b,
            (None, Some(l)) => l.0,
            (None, None) => unreachable!("ensure_ready guarantees a ready key"),
        }
    }

    /// Removes the smallest ready key and unparks its payload.
    #[inline]
    fn take_min(&mut self) -> (SimTime, T) {
        let key = match (self.batch.last(), self.late.peek()) {
            (Some(&b), Some(l)) if l.0.rank() < b.rank() => self.late.pop().expect("peeked").0,
            (Some(_), _) => self.batch.pop().expect("checked"),
            (None, Some(_)) => self.late.pop().expect("peeked").0,
            (None, None) => unreachable!("ensure_ready guarantees a ready key"),
        };
        let item = self.items[key.idx as usize]
            .take()
            .expect("key points at a parked payload");
        self.free.push(key.idx);
        self.len -= 1;
        (SimTime::from_micros(key.at), item)
    }

    /// Routes a key to the late heap, a wheel slot, or the overflow heap,
    /// according to where its slot lies relative to the cursor.
    fn place(&mut self, key: Key) {
        let s0 = key.at >> SLOT_BITS;
        if s0 <= self.cursor {
            // At or behind the cursor: ready now, ahead of every slot.
            self.late.push(MinKey(key));
            return;
        }
        for (l, level) in self.levels.iter_mut().enumerate() {
            let parent_shift = LEVEL_BITS * (l as u32 + 1);
            if (s0 >> parent_shift) == (self.cursor >> parent_shift) {
                let idx = ((s0 >> (LEVEL_BITS * l as u32)) & SLOT_MASK) as usize;
                set_bit(&mut level.occupied, idx);
                level.slots[idx].push(key);
                return;
            }
        }
        self.overflow.push(MinKey(key));
    }

    /// Advances the cursor until some key is ready (returns true) or it is
    /// proven that no buffered key lives at a level-0 slot `<= limit`
    /// (returns false). With `limit: None` the scan is unbounded and
    /// `false` means the wheel is empty.
    ///
    /// In the bounded-stop case the cursor parks exactly at `limit`: every
    /// slot up to `limit` has been drained or shown unoccupied, so both
    /// ordering invariants keep holding, and later pushes beyond the
    /// deadline take the normal wheel path instead of the late heap.
    fn ensure_ready_until(&mut self, limit: Option<u64>) -> bool {
        loop {
            if !self.batch.is_empty() || !self.late.is_empty() {
                return true;
            }
            if limit.is_some_and(|lim| lim < self.cursor) {
                // Everything at or before the limit was already drained.
                return false;
            }
            // Level 0: drain the next occupied slot in the current window.
            let from = (self.cursor & SLOT_MASK) as usize;
            if let Some(idx) = find_set(&self.levels[0].occupied, from) {
                let candidate = (self.cursor & !SLOT_MASK) | idx as u64;
                if let Some(lim) = limit {
                    if candidate > lim {
                        // Nothing occupied in (cursor, lim]; lim is in this
                        // same level-0 window, so no upper level covers it.
                        self.cursor = lim;
                        return false;
                    }
                }
                self.cursor = candidate;
                clear_bit(&mut self.levels[0].occupied, idx);
                // The batch is empty, so swap the slot's keys straight in:
                // the batch's old capacity parks in the slot for its next
                // fill — the slots double as the batch's free list.
                std::mem::swap(&mut self.batch, &mut self.levels[0].slots[idx]);
                self.batch
                    .sort_unstable_by_key(|k| std::cmp::Reverse(k.rank()));
                continue;
            }
            if let Some(lim) = limit {
                if (lim >> LEVEL_BITS) == (self.cursor >> LEVEL_BITS) {
                    // Level 0 is empty through the end of this window and
                    // the limit lies inside it: park and stop.
                    self.cursor = lim;
                    return false;
                }
            }
            // Levels 1..: cascade the next occupied slot down one level.
            let mut cascaded = false;
            for l in 1..LEVELS {
                let shift = LEVEL_BITS * l as u32;
                let cl = ((self.cursor >> shift) & SLOT_MASK) as usize;
                debug_assert!(
                    self.levels[l].occupied[cl / 64] & (1 << (cl % 64)) == 0,
                    "cursor's own upper-level slot must already be drained"
                );
                if let Some(idx) = find_set(&self.levels[l].occupied, cl + 1) {
                    let high = (self.cursor >> (shift + LEVEL_BITS)) << (shift + LEVEL_BITS);
                    let candidate = high | ((idx as u64) << shift);
                    if let Some(lim) = limit {
                        if candidate > lim {
                            // The next occupied region starts after the
                            // limit; every level below is already empty.
                            self.cursor = lim;
                            return false;
                        }
                    }
                    self.cursor = candidate;
                    clear_bit(&mut self.levels[l].occupied, idx);
                    let mut slot = std::mem::take(&mut self.levels[l].slots[idx]);
                    for key in slot.drain(..) {
                        self.place(key);
                    }
                    self.levels[l].slots[idx] = slot;
                    cascaded = true;
                    break;
                }
                if let Some(lim) = limit {
                    let parent = shift + LEVEL_BITS;
                    if (lim >> parent) == (self.cursor >> parent) {
                        // This level is empty through the end of its window
                        // and the limit lies inside it.
                        self.cursor = lim;
                        return false;
                    }
                }
            }
            if cascaded {
                continue;
            }
            // All levels empty: jump to the overflow's earliest block and
            // pull every overflow key of that block into the wheel.
            if let Some(head) = self.overflow.peek() {
                let top_shift = LEVEL_BITS * LEVELS as u32;
                let s0 = head.0.at >> SLOT_BITS;
                debug_assert!(s0 >= self.cursor, "overflow behind the cursor");
                if let Some(lim) = limit {
                    if s0 > lim {
                        // Park for the deadline, but never inside the
                        // head's block: once the cursor shares a block
                        // with an overflow key, later pushes land in the
                        // levels and a cascade could overtake the head
                        // without pulling it. The levels are provably
                        // empty here, so stopping short of `lim` at the
                        // block boundary is safe.
                        let block_start = (s0 >> top_shift) << top_shift;
                        self.cursor = lim.min(block_start.saturating_sub(1));
                        return false;
                    }
                }
                self.cursor = s0;
                let top_shift = LEVEL_BITS * LEVELS as u32;
                let block = s0 >> top_shift;
                while let Some(head) = self.overflow.peek() {
                    if (head.0.at >> SLOT_BITS) >> top_shift != block {
                        break;
                    }
                    let MinKey(key) = self.overflow.pop().expect("peeked");
                    self.place(key);
                }
                continue;
            }
            // Completely empty. Park at the limit, if any, so near-future
            // pushes land ahead of the cursor.
            if let Some(lim) = limit {
                self.cursor = lim;
            }
            return false;
        }
    }
}

impl<T> std::fmt::Debug for CalendarWheel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CalendarWheel")
            .field("len", &self.len)
            .field("cursor", &self.cursor)
            .field("batch", &self.batch.len())
            .field("late", &self.late.len())
            .field("overflow", &self.overflow.len())
            .field("slab", &self.items.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::SimDuration;

    fn ms(n: u64) -> SimTime {
        SimTime::from_micros(n * 1_000)
    }

    #[test]
    fn pops_in_time_order() {
        let mut w = CalendarWheel::new();
        w.push(SimTime::from_micros(30), 'c');
        w.push(SimTime::from_micros(10), 'a');
        w.push(SimTime::from_micros(20), 'b');
        let order: Vec<char> = std::iter::from_fn(|| w.pop()).map(|(_, c)| c).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
        assert!(w.is_empty());
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut w = CalendarWheel::new();
        for tag in 0..50u64 {
            w.push(ms(100), tag);
        }
        let tags: Vec<u64> = std::iter::from_fn(|| w.pop()).map(|(_, t)| t).collect();
        assert_eq!(tags, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn slot_cascade_preserves_order() {
        // One entry per level plus interleaved near entries: a level-1
        // entry (~300 ms) and a level-2 entry (~70 s) must cascade down
        // and interleave correctly with level-0 entries.
        let mut w = CalendarWheel::new();
        w.push(ms(70_000), "l2");
        w.push(ms(300), "l1");
        w.push(ms(1), "l0");
        w.push(ms(250), "l0-late");
        w.push(ms(69_999), "l1-after-cascade");
        let order: Vec<&str> = std::iter::from_fn(|| w.pop()).map(|(_, s)| s).collect();
        assert_eq!(order, vec!["l0", "l0-late", "l1", "l1-after-cascade", "l2"]);
    }

    #[test]
    fn far_future_overflow() {
        // Beyond the level-2 horizon (~4.8 h) entries go to the overflow
        // heap and still pop in order.
        let mut w = CalendarWheel::new();
        let five_hours = SimTime::ZERO + SimDuration::from_secs(5 * 3600);
        let six_hours = SimTime::ZERO + SimDuration::from_secs(6 * 3600);
        w.push(six_hours, "later");
        w.push(five_hours, "far");
        w.push(ms(5), "near");
        assert_eq!(w.len(), 3);
        assert_eq!(w.pop().map(|(_, s)| s), Some("near"));
        assert_eq!(w.pop(), Some((five_hours, "far")));
        assert_eq!(w.pop(), Some((six_hours, "later")));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn push_behind_cursor_after_peek() {
        // Peeking at a far entry advances the cursor; a later push for an
        // earlier instant must still pop first.
        let mut w = CalendarWheel::new();
        w.push(ms(500), "far");
        assert_eq!(w.peek_time(), Some(ms(500)));
        w.push(ms(20), "early");
        w.push(ms(20), "early-2");
        assert_eq!(w.pop().map(|(_, s)| s), Some("early"));
        assert_eq!(w.pop().map(|(_, s)| s), Some("early-2"));
        assert_eq!(w.pop().map(|(_, s)| s), Some("far"));
    }

    #[test]
    fn pop_at_or_before_respects_deadline() {
        let mut w = CalendarWheel::new();
        w.push(ms(10), 1u32);
        w.push(ms(30), 2u32);
        assert_eq!(
            w.pop_at_or_before(ms(20)),
            Some((ms(10), 1))
        );
        assert_eq!(w.pop_at_or_before(ms(20)), None);
        assert_eq!(w.len(), 1);
        assert_eq!(
            w.pop_at_or_before(ms(30)),
            Some((ms(30), 2))
        );
    }

    #[test]
    fn slab_recycles_freed_indices() {
        // Steady-state churn must not grow the payload slab: every pop
        // frees its slot for the next push.
        let mut w = CalendarWheel::new();
        for round in 0..10_000u64 {
            w.push(SimTime::from_micros(round * 100), [round; 4]);
            let (_, item) = w.pop().expect("just pushed");
            assert_eq!(item, [round; 4]);
        }
        assert!(w.is_empty());
        assert_eq!(w.items.len(), 1, "churn must reuse the single slab slot");
    }

    #[test]
    fn randomized_against_sorted_oracle() {
        // Heap-free oracle: collect (at, seq) keys, sort, and require the
        // wheel to pop in exactly that order — across several seeds, with
        // horizons spanning all levels and the overflow, and with pushes
        // interleaved mid-drain (always at or after the last popped time,
        // matching the simulation's monotone-clock contract).
        for seed in 0..8u64 {
            let mut rng = SimRng::new(seed);
            let mut w = CalendarWheel::new();
            let mut expected: Vec<(u64, u64)> = Vec::new();
            let mut seq = 0u64;
            let mut push = |w: &mut CalendarWheel<u64>, expected: &mut Vec<(u64, u64)>, at: u64| {
                w.push(SimTime::from_micros(at), seq);
                expected.push((at, seq));
                seq += 1;
            };
            for _ in 0..500 {
                // Mix of horizons: sub-slot, level 0, level 1, level 2, overflow.
                let at = match rng.range(0, 5) {
                    0 => rng.range(0, 1_000),
                    1 => rng.range(0, 260_000),
                    2 => rng.range(0, 60_000_000),
                    3 => rng.range(0, 4 * 3_600_000_000),
                    _ => rng.range(0, 20 * 3_600_000_000),
                };
                push(&mut w, &mut expected, at);
            }
            // Drain half, interleaving monotone pushes.
            let mut popped: Vec<(u64, u64)> = Vec::new();
            for _ in 0..250 {
                let (at, item) = w.pop().expect("wheel has entries");
                popped.push((at.as_micros(), item));
                if rng.range(0, 3) == 0 {
                    let delta = rng.range(0, 3_600_000_000);
                    push(&mut w, &mut expected, at.as_micros() + delta);
                }
            }
            while let Some((at, item)) = w.pop() {
                popped.push((at.as_micros(), item));
            }
            // The oracle: all keys in (at, seq) order. Interleaved pushes
            // were >= the pop time at which they were made, so the already
            // popped prefix is unaffected.
            expected.sort_unstable();
            assert_eq!(popped, expected, "seed {seed}");
            assert!(w.is_empty());
        }
    }

    #[test]
    fn bounded_pops_against_sorted_oracle() {
        // Epoch-stepped drains with far-horizon pushes. This is the
        // regression net for cursor parking around overflow blocks: the
        // deadlines sweep the clock across several 2^34 µs top-level
        // blocks while keys sit in the overflow heap, and the cursor
        // must never park past an overflow key it has not pulled.
        for seed in 0..6u64 {
            let mut rng = SimRng::new(seed);
            let mut w = CalendarWheel::new();
            let mut oracle: Vec<(u64, u64)> = Vec::new();
            let mut popped: Vec<(u64, u64)> = Vec::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            let push = |w: &mut CalendarWheel<u64>,
                        oracle: &mut Vec<(u64, u64)>,
                        seq: &mut u64,
                        at: u64| {
                w.push(SimTime::from_micros(at), *seq);
                oracle.push((at, *seq));
                *seq += 1;
            };
            for epoch in 1..3_000u64 {
                // 20 s epochs: ~16 simulated hours, several block
                // boundaries.
                let deadline = epoch * 20_000_000;
                for _ in 0..rng.range(0, 4) {
                    let dt = match rng.range(0, 12) {
                        0..=5 => rng.range(0, 2_000),
                        6..=7 => rng.range(0, 60_000),
                        8 => rng.range(0, 10_000_000),
                        9 => rng.range(0, 4_000_000_000),
                        10 => rng.range(60_000_000, 40_000_000_000),
                        _ => 0,
                    };
                    push(&mut w, &mut oracle, &mut seq, now + dt);
                }
                while let Some((at, item)) =
                    w.pop_at_or_before(SimTime::from_micros(deadline))
                {
                    now = at.as_micros();
                    popped.push((now, item));
                    if rng.range(0, 4) == 0 {
                        let dt = rng.range(0, 30_000_000_000);
                        push(&mut w, &mut oracle, &mut seq, now + dt);
                    }
                }
                now = deadline;
            }
            while let Some((at, item)) = w.pop() {
                popped.push((at.as_micros(), item));
            }
            oracle.sort_unstable();
            assert_eq!(popped, oracle, "seed {seed}");
            assert!(w.is_empty());
        }
    }

    #[test]
    fn len_tracks_push_pop() {
        let mut w = CalendarWheel::new();
        assert!(w.is_empty());
        for i in 0..10 {
            w.push(ms(i * 7), i);
        }
        assert_eq!(w.len(), 10);
        w.pop();
        w.pop();
        assert_eq!(w.len(), 8);
    }
}
