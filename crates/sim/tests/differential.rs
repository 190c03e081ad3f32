//! Differential oracle: the timer wheel must pop exactly what a
//! reference binary heap pops.
//!
//! The reference is the plainest correct event queue, a
//! `BinaryHeap<Reverse<(at, seq, payload)>>` whose `seq` is a per-queue
//! push counter. One seeded op stream drives the public
//! [`CalendarWheel`] and the reference side by side, with the op mix of
//! a churning node: timers from sub-slot to past the level-2 horizon,
//! zero-delay pushes and jittery message hops. Every pop and every peek
//! must agree, so any break of the `(time, seq)` ordering contract shows
//! as the first op where the two disagree.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use vgprs_load::LoadConfig;
use vgprs_sim::{CalendarWheel, Kernel, SimRng, SimTime};

/// The wheel's level-2 horizon: 2^34 µs (≈4.8 h). Pushes further out
/// than this land in its overflow heap.
const LEVEL2_HORIZON_US: u64 = 1 << 34;

/// Events a run may schedule before it winds down (two churning nodes
/// with a budget of 400 actions each).
const BUDGET: u32 = 800;

/// The reference queue: earliest `(at, seq)` first.
#[derive(Default)]
struct ReferenceHeap {
    heap: BinaryHeap<Reverse<(SimTime, u64, Op)>>,
    next_seq: u64,
}

impl ReferenceHeap {
    fn push(&mut self, at: SimTime, op: Op) {
        self.heap.push(Reverse((at, self.next_seq, op)));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, Op)> {
        self.heap.pop().map(|Reverse((at, _, op))| (at, op))
    }

    fn next_at_or_before(&self, deadline: SimTime) -> Option<SimTime> {
        self.peek_time().filter(|&at| at <= deadline)
    }

    fn pop_at_or_before(&mut self, deadline: SimTime) -> Option<(SimTime, Op)> {
        self.next_at_or_before(deadline)?;
        self.pop()
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }
}

/// What a queued event stands for; the payload both queues carry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Op {
    /// A timer (fires two follow-up actions, like a node's `on_timer`).
    Timer(u32),
    /// A message hop (fires one follow-up action).
    Message(u32),
}

/// The wheel and the reference under one op stream.
struct Pair {
    wheel: CalendarWheel<Op>,
    reference: ReferenceHeap,
    rng: SimRng,
    now: SimTime,
    budget: u32,
    next_id: u32,
    /// Non-vacuity counters: pushes past the level-2 horizon, pushes at
    /// or behind a peeked instant, and bounded drains that stopped with
    /// work still queued.
    far_pushes: u32,
    behind_pushes: u32,
    bounded_stops: u32,
}

impl Pair {
    fn new(seed: u64) -> Self {
        Pair {
            wheel: CalendarWheel::new(),
            reference: ReferenceHeap::default(),
            rng: SimRng::new(seed),
            now: SimTime::ZERO,
            budget: BUDGET,
            next_id: 0,
            far_pushes: 0,
            behind_pushes: 0,
            bounded_stops: 0,
        }
    }

    fn push(&mut self, delay_us: u64, op: fn(u32) -> Op) {
        let op = op(self.next_id);
        self.next_id += 1;
        let at = SimTime::from_micros(self.now.as_micros() + delay_us);
        if delay_us > LEVEL2_HORIZON_US {
            self.far_pushes += 1;
        }
        self.wheel.push(at, op);
        self.reference.push(at, op);
    }

    /// One action of a churning node, drawn from the node's op mix.
    fn act(&mut self) {
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        match self.rng.range(0, 10) {
            // Short horizon: same-slot and near-slot timers.
            0..=3 => {
                let us = self.rng.range(0, 5_000);
                self.push(us, Op::Timer);
            }
            // Medium horizon: level-1 territory.
            4..=5 => {
                let ms = self.rng.range(100, 10_000);
                self.push(ms * 1_000, Op::Timer);
            }
            // Long horizon: level 2 and past it into the overflow.
            6 => {
                let s = self.rng.range(60, 8 * 3_600);
                self.push(s * 1_000_000, Op::Timer);
            }
            // Zero delay: lands in the slot the clock is in.
            7 => self.push(0, Op::Timer),
            // A message over a 3 ms link with 7 ms of jitter.
            _ => {
                let us = 3_000 + self.rng.range(0, 7_000);
                self.push(us, Op::Message);
            }
        }
    }

    /// Moves the clock to a popped event and runs its follow-up actions.
    fn fire(&mut self, at: SimTime, op: Op) {
        assert!(at >= self.now, "time went backwards");
        self.now = at;
        match op {
            Op::Timer(_) => {
                self.act();
                self.act();
            }
            Op::Message(_) => self.act(),
        }
    }

    /// Sometimes peeks ahead, then pushes at or behind the peeked
    /// instant: the wheel's cursor has moved past `now` by then.
    fn peek_then_push_behind(&mut self, peeked: Option<SimTime>) {
        let Some(peeked) = peeked else { return };
        if self.budget == 0 || self.rng.range(0, 4) != 0 {
            return;
        }
        self.budget -= 1;
        let gap = peeked.as_micros() - self.now.as_micros();
        let delay = self.rng.range(0, gap + 1);
        self.behind_pushes += 1;
        self.push(delay, Op::Message);
    }

    fn pop(&mut self, step: usize) -> Option<(SimTime, Op)> {
        let popped = self.wheel.pop();
        assert_eq!(popped, self.reference.pop(), "pop {step} diverged");
        popped
    }

    fn pop_at_or_before(&mut self, deadline: SimTime, step: usize) -> Option<(SimTime, Op)> {
        let popped = self.wheel.pop_at_or_before(deadline);
        assert_eq!(
            popped,
            self.reference.pop_at_or_before(deadline),
            "bounded pop {step} diverged at deadline {deadline}"
        );
        popped
    }

    fn assert_drained(&self) {
        assert!(self.wheel.is_empty());
        assert_eq!(self.reference.peek_time(), None);
    }
}

/// The whole run in one loop: pop until both queues drain.
fn run_to_quiescence(seed: u64) -> Pair {
    let mut pair = Pair::new(seed);
    for _ in 0..8 {
        pair.act();
    }
    for step in 0.. {
        let peeked = pair.wheel.peek_time();
        assert_eq!(peeked, pair.reference.peek_time(), "peek {step} diverged");
        pair.peek_then_push_behind(peeked);
        let Some((at, op)) = pair.pop(step) else {
            break;
        };
        pair.fire(at, op);
    }
    pair.assert_drained();
    pair
}

/// The load engine's drive: 50 ms epochs, each drained through bounded
/// peeks and pops, with the clock set to the deadline at each boundary.
fn run_epoch_stepped(seed: u64) -> Pair {
    let mut pair = Pair::new(seed);
    for _ in 0..8 {
        pair.act();
    }
    let mut step = 0;
    for epoch in 1u64.. {
        let deadline = SimTime::from_micros(epoch * 50_000);
        loop {
            let peeked = pair.wheel.next_at_or_before(deadline);
            assert_eq!(
                peeked,
                pair.reference.next_at_or_before(deadline),
                "bounded peek {step} diverged at deadline {deadline}"
            );
            pair.peek_then_push_behind(peeked);
            let Some((at, op)) = pair.pop_at_or_before(deadline, step) else {
                break;
            };
            pair.fire(at, op);
            step += 1;
        }
        if pair.wheel.is_empty() {
            break;
        }
        pair.bounded_stops += 1;
        pair.now = deadline;
    }
    pair.assert_drained();
    pair
}

#[test]
fn wheel_matches_heap_run_to_quiescence() {
    let mut far = 0;
    let mut behind = 0;
    for seed in 0..6u64 {
        let pair = run_to_quiescence(seed);
        assert_eq!(pair.budget, 0, "seed {seed} wound down early");
        far += pair.far_pushes;
        behind += pair.behind_pushes;
    }
    assert!(far > 0, "no push went past the level-2 horizon");
    assert!(behind > 0, "no push landed behind a peeked instant");
}

#[test]
fn wheel_matches_heap_epoch_stepped() {
    let mut far = 0;
    let mut behind = 0;
    let mut stops = 0;
    for seed in 0..4u64 {
        let pair = run_epoch_stepped(seed);
        assert_eq!(pair.budget, 0, "seed {seed} wound down early");
        far += pair.far_pushes;
        behind += pair.behind_pushes;
        stops += pair.bounded_stops;
    }
    assert!(far > 0, "no push went past the level-2 horizon");
    assert!(behind > 0, "no push landed behind a peeked instant");
    assert!(stops > 0, "no bounded drain stopped with work queued");
}

#[test]
fn wheel_is_the_default_kernel() {
    assert_eq!(LoadConfig::default().kernel, Kernel::Wheel);
}
