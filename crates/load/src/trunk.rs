//! Partition-tolerant inter-shard trunks.
//!
//! The [`Mailbox`](crate::mailbox::Mailbox) of PR 2 assumed the
//! inter-VMSC trunks between shards never lose, duplicate, reorder or
//! partition traffic. [`TrunkFabric`] removes that assumption: it wraps
//! the epoch barrier with a **reliable sequenced protocol** — per
//! `(src, dst)` sequence numbers, a retransmit queue driven by the
//! deterministic [`Backoff`] ladder, duplicate-suppression windows and
//! in-order release — and injects the seeded per-shard-pair chaos
//! compiled by [`vgprs_faults::compile_trunk_plan`].
//!
//! Determinism is structural, not defensive: every fabric step runs on
//! the barrier (single-threaded, shards iterated in index order), every
//! chaos decision is a **stateless draw** from
//! `(seed, src, dst, seq, attempt)` — no mutable RNG whose consumption
//! order could drift — and retransmit deadlines quantize to epoch
//! boundaries. The same configuration therefore produces bit-identical
//! delivery streams at every `--threads`.
//!
//! When the trunk plan is empty the fabric is **disarmed**: `post` and
//! `take_inbox` reproduce the bare mailbox byte for byte (same delivery
//! order, same HLR-directory observation point, zero extra counters), so
//! a zero-intensity plan matches the fault-free fingerprint exactly.
//!
//! Failure semantics mirror an SS7 trunk group:
//!
//! * a flit that exhausts its retransmission ladder is **abandoned**:
//!   the receiver is resynchronized past the hole (later flits release)
//!   and the *sender* shard gets a [`Flit::TrunkExpired`] naming the
//!   casualty, so a mid-ladder Figure 9 handoff resolves by supervised
//!   teardown with a q850 cause instead of hanging forever;
//! * when the last partition window on a pair closes, both ends get a
//!   [`Flit::TrunkHeal`] and re-route the legs they tore down — the
//!   heal-to-recovery delay is a fingerprinted KPI.

use std::collections::{BTreeMap, BTreeSet};

use vgprs_faults::{mix_salt, TrunkFaultClass, TrunkPlan, TrunkPlanConfig, compile_trunk_plan};
use vgprs_sim::{Backoff, SimDuration, SimRng, Stats};

use crate::mailbox::{Envelope, Flit, HlrDirectory};

/// Salt for per-transmission drop/duplicate/reorder decisions.
const SALT_XMIT: u64 = 0x01;
/// Salt for per-transmission duplication decisions.
const SALT_DUP: u64 = 0x02;
/// Salt for per-transmission reorder decisions.
const SALT_REORDER: u64 = 0x03;
/// Salt for ack-return drop decisions.
const SALT_ACK: u64 = 0x04;

/// The retransmission ladder every trunk channel runs: first retry after
/// two epochs, doubling to a 1.6 s cap, six attempts — a ~4.7 s budget,
/// so a short partition recovers by retransmission while a long one
/// exhausts deterministically into supervised teardown.
pub fn retransmit_backoff() -> Backoff {
    Backoff {
        base: SimDuration::from_millis(100),
        factor: 2,
        cap: SimDuration::from_millis(1_600),
        max_attempts: 6,
    }
}

/// Sender half of one directed `(src, dst)` trunk channel.
#[derive(Debug, Default)]
struct TxChannel {
    /// Next sequence number to assign.
    next_seq: u64,
    /// Unacknowledged flits by sequence number.
    unacked: BTreeMap<u64, Pending>,
}

/// One unacknowledged flit awaiting cumulative ack or exhaustion.
#[derive(Debug)]
struct Pending {
    flit: Flit,
    /// Retransmissions performed so far.
    attempt: u32,
    /// Absolute ms when the next retransmission is due.
    due_ms: u64,
}

/// Receiver half of one directed `(src, dst)` trunk channel.
#[derive(Debug, Default)]
struct RxChannel {
    /// Lowest sequence number not yet released in order.
    next_expected: u64,
    /// Out-of-order arrivals awaiting the gap to fill.
    buffer: BTreeMap<u64, Flit>,
}

/// One partition window on the heal schedule. `window` indexes the
/// pair's plan, so the schedule holds no copy of the window itself.
struct PartitionWindow {
    at_ms: u64,
    end_ms: u64,
    pair: u32,
    window: u32,
}

/// A pair the heal step is watching: it has an opened partition window
/// that has not yet ended, or it was partitioned at the last barrier.
#[derive(Default)]
struct Watch {
    /// Opened partition windows, as indices into the pair's plan.
    windows: Vec<u32>,
    /// Latest end among them.
    until_ms: u64,
    /// Was the pair partitioned (level > 0) at the previous barrier?
    partitioned: bool,
}

/// One transmission staged for delivery at the current barrier.
struct Staged {
    src: usize,
    dst: usize,
    seq: u64,
    flit: Flit,
    /// Reorder chaos: shuffled behind this barrier's other deliveries.
    delayed: bool,
}

/// The epoch-barrier trunk layer: the bare mailbox when disarmed, the
/// reliable sequenced protocol plus chaos injection when a trunk plan is
/// in force.
pub struct TrunkFabric {
    shards: usize,
    seed: u64,
    armed: bool,
    backoff: Backoff,
    /// Per unordered pair, indexed `a * shards + b` (a < b); empty when
    /// disarmed.
    plans: Vec<TrunkPlan>,
    /// Every partition window of every pair, sorted by start.
    heal_schedule: Vec<PartitionWindow>,
    /// Schedule entries before this index have opened.
    next_window: usize,
    /// Pairs whose partition level can change or has just changed, by
    /// pair index; every other pair is unpartitioned.
    watched: BTreeMap<usize, Watch>,
    inboxes: Vec<Vec<(usize, Flit)>>,
    tx: BTreeMap<(usize, usize), TxChannel>,
    rx: BTreeMap<(usize, usize), RxChannel>,
    /// Retransmission deadlines `(due_ms, src, dst, seq)`. Acks leave
    /// stale entries behind; an entry counts only while its `Pending`
    /// still exists with that `due_ms`.
    due: BTreeSet<(u64, usize, usize, u64)>,
    /// Unacknowledged flits across every `tx` channel.
    unacked: usize,
    /// Out-of-order arrivals across every `rx` buffer.
    buffered: usize,
    /// Transmissions staged by `post` for this barrier's `seal`.
    staged: Vec<Staged>,
    /// Cumulative acks generated at the previous barrier, applied at the
    /// next (the one-epoch return trip of a real trunk).
    acks: Vec<(usize, usize, u64)>,
    /// Transport KPIs, merged into the run report only when armed.
    stats: Stats,
    now_ms: u64,
}

impl TrunkFabric {
    /// Builds the fabric. With a zero-intensity (or absent) trunk config
    /// the fabric is disarmed and behaves exactly like the bare mailbox.
    pub fn new(shards: usize, seed: u64, cfg: &TrunkPlanConfig, window_secs: u64) -> Self {
        let mut plans = Vec::new();
        if shards > 1 && !cfg.is_off() && window_secs > 0 {
            plans = vec![TrunkPlan::default(); shards * shards];
            for a in 0..shards {
                for b in (a + 1)..shards {
                    plans[a * shards + b] = compile_trunk_plan(cfg, seed, a, b, window_secs);
                }
            }
        }
        Self::from_plans(shards, seed, plans)
    }

    /// Builds the fabric from compiled pair plans indexed
    /// `a * shards + b` (a < b). An empty `plans` disarms it.
    fn from_plans(shards: usize, seed: u64, plans: Vec<TrunkPlan>) -> Self {
        let mut heal_schedule: Vec<PartitionWindow> = plans
            .iter()
            .enumerate()
            .flat_map(|(pair, plan)| {
                plan.windows
                    .iter()
                    .enumerate()
                    .filter(|(_, w)| w.class == TrunkFaultClass::Partition)
                    .map(move |(window, w)| PartitionWindow {
                        at_ms: w.at_ms,
                        end_ms: w.at_ms.saturating_add(w.duration_ms),
                        pair: pair as u32,
                        window: window as u32,
                    })
            })
            .collect();
        heal_schedule.sort_by_key(|w| w.at_ms);
        TrunkFabric {
            shards,
            seed,
            armed: !plans.is_empty(),
            backoff: retransmit_backoff(),
            plans,
            heal_schedule,
            next_window: 0,
            watched: BTreeMap::new(),
            inboxes: (0..shards).map(|_| Vec::new()).collect(),
            tx: BTreeMap::new(),
            rx: BTreeMap::new(),
            due: BTreeSet::new(),
            unacked: 0,
            buffered: 0,
            staged: Vec::new(),
            acks: Vec::new(),
            stats: Stats::new(),
            now_ms: 0,
        }
    }

    /// True when the reliable protocol (and chaos) is in force.
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// Transport KPIs accumulated so far (empty when disarmed).
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The pair plan governing traffic between `a` and `b`.
    fn plan(&self, a: usize, b: usize) -> &TrunkPlan {
        let (a, b) = if a < b { (a, b) } else { (b, a) };
        &self.plans[a * self.shards + b]
    }

    /// Stateless uniform draw for one chaos decision. Pure function of
    /// the identifiers, so a retransmission rolls fresh dice while the
    /// same transmission always rolls the same ones.
    fn draw(&self, kind: u64, src: usize, dst: usize, seq: u64, attempt: u32) -> f64 {
        let stream = mix_salt(
            mix_salt(mix_salt(mix_salt(kind, src as u64), dst as u64), seq),
            attempt as u64,
        );
        SimRng::derive(self.seed, stream).uniform()
    }

    /// Attempts one transmission of `(src → dst, seq)` under the pair's
    /// chaos levels at the current barrier, staging it on survival.
    fn transmit(&mut self, src: usize, dst: usize, seq: u64, attempt: u32, flit: &Flit) {
        let plan = self.plan(src, dst);
        let p_part = plan.level_at(TrunkFaultClass::Partition, self.now_ms);
        let p_loss = plan.level_at(TrunkFaultClass::Loss, self.now_ms);
        let p_dup = plan.level_at(TrunkFaultClass::Dup, self.now_ms);
        let p_reorder = plan.level_at(TrunkFaultClass::Reorder, self.now_ms);
        // One draw decides drop; the partition claims the low range so
        // attribution, like the combined probability, is monotone in
        // intensity.
        let u = self.draw(SALT_XMIT, src, dst, seq, attempt);
        let p_drop = 1.0 - (1.0 - p_part) * (1.0 - p_loss);
        if u < p_drop {
            if u < p_part {
                self.stats.count("trunk.drops_partition");
            } else {
                self.stats.count("trunk.drops_loss");
            }
            return;
        }
        let delayed = self.draw(SALT_REORDER, src, dst, seq, attempt) < p_reorder;
        if delayed {
            self.stats.count("trunk.reordered");
        }
        self.staged.push(Staged { src, dst, seq, flit: clone_flit(flit), delayed });
        if self.draw(SALT_DUP, src, dst, seq, attempt) < p_dup {
            self.stats.count("trunk.dup_injected");
            self.staged.push(Staged { src, dst, seq, flit: clone_flit(flit), delayed });
        }
    }

    /// Posts one shard's epoch output. **Must** be called in ascending
    /// `from_shard` order within a barrier, like `Mailbox::post`.
    ///
    /// Disarmed, this *is* `Mailbox::post` plus the historical
    /// post-time HLR observation. Armed, each envelope gets the next
    /// sequence number on its directed channel, joins the retransmit
    /// queue and rolls its first transmission's dice; the directory is
    /// observed at *delivery* instead, so HLR ownership reflects what
    /// actually arrived.
    pub fn post(&mut self, from_shard: usize, envelopes: Vec<Envelope>, directory: &mut HlrDirectory) {
        if !self.armed {
            for env in envelopes {
                directory.observe(from_shard, &env);
                self.inboxes[env.to_shard].push((from_shard, env.flit));
            }
            return;
        }
        for env in envelopes {
            let dst = env.to_shard;
            let chan = self.tx.entry((from_shard, dst)).or_default();
            let seq = chan.next_seq;
            chan.next_seq += 1;
            let due_ms = self.now_ms
                + self.backoff.delay(0).expect("ladder allows a first retry").as_millis();
            chan.unacked.insert(seq, Pending { flit: clone_flit(&env.flit), attempt: 0, due_ms });
            self.due.insert((due_ms, from_shard, dst, seq));
            self.unacked += 1;
            self.transmit(from_shard, dst, seq, 0, &env.flit);
        }
    }

    /// Runs the armed barrier step at `now_ms` (the boundary the epoch
    /// just reached): applies last barrier's acks, retransmits due
    /// flits, resolves exhausted ones, releases arrivals in sequence
    /// order, emits heal notifications and generates this barrier's
    /// acks. A no-op when disarmed.
    pub fn seal(&mut self, now_ms: u64, directory: &mut HlrDirectory) {
        if !self.armed {
            return;
        }
        debug_assert!(now_ms >= self.now_ms, "barrier time went backwards");
        self.now_ms = now_ms;

        // 1. Acks generated at the previous barrier arrive now and
        //    cancel retransmission for everything below them.
        for (src, dst, cum) in std::mem::take(&mut self.acks) {
            if let Some(chan) = self.tx.get_mut(&(src, dst)) {
                let kept = chan.unacked.split_off(&cum);
                self.unacked -= chan.unacked.len();
                chan.unacked = kept;
            }
        }

        // 2. Retransmit what is due, in ascending (src, dst, seq) order.
        //    A flit whose ladder is exhausted is abandoned: the receiver
        //    resynchronizes past the hole and the sender shard is told.
        let mut ripe: Vec<(usize, usize, u64)> = Vec::new();
        while let Some(&(due_ms, src, dst, seq)) = self.due.first() {
            if due_ms > now_ms {
                break;
            }
            self.due.pop_first();
            let live = self
                .tx
                .get(&(src, dst))
                .and_then(|chan| chan.unacked.get(&seq))
                .is_some_and(|pending| pending.due_ms == due_ms);
            if live {
                ripe.push((src, dst, seq));
            }
        }
        ripe.sort_unstable();
        let mut expired: Vec<(usize, usize, u64, Flit)> = Vec::new();
        for (src, dst, seq) in ripe {
            let chan = self.tx.get_mut(&(src, dst)).expect("ripe flits are unacked");
            let pending = chan.unacked.get_mut(&seq).expect("ripe flits are unacked");
            pending.attempt += 1;
            let attempt = pending.attempt;
            match self.backoff.delay(attempt) {
                Some(d) => {
                    pending.due_ms = now_ms + d.as_millis();
                    self.due.insert((pending.due_ms, src, dst, seq));
                    let flit = clone_flit(&pending.flit);
                    self.stats.count("trunk.retransmits");
                    self.transmit(src, dst, seq, attempt, &flit);
                }
                None => {
                    let pending = chan.unacked.remove(&seq).expect("looked up above");
                    self.unacked -= 1;
                    expired.push((src, dst, seq, pending.flit));
                }
            }
        }
        let mut touched: BTreeSet<(usize, usize)> = BTreeSet::new();
        for (src, dst, seq, _) in &expired {
            self.stats.count("trunk.expired");
            // Resynchronize the receiver past the abandoned sequence so
            // buffered later flits release instead of waiting forever.
            let chan = self.rx.entry((*src, *dst)).or_default();
            if chan.next_expected <= *seq {
                chan.next_expected = seq + 1;
                touched.insert((*src, *dst));
                self.buffered -= Self::release(chan, *src, *dst, &mut self.inboxes, directory);
            }
        }

        // 3. Reorder chaos: delayed transmissions slip behind the rest
        //    of the barrier (stable, so everything else keeps its order).
        let mut staged = std::mem::take(&mut self.staged);
        staged.sort_by_key(|s| s.delayed);

        // 4. Receive: duplicate suppression, out-of-order buffering,
        //    in-order release into the destination inbox.
        for s in staged {
            let chan = self.rx.entry((s.src, s.dst)).or_default();
            touched.insert((s.src, s.dst));
            if s.seq < chan.next_expected || chan.buffer.contains_key(&s.seq) {
                self.stats.count("trunk.dup_drops");
                continue;
            }
            if s.seq > chan.next_expected {
                self.stats.observe("trunk.reorder_depth", (s.seq - chan.next_expected) as f64);
            }
            chan.buffer.insert(s.seq, s.flit);
            self.buffered += 1;
            self.buffered -= Self::release(chan, s.src, s.dst, &mut self.inboxes, directory);
        }

        // 5. Abandonment notices to the sender shards, after any
        //    releases the resynchronization produced.
        for (src, dst, _seq, flit) in expired {
            let (call, global, kind) = flit.casualty();
            self.inboxes[src].push((dst, Flit::TrunkExpired { peer: dst, call, global, kind }));
        }

        // 6. Heal edges: the instant a pair's partition level returns to
        //    zero, both ends learn the trunk is back. Only watched pairs
        //    can change level, so only they are evaluated, in ascending
        //    pair order; a pair leaves the watch once it is unpartitioned
        //    and all its opened windows have ended.
        while let Some(w) = self.heal_schedule.get(self.next_window) {
            if w.at_ms > now_ms {
                break;
            }
            let watch = self.watched.entry(w.pair as usize).or_default();
            watch.windows.push(w.window);
            watch.until_ms = watch.until_ms.max(w.end_ms);
            self.next_window += 1;
        }
        let shards = self.shards;
        let (plans, stats, inboxes) = (&self.plans, &mut self.stats, &mut self.inboxes);
        self.watched.retain(|&pair, watch| {
            let windows = &plans[pair].windows;
            let level = watch
                .windows
                .iter()
                .map(|&w| windows[w as usize].level_at(now_ms))
                .fold(0.0, f64::max);
            let partitioned = level > 0.0;
            if watch.partitioned && !partitioned {
                let (a, b) = (pair / shards, pair % shards);
                stats.count("trunk.heals");
                inboxes[a].push((b, Flit::TrunkHeal { peer: b }));
                inboxes[b].push((a, Flit::TrunkHeal { peer: a }));
            }
            watch.partitioned = partitioned;
            partitioned || now_ms < watch.until_ms
        });

        // 7. Cumulative acks for every channel that heard anything this
        //    barrier, subject to reverse-direction chaos, applied at the
        //    next barrier.
        for (src, dst) in touched {
            let cum = self.rx[&(src, dst)].next_expected;
            let plan = self.plan(src, dst);
            let p_part = plan.level_at(TrunkFaultClass::Partition, now_ms);
            let p_loss = plan.level_at(TrunkFaultClass::Loss, now_ms);
            let p_drop = 1.0 - (1.0 - p_part) * (1.0 - p_loss);
            if self.draw(mix_salt(SALT_ACK, now_ms), dst, src, cum, 0) < p_drop {
                self.stats.count("trunk.acks_dropped");
                continue;
            }
            self.acks.push((src, dst, cum));
        }
    }

    /// Releases every in-sequence buffered flit on `(src → dst)` into
    /// the destination inbox, observing the HLR directory at delivery.
    /// Returns how many left the buffer.
    fn release(
        chan: &mut RxChannel,
        src: usize,
        dst: usize,
        inboxes: &mut [Vec<(usize, Flit)>],
        directory: &mut HlrDirectory,
    ) -> usize {
        let mut released = 0;
        while let Some(flit) = chan.buffer.remove(&chan.next_expected) {
            chan.next_expected += 1;
            released += 1;
            directory.observe(src, &Envelope { to_shard: dst, flit: clone_flit(&flit) });
            inboxes[dst].push((src, flit));
        }
        released
    }

    /// Takes everything queued for `shard`, in delivery order.
    pub fn take_inbox(&mut self, shard: usize) -> Vec<(usize, Flit)> {
        std::mem::take(&mut self.inboxes[shard])
    }

    /// Work still owed by the fabric: undelivered inbox entries plus —
    /// when armed — unacknowledged flits, buffered out-of-order
    /// arrivals and in-flight acks. The engine keeps epoching while any
    /// of these remain, so retransmission ladders always resolve.
    pub fn in_flight(&self) -> usize {
        self.inboxes.iter().map(Vec::len).sum::<usize>()
            + self.unacked
            + self.buffered
            + self.acks.len()
    }
}

/// `Flit` is `Clone`, but spelled out so a future non-cloneable payload
/// shows up here instead of deep in the fabric.
fn clone_flit(flit: &Flit) -> Flit {
    flit.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mailbox::{ExpiredKind, Mailbox};
    use vgprs_faults::TrunkPlanConfig;

    const EPOCH: u64 = crate::mailbox::EPOCH_MS;

    fn arrive(to_shard: usize, global: usize) -> Envelope {
        Envelope { to_shard, flit: Flit::Arrive { global } }
    }

    fn directory() -> HlrDirectory {
        HlrDirectory::new(&[(0, 8), (8, 8)])
    }

    /// An armed two-shard fabric whose only pair plan is `window`.
    fn pair_fabric(window: vgprs_faults::TrunkWindow) -> TrunkFabric {
        let mut plans = vec![TrunkPlan::default(); 4];
        plans[1].windows.push(window);
        TrunkFabric::from_plans(2, 42, plans)
    }

    /// Disarmed, the fabric must be byte-for-byte the bare mailbox:
    /// same delivery tuples, same HLR observation point.
    #[test]
    fn disarmed_fabric_matches_bare_mailbox() {
        let mut fabric = TrunkFabric::new(2, 42, &TrunkPlanConfig::all(0.0), 300);
        assert!(!fabric.armed());
        let mut mb = Mailbox::new(2);
        let mut dir_f = directory();
        let mut dir_m = directory();
        let posts = vec![arrive(1, 2), arrive(1, 3)];
        fabric.post(0, posts.clone(), &mut dir_f);
        for env in posts {
            dir_m.observe(0, &env);
            mb.post(0, vec![env]);
        }
        fabric.seal(EPOCH, &mut dir_f);
        assert_eq!(fabric.in_flight(), mb.in_flight());
        let a = fabric.take_inbox(1);
        let b = mb.take_inbox(1);
        assert_eq!(a.len(), b.len());
        for ((fa, xa), (fb, xb)) in a.iter().zip(&b) {
            assert_eq!(fa, fb);
            assert_eq!(format!("{xa:?}"), format!("{xb:?}"));
        }
        assert_eq!(dir_f.owner_of(2), dir_m.owner_of(2));
        assert_eq!(dir_f.relocations(), dir_m.relocations());
    }

    /// Armed but between chaos windows, delivery is next-barrier and
    /// in order, exactly like the bare mailbox.
    #[test]
    fn armed_fabric_delivers_in_order_when_quiet() {
        let mut fabric = TrunkFabric::new(2, 42, &TrunkPlanConfig::all(1.0), 300);
        assert!(fabric.armed());
        let mut dir = directory();
        // t = 0 is before every chaos window (they start at >= 5% of
        // the run), so nothing drops.
        fabric.post(0, vec![arrive(1, 0), arrive(1, 1)], &mut dir);
        fabric.seal(EPOCH, &mut dir);
        let inbox = fabric.take_inbox(1);
        let globals: Vec<usize> = inbox
            .iter()
            .map(|(_, f)| match f {
                Flit::Arrive { global } => *global,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(globals, vec![0, 1]);
        // Delivery-time observation moved ownership.
        assert_eq!(dir.owner_of(0), 1);
        // Ack returns next barrier; after it the channel is clean.
        fabric.seal(2 * EPOCH, &mut dir);
        fabric.seal(3 * EPOCH, &mut dir);
        assert_eq!(fabric.in_flight(), 0, "acked channel must drain");
        assert_eq!(fabric.stats().counter("trunk.retransmits"), 0);
    }

    /// A fabric under a full partition retransmits on the backoff
    /// ladder and, when it exhausts, abandons the flit, notifies the
    /// sender and leaves no pending state behind — the
    /// cancel-during-retransmit / no-leaked-timers property.
    #[test]
    fn exhausted_retransmission_resolves_and_leaks_nothing() {
        // A plan whose partition covers the whole run: one synthetic
        // window, full drop, no ramp.
        let mut fabric = pair_fabric(vgprs_faults::TrunkWindow {
            at_ms: 0,
            duration_ms: u64::MAX / 2,
            class: TrunkFaultClass::Partition,
            level: 1.0,
            ramp_ms: 0,
        });
        let mut dir = directory();
        fabric.post(0, vec![arrive(1, 3)], &mut dir);
        let budget_ms = retransmit_backoff().total_budget().as_millis();
        let mut t = 0;
        while fabric.in_flight() > 0 && t < budget_ms + 10 * EPOCH {
            t += EPOCH;
            fabric.seal(t, &mut dir);
        }
        assert_eq!(fabric.in_flight() , 1, "only the expiry notice may remain");
        let notice = fabric.take_inbox(0);
        assert_eq!(notice.len(), 1);
        match &notice[0].1 {
            Flit::TrunkExpired { peer: 1, call: None, global: Some(3), kind } => {
                assert_eq!(*kind, ExpiredKind::Mobility);
            }
            other => panic!("expected TrunkExpired, got {other:?}"),
        }
        assert_eq!(fabric.stats().counter("trunk.expired"), 1);
        assert_eq!(
            fabric.stats().counter("trunk.retransmits"),
            (retransmit_backoff().max_attempts - 1) as u64,
            "every rung of the ladder must have been climbed"
        );
        // Nothing leaked: no unacked entries, no buffers, no acks.
        assert_eq!(fabric.in_flight(), 0);
        // The HLR never heard about the move — it was never delivered.
        assert_eq!(dir.owner_of(3), 0);
        assert_eq!(dir.relocations(), 0);
    }

    /// An ack arriving while retransmissions are outstanding cancels
    /// the pending entry: no further retransmits, no leaked state.
    #[test]
    fn ack_cancels_outstanding_retransmission() {
        let mut fabric = TrunkFabric::new(2, 42, &TrunkPlanConfig::all(1.0), 300);
        let mut dir = directory();
        fabric.post(0, vec![arrive(1, 5)], &mut dir);
        fabric.seal(EPOCH, &mut dir); // delivered, ack generated
        assert_eq!(fabric.take_inbox(1).len(), 1);
        fabric.seal(2 * EPOCH, &mut dir); // ack applied
        let retransmits = fabric.stats().counter("trunk.retransmits");
        for k in 3..40 {
            fabric.seal(k * EPOCH, &mut dir);
        }
        assert_eq!(
            fabric.stats().counter("trunk.retransmits"),
            retransmits,
            "acked flit kept retransmitting"
        );
        assert_eq!(fabric.in_flight(), 0);
    }

    /// The (time, seq) FIFO contract: whatever the reorder chaos does
    /// within a barrier, a channel's flits are released in exactly the
    /// order they were posted.
    #[test]
    fn reordered_flits_release_in_posted_order() {
        let mut fabric = TrunkFabric::new(2, 7, &TrunkPlanConfig::only(TrunkFaultClass::Reorder, 4.0), 300);
        let mut dir = HlrDirectory::new(&[(0, 64), (64, 64)]);
        let mut released = Vec::new();
        let mut posted = Vec::new();
        let mut next_global = 0usize;
        // Walk the whole run so several reorder windows are crossed.
        for k in 1..=600u64 {
            let mut batch = Vec::new();
            for _ in 0..3 {
                batch.push(arrive(1, next_global % 64));
                posted.push(next_global % 64);
                next_global += 1;
            }
            fabric.post(0, batch, &mut dir);
            fabric.seal(k * EPOCH, &mut dir);
            for (_, flit) in fabric.take_inbox(1) {
                if let Flit::Arrive { global } = flit {
                    released.push(global);
                }
            }
        }
        // Drain the tail.
        for k in 601..=700u64 {
            fabric.seal(k * EPOCH, &mut dir);
            for (_, flit) in fabric.take_inbox(1) {
                if let Flit::Arrive { global } = flit {
                    released.push(global);
                }
            }
        }
        assert!(
            fabric.stats().counter("trunk.reordered") > 0,
            "the reorder windows never fired"
        );
        assert_eq!(released, posted, "in-order release violated");
    }

    /// Duplicate chaos is suppressed at the receiver: each sequence
    /// number is released exactly once.
    #[test]
    fn duplicates_are_suppressed() {
        let mut fabric = TrunkFabric::new(2, 7, &TrunkPlanConfig::only(TrunkFaultClass::Dup, 4.0), 300);
        let mut dir = HlrDirectory::new(&[(0, 64), (64, 64)]);
        let mut released = 0u64;
        let mut posted = 0u64;
        for k in 1..=600u64 {
            fabric.post(0, vec![arrive(1, (k % 64) as usize)], &mut dir);
            posted += 1;
            fabric.seal(k * EPOCH, &mut dir);
            released += fabric.take_inbox(1).len() as u64;
        }
        for k in 601..=700u64 {
            fabric.seal(k * EPOCH, &mut dir);
            released += fabric.take_inbox(1).len() as u64;
        }
        assert!(fabric.stats().counter("trunk.dup_injected") > 0, "dup windows never fired");
        assert!(fabric.stats().counter("trunk.dup_drops") > 0, "no duplicate was suppressed");
        assert_eq!(released, posted, "duplicate escaped suppression");
    }

    /// A heal edge notifies both ends exactly once per closed window.
    #[test]
    fn partition_heal_notifies_both_ends() {
        let mut fabric = pair_fabric(vgprs_faults::TrunkWindow {
            at_ms: 100,
            duration_ms: 200,
            class: TrunkFaultClass::Partition,
            level: 1.0,
            ramp_ms: 50,
        });
        let mut dir = directory();
        for k in 1..=10u64 {
            fabric.seal(k * EPOCH, &mut dir);
        }
        assert_eq!(fabric.stats().counter("trunk.heals"), 1);
        let a: Vec<_> = fabric.take_inbox(0);
        let b: Vec<_> = fabric.take_inbox(1);
        assert!(matches!(a.as_slice(), [(1, Flit::TrunkHeal { peer: 1 })]));
        assert!(matches!(b.as_slice(), [(0, Flit::TrunkHeal { peer: 0 })]));
    }

    /// The heal schedule, the due index and the running counts against a
    /// brute-force reference: every barrier rescans every pair's
    /// partition level and walks every channel, and must agree with the
    /// fabric's heal notifications (per-inbox order included) and with
    /// `in_flight()`.
    #[test]
    fn barrier_bookkeeping_matches_full_rescan() {
        const SHARDS: usize = 8;
        let mut fabric = TrunkFabric::new(SHARDS, 42, &TrunkPlanConfig::all(1.0), 300);
        let mut dir = HlrDirectory::new(&(0..SHARDS).map(|s| (s * 8, 8)).collect::<Vec<_>>());
        let mut was_partitioned = [false; SHARDS * SHARDS];
        let (mut heals, mut max_buffered) = (0u64, 0usize);
        for k in 1..=(360_000 / EPOCH) {
            // Traffic on a rotating set of channels, posted in ascending
            // source order as the engine does.
            for src in 0..SHARDS {
                let dst = (src + 1 + (k as usize % (SHARDS - 1))) % SHARDS;
                let batch = (0..1 + k % 3)
                    .map(|i| arrive(dst, (k as usize + i as usize) % 64))
                    .collect();
                fabric.post(src, batch, &mut dir);
            }
            let t = k * EPOCH;
            fabric.seal(t, &mut dir);

            let mut expected: Vec<Vec<(usize, usize)>> = vec![Vec::new(); SHARDS];
            for a in 0..SHARDS {
                for b in (a + 1)..SHARDS {
                    let idx = a * SHARDS + b;
                    let partitioned =
                        fabric.plans[idx].level_at(TrunkFaultClass::Partition, t) > 0.0;
                    if was_partitioned[idx] && !partitioned {
                        expected[a].push((b, b));
                        expected[b].push((a, a));
                        heals += 1;
                    }
                    was_partitioned[idx] = partitioned;
                }
            }
            let unacked: usize = fabric.tx.values().map(|c| c.unacked.len()).sum();
            let buffered: usize = fabric.rx.values().map(|c| c.buffer.len()).sum();
            let inboxes: usize = fabric.inboxes.iter().map(Vec::len).sum();
            max_buffered = max_buffered.max(buffered);
            assert_eq!(
                fabric.in_flight(),
                inboxes + unacked + buffered + fabric.acks.len(),
                "in_flight diverged at {t} ms"
            );
            for (shard, want) in expected.iter().enumerate() {
                let got: Vec<(usize, usize)> = fabric
                    .take_inbox(shard)
                    .into_iter()
                    .filter_map(|(from, flit)| match flit {
                        Flit::TrunkHeal { peer } => Some((from, peer)),
                        _ => None,
                    })
                    .collect();
                assert_eq!(&got, want, "heals for shard {shard} at {t} ms");
            }
        }
        assert!(heals > 0, "no partition healed");
        assert_eq!(fabric.stats().counter("trunk.heals"), heals);
        assert!(
            fabric.stats().counter("trunk.retransmits") > 0,
            "nothing retransmitted"
        );
        assert!(
            fabric.stats().counter("trunk.expired") > 0,
            "no ladder exhausted"
        );
        assert!(max_buffered > 0, "no out-of-order arrival was buffered");
    }
}
