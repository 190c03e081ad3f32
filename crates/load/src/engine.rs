//! The sharded parallel driver.
//!
//! The population is partitioned into a fixed number of shards — a pure
//! function of the configuration, never of the machine — and every
//! shard advances through the busy hour in **epoch lockstep**. One crew
//! of worker threads is spawned per run and serves both set-up and
//! every epoch: each round the workers pass a start barrier, pull
//! shards off a shared counter, and pass a done barrier. Between rounds
//! the calling thread alone exchanges cross-shard traffic through the
//! [`Mailbox`](crate::mailbox::Mailbox), routing outboxes in shard index
//! order; delivery happens at epoch boundaries, so the interleaving of
//! inter-shard messages — handoff dialogue, trunk voice, HLR ownership
//! moves — is a function of the configuration and seed alone. Reports
//! are merged in shard order, which makes the KPI output bit-identical
//! for any `--threads`. One thread runs everything inline, with no
//! spawn and no barrier. A panic in a worker reaches the caller of
//! [`run_load`] as a panic and never leaves a barrier waiting.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

use vgprs_faults::{FaultPlanConfig, TrunkPlanConfig};
use vgprs_scenario::{compile_demand, OverloadControls, ScenarioConfig};
use vgprs_sim::Kernel;

use crate::mailbox::{Flit, HlrDirectory, EPOCH_MS};
use crate::population::{subscriber_plan_demand, PopulationConfig, SubscriberPlan};
use crate::report::LoadReport;
use crate::shard::{Shard, ShardConfig, ShardReport};
use crate::trunk::TrunkFabric;

/// Target shard size when the caller lets the engine pick: small enough
/// that one cell's 64 traffic channels see realistic contention, large
/// enough that per-shard fixed cost (two serving areas) amortizes.
const DEFAULT_SHARD_SUBSCRIBERS: usize = 256;

/// A complete load-run configuration.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Total population size.
    pub subscribers: usize,
    /// Shard count; `0` derives one shard per ~256 subscribers.
    /// Changing this changes the simulated world (it is part of the
    /// experiment); changing `threads` never does.
    pub shards: usize,
    /// Worker threads; `0` uses the machine's available parallelism.
    pub threads: usize,
    /// Master seed; every random stream in the run derives from it.
    pub seed: u64,
    /// Population behavior (rates, holds, mix, mobility).
    pub population: PopulationConfig,
    /// Traffic channels per cell.
    pub tch_capacity: usize,
    /// Shared PDCH capacity per cell, bits/second.
    pub pdch_bps: u64,
    /// Gatekeeper admission budget per serving area.
    pub gk_bandwidth: u32,
    /// How long each call's voice is actually sampled; see
    /// [`ShardConfig::voice_sample_ms`].
    pub voice_sample_ms: u64,
    /// Event kernel of every shard network. [`Kernel`] has one value,
    /// the timer wheel, so this field chooses nothing; it stays only
    /// because callers that copy it into a [`ShardConfig`] still build.
    pub kernel: Kernel,
    /// Deterministic fault-injection schedule. The all-off default
    /// compiles to empty plans, and the run is byte-identical to one
    /// without the fault machinery.
    pub faults: FaultPlanConfig,
    /// Deterministic inter-shard trunk chaos (loss, duplication,
    /// reordering, partitions). The all-off default leaves the trunk
    /// fabric disarmed — a bare mailbox — so the run is byte-identical
    /// to one without the reliable-delivery machinery.
    pub trunk: TrunkPlanConfig,
    /// Demand scenario: a daily-profile rate curve plus flash-crowd
    /// shocks, compiled per shard into time-varying arrival plans. The
    /// flat default compiles to empty plans and the run is
    /// byte-identical to one without the scenario machinery.
    pub scenario: ScenarioConfig,
    /// Overload controls (paging throttle, gatekeeper ARJ shedding,
    /// SGSN PDP admission control). All-off by default, which keeps
    /// every node on its historical code path.
    pub controls: OverloadControls,
    /// KPI snapshot cadence in simulated seconds (default 60); `0`
    /// turns time-series sampling off. Sampling is read-only, so the
    /// run's events and fingerprint are identical either way.
    pub snapshot_secs: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            subscribers: 1024,
            shards: 0,
            threads: 0,
            seed: 42,
            population: PopulationConfig::default(),
            tch_capacity: 64,
            pdch_bps: 1_600_000,
            gk_bandwidth: 100_000_000,
            voice_sample_ms: 1_000,
            kernel: Kernel::default(),
            faults: FaultPlanConfig::default(),
            trunk: TrunkPlanConfig::default(),
            scenario: ScenarioConfig::default(),
            controls: OverloadControls::default(),
            snapshot_secs: 60,
        }
    }
}

impl LoadConfig {
    /// The shard count this configuration resolves to.
    pub fn effective_shards(&self) -> usize {
        if self.shards > 0 {
            self.shards.min(self.subscribers.max(1))
        } else {
            self.subscribers.div_ceil(DEFAULT_SHARD_SUBSCRIBERS).max(1)
        }
    }

    /// The worker-thread count this configuration resolves to.
    pub fn effective_threads(&self) -> usize {
        let t = if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        t.min(self.effective_shards()).max(1)
    }
}

/// Partitions `subscribers` into `shards` near-equal contiguous slices
/// and returns each shard's `(base_index, size)`.
pub fn partition(subscribers: usize, shards: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(shards);
    let base_size = subscribers / shards;
    let remainder = subscribers % shards;
    let mut base = 0;
    for s in 0..shards {
        let size = base_size + usize::from(s < remainder);
        out.push((base, size));
        base += size;
    }
    out
}

/// What one crew round does: build every shard (phase 1), or carry
/// every shard through one epoch (phase 2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Round {
    Setup,
    Epoch(u64),
}

/// The state a worker crew shares for one [`with_crew`] call. The start
/// barrier orders the calling thread's writes to `round`, `next` and
/// `stop` before the workers read them, so relaxed atomics suffice.
struct Crew<J> {
    job: J,
    items: usize,
    round: Mutex<Round>,
    next: AtomicUsize,
    stop: AtomicBool,
    start: Barrier,
    done: Barrier,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl<J: Fn(Round, usize) + Sync> Crew<J> {
    /// A worker thread's life: each round it pulls items off the shared
    /// counter until none are left, until `stop`. A panic is caught and
    /// kept (the first one wins) so the worker still reaches the done
    /// barrier and no other thread waits there forever.
    fn work(&self) {
        loop {
            self.start.wait();
            if self.stop.load(Ordering::Relaxed) {
                return;
            }
            let round = *self.round.lock().expect("never held across a panic");
            let result = catch_unwind(AssertUnwindSafe(|| loop {
                let index = self.next.fetch_add(1, Ordering::Relaxed);
                if index >= self.items {
                    break;
                }
                (self.job)(round, index);
            }));
            if let Err(payload) = result {
                self.panic
                    .lock()
                    .expect("never held across a panic")
                    .get_or_insert(payload);
            }
            self.done.wait();
        }
    }

    /// Publishes one round, waits until the workers have carried every
    /// item through it, and re-raises the first panic any of them hit.
    fn run(&self, round: Round) {
        *self.round.lock().expect("never held across a panic") = round;
        self.next.store(0, Ordering::Relaxed);
        self.start.wait();
        self.done.wait();
        if let Some(payload) = self.panic.lock().expect("never held across a panic").take() {
            resume_unwind(payload);
        }
    }
}

/// Hands `drive` a function that runs one [`Round`] of `job` over
/// `items` indices, and returns what `drive` returns.
///
/// With one thread every round runs inline. Otherwise `threads` worker
/// threads are spawned once, for the whole call. Each round passes two
/// barriers: a start wait once the calling thread has published the
/// round and reset the counter, and a done wait once every index was
/// taken. Between rounds the workers sleep in the start wait, so
/// whatever `drive` does between rounds runs alone on the calling
/// thread. A panic in any worker, or in `drive`, releases the workers
/// and then propagates to the caller.
///
/// The calling thread carries no items itself. glibc serves it from its
/// main arena, while a new thread takes over an arena an earlier thread
/// released, memory that thread freed included; a calling thread that
/// also built and ran shards raised the benchmark's peak RSS by 18–29%
/// (EXPERIMENTS.md, "Worker pool: spawn per epoch vs one crew").
fn with_crew<R>(
    threads: usize,
    items: usize,
    job: impl Fn(Round, usize) + Sync,
    drive: impl FnOnce(&dyn Fn(Round)) -> R,
) -> R {
    if threads <= 1 {
        return drive(&|round| (0..items).for_each(|index| job(round, index)));
    }
    let crew = Crew {
        job,
        items,
        round: Mutex::new(Round::Setup),
        next: AtomicUsize::new(0),
        stop: AtomicBool::new(false),
        start: Barrier::new(threads + 1),
        done: Barrier::new(threads + 1),
        panic: Mutex::new(None),
    };
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| crew.work());
        }
        let result = catch_unwind(AssertUnwindSafe(|| drive(&|round| crew.run(round))));
        // Every worker is in its start wait here: a round returns only
        // after its done wait, and a panic leaves `run` after it too.
        crew.stop.store(true, Ordering::Relaxed);
        crew.start.wait();
        result.unwrap_or_else(|payload| resume_unwind(payload))
    })
}

/// A shard plus its barrier-exchange buffers, lockable independently so
/// any worker thread can carry any shard through the current epoch.
struct EpochSlot {
    shard: Shard,
    inbox: Vec<(usize, Flit)>,
    outbox: Vec<crate::mailbox::Envelope>,
}

/// Runs the configured busy hour and returns the merged report.
pub fn run_load(cfg: &LoadConfig) -> LoadReport {
    let shards = cfg.effective_shards();
    let threads = cfg.effective_threads();
    let parts = partition(cfg.subscribers, shards);
    let shard_cfgs: Vec<ShardConfig> = parts
        .iter()
        .enumerate()
        .map(|(index, &(base, size))| ShardConfig {
            shard_index: index,
            base_index: base,
            subscribers: size,
            total_shards: shards,
            master_seed: cfg.seed,
            population: cfg.population.clone(),
            tch_capacity: cfg.tch_capacity,
            pdch_bps: cfg.pdch_bps,
            gk_bandwidth: cfg.gk_bandwidth,
            voice_sample_ms: cfg.voice_sample_ms,
            kernel: cfg.kernel,
            faults: cfg.faults,
            scenario: cfg.scenario.clone(),
            controls: cfg.controls,
            snapshot_secs: cfg.snapshot_secs,
        })
        .collect();

    let started = Instant::now();

    // One crew of workers serves both phases; each round, workers pull
    // shards off a shared counter, so any thread can carry any shard.
    let slots: Vec<Mutex<Option<EpochSlot>>> = (0..shards).map(|_| Mutex::new(None)).collect();
    let job = |round: Round, index: usize| match round {
        Round::Setup => {
            let shard_cfg = &shard_cfgs[index];
            let demand = compile_demand(
                &cfg.scenario,
                cfg.seed,
                shard_cfg.shard_index,
                cfg.population.window_secs,
            );
            let plans: Vec<SubscriberPlan> = (0..shard_cfg.subscribers)
                .map(|i| {
                    subscriber_plan_demand(
                        &cfg.population,
                        &demand,
                        cfg.seed,
                        shard_cfg.base_index + i,
                    )
                })
                .collect();
            *slots[index]
                .lock()
                .expect("no panics while holding the lock") = Some(EpochSlot {
                shard: Shard::new(shard_cfg, &plans),
                inbox: Vec::new(),
                outbox: Vec::new(),
            });
        }
        Round::Epoch(epoch) => {
            let mut s = slots[index]
                .lock()
                .expect("no panics while holding the lock");
            let s = s.as_mut().expect("phase 1 built every shard");
            let inbox = std::mem::take(&mut s.inbox);
            s.outbox = s.shard.run_epoch(epoch, inbox);
        }
    };
    let (fabric, directory) = with_crew(threads, shards, job, |run| {
        // Phase 1: build every shard's world and register its population
        // (parallel; shards are independent until their busy hours start).
        run(Round::Setup);

        // Phase 2: epoch lockstep. Each epoch every busy shard simulates
        // the same window, then the barrier routes cross-shard flits
        // (sent epoch k, delivered epoch k+1) and the HLR directory
        // tracks ownership. The trunk fabric is the barrier's delivery
        // layer: a bare mailbox when the trunk plan is empty, the
        // reliable sequenced protocol (retransmits, dedup, in-order
        // release) under trunk chaos.
        let mut fabric = TrunkFabric::new(shards, cfg.seed, &cfg.trunk, cfg.population.window_secs);
        let mut directory = HlrDirectory::new(&parts);
        let mut epoch: u64 = 0;
        loop {
            let mut busy = fabric.in_flight() > 0;
            let mut cap = 0;
            for (index, slot) in slots.iter().enumerate() {
                let mut s = slot.lock().expect("no panics while holding the lock");
                let s = s.as_mut().expect("phase 1 built every shard");
                s.inbox = fabric.take_inbox(index);
                busy |= s.shard.is_busy() || !s.inbox.is_empty();
                cap = cap.max(s.shard.max_epoch_hint());
            }
            if !busy || epoch > cap {
                // Done — or the runaway backstop tripped, in which case
                // the shards still busy count `load.drain_capped` on
                // finish.
                break;
            }
            run(Round::Epoch(epoch));
            // Barrier: route in shard order so delivery order never
            // depends on which thread finished first. Disarmed, the
            // fabric observes the HLR directory at post time (the
            // historical behavior); armed, ownership is observed at
            // *delivery*, when an Arrive/Depart actually survives the
            // trunk.
            for (index, slot) in slots.iter().enumerate() {
                let mut s = slot.lock().expect("no panics while holding the lock");
                let s = s.as_mut().expect("phase 1 built every shard");
                let outbox = std::mem::take(&mut s.outbox);
                fabric.post(index, outbox, &mut directory);
            }
            fabric.seal((epoch + 1) * EPOCH_MS, &mut directory);
            epoch += 1;
        }
        (fabric, directory)
    });
    let wall = started.elapsed();

    // Phase 3: seal shards in index order and merge.
    let mut reports: Vec<ShardReport> = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("all workers joined")
                .expect("every shard ran")
                .shard
                .finish()
        })
        .collect();
    reports[0]
        .stats
        .count_by("load.hlr_relocations", directory.relocations());
    // Transport KPIs exist only when the fabric was armed; a disarmed
    // run must not even *create* the counters, or its fingerprint would
    // drift from the fault-free baseline.
    if fabric.armed() {
        reports[0].stats.merge(fabric.stats());
    }
    LoadReport::merge(cfg.subscribers, threads, cfg.snapshot_secs, &reports, wall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn partition_covers_everything_contiguously() {
        for (subs, shards) in [(10, 3), (7, 7), (100, 8), (5, 1)] {
            let parts = partition(subs, shards);
            assert_eq!(parts.len(), shards);
            let mut expected_base = 0;
            for (base, size) in &parts {
                assert_eq!(*base, expected_base);
                expected_base += size;
            }
            assert_eq!(expected_base, subs);
            let sizes: Vec<usize> = parts.iter().map(|p| p.1).collect();
            let min = sizes.iter().min().unwrap();
            let max = sizes.iter().max().unwrap();
            assert!(max - min <= 1, "near-equal slices: {sizes:?}");
        }
    }

    /// Runs `f` on a watchdog thread and returns its panic message, so a
    /// deadlocked barrier fails the test instead of hanging it.
    fn panic_message_within_a_minute(what: String, f: impl FnOnce() + Send + 'static) -> String {
        let (tx, rx) = std::sync::mpsc::channel();
        let watched = std::thread::spawn(move || {
            let message = match catch_unwind(AssertUnwindSafe(f)) {
                Ok(()) => "no panic".to_owned(),
                Err(payload) => payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                    .unwrap_or_default(),
            };
            tx.send(message).expect("the test is waiting");
        });
        let message = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .unwrap_or_else(|_| panic!("{what} deadlocked"));
        watched.join().expect("the panic was caught");
        message
    }

    #[test]
    fn crew_propagates_a_worker_panic_without_deadlock() {
        for threads in [1, 2, 8] {
            for panic_round in [Round::Setup, Round::Epoch(2)] {
                let epochs = Arc::new(AtomicUsize::new(0));
                let started = Arc::clone(&epochs);
                let message = panic_message_within_a_minute(
                    format!("a crew of {threads} panicking in {panic_round:?}"),
                    move || {
                        let job = |round: Round, index: usize| {
                            if round == panic_round && index == 3 {
                                panic!("shard 3 failed in {round:?}");
                            }
                        };
                        with_crew(threads, 5, job, |run| {
                            run(Round::Setup);
                            for epoch in 0..4 {
                                started.fetch_add(1, Ordering::Relaxed);
                                run(Round::Epoch(epoch));
                            }
                        });
                    },
                );
                assert_eq!(
                    message,
                    format!("shard 3 failed in {panic_round:?}"),
                    "threads {threads}"
                );
                let expected_epochs = match panic_round {
                    Round::Setup => 0,
                    Round::Epoch(k) => k as usize + 1,
                };
                assert_eq!(
                    epochs.load(Ordering::Relaxed),
                    expected_epochs,
                    "the panic ends the run"
                );
            }
        }
    }

    #[test]
    fn crew_propagates_a_panic_between_rounds() {
        for threads in [1, 2, 8] {
            let message =
                panic_message_within_a_minute(format!("a crew of {threads}"), move || {
                    with_crew(
                        threads,
                        5,
                        |_, _| {},
                        |run| {
                            run(Round::Setup);
                            run(Round::Epoch(0));
                            panic!("routing failed");
                        },
                    );
                });
            assert_eq!(message, "routing failed", "threads {threads}");
        }
    }

    #[test]
    fn shard_count_is_machine_independent() {
        let cfg = LoadConfig {
            subscribers: 10_000,
            ..LoadConfig::default()
        };
        assert_eq!(cfg.effective_shards(), 40);
        let pinned = LoadConfig {
            shards: 3,
            ..cfg.clone()
        };
        assert_eq!(pinned.effective_shards(), 3);
    }
}
