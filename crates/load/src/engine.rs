//! The sharded parallel driver.
//!
//! The population is partitioned into a fixed number of shards — a pure
//! function of the configuration, never of the machine — and every
//! shard advances through the busy hour in **epoch lockstep**: a pool
//! of worker threads pulls shards off a shared counter each epoch, and
//! an epoch barrier exchanges cross-shard traffic through the
//! [`Mailbox`](crate::mailbox::Mailbox). Barrier routing iterates
//! shards in index order and delivery happens at epoch boundaries, so
//! the interleaving of inter-shard messages — handoff dialogue, trunk
//! voice, HLR ownership moves — is a function of the configuration and
//! seed alone. Reports are merged in shard order, which makes the KPI
//! output bit-identical for any `--threads`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
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

/// Runs `worker` on a shared work counter across `threads` threads (or
/// inline when one suffices).
fn run_pool(threads: usize, worker: impl Fn(usize) + Sync) {
    if threads <= 1 {
        worker(0);
    } else {
        std::thread::scope(|scope| {
            for t in 0..threads {
                let worker = &worker;
                scope.spawn(move || worker(t));
            }
        });
    }
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

    // Phase 1: build every shard's world and register its population
    // (parallel; shards are independent until their busy hours start).
    let slots: Vec<Mutex<Option<EpochSlot>>> = (0..shards).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    run_pool(threads, |_t| loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let Some(shard_cfg) = shard_cfgs.get(index) else {
            break;
        };
        let demand = compile_demand(
            &cfg.scenario,
            cfg.seed,
            shard_cfg.shard_index,
            cfg.population.window_secs,
        );
        let plans: Vec<SubscriberPlan> = (0..shard_cfg.subscribers)
            .map(|i| {
                subscriber_plan_demand(&cfg.population, &demand, cfg.seed, shard_cfg.base_index + i)
            })
            .collect();
        *slots[index].lock().expect("no panics while holding the lock") = Some(EpochSlot {
            shard: Shard::new(shard_cfg, &plans),
            inbox: Vec::new(),
            outbox: Vec::new(),
        });
    });

    // Phase 2: epoch lockstep. Each epoch every busy shard simulates the
    // same window, then the barrier routes cross-shard flits (sent epoch
    // k, delivered epoch k+1) and the HLR directory tracks ownership.
    // The trunk fabric is the barrier's delivery layer: a bare mailbox
    // when the trunk plan is empty, the reliable sequenced protocol
    // (retransmits, dedup, in-order release) under trunk chaos.
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
            // Done — or the runaway backstop tripped, in which case the
            // shards still busy count `load.drain_capped` on finish.
            break;
        }
        let next = AtomicUsize::new(0);
        run_pool(threads, |_t| loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(index) else {
                break;
            };
            let mut s = slot.lock().expect("no panics while holding the lock");
            let s = s.as_mut().expect("phase 1 built every shard");
            let inbox = std::mem::take(&mut s.inbox);
            s.outbox = s.shard.run_epoch(epoch, inbox);
        });
        // Barrier: route in shard order so delivery order never depends
        // on which thread finished first. Disarmed, the fabric observes
        // the HLR directory at post time (the historical behavior);
        // armed, ownership is observed at *delivery*, when an
        // Arrive/Depart actually survives the trunk.
        for (index, slot) in slots.iter().enumerate() {
            let mut s = slot.lock().expect("no panics while holding the lock");
            let s = s.as_mut().expect("phase 1 built every shard");
            let outbox = std::mem::take(&mut s.outbox);
            fabric.post(index, outbox, &mut directory);
        }
        fabric.seal((epoch + 1) * EPOCH_MS, &mut directory);
        epoch += 1;
    }
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
