//! A traced replica of `vgprs_load::run_load`.
//!
//! `run_load` exposes no phase boundaries, so the traced run rebuilds
//! its three phases from the same public calls, in the same order, and
//! wraps each call in a span:
//!
//! 1. set-up: `compile_demand`, `subscriber_plan_demand`, `Shard::new`;
//! 2. busy hour: `Shard::run_epoch` and `TrunkFabric::{take_inbox, post, seal}`;
//! 3. merge: `Shard::finish` and `LoadReport::merge`.
//!
//! The pool mirrors `engine.rs`: scoped workers spawned per epoch pull
//! shards off a shared counter, and the barrier routes in shard order.
//! The replica must render the same `LoadReport::fingerprint` as
//! `run_load` for the same configuration; the benchmark checks that.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use vgprs_load::mailbox::{Envelope, Flit, HlrDirectory, EPOCH_MS};
use vgprs_load::{
    compile_demand, partition, subscriber_plan_demand, LoadConfig, LoadReport, Shard, ShardConfig,
    ShardReport, SubscriberPlan, TrunkFabric,
};

/// Epochs folded into one span per shard (1,000 epochs = 50 simulated
/// seconds); a busy hour has over a million shard-epochs.
const FOLD_EPOCHS: u64 = 1_000;

/// One recorded span. Folded spans cover many calls: `busy_ns` is the
/// sum of the calls' durations, `start_ns`/`end_ns` the first start and
/// the last end.
pub struct Span {
    name: &'static str,
    parent: Option<usize>,
    shard: Option<usize>,
    start_ns: u64,
    end_ns: u64,
    busy_ns: u64,
    calls: u64,
}

/// In-memory span store for one workload run; written out at the end.
pub struct Recorder {
    origin: Instant,
    trace_id: String,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose spans all carry `trace_id`.
    pub fn new(trace_id: String) -> Self {
        Recorder {
            origin: Instant::now(),
            trace_id,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        shard: Option<usize>,
        fold: &Fold,
    ) -> usize {
        let (Some(first), Some(last)) = (fold.first, fold.last) else {
            return usize::MAX;
        };
        self.spans.push(Span {
            name,
            parent,
            shard,
            start_ns: self.ns(first),
            end_ns: self.ns(last),
            busy_ns: fold.busy.as_nanos() as u64,
            calls: fold.calls,
        });
        self.spans.len() - 1
    }

    /// Opens a span now; [`Recorder::close`] ends it.
    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.push(
            name,
            parent,
            None,
            &Fold {
                first: Some(now),
                last: Some(now),
                busy: Duration::ZERO,
                calls: 1,
            },
        )
    }

    fn close(&mut self, id: usize) {
        let end = self.ns(Instant::now());
        let span = &mut self.spans[id];
        span.end_ns = end;
        span.busy_ns = end - span.start_ns;
    }

    /// Self time of every span with `name`: its duration (summed over
    /// folded calls) minus the part its child spans cover.
    pub fn self_time(&self, name: &str) -> Duration {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.busy_ns;
            }
        }
        let ns = self
            .spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.busy_ns.saturating_sub(*c))
            .sum();
        Duration::from_nanos(ns)
    }

    /// All spans as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"trace_id\": \"{}\", \"spans\": [\n", self.trace_id);
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_owned(), |v| v.to_string());
            let _ = write!(
                out,
                "{}  {{\"trace_id\": \"{}\", \"id\": {id}, \"parent\": {}, \"name\": \"{}\", \"shard\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"busy_ns\": {}, \"calls\": {}}}",
                if id == 0 { "" } else { ",\n" },
                self.trace_id,
                opt(s.parent),
                s.name,
                opt(s.shard),
                s.start_ns,
                s.end_ns,
                s.busy_ns,
                s.calls
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Accumulates timed calls for one folded span.
#[derive(Clone, Copy, Default)]
struct Fold {
    first: Option<Instant>,
    last: Option<Instant>,
    busy: Duration,
    calls: u64,
}

impl Fold {
    fn time<T>(&mut self, call: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        self.first.get_or_insert(start);
        self.last = Some(end);
        self.busy += end - start;
        self.calls += 1;
        out
    }
}

/// A shard plus its barrier buffers and its timing accumulators.
pub struct Slot {
    shard: Shard,
    inbox: Vec<(usize, Flit)>,
    outbox: Vec<Envelope>,
    /// `compile_demand`, `subscriber_plan_demand` and `Shard::new`.
    build: [Fold; 3],
    /// `run_epoch` calls of the current fold window.
    epoch: Fold,
    /// Whole-run `run_epoch` time: all calls, and calls made with no
    /// scheduled work and an empty inbox.
    busy: Duration,
    idle: Duration,
    idle_calls: u64,
}

/// The per-shard configurations `run_load` derives from `cfg`.
fn shard_configs(cfg: &LoadConfig) -> Vec<ShardConfig> {
    let shards = cfg.effective_shards();
    partition(cfg.subscribers, shards)
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
        .collect()
}

/// Runs `worker` on `threads` scoped threads (inline for one) and
/// returns the instant each worker finished.
fn run_pool(threads: usize, worker: impl Fn(usize) + Sync) -> Vec<Instant> {
    if threads <= 1 {
        worker(0);
        return vec![Instant::now()];
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let worker = &worker;
                scope.spawn(move || {
                    worker(t);
                    Instant::now()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
}

/// Phase 1 of `run_load`: builds every shard's world and registers its
/// population, in parallel across `cfg`'s worker threads.
pub fn build(cfg: &LoadConfig) -> Vec<Mutex<Option<Slot>>> {
    let shard_cfgs = shard_configs(cfg);
    let slots: Vec<Mutex<Option<Slot>>> = shard_cfgs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    run_pool(cfg.effective_threads(), |_t| loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let Some(shard_cfg) = shard_cfgs.get(index) else {
            break;
        };
        let mut build = [Fold::default(); 3];
        let demand = build[0].time(|| {
            compile_demand(
                &cfg.scenario,
                cfg.seed,
                shard_cfg.shard_index,
                cfg.population.window_secs,
            )
        });
        let plans: Vec<SubscriberPlan> = build[1].time(|| {
            (0..shard_cfg.subscribers)
                .map(|i| {
                    subscriber_plan_demand(
                        &cfg.population,
                        &demand,
                        cfg.seed,
                        shard_cfg.base_index + i,
                    )
                })
                .collect()
        });
        let shard = build[2].time(|| Shard::new(shard_cfg, &plans));
        *slots[index]
            .lock()
            .expect("no panics while holding the lock") = Some(Slot {
            shard,
            inbox: Vec::new(),
            outbox: Vec::new(),
            build,
            epoch: Fold::default(),
            busy: Duration::ZERO,
            idle: Duration::ZERO,
            idle_calls: 0,
        });
    });
    slots
}

/// What the traced replica measured.
pub struct Traced {
    /// The merged report; must fingerprint like `run_load`'s.
    pub report: LoadReport,
    /// Host seconds from the start of set-up to the end of the merge.
    pub wall: Duration,
    /// Whether the trunk fabric was armed.
    pub armed: bool,
    /// Per-layer metrics: name, value, unit.
    pub layers: Vec<(&'static str, f64, &'static str)>,
    /// Every span of the run.
    pub recorder: Recorder,
}

fn lock(slot: &Mutex<Option<Slot>>) -> std::sync::MutexGuard<'_, Option<Slot>> {
    slot.lock().expect("no panics while holding the lock")
}

/// Runs `cfg` through the traced replica of `run_load`.
pub fn traced_run(cfg: &LoadConfig, trace_id: String) -> Traced {
    let mut rec = Recorder::new(trace_id);
    let threads = cfg.effective_threads();
    let shards = cfg.effective_shards();
    let root = rec.open("run_load", None);
    let started = Instant::now();

    // Phase 1: set-up.
    let setup = rec.open("setup", Some(root));
    let slots = build(cfg);
    rec.close(setup);
    let rss_after_setup_mb = proc_status_mb("VmRSS");
    for (index, slot) in slots.iter().enumerate() {
        let s = lock(slot);
        let s = s.as_ref().expect("set-up built every shard");
        for (name, fold) in ["compile_demand", "subscriber_plan_demand", "Shard::new"]
            .iter()
            .zip(&s.build)
        {
            rec.push(name, Some(setup), Some(index), fold);
        }
    }

    // Phase 2: epoch lockstep, as in `engine.rs`.
    let busy_hour = rec.open("busy_hour", Some(root));
    let mut fabric = TrunkFabric::new(shards, cfg.seed, &cfg.trunk, cfg.population.window_secs);
    let mut directory = HlrDirectory::new(&partition(cfg.subscribers, shards));
    let mut fabric_folds = [Fold::default(); 3];
    let mut window = usize::MAX;
    let mut barrier_wait = Duration::ZERO;
    let mut flits = 0u64;
    let mut epoch: u64 = 0;
    let flush = |rec: &mut Recorder, window: usize, folds: &mut [Fold; 3]| {
        if window == usize::MAX {
            return;
        }
        rec.close(window);
        for (index, slot) in slots.iter().enumerate() {
            let mut s = lock(slot);
            let s = s.as_mut().expect("set-up built every shard");
            rec.push("Shard::run_epoch", Some(window), Some(index), &s.epoch);
            s.epoch = Fold::default();
        }
        for (name, fold) in [
            "TrunkFabric::take_inbox",
            "TrunkFabric::post",
            "TrunkFabric::seal",
        ]
        .iter()
        .zip(folds.iter_mut())
        {
            rec.push(name, Some(window), None, fold);
            *fold = Fold::default();
        }
    };
    loop {
        if epoch.is_multiple_of(FOLD_EPOCHS) {
            flush(&mut rec, window, &mut fabric_folds);
            window = rec.open("epochs", Some(busy_hour));
        }
        let mut busy = fabric.in_flight() > 0;
        let mut cap = 0;
        for (index, slot) in slots.iter().enumerate() {
            let mut s = lock(slot);
            let s = s.as_mut().expect("set-up built every shard");
            s.inbox = fabric_folds[0].time(|| fabric.take_inbox(index));
            busy |= s.shard.is_busy() || !s.inbox.is_empty();
            cap = cap.max(s.shard.max_epoch_hint());
        }
        if !busy || epoch > cap {
            break;
        }
        let next = AtomicUsize::new(0);
        let finished = run_pool(threads, |_t| loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(slot) = slots.get(index) else {
                break;
            };
            let mut s = lock(slot);
            let s = s.as_mut().expect("set-up built every shard");
            let inbox = std::mem::take(&mut s.inbox);
            let idle = !s.shard.is_busy() && inbox.is_empty();
            let before = s.epoch.busy;
            s.outbox = s.epoch.time(|| s.shard.run_epoch(epoch, inbox));
            let took = s.epoch.busy - before;
            s.busy += took;
            if idle {
                s.idle += took;
                s.idle_calls += 1;
            }
        });
        let pool_end = Instant::now();
        barrier_wait += finished
            .iter()
            .map(|&f| pool_end.saturating_duration_since(f))
            .sum::<Duration>();
        for (index, slot) in slots.iter().enumerate() {
            let mut s = lock(slot);
            let s = s.as_mut().expect("set-up built every shard");
            let outbox = std::mem::take(&mut s.outbox);
            flits += outbox.len() as u64;
            fabric_folds[1].time(|| fabric.post(index, outbox, &mut directory));
        }
        fabric_folds[2].time(|| fabric.seal((epoch + 1) * EPOCH_MS, &mut directory));
        epoch += 1;
    }
    let totals: Vec<(Duration, Duration, u64)> = slots
        .iter()
        .map(|s| {
            let s = lock(s);
            let s = s.as_ref().expect("set-up built every shard");
            (s.busy, s.idle, s.idle_calls)
        })
        .collect();
    flush(&mut rec, window, &mut fabric_folds);
    rec.close(busy_hour);
    let engine_wall = started.elapsed();

    // Phase 3: seal shards in index order and merge.
    let merge_phase = rec.open("merge", Some(root));
    let mut finish = Fold::default();
    let mut reports: Vec<ShardReport> = slots
        .into_iter()
        .map(|slot| {
            let shard = slot
                .into_inner()
                .expect("all workers joined")
                .expect("every shard ran")
                .shard;
            finish.time(|| shard.finish())
        })
        .collect();
    rec.push("Shard::finish", Some(merge_phase), None, &finish);
    reports[0]
        .stats
        .count_by("load.hlr_relocations", directory.relocations());
    if fabric.armed() {
        reports[0].stats.merge(fabric.stats());
    }
    let mut merge = Fold::default();
    let report = merge.time(|| {
        LoadReport::merge(
            cfg.subscribers,
            threads,
            cfg.snapshot_secs,
            &reports,
            engine_wall,
        )
    });
    rec.push("LoadReport::merge", Some(merge_phase), None, &merge);
    rec.close(merge_phase);
    let wall = started.elapsed();
    rec.close(root);

    let mut render = Fold::default();
    render.time(|| std::hint::black_box((report.fingerprint(), report.to_json())));
    rec.push("render", None, None, &render);

    let secs = |name: &str| rec.self_time(name).as_secs_f64();
    let count = |name: &str| report.stats.counter(name) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let new_max_ms = rec
        .spans
        .iter()
        .filter(|s| s.name == "Shard::new")
        .map(|s| s.busy_ns as f64 / 1e6)
        .fold(0.0, f64::max);
    let mean_busy = totals.iter().map(|t| t.0).sum::<Duration>().as_secs_f64() / shards as f64;
    let max_busy = totals
        .iter()
        .map(|t| t.0)
        .max()
        .unwrap_or_default()
        .as_secs_f64();
    let events = report.events as f64;
    let run_epoch_s = secs("Shard::run_epoch");
    let frames_sent = count("ms.voice_frames_sent") + count("term.rtp_sent");
    let pages = count("bts.pages_broadcast");
    let barrier_s =
        secs("TrunkFabric::take_inbox") + secs("TrunkFabric::post") + secs("TrunkFabric::seal");
    let layers = vec![
        (
            "population.plan_s",
            secs("compile_demand") + secs("subscriber_plan_demand"),
            "s",
        ),
        ("population.plans", cfg.subscribers as f64, "count"),
        ("shard.new_s", secs("Shard::new"), "s"),
        ("shard.new_max_ms", new_max_ms, "ms"),
        ("shard.count", shards as f64, "count"),
        ("rss_after_setup_mb", rss_after_setup_mb, "MB"),
        ("gsm.vlr_registrations", count("vlr.registrations"), "count"),
        ("h323.gk_registrations", count("gk.registrations"), "count"),
        ("gprs.attaches", count("sgsn.attaches"), "count"),
        ("gprs.pdp_created", count("ggsn.pdp_created"), "count"),
        ("shard.run_epoch_s", run_epoch_s, "s"),
        ("shard.epochs", (epoch * shards as u64) as f64, "count"),
        (
            "shard.idle_epochs",
            totals.iter().map(|t| t.2).sum::<u64>() as f64,
            "count",
        ),
        (
            "shard.idle_epoch_s",
            totals.iter().map(|t| t.1).sum::<Duration>().as_secs_f64(),
            "s",
        ),
        ("shard.imbalance", ratio(max_busy, mean_busy), "ratio"),
        ("sim.events", events, "count"),
        ("sim.delivered", count("sim.delivered"), "count"),
        ("sim.timer_fired", count("sim.timer_fired"), "count"),
        ("sim.timer_cancelled", count("sim.timer_cancelled"), "count"),
        ("sim.lost", count("sim.lost"), "count"),
        ("sim.ns_per_event", ratio(run_epoch_s * 1e9, events), "ns"),
        (
            "sim.events_per_attempt",
            ratio(events, report.attempts() as f64),
            "events/attempt",
        ),
        ("gsm.pages_broadcast", pages, "count"),
        ("gsm.events_per_page", ratio(events, pages), "events/page"),
        (
            "gsm.stale_cell_discards",
            count("ms.ignored_stale_cell"),
            "count",
        ),
        ("gsm.tch_allocated", count("bsc.tch_allocated"), "count"),
        ("gsm.tch_blocked", count("bsc.tch_blocked"), "count"),
        ("media.frames_sent", frames_sent, "count"),
        (
            "media.frames_received",
            count("ms.voice_frames_received") + count("term.rtp_received"),
            "count",
        ),
        ("media.frame_loss_frac", report.frame_loss(), "ratio"),
        (
            "media.frames_per_event",
            ratio(frames_sent, events),
            "frames/event",
        ),
        ("engine.epochs", epoch as f64, "count"),
        ("engine.barrier_wait_s", barrier_wait.as_secs_f64(), "s"),
        ("trunk.barrier_s", barrier_s, "s"),
        (
            "trunk.us_per_barrier",
            ratio(barrier_s * 1e6, epoch as f64),
            "us",
        ),
        ("trunk.flits", flits as f64, "count"),
        (
            "trunk.retransmits",
            report.trunk_retransmits() as f64,
            "count",
        ),
        ("trunk.dup_drops", report.trunk_dup_drops() as f64, "count"),
        ("trunk.expired", report.trunk_expired() as f64, "count"),
        ("trunk.heals", report.trunk_heals() as f64, "count"),
        (
            "load.hlr_relocations",
            report.hlr_relocations() as f64,
            "count",
        ),
        ("report.merge_s", secs("LoadReport::merge"), "s"),
        ("report.render_s", secs("render"), "s"),
        ("snapshot.frames", report.snapshots.len() as f64, "count"),
    ];
    Traced {
        report,
        wall,
        armed: fabric.armed(),
        layers,
        recorder: rec,
    }
}

/// A `kB` line of `/proc/self/status` (`VmHWM`, `VmRSS`) in MB.
pub fn proc_status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
