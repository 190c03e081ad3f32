//! The load engine's central promise: results are a function of the
//! configuration and the master seed, never of the machine.

use vgprs_load::{
    check_thread_invariance, partition, run_load, subscriber_plan, subscriber_plan_demand, CallMix,
    DemandPlan, FaultPlanConfig, LoadConfig, LoadReport, OverloadControls, PopulationConfig,
    ScenarioConfig, TrunkFaultClass, TrunkPlanConfig,
};

fn small_cfg(threads: usize) -> LoadConfig {
    LoadConfig {
        subscribers: 96,
        shards: 4,
        threads,
        seed: 0xD15EA5E,
        population: PopulationConfig {
            calls_per_sub_hour: 40.0,
            mean_hold_secs: 20.0,
            window_secs: 90,
            mix: CallMix {
                mo: 0.4,
                mt: 0.4,
                m2m: 0.2,
            },
            mobility_fraction: 0.15,
            ..PopulationConfig::default()
        },
        ..LoadConfig::default()
    }
}

/// Runs `cfg` at 1, 2 and 8 worker threads and returns the 1-thread
/// report, failing with the first differing KPI line on a divergence.
fn thread_invariant(what: &str, cfg: &LoadConfig) -> LoadReport {
    check_thread_invariance(cfg).unwrap_or_else(|d| panic!("{what} run {d}"))
}

/// Same master seed, 1 vs 2 vs 8 worker threads: the merged KPI report
/// and its fingerprint are bit-identical.
#[test]
fn thread_count_does_not_change_results() {
    thread_invariant("busy-hour", &small_cfg(1));
}

/// Same configuration twice: identical down to the fingerprint.
#[test]
fn reruns_are_identical() {
    let a = run_load(&small_cfg(2));
    let b = run_load(&small_cfg(2));
    assert_eq!(a.render_deterministic(), b.render_deterministic());
    assert_eq!(a.fingerprint(), b.fingerprint());
}

/// A different master seed must actually change something.
#[test]
fn seed_changes_results() {
    let a = run_load(&small_cfg(2));
    let mut cfg = small_cfg(2);
    cfg.seed ^= 1;
    let b = run_load(&cfg);
    assert_ne!(a.fingerprint(), b.fingerprint(), "seed had no effect");
}

/// A subscriber's arrival stream depends on its global index only:
/// partitioning the same population into 2 or 4 shards hands every
/// subscriber exactly the same plan.
#[test]
fn shard_count_does_not_change_subscriber_plans() {
    let pop = PopulationConfig {
        calls_per_sub_hour: 25.0,
        window_secs: 300,
        mobility_fraction: 0.3,
        ..PopulationConfig::default()
    };
    let seed = 99;
    let subscribers = 64;
    let collect = |shards: usize| {
        let mut plans = Vec::new();
        for (base, size) in partition(subscribers, shards) {
            for i in 0..size {
                plans.push(subscriber_plan(&pop, seed, base + i));
            }
        }
        plans
    };
    let two = collect(2);
    let four = collect(4);
    assert_eq!(two.len(), four.len());
    for (a, b) in two.iter().zip(&four) {
        assert_eq!(a.global_index, b.global_index);
        assert_eq!(a.arrivals.len(), b.arrivals.len());
        for (x, y) in a.arrivals.iter().zip(&b.arrivals) {
            assert_eq!((x.at_ms, x.kind, x.hold_ms, x.peer_draw),
                       (y.at_ms, y.kind, y.hold_ms, y.peer_draw));
        }
        assert_eq!(
            a.excursion.map(|e| (e.out_ms, e.back_ms)),
            b.excursion.map(|e| (e.out_ms, e.back_ms)),
        );
    }
}

/// A population with cross-shard excursions enabled: subscribers leave
/// their home shard mid-call (inter-VMSC handoff over the mailbox) and
/// while idle (HLR ownership transfer).
fn cross_cfg(threads: usize, shards: usize) -> LoadConfig {
    LoadConfig {
        subscribers: 96,
        shards,
        threads,
        seed: 0xD15EA5E,
        population: PopulationConfig {
            calls_per_sub_hour: 40.0,
            mean_hold_secs: 25.0,
            window_secs: 90,
            mix: CallMix {
                mo: 0.4,
                mt: 0.4,
                m2m: 0.2,
            },
            mobility_fraction: 0.15,
            cross_shard_fraction: 0.35,
            ..PopulationConfig::default()
        },
        ..LoadConfig::default()
    }
}

/// The tentpole property: with inter-shard traffic flowing — handoff
/// MAP dialogues, rerouted trunk voice, HLR relocations — the merged
/// report is still bit-identical for every worker-thread count, at
/// more than one shard count.
#[test]
fn cross_shard_results_are_thread_invariant() {
    for shards in [4, 16] {
        thread_invariant(
            &format!("{shards}-shard cross-shard"),
            &cross_cfg(1, shards),
        );
    }
}

/// The worker crew's edges. With 3 shards, threads {1, 2, 8} clamp to
/// {1, 2, 3}, so the 8-thread run has exactly one worker per shard; with
/// 1 shard every thread count runs inline. Both stay bit-identical.
#[test]
fn thread_counts_at_the_crew_edges_are_invariant() {
    for (what, cfg, workers_at_8) in [
        ("3-shard cross-shard", cross_cfg(1, 3), 3),
        ("1-shard", LoadConfig { shards: 1, ..small_cfg(1) }, 1),
    ] {
        let at_8 = LoadConfig { threads: 8, ..cfg.clone() };
        assert_eq!(at_8.effective_threads(), workers_at_8, "{what}");
        let r = thread_invariant(what, &cfg);
        assert!(r.attempts() > 0, "{what}: no call attempts generated");
    }
}

/// The cross-shard machinery must actually fire: the run above is only
/// meaningful if the mailbox carried real handoffs and HLR moves.
#[test]
fn cross_shard_traffic_actually_flows() {
    let r = run_load(&cross_cfg(2, 4));
    assert!(
        r.handoff_attempts() > 0,
        "no inter-VMSC handoffs attempted:\n{}",
        r.render_deterministic()
    );
    assert!(
        r.handoff_successes() > 0,
        "no handoff completed the Figure 9 ladder:\n{}",
        r.render_deterministic()
    );
    assert!(
        r.handoff_interruption().count() > 0,
        "no interruption-time samples (downlink never resumed):\n{}",
        r.render_deterministic()
    );
    assert!(
        r.hlr_relocations() > 0,
        "no idle-mode HLR ownership moves:\n{}",
        r.render_deterministic()
    );
    assert!(
        r.stats.counter("load.visitors_hosted") > 0,
        "no shard ever hosted a visitor:\n{}",
        r.render_deterministic()
    );
}

/// Rerunning a cross-shard configuration reproduces it exactly.
#[test]
fn cross_shard_reruns_are_identical() {
    let a = run_load(&cross_cfg(2, 4));
    let b = run_load(&cross_cfg(2, 4));
    assert_eq!(a.render_deterministic(), b.render_deterministic());
    assert_eq!(a.fingerprint(), b.fingerprint());
}

fn chaos_cfg(threads: usize) -> LoadConfig {
    LoadConfig {
        faults: FaultPlanConfig::all(1.0),
        ..small_cfg(threads)
    }
}

/// Fault injection rides the same deterministic rails as everything
/// else: a fixed fault plan produces bit-identical reports at every
/// worker-thread count.
#[test]
fn faulted_runs_are_thread_and_kernel_invariant() {
    let r = thread_invariant("faulted", &chaos_cfg(1));
    assert!(
        r.faults_injected() > 0,
        "no faults injected, so the check is vacuous:\n{}",
        r.render_deterministic()
    );
}

/// A zero-intensity fault config compiles to an empty plan, which must
/// leave the run byte-identical to one that never heard of faults.
#[test]
fn zero_intensity_faults_change_nothing() {
    let plain = run_load(&small_cfg(2));
    let zero = run_load(&LoadConfig {
        faults: FaultPlanConfig::all(0.0),
        ..small_cfg(2)
    });
    assert_eq!(plain.render_deterministic(), zero.render_deterministic());
    assert_eq!(plain.fingerprint(), zero.fingerprint());
}

/// The chaos configuration must actually hurt — and the recovery
/// machinery must actually recover.
#[test]
fn faults_bite_and_recovery_runs() {
    let r = run_load(&chaos_cfg(2));
    assert!(
        r.faults_injected() > 0,
        "no impairment windows opened:\n{}",
        r.render_deterministic()
    );
    let (ras_retries, arq_retries) = r.guard_retries();
    let dropped = r.dropped_by_class(vgprs_load::FaultClass::LinkDegrade)
        + r.dropped_by_class(vgprs_load::FaultClass::NodeCrash)
        + r.dropped_by_class(vgprs_load::FaultClass::Blackhole);
    assert!(
        dropped > 0 || ras_retries + arq_retries > 0,
        "faults were injected but nothing dropped or retried:\n{}",
        r.render_deterministic()
    );
    assert!(
        r.redial_attempts() > 0,
        "no caller ever redialed:\n{}",
        r.render_deterministic()
    );
    assert!(
        r.recovery_time().count() > 0,
        "recovery-time histogram is empty:\n{}",
        r.render_deterministic()
    );
}

/// The busy hour must exercise every KPI the report advertises.
#[test]
fn kpis_are_populated() {
    let r = run_load(&small_cfg(2));
    assert_eq!(r.stats.counter("load.registered"), 96);
    assert!(r.attempts() > 0, "no call attempts generated");
    assert!(r.stats.counter("ms.calls_connected") > 0, "no calls connected");
    assert!(r.setup_delay().count() > 0, "no setup-delay samples");
    assert!(r.paging_delay().count() > 0, "no paging samples (MT mix is 40%)");
    assert!(r.pdp_activation().count() > 0, "no voice-PDP samples");
    assert!(r.voice_delay().count() > 0, "no RTP samples");
    let mos = r.mos();
    assert!((1.0..=4.6).contains(&mos), "implausible MOS {mos}");
    assert!(r.stats.counter("load.moves") > 0, "mobility never fired");
    assert!(r.events > 0 && r.sim_secs > 0.0);
}

// ---- demand plans and overload controls ----

fn surge_cfg(threads: usize) -> LoadConfig {
    LoadConfig {
        threads,
        scenario: ScenarioConfig::flash(10.0),
        controls: OverloadControls {
            paging_rate_per_s: 2,
            gk_shed_utilization: 0.5,
            pdp_rate_per_s: 2,
        },
        gk_bandwidth: 1_280,
        ..small_cfg(threads)
    }
}

/// A flash-crowd run with every overload control active is still a pure
/// function of the configuration: the thread count must not move a
/// single bit of the report.
#[test]
fn surged_runs_are_thread_and_kernel_invariant() {
    let r = thread_invariant("surged", &surge_cfg(1));
    assert!(
        r.attempts_peak() > 0,
        "the shock never produced peak attempts:\n{}",
        r.render_deterministic()
    );
}

/// A zero-shock demand plan with the controls off must reproduce the
/// flat busy hour exactly — the scenario machinery may not spend a
/// single RNG draw or reorder a single event when it has nothing to do.
#[test]
fn zero_shock_plan_reproduces_flat_run() {
    let flat = run_load(&small_cfg(2));
    let zero = run_load(&LoadConfig {
        scenario: ScenarioConfig::flash(0.0),
        ..small_cfg(2)
    });
    assert_eq!(flat.render_deterministic(), zero.render_deterministic());
    assert_eq!(flat.fingerprint(), zero.fingerprint());
}

/// The flat-plan fast path of `subscriber_plan_demand` is byte-for-byte
/// the historical generator, for every subscriber.
#[test]
fn flat_demand_plans_delegate_exactly() {
    let cfg = small_cfg(1).population;
    let flat = DemandPlan::default();
    for g in 0..96 {
        assert_eq!(
            subscriber_plan(&cfg, 0xD15EA5E, g),
            subscriber_plan_demand(&cfg, &flat, 0xD15EA5E, g),
            "subscriber {g} diverged under the flat demand plan"
        );
    }
}

/// Overload-control interventions grow with shock intensity: a stronger
/// flash crowd can only trip the throttles more, never less. Compared
/// across shocked runs only — a flat run's steady-state throttling
/// noise is not attributable to any shock.
#[test]
fn overload_kpis_monotone_in_intensity() {
    let mut last = None;
    for intensity in [4.0, 10.0, 25.0] {
        let r = run_load(&LoadConfig {
            scenario: ScenarioConfig::flash(intensity),
            ..surge_cfg(2)
        });
        let interventions = r.pages_throttled()
            + r.pages_shed()
            + r.gk_admission_shed()
            + r.pdp_deferred()
            + r.pdp_rejected();
        if let Some(prev) = last {
            assert!(
                interventions >= prev,
                "interventions fell from {prev} to {interventions} at {intensity}x"
            );
        }
        last = Some(interventions);
    }
    assert!(
        last.unwrap() > 0,
        "the strongest shock never tripped a single overload control"
    );
}

// ---- inter-shard trunk chaos ----

/// The cross-shard workload under the full trunk fault plan: envelope
/// loss, duplication, reordering and partitions on every shard pair.
fn trunk_cfg(threads: usize) -> LoadConfig {
    LoadConfig {
        trunk: TrunkPlanConfig::all(1.0),
        ..cross_cfg(threads, 4)
    }
}

/// A trunk-faulted run — retransmissions, dup suppression, reorder
/// buffering, partition teardowns and heals — is bit-identical at every
/// worker-thread count.
#[test]
fn trunk_faulted_runs_are_thread_and_kernel_invariant() {
    let r = thread_invariant("trunk-faulted", &trunk_cfg(1));
    assert!(
        r.trunk_retransmits() > 0,
        "no trunk flit was retransmitted, so the check is vacuous:\n{}",
        r.render_deterministic()
    );
}

/// A zero-intensity trunk plan compiles to no windows, and the fabric
/// must then be byte-transparent: same fingerprint as a run that never
/// heard of trunk faults.
#[test]
fn zero_intensity_trunk_plan_changes_nothing() {
    let plain = run_load(&cross_cfg(2, 4));
    let zero = run_load(&LoadConfig {
        trunk: TrunkPlanConfig::all(0.0),
        ..cross_cfg(2, 4)
    });
    assert_eq!(plain.render_deterministic(), zero.render_deterministic());
    assert_eq!(plain.fingerprint(), zero.fingerprint());
}

/// The trunk chaos must actually hurt — and the reliable-delivery
/// machinery must actually absorb it.
#[test]
fn trunk_chaos_bites_and_recovery_runs() {
    let r = run_load(&trunk_cfg(2));
    assert!(
        r.trunk_retransmits() > 0,
        "no trunk flit was ever retransmitted:\n{}",
        r.render_deterministic()
    );
    assert!(
        r.trunk_loss_drops() + r.trunk_partition_drops() > 0,
        "the fault plan never swallowed a transmission:\n{}",
        r.render_deterministic()
    );
    assert!(
        r.trunk_dup_drops() > 0,
        "duplicates were injected but none suppressed:\n{}",
        r.render_deterministic()
    );
    assert!(
        r.trunk_reorder_depth().count() > 0,
        "no out-of-order arrival was ever buffered:\n{}",
        r.render_deterministic()
    );
}

/// Healed-partition convergence: under partition-only chaos, every
/// subscriber stranded by a torn trunk is re-routed to its home anchor
/// once the partition heals, and the heal-to-recovery delay is sampled.
#[test]
fn healed_partition_converges() {
    let r = run_load(&LoadConfig {
        trunk: TrunkPlanConfig::only(TrunkFaultClass::Partition, 1.0),
        ..cross_cfg(2, 4)
    });
    assert!(
        r.trunk_partition_drops() > 0,
        "no transmission ever hit a partition window:\n{}",
        r.render_deterministic()
    );
    assert!(
        r.trunk_heals() > 0,
        "no partition window ever healed:\n{}",
        r.render_deterministic()
    );
    if r.trunk_handoff_drops() > 0 {
        assert!(
            r.trunk_reroutes() > 0,
            "handoffs were torn down but nobody was re-routed on heal:\n{}",
            r.render_deterministic()
        );
        assert_eq!(
            r.trunk_heal_recovery().count(),
            r.trunk_reroutes(),
            "every re-route must sample one heal-to-recovery delay:\n{}",
            r.render_deterministic()
        );
    }
}

/// Reorder-only chaos delays transmissions but the receive window's
/// in-order release must hide it completely from the shards: no
/// casualties, no teardowns — only buffered depth samples.
#[test]
fn reordered_flits_never_violate_fifo() {
    let r = run_load(&LoadConfig {
        trunk: TrunkPlanConfig::only(TrunkFaultClass::Reorder, 1.0),
        ..cross_cfg(2, 4)
    });
    assert!(
        r.trunk_reordered() > 0,
        "the reorder plan never delayed a transmission:\n{}",
        r.render_deterministic()
    );
    assert!(
        r.trunk_reorder_depth().count() > 0,
        "reordered flits never arrived ahead of sequence:\n{}",
        r.render_deterministic()
    );
    assert_eq!(
        r.trunk_expired(),
        0,
        "pure reordering must never exhaust a retransmission budget:\n{}",
        r.render_deterministic()
    );
    assert_eq!(
        r.trunk_handoff_drops(),
        0,
        "pure reordering must never tear a handoff down:\n{}",
        r.render_deterministic()
    );
}

// ---- KPI time-series snapshots ----

/// The small workload sampled every 30 simulated seconds, so the 90 s
/// window yields several frames plus a drain-phase tail.
fn snapshot_cfg(threads: usize) -> LoadConfig {
    LoadConfig {
        snapshot_secs: 30,
        ..small_cfg(threads)
    }
}

/// The snapshot stream — frame times, counters, histograms, the
/// composite fingerprint — is bit-identical across worker-thread
/// counts, exactly like the end-of-run report it samples.
#[test]
fn snapshot_stream_is_thread_and_kernel_invariant() {
    let r = thread_invariant("snapshotted", &snapshot_cfg(1));
    assert!(
        r.snapshots.len() >= 3,
        "90 s at a 30 s cadence must yield at least 3 frames, got {}",
        r.snapshots.len()
    );
}

/// The synthesized aggregate frame must agree with the end-of-run
/// summary KPIs *exactly* — bit-equal floats, not approximately — since
/// both are computed from the same merged stats.
#[test]
fn snapshot_aggregate_equals_summary_kpis() {
    let r = run_load(&snapshot_cfg(2));
    let agg = r.snapshot_aggregate();
    assert_eq!(agg.attempts(), r.attempts());
    assert_eq!(agg.blocking_rate().to_bits(), r.blocking_rate().to_bits());
    assert_eq!(agg.frame_loss().to_bits(), r.frame_loss().to_bits());
    assert_eq!(agg.mos().to_bits(), r.mos().to_bits(), "E-model MOS diverged");
    let (sparse, dense) = (agg.setup_delay(), r.setup_delay());
    assert_eq!(sparse.count(), dense.count());
    assert_eq!(sparse.percentile(50.0).to_bits(), dense.percentile(50.0).to_bits());
    assert_eq!(sparse.percentile(99.0).to_bits(), dense.percentile(99.0).to_bits());
    let (sparse, dense) = (agg.handoff_interruption(), r.handoff_interruption());
    assert_eq!(sparse.count(), dense.count());
    assert_eq!(sparse.percentile(99.0).to_bits(), dense.percentile(99.0).to_bits());
}

/// Frames are cumulative: every counter is non-decreasing along the
/// stream, frame times advance on the nominal cadence grid, and the
/// last frame never exceeds the aggregate.
#[test]
fn snapshot_frames_are_monotone_cumulative() {
    let r = run_load(&snapshot_cfg(2));
    let mut prev: Option<&vgprs_load::SnapshotFrame> = None;
    for frame in &r.snapshots {
        assert_eq!(frame.at_ms % 30_000, 0, "off-grid frame at {} ms", frame.at_ms);
        if let Some(p) = prev {
            assert!(p.at_ms < frame.at_ms, "frame times must strictly increase");
            for (i, name) in vgprs_load::SNAPSHOT_COUNTERS.iter().enumerate() {
                assert!(
                    p.counters[i] <= frame.counters[i],
                    "{name} fell from {} to {} at {} ms",
                    p.counters[i],
                    frame.counters[i],
                    frame.at_ms
                );
            }
        }
        prev = Some(frame);
    }
    let last = r.snapshots.last().expect("at least one frame");
    let agg = r.snapshot_aggregate();
    for (i, name) in vgprs_load::SNAPSHOT_COUNTERS.iter().enumerate() {
        assert!(
            last.counters[i] <= agg.counters[i],
            "{name}: last frame {} exceeds aggregate {}",
            last.counters[i],
            agg.counters[i]
        );
    }
}

/// Snapshot sampling is read-only: turning it off (or changing its
/// cadence) must not move a single bit of the simulation itself.
#[test]
fn snapshot_cadence_does_not_perturb_the_run() {
    let off = run_load(&LoadConfig {
        snapshot_secs: 0,
        ..small_cfg(2)
    });
    assert!(off.snapshots.is_empty(), "cadence 0 must disable sampling");
    let on = run_load(&snapshot_cfg(2));
    assert_eq!(off.fingerprint(), on.fingerprint());
    assert_eq!(off.render_deterministic(), on.render_deterministic());
}

// ---- behaviour oracle ----

/// The behaviour fingerprints of a fault-free, a surged (controls on),
/// a node-chaos and a trunk-chaos cell, recorded on the broadcast-paging
/// BTS, which delivered every page to every handset camped on the cell.
/// A change that only removes simulator work (events nobody acts on)
/// must leave every pin unchanged. A change that moves behaviour
/// re-records the pins and says why.
#[test]
fn behaviour_fingerprints_are_pinned() {
    let cells = [
        ("fault-free", small_cfg(1), 0x4b4e_98f6_de50_b105_u64),
        ("surge", surge_cfg(1), 0xf5a4_e00f_0e03_5d76),
        ("node chaos", chaos_cfg(1), 0xf170_72eb_11ad_d14b),
        ("trunk chaos", trunk_cfg(1), 0xf680_1fdf_72c0_30d9),
    ];
    let drift: Vec<String> = cells
        .iter()
        .filter_map(|(name, cfg, pin)| {
            let report = run_load(cfg);
            assert!(
                report.stats.counter("bts.pages_broadcast") > 0,
                "{name}: no pages, so the pin says nothing about paging"
            );
            let got = report.behaviour_fingerprint();
            (got != *pin).then(|| format!("{name}: pinned {pin:016x}, got {got:016x}"))
        })
        .collect();
    assert!(
        drift.is_empty(),
        "behaviour moved:\n  {}",
        drift.join("\n  ")
    );
}
