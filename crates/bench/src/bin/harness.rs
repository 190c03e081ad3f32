//! The experiment harness: regenerates every figure and Section 6 claim
//! of the paper on stdout, and hosts the population-scale load tools.
//!
//! ```text
//! harness [fig1|fig2|fig3|fig4|fig5|fig6|fig7|fig8|fig9|c1|c2|c3|c4|c5|all]
//! harness load [--subscribers N] [--threads N] [--shards N] [--seed N]
//!              [--window-secs N] [--rate CALLS_PER_SUB_HOUR] [--hold SECS]
//!              [--mix MO,MT,M2M] [--mobility FRAC] [--cross-shard-rate FRAC]
//!              [--tch N] [--voice-sample-ms N]
//!              [--trunk-intensity F] [--trunk-class CLASS]
//!              [--json PATH] [--snapshots PATH] [--snapshot-secs N]
//!              [--snapshots-per-shard] [--snapshots-csv PATH]
//! harness capacity [--subscribers N] [--threads N] [--seed N]
//!                  [--max-load F] [--refine N] [--json PATH]
//! harness chaos [--subscribers N] [--shards N] [--threads N] [--seed N]
//!               [--window-secs N] [--rate F] [--hold SECS] [--out PATH]
//!               [--cross-shard-rate FRAC] [--check]
//! harness surge [--subscribers N] [--shards N] [--threads N] [--seed N]
//!               [--window-secs N] [--rate F] [--hold SECS]
//!               [--gk-bandwidth N] [--paging-rate N] [--gk-shed F]
//!               [--pdp-rate N] [--out PATH] [--check]
//! harness diff BASELINE.json CANDIDATE.json [--thresholds PATH] [--json]
//! harness diff --check [--update-baseline] [--baseline PATH]
//!              [--thresholds PATH]
//! harness bench
//! ```
//!
//! With no argument it runs every paper experiment (`all`). The outputs
//! recorded in `EXPERIMENTS.md` are produced by `harness all`, the
//! capacity table by `harness capacity`, the resilience matrix in
//! `BENCH_chaos.json` by `harness chaos`, and the flash-crowd
//! overload sweep in `BENCH_surge.json` by `harness surge`. `harness
//! diff` compares two such dumps KPI-by-KPI against the thresholds in
//! `diff-thresholds.toml` and exits nonzero on regression; `harness
//! diff --check` is the verify-script gate, diffing a fresh canonical
//! small run against the committed `baselines/load_small.json`. A flag
//! no subcommand knows exits 2 naming it.

use std::time::Instant;

use vgprs_bench::diff::{compare, Thresholds};
use vgprs_bench::experiments::{
    c1_voice_quality, c2_idle_ablation, c2_setup_latency, c3_context_memory, c4_signaling,
    c5_handoff_cost, interface_usage,
};
use vgprs_bench::harness::{
    heading, load_config_from, meta_json, write_file, Flags, RunDefaults, SEED,
};
use vgprs_bench::scenarios::{
    intersystem_handoff, tromboning_classic, tromboning_vgprs, SingleZone,
};
use vgprs_load::{
    capacity_knee, check_thread_invariance, run_load, FaultClass, FaultPlanConfig, LoadConfig,
    LoadReport, OverloadControls, ScenarioConfig, TrunkFaultClass, TrunkPlanConfig,
    INVARIANCE_THREADS,
};
use vgprs_sim::{LadderDiagram, SimDuration};
use vgprs_wire::{CallId, Command, Message};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = args.first().map(String::as_str).unwrap_or("all");
    match arg {
        "load" => return load_cmd(&args[1..]),
        "capacity" => return capacity_cmd(&args[1..]),
        "chaos" => return chaos_cmd(&args[1..]),
        "surge" => return surge_cmd(&args[1..]),
        "diff" => return diff_cmd(&args[1..]),
        "bench" => return bench_cmd(),
        _ => {}
    }
    let all = arg == "all";
    let mut ran = false;
    macro_rules! run {
        ($name:literal, $f:expr) => {
            if all || arg == $name {
                $f;
                ran = true;
            }
        };
    }
    run!("fig1", fig1());
    run!("fig2", fig2());
    run!("fig3", fig3());
    run!("fig4", fig4());
    run!("fig5", fig5());
    run!("fig6", fig6());
    run!("fig7", fig7());
    run!("fig8", fig8());
    run!("fig9", fig9());
    run!("c1", c1());
    run!("c2", c2());
    run!("c2b", c2_ablation());
    run!("c3", c3());
    run!("c4", c4());
    run!("c5", c5());
    if !ran {
        eprintln!(
            "unknown experiment {arg:?}; expected fig1..fig9, c1..c5, c2b, \
             load, capacity, chaos, surge, diff, bench or all"
        );
        std::process::exit(2);
    }
}

fn load_cmd(rest: &[String]) {
    let flags = Flags::new(rest);
    let cfg = load_config_from(&flags, &RunDefaults::default());
    heading(&format!(
        "Busy hour — {} subscribers, {} shards, {} threads, seed {}",
        cfg.subscribers,
        cfg.effective_shards(),
        cfg.effective_threads(),
        cfg.seed
    ));
    let report = run_load(&cfg);
    print!("{}", report.render());
    println!("fingerprint           : {:016x}", report.fingerprint());
    println!(
        "behaviour fingerprint : {:016x}",
        report.behaviour_fingerprint()
    );
    if cfg.snapshot_secs > 0 {
        println!(
            "snapshot fingerprint  : {:016x} ({} frames @ {} s)",
            report.snapshot_fingerprint(),
            report.snapshots.len(),
            cfg.snapshot_secs
        );
    }
    if let Some(path) = flags.get("--json") {
        write_file(path, &report.to_json());
        println!("json report           : {path}");
    }
    let per_shard = flags.has("--snapshots-per-shard");
    if let Some(path) = flags.get("--snapshots") {
        write_file(path, &report.snapshots_json_with(per_shard));
        println!(
            "snapshot series       : {path}{}",
            if per_shard { " (with per-shard series)" } else { "" }
        );
    }
    if let Some(path) = flags.get("--snapshots-csv") {
        write_file(path, &report.snapshots_csv(per_shard));
        println!("snapshot csv          : {path}");
    }
}

/// Default threshold file and committed baseline for `harness diff`.
const DIFF_THRESHOLDS: &str = "diff-thresholds.toml";
const DIFF_BASELINE: &str = "baselines/load_small.json";

/// Reads and parses one JSON report, exiting with a diagnostic on
/// failure (a malformed dump is an input error, not a panic).
fn read_report(path: &str) -> vgprs_sim::JsonValue {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(2);
    });
    vgprs_sim::JsonValue::parse(&text).unwrap_or_else(|e| {
        eprintln!("cannot parse {path}: {e}");
        std::process::exit(2);
    })
}

/// Loads the threshold file named by `--thresholds` (default
/// `diff-thresholds.toml`), falling back to built-in defaults when the
/// default file does not exist.
fn read_thresholds(flags: &Flags<'_>) -> Thresholds {
    let (path, required) = match flags.get("--thresholds") {
        Some(p) => (p, true),
        None => (DIFF_THRESHOLDS, false),
    };
    match std::fs::read_to_string(path) {
        Ok(text) => Thresholds::parse(&text).unwrap_or_else(|e| {
            eprintln!("bad thresholds in {path}: {e}");
            std::process::exit(2);
        }),
        Err(e) if required => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(2);
        }
        Err(_) => Thresholds::default(),
    }
}

/// The canonical small-population run the `--check` gate compares
/// against the committed baseline: same tiny workload as the chaos and
/// surge determinism checks, so it finishes in seconds.
fn diff_check_config() -> LoadConfig {
    load_config_from(
        &Flags::new(&[]),
        &RunDefaults {
            subscribers: 96,
            shards: 4,
            threads: 1,
            window_secs: 90,
            calls_per_sub_hour: 40.0,
            mean_hold_secs: 20.0,
            ..RunDefaults::default()
        },
    )
}

/// `harness diff`: structural KPI regression gate. With two positional
/// paths it compares candidate against baseline and exits nonzero on any
/// regressed or missing KPI. `--check` instead runs the canonical small
/// population fresh and diffs it against `baselines/load_small.json`;
/// `--update-baseline` regenerates that file (after intentional KPI
/// changes — see `scripts/update-baselines.sh`).
fn diff_cmd(rest: &[String]) {
    let flags = Flags::new(rest);
    let thresholds = read_thresholds(&flags);
    if flags.has("--check") || flags.has("--update-baseline") {
        let baseline_path = flags.get("--baseline").unwrap_or(DIFF_BASELINE);
        let cfg = diff_check_config();
        heading(&format!(
            "KPI regression gate — {} subscribers, {} shards, seed {} vs {}",
            cfg.subscribers,
            cfg.effective_shards(),
            cfg.seed,
            baseline_path
        ));
        let report = run_load(&cfg);
        println!(
            "  fresh run: fingerprint {:016x}, snapshot fingerprint {:016x}",
            report.fingerprint(),
            report.snapshot_fingerprint()
        );
        if flags.has("--update-baseline") {
            write_file(baseline_path, &report.to_json());
            println!("  baseline updated: {baseline_path}");
            return;
        }
        let baseline = read_report(baseline_path);
        let candidate = vgprs_sim::JsonValue::parse(&report.to_json())
            .expect("a freshly rendered report always parses");
        let diff = compare(&baseline, &candidate, &thresholds);
        print!("{}", diff.render());
        if !diff.passed() {
            eprintln!("  KPI REGRESSION against {baseline_path}");
            std::process::exit(1);
        }
        println!("  no KPI regressions against the committed baseline");
        return;
    }
    let positional: Vec<&String> = {
        // Positional operands: everything not consumed as a flag value.
        let mut skip = false;
        rest.iter()
            .filter(|a| {
                if skip {
                    skip = false;
                    return false;
                }
                if a.as_str() == "--thresholds" || a.as_str() == "--baseline" {
                    skip = true;
                    return false;
                }
                !a.starts_with("--")
            })
            .collect()
    };
    let [a_path, b_path] = positional.as_slice() else {
        eprintln!(
            "usage: harness diff BASELINE.json CANDIDATE.json [--thresholds PATH] [--json]\n\
             \x20      harness diff --check [--update-baseline] [--baseline PATH]"
        );
        std::process::exit(2);
    };
    heading(&format!("KPI diff — {a_path} (baseline) vs {b_path} (candidate)"));
    let diff = compare(&read_report(a_path), &read_report(b_path), &thresholds);
    if flags.has("--json") {
        print!("{}", diff.to_json());
    } else {
        print!("{}", diff.render());
    }
    if !diff.passed() {
        if !flags.has("--json") {
            eprintln!("  KPI REGRESSION: {b_path} regressed against {a_path}");
        }
        std::process::exit(1);
    }
}

fn capacity_cmd(rest: &[String]) {
    let flags = Flags::new(rest);
    let mut base = load_config_from(&flags, &RunDefaults::default());
    if flags.get("--subscribers").is_none() {
        base.subscribers = 2048;
    }
    let max_load: f64 = flags.parse("--max-load", 32.0);
    let refine: u32 = flags.parse("--refine", 3);
    heading(&format!(
        "Capacity knee — {} subscribers, seed {}: bisecting offered load to the knee",
        base.subscribers, base.seed
    ));
    let search = capacity_knee(&base, max_load, refine);
    println!(
        "  {:>6} | {:>9} | {:>8} | {:>8} | {:>7} | {:>9} {:>9} | {:>5}",
        "load", "calls/s/h", "erlangs", "attempts", "block%", "setup p50", "setup p99", "MOS"
    );
    let mut rows: Vec<usize> = (0..search.probes.len()).collect();
    rows.sort_by(|&a, &b| {
        search.probes[a]
            .load_factor
            .total_cmp(&search.probes[b].load_factor)
    });
    for i in rows {
        let p = &search.probes[i];
        let setup = p.report.setup_delay();
        println!(
            "  {:>5.2}x | {:>9.1} | {:>8.1} | {:>8} | {:>6.2}% | {:>7.1}ms {:>7.1}ms | {:>5.2}",
            p.load_factor,
            p.calls_per_sub_hour,
            p.offered_erlangs,
            p.report.attempts(),
            p.report.blocking_rate() * 100.0,
            setup.percentile(50.0),
            setup.percentile(99.0),
            p.report.mos()
        );
    }
    match &search.knee {
        Some(k) => println!(
            "  knee bracketed in ({:.2}x, {:.2}x]: degrades at {:.1} Erlangs \
             ({:.1} calls/sub-hour)",
            k.good_factor, k.load_factor, k.offered_erlangs, k.calls_per_sub_hour
        ),
        None => println!("  no knee up to {max_load}x offered load"),
    }
    if let Some(path) = flags.get("--json") {
        write_file(path, &capacity_json(&search, &base, max_load, refine));
        println!("  json report: {path}");
    }
}

/// Hand-rolled JSON dump of a knee search: every probe plus the knee.
fn capacity_json(
    search: &vgprs_load::KneeSearch,
    base: &LoadConfig,
    max_load: f64,
    refine: u32,
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("{},\n", meta_json(base)));
    out.push_str(&format!("  \"subscribers\": {},\n", base.subscribers));
    out.push_str(&format!("  \"seed\": {},\n", base.seed));
    out.push_str(&format!("  \"max_load_factor\": {max_load},\n"));
    out.push_str(&format!("  \"refine_steps\": {refine},\n"));
    out.push_str("  \"probes\": [");
    for (i, p) in search.probes.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let setup = p.report.setup_delay();
        out.push_str(&format!(
            "\n    {{\"load_factor\": {}, \"offered_erlangs\": {}, \"attempts\": {}, \
             \"blocking_rate\": {}, \"setup_p50_ms\": {}, \"setup_p99_ms\": {}, \
             \"mos\": {}, \"fingerprint\": \"{:016x}\"}}",
            p.load_factor,
            p.offered_erlangs,
            p.report.attempts(),
            p.report.blocking_rate(),
            setup.percentile(50.0),
            setup.percentile(99.0),
            p.report.mos(),
            p.report.fingerprint()
        ));
    }
    out.push_str("\n  ],\n");
    match &search.knee {
        Some(k) => out.push_str(&format!(
            "  \"knee\": {{\"load_factor\": {}, \"good_factor\": {}, \
             \"offered_erlangs\": {}, \"calls_per_sub_hour\": {}}}\n",
            k.load_factor, k.good_factor, k.offered_erlangs, k.calls_per_sub_hour
        )),
        None => out.push_str("  \"knee\": null\n"),
    }
    out.push_str("}\n");
    out
}

/// One cell of the chaos matrix: a fault class at an intensity (or the
/// zero-fault baseline), with the resilience KPIs it produced.
struct ChaosCell {
    label: &'static str,
    intensity: f64,
    faults_injected: u64,
    attempts: u64,
    dropped_faulted: u64,
    dropped_baseline: u64,
    drop_rate: f64,
    recovery_n: u64,
    recovery_p50: f64,
    recovery_p99: f64,
    ras_retries: u64,
    arq_retries: u64,
    redials: u64,
    unavailability_secs: f64,
    frame_loss: f64,
    mos: f64,
    trunk_retransmits: u64,
    trunk_dup_drops: u64,
    trunk_dup_injected: u64,
    trunk_reordered: u64,
    trunk_expired: u64,
    trunk_frame_drops: u64,
    trunk_handoff_drops: u64,
    trunk_reroutes: u64,
    fingerprint: u64,
}

/// Folds one finished run into a [`ChaosCell`] row. Classic node-fault
/// cells leave the trunk counters at zero and vice versa — the matrix
/// keeps one uniform schema for both fault families.
fn chaos_cell_from(label: &'static str, intensity: f64, cfg: &LoadConfig) -> ChaosCell {
    let report = run_load(cfg);
    let dropped_faulted = FaultClass::ALL
        .into_iter()
        .map(|c| report.dropped_by_class(c))
        .sum::<u64>();
    let recovery = report.recovery_time();
    let (ras_retries, arq_retries) = report.guard_retries();
    ChaosCell {
        label,
        intensity,
        faults_injected: report.faults_injected(),
        attempts: report.attempts(),
        dropped_faulted,
        dropped_baseline: report.dropped_baseline(),
        drop_rate: if report.attempts() == 0 {
            0.0
        } else {
            dropped_faulted as f64 / report.attempts() as f64
        },
        recovery_n: recovery.count(),
        recovery_p50: recovery.percentile(50.0),
        recovery_p99: recovery.percentile(99.0),
        ras_retries,
        arq_retries,
        redials: report.redial_attempts(),
        unavailability_secs: FaultClass::ALL
            .into_iter()
            .map(|c| report.unavailability_secs(c))
            .sum(),
        frame_loss: report.frame_loss(),
        mos: report.mos(),
        trunk_retransmits: report.trunk_retransmits(),
        trunk_dup_drops: report.trunk_dup_drops(),
        trunk_dup_injected: report.trunk_dup_injected(),
        trunk_reordered: report.trunk_reordered(),
        trunk_expired: report.trunk_expired(),
        trunk_frame_drops: report.trunk_frame_drops(),
        trunk_handoff_drops: report.trunk_handoff_drops(),
        trunk_reroutes: report.trunk_reroutes(),
        fingerprint: report.fingerprint(),
    }
}

fn run_chaos_cell(base: &LoadConfig, class: Option<FaultClass>, intensity: f64) -> ChaosCell {
    let mut cfg = base.clone();
    cfg.faults = match class {
        Some(c) => FaultPlanConfig::only(c, intensity),
        None => FaultPlanConfig::default(),
    };
    chaos_cell_from(class.map_or("baseline", FaultClass::key), intensity, &cfg)
}

fn run_trunk_cell(base: &LoadConfig, class: Option<TrunkFaultClass>, intensity: f64) -> ChaosCell {
    let mut cfg = base.clone();
    cfg.trunk = match class {
        Some(c) => TrunkPlanConfig::only(c, intensity),
        None => TrunkPlanConfig::default(),
    };
    chaos_cell_from(
        class.map_or("trunk_baseline", TrunkFaultClass::key),
        intensity,
        &cfg,
    )
}

/// The chaos workload with cross-shard traffic switched on: trunk
/// faults only bite flits that actually cross a shard boundary, so the
/// trunk rows and gates run a population where a third of the calls do.
fn cross_shard_base(base: &LoadConfig) -> LoadConfig {
    let mut cfg = base.clone();
    if cfg.population.cross_shard_fraction == 0.0 {
        cfg.population.cross_shard_fraction = 0.35;
    }
    cfg
}

/// Resilience matrix: every fault class at two intensities against the
/// zero-fault baseline, on one fixed workload. Records drop rates,
/// recovery percentiles and retry volumes in `BENCH_chaos.json`.
/// `--check` instead verifies the determinism contract for faulted runs
/// (thread count, plus zero-intensity equivalence) on a tiny
/// population and exits nonzero on any divergence.
fn chaos_cmd(rest: &[String]) {
    let flags = Flags::new(rest);
    if flags.has("--check") {
        return chaos_check(&flags);
    }
    let base = load_config_from(
        &flags,
        &RunDefaults {
            subscribers: 512,
            shards: 2,
            window_secs: 120,
            calls_per_sub_hour: 60.0,
            mean_hold_secs: 20.0,
            ..RunDefaults::default()
        },
    );
    heading(&format!(
        "Chaos matrix — {} subscribers, {} shards, seed {}: fault classes x intensity",
        base.subscribers,
        base.effective_shards(),
        base.seed
    ));
    let mut cells = vec![run_chaos_cell(&base, None, 0.0)];
    for class in FaultClass::ALL {
        for intensity in [0.3, 1.0] {
            cells.push(run_chaos_cell(&base, Some(class), intensity));
        }
    }
    let xbase = cross_shard_base(&base);
    let trunk_start = cells.len();
    cells.push(run_trunk_cell(&xbase, None, 0.0));
    for class in TrunkFaultClass::ALL {
        for intensity in [0.3, 1.0] {
            cells.push(run_trunk_cell(&xbase, Some(class), intensity));
        }
    }
    println!(
        "  {:<15} {:>5} | {:>6} {:>7} {:>6} | {:>9} {:>9} {:>4} | {:>7} {:>5}",
        "class", "int", "faults", "drop%", "redial", "rec p50", "rec p99", "n", "loss%", "MOS"
    );
    for c in &cells[..trunk_start] {
        println!(
            "  {:<15} {:>5.1} | {:>6} {:>6.2}% {:>6} | {:>7.1}ms {:>7.1}ms {:>4} | {:>6.2}% {:>5.2}",
            c.label,
            c.intensity,
            c.faults_injected,
            c.drop_rate * 100.0,
            c.redials,
            c.recovery_p50,
            c.recovery_p99,
            c.recovery_n,
            c.frame_loss * 100.0,
            c.mos
        );
    }
    println!(
        "  {:<15} {:>5} | {:>6} {:>6} {:>6} {:>6} | {:>6} {:>6} {:>7} | {:>7} {:>5}",
        "trunk class", "int", "retx", "dup", "reord", "exp", "hodrop", "route", "frames", "loss%",
        "MOS"
    );
    for c in &cells[trunk_start..] {
        println!(
            "  {:<15} {:>5.1} | {:>6} {:>6} {:>6} {:>6} | {:>6} {:>6} {:>7} | {:>6.2}% {:>5.2}",
            c.label,
            c.intensity,
            c.trunk_retransmits,
            c.trunk_dup_drops,
            c.trunk_reordered,
            c.trunk_expired,
            c.trunk_handoff_drops,
            c.trunk_reroutes,
            c.trunk_frame_drops,
            c.frame_loss * 100.0,
            c.mos
        );
    }
    let path = flags.get("--out").unwrap_or("BENCH_chaos.json");
    write_file(path, &chaos_json(&base, &cells));
    println!("  recorded: {path}");
}

fn chaos_json(base: &LoadConfig, cells: &[ChaosCell]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"workload\": \"busy_hour_chaos\",\n");
    out.push_str(&format!("{},\n", meta_json(base)));
    out.push_str(&format!("  \"subscribers\": {},\n", base.subscribers));
    out.push_str(&format!("  \"shards\": {},\n", base.effective_shards()));
    out.push_str(&format!("  \"seed\": {},\n", base.seed));
    out.push_str(&format!(
        "  \"window_secs\": {},\n",
        base.population.window_secs
    ));
    out.push_str("  \"cells\": [");
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"class\": \"{}\", \"intensity\": {}, \"faults_injected\": {}, \
             \"attempts\": {}, \"dropped_faulted\": {}, \"dropped_baseline\": {}, \
             \"drop_rate\": {:.6}, \"recovery_n\": {}, \"recovery_p50_ms\": {:.1}, \
             \"recovery_p99_ms\": {:.1}, \"ras_retries\": {}, \"arq_retries\": {}, \
             \"redial_attempts\": {}, \"unavailability_secs\": {:.1}, \
             \"frame_loss\": {:.6}, \"mos\": {:.3}, \"trunk_retransmits\": {}, \
             \"trunk_dup_drops\": {}, \"trunk_dup_injected\": {}, \"trunk_reordered\": {}, \
             \"trunk_expired\": {}, \"trunk_frame_drops\": {}, \
             \"trunk_handoff_drops\": {}, \"trunk_reroutes\": {}, \
             \"fingerprint\": \"{:016x}\"}}",
            c.label,
            c.intensity,
            c.faults_injected,
            c.attempts,
            c.dropped_faulted,
            c.dropped_baseline,
            c.drop_rate,
            c.recovery_n,
            c.recovery_p50,
            c.recovery_p99,
            c.ras_retries,
            c.arq_retries,
            c.redials,
            c.unavailability_secs,
            c.frame_loss,
            c.mos,
            c.trunk_retransmits,
            c.trunk_dup_drops,
            c.trunk_dup_injected,
            c.trunk_reordered,
            c.trunk_expired,
            c.trunk_frame_drops,
            c.trunk_handoff_drops,
            c.trunk_reroutes,
            c.fingerprint
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// Runs `cfg` at every thread count of [`INVARIANCE_THREADS`] and prints
/// the verdict: the 1-thread report when every count matched it, `None`
/// after naming the first differing KPI line.
fn invariant(what: &str, cfg: &LoadConfig) -> Option<LoadReport> {
    match check_thread_invariance(cfg) {
        Ok(report) => {
            println!(
                "  {what}: identical at {INVARIANCE_THREADS:?} threads: {:016x}",
                report.fingerprint()
            );
            Some(report)
        }
        Err(d) => {
            eprintln!("  {} DIVERGENCE: {d}", what.to_uppercase());
            None
        }
    }
}

/// The chaos determinism gate: a fixed fault plan must fingerprint
/// identically at every thread count, and a zero-intensity plan must
/// reproduce the fault-free run exactly. The
/// same two contracts are then enforced for the trunk fault family on a
/// cross-shard population, plus per-class monotonicity: raising a trunk
/// class's intensity must never reduce the damage it reports.
fn chaos_check(flags: &Flags<'_>) {
    let base = load_config_from(
        flags,
        &RunDefaults {
            subscribers: 96,
            shards: 4,
            threads: 1,
            window_secs: 90,
            calls_per_sub_hour: 40.0,
            mean_hold_secs: 20.0,
            ..RunDefaults::default()
        },
    );
    heading(&format!(
        "Chaos determinism check — {} subscribers, {} shards, seed {}",
        base.subscribers,
        base.effective_shards(),
        base.seed
    ));
    let mut failed = false;

    let plain = run_load(&base);
    let zero = run_load(&LoadConfig {
        faults: FaultPlanConfig::all(0.0),
        ..base.clone()
    });
    if plain.fingerprint() == zero.fingerprint() {
        println!(
            "  zero-intensity == fault-free: {:016x}",
            plain.fingerprint()
        );
    } else {
        eprintln!(
            "  ZERO-INTENSITY DIVERGENCE: fault-free {:016x} != zero-plan {:016x}",
            plain.fingerprint(),
            zero.fingerprint()
        );
        failed = true;
    }

    let faulted = LoadConfig {
        faults: FaultPlanConfig::all(1.0),
        ..base.clone()
    };
    match invariant("faulted", &faulted) {
        Some(r) if r.faults_injected() == 0 => {
            eprintln!("  NO FAULTS INJECTED: the check is vacuous");
            failed = true;
        }
        Some(r) => println!("    ({} faults)", r.faults_injected()),
        None => failed = true,
    }

    // --- Trunk fault family, on a population with cross-shard calls ---
    let cross = cross_shard_base(&base);
    let plain_cross = run_load(&cross);
    let zero_trunk = run_load(&LoadConfig {
        trunk: TrunkPlanConfig::all(0.0),
        ..cross.clone()
    });
    if plain_cross.fingerprint() == zero_trunk.fingerprint() {
        println!(
            "  zero-intensity trunk plan == trunk-free: {:016x}",
            plain_cross.fingerprint()
        );
    } else {
        eprintln!(
            "  TRUNK ZERO-INTENSITY DIVERGENCE: trunk-free {:016x} != zero-plan {:016x}",
            plain_cross.fingerprint(),
            zero_trunk.fingerprint()
        );
        failed = true;
    }

    let trunk_faulted = LoadConfig {
        trunk: TrunkPlanConfig::all(1.0),
        ..cross
    };
    match invariant("trunk-faulted", &trunk_faulted) {
        Some(r) if r.trunk_retransmits() == 0 => {
            eprintln!("  NO TRUNK RETRANSMITS: the trunk check is vacuous");
            failed = true;
        }
        Some(r) => println!(
            "    ({} retransmits, {} expired)",
            r.trunk_retransmits(),
            r.trunk_expired()
        ),
        None => failed = true,
    }

    // Per-class graceful degradation: each class's own damage counter
    // must not shrink when its intensity rises (prefix-superset plans
    // make this hold by construction; the gate catches regressions).
    for class in TrunkFaultClass::ALL {
        let damage = |intensity: f64| -> u64 {
            let report = run_load(&LoadConfig {
                trunk: TrunkPlanConfig::only(class, intensity),
                ..trunk_faulted.clone()
            });
            match class {
                TrunkFaultClass::Loss => report.trunk_loss_drops(),
                TrunkFaultClass::Dup => report.trunk_dup_injected(),
                TrunkFaultClass::Reorder => report.trunk_reordered(),
                TrunkFaultClass::Partition => report.trunk_partition_drops(),
            }
        };
        let (low, high) = (damage(0.3), damage(1.0));
        if high < low {
            eprintln!(
                "  TRUNK NON-MONOTONE: {} damage fell from {} to {} as intensity rose",
                class.key(),
                low,
                high
            );
            failed = true;
        } else {
            println!(
                "  trunk {} monotone: {} damage at 0.3 -> {} at 1.0",
                class.key(),
                low,
                high
            );
        }
    }

    if failed {
        std::process::exit(1);
    }
    println!("  chaos determinism holds (node faults and trunk faults)");
}

/// One cell of the surge sweep: a flash-crowd intensity with the
/// overload controls on or off, and the KPIs it produced.
struct SurgeCell {
    intensity: f64,
    controls: bool,
    attempts: u64,
    attempts_peak: u64,
    peak_drop_rate: f64,
    steady_drop_rate: f64,
    pages_throttled: u64,
    pages_shed: u64,
    gk_shed: u64,
    gk_deferred: u64,
    pdp_deferred: u64,
    pdp_rejected: u64,
    admission_n: u64,
    admission_p50: f64,
    admission_p99: f64,
    setup_p99: f64,
    mos: f64,
    fingerprint: u64,
}

impl SurgeCell {
    /// Total overload-control interventions — the quantity that must
    /// grow monotonically with shock intensity when the controls are on.
    fn interventions(&self) -> u64 {
        self.pages_throttled
            + self.pages_shed
            + self.gk_shed
            + self.pdp_deferred
            + self.pdp_rejected
    }
}

/// The surge flag vocabulary shared by the sweep and the check: the
/// base workload plus the three control knobs.
fn surge_controls(flags: &Flags<'_>) -> OverloadControls {
    let std = OverloadControls::standard();
    OverloadControls {
        paging_rate_per_s: flags.parse("--paging-rate", std.paging_rate_per_s),
        gk_shed_utilization: flags.parse("--gk-shed", std.gk_shed_utilization),
        pdp_rate_per_s: flags.parse("--pdp-rate", std.pdp_rate_per_s),
    }
}

fn run_surge_cell(
    base: &LoadConfig,
    controls: OverloadControls,
    intensity: f64,
    on: bool,
) -> SurgeCell {
    run_surge_cell_verbose(base, controls, intensity, on, false)
}

fn run_surge_cell_verbose(
    base: &LoadConfig,
    controls: OverloadControls,
    intensity: f64,
    on: bool,
    verbose: bool,
) -> SurgeCell {
    let mut cfg = base.clone();
    cfg.scenario = ScenarioConfig::flash(intensity);
    cfg.controls = if on { controls } else { OverloadControls::default() };
    let report = run_load(&cfg);
    if verbose {
        println!(
            "\n--- {intensity}x, controls {} ---",
            if on { "on" } else { "off" }
        );
        println!("{}", report.render_deterministic());
    }
    let admission = report.admission_delay();
    SurgeCell {
        intensity,
        controls: on,
        attempts: report.attempts(),
        attempts_peak: report.attempts_peak(),
        peak_drop_rate: report.peak_drop_rate(),
        steady_drop_rate: report.steady_drop_rate(),
        pages_throttled: report.pages_throttled(),
        pages_shed: report.pages_shed(),
        gk_shed: report.gk_admission_shed(),
        gk_deferred: report.gk_shed_deferred(),
        pdp_deferred: report.pdp_deferred(),
        pdp_rejected: report.pdp_rejected(),
        admission_n: admission.count(),
        admission_p50: admission.percentile(50.0),
        admission_p99: admission.percentile(99.0),
        setup_p99: report.setup_delay().percentile(99.0),
        mos: report.mos(),
        fingerprint: report.fingerprint(),
    }
}

/// Flash-crowd overload sweep: shock intensity x {controls off, on} on
/// one fixed workload, recording shed/throttle volumes, admission
/// delay, peak-vs-steady drop rates and MOS in `BENCH_surge.json`.
/// `--check` instead runs the surge determinism + monotonicity gate.
fn surge_cmd(rest: &[String]) {
    let flags = Flags::new(rest);
    if flags.has("--check") {
        return surge_check(&flags);
    }
    let base = load_config_from(
        &flags,
        &RunDefaults {
            subscribers: 512,
            shards: 2,
            window_secs: 120,
            calls_per_sub_hour: 30.0,
            mean_hold_secs: 20.0,
            gk_bandwidth: 25_600,
            ..RunDefaults::default()
        },
    );
    let controls = surge_controls(&flags);
    heading(&format!(
        "Surge sweep — {} subscribers, {} shards, seed {}: shock intensity x overload controls",
        base.subscribers,
        base.effective_shards(),
        base.seed
    ));
    let verbose = flags.has("--verbose");
    let mut cells = Vec::new();
    for intensity in [0.0, 4.0, 10.0, 25.0] {
        for on in [false, true] {
            cells.push(run_surge_cell_verbose(&base, controls, intensity, on, verbose));
        }
    }
    println!(
        "  {:>5} {:<8} | {:>8} {:>7} | {:>6} {:>6} | {:>6} {:>5} {:>5} | {:>9} | {:>9} {:>5}",
        "shock", "controls", "attempts", "peak", "pk dr%", "st dr%", "thrtl", "shed", "GK", "adm p99", "setup p99", "MOS"
    );
    for c in &cells {
        println!(
            "  {:>4.0}x {:<8} | {:>8} {:>7} | {:>5.1}% {:>5.1}% | {:>6} {:>5} {:>5} | {:>7.1}ms | {:>7.1}ms {:>5.2}",
            c.intensity,
            if c.controls { "on" } else { "off" },
            c.attempts,
            c.attempts_peak,
            c.peak_drop_rate * 100.0,
            c.steady_drop_rate * 100.0,
            c.pages_throttled,
            c.pages_shed,
            c.gk_shed,
            c.admission_p99,
            c.setup_p99,
            c.mos
        );
    }
    let path = flags.get("--out").unwrap_or("BENCH_surge.json");
    write_file(path, &surge_json(&base, controls, &cells));
    println!("  recorded: {path}");
}

fn surge_json(base: &LoadConfig, controls: OverloadControls, cells: &[SurgeCell]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"workload\": \"busy_hour_surge\",\n");
    out.push_str(&format!("{},\n", meta_json(base)));
    out.push_str(&format!("  \"subscribers\": {},\n", base.subscribers));
    out.push_str(&format!("  \"shards\": {},\n", base.effective_shards()));
    out.push_str(&format!("  \"seed\": {},\n", base.seed));
    out.push_str(&format!(
        "  \"window_secs\": {},\n",
        base.population.window_secs
    ));
    out.push_str(&format!(
        "  \"controls\": {{\"paging_rate_per_s\": {}, \"gk_shed_utilization\": {}, \
         \"pdp_rate_per_s\": {}}},\n",
        controls.paging_rate_per_s, controls.gk_shed_utilization, controls.pdp_rate_per_s
    ));
    out.push_str("  \"cells\": [");
    for (i, c) in cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"intensity\": {}, \"controls\": {}, \"attempts\": {}, \
             \"attempts_peak\": {}, \"peak_drop_rate\": {:.6}, \"steady_drop_rate\": {:.6}, \
             \"pages_throttled\": {}, \"pages_shed\": {}, \"gk_admission_shed\": {}, \
             \"gk_shed_deferred\": {}, \"pdp_deferred\": {}, \"pdp_rejected\": {}, \
             \"admission_delay_n\": {}, \"admission_delay_p50_ms\": {:.1}, \
             \"admission_delay_p99_ms\": {:.1}, \"setup_p99_ms\": {:.1}, \"mos\": {:.3}, \
             \"fingerprint\": \"{:016x}\"}}",
            c.intensity,
            c.controls,
            c.attempts,
            c.attempts_peak,
            c.peak_drop_rate,
            c.steady_drop_rate,
            c.pages_throttled,
            c.pages_shed,
            c.gk_shed,
            c.gk_deferred,
            c.pdp_deferred,
            c.pdp_rejected,
            c.admission_n,
            c.admission_p50,
            c.admission_p99,
            c.setup_p99,
            c.mos,
            c.fingerprint
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// The surge determinism + monotonicity gate:
///
/// 1. A zero-shock plan with the controls off must reproduce the plain
///    flat busy-hour run bit-for-bit (fingerprint equality).
/// 2. A surged, controlled run must fingerprint identically at every
///    thread count.
/// 3. With the controls on, total interventions must grow monotonically
///    with shock intensity, and must be nonzero at the top intensity.
fn surge_check(flags: &Flags<'_>) {
    let base = load_config_from(
        flags,
        &RunDefaults {
            subscribers: 96,
            shards: 4,
            threads: 1,
            window_secs: 90,
            calls_per_sub_hour: 40.0,
            mean_hold_secs: 20.0,
            gk_bandwidth: 1_280,
            ..RunDefaults::default()
        },
    );
    // Aggressive knobs so the tiny check population still trips every
    // control within the 90 s window.
    let controls = OverloadControls {
        paging_rate_per_s: flags.parse("--paging-rate", 2),
        gk_shed_utilization: flags.parse("--gk-shed", 0.5),
        pdp_rate_per_s: flags.parse("--pdp-rate", 2),
    };
    heading(&format!(
        "Surge determinism check — {} subscribers, {} shards, seed {}",
        base.subscribers,
        base.effective_shards(),
        base.seed
    ));
    let mut failed = false;

    let plain = run_load(&base);
    let zero = run_load(&LoadConfig {
        scenario: ScenarioConfig::flash(0.0),
        ..base.clone()
    });
    if plain.fingerprint() == zero.fingerprint() {
        println!("  zero-shock == flat busy hour: {:016x}", plain.fingerprint());
    } else {
        eprintln!(
            "  ZERO-SHOCK DIVERGENCE: flat {:016x} != zero-shock plan {:016x}",
            plain.fingerprint(),
            zero.fingerprint()
        );
        failed = true;
    }

    let mut surged = base.clone();
    surged.scenario = ScenarioConfig::flash(10.0);
    surged.controls = controls;
    match invariant("surged", &surged) {
        Some(r) if r.attempts_peak() == 0 => {
            eprintln!("  NO PEAK ATTEMPTS: the shock never materialized");
            failed = true;
        }
        Some(r) => println!("    ({} peak attempts)", r.attempts_peak()),
        None => failed = true,
    }

    let mut last = None;
    for intensity in [4.0, 10.0, 25.0] {
        let cell = run_surge_cell(&base, controls, intensity, true);
        println!(
            "  controls on at {:.0}x: {} interventions, peak drop {:.1}%",
            intensity,
            cell.interventions(),
            cell.peak_drop_rate * 100.0
        );
        if let Some(prev) = last {
            if cell.interventions() < prev {
                eprintln!(
                    "  NON-MONOTONE: {} interventions at {:.0}x after {} below it",
                    cell.interventions(),
                    intensity,
                    prev
                );
                failed = true;
            }
        }
        last = Some(cell.interventions());
    }
    if last == Some(0) {
        eprintln!("  CONTROLS NEVER ENGAGED: the monotonicity check is vacuous");
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    println!("  surge determinism and monotone degradation hold");
}

/// Instant-based micro-benchmarks (successor to the criterion benches,
/// which required a crates-io dependency the workspace no longer has).
fn bench_cmd() {
    heading("Micro-benchmarks (median of 5 batches)");
    bench("gtp_header_roundtrip", 100_000, || {
        let h = std::hint::black_box(vgprs_wire::GtpHeader {
            msg_type: vgprs_wire::GtpMsgType::TPdu,
            length: 128,
            seq: 7,
            flow: 9,
            tid: 0x0123_4567_89AB_CDEF,
        });
        let bytes = h.encode();
        assert!(vgprs_wire::GtpHeader::decode(std::hint::black_box(&bytes)).is_ok());
    });
    bench("rtp_header_roundtrip", 100_000, || {
        let p = std::hint::black_box(vgprs_wire::RtpPacket {
            ssrc: 0xFEED,
            seq: 1,
            timestamp: 160,
            payload_type: vgprs_wire::PAYLOAD_TYPE_GSM,
            marker: true,
            payload_len: 33,
            call: CallId(1),
            origin_us: 0,
        });
        let bytes = p.encode_header();
        assert!(vgprs_wire::RtpPacket::decode_header(std::hint::black_box(&bytes)).is_ok());
    });
    bench("vgprs_full_registration", 20, || {
        let s = SingleZone::build(SEED);
        assert!(s.net.now() > vgprs_sim::SimTime::ZERO);
    });
    bench("vgprs_call_and_release", 20, || {
        let mut s = SingleZone::build(SEED);
        s.call_from_ms(CallId(1), SimDuration::from_secs(1));
        s.hangup_from_ms();
    });
    bench("busy_hour_shard_64_subs", 3, || {
        let report = run_load(&LoadConfig {
            subscribers: 64,
            shards: 1,
            threads: 1,
            ..LoadConfig::default()
        });
        assert!(report.events > 0);
    });
}

fn bench(name: &str, iters: u32, mut f: impl FnMut()) {
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                f();
            }
            start.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    let median = batches[2];
    if median >= 1e-3 {
        println!("  {name:<28} {:>10.3} ms/iter", median * 1e3);
    } else {
        println!("  {name:<28} {:>10.0} ns/iter", median * 1e9);
    }
}

fn fig1() {
    heading("Figure 1 — the GPRS network: data path MS → BSS → SGSN → GGSN → PSDN");
    let s = SingleZone::build(SEED);
    // Evidence: the MS's RRQ crossed every element of the data path in
    // order (Gb → Gn → Gi). Chain by trace index so the terminal's own
    // LAN-side RRQ is not mistaken for it.
    let t = s.net.trace();
    let gb = t.find_label("LLC:RAS_RRQ", 0).expect("RRQ on Gb");
    let gn = t.find_label("GTP:RAS_RRQ", gb).expect("RRQ on Gn");
    let gi = t.find_label("RAS_RRQ", gn).expect("RRQ on Gi/LAN");
    for (idx, label) in [(gb, "LLC:RAS_RRQ (Gb)"), (gn, "GTP:RAS_RRQ (Gn)"), (gi, "RAS_RRQ (Gi)")] {
        println!("  {label:<20} at {}", t.entries()[idx].at());
    }
    println!("  (Gb → Gn → Gi/LAN traversal confirms the Figure 1 topology)");
}

fn fig2() {
    heading("Figure 2 — VMSC interfaces and the vGPRS voice path");
    for row in interface_usage(SEED) {
        if row.messages > 0 {
            println!("  {:<6} {:>5} messages", row.interface.to_string(), row.messages);
        }
    }
    println!("  (A/B/Gb/Gn/Gi/LAN all carry traffic in one register + call cycle)");
}

fn fig3() {
    heading("Figure 3 — protocol layering per link (encapsulation labels)");
    let mut s = SingleZone::build(SEED);
    s.net.trace_mut().clear();
    s.call_from_ms(CallId(1), SimDuration::from_secs(1));
    let mut shown = std::collections::BTreeSet::new();
    for (label, iface) in s.net.trace().labeled_interfaces() {
        let key = (label.split(':').next().unwrap_or(label).to_owned(), iface);
        if shown.insert(key.clone()) && (label.contains(':') || iface.is_packet_core()) {
            println!("  [{:<4}] {label}", iface.to_string());
        }
    }
    println!("  (LLC: on Gb, GTP: on Gn — H.323 rides the tunnel exactly as Figure 3 draws)");
}

fn registration_ladder() -> (SingleZone, String) {
    let s = SingleZone::build(SEED);
    let ladder = LadderDiagram::new(s.net.trace()).render();
    (s, ladder)
}

fn fig4() {
    heading("Figure 4 — message flow for vGPRS registration (steps 1.1–1.6)");
    let (_s, ladder) = registration_ladder();
    print!("{ladder}");
}

fn fig5() {
    heading("Figure 5 — MS call origination and release (steps 2.1–2.9, 3.1–3.4)");
    let mut s = SingleZone::build(SEED);
    s.net.trace_mut().clear();
    s.call_from_ms(CallId(1), SimDuration::from_secs(1));
    s.hangup_from_ms();
    print!("{}", LadderDiagram::new(s.net.trace()).render());
}

fn fig6() {
    heading("Figure 6 — MS call termination (steps 4.1–4.8)");
    let mut s = SingleZone::build(SEED);
    s.net.trace_mut().clear();
    let ms_msisdn = s.ms_msisdn;
    s.net.inject(
        SimDuration::ZERO,
        s.term,
        Message::Cmd(Command::Dial {
            call: CallId(2),
            called: ms_msisdn,
        }),
    );
    let deadline = s.net.now() + SimDuration::from_secs(8);
    s.net.run_until(deadline);
    print!("{}", LadderDiagram::new(s.net.trace()).render());
}

fn fig7() {
    heading("Figure 7 — tromboning: classic GSM delivery to a roamer");
    let r = tromboning_classic(SEED);
    println!("  connected:            {}", r.connected);
    println!("  international trunks: {}", r.international_trunks);
    println!("  local trunks:         {}", r.local_trunks);
    println!("  trunk cost (60 s):    {:.1} units", r.trunk_cost_60s);
    if let Some(d) = r.post_dial_delay_ms {
        println!("  post-dial delay:      {d:.1} ms");
    }
}

fn fig8() {
    heading("Figure 8 — tromboning eliminated by vGPRS (visited-network GK)");
    let r = tromboning_vgprs(SEED, true);
    println!("  connected:            {}", r.connected);
    println!("  international trunks: {}", r.international_trunks);
    println!("  local trunks:         {}", r.local_trunks);
    println!("  trunk cost (60 s):    {:.1} units", r.trunk_cost_60s);
    if let Some(d) = r.post_dial_delay_ms {
        println!("  post-dial delay:      {d:.1} ms");
    }
    let f = tromboning_vgprs(SEED, false);
    println!("  --- gatekeeper miss (roamer absent): fallback to PSTN ---");
    println!("  connected:            {}", f.connected);
    println!("  international trunks: {}", f.international_trunks);
}

fn fig9() {
    heading("Figure 9 — inter-system handoff with the VMSC as anchor");
    let r = intersystem_handoff(SEED);
    println!("  handoffs completed:   {}", r.handoffs_completed);
    println!("  MS frames before:     {}", r.frames_before);
    println!("  MS frames after:      {}", r.frames_after);
    println!("  terminal frames after:{}", r.term_frames_after);
}

fn c1() {
    heading("C1 — voice quality vs. load (MOS; circuit air vs. shared PDCH)");
    println!(
        "  {:>5} | {:>10} {:>7} {:>5} | {:>10} {:>7} {:>5}",
        "calls", "vGPRS ms", "loss", "MOS", "TR ms", "loss", "MOS"
    );
    for row in c1_voice_quality(&[1, 2, 3, 4, 6], SEED) {
        println!(
            "  {:>5} | {:>10.1} {:>6.1}% {:>5.2} | {:>10.1} {:>6.1}% {:>5.2}",
            row.calls,
            row.vgprs_delay_ms,
            row.vgprs_loss * 100.0,
            row.vgprs_mos,
            row.tr_delay_ms,
            row.tr_loss * 100.0,
            row.tr_mos
        );
    }
}

fn c2() {
    heading("C2 — call-setup latency: pre-activated vs. per-call PDP context");
    println!(
        "  {:>5} | {:>9} | {:>9} {:>12} | {:>9} {:>9}",
        "scale", "vGPRS MO", "TR MO", "TR MO(on)", "vGPRS MT", "TR MT"
    );
    for row in c2_setup_latency(&[1, 5, 10], SEED) {
        println!(
            "  {:>4}x | {:>7.1}ms | {:>7.1}ms {:>10.1}ms | {:>7.1}ms {:>7.1}ms",
            row.core_scale,
            row.vgprs_mo_ms,
            row.tr_mo_ms,
            row.tr_mo_always_on_ms,
            row.vgprs_mt_ms,
            row.tr_mt_ms
        );
    }
}

fn c2_ablation() {
    heading("C2b — the paper's rejected variant: deactivate vGPRS contexts when idle");
    let r = c2_idle_ablation(SEED);
    println!("  standard vGPRS MO post-dial : {:.1} ms", r.standard_mo_ms);
    println!("  idle-deactivation variant   : {:.1} ms", r.idle_mode_mo_ms);
    println!(
        "  penalty                     : +{:.1} ms ({} context reactivation)",
        r.idle_mode_mo_ms - r.standard_mo_ms,
        r.reactivations
    );
}

fn c3() {
    heading("C3 — resident PDP contexts (always-on vs. on-demand)");
    println!(
        "  {:>11} {:>12} | {:>14} {:>11}",
        "subscribers", "active calls", "vGPRS contexts", "TR contexts"
    );
    for row in c3_context_memory(&[(10, 1), (20, 2), (40, 4)], SEED) {
        println!(
            "  {:>11} {:>12} | {:>14} {:>11}",
            row.subscribers, row.active_calls, row.vgprs_contexts, row.tr_contexts
        );
    }
}

fn c4() {
    heading("C4 — signaling volume and IMSI confidentiality");
    let (rows, conf) = c4_signaling(SEED);
    println!("  {:<20} {:>12} {:>12}", "procedure", "vGPRS msgs", "TR msgs");
    for r in rows {
        println!(
            "  {:<20} {:>12} {:>12}",
            r.procedure, r.vgprs_messages, r.tr_messages
        );
    }
    println!(
        "  IMSIs leaked to the H.323 domain: vGPRS = {}, TR = {}",
        conf.vgprs_imsi_disclosures, conf.tr_imsi_disclosures
    );
}

fn c5() {
    heading("C5 — anchor-path cost after inter-system handoff");
    let r = c5_handoff_cost(SEED);
    println!("  handoffs:            {}", r.handoffs);
    println!("  delay before:        {:.2} ms", r.delay_before_ms);
    println!("  delay after:         {:.2} ms", r.delay_after_ms);
    println!(
        "  anchor detour cost:  +{:.2} ms per frame",
        r.delay_after_ms - r.delay_before_ms
    );
}
