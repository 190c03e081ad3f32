//! Benchmark of the vGPRS population-scale load engine.
//!
//! ```text
//! perfbench --workload <busy_hour|packed_cells|trunk_chaos> --seed N --seconds S --trace <0|1>
//! perfbench --stress-check [--seeds 42,7]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics. One repetition is a
//! child process that runs the workload's `vgprs_load::run_load` once
//! for each of several seeds derived from `--seed` (the first is
//! `--seed` itself) and checks every run's outputs. Repetitions go on
//! while `--seconds` allow, at least one. Host metrics are medians over
//! all runs; simulated metrics come from the first repetition's runs,
//! pooled, and repeat exactly for a seed.
//!
//! `--trace 1` runs the workload once untraced for `--seed`, then
//! through the traced replica of `run_load` (`replica.rs`) while
//! `--seconds` allow, checks that both render the same fingerprint, and
//! prints the per-layer metrics; the spans go to
//! `.bench_trace/<workload>-seed<N>.json`.
//!
//! The last line of standard output is the JSON result; a failed check
//! makes the exit code 1. `--stress-check` runs every workload traced on
//! each seed and checks that each still stresses the layer it was
//! chosen for.

mod replica;
mod workload;

use std::fmt::Write as _;
use std::process::Command;
use std::time::Instant;

use vgprs_load::{run_load, LoadReport};
use vgprs_sim::{Histogram, JsonValue};

use workload::Workload;

/// End-to-end metrics in the order they are printed, with their units.
const END_TO_END: [(&str, &str); 9] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("call_setup_frac", "ratio"),
    ("setup_p50_ms", "ms"),
    ("setup_tail_ms", "ms"),
    ("voice_p98_ms", "ms"),
    ("mos", "MOS"),
    ("handoff_ok_frac", "ratio"),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let numbers = |name: &str, default: &str| -> Vec<u64> {
        flag(name)
            .unwrap_or(default)
            .split(',')
            .map(|raw| {
                raw.parse()
                    .unwrap_or_else(|_| usage(&format!("{name} wants numbers, got {raw}")))
            })
            .collect()
    };
    if args.iter().any(|a| a == "--stress-check") {
        std::process::exit(stress_check(&numbers("--seeds", "42,7")));
    }
    let workload = flag("--workload")
        .map(|w| Workload::parse(w).unwrap_or_else(|| usage(&format!("unknown workload {w}"))))
        .unwrap_or_else(|| usage("--workload is required"));
    let code = match flag("--child") {
        Some("measure") => child_measure(workload, &numbers("--seeds", "42")),
        Some("trace") => child_trace(workload, numbers("--seeds", "42")[0]),
        Some(other) => usage(&format!("unknown child mode {other}")),
        None => {
            let seed = numbers("--seed", "42")[0];
            let seconds = numbers("--seconds", "10")[0] as f64;
            match numbers("--trace", "0")[0] {
                0 => untraced(workload, seed, seconds),
                1 => traced(workload, seed, seconds),
                _ => usage("--trace is 0 or 1"),
            }
        }
    };
    std::process::exit(code);
}

fn usage(why: &str) -> ! {
    eprintln!("perfbench: {why}");
    eprintln!("usage: perfbench --workload <busy_hour|packed_cells|trunk_chaos> --seed N --seconds S --trace <0|1>");
    eprintln!("       perfbench --stress-check [--seeds 42,7]");
    std::process::exit(2);
}

/// The seeds one untraced repetition of `workload` runs for `seed`;
/// distinct `seed`s below 2^32 never share one.
fn sub_seeds(workload: Workload, seed: u64) -> Vec<u64> {
    (0..workload.sub_runs())
        .map(|i| seed.wrapping_add(i << 32))
        .collect()
}

// ---------------------------------------------------------------------
// Child processes: each prints one JSON line.
// ---------------------------------------------------------------------

/// For each seed: the set-up path on its own, then one `run_load` call
/// and the output checks.
fn child_measure(workload: Workload, seeds: &[u64]) -> i32 {
    let (mut wall_s, mut setup_s, mut fingerprints, mut checks) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut peak_rss_mb = 0.0;
    let mut pooled: Option<LoadReport> = None;
    for &seed in seeds {
        let cfg = workload.config(seed);
        // `run_load` exposes no phase boundary, so set-up is timed on its
        // own and its shards are dropped before `run_load` builds them again.
        let started = Instant::now();
        drop(std::hint::black_box(replica::build(&cfg)));
        setup_s.push(started.elapsed().as_secs_f64());
        let started = Instant::now();
        let report = run_load(std::hint::black_box(&cfg));
        wall_s.push(started.elapsed().as_secs_f64());
        checks.extend(
            workload
                .check(&cfg, &report)
                .into_iter()
                .map(|c| format!("seed {seed}: {c}")),
        );
        fingerprints.push(format!("{:016x}", report.fingerprint()));
        match &mut pooled {
            None => {
                // The peak of a process that has run the workload once.
                peak_rss_mb = replica::proc_status_mb("VmHWM");
                pooled = Some(report);
            }
            Some(p) => {
                p.stats.merge(&report.stats);
                p.events += report.events;
            }
        }
    }
    let report = pooled.expect("at least one seed");
    let setup = report.setup_delay();
    let voice = report.voice_delay();
    let (tail_p, tail_ms) = tail_percentile(&setup);
    let handoff_ok_frac = match report.handoff_attempts() {
        0 => 1.0,
        n => report.handoff_successes() as f64 / n as f64,
    };
    let mut out = String::from("{");
    let mut field = |name: &str, value: String| {
        let _ = write!(out, "\"{name}\": {value}, ");
    };
    let list = |v: &[f64]| {
        format!(
            "[{}]",
            v.iter().map(f64::to_string).collect::<Vec<_>>().join(", ")
        )
    };
    field("wall_s", list(&wall_s));
    field("setup_s", list(&setup_s));
    field("peak_rss_mb", peak_rss_mb.to_string());
    field(
        "call_setup_frac",
        ratio(setup.count(), report.attempts()).to_string(),
    );
    field(
        "setup_p50_ms",
        interpolated_percentile(&setup, 50.0).to_string(),
    );
    field("setup_tail_ms", tail_ms.to_string());
    field(
        "voice_p98_ms",
        interpolated_percentile(&voice, 98.0).to_string(),
    );
    field("mos", report.mos().to_string());
    field("handoff_ok_frac", handoff_ok_frac.to_string());
    field("setup_tail_p", tail_p.to_string());
    field("setup_n", setup.count().to_string());
    field("voice_n", voice.count().to_string());
    field("handoff_attempts", report.handoff_attempts().to_string());
    field("attempts", report.attempts().to_string());
    field("fingerprints", format!("\"{}\"", fingerprints.join(" ")));
    let _ = write!(out, "\"checks\": {}}}", json_strings(&checks));
    println!("{out}");
    0
}

/// One run of the traced replica of `run_load`; writes its spans.
fn child_trace(workload: Workload, seed: u64) -> i32 {
    let cfg = workload.config(seed);
    let trace_id = format!("{}-seed{}-pid{}", workload.name(), seed, std::process::id());
    let traced = replica::traced_run(&cfg, trace_id);
    let mut checks = workload.check(&cfg, &traced.report);
    if traced.armed != workload.armed() {
        checks.push(format!(
            "trunk fabric armed = {}, want {}",
            traced.armed,
            workload.armed()
        ));
    }
    let dir = std::path::Path::new(".bench_trace");
    let path = dir.join(format!("{}-seed{}.json", workload.name(), seed));
    if let Err(e) =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, traced.recorder.to_json()))
    {
        checks.push(format!("cannot write {}: {e}", path.display()));
    }
    let layers: Vec<String> = traced
        .layers
        .iter()
        .map(|(name, value, unit)| format!("[\"{name}\", {value}, \"{unit}\"]"))
        .collect();
    println!(
        "{{\"wall_s\": {}, \"attempts\": {}, \"fingerprints\": \"{:016x}\", \"checks\": {}, \"layers\": [{}]}}",
        traced.wall.as_secs_f64(),
        traced.report.attempts(),
        traced.report.fingerprint(),
        json_strings(&checks),
        layers.join(", ")
    );
    0
}

/// Runs this executable as a child and parses the JSON line it prints.
fn spawn_child(mode: &str, workload: Workload, seeds: &[u64]) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let seeds: Vec<String> = seeds.iter().map(u64::to_string).collect();
    let out = Command::new(exe)
        .args([
            "--child",
            mode,
            "--workload",
            workload.name(),
            "--seeds",
            &seeds.join(","),
        ])
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{mode} child exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    JsonValue::parse(line).map_err(|e| format!("{mode} child printed no result ({e:?}): {line}"))
}

fn num(run: &JsonValue, key: &str) -> f64 {
    run.get(key).and_then(JsonValue::as_f64).unwrap_or(f64::NAN)
}

fn nums(run: &JsonValue, key: &str) -> Vec<f64> {
    run.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(JsonValue::as_f64)
        .collect()
}

fn fingerprints(run: &JsonValue) -> &str {
    run.get("fingerprints")
        .and_then(JsonValue::as_str)
        .unwrap_or_default()
}

// ---------------------------------------------------------------------
// The benchmark modes.
// ---------------------------------------------------------------------

/// Tallies of one benchmark run, printed as the final JSON line.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Outcome {
    /// Folds one child's result in. An operation is one call attempt;
    /// every attempt of a child whose checks failed counts as failed.
    /// `want` is the fingerprint list the child must have rendered.
    fn add(&mut self, run: &Result<JsonValue, String>, want: Option<&str>) {
        let (attempts, mut problems) = match run {
            Ok(run) => {
                let checks = run
                    .get("checks")
                    .and_then(JsonValue::as_array)
                    .unwrap_or_default();
                (
                    num(run, "attempts") as u64,
                    checks
                        .iter()
                        .filter_map(|c| c.as_str().map(str::to_owned))
                        .collect(),
                )
            }
            Err(e) => (0, vec![e.clone()]),
        };
        if let (Ok(run), Some(want)) = (run, want) {
            if fingerprints(run) != want {
                problems.push(format!(
                    "fingerprints [{}] differ from [{want}]",
                    fingerprints(run)
                ));
            }
        }
        self.attempted += attempts;
        if !problems.is_empty() {
            self.failed += attempts;
            self.problems.extend(problems);
        }
    }

    /// Prints the result line and returns the exit code.
    fn finish(self, metrics: &[(String, f64, String)]) -> i32 {
        for p in &self.problems {
            println!("CHECK FAILED: {p}");
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        let correct = self.problems.is_empty();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed.max(u64::from(!correct)),
            body.join(", ")
        );
        i32::from(!correct)
    }
}

/// Runs `child` while `seconds` allow, at least once; stops early when a
/// child cannot run at all.
fn repeat(
    seconds: f64,
    mut child: impl FnMut() -> Result<JsonValue, String>,
) -> Vec<Result<JsonValue, String>> {
    let started = Instant::now();
    let mut runs = Vec::new();
    let mut took = Vec::new();
    while runs.is_empty() || started.elapsed().as_secs_f64() + median(&took) <= seconds {
        let child_started = Instant::now();
        let run = child();
        took.push(child_started.elapsed().as_secs_f64());
        let stop = run.is_err();
        runs.push(run);
        if stop {
            break;
        }
    }
    runs
}

/// `--trace 0`: untraced `run_load` calls, end-to-end metrics.
fn untraced(workload: Workload, seed: u64, seconds: f64) -> i32 {
    let seeds = sub_seeds(workload, seed);
    let runs = repeat(seconds, || spawn_child("measure", workload, &seeds));
    let mut outcome = Outcome::default();
    // Every repetition must render the first one's fingerprints.
    let want = runs[0].as_ref().ok().map(|r| fingerprints(r).to_owned());
    for run in &runs {
        outcome.add(run, want.as_deref());
    }
    let ok: Vec<&JsonValue> = runs.iter().filter_map(|r| r.as_ref().ok()).collect();
    let Some(first) = ok.first() else {
        return outcome.finish(&[]);
    };
    println!(
        "{} seed {seed}: {} repetitions of {} runs; host metrics are medians over runs, \
         simulated ones pooled over one repetition's runs",
        workload.name(),
        ok.len(),
        seeds.len()
    );
    let mut metrics = Vec::new();
    for (name, unit) in END_TO_END {
        let value = match name {
            "wall_s" | "setup_s" => {
                median(&ok.iter().flat_map(|r| nums(r, name)).collect::<Vec<_>>())
            }
            "peak_rss_mb" => median(&ok.iter().map(|r| num(r, name)).collect::<Vec<_>>()),
            _ => num(first, name),
        };
        let detail = match name {
            "setup_p50_ms" => format!("  (n={})", num(first, "setup_n")),
            "setup_tail_ms" => format!(
                "  (p{}, n={})",
                num(first, "setup_tail_p"),
                num(first, "setup_n")
            ),
            "voice_p98_ms" => format!("  (n={})", num(first, "voice_n")),
            "call_setup_frac" => format!("  ({} attempts)", num(first, "attempts")),
            "handoff_ok_frac" => format!(
                "  ({} cross-shard attempts)",
                num(first, "handoff_attempts")
            ),
            _ => String::new(),
        };
        println!("{name:<18} {value:>14.6} {unit}{detail}");
        metrics.push((name.to_owned(), value, unit.to_owned()));
    }
    outcome.finish(&metrics)
}

/// `--trace 1`: one untraced reference run, then traced replicas while
/// `seconds` allow; per-layer metrics.
fn traced(workload: Workload, seed: u64, seconds: f64) -> i32 {
    let started = Instant::now();
    let mut outcome = Outcome::default();
    let reference = spawn_child("measure", workload, &[seed]);
    outcome.add(&reference, None);
    let Ok(reference) = reference else {
        return outcome.finish(&[]);
    };
    let left = seconds - started.elapsed().as_secs_f64();
    let runs = repeat(left, || spawn_child("trace", workload, &[seed]));
    for run in &runs {
        outcome.add(run, Some(fingerprints(&reference)));
    }
    let ok: Vec<JsonValue> = runs.into_iter().filter_map(Result::ok).collect();
    if ok.is_empty() {
        return outcome.finish(&[]);
    }
    println!(
        "{} seed {seed}: {} traced runs, times are medians; traced fingerprint {} untraced {}",
        workload.name(),
        ok.len(),
        fingerprints(&ok[0]),
        fingerprints(&reference)
    );
    let mut metrics = layer_medians(&ok);
    let traced_wall = median(&ok.iter().map(|r| num(r, "wall_s")).collect::<Vec<_>>());
    metrics.push((
        "trace.overhead_s".to_owned(),
        traced_wall - nums(&reference, "wall_s")[0],
        "s".to_owned(),
    ));
    for (name, value, unit) in &metrics {
        println!("{name:<26} {value:>18.6} {unit}");
    }
    outcome.finish(&metrics)
}

/// Per-layer metrics of traced runs, median over runs (counts repeat
/// exactly, so their median is the count).
fn layer_medians(runs: &[JsonValue]) -> Vec<(String, f64, String)> {
    let rows = |run: &JsonValue| -> Vec<(String, f64, String)> {
        run.get("layers")
            .and_then(JsonValue::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(|row| {
                let row = row.as_array()?;
                Some((
                    row.first()?.as_str()?.to_owned(),
                    row.get(1)?.as_f64()?,
                    row.get(2)?.as_str()?.to_owned(),
                ))
            })
            .collect()
    };
    let per_run: Vec<_> = runs.iter().map(rows).collect();
    per_run[0]
        .iter()
        .enumerate()
        .map(|(i, (name, _, unit))| {
            let values: Vec<f64> = per_run
                .iter()
                .filter_map(|r| r.get(i).map(|m| m.1))
                .collect();
            (name.clone(), median(&values), unit.clone())
        })
        .collect()
}

/// Traced runs per workload and seed in `--stress-check`; host times
/// are compared as medians, since one run can be slowed by the host.
const STRESS_REPS: usize = 3;

/// `--stress-check`: every workload traced on each seed; checks that
/// each still stresses the layer it was chosen for.
fn stress_check(seeds: &[u64]) -> i32 {
    let mut outcome = Outcome::default();
    for &seed in seeds {
        let mut layers = Vec::new();
        for workload in Workload::ALL {
            let runs: Vec<_> = (0..STRESS_REPS)
                .map(|_| spawn_child("trace", workload, &[seed]))
                .collect();
            for run in &runs {
                outcome.add(run, None);
            }
            let ok: Vec<JsonValue> = runs.into_iter().filter_map(Result::ok).collect();
            if ok.len() == STRESS_REPS {
                let mut metrics = layer_medians(&ok);
                let wall = median(&ok.iter().map(|r| num(r, "wall_s")).collect::<Vec<_>>());
                metrics.push(("traced_wall_s".to_owned(), wall, "s".to_owned()));
                layers.push((workload, metrics));
            }
        }
        if layers.len() < Workload::ALL.len() {
            continue;
        }
        let get = |w: Workload, name: &str| -> f64 {
            let metrics = &layers
                .iter()
                .find(|(lw, _)| *lw == w)
                .expect("every workload ran")
                .1;
            metrics
                .iter()
                .find(|(n, ..)| n == name)
                .map_or(f64::NAN, |m| m.1)
        };
        println!("seed {seed}:");
        println!(
            "  {:<24}{:>16}{:>16}{:>16}",
            "metric", "busy_hour", "packed_cells", "trunk_chaos"
        );
        let shown = [
            "sim.events_per_attempt",
            "shard.new_s",
            "media.frames_sent",
            "shard.idle_epochs",
            "trunk.barrier_s",
            "traced_wall_s",
        ];
        for name in shown {
            let cells: String = Workload::ALL
                .iter()
                .map(|&w| format!("{:>16.4}", get(w, name)))
                .collect();
            println!("  {name:<24}{cells}");
        }
        let highest = |w: Workload, name: &str| {
            Workload::ALL
                .iter()
                .all(|&o| o == w || get(w, name) > get(o, name))
        };
        let share = |w: Workload| get(w, "trunk.barrier_s") / get(w, "traced_wall_s");
        let mut expect = |ok: bool, what: String| {
            if !ok {
                outcome.problems.push(format!("seed {seed}: {what}"));
            }
        };
        for (w, name) in [
            (Workload::PackedCells, "sim.events_per_attempt"),
            (Workload::PackedCells, "shard.new_s"),
            (Workload::BusyHour, "media.frames_sent"),
            (Workload::BusyHour, "shard.idle_epochs"),
        ] {
            expect(
                highest(w, name),
                format!("{} lacks the highest {name}", w.name()),
            );
        }
        let chaos = share(Workload::TrunkChaos);
        expect(
            chaos >= 1.0 / 3.0,
            format!("trunk.barrier_s is {chaos:.3} of trunk_chaos's traced run, under a third"),
        );
        for w in [Workload::BusyHour, Workload::PackedCells] {
            expect(
                share(w) < 0.05,
                format!(
                    "trunk.barrier_s is {:.3} of {}'s traced run, not near zero",
                    share(w),
                    w.name()
                ),
            );
        }
    }
    println!(
        "stress check: {}",
        if outcome.problems.is_empty() {
            "every workload stresses its layer"
        } else {
            "FAILED"
        }
    );
    outcome.finish(&[])
}

// ---------------------------------------------------------------------
// Numbers.
// ---------------------------------------------------------------------

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `p`-th percentile (0–100), interpolated linearly inside the
/// histogram bucket that holds the rank, as Prometheus'
/// `histogram_quantile` does. Buckets are log-spaced with 16 per
/// octave, so a bucket with midpoint `m` in octave `2^e` spans
/// `m ± 2^e / 32`. Simulated delays take few distinct values, and
/// `Histogram::percentile` returns bucket midpoints clamped to the
/// observed range, which hides every shift of the rank inside a bucket.
fn interpolated_percentile(h: &Histogram, p: f64) -> f64 {
    let rank = p / 100.0 * h.count() as f64;
    let mut seen = 0.0;
    for (mid, count) in h.nonzero_buckets() {
        let count = count as f64;
        if seen + count >= rank && count > 0.0 {
            let width = if mid > 0.0 {
                mid.log2().floor().exp2() / 16.0
            } else {
                0.0
            };
            return mid - width / 2.0 + width * (rank - seen) / count;
        }
        seen += count;
    }
    0.0
}

/// The highest of p99, p95 and p90 with at least ten samples beyond it
/// (p90 when even that has fewer), as `(percentile, value)`.
fn tail_percentile(h: &Histogram) -> (f64, f64) {
    let n = h.count() as f64;
    let p = [99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| n - (p / 100.0 * n).ceil() >= 10.0)
        .unwrap_or(90.0);
    (p, interpolated_percentile(h, p))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn json_strings(items: &[String]) -> String {
    let quoted: Vec<String> = items
        .iter()
        .map(|s| format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "'")))
        .collect();
    format!("[{}]", quoted.join(", "))
}
