//! The thread-count invariance check every determinism gate runs.
//!
//! A load run is a function of its configuration and master seed, never
//! of the worker-thread count. [`check_thread_invariance`] runs one
//! configuration at every count in [`INVARIANCE_THREADS`] and compares
//! each run with the 1-thread reference. On a mismatch it returns a
//! [`Divergence`] that names the thread count and the first differing
//! KPI line, not just two hashes.

use std::fmt;

use crate::engine::{run_load, LoadConfig};
use crate::report::LoadReport;

/// The worker-thread counts every invariance check runs.
pub const INVARIANCE_THREADS: [usize; 3] = [1, 2, 8];

/// A run that disagreed with the 1-thread reference.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// Worker threads of the run that disagreed.
    pub threads: usize,
    /// The reference's version of the first differing KPI line.
    pub reference: String,
    /// The same line from the run at `threads` threads.
    pub other: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "diverged at {} threads: 1 thread has `{}`, {} threads have `{}`",
            self.threads, self.reference, self.threads, self.other
        )
    }
}

/// Runs `cfg` at every count in [`INVARIANCE_THREADS`] (its own
/// `threads` is ignored). Returns the 1-thread reference report, whose
/// [`fingerprint`](LoadReport::fingerprint) every other count matched,
/// so callers can check the run was not vacuous without running it
/// again.
pub fn check_thread_invariance(cfg: &LoadConfig) -> Result<LoadReport, Divergence> {
    let run = |threads| {
        run_load(&LoadConfig {
            threads,
            ..cfg.clone()
        })
    };
    let reference = run(INVARIANCE_THREADS[0]);
    let expected = kpi_lines(&reference);
    for threads in INVARIANCE_THREADS.into_iter().skip(1) {
        if let Some((reference, other)) = first_difference(&expected, &kpi_lines(&run(threads))) {
            return Err(Divergence {
                threads,
                reference,
                other,
            });
        }
    }
    Ok(reference)
}

/// The first line where `a` and `b` differ, from each side; a line one
/// side lacks reads `<no line>`.
fn first_difference(a: &[String], b: &[String]) -> Option<(String, String)> {
    let i = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i))?;
    let line = |lines: &[String]| lines.get(i).cloned().unwrap_or_else(|| "<no line>".into());
    Some((line(a), line(b)))
}

/// Everything two invariant runs must share, one KPI per line: the
/// deterministic rendering, every merged counter and histogram, every
/// snapshot frame, and the two fingerprints that hash them.
fn kpi_lines(report: &LoadReport) -> Vec<String> {
    let mut lines: Vec<String> = report
        .render_deterministic()
        .lines()
        .map(str::to_owned)
        .collect();
    lines.extend(
        report
            .stats
            .counters()
            .map(|(name, value)| format!("counter {name} = {value}")),
    );
    lines.extend(report.stats.histograms().map(|(name, hist)| {
        format!(
            "histogram {name}: n={} sum={:?} buckets={:?}",
            hist.count(),
            hist.sum(),
            hist.nonzero_buckets().collect::<Vec<_>>()
        )
    }));
    for frame in &report.snapshots {
        let json = frame.to_json("");
        lines.extend(
            json.lines()
                .map(|line| format!("snapshot @ {} ms: {}", frame.at_ms, line.trim())),
        );
    }
    lines.push(format!("fingerprint = {:016x}", report.fingerprint()));
    lines.push(format!(
        "snapshot fingerprint = {:016x}",
        report.snapshot_fingerprint()
    ));
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_difference_finds_the_first_differing_line() {
        let lines = |raw: &[&str]| raw.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let a = lines(&["attempts : 10", "drops : 1", "mos : 3.6"]);
        assert_eq!(first_difference(&a, &a), None);
        let b = lines(&["attempts : 10", "drops : 2", "mos : 3.5"]);
        assert_eq!(
            first_difference(&a, &b),
            Some(("drops : 1".into(), "drops : 2".into()))
        );
        assert_eq!(
            first_difference(&a, &a[..2]),
            Some(("mos : 3.6".into(), "<no line>".into()))
        );
    }

    #[test]
    fn divergence_names_threads_and_line() {
        let d = Divergence {
            threads: 8,
            reference: "attempts : 10".into(),
            other: "attempts : 11".into(),
        };
        assert_eq!(
            d.to_string(),
            "diverged at 8 threads: 1 thread has `attempts : 10`, 8 threads have `attempts : 11`"
        );
    }

    #[test]
    fn kpi_lines_cover_both_fingerprints() {
        let mut cfg = LoadConfig {
            subscribers: 32,
            shards: 2,
            threads: 1,
            snapshot_secs: 30,
            ..LoadConfig::default()
        };
        cfg.population.calls_per_sub_hour = 40.0;
        cfg.population.window_secs = 90;
        let report = run_load(&cfg);
        let lines = kpi_lines(&report);
        assert!(lines.iter().any(|l| l.starts_with("counter ")));
        assert!(lines.iter().any(|l| l.starts_with("histogram ")));
        assert!(lines.iter().any(|l| l.starts_with("snapshot @ ")));
        assert_eq!(
            lines[lines.len() - 2..],
            [
                format!("fingerprint = {:016x}", report.fingerprint()),
                format!(
                    "snapshot fingerprint = {:016x}",
                    report.snapshot_fingerprint()
                ),
            ]
        );
    }
}
