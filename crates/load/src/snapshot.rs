//! Periodic in-sim KPI snapshots: the observability layer.
//!
//! A [`SnapshotRecorder`] rides inside each shard and, every
//! `snapshot_secs` of *simulated* time, samples a fixed schema of
//! counters and histograms ([`SNAPSHOT_COUNTERS`],
//! [`SNAPSHOT_HISTOGRAMS`]) into a [`SnapshotFrame`]. Frames are
//! **cumulative** — each one is the run-so-far view at its boundary —
//! so a windowed (per-interval) series falls out by subtracting
//! adjacent frames ([`Histogram::delta_from`]) without the recorder
//! ever storing window state.
//!
//! Determinism: shards advance in epoch lockstep (every shard runs
//! every epoch while any shard is busy), so the stats a shard holds at
//! a given epoch boundary are a function of the configuration and seed
//! alone — never of the thread count. Sampling happens at
//! epoch ends, and a frame's `at_ms` is the *nominal* cadence boundary
//! it covers, so frames from different shards align index-for-index
//! and merge by simple pairwise addition.
//!
//! Memory: a frame stores `Vec<u64>` counters plus
//! [`SparseHistogram`]s (occupied buckets only), not full `Stats`
//! clones — a dense histogram is ~4 KB, which would dominate at
//! thousands of frames across hundreds of shards.

use vgprs_sim::{Histogram, SparseHistogram, Stats};

/// Counters every snapshot frame samples, in schema order. Fixed and
/// explicit so the frame layout (and the JSON emitted from it) never
/// depends on which counters a particular run happened to touch.
pub const SNAPSHOT_COUNTERS: &[&str] = &[
    "bsc.tch_blocked",
    "gk.admission_rejected_bandwidth",
    "gk.admission_rejected_unknown_alias",
    "gk.admission_shed",
    "load.attempts",
    "load.busy_skipped",
    "load.dropped_baseline",
    "load.dropped_blackhole",
    "load.dropped_link_degrade",
    "load.dropped_node_crash",
    "load.faults_injected",
    "load.handoff_attempts",
    "load.handoff_success",
    "load.trunk_frame_drops",
    "load.trunk_handoff_drops",
    "load.trunk_reroutes",
    "ms.voice_frames_received",
    "ms.voice_frames_sent",
    "sgsn.pdp_admission_deferred",
    "sgsn.pdp_admission_rejected",
    "term.rtp_received",
    "term.rtp_sent",
    "vmsc.admission_rejected",
    "vmsc.pages_shed",
    "vmsc.pages_throttled",
];

/// Histograms every snapshot frame samples, in schema order.
pub const SNAPSHOT_HISTOGRAMS: &[&str] = &[
    "load.handoff_interruption_ms",
    "load.heal_recovery_ms",
    "ms.post_dial_delay_ms",
    "ms.voice_e2e_ms",
    "term.post_dial_delay_ms",
    "term.voice_e2e_ms",
];

/// One cumulative KPI sample: the run-so-far counters and histograms
/// at a cadence boundary, in [`SNAPSHOT_COUNTERS`] /
/// [`SNAPSHOT_HISTOGRAMS`] order.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotFrame {
    /// The nominal cadence boundary this frame covers, in simulated
    /// milliseconds from the shard's busy-hour t0.
    pub at_ms: u64,
    /// Sampled counter values, one per [`SNAPSHOT_COUNTERS`] entry.
    pub counters: Vec<u64>,
    /// Sampled histograms, one per [`SNAPSHOT_HISTOGRAMS`] entry
    /// (empty snapshot when the run never touched the name).
    pub histograms: Vec<SparseHistogram>,
}

impl SnapshotFrame {
    /// Samples the schema out of `stats` at boundary `at_ms`.
    pub fn sample(at_ms: u64, stats: &Stats) -> SnapshotFrame {
        SnapshotFrame {
            at_ms,
            counters: SNAPSHOT_COUNTERS
                .iter()
                .map(|name| stats.counter(name))
                .collect(),
            histograms: SNAPSHOT_HISTOGRAMS
                .iter()
                .map(|name| {
                    stats
                        .histogram(name)
                        .map(SparseHistogram::from_histogram)
                        .unwrap_or_default()
                })
                .collect(),
        }
    }

    /// Folds another shard's frame for the same boundary into this one.
    pub fn merge(&mut self, other: &SnapshotFrame) {
        debug_assert_eq!(self.at_ms, other.at_ms, "merging misaligned frames");
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        for (a, b) in self.histograms.iter_mut().zip(&other.histograms) {
            a.merge(b);
        }
    }

    /// The sampled value of a schema counter; 0 for unknown names.
    pub fn counter(&self, name: &str) -> u64 {
        SNAPSHOT_COUNTERS
            .iter()
            .position(|n| *n == name)
            .map_or(0, |i| self.counters[i])
    }

    /// The sampled snapshot of a schema histogram; empty for unknown
    /// names.
    pub fn histogram(&self, name: &str) -> SparseHistogram {
        SNAPSHOT_HISTOGRAMS
            .iter()
            .position(|n| *n == name)
            .map(|i| self.histograms[i].clone())
            .unwrap_or_default()
    }

    fn merged(&self, names: &[&str]) -> SparseHistogram {
        let mut out = SparseHistogram::new();
        for n in names {
            out.merge(&self.histogram(n));
        }
        out
    }

    /// Call attempts the generator issued (busy-suppressed excluded) —
    /// the same denominator [`crate::LoadReport::attempts`] uses.
    pub fn attempts(&self) -> u64 {
        self.counter("load.attempts") - self.counter("load.busy_skipped")
    }

    /// Fraction of attempts refused a traffic channel at the cell.
    pub fn blocking_rate(&self) -> f64 {
        crate::report::ratio(self.counter("bsc.tch_blocked"), self.attempts())
    }

    /// Fraction of attempts the H.323 side refused.
    pub fn reject_rate(&self) -> f64 {
        let rejected = self.counter("gk.admission_rejected_bandwidth")
            + self.counter("gk.admission_rejected_unknown_alias")
            + self.counter("vmsc.admission_rejected");
        crate::report::ratio(rejected, self.attempts())
    }

    /// Voice frame loss across both directions.
    pub fn frame_loss(&self) -> f64 {
        let sent = self.counter("ms.voice_frames_sent") + self.counter("term.rtp_sent");
        let received =
            self.counter("ms.voice_frames_received") + self.counter("term.rtp_received");
        if sent == 0 {
            0.0
        } else {
            1.0 - (received as f64 / sent as f64).min(1.0)
        }
    }

    /// Merged end-to-end call-setup delay.
    pub fn setup_delay(&self) -> SparseHistogram {
        self.merged(&["ms.post_dial_delay_ms", "term.post_dial_delay_ms"])
    }

    /// One-way voice frame delay at both listener types.
    pub fn voice_delay(&self) -> SparseHistogram {
        self.merged(&["ms.voice_e2e_ms", "term.voice_e2e_ms"])
    }

    /// Voice interruption during cross-shard handoff.
    pub fn handoff_interruption(&self) -> SparseHistogram {
        self.histogram("load.handoff_interruption_ms")
    }

    /// E-model MOS at this boundary, scored exactly like
    /// [`crate::LoadReport::mos`] (same codec, playout and frame
    /// constants), so the end-of-run aggregate frame reproduces the
    /// summary MOS bit for bit.
    pub fn mos(&self) -> f64 {
        let delay = self.voice_delay();
        crate::report::score_mos(delay.count(), delay.mean(), self.frame_loss())
    }

    /// Folds this frame into an FNV-1a accumulator: boundary, counter
    /// values, and every histogram's count/sum/occupied buckets.
    pub fn fingerprint_into(&self, h: &mut u64) {
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                *h ^= b as u64;
                *h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        eat(&self.at_ms.to_le_bytes());
        for &v in &self.counters {
            eat(&v.to_le_bytes());
        }
        for hist in &self.histograms {
            eat(&hist.count().to_le_bytes());
            eat(&hist.sum().to_bits().to_le_bytes());
            for (midpoint, count) in hist.nonzero_buckets() {
                eat(&midpoint.to_bits().to_le_bytes());
                eat(&count.to_le_bytes());
            }
        }
    }

    /// The frame as a JSON object (derived KPIs plus the raw sampled
    /// counters, so `harness diff` can gate both views).
    pub fn to_json(&self, indent: &str) -> String {
        let f = crate::report::json_f64;
        let mut out = String::with_capacity(512);
        out.push_str(&format!("{{\n{indent}  \"at_ms\": {},\n", self.at_ms));
        out.push_str(&format!("{indent}  \"attempts\": {},\n", self.attempts()));
        out.push_str(&format!(
            "{indent}  \"blocking_rate\": {},\n",
            f(self.blocking_rate())
        ));
        out.push_str(&format!(
            "{indent}  \"reject_rate\": {},\n",
            f(self.reject_rate())
        ));
        out.push_str(&format!(
            "{indent}  \"frame_loss\": {},\n",
            f(self.frame_loss())
        ));
        out.push_str(&format!("{indent}  \"mos\": {},\n", f(self.mos())));
        for (name, hist) in [
            ("setup_delay_ms", self.setup_delay()),
            ("voice_delay_ms", self.voice_delay()),
            ("handoff_interruption_ms", self.handoff_interruption()),
        ] {
            out.push_str(&format!(
                "{indent}  \"{name}\": {{\"count\": {}, \"mean\": {}, \"p50\": {}, \"p99\": {}}},\n",
                hist.count(),
                f(hist.mean()),
                f(hist.percentile(50.0)),
                f(hist.percentile(99.0))
            ));
        }
        out.push_str(&format!("{indent}  \"counters\": {{"));
        let mut first = true;
        for (name, value) in SNAPSHOT_COUNTERS.iter().zip(&self.counters) {
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!("\"{name}\": {value}"));
        }
        out.push_str("}\n");
        out.push_str(&format!("{indent}}}"));
        out
    }
}

/// Samples [`SnapshotFrame`]s on a fixed sim-time cadence. The shard
/// calls [`SnapshotRecorder::observe`] at every epoch end; the recorder
/// emits one frame per elapsed cadence boundary.
#[derive(Clone, Debug)]
pub struct SnapshotRecorder {
    cadence_ms: u64,
    next_ms: u64,
    frames: Vec<SnapshotFrame>,
}

impl SnapshotRecorder {
    /// A recorder sampling every `snapshot_secs` of simulated time;
    /// `0` disables sampling entirely.
    pub fn new(snapshot_secs: u64) -> SnapshotRecorder {
        let cadence_ms = snapshot_secs * 1000;
        SnapshotRecorder {
            cadence_ms,
            next_ms: cadence_ms,
            frames: Vec::new(),
        }
    }

    /// Notes that simulated time has reached `now_ms` (relative to the
    /// busy-hour t0) and samples every cadence boundary passed since
    /// the last call. The frame records the *boundary's* timestamp but
    /// samples the *current* stats — at an epoch end, which is the same
    /// instant for every shard, so the series is thread-invariant.
    pub fn observe(&mut self, now_ms: u64, stats: &Stats) {
        if self.cadence_ms == 0 {
            return;
        }
        while self.next_ms <= now_ms {
            self.frames.push(SnapshotFrame::sample(self.next_ms, stats));
            self.next_ms += self.cadence_ms;
        }
    }

    /// The recorded series, consumed at shard seal time.
    pub fn into_frames(self) -> Vec<SnapshotFrame> {
        self.frames
    }
}

/// The windowed (per-interval) delta between two cumulative frames'
/// histograms, by schema name: `later - earlier` via
/// [`Histogram::delta_from`]. The returned histogram carries no
/// min/max extremes (a window's true extremes are unknowable from
/// cumulative buckets) and merges inertly when empty.
pub fn window_delta(later: &SnapshotFrame, earlier: &SnapshotFrame, name: &str) -> Histogram {
    later
        .histogram(name)
        .to_histogram()
        .delta_from(&earlier.histogram(name).to_histogram())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(pairs: &[(&str, u64)], obs: &[(&str, f64)]) -> Stats {
        let mut s = Stats::new();
        for &(name, v) in pairs {
            // The schema uses interned &'static str names; tests go
            // through the same string API the shards use.
            s.count_by(name, v);
        }
        for &(name, x) in obs {
            s.observe(name, x);
        }
        s
    }

    #[test]
    fn sample_follows_the_schema_order() {
        let s = stats_with(
            &[("load.attempts", 10), ("bsc.tch_blocked", 2)],
            &[("ms.voice_e2e_ms", 55.0)],
        );
        let frame = SnapshotFrame::sample(60_000, &s);
        assert_eq!(frame.counters.len(), SNAPSHOT_COUNTERS.len());
        assert_eq!(frame.histograms.len(), SNAPSHOT_HISTOGRAMS.len());
        assert_eq!(frame.counter("load.attempts"), 10);
        assert_eq!(frame.counter("bsc.tch_blocked"), 2);
        assert_eq!(frame.counter("vmsc.pages_shed"), 0);
        assert_eq!(frame.voice_delay().count(), 1);
        assert_eq!(frame.setup_delay().count(), 0);
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let a = stats_with(&[("load.attempts", 4)], &[("ms.voice_e2e_ms", 50.0)]);
        let b = stats_with(&[("load.attempts", 6)], &[("term.voice_e2e_ms", 70.0)]);
        let mut fa = SnapshotFrame::sample(60_000, &a);
        let fb = SnapshotFrame::sample(60_000, &b);
        fa.merge(&fb);
        assert_eq!(fa.counter("load.attempts"), 10);
        let voice = fa.voice_delay();
        assert_eq!(voice.count(), 2);
        assert_eq!(voice.sum(), 120.0);
    }

    #[test]
    fn recorder_emits_one_frame_per_boundary() {
        let s = Stats::new();
        let mut rec = SnapshotRecorder::new(60);
        rec.observe(50, &s); // epoch ends before the first boundary
        rec.observe(60_000, &s); // exactly on it
        rec.observe(185_000, &s); // skips past two more at once
        let frames = rec.into_frames();
        let at: Vec<u64> = frames.iter().map(|f| f.at_ms).collect();
        assert_eq!(at, vec![60_000, 120_000, 180_000]);
    }

    #[test]
    fn recorder_with_zero_cadence_is_inert() {
        let s = Stats::new();
        let mut rec = SnapshotRecorder::new(0);
        rec.observe(1_000_000, &s);
        assert!(rec.into_frames().is_empty());
    }

    #[test]
    fn window_delta_subtracts_cumulative_frames() {
        let early = stats_with(&[], &[("ms.voice_e2e_ms", 50.0)]);
        let mut s2 = early.clone();
        s2.observe("ms.voice_e2e_ms", 80.0);
        let f1 = SnapshotFrame::sample(60_000, &early);
        let f2 = SnapshotFrame::sample(120_000, &s2);
        let w = window_delta(&f2, &f1, "ms.voice_e2e_ms");
        assert_eq!(w.count(), 1);
        assert_eq!(w.sum(), 80.0);
        assert_eq!(w.min(), None, "windows carry no extremes");
    }

    #[test]
    fn frame_json_is_wellformed() {
        let s = stats_with(&[("load.attempts", 3)], &[("ms.voice_e2e_ms", 55.0)]);
        let frame = SnapshotFrame::sample(60_000, &s);
        let json = frame.to_json("    ");
        let doc = vgprs_sim::JsonValue::parse(&json).expect("frame JSON parses");
        assert_eq!(doc.get("at_ms").and_then(|v| v.as_f64()), Some(60_000.0));
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("load.attempts"))
                .and_then(|v| v.as_f64()),
            Some(3.0)
        );
    }
}
