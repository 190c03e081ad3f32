//! The merged, deterministic view of a load run.
//!
//! Shard reports are merged **in shard-index order**, so the combined
//! counters, histograms and the fingerprint derived from them are
//! independent of which thread finished first. Wall-clock figures
//! (events/second) are carried separately and explicitly excluded from
//! the fingerprint.

use std::time::Duration;

use vgprs_faults::FaultClass;
use vgprs_media::{EModel, Vocoder};
use vgprs_sim::{Histogram, Stats};

use crate::shard::ShardReport;
use crate::snapshot::SnapshotFrame;

/// Counters that measure simulator work rather than network behaviour:
/// message deliveries, and pages delivered to a handset on a cell it no
/// longer camps on (which it ignores).
const WORK_COUNTERS: [&str; 2] = ["sim.delivered", "ms.ignored_stale_page"];

/// Jitter-buffer playout depth added to the measured network delay when
/// scoring MOS (same constant the C1 experiment uses).
const PLAYOUT_MS: f64 = 60.0;
/// Codec packetization interval.
const FRAME_MS: f64 = 20.0;

/// Everything a load run produces.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// Population size across all shards.
    pub subscribers: usize,
    /// How many independent serving-area pairs were simulated.
    pub shards: usize,
    /// Worker threads used (does not affect any KPI).
    pub threads: usize,
    /// Merged counters and histograms from every shard.
    pub stats: Stats,
    /// Total simulation events processed.
    pub events: u64,
    /// Simulated seconds covered by the longest shard.
    pub sim_secs: f64,
    /// Wall-clock duration of the parallel run (not deterministic).
    pub wall: Duration,
    /// Snapshot cadence in simulated seconds (`0` = sampling off).
    pub snapshot_secs: u64,
    /// The merged KPI time series: one cumulative frame per cadence
    /// boundary, summed across shards.
    pub snapshots: Vec<SnapshotFrame>,
    /// Each shard's own (unmerged) series, index-aligned with the
    /// merged one. Observability only — never part of any fingerprint.
    pub shard_snapshots: Vec<Vec<SnapshotFrame>>,
}

impl LoadReport {
    /// Merges per-shard evidence; `reports` must be in shard order.
    pub fn merge(
        subscribers: usize,
        threads: usize,
        snapshot_secs: u64,
        reports: &[ShardReport],
        wall: Duration,
    ) -> LoadReport {
        let mut stats = Stats::new();
        let mut events = 0;
        let mut sim_secs = 0f64;
        // Frame i of every shard covers the same nominal boundary (the
        // lockstep engine runs every shard through every epoch), so the
        // merged series is the index-wise sum, folded in shard order.
        let mut snapshots: Vec<SnapshotFrame> = Vec::new();
        for r in reports {
            stats.merge(&r.stats);
            events += r.events;
            sim_secs = sim_secs.max(r.sim_end.as_secs_f64());
            for (i, frame) in r.snapshots.iter().enumerate() {
                match snapshots.get_mut(i) {
                    Some(merged) => merged.merge(frame),
                    None => snapshots.push(frame.clone()),
                }
            }
        }
        LoadReport {
            subscribers,
            shards: reports.len(),
            threads,
            stats,
            events,
            sim_secs,
            wall,
            snapshot_secs,
            snapshots,
            shard_snapshots: reports.iter().map(|r| r.snapshots.clone()).collect(),
        }
    }

    /// The end-of-run snapshot row, sampled from the *merged* stats —
    /// by construction its KPIs equal the summary KPIs exactly (same
    /// counters, same histogram sums, same [`score_mos`] scoring).
    pub fn snapshot_aggregate(&self) -> SnapshotFrame {
        SnapshotFrame::sample((self.sim_secs * 1000.0).round() as u64, &self.stats)
    }

    /// FNV-1a over the snapshot stream (cadence, every frame, and the
    /// end-of-run aggregate). Kept separate from [`Self::fingerprint`]
    /// so committed BENCH artifacts from earlier PRs stay valid.
    pub fn snapshot_fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in self.snapshot_secs.to_le_bytes().iter() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        for frame in &self.snapshots {
            frame.fingerprint_into(&mut h);
        }
        self.snapshot_aggregate().fingerprint_into(&mut h);
        h
    }

    fn counter(&self, name: &str) -> u64 {
        self.stats.counter(name)
    }

    /// Call attempts the generator issued.
    pub fn attempts(&self) -> u64 {
        self.counter("load.attempts") - self.counter("load.busy_skipped")
    }

    /// Merged end-to-end call-setup delay seen by the originators
    /// (mobile post-dial delay plus the wireline terminals' for MT).
    pub fn setup_delay(&self) -> Histogram {
        self.merged_histogram(&["ms.post_dial_delay_ms", "term.post_dial_delay_ms"])
    }

    /// Paging latency at the VMSC (page sent to page response).
    pub fn paging_delay(&self) -> Histogram {
        self.merged_histogram(&["vmsc.paging_response_ms"])
    }

    /// Voice PDP context activation time at the VMSC.
    pub fn pdp_activation(&self) -> Histogram {
        self.merged_histogram(&["vmsc.voice_pdp_activation_ms"])
    }

    /// One-way voice frame delay at both listener types.
    pub fn voice_delay(&self) -> Histogram {
        self.merged_histogram(&["ms.voice_e2e_ms", "term.voice_e2e_ms"])
    }

    /// Inter-VMSC (cross-shard) handoffs the anchor VMSCs initiated.
    pub fn handoff_attempts(&self) -> u64 {
        self.counter("load.handoff_attempts")
    }

    /// Handoffs that completed the full Figure 9 ladder (the anchor
    /// acknowledged `MAP Send End Signal`).
    pub fn handoff_successes(&self) -> u64 {
        self.counter("load.handoff_success")
    }

    /// Handoffs that started a MAP dialogue but never closed it — the
    /// call ended (or the window did) mid-ladder.
    pub fn handoff_drops(&self) -> u64 {
        self.handoff_attempts()
            .saturating_sub(self.handoff_successes())
    }

    /// Voice interruption during handoff: handover-complete on the
    /// target cell to the first downlink frame arriving there.
    pub fn handoff_interruption(&self) -> Histogram {
        self.merged_histogram(&["load.handoff_interruption_ms"])
    }

    /// Dedicated-channel downlink messages that chased the subscriber to
    /// a cell it had already left (mid-handoff loss, discarded by the
    /// handset). Pages heard on such a cell are not losses and count
    /// apart, as `ms.ignored_stale_page`.
    pub fn handoff_frame_loss(&self) -> u64 {
        self.counter("ms.ignored_stale_cell")
    }

    /// Idle-mode HLR ownership moves between shards (each direction of
    /// a round trip counts once).
    pub fn hlr_relocations(&self) -> u64 {
        self.counter("load.hlr_relocations")
    }

    /// Impairment windows the fault plan opened across all shards.
    pub fn faults_injected(&self) -> u64 {
        self.counter("load.faults_injected")
    }

    /// Probed calls found dead inside a window of the given fault class.
    pub fn dropped_by_class(&self, class: FaultClass) -> u64 {
        self.counter(&format!("load.dropped_{}", class.key()))
    }

    /// Probed calls found dead outside any fault window (ordinary
    /// blocking / admission rejects the redial machinery also retries).
    pub fn dropped_baseline(&self) -> u64 {
        self.counter("load.dropped_baseline")
    }

    /// Scheduled impairment seconds for the given fault class.
    pub fn unavailability_secs(&self, class: FaultClass) -> f64 {
        self.counter(&format!("load.unavailability_ms_{}", class.key())) as f64 / 1000.0
    }

    /// Trunk flits the fabric resent after a lost transmission (every
    /// back-off rung of every pending flit counts once).
    pub fn trunk_retransmits(&self) -> u64 {
        self.counter("trunk.retransmits")
    }

    /// Duplicate trunk flits the receive window suppressed.
    pub fn trunk_dup_drops(&self) -> u64 {
        self.counter("trunk.dup_drops")
    }

    /// Trunk flits whose retransmission budget ran out (the sender
    /// shard was told and resolved the casualty).
    pub fn trunk_expired(&self) -> u64 {
        self.counter("trunk.expired")
    }

    /// Trunk transmissions a full partition window swallowed.
    pub fn trunk_partition_drops(&self) -> u64 {
        self.counter("trunk.drops_partition")
    }

    /// Trunk transmissions random envelope loss swallowed.
    pub fn trunk_loss_drops(&self) -> u64 {
        self.counter("trunk.drops_loss")
    }

    /// Duplicate trunk transmissions the fault plan injected.
    pub fn trunk_dup_injected(&self) -> u64 {
        self.counter("trunk.dup_injected")
    }

    /// Trunk transmissions a reorder window delayed past their peers.
    pub fn trunk_reordered(&self) -> u64 {
        self.counter("trunk.reordered")
    }

    /// Partition windows that closed (heal edges observed per pair).
    pub fn trunk_heals(&self) -> u64 {
        self.counter("trunk.heals")
    }

    /// Voice frames written off because their trunk flit expired.
    pub fn trunk_frame_drops(&self) -> u64 {
        self.counter("load.trunk_frame_drops")
    }

    /// Mid-ladder handoffs a partition killed: supervised teardowns
    /// with a Q.850 recovery-on-timer-expiry cause.
    pub fn trunk_handoff_drops(&self) -> u64 {
        self.counter("load.trunk_handoff_drops")
    }

    /// Stranded movers re-routed to their home anchor after a heal.
    pub fn trunk_reroutes(&self) -> u64 {
        self.counter("load.trunk_reroutes")
    }

    /// Out-of-order arrival depth at the trunk receive windows (how far
    /// ahead of the next expected sequence number a flit landed).
    pub fn trunk_reorder_depth(&self) -> Histogram {
        self.merged_histogram(&["trunk.reorder_depth"])
    }

    /// Partition heal to re-routed recovery, per stranded subscriber.
    pub fn trunk_heal_recovery(&self) -> Histogram {
        self.merged_histogram(&["load.heal_recovery_ms"])
    }

    /// Driver redials after a dead call (attempt 1 and up).
    pub fn redial_attempts(&self) -> u64 {
        self.counter("load.redial_attempts")
    }

    /// VMSC guard-timer retries: gatekeeper registration (RRQ) and call
    /// admission (ARQ) resends.
    pub fn guard_retries(&self) -> (u64, u64) {
        (
            self.counter("vmsc.ras_retries"),
            self.counter("vmsc.arq_retries"),
        )
    }

    /// Time from first failure to verified recovery, merged across all
    /// three recovery ladders (RAS re-registration, ARQ re-admission,
    /// caller redial).
    pub fn recovery_time(&self) -> Histogram {
        self.merged_histogram(&[
            "vmsc.ras_recovery_ms",
            "vmsc.arq_recovery_ms",
            "load.redial_recovery_ms",
        ])
    }

    /// Pages the VMSC throttle deferred to a later one-second window.
    pub fn pages_throttled(&self) -> u64 {
        self.counter("vmsc.pages_throttled")
    }

    /// MT calls the paging throttle shed (queue overflow) with a
    /// network-congestion release.
    pub fn pages_shed(&self) -> u64 {
        self.counter("vmsc.pages_shed")
    }

    /// Admissions the gatekeeper shed with a congestion ARJ.
    pub fn gk_admission_shed(&self) -> u64 {
        self.counter("gk.admission_shed")
    }

    /// Congestion ARJs the VMSC absorbed into the ARQ retry ladder
    /// instead of clearing the call.
    pub fn gk_shed_deferred(&self) -> u64 {
        self.counter("vmsc.admission_shed_deferred")
    }

    /// PDP activations the SGSN admission control deferred.
    pub fn pdp_deferred(&self) -> u64 {
        self.counter("sgsn.pdp_admission_deferred")
    }

    /// PDP activations the SGSN admission control rejected outright
    /// (queue overflow, network-congestion cause).
    pub fn pdp_rejected(&self) -> u64 {
        self.counter("sgsn.pdp_admission_rejected")
    }

    /// Added delay the overload controls imposed on admitted work:
    /// paging-throttle deferral plus SGSN admission queueing.
    pub fn admission_delay(&self) -> Histogram {
        self.merged_histogram(&[
            "vmsc.paging_throttle_delay_ms",
            "sgsn.pdp_admission_delay_ms",
        ])
    }

    /// Call attempts issued while the demand plan was in a peak segment
    /// (above [`vgprs_scenario::PEAK_ATTRIBUTION_THRESHOLD`]); zero on a
    /// flat-demand run.
    pub fn attempts_peak(&self) -> u64 {
        self.counter("load.attempts_peak")
    }

    /// Call attempts issued under steady-state (non-peak) demand; zero
    /// on a flat-demand run, where attribution is off entirely.
    pub fn attempts_steady(&self) -> u64 {
        self.counter("load.attempts_steady")
    }

    /// Fraction of peak-segment attempts later probed dead (blocking,
    /// sheds, rejects — everything the redial machinery sees).
    pub fn peak_drop_rate(&self) -> f64 {
        ratio(self.counter("load.dropped_peak"), self.attempts_peak())
    }

    /// Fraction of steady-state attempts later probed dead.
    pub fn steady_drop_rate(&self) -> f64 {
        ratio(self.counter("load.dropped_steady"), self.attempts_steady())
    }

    fn merged_histogram(&self, names: &[&str]) -> Histogram {
        let mut out = Histogram::new();
        for n in names {
            if let Some(h) = self.stats.histogram(n) {
                out.merge(h);
            }
        }
        out
    }

    /// Fraction of attempts refused a traffic channel at the cell.
    pub fn blocking_rate(&self) -> f64 {
        ratio(self.counter("bsc.tch_blocked"), self.attempts())
    }

    /// Fraction of attempts the H.323 side refused (gatekeeper
    /// bandwidth, unknown alias while roaming, VMSC admission).
    pub fn reject_rate(&self) -> f64 {
        let rejected = self.counter("gk.admission_rejected_bandwidth")
            + self.counter("gk.admission_rejected_unknown_alias")
            + self.counter("vmsc.admission_rejected");
        ratio(rejected, self.attempts())
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

    /// Mean opinion score from the E-model (GSM full-rate codec),
    /// scored at the measured mean one-way delay plus packetization and
    /// playout, and the measured frame loss.
    pub fn mos(&self) -> f64 {
        let delay = self.voice_delay();
        score_mos(delay.count(), delay.mean(), self.frame_loss())
    }

    /// Events per wall-clock second (not part of the fingerprint).
    pub fn events_per_sec(&self) -> f64 {
        let s = self.wall.as_secs_f64();
        if s > 0.0 {
            self.events as f64 / s
        } else {
            0.0
        }
    }

    /// The deterministic portion of the report: everything except
    /// wall-clock timing. Two runs with the same configuration and
    /// master seed must render identical text here regardless of
    /// thread count.
    pub fn render_deterministic(&self) -> String {
        let mut out = self.render_behaviour();
        out.push_str(&format!(
            "events                : {} over {:.1} simulated s\n",
            self.events, self.sim_secs
        ));
        out
    }

    /// The KPI lines of [`render_deterministic`](Self::render_deterministic)
    /// without the closing `events` work line.
    fn render_behaviour(&self) -> String {
        let mut out = String::new();
        let mut line = |s: String| {
            out.push_str(&s);
            out.push('\n');
        };
        line(format!(
            "population            : {} subscribers in {} shards",
            self.subscribers, self.shards
        ));
        line(format!(
            "registered            : {}",
            self.counter("load.registered")
        ));
        line(format!(
            "call attempts         : {} (+{} suppressed: caller busy)",
            self.attempts(),
            self.counter("load.busy_skipped")
        ));
        line(format!(
            "connected             : {} mobile legs, {} wireline legs",
            self.counter("ms.calls_connected"),
            self.counter("term.calls_connected")
        ));
        line(format!(
            "blocking rate         : {:.3}% (TCH), reject rate {:.3}% (H.323)",
            self.blocking_rate() * 100.0,
            self.reject_rate() * 100.0
        ));
        let setup = self.setup_delay();
        line(format!(
            "call-setup delay      : p50 {:.1} ms, p99 {:.1} ms (n={})",
            setup.percentile(50.0),
            setup.percentile(99.0),
            setup.count()
        ));
        let paging = self.paging_delay();
        line(format!(
            "paging latency        : p50 {:.1} ms, p99 {:.1} ms (n={})",
            paging.percentile(50.0),
            paging.percentile(99.0),
            paging.count()
        ));
        let pdp = self.pdp_activation();
        line(format!(
            "voice-PDP activation  : p50 {:.1} ms, p99 {:.1} ms (n={})",
            pdp.percentile(50.0),
            pdp.percentile(99.0),
            pdp.count()
        ));
        let voice = self.voice_delay();
        line(format!(
            "voice one-way delay   : mean {:.1} ms, p99 {:.1} ms (n={})",
            voice.mean(),
            voice.percentile(99.0),
            voice.count()
        ));
        line(format!(
            "voice frame loss      : {:.3}%",
            self.frame_loss() * 100.0
        ));
        line(format!("mean MOS              : {:.2}", self.mos()));
        line(format!(
            "mobility              : {} reselections, {} in-call handoffs",
            self.counter("load.moves"),
            self.counter("ms.handoffs")
        ));
        line(format!(
            "cross-shard handoffs  : {} attempted, {} completed, {} dropped",
            self.handoff_attempts(),
            self.handoff_successes(),
            self.handoff_drops()
        ));
        let interruption = self.handoff_interruption();
        line(format!(
            "handoff interruption  : p50 {:.1} ms, p99 {:.1} ms (n={})",
            interruption.percentile(50.0),
            interruption.percentile(99.0),
            interruption.count()
        ));
        line(format!(
            "handoff frame loss    : {} frames at stale cells",
            self.handoff_frame_loss()
        ));
        line(format!(
            "HLR relocations       : {}",
            self.hlr_relocations()
        ));
        // Trunk-resilience block: rendered unconditionally (all zeros
        // when the trunk fault plan is off) so the report shape — and
        // therefore the fingerprint layout — never depends on config.
        line(format!(
            "trunk chaos           : {} lost ({} partition), {} duplicated, {} reordered, {} acks dropped",
            self.trunk_partition_drops() + self.trunk_loss_drops(),
            self.trunk_partition_drops(),
            self.counter("trunk.dup_injected"),
            self.counter("trunk.reordered"),
            self.counter("trunk.acks_dropped")
        ));
        let reorder = self.trunk_reorder_depth();
        line(format!(
            "trunk recovery        : {} retransmits, {} dup drops, {} expired; reorder depth p99 {:.1} (n={})",
            self.trunk_retransmits(),
            self.trunk_dup_drops(),
            self.trunk_expired(),
            reorder.percentile(99.0),
            reorder.count()
        ));
        line(format!(
            "trunk casualties      : {} handoff teardowns (q850 102), {} voice expiries, {} mobility reverts",
            self.trunk_handoff_drops(),
            self.trunk_frame_drops(),
            self.counter("load.trunk_mobility_reverts")
        ));
        let heal = self.trunk_heal_recovery();
        line(format!(
            "trunk heal            : {} heals, {} re-routes; recovery p50 {:.1} ms, p99 {:.1} ms (n={})",
            self.trunk_heals(),
            self.trunk_reroutes(),
            heal.percentile(50.0),
            heal.percentile(99.0),
            heal.count()
        ));
        // Resilience block: rendered unconditionally (all zeros on a
        // fault-free run) so the report shape never depends on config.
        line(format!(
            "faults injected       : {} (unavailability: link {:.1} s, crash {:.1} s, blackhole {:.1} s)",
            self.faults_injected(),
            self.unavailability_secs(FaultClass::LinkDegrade),
            self.unavailability_secs(FaultClass::NodeCrash),
            self.unavailability_secs(FaultClass::Blackhole)
        ));
        line(format!(
            "calls dropped         : {} link-degrade, {} node-crash, {} blackhole (+{} baseline)",
            self.dropped_by_class(FaultClass::LinkDegrade),
            self.dropped_by_class(FaultClass::NodeCrash),
            self.dropped_by_class(FaultClass::Blackhole),
            self.dropped_baseline()
        ));
        let recovery = self.recovery_time();
        line(format!(
            "recovery time         : p50 {:.1} ms, p99 {:.1} ms (n={})",
            recovery.percentile(50.0),
            recovery.percentile(99.0),
            recovery.count()
        ));
        let (ras_retries, arq_retries) = self.guard_retries();
        line(format!(
            "retries               : {} RRQ, {} ARQ, {} redials ({} exhausted)",
            ras_retries,
            arq_retries,
            self.redial_attempts(),
            self.counter("load.redials_exhausted")
        ));
        // Overload block: also rendered unconditionally (all zeros with
        // the controls off and a flat demand plan).
        line(format!(
            "overload sheds        : {} pages throttled, {} pages shed, {} GK ARJ ({} deferred to retry)",
            self.pages_throttled(),
            self.pages_shed(),
            self.gk_admission_shed(),
            self.gk_shed_deferred()
        ));
        let admission = self.admission_delay();
        line(format!(
            "PDP admission         : {} deferred, {} rejected; delay p50 {:.1} ms, p99 {:.1} ms (n={})",
            self.pdp_deferred(),
            self.pdp_rejected(),
            admission.percentile(50.0),
            admission.percentile(99.0),
            admission.count()
        ));
        line(format!(
            "surge drop rate       : peak {:.3}% ({} attempts), steady {:.3}% ({} attempts)",
            self.peak_drop_rate() * 100.0,
            self.attempts_peak(),
            self.steady_drop_rate() * 100.0,
            self.attempts_steady()
        ));
        out
    }

    /// Full human-readable report, including wall-clock throughput.
    pub fn render(&self) -> String {
        format!(
            "{}throughput            : {:.0} events/s on {} threads ({:.2} s wall)\n",
            self.render_deterministic(),
            self.events_per_sec(),
            self.threads,
            self.wall.as_secs_f64()
        )
    }

    /// Machine-readable report: every KPI, counter and histogram bucket
    /// as a JSON object (hand-rolled — the workspace is hermetic, no
    /// serde). Wall-clock figures are included but, as everywhere else,
    /// only the deterministic fields feed the fingerprint.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!("  \"subscribers\": {},\n", self.subscribers));
        out.push_str(&format!("  \"shards\": {},\n", self.shards));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"events\": {},\n", self.events));
        out.push_str(&format!("  \"sim_secs\": {},\n", json_f64(self.sim_secs)));
        out.push_str(&format!(
            "  \"wall_secs\": {},\n",
            json_f64(self.wall.as_secs_f64())
        ));
        out.push_str(&format!(
            "  \"events_per_sec\": {},\n",
            json_f64(self.events_per_sec())
        ));
        out.push_str(&format!(
            "  \"fingerprint\": \"{:016x}\",\n",
            self.fingerprint()
        ));
        out.push_str("  \"kpis\": {\n");
        out.push_str(&format!("    \"attempts\": {},\n", self.attempts()));
        out.push_str(&format!(
            "    \"blocking_rate\": {},\n",
            json_f64(self.blocking_rate())
        ));
        out.push_str(&format!(
            "    \"reject_rate\": {},\n",
            json_f64(self.reject_rate())
        ));
        out.push_str(&format!(
            "    \"frame_loss\": {},\n",
            json_f64(self.frame_loss())
        ));
        out.push_str(&format!("    \"mos\": {},\n", json_f64(self.mos())));
        for (name, hist) in [
            ("setup_delay_ms", self.setup_delay()),
            ("paging_delay_ms", self.paging_delay()),
            ("pdp_activation_ms", self.pdp_activation()),
            ("voice_delay_ms", self.voice_delay()),
            ("handoff_interruption_ms", self.handoff_interruption()),
        ] {
            out.push_str(&format!(
                "    \"{name}\": {{\"count\": {}, \"mean\": {}, \"p50\": {}, \"p99\": {}}},\n",
                hist.count(),
                json_f64(hist.mean()),
                json_f64(hist.percentile(50.0)),
                json_f64(hist.percentile(99.0))
            ));
        }
        out.push_str(&format!(
            "    \"handoff_attempts\": {},\n",
            self.handoff_attempts()
        ));
        out.push_str(&format!(
            "    \"handoff_successes\": {},\n",
            self.handoff_successes()
        ));
        out.push_str(&format!("    \"handoff_drops\": {},\n", self.handoff_drops()));
        out.push_str(&format!(
            "    \"handoff_frame_loss\": {},\n",
            self.handoff_frame_loss()
        ));
        out.push_str(&format!(
            "    \"hlr_relocations\": {},\n",
            self.hlr_relocations()
        ));
        out.push_str("    \"resilience\": {\n");
        out.push_str(&format!(
            "      \"faults_injected\": {},\n",
            self.faults_injected()
        ));
        for class in FaultClass::ALL {
            out.push_str(&format!(
                "      \"dropped_{}\": {},\n",
                class.key(),
                self.dropped_by_class(class)
            ));
        }
        out.push_str(&format!(
            "      \"dropped_baseline\": {},\n",
            self.dropped_baseline()
        ));
        let (ras_retries, arq_retries) = self.guard_retries();
        out.push_str(&format!("      \"ras_retries\": {ras_retries},\n"));
        out.push_str(&format!("      \"arq_retries\": {arq_retries},\n"));
        out.push_str(&format!(
            "      \"redial_attempts\": {},\n",
            self.redial_attempts()
        ));
        out.push_str(&format!(
            "      \"redials_exhausted\": {},\n",
            self.counter("load.redials_exhausted")
        ));
        let recovery = self.recovery_time();
        out.push_str(&format!(
            "      \"recovery_ms\": {{\"count\": {}, \"mean\": {}, \"p50\": {}, \"p99\": {}}},\n",
            recovery.count(),
            json_f64(recovery.mean()),
            json_f64(recovery.percentile(50.0)),
            json_f64(recovery.percentile(99.0))
        ));
        out.push_str("      \"unavailability_secs\": {");
        let mut first = true;
        for class in FaultClass::ALL {
            if !first {
                out.push_str(", ");
            }
            first = false;
            out.push_str(&format!(
                "\"{}\": {}",
                class.key(),
                json_f64(self.unavailability_secs(class))
            ));
        }
        out.push_str("}\n");
        out.push_str("    },\n");
        out.push_str("    \"overload\": {\n");
        out.push_str(&format!(
            "      \"pages_throttled\": {},\n",
            self.pages_throttled()
        ));
        out.push_str(&format!("      \"pages_shed\": {},\n", self.pages_shed()));
        out.push_str(&format!(
            "      \"gk_admission_shed\": {},\n",
            self.gk_admission_shed()
        ));
        out.push_str(&format!(
            "      \"gk_shed_deferred\": {},\n",
            self.gk_shed_deferred()
        ));
        out.push_str(&format!("      \"pdp_deferred\": {},\n", self.pdp_deferred()));
        out.push_str(&format!("      \"pdp_rejected\": {},\n", self.pdp_rejected()));
        let admission = self.admission_delay();
        out.push_str(&format!(
            "      \"admission_delay_ms\": {{\"count\": {}, \"mean\": {}, \"p50\": {}, \"p99\": {}}},\n",
            admission.count(),
            json_f64(admission.mean()),
            json_f64(admission.percentile(50.0)),
            json_f64(admission.percentile(99.0))
        ));
        out.push_str(&format!(
            "      \"attempts_peak\": {},\n",
            self.attempts_peak()
        ));
        out.push_str(&format!(
            "      \"attempts_steady\": {},\n",
            self.attempts_steady()
        ));
        out.push_str(&format!(
            "      \"peak_drop_rate\": {},\n",
            json_f64(self.peak_drop_rate())
        ));
        out.push_str(&format!(
            "      \"steady_drop_rate\": {}\n",
            json_f64(self.steady_drop_rate())
        ));
        out.push_str("    },\n");
        out.push_str("    \"trunk\": {\n");
        for (name, value) in [
            ("retransmits", self.trunk_retransmits()),
            ("dup_drops", self.trunk_dup_drops()),
            ("expired", self.trunk_expired()),
            ("drops_partition", self.trunk_partition_drops()),
            ("drops_loss", self.trunk_loss_drops()),
            ("dup_injected", self.counter("trunk.dup_injected")),
            ("reordered", self.counter("trunk.reordered")),
            ("acks_dropped", self.counter("trunk.acks_dropped")),
            ("frame_drops", self.trunk_frame_drops()),
            ("handoff_drops", self.trunk_handoff_drops()),
            ("q850_102", self.counter("load.trunk_q850_102")),
            ("visitor_drops", self.counter("load.trunk_visitor_drops")),
            ("signal_drops", self.counter("load.trunk_signal_drops")),
            ("mobility_reverts", self.counter("load.trunk_mobility_reverts")),
            ("heals", self.trunk_heals()),
            ("reroutes", self.trunk_reroutes()),
        ] {
            out.push_str(&format!("      \"{name}\": {value},\n"));
        }
        for (name, hist) in [
            ("reorder_depth", self.trunk_reorder_depth()),
            ("heal_recovery_ms", self.trunk_heal_recovery()),
        ] {
            out.push_str(&format!(
                "      \"{name}\": {{\"count\": {}, \"mean\": {}, \"p50\": {}, \"p99\": {}}}",
                hist.count(),
                json_f64(hist.mean()),
                json_f64(hist.percentile(50.0)),
                json_f64(hist.percentile(99.0))
            ));
            out.push_str(if name == "reorder_depth" { ",\n" } else { "\n" });
        }
        out.push_str("    }\n");
        out.push_str("  },\n");
        out.push_str(&self.snapshots_block("  "));
        out.push_str("  \"counters\": {");
        let mut first = true;
        for (name, value) in self.stats.counters() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n    \"{}\": {}", json_escape(name), value));
        }
        out.push_str("\n  },\n");
        out.push_str("  \"histograms\": {");
        let mut first = true;
        for (name, hist) in self.stats.histograms() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!(
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"buckets\": [",
                json_escape(name),
                hist.count(),
                json_f64(hist.sum())
            ));
            let mut first_bucket = true;
            for (midpoint, count) in hist.nonzero_buckets() {
                if !first_bucket {
                    out.push_str(", ");
                }
                first_bucket = false;
                out.push_str(&format!("[{}, {count}]", json_f64(midpoint)));
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// The `"snapshots"` JSON member (with trailing comma) at the
    /// given indent: cadence, stream fingerprint, every frame, and the
    /// end-of-run aggregate row.
    fn snapshots_block(&self, indent: &str) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(&format!("{indent}\"snapshots\": {{\n"));
        out.push_str(&format!(
            "{indent}  \"cadence_secs\": {},\n",
            self.snapshot_secs
        ));
        out.push_str(&format!(
            "{indent}  \"fingerprint\": \"{:016x}\",\n",
            self.snapshot_fingerprint()
        ));
        out.push_str(&format!("{indent}  \"frames\": ["));
        let mut first = true;
        for frame in &self.snapshots {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&format!("\n{indent}    "));
            out.push_str(&frame.to_json(&format!("{indent}    ")));
        }
        if !first {
            out.push_str(&format!("\n{indent}  "));
        }
        out.push_str("],\n");
        out.push_str(&format!("{indent}  \"aggregate\": "));
        out.push_str(&self.snapshot_aggregate().to_json(&format!("{indent}  ")));
        out.push('\n');
        out.push_str(&format!("{indent}}},\n"));
        out
    }

    /// A standalone snapshot-stream document for `harness load
    /// --snapshots out.json`: run shape plus the time series, without
    /// the full counter/histogram dump.
    pub fn snapshots_json(&self) -> String {
        self.snapshots_json_with(false)
    }

    /// Like [`Self::snapshots_json`], optionally including each shard's
    /// own (unmerged) series under `"per_shard"` — the `harness load
    /// --snapshots-per-shard` view for localizing a KPI excursion to
    /// the shard that produced it.
    pub fn snapshots_json_with(&self, per_shard: bool) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\n");
        out.push_str(&format!("  \"subscribers\": {},\n", self.subscribers));
        out.push_str(&format!("  \"shards\": {},\n", self.shards));
        out.push_str(&format!("  \"sim_secs\": {},\n", json_f64(self.sim_secs)));
        out.push_str(&self.snapshots_block("  "));
        if per_shard {
            out.push_str("  \"per_shard\": [");
            for (i, frames) in self.shard_snapshots.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\n    {{\"shard\": {i}, \"frames\": ["));
                let mut first = true;
                for frame in frames {
                    if !first {
                        out.push(',');
                    }
                    first = false;
                    out.push_str("\n      ");
                    out.push_str(&frame.to_json("      "));
                }
                if !first {
                    out.push_str("\n    ");
                }
                out.push_str("]}");
            }
            if !self.shard_snapshots.is_empty() {
                out.push_str("\n  ");
            }
            out.push_str("],\n");
        }
        out.push_str(&format!(
            "  \"fingerprint\": \"{:016x}\"\n",
            self.fingerprint()
        ));
        out.push_str("}\n");
        out
    }

    /// The snapshot frame stream as CSV for `harness load
    /// --snapshots-csv`: one row per merged frame (shard `all`) plus,
    /// when `per_shard` is set, one row per shard per frame. Columns
    /// are the derived KPIs followed by every schema counter, so the
    /// file round-trips into any spreadsheet or plotting tool.
    pub fn snapshots_csv(&self, per_shard: bool) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("shard,at_ms,attempts,blocking_rate,reject_rate,frame_loss,mos");
        for name in crate::snapshot::SNAPSHOT_COUNTERS {
            out.push(',');
            out.push_str(name);
        }
        out.push('\n');
        let mut row = |shard: &str, frame: &SnapshotFrame| {
            out.push_str(&format!(
                "{shard},{},{},{},{},{},{}",
                frame.at_ms,
                frame.attempts(),
                json_f64(frame.blocking_rate()),
                json_f64(frame.reject_rate()),
                json_f64(frame.frame_loss()),
                json_f64(frame.mos())
            ));
            for v in &frame.counters {
                out.push_str(&format!(",{v}"));
            }
            out.push('\n');
        };
        for frame in &self.snapshots {
            row("all", frame);
        }
        if per_shard {
            for (i, frames) in self.shard_snapshots.iter().enumerate() {
                let label = i.to_string();
                for frame in frames {
                    row(&label, frame);
                }
            }
        }
        out
    }

    /// FNV-1a over the deterministic rendering plus every merged
    /// counter and histogram bucket — the value two runs must share to
    /// be considered identical.
    pub fn fingerprint(&self) -> u64 {
        self.hash(&self.render_deterministic(), |_| true)
    }

    /// The [`fingerprint`](Self::fingerprint) of what the simulated
    /// network did, leaving out the work the simulator spent doing it:
    /// the `events` line and the `sim.delivered` and
    /// `ms.ignored_stale_page` counters. A change that only
    /// removes events nobody acts on (an optimisation) must leave this
    /// value unchanged.
    pub fn behaviour_fingerprint(&self) -> u64 {
        self.hash(&self.render_behaviour(), |name| {
            !WORK_COUNTERS.contains(&name)
        })
    }

    fn hash(&self, text: &str, keep_counter: impl Fn(&str) -> bool) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        };
        eat(text.as_bytes());
        // Counters and histograms iterate in sorted (BTreeMap) order.
        for (name, value) in self.stats.counters() {
            if !keep_counter(name) {
                continue;
            }
            eat(name.as_bytes());
            eat(&value.to_le_bytes());
        }
        for (name, hist) in self.stats.histograms() {
            eat(name.as_bytes());
            eat(&hist.count().to_le_bytes());
            eat(&hist.sum().to_bits().to_le_bytes());
            for (midpoint, count) in hist.nonzero_buckets() {
                eat(&midpoint.to_bits().to_le_bytes());
                eat(&count.to_le_bytes());
            }
        }
        h
    }
}

pub(crate) fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// E-model MOS for a mean one-way voice delay and frame-loss fraction:
/// the single scoring path shared by the run summary and the snapshot
/// frames, so an aggregate frame's MOS equals the summary's bit for
/// bit. Returns 0.0 when no voice was sampled.
pub(crate) fn score_mos(delay_count: u64, mean_delay_ms: f64, loss: f64) -> f64 {
    if delay_count == 0 {
        return 0.0;
    }
    let one_way_ms = mean_delay_ms + FRAME_MS + PLAYOUT_MS;
    EModel::for_codec(&Vocoder::gsm_full_rate()).mos(
        vgprs_sim::SimDuration::from_micros((one_way_ms * 1000.0) as u64),
        loss,
    )
}

/// Renders an `f64` as a JSON number — `null` for NaN/infinity, which
/// JSON cannot represent.
pub(crate) fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_owned()
    }
}

/// Escapes a string for use inside JSON quotes. Counter names are plain
/// ASCII identifiers today; this keeps the output valid if that changes.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_f64_handles_non_finite() {
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("plain.counter"), "plain.counter");
    }

    #[test]
    fn to_json_is_wellformed_for_an_empty_report() {
        let report = LoadReport::merge(0, 1, 60, &[], Duration::ZERO);
        let json = report.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"fingerprint\""));
        assert!(json.contains("\"mos\": 0.0"));
    }
}
