//! The benchmark's workloads and the checks each run must pass.
//!
//! Every workload is flat demand with no node faults; the seed is the
//! only input that varies between runs. Sizes are chosen so one
//! `run_load` call takes a few seconds on a 2-CPU host.

use vgprs_load::{LoadConfig, LoadReport, TrunkPlanConfig};

/// One named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Default sizing, fabric disarmed, two worker threads.
    BusyHour,
    /// Four shards of ~8k handsets each: broadcast paging dominates.
    PackedCells,
    /// Default sizing under full trunk chaos: the barrier does real work.
    TrunkChaos,
}

impl Workload {
    /// Every workload, in the order reports list them.
    pub const ALL: [Workload; 3] = [
        Workload::BusyHour,
        Workload::PackedCells,
        Workload::TrunkChaos,
    ];

    /// The name the command line and the reports use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BusyHour => "busy_hour",
            Workload::PackedCells => "packed_cells",
            Workload::TrunkChaos => "trunk_chaos",
        }
    }

    /// Looks a workload up by its name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The load configuration this workload runs with `seed`.
    pub fn config(self, seed: u64) -> LoadConfig {
        let mut cfg = LoadConfig {
            seed,
            ..LoadConfig::default()
        };
        match self {
            Workload::BusyHour => {
                cfg.subscribers = 20_480;
                cfg.threads = 2;
                cfg.population.window_secs = 300;
            }
            Workload::PackedCells => {
                cfg.subscribers = 32_768;
                cfg.shards = 4;
                cfg.threads = 1;
                cfg.population.window_secs = 60;
            }
            Workload::TrunkChaos => {
                cfg.subscribers = 8_192;
                cfg.threads = 1;
                cfg.population.window_secs = 300;
                cfg.population.cross_shard_fraction = 0.35;
                cfg.trunk = TrunkPlanConfig::all(1.0);
            }
        }
        cfg
    }

    /// Seeds one untraced repetition runs, so that a repetition takes
    /// about 25 s on a 2-CPU host. Blocked calls, lost frames and
    /// failed handoffs are rare, bursty events; pooling several seeds'
    /// runs keeps their shares steady from one `--seed` to the next.
    pub fn sub_runs(self) -> u64 {
        match self {
            Workload::BusyHour => 5,
            Workload::PackedCells => 4,
            Workload::TrunkChaos => 6,
        }
    }

    /// Whether this workload runs with an armed trunk fabric.
    pub fn armed(self) -> bool {
        self == Workload::TrunkChaos
    }

    /// The output checks every run of this workload must pass; returns
    /// one message per failed check.
    pub fn check(self, cfg: &LoadConfig, report: &LoadReport) -> Vec<String> {
        let mut failed = Vec::new();
        let mut expect = |ok: bool, what: String| {
            if !ok {
                failed.push(what);
            }
        };
        let registered = report.stats.counter("load.registered");
        expect(
            registered == cfg.subscribers as u64,
            format!(
                "load.registered {registered} != {} subscribers",
                cfg.subscribers
            ),
        );
        let capped = report.stats.counter("load.drain_capped");
        expect(
            capped == 0,
            format!("load.drain_capped recorded on {capped} shards"),
        );
        let (setups, attempts) = (report.setup_delay().count(), report.attempts());
        expect(
            setups <= attempts,
            format!("{setups} setups exceed {attempts} attempts"),
        );
        if self != Workload::PackedCells {
            expect(
                attempts >= 1_000,
                format!("only {attempts} call attempts (want >= 1000)"),
            );
        }
        // The stress each workload was chosen for. A disarmed fabric
        // never creates a trunk counter; an armed one under chaos
        // always retransmits.
        let trunk_counters = report
            .stats
            .counters()
            .filter(|(n, _)| n.starts_with("trunk."))
            .count();
        if self.armed() {
            expect(
                report.trunk_retransmits() > 0,
                "armed fabric made no retransmits".into(),
            );
            expect(
                report.handoff_attempts() > 0,
                "no cross-shard handoff attempted".into(),
            );
        } else {
            expect(
                trunk_counters == 0,
                format!("disarmed fabric recorded {trunk_counters} trunk counters"),
            );
        }
        failed
    }
}
