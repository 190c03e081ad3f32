//! Shared plumbing for the `harness` binary's subcommands.
//!
//! Every population-scale subcommand (`load`, `capacity`, `chaos`,
//! `surge`) parses the same flag vocabulary into a
//! [`LoadConfig`], prints the same banner style, and stamps the same
//! run-metadata block into its `BENCH_*.json` artifact. Keeping the
//! pieces here means a new subcommand cannot drift from the others.

use vgprs_load::{CallMix, LoadConfig, TrunkFaultClass, TrunkPlanConfig};

/// The master seed every experiment defaults to.
pub const SEED: u64 = 42;

/// Every `--name` any subcommand reads. A flag outside this list is a
/// typo or a removed option, and running on as if it were absent would
/// report a run nobody asked for.
const KNOWN_FLAGS: &[&str] = &[
    "--baseline",
    "--check",
    "--cross-shard-rate",
    "--gk-bandwidth",
    "--gk-shed",
    "--hold",
    "--json",
    "--max-load",
    "--mix",
    "--mobility",
    "--out",
    "--paging-rate",
    "--pdp-rate",
    "--rate",
    "--refine",
    "--seed",
    "--shards",
    "--snapshot-secs",
    "--snapshots",
    "--snapshots-csv",
    "--snapshots-per-shard",
    "--subscribers",
    "--tch",
    "--thresholds",
    "--threads",
    "--trunk-class",
    "--trunk-intensity",
    "--update-baseline",
    "--verbose",
    "--voice-sample-ms",
    "--window-secs",
];

/// Tiny flag parser: `--name value` pairs plus bare `--flag` switches.
pub struct Flags<'a>(&'a [String]);

impl<'a> Flags<'a> {
    /// Wraps a subcommand's arguments, exiting with a usage error
    /// naming the first flag that is not in [`KNOWN_FLAGS`].
    pub fn new(args: &'a [String]) -> Self {
        if let Some(flag) = unknown_flag(args) {
            eprintln!("unknown flag {flag}");
            std::process::exit(2);
        }
        Flags(args)
    }

    /// The raw value following `--name`, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    /// Parses the value of `--name`, exiting with a usage error when the
    /// value does not parse; `default` when the flag is absent.
    pub fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.get(name) {
            None => default,
            Some(raw) => raw.parse().unwrap_or_else(|_| {
                eprintln!("invalid value {raw:?} for {name}");
                std::process::exit(2);
            }),
        }
    }

    /// Presence of a bare flag with no value (e.g. `--check`).
    pub fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }
}

/// Parses a trunk fault class name (`loss`, `dup`, `reorder`,
/// `partition` — the `trunk_` prefix is optional), exiting with a
/// usage error otherwise.
pub fn parse_trunk_class(raw: &str) -> TrunkFaultClass {
    let key = raw.strip_prefix("trunk_").unwrap_or(raw);
    match key {
        "loss" => TrunkFaultClass::Loss,
        "dup" => TrunkFaultClass::Dup,
        "reorder" => TrunkFaultClass::Reorder,
        "partition" => TrunkFaultClass::Partition,
        _ => {
            eprintln!(
                "invalid value {raw:?} for --trunk-class; expected loss, dup, \
                 reorder, partition or all"
            );
            std::process::exit(2);
        }
    }
}

/// The first `--name` in `args` that is not in [`KNOWN_FLAGS`].
fn unknown_flag(args: &[String]) -> Option<&str> {
    args.iter()
        .map(String::as_str)
        .find(|a| a.starts_with("--") && !KNOWN_FLAGS.contains(a))
}

/// Per-subcommand defaults for the shared flag vocabulary. Start from
/// [`RunDefaults::default`] and override the fields the experiment
/// needs; every field is overridable on the command line.
#[derive(Clone, Debug)]
pub struct RunDefaults {
    /// `--subscribers` default.
    pub subscribers: usize,
    /// `--shards` default (`0` = derive from population).
    pub shards: usize,
    /// `--threads` default (`0` = machine parallelism).
    pub threads: usize,
    /// `--window-secs` default.
    pub window_secs: u64,
    /// `--rate` default (calls per subscriber-hour).
    pub calls_per_sub_hour: f64,
    /// `--hold` default (mean seconds).
    pub mean_hold_secs: f64,
    /// `--mobility` default.
    pub mobility_fraction: f64,
    /// `--gk-bandwidth` default (admission budget per serving area).
    pub gk_bandwidth: u32,
}

impl Default for RunDefaults {
    fn default() -> Self {
        let base = LoadConfig::default();
        RunDefaults {
            subscribers: base.subscribers,
            shards: base.shards,
            threads: base.threads,
            window_secs: base.population.window_secs,
            calls_per_sub_hour: base.population.calls_per_sub_hour,
            mean_hold_secs: base.population.mean_hold_secs,
            mobility_fraction: base.population.mobility_fraction,
            gk_bandwidth: base.gk_bandwidth,
        }
    }
}

/// Builds a [`LoadConfig`] from the shared flag vocabulary over the
/// given per-subcommand defaults.
pub fn load_config_from(flags: &Flags<'_>, defaults: &RunDefaults) -> LoadConfig {
    let mut cfg = LoadConfig {
        subscribers: flags.parse("--subscribers", defaults.subscribers),
        shards: flags.parse("--shards", defaults.shards),
        threads: flags.parse("--threads", defaults.threads),
        seed: flags.parse("--seed", SEED),
        tch_capacity: flags.parse("--tch", 64),
        voice_sample_ms: flags.parse("--voice-sample-ms", 1_000),
        gk_bandwidth: flags.parse("--gk-bandwidth", defaults.gk_bandwidth),
        ..LoadConfig::default()
    };
    cfg.population.window_secs = flags.parse("--window-secs", defaults.window_secs);
    cfg.population.calls_per_sub_hour = flags.parse("--rate", defaults.calls_per_sub_hour);
    cfg.population.mean_hold_secs = flags.parse("--hold", defaults.mean_hold_secs);
    cfg.population.mobility_fraction = flags.parse("--mobility", defaults.mobility_fraction);
    cfg.population.cross_shard_fraction = flags.parse("--cross-shard-rate", 0.0);
    cfg.snapshot_secs = flags.parse("--snapshot-secs", cfg.snapshot_secs);
    let trunk_intensity: f64 = flags.parse("--trunk-intensity", 0.0);
    if trunk_intensity > 0.0 {
        cfg.trunk = match flags.get("--trunk-class") {
            None | Some("all") => TrunkPlanConfig::all(trunk_intensity),
            Some(raw) => TrunkPlanConfig::only(parse_trunk_class(raw), trunk_intensity),
        };
    }
    if let Some(mix) = flags.get("--mix") {
        let parts: Vec<f64> = mix.split(',').filter_map(|p| p.parse().ok()).collect();
        if parts.len() != 3 {
            eprintln!("--mix expects MO,MT,M2M weights, e.g. 0.45,0.45,0.10");
            std::process::exit(2);
        }
        cfg.population.mix = CallMix {
            mo: parts[0],
            mt: parts[1],
            m2m: parts[2],
        };
    }
    cfg
}

/// Writes an artifact, exiting on I/O failure.
pub fn write_file(path: &str, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(1);
    }
}

/// Prints the section banner every subcommand uses.
pub fn heading(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

/// `git describe --always --dirty` of the working tree, or `"unknown"`
/// outside a repository. Identifies the code that produced an artifact;
/// never part of any fingerprint.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The run-metadata block stamped into every `BENCH_*.json` artifact:
/// enough to re-run the experiment and to trace the artifact back to
/// the code revision. Rendered with a two-space base indent for
/// inclusion as a top-level `"meta"` member.
pub fn meta_json(cfg: &LoadConfig) -> String {
    format!(
        "  \"meta\": {{\"seed\": {}, \"subscribers\": {}, \"shards\": {}, \
         \"threads\": {}, \"window_secs\": {}, \
         \"git\": \"{}\"}}",
        cfg.seed,
        cfg.subscribers,
        cfg.effective_shards(),
        cfg.effective_threads(),
        cfg.population.window_secs,
        git_describe()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(raw: &[&str]) -> Vec<String> {
        raw.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn unknown_flags_are_named() {
        assert_eq!(unknown_flag(&args(&["--threds", "8"])), Some("--threds"));
        assert_eq!(
            unknown_flag(&args(&["--threads", "8", "--repeat", "3"])),
            Some("--repeat")
        );
        assert_eq!(
            unknown_flag(&args(&["--threads", "8", "--check", "--out", "x.json"])),
            None
        );
        // Positional operands and values are not flags.
        assert_eq!(unknown_flag(&args(&["a.json", "b.json", "--json"])), None);
    }
}
