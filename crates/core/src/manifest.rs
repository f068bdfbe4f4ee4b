//! Run provenance: what was run, with what configuration, and how it
//! ended.
//!
//! A [`RunManifest`] is emitted alongside exported metrics so a results
//! file is self-describing: the command, network selection, pattern, RNG
//! seed, drive limits, outcome, wall-clock duration and crate version are
//! all recorded. Simulation results for a given (seed, config) pair are
//! deterministic; the manifest captures the non-deterministic context
//! (wall-clock) separately from the metrics snapshot so snapshots stay
//! byte-identical across reruns.

use crate::runner::DriveLimits;
use netcore::metrics::{json_escape, json_f64};
use netcore::MacrochipConfig;
use std::fmt::Write as _;

/// Provenance of one simulator invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// The subcommand that produced the results (e.g. `sweep`).
    pub command: String,
    /// Network selection as given on the command line.
    pub network: String,
    /// Traffic pattern or workload name.
    pub pattern: String,
    /// Canonical fault-plan specification the run was subjected to, or
    /// `none` for fault-free runs.
    pub fault_plan: String,
    /// RNG seed for the traffic generator.
    pub seed: u64,
    /// Drive deadline, in nanoseconds of simulation time.
    pub deadline_ns: f64,
    /// Stalled-packet bound that declares saturation.
    pub max_stalled: usize,
    /// How the run(s) ended (e.g. `completed`, `3/10 points saturated`).
    pub outcome: String,
    /// Worker threads the campaign engine used (1 = serial). Parallel
    /// execution never changes results — this is provenance, not input.
    pub jobs: usize,
    /// Result-cache provenance: `disabled`, or `N/M points from cache`.
    pub cache: String,
    /// Directory the result cache lives in (the `MACROCHIP_CACHE_DIR`
    /// resolution at run time, whether or not the cache was consulted).
    pub cache_dir: String,
    /// Host wall-clock duration of the run, in milliseconds.
    pub wall_clock_ms: f64,
    /// Simulation events the run processed (deterministic; from the
    /// always-on [`desim::prof`] host counters).
    pub host_events: u64,
    /// Host throughput: `host_events / wall_clock`. Nondeterministic.
    pub host_events_per_sec: f64,
    /// Peak resident set size in bytes (`VmHWM`), 0 where unavailable.
    pub host_peak_rss_bytes: u64,
    /// Version of the `macrochip` crate that produced the results.
    pub version: &'static str,
    /// Simulated sites (the 8×8 grid).
    pub sites: usize,
    /// Cores per site.
    pub cores_per_site: usize,
    /// Data-message payload size in bytes.
    pub data_bytes: u32,
}

impl RunManifest {
    /// Creates a manifest for `command` under `config`, with empty
    /// context fields for the caller to fill in.
    pub fn new(command: &str, config: &MacrochipConfig) -> RunManifest {
        RunManifest {
            command: command.to_string(),
            network: String::new(),
            pattern: String::new(),
            fault_plan: String::from("none"),
            seed: 0,
            deadline_ns: f64::INFINITY,
            max_stalled: 0,
            outcome: String::from("completed"),
            jobs: 1,
            cache: String::from("disabled"),
            cache_dir: crate::campaign::ResultCache::default_dir()
                .display()
                .to_string(),
            wall_clock_ms: 0.0,
            host_events: 0,
            host_events_per_sec: 0.0,
            host_peak_rss_bytes: 0,
            version: env!("CARGO_PKG_VERSION"),
            sites: config.grid.sites(),
            cores_per_site: config.cores_per_site,
            data_bytes: config.data_bytes,
        }
    }

    /// Records the drive limits the run used.
    pub fn set_limits(&mut self, limits: DriveLimits) {
        self.deadline_ns = limits.deadline.as_ns_f64();
        self.max_stalled = limits.max_stalled;
    }

    /// Records host observability figures: the wall clock, the simulation
    /// events processed since `events_base` (a [`desim::prof`] counter
    /// reading taken at command start), the derived events/sec, and the
    /// process peak RSS. Call once, right after the run finishes.
    pub fn set_host_stats(&mut self, wall_ms: f64, events_base: u64) {
        self.wall_clock_ms = wall_ms;
        self.host_events =
            desim::prof::counter(desim::prof::Counter::SimEvents).saturating_sub(events_base);
        self.host_events_per_sec = if wall_ms > 0.0 {
            self.host_events as f64 / (wall_ms / 1e3)
        } else {
            0.0
        };
        self.host_peak_rss_bytes = desim::prof::peak_rss_bytes();
    }

    /// Serializes the manifest as a JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(out, "\n  \"command\": \"{}\",", json_escape(&self.command));
        let _ = write!(out, "\n  \"network\": \"{}\",", json_escape(&self.network));
        let _ = write!(out, "\n  \"pattern\": \"{}\",", json_escape(&self.pattern));
        let _ = write!(
            out,
            "\n  \"fault_plan\": \"{}\",",
            json_escape(&self.fault_plan)
        );
        let _ = write!(out, "\n  \"seed\": {},", self.seed);
        let _ = write!(out, "\n  \"deadline_ns\": {},", json_f64(self.deadline_ns));
        let _ = write!(out, "\n  \"max_stalled\": {},", self.max_stalled);
        let _ = write!(out, "\n  \"outcome\": \"{}\",", json_escape(&self.outcome));
        let _ = write!(out, "\n  \"jobs\": {},", self.jobs);
        let _ = write!(out, "\n  \"cache\": \"{}\",", json_escape(&self.cache));
        let _ = write!(
            out,
            "\n  \"cache_dir\": \"{}\",",
            json_escape(&self.cache_dir)
        );
        let _ = write!(
            out,
            "\n  \"wall_clock_ms\": {},",
            json_f64(self.wall_clock_ms)
        );
        let _ = write!(out, "\n  \"host_events\": {},", self.host_events);
        let _ = write!(
            out,
            "\n  \"host_events_per_sec\": {},",
            json_f64(self.host_events_per_sec)
        );
        let _ = write!(
            out,
            "\n  \"host_peak_rss_bytes\": {},",
            self.host_peak_rss_bytes
        );
        let _ = write!(out, "\n  \"version\": \"{}\",", json_escape(self.version));
        let _ = write!(out, "\n  \"sites\": {},", self.sites);
        let _ = write!(out, "\n  \"cores_per_site\": {},", self.cores_per_site);
        let _ = write!(out, "\n  \"data_bytes\": {}", self.data_bytes);
        out.push_str("\n}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::trace::validate_json;
    use desim::Time;

    #[test]
    fn manifest_json_is_valid_and_carries_context() {
        let config = MacrochipConfig::scaled();
        let mut m = RunManifest::new("sweep", &config);
        m.network = "two-phase".into();
        m.pattern = "uniform".into();
        m.seed = 0xC0FFEE;
        m.set_limits(DriveLimits {
            deadline: Time::from_us(25),
            max_stalled: 5_000,
        });
        m.wall_clock_ms = 12.5;
        let json = m.to_json();
        validate_json(&json).expect("manifest JSON must be well-formed");
        for key in [
            "\"host_events\": 0",
            "\"host_events_per_sec\": 0",
            "\"host_peak_rss_bytes\": ",
            "\"command\": \"sweep\"",
            "\"network\": \"two-phase\"",
            "\"fault_plan\": \"none\"",
            "\"seed\": 12648430",
            "\"deadline_ns\": 25000",
            "\"sites\": 64",
            "\"version\": \"",
            "\"jobs\": 1",
            "\"cache\": \"disabled\"",
            "\"cache_dir\": \"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn infinite_deadline_serializes_as_null() {
        let m = RunManifest::new("sweep", &MacrochipConfig::scaled());
        let json = m.to_json();
        validate_json(&json).unwrap();
        assert!(json.contains("\"deadline_ns\": null"));
    }
}
