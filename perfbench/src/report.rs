//! The result of one benchmark run: named metrics with units, the
//! attempted and failed entry counts, and their rendering.

use crate::timing::{DriveTimes, SourceTimes};
use macrochip::names::network_code;
use netcore::NetworkKind;

/// Host time at the campaign layer's boundaries, measured per point.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CampaignLayers {
    /// Median `point_key` time.
    pub point_key_us: f64,
    /// Median and p99 `ResultCache::load` time on warm lookups.
    pub cache_load_us_p50: f64,
    pub cache_load_us_p99: f64,
    /// Warm lookups that returned the cold result, over warm lookups.
    pub hit_ratio: f64,
    /// Median `ResultCache::store` time.
    pub cache_store_us_p50: f64,
    /// Total `run_point` time over the cold pass.
    pub run_point_s: f64,
}

/// The result of one run of one workload.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Entries (open-loop runs or campaign points) executed.
    pub attempted: u64,
    /// Entries whose outputs failed a check.
    pub failed: u64,
    /// Why each failed entry failed.
    pub failures: Vec<String>,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Counts one executed entry, failing it with `why` if given.
    pub fn check(&mut self, why: Option<String>) {
        self.attempted += 1;
        if let Some(why) = why {
            self.failed += 1;
            self.failures.push(why);
        }
    }

    /// Failed entries over attempted entries.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Reports the per-layer metrics of `kind` from `t`, the wrapped
    /// drive of that network (zeros where the workload never drove it).
    pub fn network_layers(&mut self, kind: NetworkKind, t: &DriveTimes) {
        let code = network_code(kind);
        let n = &t.net;
        let net = |field: &str| format!("networks.{code}.{field}");
        self.metric(net("advance_s"), n.advance_s, "s");
        self.metric(net("events"), t.events as f64, "count");
        let ns_per_event = if t.events > 0 {
            n.advance_s * 1e9 / t.events as f64
        } else {
            0.0
        };
        self.metric(net("ns_per_event"), ns_per_event, "ns");
        self.metric(net("next_event_s"), n.next_event_s, "s");
        self.metric(net("advance_calls"), n.advance_calls as f64, "count");
        self.metric(net("inject_s"), n.inject_s, "s");
        self.metric(net("inject_calls"), n.inject_calls as f64, "count");
        self.metric(net("inject_refused"), n.inject_refused as f64, "count");
        let accepted = n.inject_calls - n.inject_refused;
        let ratio = if n.inject_calls > 0 {
            accepted as f64 / n.inject_calls as f64
        } else {
            0.0
        };
        self.metric(net("inject_accept_ratio"), ratio, "ratio");
        self.metric(net("drain_s"), n.drain_s, "s");
        self.metric(format!("workloads.{code}.emit_s"), t.workload_s, "s");
        self.metric(format!("runner.{code}.self_s"), t.runner_self_s(), "s");
    }

    /// Reports the `coherence` layer: host time inside the engine as the
    /// runner's packet source, and the coherence operations it completed.
    pub fn coherence_layers(&mut self, engine: &SourceTimes, ops: u64) {
        self.metric("coherence.emit_s", engine.emit_s, "s");
        self.metric("coherence.on_delivered_s", engine.on_delivered_s, "s");
        self.metric("coherence.ops", ops as f64, "count");
    }

    /// Reports the `campaign` layer.
    pub fn campaign_layers(&mut self, c: &CampaignLayers) {
        self.metric("campaign.point_key_us", c.point_key_us, "us");
        self.metric("campaign.cache_load_us_p50", c.cache_load_us_p50, "us");
        self.metric("campaign.cache_load_us_p99", c.cache_load_us_p99, "us");
        self.metric("campaign.hit_ratio", c.hit_ratio, "ratio");
        self.metric("campaign.cache_store_us_p50", c.cache_store_us_p50, "us");
        self.metric("campaign.run_point_s", c.run_point_s, "s");
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed`, and
    /// every metric with its unit.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// One human-readable line per metric, then one per failure.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            out.push_str(&format!("{name:<40} {value:>16.6} {unit}\n"));
        }
        for why in &self.failures {
            out.push_str(&format!("FAILED {why}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_carries_every_metric_and_the_counts() {
        let mut o = Outcome::default();
        o.check(None);
        o.check(Some("entry x saturated".into()));
        o.metric("wall_s", 1.25, "s");
        o.metric("bad", f64::NAN, "s");
        let json = o.to_json();
        assert!(json.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
        assert!(json.contains("\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(json.contains("\"bad\": {\"value\": 0.0, \"unit\": \"s\"}"));
        assert_eq!(o.failed_frac(), 0.5);
    }

    #[test]
    fn every_network_reports_twelve_layer_metrics() {
        let mut o = Outcome::default();
        for kind in NetworkKind::ALL {
            o.network_layers(kind, &DriveTimes::default());
        }
        assert_eq!(o.metrics.len(), 12 * NetworkKind::ALL.len());
        assert!(o.metrics.iter().all(|(_, v, _)| *v == 0.0));
    }
}
