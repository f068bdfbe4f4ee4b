//! Trace-driven experiments: capture a run into a `.mtrc` trace, and play
//! a trace back through any network — the cross-network comparison
//! harness of the paper's §5 methodology.
//!
//! Capture taps the driver through [`run_load_point_observed`] /
//! [`drive_coherent`] with a [`replay::CaptureSink`]-backed
//! observer, so the recorded stream is exactly what the network was asked
//! to carry. Replay wraps a [`replay::TraceSource`] around the same
//! [`drive`](crate::runner::drive) loop, so a trace plays through any of
//! the five networks — bare or under a fault plan — and every
//! architecture is judged on *identical* traffic, packet for packet.
//!
//! [`run_load_point_observed`]: crate::sweep::run_load_point_observed
//! [`drive_coherent`]: crate::experiment::drive_coherent

use crate::runner::{drive_traced, DriveLimits};
use desim::{Span, Tracer};
use faults::{FaultPlan, ResilientNetwork};
use netcore::{MacrochipConfig, MetricsRegistry, Network, NetworkKind};
use replay::{ReplayStats, TraceError, TraceSource};
use std::io::Read;
use std::path::Path;

/// Knobs for a replay run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayOptions {
    /// Extra drain time after the last trace packet's creation instant.
    pub drain: Span,
    /// Stalled-packet bound that declares saturation.
    pub max_stalled: usize,
}

impl Default for ReplayOptions {
    fn default() -> ReplayOptions {
        ReplayOptions {
            drain: Span::from_us(20),
            max_stalled: 5_000,
        }
    }
}

/// The measured outcome of replaying one trace through one network, in
/// cache-stable form.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplaySummary {
    /// Packets in the source trace.
    pub trace_packets: u64,
    /// Packets actually injected (== `trace_packets` unless the run
    /// saturated, timed out or the trace was corrupt).
    pub emitted: u64,
    /// Packets the network delivered.
    pub delivered: u64,
    /// Bytes the network delivered.
    pub delivered_bytes: u64,
    /// Mean end-to-end latency, nanoseconds.
    pub mean_latency_ns: f64,
    /// 99th-percentile latency, nanoseconds.
    pub p99_latency_ns: f64,
    /// Delivered throughput per site, bytes/ns.
    pub delivered_bytes_per_ns_per_site: f64,
    /// Simulation time when the run stopped, ns.
    pub end_ns: f64,
    /// The run hit its stalled-packet bound.
    pub saturated: bool,
    /// The run hit its deadline with work pending.
    pub timed_out: bool,
    /// Replay stopped early on a corrupt trace block.
    pub poisoned: bool,
    /// Creation instant of the last trace packet, picoseconds.
    pub trace_last_ps: u64,
    /// FNV-1a content hash of the trace body (the replay cache key).
    pub content_hash: u64,
}

impl ReplaySummary {
    /// Fraction of trace packets that made it to their destination.
    pub fn delivery_ratio(&self) -> f64 {
        if self.trace_packets == 0 {
            1.0
        } else {
            self.delivered as f64 / self.trace_packets as f64
        }
    }
}

/// Replays `source` through `net` on the calling thread.
///
/// The deadline is the trace's last creation instant plus
/// [`ReplayOptions::drain`]; a clean trace on an unsaturated network
/// injects every packet and drains completely. The driven network is left
/// in its end-of-run state so callers can export its stats.
pub fn drive_replay<R: Read>(
    net: &mut dyn Network,
    source: &mut TraceSource<R>,
    config: &MacrochipConfig,
    options: ReplayOptions,
    tracer: Tracer,
) -> ReplaySummary {
    let deadline = source.header().last_time() + options.drain;
    let outcome = drive_traced(
        net,
        source,
        DriveLimits {
            deadline,
            max_stalled: options.max_stalled,
        },
        tracer,
    );
    let stats = net.stats();
    ReplaySummary {
        trace_packets: source.header().packets,
        emitted: source.emitted(),
        delivered: stats.delivered_packets(),
        delivered_bytes: stats.delivered_bytes(),
        mean_latency_ns: stats.mean_latency().as_ns_f64(),
        p99_latency_ns: stats.latency().percentile(0.99).as_ns_f64(),
        delivered_bytes_per_ns_per_site: stats.delivered_bytes_per_ns()
            / config.grid.sites() as f64,
        end_ns: outcome.end.as_ns_f64(),
        saturated: outcome.saturated,
        timed_out: outcome.timed_out,
        poisoned: source.is_poisoned(),
        trace_last_ps: source.header().last_ps,
        content_hash: source.header().content_hash,
    }
}

/// Opens the trace at `path` and replays it through a fresh `kind`
/// network. Returns the summary and the driven network (for stats and
/// metrics export).
#[allow(clippy::type_complexity)]
pub fn run_replay(
    kind: NetworkKind,
    path: &Path,
    config: &MacrochipConfig,
    options: ReplayOptions,
    tracer: Tracer,
) -> Result<(ReplaySummary, Box<dyn Network>), TraceError> {
    let mut source = TraceSource::open(path)?;
    check_grid(&source, config)?;
    let mut net = networks::build(kind, *config);
    net.set_tracer(tracer.clone());
    let summary = drive_replay(net.as_mut(), &mut source, config, options, tracer);
    Ok((summary, net))
}

/// Replays the trace at `path` through `kind` wrapped in a
/// [`ResilientNetwork`] executing `plan` — identical traffic under
/// injected faults. The fault horizon is the trace's duration.
pub fn run_replay_faulted(
    kind: NetworkKind,
    path: &Path,
    config: &MacrochipConfig,
    plan: &FaultPlan,
    seed: u64,
    options: ReplayOptions,
    tracer: Tracer,
) -> Result<(ReplaySummary, ResilientNetwork), TraceError> {
    let mut source = TraceSource::open(path)?;
    check_grid(&source, config)?;
    let horizon = source.header().last_time();
    let mut net = ResilientNetwork::new(networks::build(kind, *config), plan, seed, horizon);
    net.set_tracer(tracer.clone());
    let summary = drive_replay(&mut net, &mut source, config, options, tracer);
    Ok((summary, net))
}

/// Flattens a replay run into `reg`: the `net.*` family from the driven
/// network plus the `replay.*` family describing trace coverage.
pub fn record_replay_metrics(
    reg: &mut MetricsRegistry,
    net: &dyn Network,
    summary: &ReplaySummary,
) {
    reg.record_net_stats(net.stats());
    ReplayStats {
        trace_packets: summary.trace_packets,
        emitted: summary.emitted,
        delivered: summary.delivered,
        trace_last_ps: summary.trace_last_ps,
        content_hash: summary.content_hash,
        poisoned: summary.poisoned,
    }
    .record_metrics(reg);
}

fn check_grid<R: Read>(
    source: &TraceSource<R>,
    config: &MacrochipConfig,
) -> Result<(), TraceError> {
    let side = source.header().meta.grid_side as usize;
    if side != config.grid.side() {
        return Err(TraceError::BadHeader(format!(
            "trace was captured on a {side}x{side} grid, configuration is {}x{}",
            config.grid.side(),
            config.grid.side()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{run_load_point_observed, SweepOptions};
    use desim::Span;
    use replay::{TraceMeta, TraceReader, TraceWriter};
    use std::io::Cursor;
    use workloads::Pattern;

    fn config() -> MacrochipConfig {
        MacrochipConfig::scaled()
    }

    fn fast_sweep() -> SweepOptions {
        SweepOptions {
            sim: Span::from_ns(500),
            drain: Span::from_us(5),
            max_stalled: 5_000,
            seed: 77,
        }
    }

    /// Captures a short uniform p2p run in memory, returning the trace
    /// bytes and the live network (for its end-of-run stats).
    fn capture_uniform() -> (Vec<u8>, Box<dyn Network>) {
        let cfg = config();
        let meta = TraceMeta {
            grid_side: cfg.grid.side() as u16,
            seed: 77,
            description: "test capture".into(),
        };
        let mut writer = Some(TraceWriter::create(Cursor::new(Vec::new()), &meta).expect("writer"));
        let (point, net) = run_load_point_observed(
            networks::build(NetworkKind::PointToPoint, cfg),
            Pattern::Uniform,
            0.05,
            &cfg,
            fast_sweep(),
            Tracer::disabled(),
            |p| {
                writer.as_mut().expect("live").record(p).expect("record");
            },
        );
        assert!(!point.saturated);
        let bytes = writer
            .take()
            .expect("writer")
            .finish()
            .expect("finish")
            .0
            .into_inner();
        (bytes, net)
    }

    fn source_from(bytes: &[u8]) -> TraceSource<Cursor<Vec<u8>>> {
        TraceSource::new(TraceReader::new(Cursor::new(bytes.to_vec())).expect("reader"))
    }

    #[test]
    fn replay_reproduces_live_delivery_counts() {
        let cfg = config();
        let (bytes, live_net) = capture_uniform();
        let mut source = source_from(&bytes);
        let trace_packets = source.header().packets;
        assert!(trace_packets > 1_000);

        let mut net = networks::build(NetworkKind::PointToPoint, cfg);
        let summary = drive_replay(
            net.as_mut(),
            &mut source,
            &cfg,
            ReplayOptions::default(),
            Tracer::disabled(),
        );
        assert!(!summary.saturated && !summary.timed_out && !summary.poisoned);
        assert_eq!(summary.trace_packets, trace_packets);
        assert_eq!(summary.emitted, trace_packets);
        assert_eq!(summary.delivered, live_net.stats().delivered_packets());
        assert_eq!(summary.delivered_bytes, live_net.stats().delivered_bytes());
        assert_eq!(
            summary.mean_latency_ns,
            live_net.stats().mean_latency().as_ns_f64(),
            "replay must reproduce live latency exactly"
        );

        // The same trace plays through a different architecture too.
        let mut source2 = source_from(&bytes);
        let mut ring = networks::build(NetworkKind::TokenRing, cfg);
        let ring_summary = drive_replay(
            ring.as_mut(),
            &mut source2,
            &cfg,
            ReplayOptions::default(),
            Tracer::disabled(),
        );
        assert_eq!(ring_summary.emitted, trace_packets);
        assert!(ring_summary.delivered > 0);
        // Identical traffic, different architecture: latency differs.
        assert_ne!(ring_summary.mean_latency_ns, summary.mean_latency_ns);
    }

    #[test]
    fn capture_is_deterministic() {
        let (a, _) = capture_uniform();
        let (b, _) = capture_uniform();
        assert_eq!(a, b, "same seed and pattern must capture identical bytes");
    }

    #[test]
    fn replay_metrics_cover_both_families() {
        let cfg = config();
        let (bytes, _) = capture_uniform();
        let mut source = source_from(&bytes);
        let mut net = networks::build(NetworkKind::PointToPoint, cfg);
        let summary = drive_replay(
            net.as_mut(),
            &mut source,
            &cfg,
            ReplayOptions::default(),
            Tracer::disabled(),
        );
        let mut reg = MetricsRegistry::new();
        record_replay_metrics(&mut reg, net.as_ref(), &summary);
        let json = reg.snapshot().to_json();
        assert!(json.contains("\"net.delivered\""), "{json}");
        assert!(json.contains("\"replay.trace_packets\""), "{json}");
        assert!(json.contains("\"replay.poisoned\": 0"), "{json}");
    }

    #[test]
    fn grid_mismatch_is_a_clear_error() {
        let meta = TraceMeta {
            grid_side: 4,
            seed: 1,
            description: "small grid".into(),
        };
        let w = TraceWriter::create(Cursor::new(Vec::new()), &meta).expect("writer");
        let bytes = w.finish().expect("finish").0.into_inner();
        let source = source_from(&bytes);
        let err = check_grid(&source, &config()).expect_err("grid mismatch");
        assert!(err.to_string().contains("4x4"), "{err}");
    }
}
