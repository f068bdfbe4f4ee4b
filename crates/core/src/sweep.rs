//! Open-loop latency-vs-offered-load sweeps (Figure 6).
//!
//! A sweep drives one network with one synthetic pattern at a series of
//! offered loads (fractions of the 320 bytes/ns per-site peak — Figure
//! 6's x-axis) and records the mean packet latency and delivered
//! throughput at each point. The vertical asymptote of the resulting
//! curve is the network's maximum sustainable bandwidth (§6.1).

use crate::runner::{drive_observed, DriveLimits};
use desim::{Span, Time, Tracer};
use netcore::{MacrochipConfig, NetworkKind, Packet};
use workloads::{OpenLoopTraffic, Pattern};

/// One measured point of a latency-load curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadPoint {
    /// Offered load as a fraction of the per-site peak (320 B/ns).
    pub offered: f64,
    /// Mean end-to-end packet latency, in nanoseconds.
    pub mean_latency_ns: f64,
    /// 99th-percentile latency, in nanoseconds.
    pub p99_latency_ns: f64,
    /// Delivered throughput per site, in bytes/ns.
    pub delivered_bytes_per_ns_per_site: f64,
    /// The network could not absorb this load.
    pub saturated: bool,
}

/// Knobs for a sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepOptions {
    /// Traffic-generation window per load point.
    pub sim: Span,
    /// Extra drain time after generation stops.
    pub drain: Span,
    /// Stalled-packet bound that declares saturation.
    pub max_stalled: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SweepOptions {
    fn default() -> SweepOptions {
        SweepOptions {
            sim: Span::from_us(5),
            drain: Span::from_us(20),
            max_stalled: 5_000,
            seed: 0xC0FFEE,
        }
    }
}

/// Runs one load point: one network, one pattern, one offered load.
pub fn run_load_point(
    kind: NetworkKind,
    pattern: Pattern,
    offered: f64,
    config: &MacrochipConfig,
    options: SweepOptions,
) -> LoadPoint {
    run_load_point_on(
        networks::build(kind, *config),
        pattern,
        offered,
        config,
        options,
    )
}

/// Runs one load point on an already-built (possibly custom-configured)
/// network — the entry point for the ablation sweeps.
pub fn run_load_point_on(
    net: Box<dyn netcore::Network>,
    pattern: Pattern,
    offered: f64,
    config: &MacrochipConfig,
    options: SweepOptions,
) -> LoadPoint {
    run_load_point_traced(net, pattern, offered, config, options, Tracer::disabled()).0
}

/// [`run_load_point_on`] with a flight recorder attached.
///
/// The tracer is installed on the network (via [`netcore::Network::set_tracer`])
/// **and** handed to the driver, so one sink sees the full event stream:
/// injects, stalls/retries, arbitration, hops and deliveries. The driven
/// network is returned alongside the measured point so callers can export
/// its [`netcore::NetStats`] (per-phase latency, throughput) into a
/// metrics registry.
pub fn run_load_point_traced(
    net: Box<dyn netcore::Network>,
    pattern: Pattern,
    offered: f64,
    config: &MacrochipConfig,
    options: SweepOptions,
    tracer: Tracer,
) -> (LoadPoint, Box<dyn netcore::Network>) {
    run_load_point_observed(net, pattern, offered, config, options, tracer, |_| {})
}

/// [`run_load_point_traced`] with a capture hook: `observer` sees every
/// packet the traffic generator emits, in emission order (the trace
/// subsystem's `CaptureSink` plugs in here). A no-op observer leaves the
/// run's behavior and results untouched.
pub fn run_load_point_observed<F: FnMut(&Packet)>(
    mut net: Box<dyn netcore::Network>,
    pattern: Pattern,
    offered: f64,
    config: &MacrochipConfig,
    options: SweepOptions,
    tracer: Tracer,
    observer: F,
) -> (LoadPoint, Box<dyn netcore::Network>) {
    net.set_tracer(tracer.clone());
    let peak = config.site_bandwidth_bytes_per_ns();
    let mut traffic = OpenLoopTraffic::new(
        &config.grid,
        pattern,
        offered,
        peak,
        config.data_bytes,
        options.seed,
    );
    let horizon = Time::ZERO + options.sim;
    traffic.set_horizon(horizon);
    let outcome = drive_observed(
        net.as_mut(),
        &mut traffic,
        DriveLimits {
            deadline: horizon + options.drain,
            max_stalled: options.max_stalled,
        },
        tracer,
        observer,
    );
    let stats = net.stats();
    let delivered_rate = stats.delivered_bytes_per_ns() / config.grid.sites() as f64;
    // Saturation: the driver said so, drainage timed out, or the network
    // delivered well under what was offered.
    let offered_rate = offered * peak;
    let undelivered = traffic.emitted() > 0
        && (stats.delivered_packets() as f64) < 0.85 * traffic.emitted() as f64;
    let point = LoadPoint {
        offered,
        mean_latency_ns: stats.mean_latency().as_ns_f64(),
        p99_latency_ns: stats.latency().percentile(0.99).as_ns_f64(),
        delivered_bytes_per_ns_per_site: delivered_rate.min(offered_rate),
        saturated: outcome.saturated || outcome.timed_out || undelivered,
    };
    (point, net)
}

/// Runs a whole latency-load curve over `loads`.
pub fn latency_vs_load(
    kind: NetworkKind,
    pattern: Pattern,
    loads: &[f64],
    config: &MacrochipConfig,
    options: SweepOptions,
) -> Vec<LoadPoint> {
    loads
        .iter()
        .map(|&l| run_load_point(kind, pattern, l, config, options))
        .collect()
}

/// Estimates the maximum sustainable bandwidth (fraction of peak) by
/// bisection between the largest unsaturated and the smallest saturated
/// load, to `tolerance` (fraction of peak).
pub fn sustained_bandwidth(
    kind: NetworkKind,
    pattern: Pattern,
    config: &MacrochipConfig,
    options: SweepOptions,
    tolerance: f64,
) -> f64 {
    sustained_bandwidth_on(
        || networks::build(kind, *config),
        pattern,
        config,
        options,
        tolerance,
    )
}

/// Like [`sustained_bandwidth`], but over custom-configured networks
/// produced by `factory` (the entry point for the ablation sweeps).
pub fn sustained_bandwidth_on<F>(
    factory: F,
    pattern: Pattern,
    config: &MacrochipConfig,
    options: SweepOptions,
    tolerance: f64,
) -> f64
where
    F: Fn() -> Box<dyn netcore::Network>,
{
    let mut lo = 0.0; // known sustainable
    let mut hi = 1.0; // known (or assumed) saturated
    if !run_load_point_on(factory(), pattern, 1.0, config, options).saturated {
        return 1.0;
    }
    while hi - lo > tolerance {
        let mid = 0.5 * (lo + hi);
        if run_load_point_on(factory(), pattern, mid, config, options).saturated {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    lo
}

/// The canonical Figure 6 load grids per pattern, mirroring the paper's
/// x-axis ranges (uniform sweeps to 100%, transpose/butterfly to ~6%,
/// nearest-neighbor to ~25%).
pub fn figure6_loads(pattern: Pattern) -> Vec<f64> {
    let max = match pattern {
        Pattern::Uniform | Pattern::AllToAll => 1.0,
        Pattern::Neighbor => 0.25,
        Pattern::Transpose | Pattern::Butterfly => 0.06,
        // Extension pattern: the hot site's ingress saturates early.
        Pattern::HotSpot => 0.25,
    };
    (1..=10).map(|i| max * i as f64 / 10.0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_options() -> SweepOptions {
        SweepOptions {
            sim: Span::from_us(2),
            drain: Span::from_us(10),
            max_stalled: 10_000,
            seed: 1,
        }
    }

    fn config() -> MacrochipConfig {
        MacrochipConfig::scaled()
    }

    #[test]
    fn p2p_sustains_low_uniform_load_with_low_latency() {
        let p = run_load_point(
            NetworkKind::PointToPoint,
            Pattern::Uniform,
            0.10,
            &config(),
            fast_options(),
        );
        assert!(!p.saturated);
        // Near-empty channels: serialization (12.8) + flight (~2).
        assert!(p.mean_latency_ns < 25.0, "latency {}", p.mean_latency_ns);
    }

    #[test]
    fn latency_rises_with_load() {
        let pts = latency_vs_load(
            NetworkKind::PointToPoint,
            Pattern::Uniform,
            &[0.1, 0.5, 0.8],
            &config(),
            fast_options(),
        );
        assert!(pts[0].mean_latency_ns < pts[1].mean_latency_ns);
        assert!(pts[1].mean_latency_ns < pts[2].mean_latency_ns);
    }

    #[test]
    fn circuit_switched_saturates_early_on_uniform() {
        let p = run_load_point(
            NetworkKind::CircuitSwitched,
            Pattern::Uniform,
            0.10,
            &config(),
            fast_options(),
        );
        assert!(p.saturated, "circuit-switched sustained 10% uniform");
    }

    #[test]
    fn figure6_load_grids_match_paper_axes() {
        assert_eq!(figure6_loads(Pattern::Uniform).last(), Some(&1.0));
        assert!(figure6_loads(Pattern::Transpose).last().unwrap() <= &0.06);
        assert_eq!(figure6_loads(Pattern::Neighbor).len(), 10);
    }

    #[test]
    fn delivered_rate_tracks_offered_rate_when_unsaturated() {
        let p = run_load_point(
            NetworkKind::PointToPoint,
            Pattern::Uniform,
            0.2,
            &config(),
            fast_options(),
        );
        let offered_rate = 0.2 * 320.0;
        assert!(
            (p.delivered_bytes_per_ns_per_site - offered_rate).abs() < 0.15 * offered_rate,
            "delivered {} vs offered {}",
            p.delivered_bytes_per_ns_per_site,
            offered_rate
        );
    }
}
