//! The runner's admission-queue hint is exact: re-offering stalled
//! packets with the hint (skipping `inject` while the refusing queue is
//! still full) gives byte-identical results, counters and trace streams to
//! re-offering every stalled packet through `inject`.
//!
//! Each network runs twice — bare, and behind [`NoHint`], a wrapper that
//! forwards every [`Network`] method except the two hint methods, so the
//! runner sees the always-re-offer defaults.

use coherence::{CoherenceEngine, EngineConfig};
use desim::trace::{RingSink, TeeSink};
use desim::{Time, TraceEvent, Tracer};
use macrochip::runner::{drive_traced, DriveLimits, RunOutcome};
use netcore::{
    Auditor, FaultResponse, MacrochipConfig, NetFault, NetStats, Network, NetworkKind, Packet,
    PacketSource, SlabStats,
};
use networks::{LimitedP2pNetwork, RoutingPolicy};
use std::cell::RefCell;
use std::rc::Rc;
use workloads::{OpenLoopTraffic, Pattern, SharingMix, SyntheticOpSource};

/// A network without the admission-queue hint.
struct NoHint(Box<dyn Network>);

impl Network for NoHint {
    fn kind(&self) -> NetworkKind {
        self.0.kind()
    }

    fn config(&self) -> &MacrochipConfig {
        self.0.config()
    }

    fn inject(&mut self, packet: Packet, now: Time) -> Result<(), Packet> {
        self.0.inject(packet, now)
    }

    fn next_event(&self) -> Option<Time> {
        self.0.next_event()
    }

    fn advance(&mut self, now: Time) {
        self.0.advance(now);
    }

    fn drain_delivered(&mut self) -> Vec<Packet> {
        self.0.drain_delivered()
    }

    fn drain_delivered_into(&mut self, out: &mut Vec<Packet>) {
        self.0.drain_delivered_into(out);
    }

    fn last_event_time(&self) -> Option<Time> {
        self.0.last_event_time()
    }

    fn supports_batched_advance(&self) -> bool {
        self.0.supports_batched_advance()
    }

    fn slab_stats(&self) -> Option<SlabStats> {
        self.0.slab_stats()
    }

    fn stats(&self) -> &NetStats {
        self.0.stats()
    }

    fn events_processed(&self) -> u64 {
        self.0.events_processed()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.0.set_tracer(tracer);
    }

    fn apply_fault(&mut self, fault: NetFault, now: Time) -> FaultResponse {
        self.0.apply_fault(fault, now)
    }
}

/// Everything a driven run leaves behind.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: RunOutcome,
    /// `Debug` rendering of the full `NetStats` (f64s print exactly).
    net_stats: String,
    /// `Debug` rendering of the coherence engine's `OpStats`, if any.
    op_stats: String,
    trace: Vec<(Time, TraceEvent)>,
    rejected: u64,
    violations: u64,
}

/// Drives `source` over `net` with a ring sink and an auditor attached.
fn observe(
    mut net: Box<dyn Network>,
    source: &mut dyn PacketSource,
    limits: DriveLimits,
    config: &MacrochipConfig,
) -> (Observed, Box<dyn Network>) {
    let ring = Rc::new(RefCell::new(RingSink::new(1 << 22)));
    let auditor = Rc::new(RefCell::new(Auditor::new(net.kind(), config)));
    let mut tee = TeeSink::new();
    tee.add(&ring);
    tee.add(&auditor);
    let tracer = Tracer::new(tee);
    net.set_tracer(tracer.clone());
    let outcome = drive_traced(net.as_mut(), source, limits, tracer);
    let report = auditor.borrow_mut().finalize(net.stats(), 0, outcome.end);
    assert_eq!(ring.borrow().dropped(), 0, "ring sink overflowed");
    let observed = Observed {
        outcome,
        net_stats: format!("{:?}", net.stats()),
        op_stats: String::new(),
        trace: ring.borrow().snapshot(),
        rejected: net.stats().rejected_packets(),
        violations: report.total_violations,
    };
    (observed, net)
}

/// Builds a fresh network for one run.
type Build = Box<dyn Fn() -> Box<dyn Network>>;

/// Every architecture as [`networks::build`] makes it, plus limited p2p
/// under adaptive routing, whose first hop follows queue occupancy.
fn builders(config: MacrochipConfig) -> Vec<(String, Build)> {
    let mut all: Vec<(String, Build)> = NetworkKind::ALL
        .into_iter()
        .map(|kind| {
            let build: Build = Box::new(move || networks::build(kind, config));
            (kind.to_string(), build)
        })
        .collect();
    all.push((
        "limited-adaptive".to_string(),
        Box::new(move || {
            Box::new(LimitedP2pNetwork::with_policy(
                config,
                RoutingPolicy::Adaptive,
            ))
        }),
    ));
    all
}

/// Runs one scenario bare and through [`NoHint`] and checks they match.
fn assert_exact(
    name: &str,
    build: &dyn Fn() -> Box<dyn Network>,
    mut run: impl FnMut(Box<dyn Network>) -> Observed,
) -> Observed {
    let hinted = run(build());
    let plain = run(Box::new(NoHint(build())));
    assert_eq!(hinted.violations, 0, "{name}: audit violations");
    assert!(hinted.rejected > 0, "{name}: the scenario never stalled");
    assert!(hinted == plain, "{name}: the hint changed the run");
    hinted
}

/// A closed-loop coherent point whose sources stall: single-packet
/// admission queues, and every core issues a few hot-spot misses 1 ns
/// apart.
#[test]
fn closed_loop_coherent_runs_are_identical_with_and_without_the_hint() {
    let config = MacrochipConfig {
        queue_capacity: 1,
        ..MacrochipConfig::scaled()
    };
    for (name, build) in builders(config) {
        assert_exact(&name, build.as_ref(), |net| {
            let source = SyntheticOpSource::with_gap(
                &config.grid,
                Pattern::HotSpot,
                SharingMix::MoreSharing,
                2,
                desim::Span::from_ns(1),
                7,
            );
            let mut engine = CoherenceEngine::new(config, EngineConfig::default(), source);
            let limits = DriveLimits {
                deadline: Time::from_us(1_000),
                max_stalled: usize::MAX,
            };
            let (mut observed, _) = observe(net, &mut engine, limits, &config);
            assert!(!observed.outcome.saturated && !observed.outcome.timed_out);
            observed.op_stats = format!("{:?}", engine.stats());
            observed
        });
    }
}

/// An open-loop uniform point at twice the peak site bandwidth, cut by the
/// stalled-packet bound.
#[test]
fn saturated_open_loop_runs_are_identical_with_and_without_the_hint() {
    let config = MacrochipConfig::scaled();
    for (name, build) in builders(config) {
        let observed = assert_exact(&name, build.as_ref(), |net| {
            let mut traffic =
                OpenLoopTraffic::new(&config.grid, Pattern::Uniform, 2.0, 320.0, 64, 3);
            traffic.set_horizon(Time::from_ns(400));
            let limits = DriveLimits {
                deadline: Time::from_us(5),
                max_stalled: 300,
            };
            observe(net, &mut traffic, limits, &config).0
        });
        assert!(
            observed.outcome.saturated,
            "{name}: twice the peak load did not saturate"
        );
    }
}
