//! Multi-chip fabric harness: a 2x2 board of side-4 macrochips runs
//! sweep and fault campaign points under audit — every point must come
//! back clean, including the fabric-only `fabric.inter-chip-bytes`
//! reconciliation invariant — and the same campaign must give identical
//! results under every job count.
//!
//! The fourth test pins the compatibility contract: a point on a one-chip
//! [`FabricConfig`] is not "almost" a plain single-chip run, it *is* that
//! run — same [`PointResult`](macrochip::campaign::PointResult), same
//! metrics snapshot byte for byte, same audit verdict as a bare chip
//! driven by hand.
//!
//! The last test pins the fabric's batched advance: driving a board
//! through whole batches of events per `advance` call gives the same run,
//! counters and trace stream as driving it one event at a time.

use desim::trace::{RingSink, TeeSink};
use desim::{Span, Time, TraceEvent, Tracer};
use faults::{FaultPlan, ResilientNetwork};
use macrochip::campaign::{
    run_indexed, run_point_full, CampaignPoint, FaultSummary, PointExecOptions, PointResult,
    PointRun,
};
use macrochip::runner::{drive_traced, DriveLimits, RunOutcome};
use macrochip::sweep::{run_load_point_traced, SweepOptions};
use netcore::{
    AuditReport, Auditor, FabricConfig, FaultResponse, MacrochipConfig, MetricsRegistry,
    MetricsSnapshot, NetFault, NetStats, Network, NetworkKind, Packet, SlabStats,
};
use networks::FabricNetwork;
use std::cell::RefCell;
use std::rc::Rc;
use workloads::{OpenLoopTraffic, Pattern};

const SIM: Span = Span::from_ns(500);
const DRAIN: Span = Span::from_us(5);

/// The two fabric-bearing architectures this harness sweeps: the paper's
/// token-ring crossbar and the post-paper hierarchical network. Between
/// them they cover both gateway protocols (broadcast-arbitrated and
/// cluster-routed) over the board links.
const FABRIC_KINDS: [NetworkKind; 2] = [NetworkKind::TokenRing, NetworkKind::Hierarchical];

/// A 2x2 board of side-4 chips: 16 chips' worth of machinery in
/// miniature — 4 inner networks, 2 board links in each direction, and an
/// 8x8 global address space.
fn fabric() -> FabricConfig {
    FabricConfig::grid(2, MacrochipConfig::with_side(4))
}

fn options(seed: u64) -> SweepOptions {
    SweepOptions {
        sim: SIM,
        drain: DRAIN,
        max_stalled: 5_000,
        seed,
    }
}

fn sweep_point(kind: NetworkKind, offered: f64) -> CampaignPoint {
    CampaignPoint::Sweep {
        kind,
        pattern: Pattern::Uniform,
        offered,
        options: options(0xFAB),
    }
}

/// A fault point whose plan kills the chip(0,0) -> chip(0,1) board link
/// (global gateway indices 0 and 4 on the 8-wide global grid), so the
/// resilience wrapper's retry machinery runs *through* the fabric layer.
fn fault_point(kind: NetworkKind) -> CampaignPoint {
    CampaignPoint::Fault {
        kind,
        pattern: Pattern::Uniform,
        load: 0.02,
        plan: FaultPlan::parse("link:0->4@500ns; repair=2us").unwrap(),
        seed: 77,
        sim: SIM,
        drain: DRAIN,
        max_stalled: 5_000,
    }
}

/// Full-fat execution: metrics + audit, so every layer of the point runs.
fn audited(point: &CampaignPoint) -> PointRun {
    run_point_full(
        point,
        &fabric(),
        PointExecOptions {
            metrics: true,
            audit: true,
            ..PointExecOptions::default()
        },
    )
}

fn assert_clean(run: &PointRun, label: &str) {
    let report = run.audit.as_ref().expect("audit was requested");
    assert!(
        report.is_clean(),
        "{label}: fabric audit found violations: {:?}",
        report.violations
    );
}

/// Open-loop sweep points on the 2x2 board at a light and a moderate
/// load: the audit (`net.*` conservation, causality floors and the
/// `fabric.*` byte reconciliation) must come back clean.
#[test]
fn fabric_sweep_points_are_kernel_invariant_and_audit_clean() {
    for kind in FABRIC_KINDS {
        for offered in [0.01, 0.03] {
            let run = audited(&sweep_point(kind, offered));
            assert_clean(&run, &format!("{kind} @ {offered}"));
        }
    }
}

/// Fault points with an inter-chip link kill: the board-link
/// half-bandwidth degradation, repair scheduling and the wrapper's
/// retries run through the fabric, and the fabric byte reconciliation
/// must still close with retransmissions in flight.
#[test]
fn fabric_fault_points_are_kernel_invariant_and_audit_clean() {
    for kind in FABRIC_KINDS {
        let run = audited(&fault_point(kind));
        assert_clean(&run, &format!("{kind} fault point"));
    }
}

/// A mixed 2x2-board campaign (sweep grid + fault points on both
/// networks) must produce identical result vectors serially and at every
/// parallel job count — fabric points are as shard-order-independent as
/// single-chip ones.
#[test]
fn fabric_campaign_is_job_count_invariant() {
    let board = fabric();
    let mut points: Vec<CampaignPoint> = Vec::new();
    for kind in FABRIC_KINDS {
        for offered in [0.01, 0.03] {
            points.push(sweep_point(kind, offered));
        }
        points.push(fault_point(kind));
    }
    let run = |_, p: &CampaignPoint| run_point_full(p, &board, PointExecOptions::default()).result;
    let serial = run_indexed(&points, 1, run);
    for jobs in [2, 4, 0] {
        let parallel = run_indexed(&points, jobs, run);
        assert_eq!(
            serial, parallel,
            "fabric campaign diverged between 1 job and {jobs} jobs"
        );
    }
}

/// The compatibility contract: a point on a single-chip fabric IS a plain
/// single-chip run. The campaign runner's result, metrics bytes and audit
/// verdict must equal those of a bare chip built, driven and audited by
/// hand — so `--chips 1` (and every pre-fabric caller) is provably
/// unchanged.
#[test]
fn single_chip_fabric_points_match_plain_points() {
    let chip = MacrochipConfig::with_side(4);
    let single = FabricConfig::single(chip);
    assert_eq!(single.global_config(), chip);
    let exec = PointExecOptions {
        metrics: true,
        audit: true,
        ..PointExecOptions::default()
    };
    for kind in FABRIC_KINDS {
        for point in [sweep_point(kind, 0.03), fault_point(kind)] {
            let via_fabric = run_point_full(&point, &single, exec);
            let (result, metrics, audit) = bare_chip_run(&point, &chip);
            assert_eq!(
                result, via_fabric.result,
                "{kind}: single-chip fabric result differs from the bare chip"
            );
            assert_eq!(
                Some(metrics.to_json()),
                via_fabric.metrics.as_ref().map(|m| m.to_json()),
                "{kind}: single-chip fabric metrics differ from the bare chip"
            );
            assert_eq!(
                Some(audit.is_clean()),
                via_fabric.audit.as_ref().map(|a| a.is_clean()),
                "{kind}: single-chip fabric audit verdict differs from the bare chip"
            );
        }
    }
}

/// `point` on a bare `chip` with no campaign or fabric code: the network
/// from `networks::build`, a plain [`Auditor::new`] on its tracer, and the
/// metrics the campaign runner records for the point's type.
fn bare_chip_run(
    point: &CampaignPoint,
    chip: &MacrochipConfig,
) -> (PointResult, MetricsSnapshot, AuditReport) {
    let auditor = Rc::new(RefCell::new(Auditor::new(point.kind(), chip)));
    let tracer = Tracer::shared(&auditor);
    let audit = |net: &dyn Network, fault_drops: u64, end: Time| {
        let mut a = auditor.borrow_mut();
        if net.next_event().is_none() {
            a.check_slab_idle(net.slab_stats(), end);
        }
        a.finalize(net.stats(), fault_drops, end)
    };
    let mut reg = MetricsRegistry::new();
    let (result, report) = match point {
        CampaignPoint::Sweep {
            kind,
            pattern,
            offered,
            options,
        } => {
            let (p, net) = run_load_point_traced(
                networks::build(*kind, *chip),
                *pattern,
                *offered,
                chip,
                *options,
                tracer,
            );
            let report = audit(net.as_ref(), 0, Time::ZERO + options.sim + options.drain);
            reg.record_net_stats(net.stats());
            reg.set_gauge("run.offered_load", *offered);
            (PointResult::Sweep(p), report)
        }
        CampaignPoint::Fault {
            kind,
            pattern,
            load,
            plan,
            seed,
            sim,
            drain,
            max_stalled,
        } => {
            let horizon = Time::ZERO + *sim;
            let mut net =
                ResilientNetwork::new(networks::build(*kind, *chip), plan, *seed, horizon);
            net.set_tracer(tracer.clone());
            let mut traffic = OpenLoopTraffic::new(
                &chip.grid,
                *pattern,
                *load,
                chip.site_bandwidth_bytes_per_ns(),
                chip.data_bytes,
                *seed,
            );
            traffic.set_horizon(horizon);
            let limits = DriveLimits::for_window(*sim, *drain, *max_stalled);
            let outcome = drive_traced(&mut net, &mut traffic, limits, tracer);
            let report = audit(&net, net.fault_stats().dropped, outcome.end);
            net.record_metrics(&mut reg, outcome.end);
            reg.set_gauge("run.offered_load", *load);
            let s = net.fault_stats();
            let summary = FaultSummary {
                clean_delivered: s.clean_delivered,
                lost: net.lost_packets(),
                retries: s.retries,
                availability: net.availability(),
                clean_bytes: s.clean_bytes,
                degraded_ns: s.time_degraded(outcome.end).as_ns_f64(),
                end_ns: outcome.end.as_ns_f64(),
                saturated: outcome.saturated,
            };
            (PointResult::Fault(summary), report)
        }
        other => panic!("no bare-chip reference for a {} point", other.tag()),
    };
    report.record_metrics(&mut reg);
    (result, reg.snapshot(), report)
}

/// A network the runner must drive one event at a time: it forwards every
/// [`Network`] method except `supports_batched_advance`, which answers
/// `false`.
struct PerEvent<N>(N);

impl<N: Network> Network for PerEvent<N> {
    fn kind(&self) -> NetworkKind {
        self.0.kind()
    }

    fn config(&self) -> &MacrochipConfig {
        self.0.config()
    }

    fn inject(&mut self, packet: Packet, now: Time) -> Result<(), Packet> {
        self.0.inject(packet, now)
    }

    fn admission_queue(&self, packet: &Packet) -> Option<u32> {
        self.0.admission_queue(packet)
    }

    fn refuse_if_full(&mut self, queue: u32) -> bool {
        self.0.refuse_if_full(queue)
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
        false
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

/// Everything a driven board run leaves behind.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: RunOutcome,
    /// `Debug` rendering of the full `NetStats` (f64s print exactly).
    net_stats: String,
    trace: Vec<(Time, TraceEvent)>,
    rejected: u64,
    violations: u64,
}

/// Drives uniform traffic at `load` over `net` on the [`fabric`] board
/// with a ring sink and a fabric auditor attached; `dropped` reads the
/// wrapper's permanent drops for the audit after the run. A run that
/// ran dry is also checked for packets left in any chip's slab.
fn observe<N: Network>(
    mut net: N,
    load: f64,
    limits: DriveLimits,
    dropped: impl Fn(&N) -> u64,
) -> Observed {
    let board = fabric();
    let global = board.global_config();
    let ring = Rc::new(RefCell::new(RingSink::new(1 << 22)));
    let auditor = Rc::new(RefCell::new(Auditor::new_fabric(net.kind(), &board)));
    let mut tee = TeeSink::new();
    tee.add(&ring);
    tee.add(&auditor);
    let tracer = Tracer::new(tee);
    net.set_tracer(tracer.clone());
    let mut traffic = OpenLoopTraffic::new(
        &global.grid,
        Pattern::Uniform,
        load,
        global.site_bandwidth_bytes_per_ns(),
        global.data_bytes,
        0xFAB,
    );
    traffic.set_horizon(Time::ZERO + SIM);
    let outcome = drive_traced(&mut net, &mut traffic, limits, tracer);
    if !outcome.saturated && !outcome.timed_out {
        // The run ended because no event was left: every chip must be
        // empty, which a stale cached chip clock would hide.
        auditor
            .borrow_mut()
            .check_slab_idle(net.slab_stats(), outcome.end);
    }
    let report = auditor
        .borrow_mut()
        .finalize(net.stats(), dropped(&net), outcome.end);
    assert_eq!(ring.borrow().dropped(), 0, "ring sink overflowed");
    let trace = ring.borrow().snapshot();
    Observed {
        outcome,
        net_stats: format!("{:?}", net.stats()),
        trace,
        rejected: net.stats().rejected_packets(),
        violations: report.total_violations,
    }
}

/// Batched and per-event driving of every architecture on the 2x2 board
/// give the same `RunOutcome`, `NetStats` and trace stream, with a clean
/// audit: a light point that never stalls, a saturating point whose run
/// falls back to the per-event stall path partway through, and a
/// resilience-wrapped fault point that kills a board link.
#[test]
fn batched_fabric_advance_matches_per_event_driving() {
    let board = fabric();
    let limits = DriveLimits::for_window(SIM, DRAIN, 5_000);
    for kind in NetworkKind::ALL {
        let bare = networks::build_fabric(kind, &board);
        assert!(bare.supports_batched_advance(), "{kind}");
        for load in [0.002, 0.03] {
            let batched = observe(FabricNetwork::new(kind, board), load, limits, |_| 0);
            let stepped = observe(
                PerEvent(FabricNetwork::new(kind, board)),
                load,
                limits,
                |_| 0,
            );
            assert_eq!(batched.violations, 0, "{kind} @ {load}: audit violations");
            assert!(
                batched == stepped,
                "{kind} @ {load}: batching changed the run"
            );
            if load > 0.01 {
                assert!(batched.rejected > 0, "{kind} @ {load}: never stalled");
            } else {
                assert!(!batched.outcome.saturated, "{kind} @ {load}: saturated");
            }
        }

        // A board-link kill, and an on-chip link kill and laser loss on
        // chip 0 that the fabric forwards to that chip.
        let plan = FaultPlan::parse("link:0->4@200ns; link:1->2@250ns; laser:9@300ns; repair=1us")
            .unwrap();
        let resilient = || {
            ResilientNetwork::new(
                networks::build_fabric(kind, &board),
                &plan,
                77,
                Time::ZERO + SIM,
            )
        };
        assert!(resilient().supports_batched_advance(), "{kind}");
        let batched = observe(resilient(), 0.005, limits, |n| n.fault_stats().dropped);
        let stepped = observe(PerEvent(resilient()), 0.005, limits, |n| {
            n.0.fault_stats().dropped
        });
        assert_eq!(
            batched.violations, 0,
            "{kind} fault point: audit violations"
        );
        assert!(
            batched == stepped,
            "{kind} fault point: batching changed the run"
        );
        assert!(!batched.outcome.saturated, "{kind} fault point: saturated");
    }
}
