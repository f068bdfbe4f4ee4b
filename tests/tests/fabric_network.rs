//! Multi-chip fabric harness: a 2x2 board of side-4 macrochips runs
//! sweep and fault campaign points under audit — every point must come
//! back clean, including the fabric-only `fabric.inter-chip-bytes`
//! reconciliation invariant — and the same campaign must give identical
//! results under every job count.
//!
//! The fourth test pins the compatibility contract: a one-chip
//! [`FabricConfig`] is not "almost" the plain single-chip path, it *is*
//! that path — same [`PointResult`], same metrics snapshot, byte for
//! byte.

use desim::Span;
use faults::FaultPlan;
use macrochip::campaign::{
    run_indexed, run_point_fabric, run_point_full, run_point_full_fabric, CampaignPoint,
    PointExecOptions, PointRun,
};
use macrochip::sweep::SweepOptions;
use netcore::{FabricConfig, MacrochipConfig, NetworkKind};
use workloads::Pattern;

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
    run_point_full_fabric(
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
    let serial = run_indexed(&points, 1, |_, p| run_point_fabric(p, &board));
    for jobs in [2, 4, 0] {
        let parallel = run_indexed(&points, jobs, |_, p| run_point_fabric(p, &board));
        assert_eq!(
            serial, parallel,
            "fabric campaign diverged between 1 job and {jobs} jobs"
        );
    }
}

/// The compatibility contract: a single-chip fabric IS the plain
/// single-chip path. Same results, same metrics bytes, same audit
/// verdict — so `--chips 1` (and every pre-fabric caller) is provably
/// unchanged.
#[test]
fn single_chip_fabric_points_match_plain_points() {
    let chip = MacrochipConfig::with_side(4);
    let single = FabricConfig::single(chip);
    let exec = || PointExecOptions {
        metrics: true,
        audit: true,
        ..PointExecOptions::default()
    };
    for kind in FABRIC_KINDS {
        for point in [sweep_point(kind, 0.03), fault_point(kind)] {
            let plain = run_point_full(&point, &chip, exec());
            let via_fabric = run_point_full_fabric(&point, &single, exec());
            assert_eq!(
                plain.result, via_fabric.result,
                "{kind}: single-chip fabric result differs from the plain path"
            );
            assert_eq!(
                plain.metrics.as_ref().map(|m| m.to_json()),
                via_fabric.metrics.as_ref().map(|m| m.to_json()),
                "{kind}: single-chip fabric metrics differ from the plain path"
            );
            assert_eq!(
                plain.audit.as_ref().map(|a| a.is_clean()),
                via_fabric.audit.as_ref().map(|a| a.is_clean()),
                "{kind}: single-chip fabric audit verdict differs from the plain path"
            );
        }
    }
}
