//! Differential serial-vs-parallel campaign tests: the parallel campaign
//! engine must produce **byte-identical** results to the serial path for
//! every worker count, across all five Figure 6 networks, for both
//! open-loop sweeps and seeded fault campaigns — including the trace and
//! metrics side channels.

use desim::Span;
use faults::FaultPlan;
use macrochip::campaign::{
    run_indexed, run_point_full, Campaign, CampaignOutcome, CampaignPoint, PointExecOptions,
};
use macrochip::prelude::*;
use netcore::{FabricConfig, MacrochipConfig};
use workloads::Pattern;

fn config() -> MacrochipConfig {
    MacrochipConfig::scaled()
}

/// Short windows keep each point cheap; the determinism contract is
/// window-independent.
fn sweep_options() -> SweepOptions {
    SweepOptions {
        sim: Span::from_ns(500),
        drain: Span::from_us(2),
        max_stalled: 5_000,
        seed: 11,
    }
}

/// A 3-point sweep per network: all five Figure 6 architectures.
fn sweep_points() -> Vec<CampaignPoint> {
    let mut pts = Vec::new();
    for &kind in NetworkKind::FIGURE6.iter() {
        for &offered in &[0.01, 0.03, 0.05] {
            pts.push(CampaignPoint::Sweep {
                kind,
                pattern: Pattern::Uniform,
                offered,
                options: sweep_options(),
            });
        }
    }
    pts
}

/// A seeded fault campaign (structural + transient faults with repair)
/// over all five Figure 6 architectures.
fn fault_points() -> Vec<CampaignPoint> {
    let plan = FaultPlan::parse("rand-links=2; transient=0.01; repair=10us").expect("plan parses");
    NetworkKind::FIGURE6
        .iter()
        .map(|&kind| CampaignPoint::Fault {
            kind,
            pattern: Pattern::Uniform,
            load: 0.02,
            plan: plan.clone(),
            seed: 77,
            sim: Span::from_ns(500),
            drain: Span::from_us(2),
            max_stalled: 5_000,
        })
        .collect()
}

/// The canonical serialization of a whole campaign: each point's cache
/// encoding (IEEE-754 bits for floats), concatenated in input order.
fn serialize(outcomes: &[CampaignOutcome]) -> String {
    outcomes.iter().map(|o| o.result.to_cache_bytes()).collect()
}

#[test]
fn sweep_campaign_bytes_identical_across_worker_counts() {
    let points = sweep_points();
    let serial = Campaign::serial(config()).run(&points);
    assert_eq!(serial.len(), points.len());
    for jobs in [2, 4] {
        let parallel = Campaign {
            jobs,
            cache: None,
            config: config(),
        }
        .run(&points);
        assert_eq!(serialize(&parallel), serialize(&serial), "jobs={jobs}");
    }
}

#[test]
fn fault_campaign_bytes_identical_across_worker_counts() {
    let points = fault_points();
    let serial = Campaign::serial(config()).run(&points);
    for jobs in [2, 4] {
        let parallel = Campaign {
            jobs,
            cache: None,
            config: config(),
        }
        .run(&points);
        assert_eq!(serialize(&parallel), serialize(&serial), "jobs={jobs}");
    }
}

#[test]
fn mixed_campaign_with_coherent_points_is_worker_count_invariant() {
    let mut points = sweep_points();
    points.extend(fault_points());
    points.push(CampaignPoint::Coherent {
        kind: NetworkKind::PointToPoint,
        spec: WorkloadSpec::Synthetic {
            pattern: Pattern::Neighbor,
            mix: SharingMix::LessSharing,
            ops_per_core: 2,
        },
        seed: 5,
    });
    let serial = Campaign::serial(config()).run(&points);
    let parallel = Campaign {
        jobs: 4,
        cache: None,
        config: config(),
    }
    .run(&points);
    assert_eq!(serialize(&parallel), serialize(&serial));
}

/// The fault.* / latency metrics registries each worker snapshots must
/// merge (in canonical shard order) to exactly the serial registries —
/// compared here on their JSON serialization, field for field.
#[test]
fn fault_metrics_side_channel_identical_serial_vs_parallel() {
    let points = fault_points();
    let exec = PointExecOptions {
        trace: false,
        metrics: true,
        audit: false,
        trace_capacity: 1,
    };
    let cfg = FabricConfig::single(config());
    let snapshots = |jobs: usize| -> Vec<String> {
        run_indexed(&points, jobs, |_, p| run_point_full(p, &cfg, exec))
            .into_iter()
            .map(|cell| {
                let json = cell.metrics.expect("metrics requested").to_json();
                assert!(json.contains("fault."), "fault metrics present");
                json
            })
            .collect()
    };
    let serial = snapshots(1);
    let parallel = snapshots(4);
    assert_eq!(serial, parallel);
}

/// Per-point flight recordings cross the shard boundary as snapshots and
/// must be event-for-event identical to a serial run's.
#[test]
fn trace_side_channel_identical_serial_vs_parallel() {
    let points = sweep_points();
    let exec = PointExecOptions {
        trace: true,
        metrics: false,
        audit: false,
        trace_capacity: 1 << 14,
    };
    let cfg = FabricConfig::single(config());
    let serial = run_indexed(&points, 1, |_, p| run_point_full(p, &cfg, exec));
    let parallel = run_indexed(&points, 4, |_, p| run_point_full(p, &cfg, exec));
    for (i, (a, b)) in serial.iter().zip(&parallel).enumerate() {
        assert!(!a.trace.is_empty(), "point {i} recorded no events");
        assert_eq!(a.trace, b.trace, "point {i} trace diverged");
    }
}
