//! Reproducibility: identical seeds must give bit-identical results on
//! every architecture — the foundation for comparable experiments.

use desim::Time;
use macrochip::prelude::*;
use macrochip::runner::{drive, DriveLimits};
use workloads::OpenLoopTraffic;

fn open_loop_fingerprint(kind: NetworkKind, seed: u64) -> (u64, u64, u64, u64, u64) {
    let config = MacrochipConfig::scaled();
    let mut net = networks::build(kind, config);
    let mut traffic = OpenLoopTraffic::new(&config.grid, Pattern::Uniform, 0.05, 320.0, 64, seed);
    traffic.set_horizon(Time::from_ns(600));
    drive(net.as_mut(), &mut traffic, DriveLimits::default());
    let s = net.stats();
    (
        s.injected_packets(),
        s.delivered_packets(),
        s.delivered_bytes(),
        s.mean_latency().as_ps(),
        net.events_processed(),
    )
}

#[test]
fn open_loop_runs_are_deterministic() {
    for kind in NetworkKind::ALL {
        let a = open_loop_fingerprint(kind, 42);
        let b = open_loop_fingerprint(kind, 42);
        assert_eq!(a, b, "{kind} not deterministic");
    }
}

#[test]
fn different_seeds_differ() {
    let a = open_loop_fingerprint(NetworkKind::PointToPoint, 1);
    let b = open_loop_fingerprint(NetworkKind::PointToPoint, 2);
    assert_ne!(a, b, "seeds should matter");
}

fn coherent_fingerprint(seed: u64) -> (u64, u64, u64) {
    let config = MacrochipConfig::scaled();
    let spec = WorkloadSpec::Synthetic {
        pattern: Pattern::Uniform,
        mix: SharingMix::MoreSharing,
        ops_per_core: 6,
    };
    let run = run_coherent(NetworkKind::TwoPhase, &spec, &config, seed);
    (
        run.ops_completed,
        run.makespan.as_ps(),
        run.mean_op_latency.as_ps(),
    )
}

#[test]
fn coherent_runs_are_deterministic() {
    assert_eq!(coherent_fingerprint(7), coherent_fingerprint(7));
}

#[test]
fn app_workloads_are_deterministic() {
    let config = MacrochipConfig::scaled();
    let profile = AppProfile::suite()[0].with_ops_per_core(5);
    let run = |seed| {
        let r = run_coherent(
            NetworkKind::PointToPoint,
            &WorkloadSpec::App(profile),
            &config,
            seed,
        );
        (r.makespan.as_ps(), r.delivered_bytes, r.packets)
    };
    assert_eq!(run(9), run(9));
}
