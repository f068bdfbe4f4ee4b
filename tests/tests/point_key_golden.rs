//! Golden values for the content-addressed cache key.
//!
//! [`campaign::point_key`] names every on-disk cache entry. If its value
//! changes for an unchanged point, every existing cache entry silently
//! becomes unreachable — so the key for one fixed point per variant is
//! pinned here.
//!
//! If a test below fails because you intentionally changed the key
//! material (new hashed field, changed encoding), bump
//! `campaign::CACHE_FORMAT` — which changes every key and invalidates
//! old entries on purpose — and update these constants. Do not update
//! the constants without the format bump.

use desim::Span;
use macrochip::campaign::{point_key, CampaignPoint};
use macrochip::experiment::WorkloadSpec;
use macrochip::sweep::SweepOptions;
use netcore::{MacrochipConfig, NetworkKind};
use workloads::{Pattern, SharingMix};

fn golden_points() -> Vec<(CampaignPoint, u64)> {
    vec![
        (
            CampaignPoint::Sweep {
                kind: NetworkKind::TwoPhase,
                pattern: Pattern::Uniform,
                offered: 0.25,
                options: SweepOptions {
                    sim: Span::from_us(5),
                    drain: Span::from_us(20),
                    max_stalled: 5_000,
                    seed: 0xC0FFEE,
                },
            },
            0x2A68_8160_F3FE_EF76,
        ),
        (
            CampaignPoint::Fault {
                kind: NetworkKind::TokenRing,
                pattern: Pattern::Transpose,
                load: 0.05,
                plan: faults::FaultPlan::parse("rand-links=2; transient=0.01; repair=10us")
                    .expect("valid plan"),
                seed: 0xC0FFEE,
                sim: Span::from_us(5),
                drain: Span::from_us(20),
                max_stalled: 5_000,
            },
            0x0D3D_1652_1152_7AD1,
        ),
        (
            CampaignPoint::Coherent {
                kind: NetworkKind::PointToPoint,
                spec: WorkloadSpec::Synthetic {
                    pattern: Pattern::Butterfly,
                    mix: SharingMix::LessSharing,
                    ops_per_core: 40,
                },
                seed: 0xCAFE,
            },
            0xD69C_DE57_0252_B1CA,
        ),
        (
            CampaignPoint::Replay {
                kind: NetworkKind::CircuitSwitched,
                trace: "traces/golden.mtrc".to_string(),
                content_hash: 0x1234_5678_9ABC_DEF0,
                plan: None,
                seed: 0xC0FFEE,
                drain: Span::from_us(20),
                max_stalled: 5_000,
            },
            0xD153_5E94_672C_805E,
        ),
    ]
}

#[test]
fn point_keys_are_stable_across_releases() {
    let config = MacrochipConfig::scaled();
    let golden = golden_points();
    let actual: Vec<u64> = golden.iter().map(|(p, _)| point_key(p, &config)).collect();
    let pinned: Vec<u64> = golden.iter().map(|(_, k)| *k).collect();
    assert_eq!(
        actual, pinned,
        "point_key changed for a fixed point — cached results silently \
         become unreachable. If the key material changed on purpose, \
         bump campaign::CACHE_FORMAT and repin: {actual:#018x?}"
    );
}
