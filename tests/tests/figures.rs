//! The paper artifacts of `macrochip figures`, pinned byte for byte.
//!
//! Every cheap artifact is built in-process and its printed text and
//! files are reduced to one FNV-1a digest. Those digests were recorded
//! from the standalone per-artifact binaries the `figures` subcommand
//! replaced (default results directory, short degradation window), so a
//! change to any table, figure or CSV shows here. Figures 7-10 render a
//! small coherent grid (one workload on every network) instead of the
//! paper's 77-point grid, which is too slow for tier-1.

use macrochip::campaign::{run_point, CampaignPoint, PointResult};
use macrochip::experiment::{CoherentRun, WorkloadSpec};
use macrochip::figures::{self, Artifact, FigureContext, FIGURES};
use netcore::{MacrochipConfig, NetworkKind};
use std::path::Path;
use workloads::{Pattern, SharingMix};

/// FNV-1a over the text, then each file as NUL, name, NUL, contents.
fn digest(a: &Artifact) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(a.text.as_bytes());
    for (name, contents) in &a.files {
        eat(&[0]);
        eat(name.as_bytes());
        eat(&[0]);
        eat(contents.as_bytes());
    }
    h
}

fn context(grid: &[CoherentRun]) -> FigureContext<'_> {
    FigureContext {
        out: Path::new("results"),
        short: true,
        jobs: 2,
        grid,
    }
}

/// Builds each named artifact and checks its digest, reporting every
/// mismatch at once.
fn assert_digests(ctx: &FigureContext, want: &[(&str, u64)]) {
    let wrong: Vec<String> = want
        .iter()
        .filter_map(|&(name, want)| {
            let figure = FIGURES
                .iter()
                .find(|f| f.name == name)
                .expect("a listed artifact");
            let got = digest(&(figure.build)(ctx));
            (got != want).then(|| format!("{name}: got {got:#018x}, want {want:#018x}"))
        })
        .collect();
    assert!(
        wrong.is_empty(),
        "artifact digests moved:\n{}",
        wrong.join("\n")
    );
}

/// Recorded from the per-artifact binaries (`degradation` with its 1 us
/// short window).
const CHEAP_DIGESTS: [(&str, u64); 9] = [
    ("table1", 0x935473c621c1c969),
    ("table4", 0x5f441558fb5a1c1d),
    ("table5_power", 0x64ef420a97f50afb),
    ("table6_counts", 0x235b6f624e112c3c),
    ("macrochip_2015", 0x5820e6250b58126d),
    ("sensitivity", 0xdd23a2afc57db10e),
    ("latency_breakdown", 0xaff95ecd1fa7126b),
    ("fairness", 0xdb5ca2f6ea58d2d0),
    ("degradation", 0xa5b617c2647ea941),
];

#[test]
fn cheap_artifacts_match_the_recorded_digests() {
    assert_digests(&context(&[]), &CHEAP_DIGESTS);
}

/// Figures 7-10 over one synthetic workload at 4 misses per core,
/// recorded from the per-figure binaries with their grid cut to that
/// workload.
const GRID_DIGESTS: [(&str, u64); 4] = [
    ("fig7_speedup", 0x3ac6b090d7ce579b),
    ("fig8_latency", 0xeac80302d771a515),
    ("fig9_router_energy", 0x556ebbf61a2827bf),
    ("fig10_edp", 0x2e7db8869235c1cf),
];

#[test]
fn grid_figures_render_a_small_grid_to_the_recorded_digests() {
    let config = MacrochipConfig::scaled();
    let spec = WorkloadSpec::Synthetic {
        pattern: Pattern::Transpose,
        mix: SharingMix::LessSharing,
        ops_per_core: 4,
    };
    let grid: Vec<CoherentRun> = NetworkKind::ALL
        .into_iter()
        .map(|kind| {
            let point = CampaignPoint::Coherent {
                kind,
                spec: spec.clone(),
                seed: 0xFEED,
            };
            match run_point(&point, &config) {
                PointResult::Coherent(run) => run,
                other => panic!("a coherent point returned a {} result", other.tag()),
            }
        })
        .collect();
    assert_digests(&context(&grid), &GRID_DIGESTS);
}

#[test]
fn the_index_names_each_artifact_once_and_the_grid_has_77_points() {
    let mut names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), FIGURES.len());
    let grid: Vec<&str> = FIGURES
        .iter()
        .filter(|f| f.uses_grid)
        .map(|f| f.name)
        .collect();
    assert_eq!(
        grid,
        [
            "fig7_speedup",
            "fig8_latency",
            "fig9_router_energy",
            "fig10_edp"
        ]
    );
    assert_eq!(figures::grid_points(10).len(), 11 * NetworkKind::ALL.len());
}
