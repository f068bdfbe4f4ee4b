//! The paper's evaluation artifacts (DESIGN.md §5 and §6), one function
//! each, in the order of [`FIGURES`].
//!
//! Every artifact is a pure function of a [`FigureContext`]: it returns
//! the text to print and the `(file name, contents)` pairs to write under
//! [`FigureContext::out`], and touches neither the filesystem nor the
//! environment. `macrochip figures` prints and writes them.
//!
//! Figures 7, 8, 9 and 10 read one shared closed-loop grid, every
//! workload of the Figure 7 suite on every network ([`grid_points`]),
//! which the caller runs once and hands in as [`FigureContext::grid`].

use crate::campaign::{run_indexed, CampaignPoint};
use crate::energy::NetworkEnergyModel;
use crate::experiment::{run_coherent_with, CoherentRun, WorkloadSpec};
use crate::report::{fmt, heatmap, Table};
use crate::runner::{drive, DriveLimits};
use crate::sweep::{
    figure6_loads, latency_vs_load, sustained_bandwidth, sustained_bandwidth_on, SweepOptions,
};
use coherence::EngineConfig;
use desim::{Span, Time};
use faults::{FaultPlan, ResilientNetwork};
use netcore::{MacrochipConfig, Network, NetworkKind, Packet, PacketSource};
use networks::{
    CircuitSwitchedNetwork, LimitedP2pNetwork, RoutingPolicy, TokenRingNetwork, TwoPhaseNetwork,
};
use photonics::components::{Component, EnergyCost};
use photonics::crosstalk::{torus_worst_case_crossings, CrossingModel};
use photonics::geometry::Layout;
use photonics::inventory::{ComponentCounts, NetworkId, SwitchKind};
use photonics::power::{NetworkPower, BASE_LASER_MW};
use photonics::tuning::TuningModel;
use std::fmt::Write as _;
use std::path::Path;
use workloads::{Collective, MessagePassingWorkload, OpenLoopTraffic, Pattern, SharingMix};

/// `println!` into an artifact's text; writing to a `String` cannot fail.
macro_rules! outln {
    ($text:expr) => {
        $text.push('\n')
    };
    ($text:expr, $($arg:tt)*) => {{
        let _ = writeln!($text, $($arg)*);
    }};
}

/// What one artifact prints and the files it writes.
#[derive(Debug)]
pub struct Artifact {
    /// The printed text, including the lines naming the written files.
    pub text: String,
    /// `(file name, contents)` pairs, relative to [`FigureContext::out`].
    pub files: Vec<(String, String)>,
}

/// What the artifacts read besides their own constants.
#[derive(Debug, Clone, Copy)]
pub struct FigureContext<'a> {
    /// Directory the files go to; the artifacts only name it in their
    /// text.
    pub out: &'a Path,
    /// The short traffic windows of `--duration-short`: Figure 6 runs
    /// 1 us + 5 us of drain instead of 3 us + 15 us, degradation 1 us of
    /// traffic instead of 5 us.
    pub short: bool,
    /// Worker threads for the artifacts that shard their points (1 =
    /// serial, 0 = one per hardware thread); the output is the same for
    /// any value.
    pub jobs: usize,
    /// The runs of [`grid_points`], in point order. Only the artifacts
    /// with [`Figure::uses_grid`] read it.
    pub grid: &'a [CoherentRun],
}

impl FigureContext<'_> {
    /// The artifact that prints `text` then a line naming `file` under
    /// the output directory, and writes `csv` to `file`.
    fn csv(&self, mut text: String, file: &str, csv: String) -> Artifact {
        outln!(text, "wrote {}", self.out.join(file).display());
        Artifact {
            text,
            files: vec![(file.into(), csv)],
        }
    }
}

/// One artifact of the index.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// The name `--only` selects it by.
    pub name: &'static str,
    /// Reads [`FigureContext::grid`] (Figures 7-10).
    pub uses_grid: bool,
    /// Builds the artifact.
    pub build: fn(&FigureContext) -> Artifact,
}

const fn figure(name: &'static str, build: fn(&FigureContext) -> Artifact) -> Figure {
    Figure {
        name,
        uses_grid: false,
        build,
    }
}

const fn grid_figure(name: &'static str, build: fn(&FigureContext) -> Artifact) -> Figure {
    Figure {
        name,
        uses_grid: true,
        build,
    }
}

/// Every artifact, in index order: the paper's tables and figures
/// (DESIGN.md §5), then the studies beyond it (§6).
pub const FIGURES: [Figure; 16] = [
    figure("table1", table1),
    figure("table4", table4),
    figure("table5_power", table5_power),
    figure("table6_counts", table6_counts),
    figure("fig6_latency_load", fig6_latency_load),
    grid_figure("fig7_speedup", fig7_speedup),
    grid_figure("fig8_latency", fig8_latency),
    grid_figure("fig9_router_energy", fig9_router_energy),
    grid_figure("fig10_edp", fig10_edp),
    figure("macrochip_2015", macrochip_2015),
    figure("ablations", ablations),
    figure("sensitivity", sensitivity),
    figure("future_message_passing", future_message_passing),
    figure("latency_breakdown", latency_breakdown),
    figure("fairness", fairness),
    figure("degradation", degradation),
];

/// The closed-loop grid behind Figures 7, 8, 9 and 10: every workload of
/// the Figure 7 suite at `ops_per_core` misses per core (the synthetic
/// workloads' size), on every network, in that order.
pub fn grid_points(ops_per_core: u32) -> Vec<CampaignPoint> {
    WorkloadSpec::figure7_suite(ops_per_core)
        .into_iter()
        .flat_map(|spec| {
            NetworkKind::ALL
                .into_iter()
                .map(move |kind| CampaignPoint::Coherent {
                    kind,
                    spec: spec.clone(),
                    seed: 0xFEED,
                })
        })
        .collect()
}

/// The application kernels among the grid's workloads.
const APPS: [&str; 6] = [
    "Radix",
    "Barnes",
    "Blackscholes",
    "Densities",
    "Forces",
    "Swaptions",
];

/// Workload column order of Figures 7, 8 and 10.
fn workload_order(runs: &[CoherentRun]) -> Vec<String> {
    let mut names = Vec::new();
    for r in runs {
        if !names.contains(&r.workload) {
            names.push(r.workload.clone());
        }
    }
    names
}

/// The run of (workload, network) in the grid.
fn find_run<'a>(runs: &'a [CoherentRun], workload: &str, kind: NetworkKind) -> &'a CoherentRun {
    runs.iter()
        .find(|r| r.workload == workload && r.network == kind)
        .expect("grid is complete")
}

/// A table with a `first` column then one column per network.
fn per_network_table(first: &str) -> Table {
    let mut header = vec![first];
    header.extend(NetworkKind::ALL.iter().map(|k| k.name()));
    Table::new(&header)
}

/// **Table 1: Optical Component Properties** (paper §2).
pub fn table1(ctx: &FigureContext) -> Artifact {
    let mut table = Table::new(&["Component", "Energy", "Signal Loss"]);
    for c in Component::ALL {
        let p = c.props();
        let energy = match p.energy {
            EnergyCost::Dynamic(e) => format!("{e} (dynamic)"),
            EnergyCost::Static(e) => format!("{e} (static)"),
            EnergyCost::Standing(p) => format!("{p} (standing)"),
            EnergyCost::Negligible => "negligible".to_string(),
        };
        table.row(&[c.name(), &energy, &p.insertion_loss.to_string()]);
    }
    let text = format!(
        "Table 1: Optical Component Properties\n\n{}\n",
        table.to_text()
    );
    ctx.csv(text, "table1.csv", table.to_csv())
}

/// **Table 4: Simulated Macrochip Configuration** (paper §5).
pub fn table4(ctx: &FigureContext) -> Artifact {
    let c = MacrochipConfig::scaled();
    let mut table = Table::new(&["Parameter", "Value"]);
    table
        .row(&["Number of sites", &c.grid.sites().to_string()])
        .row(&["Shared L2 Cache per site", &format!("{} KB", c.l2_kb)])
        .row(&[
            "Bandwidth per site",
            &format!("{} GB/sec", c.site_bandwidth_bytes_per_ns()),
        ])
        .row(&[
            "Total peak bandwidth",
            &format!("{} TB/sec", c.total_peak_bytes_per_ns() / 1024.0),
        ])
        .row(&["Cores per site", &c.cores_per_site.to_string()])
        .row(&["Threads per core", &c.threads_per_core.to_string()])
        .row(&["FPU per core", "1"]);
    let text = format!(
        "Table 4: Simulated Macrochip Configuration\n\n{}\n",
        table.to_text()
    );
    ctx.csv(text, "table4.csv", table.to_csv())
}

/// **Table 5: Network Optical Power** (paper §6.3), with the paper's
/// published values alongside for comparison.
pub fn table5_power(ctx: &FigureContext) -> Artifact {
    // The paper's rows: (network, loss factor, laser watts).
    const PAPER: [(NetworkId, f64, f64); 7] = [
        (NetworkId::TokenRing, 19.0, 155.0),
        (NetworkId::PointToPoint, 1.0, 8.0),
        (NetworkId::CircuitSwitched, 30.0, 245.0),
        (NetworkId::LimitedPointToPoint, 1.0, 8.0),
        (NetworkId::TwoPhaseData, 5.0, 41.0),
        (NetworkId::TwoPhaseDataAlt, 4.0, 65.5),
        (NetworkId::TwoPhaseArbitration, 8.0, 1.0),
    ];
    let layout = Layout::macrochip();
    let mut table = Table::new(&[
        "Network Type",
        "Loss Factor",
        "Laser Power (W)",
        "Paper Factor",
        "Paper Power (W)",
    ]);
    for (id, paper_factor, paper_watts) in PAPER {
        let row = NetworkPower::for_network(id, &layout);
        table.row_owned(vec![
            id.name().to_string(),
            format!("{}x", fmt(row.loss_factor, 0)),
            fmt(row.laser.watts(), 1),
            format!("{}x", fmt(paper_factor, 0)),
            fmt(paper_watts, 1),
        ]);
    }
    let text = format!(
        "Table 5: Network Optical Power (reproduced vs. paper)\n\n{}\n",
        table.to_text()
    );
    ctx.csv(text, "table5_power.csv", table.to_csv())
}

/// **Table 6: Total Optical Component Counts** (paper §6.4), with the
/// paper's published values alongside.
pub fn table6_counts(ctx: &FigureContext) -> Artifact {
    // The paper's rows: (network, tx, rx, waveguides, switches).
    const PAPER: [(NetworkId, u64, u64, u64, u64); 7] = [
        (NetworkId::TokenRing, 524_288, 8_192, 32_768, 0),
        (NetworkId::PointToPoint, 8_192, 8_192, 3_072, 0),
        (NetworkId::CircuitSwitched, 8_192, 8_192, 2_048, 1_024),
        (NetworkId::LimitedPointToPoint, 8_192, 8_192, 3_072, 128),
        (NetworkId::TwoPhaseData, 8_192, 8_192, 4_096, 16_384),
        (NetworkId::TwoPhaseDataAlt, 16_384, 8_192, 4_096, 15_360),
        (NetworkId::TwoPhaseArbitration, 128, 1_024, 24, 0),
    ];
    let layout = Layout::macrochip();
    let mut table = Table::new(&[
        "Network Type",
        "Tx",
        "Rx",
        "Wgs",
        "Switches",
        "Switch kind",
        "Matches paper",
    ]);
    for (id, tx, rx, wgs, sw) in PAPER {
        let c = ComponentCounts::for_network(id, &layout);
        // The paper's waveguide column reports the token ring's
        // area-equivalent count (32 K), physical elsewhere.
        let wg_reported = if id == NetworkId::TokenRing {
            c.waveguide_area_equivalent
        } else {
            c.waveguides
        };
        let kind = match c.switch_kind {
            SwitchKind::None => "-",
            SwitchKind::Broadband1x2 => "1x2 broadband",
            SwitchKind::Optical4x4 => "4x4 optical",
            SwitchKind::Electronic7x7 => "7x7 electronic router",
        };
        let matches =
            c.transmitters == tx && c.receivers == rx && wg_reported == wgs && c.switches == sw;
        table.row_owned(vec![
            id.name().to_string(),
            c.transmitters.to_string(),
            c.receivers.to_string(),
            wg_reported.to_string(),
            c.switches.to_string(),
            kind.to_string(),
            if matches { "yes" } else { "NO" }.to_string(),
        ]);
    }
    let text = format!(
        "Table 6: Total Optical Component Counts (reproduced; last column checks against \
         paper)\n\n{}\n",
        table.to_text()
    );
    ctx.csv(text, "table6_counts.csv", table.to_csv())
}

/// The paper's §6.1 sustained-bandwidth observations on uniform random.
fn paper_uniform_sustained(kind: NetworkKind) -> Option<f64> {
    match kind {
        NetworkKind::PointToPoint => Some(0.95),
        NetworkKind::TokenRing => Some(0.40),
        NetworkKind::LimitedPointToPoint => Some(0.47),
        NetworkKind::CircuitSwitched => Some(0.025),
        NetworkKind::TwoPhase => Some(0.075),
        NetworkKind::TwoPhaseAlt | NetworkKind::Hierarchical => None,
    }
}

/// **Figure 6: Latency vs. Offered Load for Four Message Patterns**
/// (paper §6.1): five networks × four synthetic patterns, a series of
/// (offered load, mean latency) points each.
///
/// The paper reads the maximum sustainable bandwidth off each curve's
/// vertical asymptote; this artifact prints the measured saturation point
/// next to the paper's observation. The (pattern × network) curves shard
/// across [`FigureContext::jobs`] workers.
pub fn fig6_latency_load(ctx: &FigureContext) -> Artifact {
    let config = MacrochipConfig::scaled();
    let (sim, drain) = if ctx.short { (1, 5) } else { (3, 15) };
    let options = SweepOptions {
        sim: Span::from_us(sim),
        drain: Span::from_us(drain),
        ..SweepOptions::default()
    };

    let mut csv = String::from(
        "pattern,network,offered_pct,mean_latency_ns,p99_latency_ns,\
         delivered_bytes_per_ns_per_site,saturated\n",
    );
    let curves: Vec<(Pattern, NetworkKind)> = Pattern::FIGURE6
        .iter()
        .flat_map(|&pattern| {
            NetworkKind::FIGURE6
                .iter()
                .map(move |&kind| (pattern, kind))
        })
        .collect();
    let measured = run_indexed(&curves, ctx.jobs, |_, &(pattern, kind)| {
        latency_vs_load(kind, pattern, &figure6_loads(pattern), &config, options)
    });

    let mut text = String::new();
    let mut last_pattern = None;
    for (&(pattern, kind), points) in curves.iter().zip(&measured) {
        if last_pattern != Some(pattern) {
            outln!(text, "== {pattern} ==");
            last_pattern = Some(pattern);
        }
        let _ = write!(text, "  {:<24}", kind.name());
        for p in points {
            if p.saturated {
                let _ = write!(text, " {:>5.1}%:SAT", p.offered * 100.0);
            } else {
                let _ = write!(
                    text,
                    " {:>5.1}%:{:<6.1}",
                    p.offered * 100.0,
                    p.mean_latency_ns
                );
            }
            outln!(
                csv,
                "{},{},{},{},{},{},{}",
                pattern.name(),
                kind.name(),
                fmt(p.offered * 100.0, 1),
                fmt(p.mean_latency_ns, 2),
                fmt(p.p99_latency_ns, 2),
                fmt(p.delivered_bytes_per_ns_per_site, 2),
                p.saturated,
            );
        }
        outln!(text);
    }

    outln!(
        text,
        "\nMaximum sustainable bandwidth on Uniform (measured vs. paper):"
    );
    let sustained = run_indexed(&NetworkKind::FIGURE6, ctx.jobs, |_, &kind| {
        sustained_bandwidth(kind, Pattern::Uniform, &config, options, 0.01)
    });
    for (&kind, &measured) in NetworkKind::FIGURE6.iter().zip(&sustained) {
        let paper = paper_uniform_sustained(kind)
            .map(|f| format!("{:.1}%", f * 100.0))
            .unwrap_or_else(|| "-".to_string());
        outln!(
            text,
            "  {:<24} measured {:>5.1}%   paper {}",
            kind.name(),
            measured * 100.0,
            paper
        );
    }
    outln!(text);
    ctx.csv(text, "fig6_latency_load.csv", csv)
}

/// **Figure 7: Speedup for Benchmarks and Synthetic Message Patterns,
/// Normalized to the Circuit-Switched Network** (paper §6.2).
pub fn fig7_speedup(ctx: &FigureContext) -> Artifact {
    let runs = ctx.grid;
    let workloads = workload_order(runs);
    let mut table = per_network_table("Workload");
    for w in &workloads {
        let baseline = find_run(runs, w, NetworkKind::CircuitSwitched);
        let mut row = vec![w.clone()];
        for kind in NetworkKind::ALL {
            row.push(fmt(find_run(runs, w, kind).speedup_over(baseline), 2));
        }
        table.row_owned(row);
    }

    let mut text = format!(
        "Figure 7: Speedup vs. Circuit-Switched network\n\n{}\n",
        table.to_text()
    );
    // Headline check: the abstract claims p2p beats the token ring ~3.3x
    // and the circuit-switched torus ~3.9x overall.
    let gmean = |a: NetworkKind, b: NetworkKind| -> f64 {
        let log_sum: f64 = workloads
            .iter()
            .map(|w| find_run(runs, w, a).speedup_over(find_run(runs, w, b)).ln())
            .sum();
        (log_sum / workloads.len() as f64).exp()
    };
    outln!(
        text,
        "geomean speedup P2P over Token Ring:        {:.2}x (paper: 3.3x)",
        gmean(NetworkKind::PointToPoint, NetworkKind::TokenRing)
    );
    outln!(
        text,
        "geomean speedup P2P over Circuit-Switched:  {:.2}x (paper: 3.9x)",
        gmean(NetworkKind::PointToPoint, NetworkKind::CircuitSwitched)
    );
    outln!(text);
    ctx.csv(text, "fig7_speedup.csv", table.to_csv())
}

/// **Figure 8: Latency per Coherence Operation** (paper §6.2), in
/// nanoseconds, per workload and network.
pub fn fig8_latency(ctx: &FigureContext) -> Artifact {
    let runs = ctx.grid;
    let workloads = workload_order(runs);
    let mut table = per_network_table("Workload");
    for w in &workloads {
        let mut row = vec![w.clone()];
        for kind in NetworkKind::ALL {
            row.push(fmt(find_run(runs, w, kind).mean_op_latency.as_ns_f64(), 1));
        }
        table.row_owned(row);
    }

    let mut text = format!(
        "Figure 8: Latency per Coherence Operation (ns)\n\n{}\n",
        table.to_text()
    );
    // Paper: the p2p network stays below ~54 ns on applications and
    // ~100 ns on synthetics.
    let mut p2p_app_max: f64 = 0.0;
    let mut p2p_synth_max: f64 = 0.0;
    for w in &workloads {
        let lat = find_run(runs, w, NetworkKind::PointToPoint)
            .mean_op_latency
            .as_ns_f64();
        if APPS.contains(&w.as_str()) {
            p2p_app_max = p2p_app_max.max(lat);
        } else {
            p2p_synth_max = p2p_synth_max.max(lat);
        }
    }
    outln!(
        text,
        "P2P max latency on applications: {p2p_app_max:.1} ns (paper: 54 ns)"
    );
    outln!(
        text,
        "P2P max latency on synthetics:   {p2p_synth_max:.1} ns (paper: 100 ns)"
    );
    outln!(text);
    ctx.csv(text, "fig8_latency.csv", table.to_csv())
}

/// **Figure 9: Energy Used by Routers in the Limited Point-to-Point
/// Network as a Percentage of Total** (paper §6.3).
pub fn fig9_router_energy(ctx: &FigureContext) -> Artifact {
    let runs = ctx.grid;
    let model = NetworkEnergyModel::default();
    let mut table = Table::new(&["Workload", "Router energy (%)", "Router J", "Total J"]);
    let mut app_max: f64 = 0.0;
    let mut synth_max: f64 = 0.0;
    for w in &workload_order(runs) {
        let e = model.energy(find_run(runs, w, NetworkKind::LimitedPointToPoint));
        let pct = e.router_fraction() * 100.0;
        if APPS.contains(&w.as_str()) {
            app_max = app_max.max(pct);
        } else {
            synth_max = synth_max.max(pct);
        }
        table.row_owned(vec![
            w.clone(),
            fmt(pct, 1),
            format!("{:.3e}", e.router_j),
            format!("{:.3e}", e.total_j()),
        ]);
    }

    let mut text = format!(
        "Figure 9: Router Energy Share in the Limited Point-to-Point Network\n\n{}\n",
        table.to_text()
    );
    outln!(text, "max on applications: {app_max:.1}% (paper: 10.4%)");
    outln!(text, "max on synthetics:   {synth_max:.1}% (paper: 17%)");
    outln!(text);
    ctx.csv(text, "fig9_router_energy.csv", table.to_csv())
}

/// **Figure 10: Energy-Delay Product, Normalized to the Point-to-Point
/// Network** (paper §6.3, log plot).
pub fn fig10_edp(ctx: &FigureContext) -> Artifact {
    let runs = ctx.grid;
    let model = NetworkEnergyModel::default();
    let mut table = per_network_table("Workload");
    let mut arb_over_100x = 0;
    let mut app_count = 0;
    for w in &workload_order(runs) {
        let p2p_edp = model.edp(find_run(runs, w, NetworkKind::PointToPoint));
        let mut row = vec![w.clone()];
        for kind in NetworkKind::ALL {
            let rel = model.edp(find_run(runs, w, kind)) / p2p_edp;
            if APPS.contains(&w.as_str())
                && matches!(
                    kind,
                    NetworkKind::TokenRing | NetworkKind::CircuitSwitched | NetworkKind::TwoPhase
                )
            {
                app_count += 1;
                if rel > 100.0 {
                    arb_over_100x += 1;
                }
            }
            row.push(fmt(rel, 1));
        }
        table.row_owned(row);
    }

    let mut text = format!(
        "Figure 10: Energy-Delay Product normalized to Point-to-Point\n\n{}\n",
        table.to_text()
    );
    outln!(
        text,
        "arbitrated/circuit-switched EDP >100x p2p on {arb_over_100x}/{app_count} application \
         cells (paper: on all but one application benchmark)"
    );
    outln!(text);
    ctx.csv(text, "fig10_edp.csv", table.to_csv())
}

/// The full 2015-target macrochip of §3, through the analytic models:
/// bandwidth provisioning, component counts, laser budget, and the fiber
/// feed — the numbers the paper quotes in prose.
pub fn macrochip_2015(ctx: &FigureContext) -> Artifact {
    let full = MacrochipConfig::full_2015();
    let layout = Layout::macrochip();

    // Lasers: each laser sources 8 wavelengths, each split 8 ways (§3),
    // so one laser drives 64 wavelength channels.
    let p2p_full = ComponentCounts::for_network_in(NetworkId::PointToPoint, &layout, 16, 16);
    let mut t = Table::new(&["Quantity", "Ours", "Paper §3"]);
    for (quantity, ours, paper) in [
        (
            "Bandwidth into/out of a site",
            format!(
                "{} TB/s",
                fmt(full.site_bandwidth_bytes_per_ns() / 1000.0, 2)
            ),
            "2.56 TB/s",
        ),
        (
            "Total peak aggregate bandwidth",
            format!("{} TB/s", fmt(full.total_peak_bytes_per_ns() / 1000.0, 1)),
            "160 TB/s (rounded)",
        ),
        (
            "Transmitters (receivers) per site",
            full.tx_per_site.to_string(),
            "1024",
        ),
        (
            "Wavelengths per waveguide",
            full.wavelengths_per_waveguide.to_string(),
            "16",
        ),
        (
            "Cores per site (5 GHz, 1 W each)",
            full.cores_per_site.to_string(),
            "64",
        ),
        ("Site power", format!("{} W", full.cores_per_site), "64 W"),
        (
            "Macrochip power",
            format!("{} kW", fmt(full.cores_per_site as f64 * 64.0 / 1000.0, 1)),
            "~4 kW",
        ),
        (
            "Lasers (8 wavelengths x 8-way power sharing)",
            (p2p_full.transmitters / 64).to_string(),
            "1024",
        ),
    ] {
        t.row(&[quantity, &ours, paper]);
    }
    let mut text = format!("The full 2015 macrochip (paper §3)\n\n{}\n", t.to_text());

    outln!(text, "Point-to-point network at full scale (analytic):");
    let scaled = ComponentCounts::for_network(NetworkId::PointToPoint, &layout);
    outln!(
        text,
        "  transmitters {} -> {} (8x the simulated system)",
        scaled.transmitters,
        p2p_full.transmitters
    );
    outln!(
        text,
        "  waveguides   {} -> {}",
        scaled.waveguides,
        p2p_full.waveguides
    );
    let power = NetworkPower::for_network(NetworkId::PointToPoint, &layout);
    let full_laser_w = p2p_full.transmitters as f64 * BASE_LASER_MW * power.loss_factor / 1000.0;
    outln!(
        text,
        "  laser power  {} W -> {} W",
        fmt(power.laser.watts(), 1),
        fmt(full_laser_w, 1)
    );
    outln!(text);
    ctx.csv(text, "macrochip_2015.csv", t.to_csv())
}

/// The sweep window of the ablation studies.
fn ablation_options() -> SweepOptions {
    SweepOptions {
        sim: Span::from_us(2),
        drain: Span::from_us(10),
        max_stalled: 4_000,
        seed: 5,
    }
}

/// One ablation row per variant: the variant's label and the uniform
/// sustained bandwidth of the network `build` makes for it, in % of
/// peak to `digits` places, bisected to `resolution`.
fn sustained_rows<V: Copy>(
    t: &mut Table,
    config: &MacrochipConfig,
    variants: &[(String, V)],
    resolution: f64,
    digits: usize,
    build: fn(MacrochipConfig, V) -> Box<dyn Network>,
) {
    for (label, v) in variants {
        let f = sustained_bandwidth_on(
            || build(MacrochipConfig::scaled(), *v),
            Pattern::Uniform,
            config,
            ablation_options(),
            resolution,
        );
        t.row_owned(vec![label.clone(), fmt(f * 100.0, digits)]);
    }
}

fn labelled<V: Copy + ToString>(values: &[V]) -> Vec<(String, V)> {
    values.iter().map(|&v| (v.to_string(), v)).collect()
}

fn two_phase_trees(config: &MacrochipConfig) -> Table {
    let mut t = Table::new(&["Switch trees per column", "Uniform sustained (% of peak)"]);
    sustained_rows(
        &mut t,
        config,
        &labelled(&[1usize, 2, 3, 4]),
        0.01,
        1,
        |c, trees| Box::new(TwoPhaseNetwork::with_trees(c, trees)),
    );
    t
}

fn token_burst(config: &MacrochipConfig) -> Table {
    let mut t = Table::new(&["Token burst limit", "Uniform sustained (% of peak)"]);
    sustained_rows(
        &mut t,
        config,
        &labelled(&[1usize, 2, 4, 8, 16]),
        0.01,
        1,
        |c, burst| Box::new(TokenRingNetwork::with_burst(c, burst)),
    );
    t
}

fn circuit_gateways(config: &MacrochipConfig) -> Table {
    let mut t = Table::new(&["Gateway circuits", "Uniform sustained (% of peak)"]);
    sustained_rows(
        &mut t,
        config,
        &labelled(&[4usize, 8, 16, 32]),
        0.005,
        2,
        |c, limit| Box::new(CircuitSwitchedNetwork::with_gateway_limit(c, limit)),
    );
    t
}

/// The closed-loop workload of the memory-latency and core-model
/// ablations.
fn ablation_workload() -> WorkloadSpec {
    WorkloadSpec::Synthetic {
        pattern: Pattern::Uniform,
        mix: SharingMix::LessSharing,
        ops_per_core: 25,
    }
}

fn memory_latency(config: &MacrochipConfig) -> Table {
    // The paper's future work: "the performance impacts of different
    // memory technologies". Slower memory hides network differences.
    let spec = ablation_workload();
    let mut t = Table::new(&[
        "Memory latency (ns)",
        "P2P op latency (ns)",
        "Circuit op latency (ns)",
        "P2P advantage",
    ]);
    for mem_ns in [15u64, 30, 60, 120] {
        let eng = EngineConfig {
            mem_latency: Span::from_ns(mem_ns),
            ..EngineConfig::default()
        };
        let p2p = run_coherent_with(NetworkKind::PointToPoint, &spec, config, eng, 3);
        let circ = run_coherent_with(NetworkKind::CircuitSwitched, &spec, config, eng, 3);
        t.row_owned(vec![
            mem_ns.to_string(),
            fmt(p2p.mean_op_latency.as_ns_f64(), 1),
            fmt(circ.mean_op_latency.as_ns_f64(), 1),
            format!(
                "{}x",
                fmt(circ.makespan.as_ns_f64() / p2p.makespan.as_ns_f64(), 2)
            ),
        ]);
    }
    t
}

fn core_model(config: &MacrochipConfig) -> Table {
    let spec = ablation_workload();
    let mut t = Table::new(&["Core model", "Network", "Makespan (us)", "Op latency (ns)"]);
    for (label, blocking) in [("blocking (paper)", true), ("trace-rate + MSHRs", false)] {
        for kind in [NetworkKind::PointToPoint, NetworkKind::CircuitSwitched] {
            let eng = EngineConfig {
                blocking_cores: blocking,
                ..EngineConfig::default()
            };
            let run = run_coherent_with(kind, &spec, config, eng, 3);
            t.row_owned(vec![
                label.to_string(),
                kind.name().to_string(),
                fmt(run.makespan.as_ns_f64() / 1e3, 2),
                fmt(run.mean_op_latency.as_ns_f64(), 1),
            ]);
        }
    }
    t
}

fn circuit_batching(config: &MacrochipConfig) -> Table {
    // DESIGN.md §6: batching several cache lines per circuit amortizes
    // the setup round trip — the fix the paper's §4.5 design lacks.
    let mut t = Table::new(&["Packets per circuit", "Uniform sustained (% of peak)"]);
    sustained_rows(
        &mut t,
        config,
        &labelled(&[1usize, 2, 4, 8]),
        0.005,
        2,
        |c, batch| Box::new(CircuitSwitchedNetwork::with_batching(c, 16, batch)),
    );
    t
}

fn routing_policy(config: &MacrochipConfig) -> Table {
    let mut t = Table::new(&["Forwarding policy", "Uniform sustained (% of peak)"]);
    let policies = [
        ("row-first (paper)".to_string(), RoutingPolicy::RowFirst),
        ("column-first".to_string(), RoutingPolicy::ColumnFirst),
        ("adaptive".to_string(), RoutingPolicy::Adaptive),
    ];
    sustained_rows(&mut t, config, &policies, 0.01, 1, |c, policy| {
        Box::new(LimitedP2pNetwork::with_policy(c, policy))
    });
    t
}

fn token_wdm() -> Table {
    // §4.4: the Corona adaptation reduced the WDM factor from 64 to 2 to
    // bound off-resonance modulator loss. Sweep the factor analytically.
    use photonics::units::Db;
    let mut t = Table::new(&[
        "WDM factor",
        "Ring pass-bys per wavelength",
        "Extra loss (dB)",
        "Laser power factor",
        "Laser power (W)",
    ]);
    for wdm in [2u64, 4, 8, 16, 64] {
        // A wavelength passes every site's modulator bank for its bundle:
        // 64 sites x wdm rings per waveguide.
        let passes = 64 * wdm;
        let loss = Db::new(0.1) * passes as f64;
        let factor = loss.linear_factor();
        let watts = 8_192.0 * factor / 1000.0;
        let show = |v: f64, digits: usize| {
            if v > 1e4 {
                format!("{v:.2e}")
            } else {
                fmt(v, digits)
            }
        };
        t.row_owned(vec![
            wdm.to_string(),
            passes.to_string(),
            fmt(loss.value(), 1),
            format!("{}x", show(factor, 1)),
            show(watts, 1),
        ]);
    }
    t
}

fn grid_scaling() -> Table {
    // Analytic Tables 5/6 scaling with macrochip size.
    let mut t = Table::new(&[
        "Grid",
        "P2P Tx",
        "P2P Wgs",
        "P2P laser (W)",
        "Token laser (W)",
    ]);
    for side in [4usize, 8, 16] {
        let layout = Layout::new(side, 2.5, 0.1);
        let p2p = ComponentCounts::for_network(NetworkId::PointToPoint, &layout);
        let p2p_w = NetworkPower::for_network(NetworkId::PointToPoint, &layout);
        let tok_w = NetworkPower::for_network(NetworkId::TokenRing, &layout);
        t.row_owned(vec![
            format!("{side}x{side}"),
            p2p.transmitters.to_string(),
            p2p.waveguides.to_string(),
            fmt(p2p_w.laser.watts(), 1),
            fmt(tok_w.laser.watts(), 1),
        ]);
    }
    t
}

/// Ablation studies of the design choices DESIGN.md §6 calls out, beyond
/// the paper's own evaluation: two-phase switch trees, token burst limit,
/// circuit gateway concurrency, memory latency, blocking vs. trace-rate
/// cores, circuit batching, limited point-to-point forwarding policy,
/// token-ring WDM factor and grid-size scaling.
pub fn ablations(ctx: &FigureContext) -> Artifact {
    let config = MacrochipConfig::scaled();
    let sections: Vec<(&str, Table)> = vec![
        (
            "Ablation 1: two-phase switch trees per column",
            two_phase_trees(&config),
        ),
        ("Ablation 2: token-ring burst limit", token_burst(&config)),
        (
            "Ablation 3: circuit-switched gateway concurrency",
            circuit_gateways(&config),
        ),
        (
            "Ablation 4: memory latency (paper future work)",
            memory_latency(&config),
        ),
        (
            "Ablation 5: blocking vs trace-rate cores",
            core_model(&config),
        ),
        (
            "Ablation 6: circuit batching (packets per circuit)",
            circuit_batching(&config),
        ),
        (
            "Ablation 7: limited p2p forwarding policy",
            routing_policy(&config),
        ),
        (
            "Ablation 8: token-ring WDM factor (analytic, paper's 64 -> 2 reduction)",
            token_wdm(),
        ),
        ("Ablation 9: grid scaling (analytic)", grid_scaling()),
    ];
    let mut text = String::new();
    let mut csv = String::new();
    for (title, table) in &sections {
        outln!(text, "{title}\n\n{}", table.to_text());
        outln!(csv, "# {title}\n{}", table.to_csv());
    }
    ctx.csv(text, "ablations.csv", csv)
}

fn tuning_table() -> Table {
    let layout = Layout::macrochip();
    let model = TuningModel::silicon();
    let laser = |id| NetworkPower::for_network(id, &layout).laser.watts();
    let tuning = |id, dk| model.network_tuning(id, &layout, dk).watts();
    let mut t = Table::new(&[
        "Avg thermal offset (K)",
        "P2P tuning (W)",
        "Token-Ring tuning (W)",
        "P2P laser (W)",
        "Token laser (W)",
    ]);
    for dk in [0.5, 1.0, 2.0, 5.0, 10.0] {
        t.row_owned(vec![
            fmt(dk, 1),
            fmt(tuning(NetworkId::PointToPoint, dk), 2),
            fmt(tuning(NetworkId::TokenRing, dk), 1),
            fmt(laser(NetworkId::PointToPoint), 1),
            fmt(laser(NetworkId::TokenRing), 1),
        ]);
    }
    t
}

fn crosstalk_table() -> Table {
    let mut t = Table::new(&[
        "Crossings",
        "Insertion loss (optimized)",
        "Crosstalk penalty",
        "Total penalty",
    ]);
    let m = CrossingModel::bogaerts_optimized();
    for crossings in [1u32, 4, 8, 16, 32, 64] {
        let loss = m.path_loss(crossings);
        let (xt, total) = match (m.power_penalty(crossings), m.total_penalty(crossings)) {
            (Some(p), Some(tp)) => (p.to_string(), tp.to_string()),
            _ => ("eye closed".to_string(), "eye closed".to_string()),
        };
        t.row_owned(vec![crossings.to_string(), loss.to_string(), xt, total]);
    }
    t
}

/// Sensitivity studies on the paper's photonic assumptions: ring tuning
/// power against thermal spread (the paper budgets 0.1 mW per ring, §2,
/// which holds a ring against ~1 K), and the waveguide-crossing penalties
/// that the measured figures of the paper's own reference \[7\] imply for
/// the circuit-switched torus (§4.5 assumes crossings are free).
pub fn sensitivity(ctx: &FigureContext) -> Artifact {
    let layout = Layout::macrochip();
    let model = TuningModel::silicon();
    let tuning = tuning_table();
    let crosstalk = crosstalk_table();

    let mut text = format!(
        "Sensitivity 1: ring tuning power vs. thermal spread (paper budgets 0.1 mW/ring \
         = 1 K)\n\n{}\n",
        tuning.to_text()
    );
    for id in [NetworkId::PointToPoint, NetworkId::TokenRing] {
        outln!(
            text,
            "  {}: tuning power equals laser power at a {:.1} K average offset",
            id.name(),
            model.break_even_kelvin(id, &layout)
        );
    }
    outln!(
        text,
        "\nSensitivity 2: waveguide-crossing penalties (the paper's §4.5 'negligible' \
         assumption)\n\n{}",
        crosstalk.to_text()
    );
    let worst = torus_worst_case_crossings(8, 64);
    outln!(
        text,
        "  a worst-case adapted-torus path crossing every waveguide bundle would see \
         {worst} crossings ({} of loss) — the two-layer substrate exists precisely \
         to avoid this.",
        CrossingModel::bogaerts_optimized().path_loss(worst)
    );
    outln!(text, "\nwrote {}/sensitivity_*.csv", ctx.out.display());
    Artifact {
        text,
        files: vec![
            ("sensitivity_tuning.csv".into(), tuning.to_csv()),
            ("sensitivity_crosstalk.csv".into(), crosstalk.to_csv()),
        ],
    }
}

/// The paper's §8 future work, realized: message-passing collectives over
/// all six network architectures.
///
/// Bulk-synchronous collectives chain dependent communication steps, so
/// per-message overheads (token reacquisition, circuit setup, arbitration
/// pipelines) compound at every barrier — a different stress than the
/// cache-coherence traffic of the paper's own evaluation.
pub fn future_message_passing(ctx: &FigureContext) -> Artifact {
    let config = MacrochipConfig::scaled();
    let message_bytes = 1024; // 1 KB per transfer, 16 cache-line packets
    let rounds = 2;
    let mut table = per_network_table("Collective");
    for collective in Collective::ALL {
        let mut row = vec![collective.name().to_string()];
        for kind in NetworkKind::ALL {
            let mut net = networks::build(kind, config);
            let mut workload =
                MessagePassingWorkload::new(&config.grid, collective, message_bytes, rounds);
            let outcome = drive(
                net.as_mut(),
                &mut workload,
                DriveLimits {
                    deadline: Time::from_us(100_000),
                    max_stalled: usize::MAX,
                },
            );
            assert!(
                !outcome.timed_out,
                "{kind} timed out on {}",
                collective.name()
            );
            let us = workload
                .finished_at()
                .expect("collective completes")
                .as_us_f64();
            row.push(format!("{} us", fmt(us, 2)));
        }
        table.row_owned(row);
    }

    let mut text = format!(
        "Future work (paper §8): message-passing collectives, {message_bytes} B per \
         transfer, {rounds} rounds\n\n{}\n",
        table.to_text()
    );
    outln!(
        text,
        "Dependent steps compound per-message overheads: the circuit-switched torus \
         pays its setup round trip at every step, the token ring a reacquisition lap."
    );
    outln!(text);
    ctx.csv(text, "future_message_passing.csv", table.to_csv())
}

/// Wraps a packet source, accumulating wait/wire statistics from the
/// delivered packets.
struct Breakdown<S> {
    inner: S,
    wait: desim::stats::Mean,
    wire: desim::stats::Mean,
}

impl<S: PacketSource> PacketSource for Breakdown<S> {
    fn next_emission(&self) -> Option<Time> {
        self.inner.next_emission()
    }
    fn emit_due(&mut self, now: Time, out: &mut Vec<Packet>) {
        self.inner.emit_due(now, out)
    }
    fn on_delivered(&mut self, packet: &Packet, now: Time) {
        if packet.src != packet.dst {
            if let (Some(w), Some(x)) = (packet.wait_time(), packet.wire_time()) {
                self.wait.record(w.as_ns_f64());
                self.wire.record(x.as_ns_f64());
            }
        }
        self.inner.on_delivered(packet, now)
    }
    fn is_exhausted(&self) -> bool {
        self.inner.is_exhausted()
    }
}

/// Where does the latency go? Splits each network's mean packet latency
/// into *wait* (queueing, arbitration, token wait, path setup — set by
/// the network when the final transmission begins) and *wire*
/// (serialization + time of flight).
///
/// This makes the paper's §6.1 argument quantitative: the five networks
/// have similar wire times, and the entire difference is overhead before
/// the first bit moves.
pub fn latency_breakdown(ctx: &FigureContext) -> Artifact {
    let config = MacrochipConfig::scaled();
    let load = 0.05; // a light uniform load: overheads, not congestion
    let mut table = Table::new(&["Network", "Mean wait (ns)", "Mean wire (ns)", "Wait share"]);
    for kind in NetworkKind::ALL {
        let mut net = networks::build(kind, config);
        let inner = OpenLoopTraffic::new(&config.grid, Pattern::Uniform, load, 320.0, 64, 99);
        let mut src = Breakdown {
            inner,
            wait: desim::stats::Mean::new(),
            wire: desim::stats::Mean::new(),
        };
        src.inner.set_horizon(Time::from_us(2));
        drive(net.as_mut(), &mut src, DriveLimits::default());
        let wait = src.wait.mean();
        let wire = src.wire.mean();
        table.row_owned(vec![
            kind.name().to_string(),
            fmt(wait, 1),
            fmt(wire, 1),
            format!("{}%", fmt(100.0 * wait / (wait + wire), 0)),
        ]);
    }

    let mut text = format!(
        "Latency breakdown at 5% uniform load (wait = arbitration/setup/queueing)\n\n{}\n",
        table.to_text()
    );
    outln!(
        text,
        "Wire times differ only by channel width; the architectures are separated \
         almost entirely by what happens before the first bit moves (§6.1)."
    );
    outln!(text);
    ctx.csv(text, "latency_breakdown.csv", table.to_csv())
}

/// Drives `kind` with the fairness study's 3 us of 5 % uniform traffic.
fn fairness_run(kind: NetworkKind, config: MacrochipConfig) -> Box<dyn Network> {
    let mut net = networks::build(kind, config);
    let mut traffic = OpenLoopTraffic::new(&config.grid, Pattern::Uniform, 0.05, 320.0, 64, 123);
    traffic.set_horizon(Time::from_us(3));
    drive(net.as_mut(), &mut traffic, DriveLimits::default());
    net
}

/// Fairness analysis (beyond the paper): do all sites see the same
/// latency? Jain's fairness index over per-source mean latencies, per
/// network, on uniform traffic.
///
/// The token ring's serpentine geometry and the limited point-to-point's
/// forwarding asymmetry are the interesting cases; the point-to-point
/// network's dedicated channels should be nearly perfectly fair.
pub fn fairness(ctx: &FigureContext) -> Artifact {
    let config = MacrochipConfig::scaled();
    let mut table = Table::new(&[
        "Network",
        "Jain index",
        "Sources",
        "Best site mean (ns)",
        "Worst site mean (ns)",
    ]);
    for kind in NetworkKind::ALL {
        let net = fairness_run(kind, config);
        let stats = net.stats();
        let per: Vec<f64> = stats
            .per_source_mean_latency_ns()
            .into_iter()
            .filter(|&x| x > 0.0)
            .collect();
        let best = per.iter().copied().fold(f64::INFINITY, f64::min);
        let worst = per.iter().copied().fold(0.0, f64::max);
        table.row_owned(vec![
            kind.name().to_string(),
            fmt(stats.jain_fairness(), 4),
            format!("{}/{}", stats.participating_sources(), config.grid.sites()),
            fmt(best, 1),
            fmt(worst, 1),
        ]);
    }

    let mut text = format!(
        "Per-source fairness at 5% uniform load\n\n{}\n",
        table.to_text()
    );
    // Spatial view of the least-fair architecture.
    let net = fairness_run(NetworkKind::CircuitSwitched, config);
    let mut per = net.stats().per_source_mean_latency_ns();
    per.resize(config.grid.sites(), 0.0);
    outln!(
        text,
        "Circuit-switched per-source mean latency across the 8x8 grid:\n\n{}",
        heatmap(config.grid.side(), &per)
    );
    outln!(
        text,
        "The point-to-point network is nearly perfectly fair (dedicated channels); \
         position-dependent token travel and forwarding asymmetry show up as spread."
    );
    outln!(text);
    ctx.csv(text, "fairness.csv", table.to_csv())
}

/// Degraded-mode throughput: how each of the five Figure 6 networks holds
/// up as the transient link-fault rate climbs.
///
/// Drives every network with uniform-random traffic at a light load while
/// sweeping the per-packet transient corruption rate (plus a pair of
/// seeded random link kills with auto-repair at the non-zero rates), and
/// reports goodput, availability, retries and time-in-degraded-mode per
/// point. The zero-fault column doubles as the baseline: the resilience
/// wrapper is a pure pass-through there, so its numbers match an
/// unwrapped run exactly. The (network × fault-rate) cells shard across
/// [`FigureContext::jobs`] workers.
pub fn degradation(ctx: &FigureContext) -> Artifact {
    // Transient per-packet corruption rates swept (0 = fault-free).
    const FAULT_RATES: [f64; 4] = [0.0, 0.001, 0.01, 0.05];
    // Offered load, as a fraction of the 320 B/ns per-site peak. Light
    // enough that every architecture (including the circuit-switched
    // torus, sustainable only to ~2.5% on uniform traffic) holds it
    // fault-free, so the degradation in the table is the faults'.
    const LOAD: f64 = 0.02;
    const SEED: u64 = 0xFA_0175;

    let config = MacrochipConfig::scaled();
    let sim = Span::from_us(if ctx.short { 1 } else { 5 });
    let drain = Span::from_us(20);
    let horizon = Time::ZERO + sim;
    let mut table = Table::new(&[
        "Network",
        "Fault rate",
        "Goodput (B/ns/site)",
        "Availability",
        "Retries",
        "Dropped",
        "Degraded (us)",
        "Fairness",
        "Sources",
    ]);
    let cells: Vec<(NetworkKind, f64)> = NetworkKind::FIGURE6
        .iter()
        .flat_map(|&kind| FAULT_RATES.iter().map(move |&rate| (kind, rate)))
        .collect();
    let rows = run_indexed(&cells, ctx.jobs, |_, &(kind, rate)| {
        let plan = if rate == 0.0 {
            FaultPlan::none()
        } else {
            FaultPlan::parse(&format!("transient={rate}; rand-links=2; repair=10us"))
                .expect("static spec parses")
        };
        let mut net = ResilientNetwork::new(networks::build(kind, config), &plan, SEED, horizon);
        let peak = config.site_bandwidth_bytes_per_ns();
        let mut traffic = OpenLoopTraffic::new(
            &config.grid,
            Pattern::Uniform,
            LOAD,
            peak,
            config.data_bytes,
            SEED,
        );
        traffic.set_horizon(horizon);
        let outcome = drive(
            &mut net,
            &mut traffic,
            DriveLimits {
                deadline: horizon + drain,
                max_stalled: 5_000,
            },
        );
        let s = net.fault_stats();
        // Goodput over the delivery window: retry tails extend it, the
        // trailing repair events of the fault schedule do not.
        let window = net
            .stats()
            .last_delivery()
            .unwrap_or(outcome.end)
            .as_ns_f64()
            .max(sim.as_ns_f64());
        let goodput = s.clean_bytes as f64 / window / config.grid.sites() as f64;
        // Jain's index only covers sources that delivered at least one
        // packet, so a fault plan that silences a site can *raise*
        // fairness; the participating-source count shows that shrinkage.
        vec![
            kind.name().to_string(),
            fmt(rate, 3),
            fmt(goodput, 3),
            fmt(net.availability(), 4),
            s.retries.to_string(),
            net.lost_packets().to_string(),
            fmt(s.time_degraded(outcome.end).as_ns_f64() / 1e3, 2),
            fmt(net.stats().jain_fairness(), 4),
            format!(
                "{}/{}",
                net.stats().participating_sources(),
                config.grid.sites()
            ),
        ]
    });
    for row in rows {
        table.row_owned(row);
    }
    let text = format!(
        "Degraded-mode throughput: uniform load at {:.0}% of peak, \
         transient fault-rate sweep\n\n{}\n",
        LOAD * 100.0,
        table.to_text()
    );
    Artifact {
        text,
        files: Vec::new(),
    }
}
