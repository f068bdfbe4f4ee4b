//! Regenerates **Figure 6: Latency vs. Offered Load for Four Message
//! Patterns** (paper §6.1): five networks × four synthetic patterns, a
//! series of (offered load, mean latency) points each.
//!
//! The paper reads the maximum sustainable bandwidth off each curve's
//! vertical asymptote; this binary prints the measured saturation point
//! next to the paper's observation.
//!
//! Environment: `MACROCHIP_FAST=1` shrinks the simulation window;
//! `--jobs <N>` shards the (pattern × network) curves across N workers —
//! the printed curves and the CSV are byte-identical to a serial run.

use desim::Span;
use macrochip::campaign::run_indexed;
use macrochip::prelude::*;
use macrochip::report::fmt;
use macrochip::sweep::{figure6_loads, latency_vs_load, sustained_bandwidth};
use std::fmt::Write as _;

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

fn main() {
    let config = MacrochipConfig::scaled();
    let options = if macrochip_bench::fast_mode() {
        SweepOptions {
            sim: Span::from_us(1),
            drain: Span::from_us(5),
            ..SweepOptions::default()
        }
    } else {
        SweepOptions {
            sim: Span::from_us(3),
            drain: Span::from_us(15),
            ..SweepOptions::default()
        }
    };

    let mut csv = String::from("pattern,network,offered_pct,mean_latency_ns,p99_latency_ns,delivered_bytes_per_ns_per_site,saturated\n");

    // One curve per (pattern, network): shard the curves across workers,
    // then print and serialize them in figure order.
    let curves: Vec<(Pattern, NetworkKind)> = Pattern::FIGURE6
        .iter()
        .flat_map(|&pattern| {
            NetworkKind::FIGURE6
                .iter()
                .map(move |&kind| (pattern, kind))
        })
        .collect();
    let jobs = macrochip_bench::CampaignArgs::detect().jobs;
    let measured = run_indexed(&curves, jobs, |_, &(pattern, kind)| {
        latency_vs_load(kind, pattern, &figure6_loads(pattern), &config, options)
    });

    let mut last_pattern = None;
    for (&(pattern, kind), points) in curves.iter().zip(&measured) {
        if last_pattern != Some(pattern) {
            println!("== {pattern} ==");
            last_pattern = Some(pattern);
        }
        {
            print!("  {:<24}", kind.name());
            for p in points {
                if p.saturated {
                    print!(" {:>5.1}%:SAT", p.offered * 100.0);
                } else {
                    print!(" {:>5.1}%:{:<6.1}", p.offered * 100.0, p.mean_latency_ns);
                }
                let _ = writeln!(
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
            println!();
        }
    }

    println!("\nMaximum sustainable bandwidth on Uniform (measured vs. paper):");
    let sustained = run_indexed(&NetworkKind::FIGURE6, jobs, |_, &kind| {
        sustained_bandwidth(kind, Pattern::Uniform, &config, options, 0.01)
    });
    for (&kind, &measured) in NetworkKind::FIGURE6.iter().zip(&sustained) {
        let paper = paper_uniform_sustained(kind)
            .map(|f| format!("{:.1}%", f * 100.0))
            .unwrap_or_else(|| "-".to_string());
        println!(
            "  {:<24} measured {:>5.1}%   paper {}",
            kind.name(),
            measured * 100.0,
            paper
        );
    }

    let path = macrochip_bench::results_dir().join("fig6_latency_load.csv");
    std::fs::write(&path, csv).expect("write fig6 csv");
    println!("\nwrote {}", path.display());
}
