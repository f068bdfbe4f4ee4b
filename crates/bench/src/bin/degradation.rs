//! Degraded-mode throughput: how each of the five networks holds up as
//! the transient link-fault rate climbs.
//!
//! Drives every Figure-6 network with uniform-random traffic at a light
//! load while sweeping the per-packet transient corruption rate (plus a
//! pair of seeded random link kills with auto-repair at the non-zero
//! rates), and reports goodput, availability, retries and
//! time-in-degraded-mode per point. The zero-fault column doubles as the
//! baseline: the resilience wrapper is a pure pass-through there, so its
//! numbers match an unwrapped run exactly (enforced by the regression
//! test in `tests/`).
//!
//! ```text
//! cargo run --release -p macrochip-bench --bin degradation
//! ```
//!
//! Set `MACROCHIP_FAST=1` for a shorter traffic window; `--jobs <N>`
//! shards the (network × fault-rate) grid across N workers without
//! changing the table.

use desim::{Span, Time};
use faults::{FaultPlan, ResilientNetwork};
use macrochip::campaign::run_indexed;
use macrochip::report::{fmt, Table};
use macrochip::runner::{drive, DriveLimits};
use netcore::{MacrochipConfig, Network, NetworkKind};
use workloads::{OpenLoopTraffic, Pattern};

/// Transient per-packet corruption rates swept (0 = fault-free baseline).
const FAULT_RATES: [f64; 4] = [0.0, 0.001, 0.01, 0.05];

/// Offered load, as a fraction of the 320 B/ns per-site peak. Light
/// enough that every architecture (including the circuit-switched torus,
/// sustainable only to ~2.5% on uniform traffic) holds it fault-free, so
/// the degradation visible in the table is attributable to the faults.
const LOAD: f64 = 0.02;

const SEED: u64 = 0xFA_0175;

fn plan_for(rate: f64) -> FaultPlan {
    if rate == 0.0 {
        return FaultPlan::none();
    }
    FaultPlan::parse(&format!("transient={rate}; rand-links=2; repair=10us"))
        .expect("static spec parses")
}

fn main() {
    let config = MacrochipConfig::scaled();
    let sim = if macrochip_bench::fast_mode() {
        Span::from_us(1)
    } else {
        Span::from_us(5)
    };
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
    // Each (network, fault-rate) cell is an independent simulation with
    // its own wrapper, RNG and traffic source; shard the grid and merge
    // the rows back in table order.
    let cells: Vec<(NetworkKind, f64)> = NetworkKind::FIGURE6
        .iter()
        .flat_map(|&kind| FAULT_RATES.iter().map(move |&rate| (kind, rate)))
        .collect();
    let rows = run_indexed(
        &cells,
        macrochip_bench::CampaignArgs::detect().jobs,
        |_, &(kind, rate)| {
            let plan = plan_for(rate);
            let mut net =
                ResilientNetwork::new(networks::build(kind, config), &plan, SEED, horizon);
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
            // fairness. Reporting the participating-source count alongside
            // makes that shrinkage visible instead of silent.
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
        },
    );
    for row in rows {
        table.row_owned(row);
    }
    println!(
        "Degraded-mode throughput: uniform load at {:.0}% of peak, \
         transient fault-rate sweep\n",
        LOAD * 100.0
    );
    println!("{}", table.to_text());
}
