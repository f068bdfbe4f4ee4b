//! `perfbench` — the macrochip simulator's benchmark.
//!
//! Times three workloads end to end with tracing off, checks their
//! simulated outputs, and in a separate traced run times the calls into
//! each layer (`workloads`, `runner`, `networks`, `coherence`, `campaign`)
//! from outside, through the simulator's public APIs only. See README.md.

mod coherent;
mod gauge;
mod openloop;
mod recorded;
mod report;
mod stats;
mod timing;

use desim::Span;
use macrochip::campaign::run_indexed;
use macrochip::names::network_code;
use macrochip::sweep::{run_load_point_on, SweepOptions};
use netcore::NetworkKind;
use openloop::{flat_config, Geometry, Round};
use recorded::{source_path, Calibration, Digests, Loads, RECORDED_SEEDS};
use std::process::ExitCode;
use std::time::Instant;
use workloads::Pattern;

const USAGE: &str = "usage:
  perfbench run --workload <chip16_open|board2x2_open|coherent_campaign>
                --seed <n> --seconds <s> --trace <0|1>
  perfbench calibrate   bisect every network's sustained load, rewrite loads.txt
  perfbench record      record output digests for the recorded seeds, rewrite digests.txt";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("calibrate") => calibrate(),
        Some("record") => record(),
        _ => Err("missing or unknown command".to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Peak resident set of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    desim::prof::peak_rss_bytes() as f64 / (1024.0 * 1024.0)
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    let at = args
        .iter()
        .position(|a| a == name)
        .ok_or(format!("missing {name}"))?;
    args.get(at + 1)
        .map(String::as_str)
        .ok_or(format!("{name} needs a value"))
}

fn run(args: &[String]) -> Result<(), String> {
    let workload = flag(args, "--workload")?;
    let seed: u64 = flag(args, "--seed")?.parse().map_err(|_| "bad --seed")?;
    let seconds: f64 = flag(args, "--seconds")?
        .parse()
        .ok()
        .filter(|s: &f64| *s > 0.0 && s.is_finite())
        .ok_or("bad --seconds")?;
    let traced = match flag(args, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("bad --trace {other:?}")),
    };
    let outcome = match workload {
        "chip16_open" => openloop::run(Geometry::Chip16, seed, seconds, traced),
        "board2x2_open" => openloop::run(Geometry::Board2x2, seed, seconds, traced),
        "coherent_campaign" => coherent::run(seed, seconds, traced),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    print!("{}", outcome.table());
    println!(
        "{workload} seed {seed}: {} of {} entries failed (failed_frac {})",
        outcome.failed,
        outcome.attempted,
        outcome.failed_frac()
    );
    println!("{}", outcome.to_json());
    Ok(())
}

/// The lowest load calibration probes, a fraction of the per-site peak.
const FLOOR: f64 = 1.0 / 16384.0;

/// Calibrates every network on both geometries, two at a time.
fn calibrate() -> Result<(), String> {
    let pairs: Vec<(Geometry, NetworkKind)> = Geometry::ALL
        .into_iter()
        .flat_map(|g| NetworkKind::ALL.map(|k| (g, k)))
        .collect();
    let mut loads = Loads::default();
    for (&(geometry, kind), calibration) in
        pairs
            .iter()
            .zip(run_indexed(&pairs, 2, |_, &(g, k)| calibrate_one(g, k)))
    {
        loads.insert(geometry.name(), kind, calibration?);
    }
    let path = source_path("loads.txt");
    std::fs::write(&path, loads.render()).map_err(|e| format!("writing {}: {e}", path.display()))
}

/// Finds the sustained uniform bandwidth of `kind` on `geometry`: doubles
/// the offered load from [`FLOOR`] until a load point saturates, then
/// bisects between the last sustained and the first saturated load to
/// 1/16 of the latter.
///
/// `macrochip::sweep::sustained_bandwidth_on` is not used because it
/// probes full load first: at side 16 the two-phase networks buffer
/// millions of packets before they refuse one, and that one probe runs for
/// many minutes in over a gigabyte. Doubling never offers more than twice
/// the sustained load. Each probe is a `run_load_point_on` over the
/// sweep's 5 µs window, or over the window the benchmark runs at half the
/// probed load where that is longer, because at loads under about 0.1 % a
/// 5 µs window offers too few packets to reach the stall bound. The drain
/// is 5 µs rather than the sweep's 20 µs: an overloaded probe runs until
/// its deadline, and a shorter drain can only lower the estimate.
fn calibrate_one(geometry: Geometry, kind: NetworkKind) -> Result<Calibration, String> {
    let started = Instant::now();
    let fabric = geometry.fabric();
    let config = flat_config(&fabric);
    let saturated = |load: f64| {
        let window = openloop::Entry::new("calibrate", "half", kind, load / 2.0, &config).sim;
        let defaults = SweepOptions::default();
        let options = SweepOptions {
            sim: window.max(defaults.sim),
            drain: Span::from_us(5),
            seed: RECORDED_SEEDS[0],
            ..defaults
        };
        let net = networks::build_fabric(kind, &fabric);
        let probe = Instant::now();
        let saturated = run_load_point_on(net, Pattern::Uniform, load, &config, options).saturated;
        eprintln!(
            "  {} {} at {load:.6}: saturated {saturated} ({:.1} s)",
            geometry.name(),
            network_code(kind),
            probe.elapsed().as_secs_f64()
        );
        saturated
    };
    let (mut lo, mut hi) = (0.0, FLOOR);
    while !saturated(hi) {
        lo = hi;
        if hi >= 1.0 {
            break;
        }
        hi = (2.0 * hi).min(1.0);
    }
    while hi - lo > hi / 16.0 {
        let mid = 0.5 * (lo + hi);
        if saturated(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    if lo <= 0.0 {
        return Err(format!(
            "{} sustains no load on {}",
            network_code(kind),
            geometry.name()
        ));
    }
    let sustained = lo;
    eprintln!(
        "{} {}: sustained {sustained:.6} ({:.1} s)",
        geometry.name(),
        network_code(kind),
        started.elapsed().as_secs_f64()
    );
    Ok(Calibration {
        sustained,
        load: sustained / 2.0,
    })
}

/// Records the digest of every entry for each recorded seed.
fn record() -> Result<(), String> {
    let loads = Loads::checked_in()?;
    let mut digests = Digests::default();
    for seed in RECORDED_SEEDS {
        for geometry in Geometry::ALL {
            let entries = openloop::entries(geometry, &loads)?;
            let round = Round::run(&geometry.fabric(), &entries, seed, false, None);
            for (entry, run) in entries.iter().zip(&round.runs) {
                if let Some(problem) = run.out.problem() {
                    return Err(format!("{} (seed {seed}): {problem}", entry.id));
                }
                eprintln!(
                    "seed {seed} {}: {} events, {} packets in {:.3} s",
                    entry.id,
                    run.out.events,
                    run.out.delivered,
                    run.wall.as_secs_f64()
                );
                digests.insert(seed, &entry.id, run.out.digest());
            }
        }
        for (id, run) in coherent::cold_pass(seed)? {
            digests.insert(seed, &id, coherent::run_digest(&run));
        }
    }
    let path = source_path("digests.txt");
    std::fs::write(&path, digests.render()).map_err(|e| format!("writing {}: {e}", path.display()))
}
