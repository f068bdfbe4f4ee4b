//! The open-loop workloads, `chip16_open` and `board2x2_open`: uniform
//! Poisson traffic from `workloads::OpenLoopTraffic` driven through
//! `macrochip::runner::drive` into every network kind.

use crate::gauge::{self, Gauge};
use crate::recorded::{digest, Digests, Loads};
use crate::report::{CampaignLayers, Outcome};
use crate::stats::median;
use crate::timing::{DriveTimes, SourceTimes, TimedNetwork, TimedSource};
use desim::{Span, Time};
use macrochip::names::network_code;
use macrochip::runner::{drive, DriveLimits};
use netcore::{FabricConfig, MacrochipConfig, Network, NetworkKind};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use workloads::{OpenLoopTraffic, Pattern};

/// Packets each entry is sized to deliver, so that no single network
/// dominates a round's host time.
pub const PACKETS_PER_ENTRY: f64 = 40_000.0;

/// Drain allowance after the traffic window (the sweep default).
const DRAIN: Span = Span::from_us(20);

/// Stalled packets that declare saturation (the sweep default).
const MAX_STALLED: usize = 5_000;

/// Rounds every run makes, however short its time budget.
const MIN_ROUNDS: usize = 3;

/// The two open-loop site arrangements, both 256 sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Geometry {
    /// One 16×16 macrochip.
    Chip16,
    /// A 2×2 board of 8×8 macrochips.
    Board2x2,
}

impl Geometry {
    pub const ALL: [Geometry; 2] = [Geometry::Chip16, Geometry::Board2x2];

    pub fn name(self) -> &'static str {
        match self {
            Geometry::Chip16 => "chip16",
            Geometry::Board2x2 => "board2x2",
        }
    }

    pub fn fabric(self) -> FabricConfig {
        match self {
            Geometry::Chip16 => FabricConfig::single(MacrochipConfig::with_side(16)),
            Geometry::Board2x2 => FabricConfig::grid(2, MacrochipConfig::with_side(8)),
        }
    }
}

/// The flat configuration traffic addresses on `fabric`.
pub fn flat_config(fabric: &FabricConfig) -> MacrochipConfig {
    if fabric.is_single() {
        fabric.chip
    } else {
        fabric.global_config()
    }
}

/// One open-loop run: a network at an offered load over a window sized
/// to deliver about [`PACKETS_PER_ENTRY`] packets.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    pub id: String,
    pub kind: NetworkKind,
    /// Offered load, fraction of the per-site peak.
    pub load: f64,
    /// Traffic-generation window.
    pub sim: Span,
}

impl Entry {
    pub fn new(
        workload: &str,
        label: &str,
        kind: NetworkKind,
        load: f64,
        config: &MacrochipConfig,
    ) -> Entry {
        let packets_per_ns =
            config.grid.sites() as f64 * load * config.site_bandwidth_bytes_per_ns()
                / f64::from(config.data_bytes);
        Entry {
            id: format!("{workload}/{}@{label}", network_code(kind)),
            kind,
            load,
            sim: Span::from_ns_f64(PACKETS_PER_ENTRY / packets_per_ns),
        }
    }
}

/// The entries of an open-loop workload, in run order.
///
/// `chip16_open` runs every network twice: at its `board2x2_open` load (an
/// equal-load reference for the board) and at half its own sustained
/// bandwidth. `board2x2_open` runs every network at half its board
/// sustained bandwidth.
pub fn entries(geometry: Geometry, loads: &Loads) -> Result<Vec<Entry>, String> {
    let config = flat_config(&geometry.fabric());
    let workload = format!("{}_open", geometry.name());
    let mut out = Vec::new();
    for kind in NetworkKind::ALL {
        let board = loads.load(Geometry::Board2x2.name(), kind)?;
        out.push(Entry::new(&workload, "board-load", kind, board, &config));
        if geometry == Geometry::Chip16 {
            let own = loads.load(geometry.name(), kind)?;
            out.push(Entry::new(&workload, "half-sustained", kind, own, &config));
        }
    }
    Ok(out)
}

/// The deterministic outputs of one entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EntryOutput {
    pub events: u64,
    pub emitted: u64,
    pub injected: u64,
    pub delivered: u64,
    pub mean_latency_ps: u64,
    pub p99_latency_ps: u64,
    pub saturated: bool,
    pub timed_out: bool,
}

impl EntryOutput {
    fn read(
        net: &dyn Network,
        traffic: &OpenLoopTraffic,
        saturated: bool,
        timed_out: bool,
    ) -> EntryOutput {
        let stats = net.stats();
        EntryOutput {
            events: net.events_processed(),
            emitted: traffic.emitted(),
            injected: stats.injected_packets(),
            delivered: stats.delivered_packets(),
            mean_latency_ps: stats.mean_latency().as_ps(),
            p99_latency_ps: stats.latency().percentile(0.99).as_ps(),
            saturated,
            timed_out,
        }
    }

    /// Digest of the events, the injected and delivered counts and the
    /// mean and p99 latency.
    pub fn digest(&self) -> u64 {
        digest(&[
            self.events,
            self.injected,
            self.delivered,
            self.mean_latency_ps,
            self.p99_latency_ps,
        ])
    }

    /// Why this output fails the entry, if it does: it saturated, timed
    /// out, or delivered fewer packets than were emitted.
    pub fn problem(&self) -> Option<String> {
        if self.saturated {
            Some("saturated".into())
        } else if self.timed_out {
            Some("timed out".into())
        } else if self.delivered < self.emitted {
            Some(format!(
                "delivered {} of {} packets",
                self.delivered, self.emitted
            ))
        } else {
            None
        }
    }
}

/// One timed execution of an entry.
#[derive(Debug, Clone)]
pub struct EntryRun {
    /// Host time building the network and the traffic generator.
    pub setup: Duration,
    /// Host time inside `drive`.
    pub wall: Duration,
    pub out: EntryOutput,
    /// The wrappers' measurements, for a traced run.
    pub layers: Option<DriveTimes>,
    /// The mean of the gauge ticks just before and just after the entry,
    /// for a gauged round.
    pub tick_s: Option<f64>,
}

impl EntryRun {
    /// `host` scaled to the nominal host speed by the entry's ticks.
    fn scaled(&self, host: Duration) -> f64 {
        gauge::scaled(
            host.as_secs_f64(),
            self.tick_s.expect("a gauged round"),
        )
    }
}

/// Builds and drives `entry` on `fabric` with traffic seeded by `seed`;
/// `traced` wraps the network and the source in timing wrappers.
pub fn run_entry(fabric: &FabricConfig, entry: &Entry, seed: u64, traced: bool) -> EntryRun {
    let started = Instant::now();
    let config = flat_config(fabric);
    let net = networks::build_fabric(entry.kind, fabric);
    let mut traffic = OpenLoopTraffic::new(
        &config.grid,
        Pattern::Uniform,
        entry.load,
        config.site_bandwidth_bytes_per_ns(),
        config.data_bytes,
        seed,
    );
    traffic.set_horizon(Time::ZERO + entry.sim);
    let limits = DriveLimits::for_window(entry.sim, DRAIN, MAX_STALLED);
    let setup = started.elapsed();
    if traced {
        let mut net = TimedNetwork::new(net);
        let mut source = TimedSource::new(&mut traffic);
        let started = Instant::now();
        let outcome = drive(&mut net, &mut source, limits);
        let wall = started.elapsed();
        let src = source.times();
        let layers = DriveTimes {
            net: net.times(),
            src,
            workload_s: src.emit_s,
            drive_s: wall.as_secs_f64(),
            events: net.inner().events_processed(),
        };
        let out = EntryOutput::read(net.inner(), &traffic, outcome.saturated, outcome.timed_out);
        EntryRun {
            setup,
            wall,
            out,
            layers: Some(layers),
            tick_s: None,
        }
    } else {
        let mut net = net;
        let started = Instant::now();
        let outcome = drive(net.as_mut(), &mut traffic, limits);
        let wall = started.elapsed();
        let out = EntryOutput::read(net.as_ref(), &traffic, outcome.saturated, outcome.timed_out);
        EntryRun {
            setup,
            wall,
            out,
            layers: None,
            tick_s: None,
        }
    }
}

/// Every entry of a workload, run once in order.
#[derive(Debug, Clone)]
pub struct Round {
    pub runs: Vec<EntryRun>,
}

impl Round {
    /// Runs every entry; with a `gauge`, each entry is a gauged step.
    pub fn run(
        fabric: &FabricConfig,
        entries: &[Entry],
        seed: u64,
        traced: bool,
        mut gauge: Option<&mut Gauge>,
    ) -> Round {
        let mut runs = Vec::with_capacity(entries.len());
        for entry in entries {
            let mut run = run_entry(fabric, entry, seed, traced);
            run.tick_s = gauge.as_deref_mut().map(Gauge::step);
            runs.push(run);
        }
        Round { runs }
    }

    pub fn wall_s(&self) -> f64 {
        self.runs.iter().map(|r| r.wall.as_secs_f64()).sum()
    }

    /// Set-up time at the nominal host speed, for a gauged round.
    pub fn scaled_setup_s(&self) -> f64 {
        self.runs.iter().map(|r| r.scaled(r.setup)).sum()
    }

    /// Drive time at the nominal host speed, for a gauged round.
    pub fn scaled_wall_s(&self) -> f64 {
        self.runs.iter().map(|r| r.scaled(r.wall)).sum()
    }

    pub fn events(&self) -> u64 {
        self.runs.iter().map(|r| r.out.events).sum()
    }

    pub fn delivered(&self) -> u64 {
        self.runs.iter().map(|r| r.out.delivered).sum()
    }
}

/// Checks every entry of `round` against `reference` (the run's first
/// round, whose outputs every later round must repeat) and against the
/// digests recorded for `seed`, counting each entry in `outcome`.
pub fn check_round(
    outcome: &mut Outcome,
    entries: &[Entry],
    round: &Round,
    reference: &Round,
    recorded: &Digests,
    seed: u64,
) {
    for ((entry, run), first) in entries.iter().zip(&round.runs).zip(&reference.runs) {
        let d = run.out.digest();
        let why = if let Some(problem) = run.out.problem() {
            Some(problem)
        } else if d != first.out.digest() {
            Some("outputs differ from the run's first round".into())
        } else {
            match recorded.get(seed, &entry.id) {
                Some(want) if want != d => Some(format!("digest {d:016x}, recorded {want:016x}")),
                _ => None,
            }
        };
        outcome.check(why.map(|w| format!("{}: {w}", entry.id)));
    }
}

/// Runs an open-loop workload for about `seconds` of rounds.
///
/// Untraced, it reports the end-to-end metrics: medians over rounds of a
/// round's set-up time, drive time and throughput. Traced, it alternates
/// untraced and wrapped rounds, checks that both give the same outputs,
/// and reports the per-layer metrics (means over the wrapped rounds) with
/// the tracing overhead.
pub fn run(geometry: Geometry, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let loads = Loads::checked_in()?;
    let recorded = Digests::checked_in()?;
    let fabric = geometry.fabric();
    let entries = entries(geometry, &loads)?;
    let mut outcome = Outcome::default();
    let started = Instant::now();
    let mut plain: Vec<Round> = Vec::new();
    let mut wrapped: Vec<Round> = Vec::new();
    let mut peak_rss_mb = None;
    let mut gauge = None;
    loop {
        let round = Round::run(&fabric, &entries, seed, false, gauge.as_mut());
        check_round(
            &mut outcome,
            &entries,
            &round,
            plain.first().unwrap_or(&round),
            &recorded,
            seed,
        );
        plain.push(round);
        if peak_rss_mb.is_none() {
            // Freed networks leave the heap more fragmented with every
            // round, so the peak is read after the first: a fixed amount
            // of work. That round warms up; later untraced rounds are
            // timed against the gauge, whose table would add to the peak.
            peak_rss_mb = Some(crate::peak_rss_mb());
            if !traced {
                gauge = Some(Gauge::new(1));
            }
        }
        if traced {
            let round = Round::run(&fabric, &entries, seed, true, None);
            check_round(&mut outcome, &entries, &round, &plain[0], &recorded, seed);
            wrapped.push(round);
        }
        let elapsed = started.elapsed().as_secs_f64();
        let per_round = elapsed / plain.len() as f64;
        if plain.len() > MIN_ROUNDS && elapsed + per_round > seconds {
            break;
        }
    }

    let walls: Vec<f64> = plain.iter().map(Round::wall_s).collect();
    if !traced {
        let timed = &plain[1..];
        let setups: Vec<f64> = timed.iter().map(Round::scaled_setup_s).collect();
        let scaled_walls: Vec<f64> = timed.iter().map(Round::scaled_wall_s).collect();
        let rate = |count: &dyn Fn(&Round) -> f64| -> f64 {
            median(
                &timed
                    .iter()
                    .map(|r| count(r) / r.scaled_wall_s())
                    .collect::<Vec<_>>(),
            )
        };
        let ticks: Vec<f64> = timed
            .iter()
            .flat_map(|r| r.runs.iter().filter_map(|e| e.tick_s))
            .collect();
        eprintln!(
            "{} timed rounds: median host wall {:.6} s, median gauge tick {:.6} s (nominal {})",
            timed.len(),
            median(&walls[1..]),
            median(&ticks),
            gauge::NOMINAL_TICK_S
        );
        outcome.metric("setup_s", median(&setups), "s");
        outcome.metric("wall_s", median(&scaled_walls), "s");
        outcome.metric("events_per_s", rate(&|r| r.events() as f64), "1/s");
        outcome.metric("packets_per_s", rate(&|r| r.delivered() as f64), "1/s");
        // Open-loop entries never touch the result cache: a repeated
        // entry is simulated again, so the warm rate is the cold rate.
        let points = rate(&|r| r.runs.len() as f64);
        outcome.metric("cold_points_per_s", points, "1/s");
        outcome.metric("warm_points_per_s", points, "1/s");
        let rss = peak_rss_mb.expect("at least one round ran");
        outcome.metric("peak_rss_mb", rss, "MB");
        return Ok(outcome);
    }

    // Per-layer metrics: each network's wrapped entries summed within a
    // round, averaged over the wrapped rounds.
    let mut per_net: BTreeMap<usize, DriveTimes> = BTreeMap::new();
    for round in &wrapped {
        for (entry, run) in entries.iter().zip(&round.runs) {
            let slot = NetworkKind::ALL
                .iter()
                .position(|&k| k == entry.kind)
                .expect("a known kind");
            per_net
                .entry(slot)
                .or_default()
                .add(&run.layers.expect("wrapped round"));
        }
    }
    for (slot, kind) in NetworkKind::ALL.into_iter().enumerate() {
        let total = per_net.remove(&slot).unwrap_or_default();
        outcome.network_layers(kind, &total.mean_of(wrapped.len() as u64));
    }
    // Open-loop traffic never reaches the coherence engine or the cache.
    outcome.coherence_layers(&SourceTimes::default(), 0);
    outcome.campaign_layers(&CampaignLayers::default());
    let traced_walls: Vec<f64> = wrapped.iter().map(Round::wall_s).collect();
    outcome.metric(
        "tracing_overhead",
        median(&traced_walls) / median(&walls),
        "ratio",
    );
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_geometries() -> [FabricConfig; 2] {
        [
            FabricConfig::single(MacrochipConfig::with_side(4)),
            FabricConfig::grid(2, MacrochipConfig::with_side(4)),
        ]
    }

    fn tiny_entry(kind: NetworkKind, load: f64, fabric: &FabricConfig) -> Entry {
        let mut e = Entry::new("tiny", "test", kind, load, &flat_config(fabric));
        e.sim = Span::from_ns(400);
        e
    }

    #[test]
    fn wrapped_and_unwrapped_runs_agree_for_every_kind() {
        for fabric in tiny_geometries() {
            for kind in NetworkKind::ALL {
                let entry = tiny_entry(kind, 0.002, &fabric);
                let plain = run_entry(&fabric, &entry, 7, false);
                let wrapped = run_entry(&fabric, &entry, 7, true);
                assert_eq!(
                    plain.out,
                    wrapped.out,
                    "{} on {} chips",
                    entry.id,
                    fabric.chips()
                );
                assert!(plain.out.delivered > 0, "{} delivered nothing", entry.id);
                assert_eq!(plain.out.problem(), None, "{}", entry.id);
                let layers = wrapped.layers.expect("wrapped run");
                assert_eq!(layers.events, wrapped.out.events);
                assert!(layers.net.inject_calls >= wrapped.out.injected);

                let bare = networks::build_fabric(kind, &fabric);
                let timed = TimedNetwork::new(networks::build_fabric(kind, &fabric));
                assert_eq!(
                    bare.supports_batched_advance(),
                    timed.supports_batched_advance(),
                    "{}",
                    entry.id
                );
            }
        }
    }

    #[test]
    fn a_saturated_entry_counts_as_failed() {
        let fabric = FabricConfig::single(MacrochipConfig::with_side(4));
        let mut entry = tiny_entry(NetworkKind::CircuitSwitched, 0.9, &fabric);
        entry.sim = Span::from_us(5);
        let round = Round::run(&fabric, std::slice::from_ref(&entry), 3, false, None);
        assert!(round.runs[0].out.saturated);
        let mut outcome = Outcome::default();
        check_round(
            &mut outcome,
            &[entry],
            &round,
            &round,
            &Digests::default(),
            3,
        );
        assert_eq!((outcome.attempted, outcome.failed), (1, 1));
        assert_eq!(outcome.failed_frac(), 1.0);
    }

    #[test]
    fn a_digest_mismatch_counts_as_failed() {
        let fabric = FabricConfig::single(MacrochipConfig::with_side(4));
        let entry = tiny_entry(NetworkKind::PointToPoint, 0.01, &fabric);
        let mut gauge = Gauge::new(1);
        let round = Round::run(&fabric, std::slice::from_ref(&entry), 3, false, Some(&mut gauge));
        assert!(round.scaled_wall_s() > 0.0 && round.scaled_setup_s() > 0.0);
        let mut recorded = Digests::default();
        recorded.insert(3, &entry.id, round.runs[0].out.digest() ^ 1);
        let mut outcome = Outcome::default();
        check_round(
            &mut outcome,
            std::slice::from_ref(&entry),
            &round,
            &round,
            &recorded,
            3,
        );
        assert_eq!(outcome.failed, 1);
        let mut outcome = Outcome::default();
        check_round(&mut outcome, &[entry], &round, &round, &recorded, 4);
        assert_eq!(outcome.failed, 0, "no digest is recorded for seed 4");
    }

    #[test]
    fn digests_are_stable_across_runs() {
        for fabric in tiny_geometries() {
            let entries: Vec<Entry> = NetworkKind::ALL
                .into_iter()
                .map(|k| tiny_entry(k, 0.002, &fabric))
                .collect();
            let a = Round::run(&fabric, &entries, 11, false, None);
            let b = Round::run(&fabric, &entries, 11, false, None);
            let c = Round::run(&fabric, &entries, 12, false, None);
            let digests = |r: &Round| r.runs.iter().map(|x| x.out.digest()).collect::<Vec<_>>();
            assert_eq!(digests(&a), digests(&b));
            assert_ne!(digests(&a), digests(&c), "the seed must change the inputs");
        }
    }

    #[test]
    fn windows_give_every_entry_the_same_expected_packet_count() {
        let loads = Loads::checked_in().expect("loads.txt");
        for geometry in Geometry::ALL {
            let config = flat_config(&geometry.fabric());
            let per_ns = |e: &Entry| {
                config.grid.sites() as f64 * e.load * config.site_bandwidth_bytes_per_ns() / 64.0
            };
            let list = entries(geometry, &loads).expect("entries");
            assert_eq!(
                list.len(),
                if geometry == Geometry::Chip16 { 14 } else { 7 }
            );
            for e in &list {
                let expected = per_ns(e) * e.sim.as_ns_f64();
                assert!(
                    (expected / PACKETS_PER_ENTRY - 1.0).abs() < 1e-3,
                    "{}",
                    e.id
                );
            }
        }
    }
}
