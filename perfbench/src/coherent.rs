//! The `coherent_campaign` workload: every network × the six application
//! kernels as closed-loop coherent points, run through `Campaign::run` on
//! two workers with a fresh result cache — one cold pass that simulates
//! and stores, then warm passes that only key and load.

use crate::gauge::{scaled, Gauge};
use crate::recorded::{digest, Digests};
use crate::report::{CampaignLayers, Outcome};
use crate::stats::{median, percentile};
use crate::timing::{DriveTimes, Meter, SourceTimes, TimedNetwork, TimedOpSource, TimedSource};
use coherence::ops::OpSource;
use coherence::{CoherenceEngine, EngineConfig, OpStats};
use desim::Time;
use macrochip::campaign::{point_key, run_indexed, run_point, Campaign, PointResult, ResultCache};
use macrochip::campaign::{CampaignOutcome, CampaignPoint};
use macrochip::experiment::{CoherentRun, WorkloadSpec};
use macrochip::names::network_code;
use macrochip::runner::{drive, DriveLimits};
use netcore::{MacrochipConfig, Network, NetworkKind};
use std::path::Path;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use workloads::{AppProfile, AppWorkload};

/// Chip side and operations per core are the `macrochip coherent`
/// defaults on the paper's 8×8 macrochip; the campaign runs two workers.
pub const SIDE: usize = 8;
pub const OPS_PER_CORE: u32 = 40;
pub const JOBS: usize = 2;

/// Warm passes after each cold pass.
const WARM_PASSES: usize = 200;

/// Warm passes timed as one gauged step.
const WARM_PASSES_PER_STEP: usize = 10;

/// Set-ups timed before each cold pass.
const SETUPS_PER_PASS: usize = 64;

/// Timed cold passes every untraced run makes, however short its time
/// budget.
const MIN_ITERATIONS: usize = 3;

/// Warm passes every traced run makes, however short its time budget.
const MIN_TRACED_WARM_PASSES: usize = 200;

/// Where the fresh caches live, relative to the working directory.
const CACHE_ROOT: &str = ".perfbench-cache";

pub fn config() -> MacrochipConfig {
    MacrochipConfig::with_side(SIDE)
}

/// The campaign's points, network-major, all seeded with `seed`.
pub fn points(seed: u64) -> Vec<CampaignPoint> {
    NetworkKind::ALL
        .into_iter()
        .flat_map(|kind| {
            AppProfile::suite()
                .into_iter()
                .map(move |p| CampaignPoint::Coherent {
                    kind,
                    spec: WorkloadSpec::App(p.with_ops_per_core(OPS_PER_CORE)),
                    seed,
                })
        })
        .collect()
}

pub fn point_id(point: &CampaignPoint) -> String {
    match point {
        CampaignPoint::Coherent { kind, spec, .. } => {
            format!("coherent_campaign/{}/{}", network_code(*kind), spec.name())
        }
        other => panic!("not a coherent point: {other:?}"),
    }
}

/// Digest of every field of a coherent run.
pub fn run_digest(run: &CoherentRun) -> u64 {
    let kind = NetworkKind::ALL.iter().position(|&k| k == run.network);
    let name: Vec<u64> = run.workload.bytes().map(u64::from).collect();
    digest(&[
        kind.expect("a known kind") as u64,
        digest(&name),
        run.makespan.as_ps(),
        run.mean_op_latency.as_ps(),
        run.ops_completed,
        run.delivered_bytes,
        run.routed_bytes,
        run.packets,
    ])
}

fn coherent(result: &PointResult) -> Option<&CoherentRun> {
    match result {
        PointResult::Coherent(run) => Some(run),
        _ => None,
    }
}

/// A fresh, empty result cache under [`CACHE_ROOT`].
fn fresh_cache() -> Result<ResultCache, String> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = Path::new(CACHE_ROOT).join(format!(
        "{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    ResultCache::new(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

/// Deletes `cache`, and [`CACHE_ROOT`] once no cache is left in it.
fn remove_cache(cache: &ResultCache) {
    let _ = std::fs::remove_dir_all(cache.dir());
    let _ = std::fs::remove_dir(CACHE_ROOT);
}

/// One cold pass of the campaign into a fresh cache: each point's id and
/// run.
pub fn cold_pass(seed: u64) -> Result<Vec<(String, CoherentRun)>, String> {
    let points = points(seed);
    let campaign = Campaign {
        jobs: JOBS,
        cache: Some(fresh_cache()?),
        config: config(),
    };
    let outcomes = campaign.run(&points);
    remove_cache(campaign.cache.as_ref().expect("cache set above"));
    points
        .iter()
        .zip(&outcomes)
        .map(|(p, o)| {
            let run =
                coherent(&o.result).ok_or(format!("{}: not a coherent result", point_id(p)))?;
            Ok((point_id(p), run.clone()))
        })
        .collect()
}

/// What `macrochip::experiment::run_coherent` returns, read from the
/// driven network and engine.
fn coherent_run(
    kind: NetworkKind,
    spec: &WorkloadSpec,
    net: &dyn Network,
    ops: &OpStats,
) -> CoherentRun {
    let stats = net.stats();
    CoherentRun {
        network: kind,
        workload: spec.name(),
        makespan: ops.last_completion().saturating_since(Time::ZERO),
        mean_op_latency: ops.latency().mean(),
        ops_completed: ops.completed(),
        delivered_bytes: stats.delivered_bytes(),
        routed_bytes: stats.routed_bytes(),
        packets: stats.delivered_packets(),
    }
}

/// `run_coherent`'s limits: a 1 s deadline and unbounded stalls.
fn coherent_limits() -> DriveLimits {
    DriveLimits {
        deadline: Time::from_us(1_000_000),
        max_stalled: usize::MAX,
    }
}

/// A coherent point re-run outside the campaign.
pub struct Replica {
    pub run: CoherentRun,
    /// Event count, and with `traced` the wrappers' measurements.
    pub times: DriveTimes,
    /// Host seconds from building the network to reading the results.
    pub wall_s: f64,
}

/// Builds what `run_coherent` builds for `point` — `networks::build`, a
/// `CoherenceEngine` with the default configuration over an `AppWorkload`
/// — and drives it with `macrochip::runner::drive`. With `traced`, the
/// network, the engine and the workload model are timed by wrappers.
pub fn replicate(point: &CampaignPoint, config: &MacrochipConfig, traced: bool) -> Replica {
    let CampaignPoint::Coherent {
        kind,
        spec: spec @ WorkloadSpec::App(profile),
        seed,
    } = point
    else {
        panic!("coherent_campaign points are application points: {point:?}");
    };
    let started = Instant::now();
    let mut net = networks::build(*kind, *config);
    let app = AppWorkload::new(&config.grid, *profile, *seed);
    let (run, times) = if traced {
        let meter = Rc::new(Meter::default());
        let engine = CoherenceEngine::new(
            *config,
            EngineConfig::default(),
            TimedOpSource::new(app, Rc::clone(&meter)),
        );
        let mut net = TimedNetwork::new(net);
        let before = meter.secs();
        let (ops, mut times) = drive_engine(&mut net, engine, true);
        times.workload_s = meter.secs() - before;
        times.net = net.times();
        times.events = net.inner().events_processed();
        (coherent_run(*kind, spec, net.inner(), &ops), times)
    } else {
        let engine = CoherenceEngine::new(*config, EngineConfig::default(), app);
        let (ops, mut times) = drive_engine(net.as_mut(), engine, false);
        times.events = net.events_processed();
        (coherent_run(*kind, spec, net.as_ref(), &ops), times)
    };
    Replica {
        run,
        times,
        wall_s: started.elapsed().as_secs_f64(),
    }
}

/// Drives `engine` over `net` to completion; returns the engine's stats
/// with the drive's host time and, when `traced`, the engine's.
fn drive_engine<S: OpSource>(
    net: &mut dyn Network,
    mut engine: CoherenceEngine<S>,
    traced: bool,
) -> (OpStats, DriveTimes) {
    let mut times = DriveTimes::default();
    let started = Instant::now();
    if traced {
        let mut source = TimedSource::new(&mut engine);
        drive(net, &mut source, coherent_limits());
        times.src = source.times();
    } else {
        drive(net, &mut engine, coherent_limits());
    }
    times.drive_s = started.elapsed().as_secs_f64();
    (engine.stats().clone(), times)
}

/// Why a point's cold result fails, if it does.
fn cold_problem(
    outcome: &CampaignOutcome,
    reference: Option<&CoherentRun>,
    recorded: Option<u64>,
) -> Option<String> {
    let Some(run) = coherent(&outcome.result) else {
        return Some("not a coherent result".into());
    };
    if outcome.cached {
        return Some("the cold pass hit the cache".into());
    }
    if reference.is_some_and(|r| r != run) {
        return Some("differs from the run's first cold pass".into());
    }
    match recorded {
        Some(want) if want != run_digest(run) => Some(format!(
            "digest {:016x}, recorded {want:016x}",
            run_digest(run)
        )),
        _ => None,
    }
}

/// Runs `coherent_campaign` for about `seconds`.
///
/// Untraced, it repeats {fresh cache, cold pass, warm passes} and reports
/// medians over them; it then re-runs every point outside the campaign
/// for the event counts, checking that the results agree. Traced, it
/// takes one serial pass that times each campaign-layer call, re-runs
/// every point under the wrappers, and spends the rest of the budget on
/// timed warm lookups.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let recorded = Digests::checked_in()?;
    if traced {
        return run_traced(seed, seconds, &recorded);
    }
    let config = config();
    let started = Instant::now();
    let mut outcome = Outcome::default();
    let (mut setups, mut colds, mut walls, mut warms) = (vec![], vec![], vec![], vec![]);
    let mut reference: Vec<CoherentRun> = Vec::new();
    let mut peak_rss_mb = None;
    // The first pass warms up; later passes are timed against the gauge,
    // one kernel per campaign worker, each phase as a gauged step.
    let mut gauge: Option<Gauge> = None;
    let mut passes = 0;
    let points = loop {
        passes += 1;
        // Set-up takes a fraction of a millisecond, mostly creating the
        // cache directory, so it is timed several times per pass.
        let mut pass_setups = Vec::with_capacity(SETUPS_PER_PASS);
        let (points, campaign) = loop {
            let setup_started = Instant::now();
            let points = self::points(seed);
            let campaign = Campaign {
                jobs: JOBS,
                cache: Some(fresh_cache()?),
                config,
            };
            pass_setups.push(setup_started.elapsed().as_secs_f64());
            if pass_setups.len() == SETUPS_PER_PASS {
                break (points, campaign);
            }
            let dir = campaign.cache.as_ref().expect("cache set above").dir();
            let _ = std::fs::remove_dir_all(dir);
        };
        if let Some(tick_s) = gauge.as_mut().map(Gauge::step) {
            setups.extend(pass_setups.iter().map(|&s| scaled(s, tick_s)));
        }
        let mut scale = |host_s: f64| gauge.as_mut().map(|g| scaled(host_s, g.step()));

        let cold_started = Instant::now();
        let cold = campaign.run(&points);
        let mut wall = scale(cold_started.elapsed().as_secs_f64());
        colds.extend(wall);
        let mut warm_ok = vec![true; points.len()];
        for _ in 0..WARM_PASSES / WARM_PASSES_PER_STEP {
            let step_started = Instant::now();
            for _ in 0..WARM_PASSES_PER_STEP {
                let warm = campaign.run(&points);
                for ((ok, w), c) in warm_ok.iter_mut().zip(&warm).zip(&cold) {
                    *ok &= w.cached && w.result == c.result;
                }
            }
            if let Some(s) = scale(step_started.elapsed().as_secs_f64()) {
                warms.push(s / WARM_PASSES_PER_STEP as f64);
                wall = wall.map(|w| w + s);
            }
        }
        walls.extend(wall);
        remove_cache(campaign.cache.as_ref().expect("cache set above"));

        for (i, point) in points.iter().enumerate() {
            let id = point_id(point);
            let why =
                cold_problem(&cold[i], reference.get(i), recorded.get(seed, &id)).or_else(|| {
                    (!warm_ok[i]).then(|| "a warm result is not a bit-identical cache hit".into())
                });
            outcome.check(why.map(|w| format!("{id}: {w}")));
        }
        if reference.is_empty() {
            reference = cold
                .iter()
                .filter_map(|o| coherent(&o.result).cloned())
                .collect();
            // Each pass starts new worker threads, and the allocator's
            // per-thread arenas fragment further with every pass, so the
            // peak is read after the first pass: a fixed amount of work.
            peak_rss_mb = Some(crate::peak_rss_mb());
            gauge = Some(Gauge::new(JOBS));
        }
        let elapsed = started.elapsed().as_secs_f64();
        let per_iteration = elapsed / f64::from(passes);
        if colds.len() >= MIN_ITERATIONS && elapsed + per_iteration > seconds {
            break points;
        }
    };

    // The campaign reports no event counts: re-run each point through the
    // public pieces `run_coherent` is made of, and check it agrees.
    let replicas = run_indexed(&points, JOBS, |_, p| replicate(p, &config, false));
    let mut events = 0;
    for ((point, replica), reference) in points.iter().zip(&replicas).zip(&reference) {
        events += replica.times.events;
        let why =
            (replica.run != *reference).then(|| "re-run differs from the campaign".to_string());
        outcome.check(why.map(|w| format!("{}: {w}", point_id(point))));
    }
    let packets: u64 = reference.iter().map(|r| r.packets).sum();
    let cold = median(&colds);
    let n = points.len() as f64;
    outcome.metric("setup_s", median(&setups), "s");
    outcome.metric("wall_s", median(&walls), "s");
    outcome.metric("events_per_s", events as f64 / cold, "1/s");
    outcome.metric("packets_per_s", packets as f64 / cold, "1/s");
    outcome.metric("cold_points_per_s", n / cold, "1/s");
    outcome.metric("warm_points_per_s", n / median(&warms), "1/s");
    let rss = peak_rss_mb.expect("at least one pass ran");
    outcome.metric("peak_rss_mb", rss, "MB");
    Ok(outcome)
}

fn micros(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e6
}

fn run_traced(seed: u64, seconds: f64, recorded: &Digests) -> Result<Outcome, String> {
    let config = config();
    let started = Instant::now();
    let mut outcome = Outcome::default();
    let points = points(seed);
    let cache = fresh_cache()?;

    // A serial cold pass doing what `Campaign::run` does per point, with
    // each campaign-layer call timed.
    let (mut key_us, mut store_us) = (vec![], vec![]);
    let mut run_point_s = 0.0;
    let mut cold = Vec::new();
    for point in &points {
        let t = Instant::now();
        let key = point_key(point, &config);
        key_us.push(micros(t));
        if cache.load(key).is_some() {
            return Err(format!(
                "{}: a fresh cache already holds the point",
                point_id(point)
            ));
        }
        let t = Instant::now();
        let result = run_point(point, &config);
        run_point_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        cache
            .store(key, &result)
            .map_err(|e| format!("storing {}: {e}", point_id(point)))?;
        store_us.push(micros(t));
        cold.push(result);
    }

    // Every point again under the wrappers; it must match `run_point`.
    let mut per_net = [DriveTimes::default(); NetworkKind::ALL.len()];
    let mut engine = SourceTimes::default();
    let (mut ops, mut traced_s) = (0, 0.0);
    for (point, result) in points.iter().zip(&cold) {
        let replica = replicate(point, &config, true);
        traced_s += replica.wall_s;
        let id = point_id(point);
        let why = if coherent(result) != Some(&replica.run) {
            Some("the wrapped run differs from run_point".to_string())
        } else {
            match recorded.get(seed, &id) {
                Some(want) if want != run_digest(&replica.run) => Some(format!(
                    "digest {:016x}, recorded {want:016x}",
                    run_digest(&replica.run)
                )),
                _ => None,
            }
        };
        outcome.check(why.map(|w| format!("{id}: {w}")));
        let slot = NetworkKind::ALL.iter().position(|&k| k == point.kind());
        per_net[slot.expect("a known kind")].add(&replica.times);
        engine.emit_s += replica.times.src.emit_s;
        engine.on_delivered_s += replica.times.src.on_delivered_s;
        ops += replica.run.ops_completed;
    }

    // Warm lookups for the rest of the budget.
    let (mut load_us, mut hits, mut lookups, mut passes) = (vec![], 0u64, 0u64, 0);
    while passes < MIN_TRACED_WARM_PASSES || started.elapsed().as_secs_f64() < seconds {
        for (point, result) in points.iter().zip(&cold) {
            let t = Instant::now();
            let key = point_key(point, &config);
            key_us.push(micros(t));
            let t = Instant::now();
            let hit = cache.load(key);
            load_us.push(micros(t));
            lookups += 1;
            hits += u64::from(hit.as_ref() == Some(result));
        }
        passes += 1;
    }
    remove_cache(&cache);
    if hits < lookups {
        outcome.check(Some(format!(
            "{} of {lookups} warm lookups missed",
            lookups - hits
        )));
    }

    for (kind, times) in NetworkKind::ALL.into_iter().zip(&per_net) {
        outcome.network_layers(kind, times);
    }
    outcome.coherence_layers(&engine, ops);
    outcome.campaign_layers(&CampaignLayers {
        point_key_us: median(&key_us),
        cache_load_us_p50: median(&load_us),
        cache_load_us_p99: percentile(&load_us, 0.99),
        hit_ratio: hits as f64 / lookups as f64,
        cache_store_us_p50: median(&store_us),
        run_point_s,
    });
    outcome.metric("tracing_overhead", traced_s / run_point_s, "ratio");
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_campaign_is_every_network_times_the_application_suite() {
        let points = points(5);
        assert_eq!(
            points.len(),
            NetworkKind::ALL.len() * AppProfile::suite().len()
        );
        let mut ids: Vec<String> = points.iter().map(point_id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), points.len(), "entry ids are unique");
    }

    #[test]
    fn replicas_match_run_point_wrapped_or_not() {
        let config = MacrochipConfig::with_side(4);
        for point in points(3).iter().step_by(5) {
            let CampaignPoint::Coherent { kind, spec, seed } = point else {
                unreachable!()
            };
            let WorkloadSpec::App(p) = spec else {
                unreachable!()
            };
            let small = CampaignPoint::Coherent {
                kind: *kind,
                spec: WorkloadSpec::App(p.with_ops_per_core(3)),
                seed: *seed,
            };
            let want = run_point(&small, &config);
            let plain = replicate(&small, &config, false);
            let wrapped = replicate(&small, &config, true);
            assert_eq!(coherent(&want), Some(&plain.run), "{}", point_id(&small));
            assert_eq!(plain.run, wrapped.run, "{}", point_id(&small));
            assert_eq!(plain.times.events, wrapped.times.events);
            assert!(wrapped.times.net.inject_calls > 0 && wrapped.times.src.emit_s > 0.0);
            assert_eq!(run_digest(&plain.run), run_digest(&wrapped.run));
        }
    }

    #[test]
    fn a_cache_hit_on_the_cold_pass_fails_the_point() {
        let run = CoherentRun {
            network: NetworkKind::TokenRing,
            workload: "Radix".into(),
            makespan: desim::Span::from_ns(5),
            mean_op_latency: desim::Span::from_ns(1),
            ops_completed: 3,
            delivered_bytes: 64,
            routed_bytes: 0,
            packets: 1,
        };
        let fresh = CampaignOutcome {
            result: PointResult::Coherent(run.clone()),
            cached: false,
        };
        assert_eq!(
            cold_problem(&fresh, Some(&run), Some(run_digest(&run))),
            None
        );
        let cached = CampaignOutcome {
            cached: true,
            ..fresh.clone()
        };
        assert!(cold_problem(&cached, None, None).is_some());
        assert!(cold_problem(&fresh, None, Some(run_digest(&run) ^ 1)).is_some());
        let mut other = run.clone();
        other.packets = 2;
        assert!(cold_problem(&fresh, Some(&other), None).is_some());
    }
}
