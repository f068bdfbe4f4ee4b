//! Parallel campaign engine: deterministic sharded execution of
//! independent simulation points, with a content-addressed result cache.
//!
//! The paper's evaluation (§6) is a cross-product of {networks} ×
//! {patterns/workloads} × {offered loads, seeds, fault plans}. Every point
//! of that product is an **independent** simulation: it builds its own
//! network, drives its own `desim` event loop, and draws from its own
//! seeded RNG. This module shards such points across a work-stealing
//! `std::thread` pool and merges the results back in **canonical
//! (input-index) order**, so campaign output is byte-identical to the
//! serial path regardless of worker count or OS scheduling.
//!
//! Two layers:
//!
//! * [`run_indexed`] — the untyped engine: run `f(i, &items[i])` for every
//!   item on `jobs` workers, return outputs in input order. Workers steal
//!   the next unclaimed index from a shared atomic counter, so a slow
//!   point (a saturated network grinding to its stall bound) does not hold
//!   up the queue behind one unlucky worker.
//! * [`Campaign`] — the typed layer: a declarative [`CampaignPoint`] list
//!   (sweep / fault / coherent points) executed through [`run_point`],
//!   with results transparently persisted in a [`ResultCache`] keyed by a
//!   content hash of the full point specification, so repeated campaigns
//!   skip already-computed points.
//!
//! Determinism contract: for a fixed point list and configuration, the
//! returned vector — and any serialization of it — is identical for every
//! `jobs` value, with a cold or warm cache. The differential and property
//! tests in `tests/` enforce this.

use crate::experiment::{run_coherent, run_coherent_audited, CoherentRun, WorkloadSpec};
use crate::replay_run::{run_replay, run_replay_faulted, ReplayOptions, ReplaySummary};
use crate::runner::{drive_traced, DriveLimits};
use crate::sweep::{run_load_point_traced, LoadPoint, SweepOptions};
use desim::trace::{RingSink, TeeSink};
use desim::{Span, Time, TraceEvent, Tracer};
use faults::{FaultPlan, ResilientNetwork};
use netcore::audit::{AuditReport, Auditor};
use netcore::{
    FabricConfig, MacrochipConfig, MetricsRegistry, MetricsSnapshot, Network, NetworkKind,
};
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use workloads::{OpenLoopTraffic, Pattern};

/// Bumped whenever the cache key derivation or value encoding changes, so
/// stale `results/cache/` entries from older binaries are never misread.
const CACHE_FORMAT: u32 = 1;

/// The number of workers to use when the caller asks for "auto" (`0`):
/// one per available hardware thread.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves a `--jobs` value: `0` means auto-detect, anything else is
/// taken literally.
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        default_jobs()
    } else {
        jobs
    }
}

/// Runs `f(i, &items[i])` for every item, sharded across `jobs` worker
/// threads, and returns the outputs **in input order**.
///
/// Scheduling is work-stealing over the index space: each worker claims
/// the next unprocessed index from a shared atomic counter, computes its
/// point, and repeats until the space is exhausted. Results carry their
/// input index back to the merge step, so the output order (and therefore
/// any serialization of it) is independent of worker count and of how the
/// OS interleaves the workers. With `jobs <= 1` (or one item) the items
/// are processed inline on the calling thread — the exact code path the
/// parallel version must match byte-for-byte.
///
/// Panics in `f` propagate to the caller once all workers have stopped.
pub fn run_indexed<I, O, F>(items: &[I], jobs: usize, f: F) -> Vec<O>
where
    I: Sync,
    O: Send,
    F: Fn(usize, &I) -> O + Sync,
{
    let workers = resolve_jobs(jobs).min(items.len());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
    }
    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, O)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // Batch the lock: each worker buffers its finished points
                // locally and publishes once, so the mutex is cold.
                let mut local: Vec<(usize, O)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local.push((i, f(i, &items[i])));
                }
                collected
                    .lock()
                    .expect("campaign worker poisoned the result lock")
                    .extend(local);
            });
        }
    });
    let mut pairs = collected
        .into_inner()
        .expect("campaign result lock poisoned");
    pairs.sort_unstable_by_key(|&(i, _)| i);
    debug_assert!(
        pairs.iter().enumerate().all(|(n, &(i, _))| n == i),
        "campaign merge lost or duplicated a point"
    );
    pairs.into_iter().map(|(_, o)| o).collect()
}

/// One independent simulation point of a campaign.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignPoint {
    /// An open-loop latency/throughput measurement at one offered load
    /// (one cell of a Figure 6 curve).
    Sweep {
        kind: NetworkKind,
        pattern: Pattern,
        /// Offered load as a fraction of the per-site peak.
        offered: f64,
        options: SweepOptions,
    },
    /// An open-loop run under a fault plan (one cell of the degradation
    /// tables).
    Fault {
        kind: NetworkKind,
        pattern: Pattern,
        /// Offered load as a fraction of the per-site peak.
        load: f64,
        plan: FaultPlan,
        seed: u64,
        /// Traffic-generation window.
        sim: Span,
        /// Extra drain time after generation stops.
        drain: Span,
        /// Stalled-packet bound that declares saturation.
        max_stalled: usize,
    },
    /// A closed-loop coherent run to completion (one cell of the Figure
    /// 7–10 grid).
    Coherent {
        kind: NetworkKind,
        spec: WorkloadSpec,
        seed: u64,
    },
    /// A captured `.mtrc` trace replayed through one network, optionally
    /// under a fault plan (one cell of a cross-network comparison grid).
    Replay {
        kind: NetworkKind,
        /// Path to the `.mtrc` trace file.
        trace: String,
        /// Content hash from the trace header. The cache key covers this
        /// — not the path — so a renamed trace still hits, and an edited
        /// trace at the same path misses.
        content_hash: u64,
        /// Fault plan to replay under, if any.
        plan: Option<FaultPlan>,
        /// RNG seed for the fault plan (unused without one).
        seed: u64,
        /// Extra drain time after the last trace packet.
        drain: Span,
        /// Stalled-packet bound that declares saturation.
        max_stalled: usize,
    },
}

impl CampaignPoint {
    /// Stable one-word tag, used in cache files and progress reports.
    pub fn tag(&self) -> &'static str {
        match self {
            CampaignPoint::Sweep { .. } => "sweep",
            CampaignPoint::Fault { .. } => "fault",
            CampaignPoint::Coherent { .. } => "coherent",
            CampaignPoint::Replay { .. } => "replay",
        }
    }

    /// The network architecture this point exercises.
    pub fn kind(&self) -> NetworkKind {
        match *self {
            CampaignPoint::Sweep { kind, .. }
            | CampaignPoint::Fault { kind, .. }
            | CampaignPoint::Coherent { kind, .. }
            | CampaignPoint::Replay { kind, .. } => kind,
        }
    }
}

/// Resilience measurements of one fault campaign point — the fields the
/// degradation tables report, in cache-stable form.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSummary {
    /// Packets delivered clean through the resilience wrapper.
    pub clean_delivered: u64,
    /// Packets lost for good.
    pub lost: u64,
    /// Retransmissions re-injected.
    pub retries: u64,
    /// Fraction of deliveries that arrived clean.
    pub availability: f64,
    /// Bytes delivered clean.
    pub clean_bytes: u64,
    /// Simulated time spent with at least one unrepaired fault, ns.
    pub degraded_ns: f64,
    /// Simulation time when the run stopped, ns.
    pub end_ns: f64,
    /// The run hit its stalled-packet bound.
    pub saturated: bool,
}

impl FaultSummary {
    /// Clean goodput over the whole run, bytes per nanosecond.
    pub fn goodput_bytes_per_ns(&self) -> f64 {
        self.clean_bytes as f64 / self.end_ns.max(1.0)
    }
}

/// The measured result of one [`CampaignPoint`].
#[derive(Debug, Clone, PartialEq)]
pub enum PointResult {
    Sweep(LoadPoint),
    Fault(FaultSummary),
    Coherent(CoherentRun),
    Replay(ReplaySummary),
}

impl PointResult {
    /// Stable tag matching [`CampaignPoint::tag`].
    pub fn tag(&self) -> &'static str {
        match self {
            PointResult::Sweep(_) => "sweep",
            PointResult::Fault(_) => "fault",
            PointResult::Coherent(_) => "coherent",
            PointResult::Replay(_) => "replay",
        }
    }

    /// False for results that must not be persisted: a poisoned replay
    /// (corrupt trace) records *that* attempt, not the point's true value
    /// — caching it would mask the repaired trace forever.
    pub fn cacheable(&self) -> bool {
        match self {
            PointResult::Replay(r) => !r.poisoned,
            _ => true,
        }
    }

    /// Serializes the result into the cache value encoding.
    ///
    /// Floats are stored as the hexadecimal of their IEEE-754 bits, so a
    /// cache hit reproduces the original computation **bit-for-bit** — the
    /// property tests round-trip on exact bytes.
    pub fn to_cache_bytes(&self) -> String {
        let mut s = format!("macrochip-campaign-cache v{CACHE_FORMAT}\n{}\n", self.tag());
        let f64_field = |out: &mut String, name: &str, v: f64| {
            out.push_str(name);
            out.push(' ');
            out.push_str(&format!("{:016x}\n", v.to_bits()));
        };
        match self {
            PointResult::Sweep(p) => {
                f64_field(&mut s, "offered", p.offered);
                f64_field(&mut s, "mean_latency_ns", p.mean_latency_ns);
                f64_field(&mut s, "p99_latency_ns", p.p99_latency_ns);
                f64_field(&mut s, "delivered", p.delivered_bytes_per_ns_per_site);
                s.push_str(if p.saturated {
                    "saturated 1\n"
                } else {
                    "saturated 0\n"
                });
            }
            PointResult::Fault(f) => {
                s.push_str(&format!("clean_delivered {}\n", f.clean_delivered));
                s.push_str(&format!("lost {}\n", f.lost));
                s.push_str(&format!("retries {}\n", f.retries));
                f64_field(&mut s, "availability", f.availability);
                s.push_str(&format!("clean_bytes {}\n", f.clean_bytes));
                f64_field(&mut s, "degraded_ns", f.degraded_ns);
                f64_field(&mut s, "end_ns", f.end_ns);
                s.push_str(if f.saturated {
                    "saturated 1\n"
                } else {
                    "saturated 0\n"
                });
            }
            PointResult::Coherent(r) => {
                s.push_str(&format!("network {}\n", r.network.name()));
                s.push_str(&format!("workload {}\n", r.workload));
                s.push_str(&format!("makespan_ps {}\n", r.makespan.as_ps()));
                s.push_str(&format!(
                    "mean_op_latency_ps {}\n",
                    r.mean_op_latency.as_ps()
                ));
                s.push_str(&format!("ops_completed {}\n", r.ops_completed));
                s.push_str(&format!("delivered_bytes {}\n", r.delivered_bytes));
                s.push_str(&format!("routed_bytes {}\n", r.routed_bytes));
                s.push_str(&format!("packets {}\n", r.packets));
            }
            PointResult::Replay(r) => {
                s.push_str(&format!("trace_packets {}\n", r.trace_packets));
                s.push_str(&format!("emitted {}\n", r.emitted));
                s.push_str(&format!("delivered {}\n", r.delivered));
                s.push_str(&format!("delivered_bytes {}\n", r.delivered_bytes));
                f64_field(&mut s, "mean_latency_ns", r.mean_latency_ns);
                f64_field(&mut s, "p99_latency_ns", r.p99_latency_ns);
                f64_field(&mut s, "per_site", r.delivered_bytes_per_ns_per_site);
                f64_field(&mut s, "end_ns", r.end_ns);
                s.push_str(if r.saturated {
                    "saturated 1\n"
                } else {
                    "saturated 0\n"
                });
                s.push_str(if r.timed_out {
                    "timed_out 1\n"
                } else {
                    "timed_out 0\n"
                });
                s.push_str(&format!("trace_last_ps {}\n", r.trace_last_ps));
                s.push_str(&format!("content_hash {:016x}\n", r.content_hash));
            }
        }
        s
    }

    /// Parses a cache value back. Returns `None` for anything malformed
    /// or written by a different cache format.
    pub fn from_cache_bytes(bytes: &str) -> Option<PointResult> {
        let mut lines = bytes.lines();
        if lines.next()? != format!("macrochip-campaign-cache v{CACHE_FORMAT}") {
            return None;
        }
        let tag = lines.next()?;
        let mut fields = std::collections::BTreeMap::new();
        for line in lines {
            let (k, v) = line.split_once(' ')?;
            fields.insert(k, v);
        }
        let f64_field = |name: &str| -> Option<f64> {
            u64::from_str_radix(fields.get(name)?, 16)
                .ok()
                .map(f64::from_bits)
        };
        let u64_field = |name: &str| -> Option<u64> { fields.get(name)?.parse().ok() };
        let bool_field = |name: &str| -> Option<bool> {
            match *fields.get(name)? {
                "1" => Some(true),
                "0" => Some(false),
                _ => None,
            }
        };
        match tag {
            "sweep" => Some(PointResult::Sweep(LoadPoint {
                offered: f64_field("offered")?,
                mean_latency_ns: f64_field("mean_latency_ns")?,
                p99_latency_ns: f64_field("p99_latency_ns")?,
                delivered_bytes_per_ns_per_site: f64_field("delivered")?,
                saturated: bool_field("saturated")?,
            })),
            "fault" => Some(PointResult::Fault(FaultSummary {
                clean_delivered: u64_field("clean_delivered")?,
                lost: u64_field("lost")?,
                retries: u64_field("retries")?,
                availability: f64_field("availability")?,
                clean_bytes: u64_field("clean_bytes")?,
                degraded_ns: f64_field("degraded_ns")?,
                end_ns: f64_field("end_ns")?,
                saturated: bool_field("saturated")?,
            })),
            "coherent" => {
                let network_name = *fields.get("network")?;
                Some(PointResult::Coherent(CoherentRun {
                    network: NetworkKind::ALL
                        .into_iter()
                        .find(|k| k.name() == network_name)?,
                    workload: fields.get("workload")?.to_string(),
                    makespan: Span::from_ps(u64_field("makespan_ps")?),
                    mean_op_latency: Span::from_ps(u64_field("mean_op_latency_ps")?),
                    ops_completed: u64_field("ops_completed")?,
                    delivered_bytes: u64_field("delivered_bytes")?,
                    routed_bytes: u64_field("routed_bytes")?,
                    packets: u64_field("packets")?,
                }))
            }
            "replay" => Some(PointResult::Replay(ReplaySummary {
                trace_packets: u64_field("trace_packets")?,
                emitted: u64_field("emitted")?,
                delivered: u64_field("delivered")?,
                delivered_bytes: u64_field("delivered_bytes")?,
                mean_latency_ns: f64_field("mean_latency_ns")?,
                p99_latency_ns: f64_field("p99_latency_ns")?,
                delivered_bytes_per_ns_per_site: f64_field("per_site")?,
                end_ns: f64_field("end_ns")?,
                saturated: bool_field("saturated")?,
                timed_out: bool_field("timed_out")?,
                // Poisoned results are never cached, so a cache entry is
                // always a clean replay.
                poisoned: false,
                trace_last_ps: u64_field("trace_last_ps")?,
                content_hash: u64::from_str_radix(fields.get("content_hash")?, 16).ok()?,
            })),
            _ => None,
        }
    }
}

/// 64-bit FNV-1a over `bytes`, the cache's content hash.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Content hash of a campaign point under `config`: every input that can
/// change the simulation result feeds the key — point kind, pattern, load
/// bits, seed, windows, fault plan, the full platform configuration, the
/// crate version and the cache format.
pub fn point_key(point: &CampaignPoint, config: &MacrochipConfig) -> u64 {
    let mut material = format!(
        "fmt{CACHE_FORMAT}|{}|cfg{:?}|",
        env!("CARGO_PKG_VERSION"),
        config
    );
    match point {
        CampaignPoint::Sweep {
            kind,
            pattern,
            offered,
            options,
        } => {
            material.push_str(&format!(
                "sweep|{:?}|{:?}|load{:016x}|{:?}",
                kind,
                pattern,
                offered.to_bits(),
                options
            ));
        }
        CampaignPoint::Fault {
            kind,
            pattern,
            load,
            plan,
            seed,
            sim,
            drain,
            max_stalled,
        } => {
            material.push_str(&format!(
                "fault|{:?}|{:?}|load{:016x}|plan{}|seed{}|sim{}|drain{}|stall{}",
                kind,
                pattern,
                load.to_bits(),
                plan.to_spec(),
                seed,
                sim.as_ps(),
                drain.as_ps(),
                max_stalled
            ));
        }
        CampaignPoint::Coherent { kind, spec, seed } => {
            material.push_str(&format!("coherent|{:?}|{:?}|seed{}", kind, spec, seed));
        }
        CampaignPoint::Replay {
            kind,
            trace: _, // the content hash identifies the trace, not its path
            content_hash,
            plan,
            seed,
            drain,
            max_stalled,
        } => {
            material.push_str(&format!(
                "replay|{:?}|hash{:016x}|plan{}|seed{}|drain{}|stall{}",
                kind,
                content_hash,
                plan.as_ref()
                    .map_or_else(|| "none".to_string(), |p| p.to_spec()),
                seed,
                drain.as_ps(),
                max_stalled
            ));
        }
    }
    fnv1a64(material.as_bytes())
}

/// Content hash of a campaign point over a multi-chip `fabric`.
///
/// A single-chip fabric returns exactly [`point_key`] of the chip config —
/// 1-chip campaigns hit the same cache entries with or without the fabric
/// layer. A multi-chip board folds the board geometry and inter-chip link
/// parameters into the key on top of the per-chip key, so a `2x2` sweep
/// never collides with a single-chip sweep of the same point.
pub fn fabric_point_key(point: &CampaignPoint, fabric: &FabricConfig) -> u64 {
    let chip_key = point_key(point, &fabric.chip);
    if fabric.is_single() {
        return chip_key;
    }
    let material = format!(
        "fabric{}|link{:?}|chip{:016x}",
        fabric.chips_per_side, fabric.link, chip_key
    );
    fnv1a64(material.as_bytes())
}

/// Side-channel outputs a point execution can capture alongside its
/// [`PointResult`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PointExecOptions {
    /// Record a flight-recorder event stream for the point.
    pub trace: bool,
    /// Snapshot the point's metrics registry.
    pub metrics: bool,
    /// Ring capacity used when `trace` is on.
    pub trace_capacity: usize,
    /// Run the point under the invariant auditor ([`netcore::audit`]) and
    /// return the reconciled [`AuditReport`]. With `metrics` also on, the
    /// snapshot additionally carries the `audit.*` counter family.
    pub audit: bool,
}

/// One executed point, with whatever side channels were requested. All
/// fields are `Send`, so a worker can hand the whole thing back across
/// the shard boundary (the per-worker `Tracer`/`RingSink` themselves never
/// leave the worker — only their snapshots do).
#[derive(Debug, Clone)]
pub struct PointRun {
    pub result: PointResult,
    /// True if [`run_cached`] served the result from the cache without
    /// simulating; its side channels are then empty.
    pub cached: bool,
    /// Recorded trace events, oldest first (empty unless requested).
    pub trace: Vec<(Time, TraceEvent)>,
    /// Metrics snapshot (present only when requested).
    pub metrics: Option<MetricsSnapshot>,
    /// Invariant-audit report (present only when requested; absent for a
    /// replay point whose trace failed to open).
    pub audit: Option<AuditReport>,
}

/// Executes one campaign point to completion on the calling thread.
pub fn run_point(point: &CampaignPoint, config: &MacrochipConfig) -> PointResult {
    run_point_full(
        point,
        &FabricConfig::single(*config),
        PointExecOptions::default(),
    )
    .result
}

/// Executes one campaign point on `fabric`, with optional flight-recorder,
/// metrics and invariant-audit capture: the one runner for single chips
/// and multi-chip boards.
///
/// A single chip is the 1×1 board. The point's network comes from
/// [`networks::build_fabric`], its traffic and fault plans address
/// [`FabricConfig::global_config`], and its auditor is
/// [`Auditor::new_fabric`]; for one chip each of these is the plain
/// single-chip object, so results and cache keys match a campaign that
/// never heard of fabrics. A multi-chip board is driven as one simulation,
/// and its audit adds the `fabric.inter-chip-bytes` reconciliation. Every
/// audited point closes through [`Auditor::close`].
///
/// Tracing and metrics are unsupported for [`CampaignPoint::Coherent`]
/// points (the coherent harness owns its network internally); their side
/// channels come back empty. Auditing **is** supported for coherent
/// points — it routes through [`run_coherent_audited`], which also checks
/// the coherence engine's structural invariants.
///
/// # Panics
///
/// Coherent and replay points are single-chip harnesses; calling this with
/// one on a multi-chip fabric panics. The CLI rejects `--chips` for those
/// subcommands before reaching this layer.
pub fn run_point_full(
    point: &CampaignPoint,
    fabric: &FabricConfig,
    exec: PointExecOptions,
) -> PointRun {
    let single_chip_harness = matches!(
        point,
        CampaignPoint::Coherent { .. } | CampaignPoint::Replay { .. }
    );
    if single_chip_harness && !fabric.is_single() {
        panic!(
            "{} points are single-chip harnesses; a {0} point cannot run on a {}x{} fabric",
            point.tag(),
            fabric.chips_per_side,
            fabric.chips_per_side
        );
    }
    let config = fabric.global_config();
    let sink = Rc::new(RefCell::new(RingSink::new(exec.trace_capacity.max(1))));
    // Coherent points build their auditor inside run_coherent_audited.
    let auditor = (exec.audit && !matches!(point, CampaignPoint::Coherent { .. }))
        .then(|| Rc::new(RefCell::new(Auditor::new_fabric(point.kind(), fabric))));
    let tracer = match (&auditor, exec.trace) {
        (Some(a), true) => {
            let mut tee = TeeSink::new();
            tee.add(&sink);
            tee.add(a);
            Tracer::shared(&Rc::new(RefCell::new(tee)))
        }
        (Some(a), false) => Tracer::shared(a),
        (None, true) => Tracer::shared(&sink),
        (None, false) => Tracer::disabled(),
    };
    // Closes the audit of a driven network and snapshots its metrics:
    // `record` writes the point's own families, then the audit.* family.
    let finish =
        |net: &dyn Network, fault_drops: u64, end: Time, record: &dyn Fn(&mut MetricsRegistry)| {
            let audit = auditor
                .as_ref()
                .map(|a| a.borrow_mut().close(net, fault_drops, end));
            let metrics = exec.metrics.then(|| {
                let mut reg = MetricsRegistry::new();
                record(&mut reg);
                if let Some(report) = &audit {
                    report.record_metrics(&mut reg);
                }
                reg.snapshot()
            });
            (metrics, audit)
        };
    let (result, metrics, audit) = match point {
        CampaignPoint::Sweep {
            kind,
            pattern,
            offered,
            options,
        } => {
            let (p, net) = run_load_point_traced(
                networks::build_fabric(*kind, fabric),
                *pattern,
                *offered,
                &config,
                *options,
                tracer,
            );
            let end = Time::ZERO + options.sim + options.drain;
            let (metrics, audit) = finish(net.as_ref(), 0, end, &|reg| {
                reg.record_net_stats(net.stats());
                reg.set_gauge("run.offered_load", *offered);
            });
            (PointResult::Sweep(p), metrics, audit)
        }
        CampaignPoint::Fault {
            kind,
            pattern,
            load,
            plan,
            seed,
            sim,
            drain,
            max_stalled,
        } => {
            let horizon = Time::ZERO + *sim;
            let mut net =
                ResilientNetwork::new(networks::build_fabric(*kind, fabric), plan, *seed, horizon);
            net.set_tracer(tracer.clone());
            let peak = config.site_bandwidth_bytes_per_ns();
            let mut traffic = OpenLoopTraffic::new(
                &config.grid,
                *pattern,
                *load,
                peak,
                config.data_bytes,
                *seed,
            );
            traffic.set_horizon(horizon);
            let outcome = drive_traced(
                &mut net,
                &mut traffic,
                DriveLimits::for_window(*sim, *drain, *max_stalled),
                tracer,
            );
            let (metrics, audit) = finish(&net, net.fault_stats().dropped, outcome.end, &|reg| {
                net.record_metrics(reg, outcome.end);
                reg.set_gauge("run.offered_load", *load);
            });
            let s = net.fault_stats();
            let result = PointResult::Fault(FaultSummary {
                clean_delivered: s.clean_delivered,
                lost: net.lost_packets(),
                retries: s.retries,
                availability: net.availability(),
                clean_bytes: s.clean_bytes,
                degraded_ns: s.time_degraded(outcome.end).as_ns_f64(),
                end_ns: outcome.end.as_ns_f64(),
                saturated: outcome.saturated,
            });
            (result, metrics, audit)
        }
        CampaignPoint::Coherent { kind, spec, seed } => {
            if exec.audit {
                let (run, report) = run_coherent_audited(
                    *kind,
                    spec,
                    &config,
                    coherence::EngineConfig::default(),
                    *seed,
                );
                (PointResult::Coherent(run), None, Some(report))
            } else {
                (
                    PointResult::Coherent(run_coherent(*kind, spec, &config, *seed)),
                    None,
                    None,
                )
            }
        }
        CampaignPoint::Replay {
            kind,
            trace,
            content_hash,
            plan,
            seed,
            drain,
            max_stalled,
        } => {
            let options = ReplayOptions {
                drain: *drain,
                max_stalled: *max_stalled,
            };
            let path = Path::new(trace);
            // Either branch yields the summary, the driven network and the
            // fault wrapper's permanent drops (none without a plan).
            let run = match plan {
                Some(plan) => {
                    run_replay_faulted(*kind, path, &config, plan, *seed, options, tracer.clone())
                        .map(|(summary, net)| {
                            let drops = net.fault_stats().dropped;
                            (summary, Box::new(net) as Box<dyn Network>, drops)
                        })
                }
                None => run_replay(*kind, path, &config, options, tracer.clone())
                    .map(|(summary, net)| (summary, net, 0)),
            };
            // A trace that cannot be opened or replayed cleanly yields a
            // poisoned (never-cached) summary instead of a panic — the
            // CLI pre-validates traces, so this is the defense in depth.
            match run {
                Ok((summary, net, drops)) => {
                    let end = Time::ZERO + Span::from_ns_f64(summary.end_ns);
                    let (metrics, audit) = finish(net.as_ref(), drops, end, &|reg| {
                        crate::replay_run::record_replay_metrics(reg, net.as_ref(), &summary);
                    });
                    (PointResult::Replay(summary), metrics, audit)
                }
                Err(_) => (
                    PointResult::Replay(ReplaySummary {
                        trace_packets: 0,
                        emitted: 0,
                        delivered: 0,
                        delivered_bytes: 0,
                        mean_latency_ns: 0.0,
                        p99_latency_ns: 0.0,
                        delivered_bytes_per_ns_per_site: 0.0,
                        end_ns: 0.0,
                        saturated: false,
                        timed_out: false,
                        poisoned: true,
                        trace_last_ps: 0,
                        content_hash: *content_hash,
                    }),
                    None,
                    None,
                ),
            }
        }
    };
    let trace = if exec.trace {
        sink.borrow().snapshot()
    } else {
        Vec::new()
    };
    // Audit finalization spans happen after the drive's own flush; roll
    // them up before this worker thread moves to its next point.
    desim::prof::flush();
    PointRun {
        result,
        cached: false,
        trace,
        metrics,
        audit,
    }
}

/// Executes one campaign point through the result cache: the one cache
/// executor behind [`Campaign::run`] and every CLI campaign.
///
/// The cache is keyed by [`fabric_point_key`]. A hit whose stored type
/// matches the point's skips the simulation and carries no side channels;
/// a hit of another type (a key collision) is ignored and recomputed. A
/// miss runs [`run_point_full`] and stores the result only if it is
/// [`PointResult::cacheable`]; a failed store (read-only results dir, disk
/// full) only costs future recomputation. Either way the point counts once
/// in the `PointsDone` host counter.
pub fn run_cached(
    point: &CampaignPoint,
    fabric: &FabricConfig,
    cache: Option<&ResultCache>,
    exec: PointExecOptions,
) -> PointRun {
    let key = fabric_point_key(point, fabric);
    let hit = cache
        .and_then(|c| c.load(key))
        .filter(|hit| hit.tag() == point.tag());
    let run = match hit {
        Some(result) => PointRun {
            result,
            cached: true,
            trace: Vec::new(),
            metrics: None,
            audit: None,
        },
        None => {
            let run = run_point_full(point, fabric, exec);
            if let Some(cache) = cache {
                if run.result.cacheable() {
                    let _ = cache.store(key, &run.result);
                }
            }
            run
        }
    };
    desim::prof::add(desim::prof::Counter::PointsDone, 1);
    run
}

/// Monotonic suffix for cache temp files, so concurrent workers (and
/// duplicate points) never collide mid-write.
static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A content-addressed store of campaign results on disk.
///
/// One file per point, named by the [`point_key`] hash; values are the
/// bit-exact [`PointResult::to_cache_bytes`] encoding. Writes go through a
/// temp file and an atomic rename, so a cache shared by concurrent workers
/// (or concurrent campaigns) never exposes a torn entry.
#[derive(Debug, Clone)]
pub struct ResultCache {
    dir: PathBuf,
}

impl ResultCache {
    /// Opens (creating if needed) a cache rooted at `dir`.
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<ResultCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(ResultCache { dir })
    }

    /// The default cache root: `$MACROCHIP_CACHE_DIR`, else
    /// `results/cache`.
    pub fn default_dir() -> PathBuf {
        match std::env::var("MACROCHIP_CACHE_DIR") {
            Ok(dir) if !dir.is_empty() => PathBuf::from(dir),
            _ => Path::new("results").join("cache"),
        }
    }

    /// Where the cache lives.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file an entry with `key` is stored at.
    pub fn path_for(&self, key: u64) -> PathBuf {
        self.dir.join(format!("{key:016x}.v{CACHE_FORMAT}.txt"))
    }

    /// Loads the entry for `key`, if present and well-formed.
    ///
    /// Lookup wall-clock and the hit/miss verdict feed the `host.*`
    /// cache counters (a "hit" here means the entry decoded; callers may
    /// still reject it on a tag mismatch).
    pub fn load(&self, key: u64) -> Option<PointResult> {
        use desim::prof::{self, Counter};
        let start = std::time::Instant::now();
        let result = std::fs::read_to_string(self.path_for(key))
            .ok()
            .and_then(|bytes| PointResult::from_cache_bytes(&bytes));
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if result.is_some() {
            prof::add(Counter::CacheHits, 1);
            prof::add(Counter::CacheHitNs, ns);
        } else {
            prof::add(Counter::CacheMisses, 1);
            prof::add(Counter::CacheMissNs, ns);
        }
        result
    }

    /// Stores `result` under `key` (atomic write-then-rename).
    pub fn store(&self, key: u64, result: &PointResult) -> std::io::Result<()> {
        let tmp = self.dir.join(format!(
            "{key:016x}.tmp.{}.{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, result.to_cache_bytes())?;
        std::fs::rename(&tmp, self.path_for(key))
    }

    /// Lists every entry in the cache: `(path, bytes, modified)`. Files
    /// that are not cache entries (temp files, strays) are skipped.
    fn entries(&self) -> std::io::Result<Vec<(PathBuf, u64, std::time::SystemTime)>> {
        let mut out = Vec::new();
        for dirent in std::fs::read_dir(&self.dir)? {
            let dirent = dirent?;
            let path = dirent.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            // Entries are "<16 hex>.v<N>.txt"; anything else is a temp
            // file mid-write or unrelated, and not ours to account for.
            let is_entry = name.len() >= 16
                && name.as_bytes()[..16].iter().all(u8::is_ascii_hexdigit)
                && name[16..].starts_with(".v")
                && name.ends_with(".txt");
            if !is_entry {
                continue;
            }
            let meta = dirent.metadata()?;
            let modified = meta.modified().unwrap_or(std::time::UNIX_EPOCH);
            out.push((path, meta.len(), modified));
        }
        Ok(out)
    }

    /// Entry count and total size of the cache.
    pub fn stats(&self) -> std::io::Result<CacheStats> {
        let entries = self.entries()?;
        Ok(CacheStats {
            entries: entries.len(),
            bytes: entries.iter().map(|(_, b, _)| b).sum(),
        })
    }

    /// Evicts entries: everything modified more than `older_than` ago,
    /// then (if still over) oldest-first until the cache holds at most
    /// `max_bytes`. Either bound may be `None` (no constraint). Returns
    /// what was removed.
    pub fn prune(
        &self,
        max_bytes: Option<u64>,
        older_than: Option<std::time::Duration>,
    ) -> std::io::Result<CacheStats> {
        let mut entries = self.entries()?;
        // Oldest first, path as a tie-break so same-mtime entries (coarse
        // filesystem clocks) evict in a stable order.
        entries.sort_by(|a, b| a.2.cmp(&b.2).then_with(|| a.0.cmp(&b.0)));
        let mut total: u64 = entries.iter().map(|(_, b, _)| b).sum();
        // An age older than the clock can represent leaves no cutoff, so
        // nothing has expired.
        let cutoff = older_than.and_then(|age| std::time::SystemTime::now().checked_sub(age));
        let mut removed = CacheStats {
            entries: 0,
            bytes: 0,
        };
        for (path, bytes, modified) in entries {
            let expired = cutoff.is_some_and(|c| modified <= c);
            let over = max_bytes.is_some_and(|cap| total > cap);
            if !expired && !over {
                if max_bytes.is_none() {
                    break; // age-only prune and this entry is young enough
                }
                continue;
            }
            std::fs::remove_file(&path)?;
            total -= bytes;
            removed.entries += 1;
            removed.bytes += bytes;
        }
        Ok(removed)
    }
}

/// Entry count and total bytes, as reported by [`ResultCache::stats`] and
/// (for the removed set) [`ResultCache::prune`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    pub entries: usize,
    pub bytes: u64,
}

/// One executed campaign point: its result and whether it came from cache.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignOutcome {
    pub result: PointResult,
    /// True if the result was served from the cache without simulating.
    pub cached: bool,
}

/// A configured campaign executor: worker count, optional cache, platform
/// configuration.
#[derive(Debug)]
pub struct Campaign {
    /// Worker threads; `0` auto-detects, `1` is strictly serial.
    pub jobs: usize,
    /// Result cache, or `None` to always simulate.
    pub cache: Option<ResultCache>,
    /// Platform configuration shared by every point.
    pub config: MacrochipConfig,
}

impl Campaign {
    /// A serial, uncached campaign under `config`.
    pub fn serial(config: MacrochipConfig) -> Campaign {
        Campaign {
            jobs: 1,
            cache: None,
            config,
        }
    }

    /// Executes every point, sharded across [`Campaign::jobs`] workers,
    /// returning outcomes in input order (byte-identical to `jobs = 1`).
    ///
    /// Each worker runs its point through [`run_cached`] on the one-chip
    /// board of [`Campaign::config`]: a hit skips the simulation entirely,
    /// a miss simulates and persists the result.
    pub fn run(&self, points: &[CampaignPoint]) -> Vec<CampaignOutcome> {
        let fabric = FabricConfig::single(self.config);
        run_indexed(points, self.jobs, |_, point| {
            let run = run_cached(
                point,
                &fabric,
                self.cache.as_ref(),
                PointExecOptions::default(),
            );
            CampaignOutcome {
                result: run.result,
                cached: run.cached,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> MacrochipConfig {
        MacrochipConfig::scaled()
    }

    fn temp_cache(label: &str) -> ResultCache {
        let dir = std::env::temp_dir().join(format!(
            "macrochip-campaign-{label}-{}-{}",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        ResultCache::new(dir).expect("temp cache dir")
    }

    #[test]
    fn run_indexed_preserves_input_order_for_any_worker_count() {
        let items: Vec<u64> = (0..37).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for jobs in [0, 1, 2, 3, 4, 8, 64] {
            let out = run_indexed(&items, jobs, |_, &x| x * x + 1);
            assert_eq!(out, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn run_indexed_handles_empty_and_single_item() {
        let empty: Vec<u32> = Vec::new();
        assert!(run_indexed(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(run_indexed(&[9u32], 4, |i, &x| (i, x)), vec![(0, 9)]);
    }

    #[test]
    fn sweep_point_round_trips_through_cache_bytes_exactly() {
        let p = PointResult::Sweep(LoadPoint {
            offered: 0.1,
            mean_latency_ns: 17.348_222_1,
            p99_latency_ns: 88.125,
            delivered_bytes_per_ns_per_site: 31.999_999_999,
            saturated: false,
        });
        let bytes = p.to_cache_bytes();
        let back = PointResult::from_cache_bytes(&bytes).expect("parses");
        assert_eq!(back, p);
        assert_eq!(back.to_cache_bytes(), bytes);
    }

    #[test]
    fn malformed_cache_bytes_are_rejected() {
        assert!(PointResult::from_cache_bytes("").is_none());
        assert!(PointResult::from_cache_bytes("macrochip-campaign-cache v999\nsweep\n").is_none());
        let truncated = "macrochip-campaign-cache v1\nsweep\noffered zz\n";
        assert!(PointResult::from_cache_bytes(truncated).is_none());
    }

    #[test]
    fn point_key_separates_distinct_points() {
        let config = config();
        let sweep = |kind: NetworkKind, offered: f64| CampaignPoint::Sweep {
            kind,
            pattern: Pattern::Uniform,
            offered,
            options: SweepOptions::default(),
        };
        let base = sweep(NetworkKind::PointToPoint, 0.1);
        let other_load = sweep(NetworkKind::PointToPoint, 0.2);
        let other_net = sweep(NetworkKind::TokenRing, 0.1);
        let k0 = point_key(&base, &config);
        assert_ne!(k0, point_key(&other_load, &config));
        assert_ne!(k0, point_key(&other_net, &config));
        // Stable within a process/version.
        assert_eq!(k0, point_key(&base, &config));
    }

    #[test]
    fn fabric_point_key_is_point_key_for_a_single_chip() {
        // The load-bearing cache guarantee: adding the fabric layer must
        // not invalidate (or fork) any existing single-chip cache entry.
        let config = config();
        let point = CampaignPoint::Sweep {
            kind: NetworkKind::Hierarchical,
            pattern: Pattern::Uniform,
            offered: 0.1,
            options: SweepOptions::default(),
        };
        let single = FabricConfig::single(config);
        assert_eq!(
            fabric_point_key(&point, &single),
            point_key(&point, &config)
        );
    }

    #[test]
    fn fabric_point_key_separates_board_geometries() {
        let config = config();
        let point = CampaignPoint::Sweep {
            kind: NetworkKind::TokenRing,
            pattern: Pattern::Uniform,
            offered: 0.1,
            options: SweepOptions::default(),
        };
        let k1 = fabric_point_key(&point, &FabricConfig::single(config));
        let k2 = fabric_point_key(&point, &FabricConfig::grid(2, config));
        let k3 = fabric_point_key(&point, &FabricConfig::grid(3, config));
        assert_ne!(k1, k2);
        assert_ne!(k2, k3);
        let mut longer = FabricConfig::grid(2, config);
        longer.link.chip_pitch_cm *= 2.0;
        assert_ne!(k2, fabric_point_key(&point, &longer));
    }

    #[test]
    fn fabric_sweep_point_runs_audited_on_a_two_by_two_board() {
        let chip = MacrochipConfig::with_side(4);
        let fabric = FabricConfig::grid(2, chip);
        let point = CampaignPoint::Sweep {
            kind: NetworkKind::TokenRing,
            pattern: Pattern::Uniform,
            offered: 0.05,
            options: SweepOptions {
                sim: Span::from_ns(500),
                drain: Span::from_us(5),
                ..SweepOptions::default()
            },
        };
        let run = run_point_full(
            &point,
            &fabric,
            PointExecOptions {
                audit: true,
                ..PointExecOptions::default()
            },
        );
        let report = run.audit.expect("audit requested");
        assert!(
            report.is_clean(),
            "fabric sweep audit violations: {:?}",
            report.violations
        );
        match run.result {
            PointResult::Sweep(p) => assert!(p.delivered_bytes_per_ns_per_site > 0.0),
            other => panic!("expected a sweep result, got {other:?}"),
        }
    }

    #[test]
    fn cache_store_load_round_trips() {
        let cache = temp_cache("roundtrip");
        let result = PointResult::Fault(FaultSummary {
            clean_delivered: 1000,
            lost: 3,
            retries: 17,
            availability: 0.997,
            clean_bytes: 64_000,
            degraded_ns: 1_234.5,
            end_ns: 25_000.0,
            saturated: false,
        });
        assert!(cache.load(42).is_none());
        cache.store(42, &result).expect("store");
        assert_eq!(cache.load(42), Some(result));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn cache_stats_count_entries_and_ignore_strays() {
        let cache = temp_cache("stats");
        let empty = cache.stats().expect("stats");
        assert_eq!((empty.entries, empty.bytes), (0, 0));
        let result = PointResult::Sweep(LoadPoint {
            offered: 0.1,
            mean_latency_ns: 10.0,
            p99_latency_ns: 20.0,
            delivered_bytes_per_ns_per_site: 1.0,
            saturated: false,
        });
        cache.store(1, &result).expect("store");
        cache.store(2, &result).expect("store");
        // Strays — a temp file mid-write and an unrelated file — are not
        // entries and must not be counted (or pruned).
        std::fs::write(cache.dir().join("deadbeef.tmp.1.2"), "partial").unwrap();
        std::fs::write(cache.dir().join("README"), "not a cache entry").unwrap();
        let stats = cache.stats().expect("stats");
        assert_eq!(stats.entries, 2);
        assert_eq!(
            stats.bytes,
            2 * result.to_cache_bytes().len() as u64,
            "bytes must sum entry file sizes"
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn cache_prune_respects_size_and_age_bounds() {
        let cache = temp_cache("prune");
        let result = PointResult::Sweep(LoadPoint {
            offered: 0.2,
            mean_latency_ns: 11.0,
            p99_latency_ns: 21.0,
            delivered_bytes_per_ns_per_site: 2.0,
            saturated: true,
        });
        let entry_bytes = result.to_cache_bytes().len() as u64;
        for key in 0..4 {
            cache.store(key, &result).expect("store");
        }
        std::fs::write(cache.dir().join("README"), "stray").unwrap();

        // No bounds: nothing to do.
        let noop = cache.prune(None, None).expect("prune");
        assert_eq!(noop.entries, 0);
        // A huge age cutoff removes nothing, and so does one older than
        // the clock can represent.
        for age in [
            std::time::Duration::from_secs(1 << 20),
            std::time::Duration::MAX,
        ] {
            let young = cache.prune(None, Some(age)).expect("prune");
            assert_eq!(young.entries, 0);
        }
        // Cap at two entries' worth: the two oldest go.
        let trimmed = cache.prune(Some(2 * entry_bytes), None).expect("prune");
        assert_eq!(trimmed.entries, 2);
        assert_eq!(trimmed.bytes, 2 * entry_bytes);
        assert_eq!(cache.stats().unwrap().entries, 2);
        // Zero age removes everything that remains; the stray survives.
        let rest = cache
            .prune(None, Some(std::time::Duration::ZERO))
            .expect("prune");
        assert_eq!(rest.entries, 2);
        assert_eq!(cache.stats().unwrap().entries, 0);
        assert!(cache.dir().join("README").exists());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn campaign_cache_hit_skips_simulation_and_matches_miss() {
        let coherent_spec = WorkloadSpec::Synthetic {
            pattern: Pattern::Transpose,
            mix: workloads::SharingMix::LessSharing,
            ops_per_core: 5,
        };
        let points = vec![
            CampaignPoint::Sweep {
                kind: NetworkKind::PointToPoint,
                pattern: Pattern::Uniform,
                offered: 0.05,
                options: SweepOptions {
                    sim: Span::from_ns(500),
                    drain: Span::from_us(2),
                    max_stalled: 2_000,
                    seed: 7,
                },
            },
            CampaignPoint::Fault {
                kind: NetworkKind::PointToPoint,
                pattern: Pattern::Uniform,
                load: 0.02,
                plan: FaultPlan::parse("transient=0.01").expect("plan"),
                seed: 7,
                sim: Span::from_ns(500),
                drain: Span::from_us(2),
                max_stalled: 2_000,
            },
            CampaignPoint::Coherent {
                kind: NetworkKind::TokenRing,
                spec: coherent_spec.clone(),
                seed: 7,
            },
        ];
        let campaign = Campaign {
            jobs: 1,
            cache: Some(temp_cache("hit")),
            config: config(),
        };
        let cold = campaign.run(&points);
        assert!(cold.iter().all(|o| !o.cached), "cold run must simulate");
        // The coherent cell is the plain harness run, bit for bit.
        let direct = run_coherent(NetworkKind::TokenRing, &coherent_spec, &config(), 7);
        assert_eq!(cold[2].result, PointResult::Coherent(direct.clone()));
        assert_eq!(
            cold[2].result.to_cache_bytes(),
            PointResult::Coherent(direct).to_cache_bytes()
        );
        let warm = campaign.run(&points);
        assert!(warm.iter().all(|o| o.cached), "warm run must hit");
        for (a, b) in cold.iter().zip(&warm) {
            assert_eq!(a.result, b.result);
            assert_eq!(a.result.to_cache_bytes(), b.result.to_cache_bytes());
        }
        let _ = std::fs::remove_dir_all(campaign.cache.as_ref().unwrap().dir());
    }

    #[test]
    fn resolve_jobs_auto_detects_zero() {
        assert!(resolve_jobs(0) >= 1);
        assert_eq!(resolve_jobs(3), 3);
    }

    /// Captures a tiny uniform run to a temp `.mtrc` file.
    fn temp_trace(label: &str) -> (PathBuf, u64) {
        use crate::sweep::run_load_point_observed;
        let cfg = config();
        let dir = std::env::temp_dir();
        let path = dir.join(format!(
            "macrochip-replay-{label}-{}-{}.mtrc",
            std::process::id(),
            TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let meta = replay::TraceMeta {
            grid_side: cfg.grid.side() as u16,
            seed: 5,
            description: "campaign test".into(),
        };
        let mut writer = Some(replay::create_file(&path, &meta).expect("create"));
        let _ = run_load_point_observed(
            networks::build(NetworkKind::PointToPoint, cfg),
            Pattern::Uniform,
            0.02,
            &cfg,
            SweepOptions {
                sim: Span::from_ns(300),
                drain: Span::from_us(2),
                max_stalled: 2_000,
                seed: 5,
            },
            Tracer::disabled(),
            |p| {
                writer.as_mut().expect("live").record(p).expect("record");
            },
        );
        let (_, header) = writer.take().expect("writer").finish().expect("finish");
        (path, header.content_hash)
    }

    #[test]
    fn replay_points_run_cache_and_round_trip() {
        let (path, content_hash) = temp_trace("point");
        let point = CampaignPoint::Replay {
            kind: NetworkKind::PointToPoint,
            trace: path.to_string_lossy().into_owned(),
            content_hash,
            plan: None,
            seed: 0,
            drain: Span::from_us(2),
            max_stalled: 2_000,
        };
        let campaign = Campaign {
            jobs: 1,
            cache: Some(temp_cache("replay")),
            config: config(),
        };
        let cold = campaign.run(std::slice::from_ref(&point));
        assert!(!cold[0].cached);
        let PointResult::Replay(ref summary) = cold[0].result else {
            panic!("expected replay result");
        };
        assert!(!summary.poisoned);
        assert!(summary.delivered > 0);
        assert_eq!(summary.emitted, summary.trace_packets);
        assert_eq!(summary.content_hash, content_hash);

        // Warm: served from cache, byte-identical encoding.
        let warm = campaign.run(std::slice::from_ref(&point));
        assert!(warm[0].cached);
        assert_eq!(warm[0].result, cold[0].result);
        assert_eq!(
            warm[0].result.to_cache_bytes(),
            cold[0].result.to_cache_bytes()
        );

        // The key covers the content hash, not the path: a renamed trace
        // still hits the same entry.
        let moved = path.with_extension("moved.mtrc");
        std::fs::rename(&path, &moved).expect("rename");
        let renamed = CampaignPoint::Replay {
            kind: NetworkKind::PointToPoint,
            trace: moved.to_string_lossy().into_owned(),
            content_hash,
            plan: None,
            seed: 0,
            drain: Span::from_us(2),
            max_stalled: 2_000,
        };
        assert_eq!(
            point_key(&point, &campaign.config),
            point_key(&renamed, &campaign.config)
        );
        let hit = campaign.run(std::slice::from_ref(&renamed));
        assert!(hit[0].cached);

        let _ = std::fs::remove_file(&moved);
        let _ = std::fs::remove_dir_all(campaign.cache.as_ref().unwrap().dir());
    }

    #[test]
    fn missing_trace_poisons_and_is_never_cached() {
        let point = CampaignPoint::Replay {
            kind: NetworkKind::PointToPoint,
            trace: "/nonexistent/never.mtrc".into(),
            content_hash: 0xDEAD,
            plan: None,
            seed: 0,
            drain: Span::from_us(2),
            max_stalled: 2_000,
        };
        let campaign = Campaign {
            jobs: 1,
            cache: Some(temp_cache("poison")),
            config: config(),
        };
        let out = campaign.run(std::slice::from_ref(&point));
        let PointResult::Replay(ref summary) = out[0].result else {
            panic!("expected replay result");
        };
        assert!(summary.poisoned);
        assert!(!out[0].result.cacheable());
        // No entry may be left behind: every later replay of the repaired
        // trace would hit it. The CLI's campaigns share this executor.
        let cache = campaign.cache.as_ref().unwrap();
        assert_eq!(cache.stats().expect("stats").entries, 0);
        // Second run must recompute, not hit a poisoned cache entry.
        let again = campaign.run(std::slice::from_ref(&point));
        assert!(!again[0].cached);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn replay_summary_round_trips_through_cache_bytes() {
        let r = PointResult::Replay(ReplaySummary {
            trace_packets: 12_345,
            emitted: 12_345,
            delivered: 12_340,
            delivered_bytes: 790_080,
            mean_latency_ns: 17.25,
            p99_latency_ns: 99.5,
            delivered_bytes_per_ns_per_site: 3.2,
            end_ns: 25_000.0,
            saturated: false,
            timed_out: true,
            poisoned: false,
            trace_last_ps: 4_999_850,
            content_hash: 0x0123_4567_89ab_cdef,
        });
        let bytes = r.to_cache_bytes();
        let back = PointResult::from_cache_bytes(&bytes).expect("parses");
        assert_eq!(back, r);
        assert_eq!(back.to_cache_bytes(), bytes);
    }

    #[test]
    fn cache_dir_env_override_order() {
        // Serialized via a lock-free convention: this test is the only
        // one touching this env var.
        std::env::remove_var("MACROCHIP_CACHE_DIR");
        assert_eq!(
            ResultCache::default_dir(),
            Path::new("results").join("cache")
        );
        std::env::set_var("MACROCHIP_CACHE_DIR", "new-dir");
        assert_eq!(ResultCache::default_dir(), PathBuf::from("new-dir"));
        std::env::set_var("MACROCHIP_CACHE_DIR", "");
        assert_eq!(
            ResultCache::default_dir(),
            Path::new("results").join("cache")
        );
        std::env::remove_var("MACROCHIP_CACHE_DIR");
    }
}
