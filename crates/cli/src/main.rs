//! `macrochip` — command-line front end to the simulator.
//!
//! ```text
//! macrochip tables
//! macrochip sweep     --network p2p --pattern uniform --loads 0.1,0.3,0.6 [--jobs 4]
//! macrochip sustained --network all --pattern uniform
//! macrochip coherent  --workload Swaptions --network all [--ops 40]
//! macrochip mp        --collective butterfly [--bytes 1024] [--rounds 2]
//! macrochip faults    --network all [--faults "rand-links=2; transient=0.01"] [--jobs 4]
//! macrochip run-all   [--pattern uniform] [--jobs 0] [--no-cache]
//! macrochip capture   --out run.mtrc --pattern uniform [--load 0.05]
//! macrochip replay    --trace run.mtrc [--network all] [--faults "rand-links=2"]
//! macrochip trace-info run.mtrc | --dir traces/ [--write-index]
//! macrochip trace-transform --trace run.mtrc --out half.mtrc --truncate-ns 500
//! macrochip cache     stats | prune [--max-bytes N] [--older-than SPAN]
//! ```
//!
//! Argument parsing is deliberately dependency-free. The four campaign
//! commands (sweep, faults, run-all, replay) differ only in their flags,
//! their point lists and their manifests: [`run_campaign`] runs and files
//! their points, and [`write_outputs`] writes what every measuring command
//! exports.

use coherence::EngineConfig;
use desim::prof;
use desim::trace::{chrome_trace_json, RingSink};
use desim::{Span, Time, TraceEvent, Tracer};
use macrochip::campaign::{self, CampaignPoint, PointExecOptions, PointResult};
use macrochip::experiment::run_coherent_observed;
use macrochip::names;
use macrochip::prelude::*;
use macrochip::report::{self, fmt, Table};
use macrochip::runner::{drive, DriveLimits};
use macrochip::sweep::{run_load_point_observed, run_load_point_traced, sustained_bandwidth};
use netcore::audit::AuditReport;
use netcore::{FabricConfig, MetricsRegistry, MetricsSnapshot};
use replay::{CaptureSink, CorpusManifest, TraceMeta};
use std::cell::RefCell;
use std::fs::File;
use std::io::BufWriter;
use std::path::Path;
use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;
use workloads::MessagePassingWorkload;

const USAGE: &str = "\
macrochip — silicon-photonic multi-chip network simulator (ISCA 2010 reproduction)

USAGE:
    macrochip tables    [--side <N>] [--chips <M>]
    macrochip sweep     --network <NET> --pattern <PAT> [--loads 0.1,0.3,...]
                        [--chips <M>]
    macrochip sustained --network <NET|all> --pattern <PAT>
    macrochip coherent  --workload <NAME> --network <NET|all> [--ops <N>]
    macrochip mp        --collective <COLL> [--bytes <B>] [--rounds <R>]
    macrochip faults    --network <NET|all> [--pattern <PAT>] [--load <F>]
                        [--faults <SPEC>] [--seed <N>] [--duration-short]
                        [--chips <M>]
    macrochip run-all   [--pattern <PAT>] [--seed <N>] [--duration-short]
                        [--chips <M>]
    macrochip capture   --out <FILE.mtrc> --pattern <PAT> [--load <F>]
                        [--network <NET>] [--seed <N>] [--duration-short]
                        [--stats <FILE>]
                        (or --workload <NAME> [--ops <N>] for a coherent run)
    macrochip replay    --trace <FILE.mtrc> [--network <NET|all>]
                        [--faults <SPEC>] [--seed <N>] [--duration-short]
                        [--jobs <N>] [--no-cache] [--stats <FILE>]
                        [--metrics <FILE>] [--trace-out <FILE>] [--audit]
    macrochip trace-info <FILE.mtrc>... | --dir <DIR> [--write-index]
    macrochip trace-transform --trace <IN.mtrc> --out <OUT.mtrc>
                        (--time-scale <N/D> | --truncate <N>
                         | --truncate-ns <NS> | --keep-kind <KIND>
                         | --remap <rot:K|i,j,...> | --merge <A,B,...>)
    macrochip cache     stats | prune [--max-bytes <N>] [--older-than <AGE>]

NETWORKS:   p2p, limited, token, circuit, two-phase, two-phase-alt,
            hierarchical, all
PATTERNS:   uniform, transpose, butterfly, neighbor, all-to-all, hotspot

GEOMETRY:
    --side <N>         simulate an NxN macrochip instead of the paper's
                       8x8 (tables, sweep, sustained, coherent, mp,
                       faults, run-all, capture, replay).
                       Per-site bandwidths stay at the paper's figures;
                       photonic component counts, laser power and
                       propagation delays scale with the geometry. The
                       hierarchical network is designed for N > 8, where
                       the five flat architectures' provisioning grows
                       quadratically.
    --chips <M>        simulate an MxM board of macrochips (tables,
                       sweep, faults, run-all; default 1). Each
                       chip runs its own instance of the chosen network;
                       every chip's gateway site (its local (0,0)) gets
                       a dedicated board-level WDM link to every other
                       gateway, with its own loss budget, laser power
                       and per-byte transceiver energy (see `tables
                       --chips M`). Traffic, fault specs and reports
                       address the flat (M*N)x(M*N) site grid. --chips 1
                       is byte-identical to not passing the flag, cache
                       keys included. The single-chip harnesses
                       (sustained, coherent, mp, capture, replay) reject
                       the flag.
WORKLOADS:  Radix, Barnes, Blackscholes, Densities, Forces, Swaptions,
            or a pattern name (synthetic, LS mix)
COLLECTIVES: ring, butterfly, halo, all-to-all

FAULT SPEC (clauses joined with ';'):
    link:3->17@2us  laser:5@500ns  site:12@1us   explicit faults
    rand-links=N    transient=P | transient=xtalk:K
    repair=SPAN     retries=N     backoff=SPAN   no-recovery

OUTPUT (each flag names the commands that take it):
    --trace <FILE>     (sweep, sustained, faults, run-all; replay calls it
                       --trace-out, as its --trace is the input) write a
                       Chrome-trace-event JSON flight recording (open in
                       ui.perfetto.dev or chrome://tracing)
    --metrics <FILE>   (sweep, sustained, faults, run-all, replay) write
                       metrics and a run manifest; JSON, or CSV when the
                       file name ends in .csv
    --audit            (sweep, faults, run-all, coherent, replay) run the
                       invariant auditor over every point: packet
                       conservation, causality and physical latency
                       floors, per-architecture resource invariants.
                       Violations are printed with packet id, site and sim
                       time, exported as the audit.* metrics family, and
                       fail the command with a nonzero exit.
    -q, --quiet        (every --metrics or --audit command, and capture)
                       suppress the result table and the audit summary
    -v, --verbose      (every --metrics command) print one stderr line
                       per point, prefixed with the command name
    --progress         (sweep, faults, run-all, replay) stream a live
                       status line to stderr every 500 ms (points done,
                       furthest sim time, events, events/sec, ETA) read
                       from the always-on host counters; never perturbs
                       results
    --host-metrics     append a host.* metrics family (wall-clock,
                       events/sec, peak RSS, profiler span table) to the
                       --metrics output. Host figures are wall-clock
                       derived and nondeterministic, so they are off by
                       default to keep exported snapshots byte-identical
                       across reruns
    --profile          (every command) enable the span profiler (event
                       dispatch, network step, injection, source, trace
                       fan-out, audit) and print its self/total table to
                       stderr last. Simulation results are byte-identical
                       either way

PARALLELISM (sweep, faults, run-all, replay — campaign engine):
    --jobs <N>         shard independent points across N worker threads
                       (default 1 = serial; 0 = one per hardware thread).
                       Output is byte-identical for every N.
    --no-cache         always simulate, bypassing the content-addressed
                       result cache under results/cache/ (override the
                       location with MACROCHIP_CACHE_DIR). Runs that record
                       a --trace, --metrics or --stats side channel skip
                       the cache automatically.
    cache stats / cache prune inspect and bound that cache (prune by
    --max-bytes total size and/or --older-than age: 30s, 10m, 2h, 7d).

TRACES (capture, replay — the cross-network comparison harness):
    capture records every injected packet into a compact binary .mtrc
    trace, writes a .manifest.json provenance sidecar next to it and
    regenerates the directory's MANIFEST.json corpus index. replay streams
    a trace back through any network (optionally under a fault plan), so
    every architecture is judged on identical traffic; a same-network
    replay reproduces the live run's stats byte-for-byte. --stats writes
    the net.*-family metrics snapshot both sides use for that comparison.
    KINDS for --keep-kind: data, request, forward, invalidate, ack, control
";

/// Retained trace events per load point; the ring keeps the most recent
/// window when a point overflows it.
const TRACE_EVENTS_PER_POINT: usize = 1 << 16;

/// Output controls shared by the measurement subcommands.
struct OutputOpts {
    trace: Option<String>,
    metrics: Option<String>,
    audit: bool,
    quiet: bool,
    verbose: bool,
    /// Stream live status lines from the host counters (`--progress`).
    progress: bool,
    /// Export the nondeterministic host.* metrics family
    /// (`--host-metrics`); off by default so metrics files stay
    /// byte-identical across reruns.
    host_metrics: bool,
    /// When the command started and the host event counter then, for the
    /// manifest's wall-clock and events/sec.
    started: Instant,
    events_base: u64,
}

impl OutputOpts {
    /// `trace_flag` names the Chrome-trace output: `--trace`, except on
    /// replay, whose `--trace` is its input `.mtrc` and must never be
    /// written.
    fn parse(args: &[String], trace_flag: &str) -> OutputOpts {
        OutputOpts {
            trace: flag(args, trace_flag),
            metrics: flag(args, "--metrics"),
            audit: switch(args, "--audit"),
            quiet: switch(args, "-q") || switch(args, "--quiet"),
            verbose: switch(args, "-v") || switch(args, "--verbose"),
            progress: switch(args, "--progress"),
            host_metrics: switch(args, "--host-metrics"),
            started: Instant::now(),
            events_base: prof::counter(prof::Counter::SimEvents),
        }
    }

    /// The side channels each point must record for these outputs.
    fn exec(&self) -> PointExecOptions {
        PointExecOptions {
            trace: self.trace.is_some(),
            metrics: self.metrics.is_some(),
            audit: self.audit,
            trace_capacity: TRACE_EVENTS_PER_POINT,
        }
    }
}

/// Accumulates per-point audit reports across a campaign and renders the
/// final verdict: a one-line all-clear on stderr, or every recorded
/// violation (packet id, site, sim time) plus a hard error.
struct AuditLog {
    enabled: bool,
    points: usize,
    violations: u64,
    lines: Vec<String>,
}

impl AuditLog {
    fn new(enabled: bool) -> AuditLog {
        AuditLog {
            enabled,
            points: 0,
            violations: 0,
            lines: Vec::new(),
        }
    }

    fn absorb(&mut self, label: &str, report: Option<&AuditReport>) {
        let Some(report) = report else { return };
        self.points += 1;
        self.violations += report.total_violations;
        for line in report.violation_lines() {
            self.lines.push(format!("[{label}] {line}"));
        }
    }

    fn finish(self, quiet: bool) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        if self.violations == 0 {
            if !quiet {
                eprintln!("[audit] {} points audited, 0 violations", self.points);
            }
            return Ok(());
        }
        for line in &self.lines {
            eprintln!("[audit] {line}");
        }
        Err(format!(
            "audit: {} invariant violation(s) across {} audited point(s)",
            self.violations, self.points
        ))
    }
}

/// Campaign-engine controls shared by `sweep`, `faults`, `run-all` and
/// `replay`.
struct JobOpts {
    /// Worker threads; `0` auto-detects, `1` (the default) is serial.
    jobs: usize,
    /// Bypass the content-addressed result cache.
    no_cache: bool,
}

impl JobOpts {
    fn parse(args: &[String]) -> Result<JobOpts, String> {
        let jobs = match flag(args, "--jobs") {
            Some(s) => s.parse().map_err(|_| format!("bad --jobs {s}"))?,
            None => 1,
        };
        Ok(JobOpts {
            jobs,
            no_cache: switch(args, "--no-cache"),
        })
    }
}

/// Opens the default result cache unless the user disabled it or the run
/// records a side channel — traces and metrics are not cached, so serving
/// a hit would silently drop them.
fn open_cache(
    no_cache: bool,
    side_channels: bool,
) -> Result<Option<campaign::ResultCache>, String> {
    if no_cache || side_channels {
        return Ok(None);
    }
    let dir = campaign::ResultCache::default_dir();
    campaign::ResultCache::new(dir.clone())
        .map(Some)
        .map_err(|e| format!("opening cache {}: {e}", dir.display()))
}

/// One exported measurement: run label, offered load, its metrics.
struct RunRecord {
    network: String,
    offered: f64,
    saturated: bool,
    snapshot: MetricsSnapshot,
}

/// A campaign's points, filed in point order: one result table per point
/// type, and the side channels [`CampaignRun::finish`] exports.
struct CampaignRun {
    sweep: Table,
    fault: Table,
    replay: Table,
    /// Sweep points that saturated.
    saturated: usize,
    sections: Vec<(String, Vec<(Time, TraceEvent)>)>,
    /// One metrics record per point that recorded a snapshot.
    runs: Vec<RunRecord>,
    audit: AuditLog,
    /// Resolved worker count.
    jobs: usize,
    cache: Option<campaign::ResultCache>,
    hits: usize,
    points: usize,
}

/// The one campaign driver behind sweep, faults, run-all and replay. Runs
/// `points` on `--jobs` workers through the result cache, with live
/// progress, then files each point in order: its row in the table for its
/// result type, its audit report, trace section, metrics record and `-v`
/// line, each under the label that point type has always carried.
fn run_campaign(
    cmd: &str,
    points: &[CampaignPoint],
    fabric: &FabricConfig,
    exec: PointExecOptions,
    jobs: &JobOpts,
    out: &OutputOpts,
) -> Result<CampaignRun, String> {
    let cache = open_cache(jobs.no_cache, exec.trace || exec.metrics || exec.audit)?;
    let cells = {
        let _progress = ProgressReporter::start(cmd, points.len(), out.progress);
        campaign::run_cached(points, fabric, cache.as_ref(), jobs.jobs, exec)
    };
    let mut run = CampaignRun {
        sweep: report::sweep_table(),
        fault: report::fault_table(),
        replay: report::replay_table(),
        saturated: 0,
        sections: Vec::new(),
        runs: Vec::new(),
        audit: AuditLog::new(exec.audit),
        jobs: campaign::resolve_jobs(jobs.jobs),
        hits: cells.iter().filter(|cell| cell.cached).count(),
        cache,
        points: points.len(),
    };
    for (point, cell) in points.iter().zip(cells) {
        let kind = point.kind();
        let name = kind.name();
        // (audit label, trace label, load on record, saturated, -v line)
        let (audit_label, trace_label, offered, saturated, line) = match (point, &cell.result) {
            (
                &CampaignPoint::Sweep {
                    pattern, offered, ..
                },
                PointResult::Sweep(p),
            ) => {
                run.saturated += usize::from(p.saturated);
                report::sweep_row(&mut run.sweep, kind, p);
                (
                    format!("{name} @ {}%", fmt(offered * 100.0, 1)),
                    format!(
                        "{name} @ {}% {}",
                        fmt(offered * 100.0, 0),
                        names::pattern_code(pattern)
                    ),
                    offered,
                    p.saturated,
                    format!(
                        "{name} @ {:.1}%: mean {:.2} ns, p99 {:.2} ns{}",
                        offered * 100.0,
                        p.mean_latency_ns,
                        p.p99_latency_ns,
                        if p.saturated { " (saturated)" } else { "" }
                    ),
                )
            }
            (&CampaignPoint::Fault { load, .. }, PointResult::Fault(f)) => {
                report::fault_row(&mut run.fault, kind, f);
                let label = format!("{name} faults");
                let line = format!(
                    "{name}: availability {:.4}, {} retries, {} dropped",
                    f.availability, f.retries, f.lost
                );
                (label.clone(), label, load, f.saturated, line)
            }
            (CampaignPoint::Replay { trace, .. }, PointResult::Replay(r)) => {
                if r.poisoned {
                    return Err(format!(
                        "replaying {trace} on {name}: trace failed mid-replay after validation"
                    ));
                }
                report::replay_row(&mut run.replay, kind, r);
                let label = format!("{name} replay");
                let line = format!(
                    "{name}: {}/{} delivered, mean {:.2} ns",
                    r.delivered, r.trace_packets, r.mean_latency_ns
                );
                (label.clone(), label, f64::NAN, r.saturated, line)
            }
            _ => unreachable!("campaign returned a mismatched result type"),
        };
        run.audit.absorb(&audit_label, cell.audit.as_ref());
        if exec.trace {
            run.sections.push((trace_label, cell.trace));
        }
        if let Some(snapshot) = cell.metrics {
            run.runs.push(RunRecord {
                network: name.to_string(),
                offered,
                saturated,
                snapshot,
            });
        }
        if out.verbose {
            let cached = if cell.cached { " (cached)" } else { "" };
            eprintln!("[{cmd}] {line}{cached}");
        }
    }
    if out.verbose {
        eprintln!(
            "[{cmd}] {} points, {} from cache, jobs={}, {:.2} s",
            run.points,
            run.hits,
            run.jobs,
            out.started.elapsed().as_secs_f64()
        );
    }
    Ok(run)
}

impl CampaignRun {
    /// Completes `manifest` with how the engine ran, writes the outputs,
    /// prints `text` unless `-q` and renders the audit verdict.
    fn finish(self, out: &OutputOpts, mut manifest: RunManifest, text: &str) -> Result<(), String> {
        manifest.jobs = self.jobs;
        if let Some(cache) = &self.cache {
            manifest.cache = format!("{}/{} points from cache", self.hits, self.points);
            manifest.cache_dir = cache.dir().display().to_string();
        }
        write_outputs(out, manifest, &self.sections, self.runs)?;
        if !out.quiet {
            println!("{text}");
        }
        self.audit.finish(out.quiet)
    }
}

/// The one output writer of every measuring command: writes `--trace`,
/// and `--metrics` with the manifest's host figures plus, under
/// `--host-metrics`, the host.* record.
fn write_outputs(
    out: &OutputOpts,
    mut manifest: RunManifest,
    sections: &[(String, Vec<(Time, TraceEvent)>)],
    mut runs: Vec<RunRecord>,
) -> Result<(), String> {
    if let Some(path) = &out.trace {
        std::fs::write(path, chrome_trace_json(sections))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    if let Some(path) = &out.metrics {
        manifest.set_host_stats(out.started.elapsed().as_secs_f64() * 1e3, out.events_base);
        if out.host_metrics {
            runs.push(host_record(manifest.wall_clock_ms));
        }
        write_metrics(path, &manifest, &runs)?;
    }
    Ok(())
}

/// The host.* metrics record appended to `--metrics` output when
/// `--host-metrics` is given: wall-clock, throughput, peak RSS and the
/// profiler span table, flattened under a pseudo-network named `host`.
fn host_record(wall_ms: f64) -> RunRecord {
    let mut reg = MetricsRegistry::new();
    reg.record_host_stats(wall_ms, &prof::report());
    RunRecord {
        network: "host".into(),
        offered: 0.0,
        saturated: false,
        snapshot: reg.snapshot(),
    }
}

fn write_metrics(path: &str, manifest: &RunManifest, runs: &[RunRecord]) -> Result<(), String> {
    let body = if path.ends_with(".csv") {
        let mut t = Table::new(&["Network", "Load (%)", "Metric", "Kind", "Field", "Value"]);
        for run in runs {
            for r in run.snapshot.rows() {
                t.row_owned(vec![
                    run.network.clone(),
                    fmt(run.offered * 100.0, 1),
                    r[0].clone(),
                    r[1].clone(),
                    r[2].clone(),
                    r[3].clone(),
                ]);
            }
        }
        t.to_csv()
    } else {
        let mut s = String::from("{\n\"manifest\": ");
        s.push_str(&manifest.to_json());
        s.push_str(",\n\"runs\": [");
        for (i, run) in runs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n{\n\"network\": \"");
            s.push_str(&netcore::metrics::json_escape(&run.network));
            s.push_str("\",\n\"offered_load\": ");
            s.push_str(&netcore::metrics::json_f64(run.offered));
            s.push_str(",\n\"saturated\": ");
            s.push_str(if run.saturated { "true" } else { "false" });
            s.push_str(",\n\"metrics\": ");
            s.push_str(&run.snapshot.to_json());
            s.push_str("\n}");
        }
        s.push_str("\n]\n}\n");
        s
    };
    std::fs::write(path, body).map_err(|e| format!("writing {path}: {e}"))
}

/// Pulls `--flag value` out of the argument list.
fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// True when the bare switch `name` is present.
fn switch(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// `--<what>` (or `default` when absent) and the value `parse` names by
/// it: `--network` and `--pattern`.
fn named_arg<T>(
    args: &[String],
    what: &str,
    default: Option<&str>,
    parse: fn(&str) -> Option<T>,
) -> Result<(String, T), String> {
    let arg = flag(args, &format!("--{what}"))
        .or_else(|| default.map(String::from))
        .ok_or_else(|| format!("missing --{what}"))?;
    let value = parse(&arg).ok_or_else(|| format!("unknown {what}"))?;
    Ok((arg, value))
}

/// The run window, stall bound and seed of faults, run-all, capture and
/// replay: `SweepOptions::default()` (5 us of traffic, 20 us of drain),
/// with `--seed <N>` and with the 1 us + 5 us window of
/// `--duration-short`.
fn run_options(args: &[String]) -> Result<SweepOptions, String> {
    let mut options = SweepOptions::default();
    if let Some(s) = flag(args, "--seed") {
        options.seed = s.parse().map_err(|_| format!("bad --seed {s}"))?;
    }
    if switch(args, "--duration-short") {
        options.sim = Span::from_us(1);
        options.drain = Span::from_us(5);
    }
    Ok(options)
}

/// `name` as a coherent workload at `--ops` operations per core (default
/// 40), refused when the grid is too large for it.
fn workload_from_args(
    name: &str,
    args: &[String],
    config: &MacrochipConfig,
) -> Result<WorkloadSpec, String> {
    let ops: u32 = flag(args, "--ops")
        .map(|s| s.parse().map_err(|_| "bad --ops"))
        .transpose()?
        .unwrap_or(40);
    let spec = names::parse_workload(name, ops).ok_or("unknown workload")?;
    spec.check_grid(&config.grid)?;
    Ok(spec)
}

/// Builds the simulated macrochip from `--side <N>`: the paper's 8×8 by
/// default, or an N×N grid with per-site bandwidths held at the paper's
/// figures (see `MacrochipConfig::with_side`).
fn config_from_args(args: &[String]) -> Result<MacrochipConfig, String> {
    match flag(args, "--side") {
        None => Ok(MacrochipConfig::scaled()),
        Some(s) => {
            let side: usize = s.parse().map_err(|_| format!("bad --side {s}"))?;
            if !(2..=64).contains(&side) {
                return Err(format!("--side must be between 2 and 64, got {side}"));
            }
            Ok(MacrochipConfig::with_side(side))
        }
    }
}

/// Builds the simulated board from `--side <N>` and `--chips <M>`: one
/// bare macrochip by default, or an MxM fabric of identical chips joined
/// by board-level inter-chip links. A one-chip fabric is exactly the
/// single-chip simulator — same networks, same results, same cache keys.
fn fabric_from_args(args: &[String]) -> Result<FabricConfig, String> {
    let chip = config_from_args(args)?;
    let chips_per_side = match flag(args, "--chips") {
        None => 1,
        Some(s) => {
            let m: usize = s.parse().map_err(|_| format!("bad --chips {s}"))?;
            if !(1..=8).contains(&m) {
                return Err(format!("--chips must be between 1 and 8, got {m}"));
            }
            m
        }
    };
    let fabric = FabricConfig::grid(chips_per_side, chip);
    if fabric.global_side() > 128 {
        return Err(format!(
            "--chips {} x --side {} makes a {}-site board side; the supported maximum is 128",
            chips_per_side,
            chip.grid.side(),
            fabric.global_side()
        ));
    }
    Ok(fabric)
}

/// Rejects `--chips` on subcommands whose harnesses are single-chip.
fn reject_chips(args: &[String], cmd: &str) -> Result<(), String> {
    if switch(args, "--chips") {
        return Err(format!(
            "`{cmd}` is a single-chip harness and does not take --chips \
             (multi-chip boards run: tables, sweep, faults, run-all)"
        ));
    }
    Ok(())
}

/// Refuses the first of `flags` given to `cmd`, which does not honour
/// them, rather than run and write nothing for it.
fn reject_unsupported(args: &[String], cmd: &str, flags: &[&str]) -> Result<(), String> {
    match flags.iter().find(|f| switch(args, f)) {
        Some(f) => Err(format!("`{cmd}` does not take {f}")),
        None => Ok(()),
    }
}

fn cmd_tables(args: &[String]) -> Result<(), String> {
    use photonics::inventory::ComponentCounts;
    use photonics::power::NetworkPower;
    let fabric = fabric_from_args(args)?;
    let layout = fabric.chip.layout;
    let mut power = Table::new(&["Network", "Loss factor", "Laser (W)"]);
    for row in NetworkPower::table5(&layout) {
        power.row_owned(vec![
            row.network.name().to_string(),
            format!("{}x", fmt(row.loss_factor, 0)),
            fmt(row.laser.watts(), 1),
        ]);
    }
    println!("Table 5: network optical power\n\n{}", power.to_text());
    let mut counts = Table::new(&["Network", "Tx", "Rx", "Wgs", "Switches"]);
    for c in ComponentCounts::table6(&layout) {
        counts.row_owned(vec![
            c.network.name().to_string(),
            c.transmitters.to_string(),
            c.receivers.to_string(),
            c.waveguides.to_string(),
            c.switches.to_string(),
        ]);
    }
    println!("Table 6: component counts\n\n{}", counts.to_text());
    if !fabric.is_single() {
        // Board level: Tables 5/6 above are per chip (x chip count for the
        // whole board); the dedicated inter-chip links add their own
        // inventory and power, under a board link budget distinct from the
        // on-chip Table 1 path.
        let spec = photonics::InterChipSpec {
            chips_per_side: fabric.chips_per_side,
            lambdas_per_link: fabric.link.lambdas,
            chip_pitch_cm: fabric.link.chip_pitch_cm,
        };
        println!(
            "Board level ({0}x{0} chips, on-chip tables are per chip):\n",
            fabric.chips_per_side
        );
        println!("  inventory: {}", spec.inventory());
        println!("  power:     {}", spec.power());
        println!(
            "\n{}",
            photonics::LinkBudget::inter_chip_board(fabric.link.chip_pitch_cm)
        );
    }
    Ok(())
}

/// Every (network, load) cell as one independent campaign point, in
/// table order.
fn sweep_points(
    kinds: &[NetworkKind],
    pattern: Pattern,
    loads: &[f64],
    options: SweepOptions,
) -> Vec<CampaignPoint> {
    kinds
        .iter()
        .flat_map(|&kind| {
            loads.iter().map(move |&offered| CampaignPoint::Sweep {
                kind,
                pattern,
                offered,
                options,
            })
        })
        .collect()
}

/// One fault-campaign point per network; each worker builds its own
/// resilient network, fault RNG and traffic source, so points shard
/// cleanly and deterministically.
fn fault_points(
    kinds: &[NetworkKind],
    pattern: Pattern,
    load: f64,
    plan: &faults::FaultPlan,
    options: SweepOptions,
) -> Vec<CampaignPoint> {
    kinds
        .iter()
        .map(|&kind| CampaignPoint::Fault {
            kind,
            pattern,
            load,
            plan: plan.clone(),
            seed: options.seed,
            sim: options.sim,
            drain: options.drain,
            max_stalled: options.max_stalled,
        })
        .collect()
}

/// A manifest for `cmd` naming its network and pattern arguments, its seed
/// and the drive window of `options`.
fn manifest_for(
    cmd: &str,
    config: &MacrochipConfig,
    network: String,
    pattern: String,
    options: SweepOptions,
) -> RunManifest {
    let mut manifest = RunManifest::new(cmd, config);
    manifest.network = network;
    manifest.pattern = pattern;
    manifest.seed = options.seed;
    manifest.set_limits(DriveLimits::for_window(
        options.sim,
        options.drain,
        options.max_stalled,
    ));
    manifest
}

fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let out = OutputOpts::parse(args, "--trace");
    let fabric = fabric_from_args(args)?;
    let (network_arg, kinds) = named_arg(args, "network", None, names::parse_networks)?;
    let (pattern_arg, pattern) = named_arg(args, "pattern", None, names::parse_pattern)?;
    let loads: Vec<f64> = match flag(args, "--loads") {
        Some(s) => s.split(',').map(parse_load).collect::<Result<_, _>>()?,
        None => macrochip::sweep::figure6_loads(pattern),
    };
    let jobs = JobOpts::parse(args)?;
    let options = SweepOptions::default();
    let points = sweep_points(&kinds, pattern, &loads, options);
    let run = run_campaign("sweep", &points, &fabric, out.exec(), &jobs, &out)?;
    let config = fabric.global_config();
    let mut manifest = manifest_for("sweep", &config, network_arg, pattern_arg, options);
    manifest.outcome = format!("{}/{} points saturated", run.saturated, points.len());
    let text = run.sweep.to_text();
    run.finish(&out, manifest, &text)
}

fn cmd_sustained(args: &[String]) -> Result<(), String> {
    reject_chips(args, "sustained")?;
    reject_unsupported(args, "sustained", &["--audit"])?;
    let out = OutputOpts::parse(args, "--trace");
    let config = config_from_args(args)?;
    let (network_arg, kinds) = named_arg(args, "network", None, names::parse_networks)?;
    let (pattern_arg, pattern) = named_arg(args, "pattern", None, names::parse_pattern)?;
    let options = SweepOptions::default();
    let mut table = Table::new(&[
        "Network",
        "Sustained (% peak)",
        "Throughput (GB/s)",
        "p99 latency (ns)",
    ]);
    let mut sections = Vec::new();
    let mut runs: Vec<RunRecord> = Vec::new();
    for &kind in &kinds {
        let f = sustained_bandwidth(kind, pattern, &config, options, 0.01);
        // Re-measure at the sustained load so throughput and tail latency
        // describe the network at its operating point, not at saturation.
        let measure = f.max(0.01);
        let sink = Rc::new(RefCell::new(RingSink::new(TRACE_EVENTS_PER_POINT)));
        let tracer = if out.trace.is_some() {
            Tracer::shared(&sink)
        } else {
            Tracer::disabled()
        };
        let (p, net) = run_load_point_traced(
            networks::build(kind, config),
            pattern,
            measure,
            &config,
            options,
            tracer,
        );
        let gbps = net.stats().throughput_gbps();
        table.row_owned(vec![
            kind.name().to_string(),
            fmt(f * 100.0, 1),
            fmt(gbps, 2),
            fmt(p.p99_latency_ns, 1),
        ]);
        if out.trace.is_some() {
            let label = format!("{} sustained @ {}%", kind.name(), fmt(measure * 100.0, 1));
            sections.push((label, sink.borrow().snapshot()));
        }
        if out.metrics.is_some() {
            let mut reg = MetricsRegistry::new();
            reg.record_net_stats(net.stats());
            reg.set_gauge("run.sustained_fraction", f);
            runs.push(RunRecord {
                network: kind.name().to_string(),
                offered: measure,
                saturated: p.saturated,
                snapshot: reg.snapshot(),
            });
        }
        if out.verbose {
            eprintln!(
                "[sustained] {}: {:.1}% of peak, {:.2} GB/s, p99 {:.1} ns",
                kind.name(),
                f * 100.0,
                gbps,
                p.p99_latency_ns
            );
        }
    }
    let manifest = manifest_for("sustained", &config, network_arg, pattern_arg, options);
    write_outputs(&out, manifest, &sections, runs)?;
    if !out.quiet {
        println!("{}", table.to_text());
    }
    Ok(())
}

/// Runs each network's closed-loop point serially and uncached through
/// the campaign executor, audited under `--audit`.
fn cmd_coherent(args: &[String]) -> Result<(), String> {
    reject_chips(args, "coherent")?;
    reject_unsupported(args, "coherent", &["--metrics", "--trace"])?;
    let config = config_from_args(args)?;
    let name = flag(args, "--workload").ok_or("missing --workload")?;
    let spec = workload_from_args(&name, args, &config)?;
    let (_, kinds) = named_arg(args, "network", None, names::parse_networks)?;
    let out = OutputOpts::parse(args, "--trace");
    let exec = PointExecOptions {
        audit: out.audit,
        ..PointExecOptions::default()
    };
    let chip = FabricConfig::single(config);
    let model = NetworkEnergyModel::new(config.layout);
    let mut table = report::coherent_table();
    let mut audit_log = AuditLog::new(out.audit);
    for kind in kinds {
        let point = CampaignPoint::Coherent {
            kind,
            spec: spec.clone(),
            seed: 0xCAFE,
        };
        let cell = campaign::run_point_full(&point, &chip, exec);
        audit_log.absorb(
            &format!("{} {}", kind.name(), spec.name()),
            cell.audit.as_ref(),
        );
        let PointResult::Coherent(run) = cell.result else {
            unreachable!("coherent point produced a non-coherent result");
        };
        report::coherent_row(&mut table, &model, &run);
    }
    if !out.quiet {
        println!("Workload: {}\n\n{}", spec.name(), table.to_text());
    }
    audit_log.finish(out.quiet)
}

fn cmd_mp(args: &[String]) -> Result<(), String> {
    reject_chips(args, "mp")?;
    let config = config_from_args(args)?;
    let collective =
        names::parse_collective(&flag(args, "--collective").ok_or("missing --collective")?)
            .ok_or("unknown collective")?;
    let bytes: u32 = flag(args, "--bytes")
        .map(|s| s.parse().map_err(|_| "bad --bytes"))
        .transpose()?
        .unwrap_or(1024);
    let rounds: usize = flag(args, "--rounds")
        .map(|s| s.parse().map_err(|_| "bad --rounds"))
        .transpose()?
        .unwrap_or(1);
    for kind in NetworkKind::ALL {
        let mut net = networks::build(kind, config);
        let mut w = MessagePassingWorkload::new(&config.grid, collective, bytes, rounds);
        let outcome = drive(
            net.as_mut(),
            &mut w,
            DriveLimits {
                deadline: Time::from_us(1_000_000),
                max_stalled: usize::MAX,
            },
        );
        if outcome.timed_out {
            return Err(format!("{} timed out", kind.name()));
        }
        println!(
            "{:<24} {:>9.2} us",
            kind.name(),
            w.finished_at().expect("completed").as_us_f64()
        );
    }
    Ok(())
}

/// Default fault campaign when `--faults` is omitted: a light mix of
/// structural and transient faults with auto-repair.
const DEFAULT_FAULT_SPEC: &str = "rand-links=2; transient=0.01; repair=10us";

fn cmd_faults(args: &[String]) -> Result<(), String> {
    let out = OutputOpts::parse(args, "--trace");
    let fabric = fabric_from_args(args)?;
    let (network_arg, kinds) = named_arg(args, "network", Some("all"), names::parse_networks)?;
    let (pattern_arg, pattern) = named_arg(args, "pattern", Some("uniform"), names::parse_pattern)?;
    let load: f64 = flag(args, "--load")
        .map(|s| parse_load(&s))
        .transpose()?
        .unwrap_or(0.05);
    let spec = flag(args, "--faults").unwrap_or_else(|| DEFAULT_FAULT_SPEC.into());
    let plan = faults::FaultPlan::parse(&spec).map_err(|e| e.to_string())?;
    let options = run_options(args)?;
    let jobs = JobOpts::parse(args)?;
    let points = fault_points(&kinds, pattern, load, &plan, options);
    let run = run_campaign("faults", &points, &fabric, out.exec(), &jobs, &out)?;
    let config = fabric.global_config();
    let mut manifest = manifest_for("faults", &config, network_arg, pattern_arg, options);
    manifest.fault_plan = plan.to_spec();
    let text = format!("Fault plan: {}\n\n{}", plan.to_spec(), run.fault.to_text());
    run.finish(&out, manifest, &text)
}

/// The whole open-loop evaluation in one campaign: every network's
/// Figure 6 latency-load curve plus every network's fault campaign, as a
/// single flat point list sharded across `--jobs` workers — the points of
/// `sweep --network all` followed by those of `faults --network all`.
fn cmd_run_all(args: &[String]) -> Result<(), String> {
    let out = OutputOpts::parse(args, "--trace");
    let jobs = JobOpts::parse(args)?;
    let fabric = fabric_from_args(args)?;
    let (pattern_arg, pattern) = named_arg(args, "pattern", Some("uniform"), names::parse_pattern)?;
    let options = run_options(args)?;
    const FAULT_LOAD: f64 = 0.05;
    let plan = faults::FaultPlan::parse(DEFAULT_FAULT_SPEC).map_err(|e| e.to_string())?;
    let loads = macrochip::sweep::figure6_loads(pattern);
    let mut points = sweep_points(&NetworkKind::ALL, pattern, &loads, options);
    let sweep_count = points.len();
    let fault = fault_points(&NetworkKind::ALL, pattern, FAULT_LOAD, &plan, options);
    points.extend(fault);
    let run = run_campaign("run-all", &points, &fabric, out.exec(), &jobs, &out)?;
    let config = fabric.global_config();
    let mut manifest = manifest_for(
        "run-all",
        &config,
        "all".into(),
        pattern_arg.clone(),
        options,
    );
    manifest.fault_plan = plan.to_spec();
    manifest.outcome = format!("{}/{sweep_count} sweep points saturated", run.saturated);
    let text = format!(
        "Figure 6 sweep ({pattern_arg} pattern)\n\n{}\nFault campaign: {}\n\n{}",
        run.sweep.to_text(),
        plan.to_spec(),
        run.fault.to_text()
    );
    run.finish(&out, manifest, &text)
}

/// Writes the stats file used by the capture→replay byte-identity check:
/// a JSON object mapping each run's network to its `net.*`-family metrics
/// snapshot. A live capture and a same-network replay of its trace must
/// produce identical bytes.
fn write_stats(path: &str, runs: &[(String, MetricsSnapshot)]) -> Result<(), String> {
    let mut s = String::from("{\n\"stats\": [");
    for (i, (network, snap)) in runs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n{\n\"network\": \"");
        s.push_str(&netcore::metrics::json_escape(network));
        s.push_str("\",\n\"metrics\": ");
        s.push_str(&snap.to_json());
        s.push_str("\n}");
    }
    s.push_str("\n]\n}\n");
    std::fs::write(path, s).map_err(|e| format!("writing {path}: {e}"))
}

/// Drops one metrics family from a snapshot. Replay stats strip `replay.*`
/// (trace coverage, which a live run cannot record) so the remainder
/// matches the live capture bit-for-bit.
fn without_family(snap: &MetricsSnapshot, prefix: &str) -> MetricsSnapshot {
    MetricsSnapshot {
        counters: snap
            .counters
            .iter()
            .filter(|(n, _)| !n.starts_with(prefix))
            .cloned()
            .collect(),
        gauges: snap
            .gauges
            .iter()
            .filter(|(n, _)| !n.starts_with(prefix))
            .cloned()
            .collect(),
        histograms: snap
            .histograms
            .iter()
            .filter(|(n, _)| !n.starts_with(prefix))
            .cloned()
            .collect(),
    }
}

/// Parses a rational time-scale factor: `3/2`, or `4` for `4/1`.
fn parse_ratio(spec: &str) -> Result<(u64, u64), String> {
    let (num, den) = spec.split_once('/').unwrap_or((spec, "1"));
    let num = num.parse().map_err(|_| format!("bad ratio {spec}"))?;
    let den = den.parse().map_err(|_| format!("bad ratio {spec}"))?;
    Ok((num, den))
}

/// Parses a site map: `rot:K` rotates every index by K, or an explicit
/// comma list of one target index per site.
fn parse_site_map(spec: &str, sites: usize) -> Result<Vec<u16>, String> {
    if let Some(k) = spec.strip_prefix("rot:") {
        let k: usize = k.parse().map_err(|_| format!("bad --remap {spec}"))?;
        return Ok((0..sites).map(|i| ((i + k) % sites) as u16).collect());
    }
    spec.split(',')
        .map(|s| {
            s.trim()
                .parse::<u16>()
                .map_err(|_| format!("bad site index {s}"))
        })
        .collect()
}

fn cmd_capture(args: &[String]) -> Result<(), String> {
    reject_chips(args, "capture")?;
    let config = config_from_args(args)?;
    let out_path = flag(args, "--out").ok_or("missing --out <FILE.mtrc>")?;
    if let Some(parent) = Path::new(&out_path)
        .parent()
        .filter(|p| !p.as_os_str().is_empty())
    {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("creating {}: {e}", parent.display()))?;
    }
    let (network_arg, kinds) = named_arg(args, "network", Some("p2p"), names::parse_networks)?;
    let &[kind] = &kinds[..] else {
        return Err("capture records one run; pick a single --network".into());
    };
    let options = run_options(args)?;
    let seed = options.seed;
    let stats_path = flag(args, "--stats");
    let out = OutputOpts::parse(args, "--trace");
    let grid_side = config.grid.side() as u16;

    let (header, live_stats, pattern_label, limits, outcome);
    if let Some(name) = flag(args, "--workload") {
        if stats_path.is_some() {
            return Err(
                "--stats needs an open-loop capture (--pattern); the coherent harness owns \
                 its network"
                    .into(),
            );
        }
        let spec = workload_from_args(&name, args, &config)?;
        let meta = TraceMeta {
            grid_side,
            seed,
            description: format!("coherent {} on {} seed {seed}", spec.name(), kind.name()),
        };
        let mut sink = CaptureSink::create_file(&out_path, &meta)
            .map_err(|e| format!("creating {out_path}: {e}"))?;
        let run = run_coherent_observed(kind, &spec, &config, EngineConfig::default(), seed, |p| {
            sink.record(p)
        });
        header = sink
            .finish()
            .map_err(|e| format!("capturing into {out_path}: {e}"))?;
        live_stats = None;
        pattern_label = spec.name();
        limits = None;
        outcome = format!(
            "captured {} packets; makespan {} us",
            header.packets,
            fmt(run.makespan.as_ns_f64() / 1e3, 2)
        );
    } else {
        let pattern_arg = flag(args, "--pattern").ok_or("missing --pattern (or --workload)")?;
        let pattern = names::parse_pattern(&pattern_arg).ok_or("unknown pattern")?;
        let load: f64 = flag(args, "--load")
            .map(|s| parse_load(&s))
            .transpose()?
            .unwrap_or(0.05);
        let meta = TraceMeta {
            grid_side,
            seed,
            description: format!(
                "open-loop {pattern_arg} @ {}% on {} seed {seed}",
                fmt(load * 100.0, 1),
                kind.name()
            ),
        };
        let mut sink = CaptureSink::create_file(&out_path, &meta)
            .map_err(|e| format!("creating {out_path}: {e}"))?;
        let (point, net) = run_load_point_observed(
            networks::build(kind, config),
            pattern,
            load,
            &config,
            options,
            Tracer::disabled(),
            |p| sink.record(p),
        );
        header = sink
            .finish()
            .map_err(|e| format!("capturing into {out_path}: {e}"))?;
        let mut reg = MetricsRegistry::new();
        reg.record_net_stats(net.stats());
        live_stats = Some(reg.snapshot());
        pattern_label = pattern_arg;
        limits = Some(DriveLimits::for_window(
            options.sim,
            options.drain,
            options.max_stalled,
        ));
        outcome = format!(
            "captured {} packets{}",
            header.packets,
            if point.saturated { " (saturated)" } else { "" }
        );
    }

    let trace_path = Path::new(&out_path);
    let mut manifest = RunManifest::new("capture", &config);
    manifest.network = network_arg;
    manifest.pattern = pattern_label;
    manifest.seed = seed;
    if let Some(limits) = limits {
        manifest.set_limits(limits);
    }
    manifest.outcome = outcome.clone();
    manifest.set_host_stats(out.started.elapsed().as_secs_f64() * 1e3, out.events_base);
    let sidecar = replay::sidecar_path(trace_path);
    std::fs::write(&sidecar, manifest.to_json() + "\n")
        .map_err(|e| format!("writing {}: {e}", sidecar.display()))?;
    let dir = match trace_path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    let index = CorpusManifest::scan(dir)
        .and_then(|m| m.write_index(dir))
        .map_err(|e| format!("indexing {}: {e}", dir.display()))?;
    if let Some(path) = &stats_path {
        let snap = live_stats.expect("open-loop capture has live stats");
        write_stats(path, &[(kind.name().to_string(), snap)])?;
    }
    if !out.quiet {
        println!(
            "{out_path}: {} packets, {} us, hash {:016x}\n{}\nsidecar {}\nindex {}",
            header.packets,
            fmt(header.last_ps as f64 / 1e6, 2),
            header.content_hash,
            outcome,
            sidecar.display(),
            index.display()
        );
    }
    Ok(())
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    reject_chips(args, "replay")?;
    let config = config_from_args(args)?;
    let trace_arg = flag(args, "--trace").ok_or("missing --trace <FILE.mtrc>")?;
    // Streaming full-body validation up front: a truncated file or a
    // corrupted block is a clear error here, before any simulation runs.
    let header = replay::validate(Path::new(&trace_arg))
        .map_err(|e| format!("validating {trace_arg}: {e}"))?;
    let side = usize::from(header.meta.grid_side);
    if side != config.grid.side() {
        return Err(format!(
            "trace was captured on a {side}x{side} grid, configuration is {0}x{0}",
            config.grid.side()
        ));
    }
    let (network_arg, kinds) = named_arg(args, "network", Some("all"), names::parse_networks)?;
    let plan = flag(args, "--faults")
        .map(|s| faults::FaultPlan::parse(&s).map_err(|e| e.to_string()))
        .transpose()?;
    let options = run_options(args)?;
    let jobs = JobOpts::parse(args)?;
    // `--trace` is this command's input; its recording is `--trace-out`.
    let out = OutputOpts::parse(args, "--trace-out");
    let stats_path = flag(args, "--stats");

    // One replay point per network — identical traffic, sharded like any
    // other campaign. The cache key covers the trace's content hash, not
    // its path.
    let points: Vec<CampaignPoint> = kinds
        .iter()
        .map(|&kind| CampaignPoint::Replay {
            kind,
            trace: trace_arg.clone(),
            content_hash: header.content_hash,
            plan: plan.clone(),
            seed: options.seed,
            drain: options.drain,
            max_stalled: options.max_stalled,
        })
        .collect();
    // --stats needs each point's metrics snapshot even without --metrics.
    let mut exec = out.exec();
    exec.metrics |= stats_path.is_some();
    // Replay is single-chip (`reject_chips` above): it runs on the
    // one-chip board, whose cache keys are the bare chip's.
    let single = FabricConfig::single(config);
    let run = run_campaign("replay", &points, &single, exec, &jobs, &out)?;
    if let Some(path) = &stats_path {
        let stats: Vec<(String, MetricsSnapshot)> = run
            .runs
            .iter()
            .map(|r| (r.network.clone(), without_family(&r.snapshot, "replay.")))
            .collect();
        write_stats(path, &stats)?;
    }
    let mut manifest = manifest_for("replay", &config, network_arg, trace_arg.clone(), options);
    if let Some(plan) = &plan {
        manifest.fault_plan = plan.to_spec();
    }
    manifest.set_limits(DriveLimits {
        deadline: header.last_time() + options.drain,
        max_stalled: options.max_stalled,
    });
    manifest.outcome = format!(
        "replayed {} packets on {} networks",
        header.packets,
        points.len()
    );
    let text = format!(
        "Trace {trace_arg}: {} packets, {} us, hash {:016x}\n\n{}",
        header.packets,
        fmt(header.last_ps as f64 / 1e6, 2),
        header.content_hash,
        run.replay.to_text()
    );
    run.finish(&out, manifest, &text)
}

fn cmd_trace_info(args: &[String]) -> Result<(), String> {
    let mut table = Table::new(&[
        "File",
        "Packets",
        "Duration (us)",
        "Grid",
        "Seed",
        "Size (B)",
        "Hash",
        "Description",
    ]);
    if let Some(dir) = flag(args, "--dir") {
        // Directory mode decodes headers only (cheap corpus listing);
        // single-file mode below does full-body CRC validation.
        let corpus = CorpusManifest::scan(&dir).map_err(|e| format!("scanning {dir}: {e}"))?;
        for e in &corpus.entries {
            table.row_owned(vec![
                e.file.clone(),
                e.header.packets.to_string(),
                fmt(e.header.last_ps as f64 / 1e6, 2),
                format!("{0}x{0}", e.header.meta.grid_side),
                e.header.meta.seed.to_string(),
                e.size_bytes.to_string(),
                format!("{:016x}", e.header.content_hash),
                e.header.meta.description.clone(),
            ]);
        }
        println!("{}", table.to_text());
        if args.iter().any(|a| a == "--write-index") {
            let path = corpus
                .write_index(&dir)
                .map_err(|e| format!("indexing {dir}: {e}"))?;
            println!("wrote {}", path.display());
        }
        return Ok(());
    }
    let mut files: Vec<String> = Vec::new();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--trace" | "--dir" => i += 2,
            a if a.starts_with('-') => i += 1,
            a => {
                files.push(a.to_string());
                i += 1;
            }
        }
    }
    if let Some(t) = flag(args, "--trace") {
        files.push(t);
    }
    if files.is_empty() {
        return Err("trace-info needs <FILE.mtrc> arguments or --dir <DIR>".into());
    }
    for f in &files {
        // Full streaming validation, not just the header: every block's
        // CRC is checked, so trace-info doubles as an integrity check.
        let h = replay::validate(Path::new(f)).map_err(|e| format!("validating {f}: {e}"))?;
        let size = std::fs::metadata(f).map(|m| m.len()).unwrap_or(0);
        table.row_owned(vec![
            f.clone(),
            h.packets.to_string(),
            fmt(h.last_ps as f64 / 1e6, 2),
            format!("{0}x{0}", h.meta.grid_side),
            h.meta.seed.to_string(),
            size.to_string(),
            format!("{:016x}", h.content_hash),
            h.meta.description.clone(),
        ]);
    }
    println!("{}", table.to_text());
    Ok(())
}

fn cmd_trace_transform(args: &[String]) -> Result<(), String> {
    let out_path = flag(args, "--out").ok_or("missing --out <FILE.mtrc>")?;
    const OPS: [&str; 6] = [
        "--time-scale",
        "--truncate",
        "--truncate-ns",
        "--keep-kind",
        "--remap",
        "--merge",
    ];
    let given: Vec<&str> = OPS
        .iter()
        .copied()
        .filter(|o| flag(args, o).is_some())
        .collect();
    let &[op] = &given[..] else {
        return Err(
            "pick exactly one transform: --time-scale <N/D>, --truncate <N>, \
             --truncate-ns <NS>, --keep-kind <KIND>, --remap <rot:K|i,j,...>, \
             --merge <A,B,...>"
                .into(),
        );
    };
    let spec = flag(args, op).expect("op flag present");
    let output = || -> Result<BufWriter<File>, String> {
        File::create(&out_path)
            .map(BufWriter::new)
            .map_err(|e| format!("creating {out_path}: {e}"))
    };
    let open_input = || -> Result<_, String> {
        let path = flag(args, "--trace").ok_or("missing --trace <IN.mtrc>")?;
        replay::open_file(&path).map_err(|e| format!("opening {path}: {e}"))
    };
    let header = match op {
        "--time-scale" => {
            let (num, den) = parse_ratio(&spec)?;
            replay::transform::time_scale(open_input()?, output()?, num, den)
        }
        "--truncate" => {
            let n: u64 = spec.parse().map_err(|_| format!("bad --truncate {spec}"))?;
            replay::transform::truncate(open_input()?, output()?, n, None)
        }
        "--truncate-ns" => {
            let ns: u64 = spec
                .parse()
                .map_err(|_| format!("bad --truncate-ns {spec}"))?;
            replay::transform::truncate(open_input()?, output()?, u64::MAX, Some(Time::from_ns(ns)))
        }
        "--keep-kind" => {
            let kind = names::parse_message_kind(&spec)
                .ok_or_else(|| format!("unknown message kind {spec}"))?;
            replay::transform::filter(
                open_input()?,
                output()?,
                move |p| p.kind == kind,
                &format!("kind={spec}"),
            )
        }
        "--remap" => {
            let input = open_input()?;
            let side = usize::from(input.header().meta.grid_side);
            let map = parse_site_map(&spec, side * side)?;
            replay::transform::site_remap(input, output()?, &map)
        }
        "--merge" => {
            let mut inputs = Vec::new();
            for path in spec.split(',').filter(|s| !s.is_empty()) {
                inputs.push(replay::open_file(path).map_err(|e| format!("opening {path}: {e}"))?);
            }
            replay::transform::merge(inputs, output()?)
        }
        _ => unreachable!("op came from OPS"),
    }
    .map_err(|e| format!("transforming: {e}"))?;
    println!(
        "{out_path}: {} packets, {} us, hash {:016x}",
        header.packets,
        fmt(header.last_ps as f64 / 1e6, 2),
        header.content_hash
    );
    Ok(())
}

/// Parses an offered load (a fraction of peak bandwidth). Open-loop
/// traffic needs a positive, finite rate, so anything else is a bad flag
/// rather than a panic inside the run.
fn parse_load(spec: &str) -> Result<f64, String> {
    spec.parse::<f64>()
        .ok()
        .filter(|load| *load > 0.0 && load.is_finite())
        .ok_or_else(|| format!("bad load {spec:?} (must be positive and finite)"))
}

/// Parses a wall-clock age: plain seconds, or `30s`, `10m`, `2h`, `7d`.
fn parse_age(spec: &str) -> Result<std::time::Duration, String> {
    let (digits, unit) = match spec.find(|c: char| !c.is_ascii_digit()) {
        Some(i) => spec.split_at(i),
        None => (spec, "s"),
    };
    let n: u64 = digits.parse().map_err(|_| format!("bad age {spec:?}"))?;
    let unit_seconds: u64 = match unit {
        "s" => 1,
        "m" => 60,
        "h" => 3_600,
        "d" => 86_400,
        _ => return Err(format!("bad age {spec:?} (use s, m, h or d)")),
    };
    let seconds = n
        .checked_mul(unit_seconds)
        .ok_or_else(|| format!("bad age {spec:?} (too large)"))?;
    Ok(std::time::Duration::from_secs(seconds))
}

/// `macrochip cache` — inspect or prune the content-addressed result
/// cache shared by every campaign run.
fn cmd_cache(args: &[String]) -> Result<(), String> {
    let dir = campaign::ResultCache::default_dir();
    let cache = campaign::ResultCache::new(dir.clone())
        .map_err(|e| format!("opening cache {}: {e}", dir.display()))?;
    match args.get(1).map(String::as_str) {
        Some("stats") => {
            let stats = cache
                .stats()
                .map_err(|e| format!("scanning {}: {e}", dir.display()))?;
            println!(
                "{}: {} entries, {} bytes",
                dir.display(),
                stats.entries,
                stats.bytes
            );
            Ok(())
        }
        Some("prune") => {
            let max_bytes: Option<u64> = flag(args, "--max-bytes")
                .map(|s| s.parse().map_err(|_| format!("bad --max-bytes {s}")))
                .transpose()?;
            let older_than = flag(args, "--older-than")
                .map(|s| parse_age(&s))
                .transpose()?;
            if max_bytes.is_none() && older_than.is_none() {
                return Err("prune needs --max-bytes <N> and/or --older-than <AGE>".into());
            }
            let removed = cache
                .prune(max_bytes, older_than)
                .map_err(|e| format!("pruning {}: {e}", dir.display()))?;
            let left = cache
                .stats()
                .map_err(|e| format!("scanning {}: {e}", dir.display()))?;
            println!(
                "{}: pruned {} entries ({} bytes); {} entries ({} bytes) remain",
                dir.display(),
                removed.entries,
                removed.bytes,
                left.entries,
                left.bytes
            );
            Ok(())
        }
        _ => Err("cache needs a subcommand: stats or prune".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The span profiler covers whichever command runs: on before the
    // dispatch, its table on stderr once the command has returned.
    let profile = switch(&args, "--profile");
    if profile {
        prof::set_enabled(true);
    }
    let result = match args.first().map(String::as_str) {
        Some("tables") => cmd_tables(&args),
        Some("sweep") => cmd_sweep(&args),
        Some("sustained") => cmd_sustained(&args),
        Some("coherent") => cmd_coherent(&args),
        Some("mp") => cmd_mp(&args),
        Some("faults") => cmd_faults(&args),
        Some("run-all") => cmd_run_all(&args),
        Some("capture") => cmd_capture(&args),
        Some("replay") => cmd_replay(&args),
        Some("trace-info") => cmd_trace_info(&args),
        Some("trace-transform") => cmd_trace_transform(&args),
        Some("cache") => cmd_cache(&args),
        Some("help") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(other) => {
            eprintln!("error: unknown command '{other}'\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if profile {
        eprint!("{}", prof::report().table());
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            // One line per refusal: the usage text would bury it.
            eprintln!("error: {e}\nrun `macrochip help` for usage");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{
        cmd_capture, cmd_coherent, cmd_faults, cmd_replay, cmd_run_all, cmd_sustained, cmd_sweep,
        parse_age, parse_load,
    };
    use std::path::{Path, PathBuf};
    use std::time::Duration;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    /// A fresh scratch directory for one test's output files.
    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("macrochip-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("creating a scratch directory");
        dir
    }

    /// The records of a `--metrics` JSON file's `runs` array, in order.
    fn metrics_runs(path: &Path) -> Vec<String> {
        let body = std::fs::read_to_string(path).expect("metrics file written");
        let (_, runs) = body.split_once("\n\"runs\": [").expect("a runs array");
        let runs = runs
            .strip_suffix("\n]\n}\n")
            .expect("the runs array closes the file");
        runs.split("\n{\n\"network\": ")
            .skip(1)
            .map(|record| record.trim_end_matches(',').to_string())
            .collect()
    }

    #[test]
    fn run_all_is_the_sweep_and_fault_campaigns() {
        let dir = scratch_dir("run-all");
        let metrics = |name: &str| dir.join(name).display().to_string();
        let common = "--side 2 --no-cache -q --metrics";
        cmd_run_all(&args(&format!("run-all {common} {}", metrics("r.json")))).unwrap();
        cmd_sweep(&args(&format!(
            "sweep --network all --pattern uniform {common} {}",
            metrics("s.json")
        )))
        .unwrap();
        cmd_faults(&args(&format!(
            "faults --network all {common} {}",
            metrics("f.json")
        )))
        .unwrap();
        let sweep = metrics_runs(&dir.join("s.json"));
        let faults = metrics_runs(&dir.join("f.json"));
        assert!(!sweep.is_empty() && !faults.is_empty());
        let joined: Vec<String> = sweep.into_iter().chain(faults).collect();
        assert_eq!(metrics_runs(&dir.join("r.json")), joined);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_writes_trace_out_and_leaves_its_input_alone() {
        let dir = scratch_dir("replay-out");
        let path = |name: &str| dir.join(name).display().to_string();
        cmd_capture(&args(&format!(
            "capture --out {} --side 2 --network p2p --pattern uniform --duration-short \
             --stats {} -q",
            path("u.mtrc"),
            path("live.json")
        )))
        .unwrap();
        let captured = std::fs::read(dir.join("u.mtrc")).unwrap();
        cmd_replay(&args(&format!(
            "replay --trace {} --side 2 --network p2p --trace-out {} --metrics {} \
             --stats {} -q --no-cache",
            path("u.mtrc"),
            path("t.json"),
            path("m.json"),
            path("r.json")
        )))
        .unwrap();
        assert_eq!(std::fs::read(dir.join("u.mtrc")).unwrap(), captured);
        let trace = std::fs::read_to_string(dir.join("t.json")).unwrap();
        let trace = trace.trim();
        assert!(trace.starts_with('[') && trace.ends_with(']'), "{trace}");
        assert!(trace.contains("\"ph\""), "the recording holds events");
        assert_eq!(
            std::fs::read_to_string(dir.join("r.json")).unwrap(),
            std::fs::read_to_string(dir.join("live.json")).unwrap()
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn coherent_refuses_application_kernels_beyond_64_sites() {
        let err = cmd_coherent(&args(
            "coherent --workload Radix --network p2p --side 16 --ops 5",
        ))
        .expect_err("a 256-site grid overflows the directory's sharer bits");
        assert!(err.contains("at most 64 sites"), "{err}");
    }

    #[test]
    fn flags_a_command_would_ignore_are_refused_before_it_runs() {
        let dir = scratch_dir("ignored-flags");
        let file = |name: &str| dir.join(name).display().to_string();
        type Cmd = fn(&[String]) -> Result<(), String>;
        let coherent = "coherent --workload Swaptions --network p2p -q";
        for (cmd, line, flag) in [
            (
                cmd_coherent as Cmd,
                format!("{coherent} --metrics {}", file("coh.json")),
                "--metrics",
            ),
            (
                cmd_coherent,
                format!("{coherent} --trace {}", file("coh.trace")),
                "--trace",
            ),
            (
                cmd_sustained,
                "sustained --network p2p --pattern uniform --audit -q".to_string(),
                "--audit",
            ),
        ] {
            let err = cmd(&args(&line)).expect_err(&line);
            assert_eq!(err.lines().count(), 1, "{err}");
            assert!(err.contains(flag), "{line}: {err}");
        }
        let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(written.is_empty(), "a refused command writes nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn capture_refuses_application_kernels_beyond_64_sites() {
        let out = std::env::temp_dir().join(format!("app-reject-{}.mtrc", std::process::id()));
        let line = format!(
            "capture --workload Barnes --network token --side 9 --ops 5 --out {}",
            out.display()
        );
        let err = cmd_capture(&args(&line)).expect_err("81 sites overflow the sharer bits");
        assert!(err.contains("at most 64 sites"), "{err}");
        assert!(!out.exists(), "a refused capture writes no trace");
    }

    #[test]
    fn parse_load_accepts_positive_finite_fractions_only() {
        assert_eq!(parse_load("0.05"), Ok(0.05));
        assert_eq!(parse_load("1.0"), Ok(1.0));
        assert_eq!(parse_load("1e-4"), Ok(1e-4));
        for bad in [
            "0", "-0", "-0.1", "nan", "NaN", "inf", "-inf", "", "x", "0.1,",
        ] {
            let err = parse_load(bad).expect_err(bad);
            assert!(err.starts_with("bad load"), "{bad}: {err}");
        }
    }

    #[test]
    fn parse_age_accepts_each_unit_and_rejects_overflow() {
        assert_eq!(parse_age("45"), Ok(Duration::from_secs(45)));
        assert_eq!(parse_age("30s"), Ok(Duration::from_secs(30)));
        assert_eq!(parse_age("10m"), Ok(Duration::from_secs(600)));
        assert_eq!(parse_age("2h"), Ok(Duration::from_secs(7_200)));
        assert_eq!(parse_age("7d"), Ok(Duration::from_secs(604_800)));
        assert_eq!(
            parse_age("18446744073709551615"),
            Ok(Duration::from_secs(u64::MAX))
        );
        // 213503982334602 days wraps to about 17 hours in unchecked
        // release arithmetic.
        assert!(parse_age("213503982334602d").is_err());
        assert!(parse_age("18446744073709551615m").is_err());
        assert!(parse_age("18446744073709551616").is_err());
        assert!(parse_age("3w").is_err());
        assert!(parse_age("d").is_err());
    }
}
