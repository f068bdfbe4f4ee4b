//! Host observability contract tests: the span profiler and the host.*
//! counters must never change simulation results, spans must nest and
//! close correctly, counters must be monotone, and a profiler-enabled
//! run must produce **byte-identical** `net.*` metrics to a
//! profiler-off run.

use desim::prof::{self, Counter, Site};
use desim::trace::RingSink;
use desim::{Span, Tracer};
use macrochip::campaign::{run_point_full, CampaignPoint, PointExecOptions};
use macrochip::prelude::*;
use macrochip::sweep::run_load_point_traced;
use netcore::{FabricConfig, MacrochipConfig, MetricsRegistry};
use proptest::prelude::*;
use std::sync::Mutex;
use workloads::Pattern;

/// Serializes tests that flip the process-wide profiler enable flag;
/// everything else in this binary runs with whatever state it finds and
/// must be correct either way (that's the whole point of the contract).
static PROFILER: Mutex<()> = Mutex::new(());

fn with_profiler<R>(f: impl FnOnce() -> R) -> R {
    let _guard = PROFILER.lock().unwrap_or_else(|e| e.into_inner());
    let was = prof::enabled();
    prof::set_enabled(true);
    prof::reset_local();
    let out = f();
    prof::set_enabled(was);
    out
}

fn short_options() -> SweepOptions {
    SweepOptions {
        sim: Span::from_ns(500),
        drain: Span::from_us(2),
        max_stalled: 5_000,
        seed: 23,
    }
}

/// One short uniform open-loop run of `kind` at 5 % load, rendered as
/// its event and packet counts, saturation flag, latencies and exported
/// `net.*` snapshot. `traced` attaches a ring flight recorder.
fn open_loop_snapshot(kind: NetworkKind, enabled: bool, traced: bool) -> String {
    let config = MacrochipConfig::scaled();
    let _guard = PROFILER.lock().unwrap_or_else(|e| e.into_inner());
    let was = prof::enabled();
    prof::set_enabled(enabled);
    let tracer = if traced {
        Tracer::new(RingSink::new(1 << 16))
    } else {
        Tracer::disabled()
    };
    let (point, net) = run_load_point_traced(
        networks::build(kind, config),
        Pattern::Uniform,
        0.05,
        &config,
        short_options(),
        tracer,
    );
    prof::set_enabled(was);
    let mut reg = MetricsRegistry::new();
    reg.record_net_stats(net.stats());
    let json = reg.snapshot().to_json();
    desim::trace::validate_json(&json).expect("net.* snapshot is well-formed JSON");
    let s = net.stats();
    format!(
        "{}|{}|{}|{}|{}|{}|{}",
        net.events_processed(),
        s.injected_packets(),
        s.delivered_packets(),
        point.saturated,
        point.mean_latency_ns,
        point.p99_latency_ns,
        json
    )
}

/// The tentpole determinism guarantee: enabling the profiler changes
/// nothing about simulation results: the event count and the exported
/// `net.*` snapshot are byte-identical with profiling on and off, for
/// every network.
#[test]
fn profiler_on_and_off_produce_byte_identical_metrics() {
    for kind in NetworkKind::ALL {
        let off = open_loop_snapshot(kind, false, false);
        let on = open_loop_snapshot(kind, true, false);
        assert_eq!(off, on, "{} results differ with profiling on", kind.name());
    }
}

/// A timed open-loop run is itself deterministic: consecutive runs agree
/// on every non-timing field (events, injected, delivered, saturation),
/// across every network.
#[test]
fn bench_runs_are_deterministic_modulo_timing() {
    for kind in NetworkKind::ALL {
        let a = open_loop_snapshot(kind, false, false);
        let b = open_loop_snapshot(kind, false, false);
        assert_eq!(a, b, "{} consecutive runs differ", kind.name());
    }
}

/// Running with the flight recorder attached changes wall-clock only,
/// never the simulated work (the tracer-overhead measurement relies on
/// comparing like-for-like work).
#[test]
fn traced_bench_does_identical_work() {
    for kind in NetworkKind::ALL {
        let plain = open_loop_snapshot(kind, false, false);
        let traced = open_loop_snapshot(kind, false, true);
        assert_eq!(
            plain,
            traced,
            "{} results differ with a tracer",
            kind.name()
        );
    }
}

/// Same guarantee one layer up: a full campaign point (which also runs
/// the metrics and audit plumbing) is unchanged by profiling.
#[test]
fn profiled_campaign_point_matches_unprofiled() {
    let config = MacrochipConfig::scaled();
    let point = CampaignPoint::Sweep {
        kind: NetworkKind::TokenRing,
        pattern: Pattern::Uniform,
        offered: 0.05,
        options: short_options(),
    };
    let exec = PointExecOptions {
        trace: false,
        metrics: true,
        audit: true,
        trace_capacity: 1 << 12,
    };
    let run_json = |enabled: bool| -> String {
        let _guard = PROFILER.lock().unwrap_or_else(|e| e.into_inner());
        let was = prof::enabled();
        prof::set_enabled(enabled);
        let run = run_point_full(&point, &FabricConfig::single(config), exec);
        prof::set_enabled(was);
        run.metrics.expect("metrics requested").to_json()
    };
    assert_eq!(run_json(false), run_json(true));
}

/// Driving a network reports its event count through the trait, and the
/// host SimEvents counter absorbs it.
#[test]
fn events_processed_flows_into_host_counter() {
    let config = MacrochipConfig::scaled();
    let before = prof::counter(Counter::SimEvents);
    let packets_before = prof::counter(Counter::Packets);
    let (point, net) = run_load_point_traced(
        networks::build(NetworkKind::PointToPoint, config),
        Pattern::Uniform,
        0.05,
        &config,
        short_options(),
        Tracer::disabled(),
    );
    assert!(!point.saturated);
    let events = net.events_processed();
    assert!(events > 0, "a driven network must process events");
    assert!(
        prof::counter(Counter::SimEvents) >= before + events,
        "host counter must absorb the run's events"
    );
    assert!(
        prof::counter(Counter::Packets) >= packets_before + net.stats().delivered_packets(),
        "host counter must absorb the run's deliveries"
    );
    // Furthest sim time advanced at least to this run's end.
    assert!(prof::sim_time_ps() > 0);
}

proptest! {
    /// Arbitrary well-bracketed open/close sequences: every span closes,
    /// depth returns to where it started, per-site counts grow by
    /// exactly the number of spans opened there, and self time never
    /// exceeds total time.
    #[test]
    fn spans_nest_and_close_correctly(script in proptest::collection::vec(0usize..Site::COUNT, 1..40)) {
        with_profiler(|| {
            let base_depth = prof::open_depth();
            let before = prof::local_report();
            // Nest the whole script: span[0] contains span[1] contains...
            fn nest(script: &[usize], base_depth: usize) {
                let Some((&first, rest)) = script.split_first() else { return };
                let _span = prof::span(Site::ALL[first]);
                assert_eq!(prof::open_depth(), base_depth + 1);
                nest(rest, base_depth + 1);
                assert_eq!(prof::open_depth(), base_depth + 1);
            }
            nest(&script, base_depth);
            prop_assert_eq!(prof::open_depth(), base_depth);
            let after = prof::local_report();
            for site in Site::ALL {
                let opened = script.iter().filter(|&&s| Site::ALL[s] == site).count() as u64;
                let count_before = after_count(&before, site);
                let count_after = after_count(&after, site);
                prop_assert_eq!(count_after - count_before, opened, "site {}", site.name());
            }
            for s in &after.spans {
                prop_assert!(s.self_ns <= s.total_ns, "self exceeds total at {}", s.site.name());
            }
            Ok(())
        })?;
    }

    /// Host counters are monotone under arbitrary increments: reading
    /// after an add never shows less than the floor the add guarantees.
    #[test]
    fn host_counters_are_monotone(increments in proptest::collection::vec((0usize..Counter::COUNT, 0u64..1_000), 1..50)) {
        for (idx, n) in increments {
            let c = Counter::ALL[idx];
            let before = prof::counter(c);
            prof::add(c, n);
            // Other test threads only ever add, so the floor holds even
            // under concurrency.
            prop_assert!(prof::counter(c) >= before + n, "{} went backwards", c.name());
        }
    }
}

fn after_count(report: &prof::ProfReport, site: Site) -> u64 {
    report
        .spans
        .iter()
        .find(|s| s.site == site)
        .map_or(0, |s| s.count)
}
