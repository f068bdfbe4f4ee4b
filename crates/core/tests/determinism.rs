//! Reruns with the same seed and config must be bit-identical.
//!
//! The flight recorder's exports are only trustworthy as provenance if the
//! simulation itself is deterministic: two runs with the same seed and
//! configuration must produce byte-identical metrics snapshots and
//! identical trace event streams. Beyond rerun-against-rerun, a few
//! points are pinned to digests of their trace and metrics recorded
//! before the networks shared one packet-lifecycle module, so a
//! refactor of admission, loop-back or delivery cannot drift silently.

use desim::trace::{chrome_trace_json, RingSink};
use desim::{Span, Time, TraceEvent, Tracer};
use faults::FaultPlan;
use macrochip::campaign::{run_point_full, CampaignPoint, PointExecOptions};
use macrochip::experiment::WorkloadSpec;
use macrochip::sweep::{run_load_point_traced, SweepOptions};
use netcore::{FabricConfig, MacrochipConfig, MetricsRegistry, NetworkKind};
use std::cell::RefCell;
use std::rc::Rc;
use workloads::{AppProfile, Pattern, SharingMix};

const TRACE_CAPACITY: usize = 1 << 20;

fn run_sweep(kind: NetworkKind, pattern: Pattern, load: f64) -> (String, Vec<(Time, TraceEvent)>) {
    let config = MacrochipConfig::scaled();
    let options = SweepOptions {
        sim: Span::from_us(1),
        drain: Span::from_us(5),
        max_stalled: 5_000,
        seed: 42,
    };
    let sink = Rc::new(RefCell::new(RingSink::new(TRACE_CAPACITY)));
    let (_, net) = run_load_point_traced(
        networks::build(kind, config),
        pattern,
        load,
        &config,
        options,
        Tracer::shared(&sink),
    );
    let mut reg = MetricsRegistry::new();
    reg.record_net_stats(net.stats());
    let events = sink.borrow().snapshot();
    (reg.snapshot().to_json(), events)
}

#[test]
fn same_seed_and_config_reruns_are_byte_identical() {
    for kind in [
        NetworkKind::PointToPoint,
        NetworkKind::TokenRing,
        NetworkKind::TwoPhase,
    ] {
        let (json_a, trace_a) = run_sweep(kind, Pattern::Uniform, 0.05);
        let (json_b, trace_b) = run_sweep(kind, Pattern::Uniform, 0.05);
        assert!(!trace_a.is_empty(), "{kind}: empty trace");
        assert_eq!(json_a, json_b, "{kind}: metrics snapshot differs");
        assert_eq!(trace_a, trace_b, "{kind}: trace stream differs");
    }
}

/// FNV-1a over the run's Chrome-trace export (the `--trace` file format)
/// and its metrics JSON.
fn digest(json: &str, trace: Vec<(Time, TraceEvent)>) -> u64 {
    let exported = chrome_trace_json(&[(String::new(), trace)]);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in exported.bytes().chain([0]).chain(json.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Checks every `(label, digest)` against its recorded value and reports
/// all mismatches at once.
fn assert_digests(got: &[(String, u64)], want: &[(&str, u64)]) {
    assert_eq!(got.len(), want.len());
    let wrong: Vec<String> = got
        .iter()
        .zip(want)
        .filter(|((_, g), (_, w))| g != w)
        .map(|((label, g), (_, w))| format!("{label}: got {g:#018x}, recorded {w:#018x}"))
        .collect();
    assert!(wrong.is_empty(), "digests moved:\n{}", wrong.join("\n"));
}

/// Transpose sends every diagonal site's traffic to itself (loop-back)
/// and funnels each other site into one destination, so at this load
/// every network both loops packets back and refuses injections. With
/// one destination per source, ALT's doubled switch trees never contend,
/// so it runs exactly as the base two-phase design does.
const SWEEP_DIGESTS: [(&str, u64); 7] = [
    ("Token Ring", 0x59080978ed6d267b),
    ("Circuit-Switched", 0xfba9c63069c3264e),
    ("Point-to-Point", 0xb38b14e83b44f5a4),
    ("Limited Point-to-Point", 0x8b830d5546195406),
    ("2-Phase Arb.", 0x8dde2ed6e5a73dcc),
    ("2-Phase Arb. ALT", 0x8dde2ed6e5a73dcc),
    ("Hierarchical", 0x05b4d35cc514e712),
];

#[test]
fn loopback_and_refusal_sweeps_match_recorded_digests() {
    let mut got = Vec::new();
    for kind in NetworkKind::ALL {
        let (json, trace) = run_sweep(kind, Pattern::Transpose, 0.1);
        let looped = trace
            .iter()
            .any(|(_, ev)| matches!(ev, TraceEvent::Inject { src, dst, .. } if src == dst));
        let refused = trace
            .iter()
            .any(|(_, ev)| matches!(ev, TraceEvent::Stall { .. }));
        assert!(looped, "{kind}: no loop-back injection");
        assert!(refused, "{kind}: no refused injection");
        got.push((kind.name().to_string(), digest(&json, trace)));
    }
    assert_digests(&got, &SWEEP_DIGESTS);
}

/// A fault point's trace and metrics at `load`, through the campaign
/// executor.
fn run_fault(kind: NetworkKind, plan: &str, load: f64) -> (String, Vec<(Time, TraceEvent)>) {
    let point = CampaignPoint::Fault {
        kind,
        pattern: Pattern::Uniform,
        load,
        plan: FaultPlan::parse(plan).expect("valid plan"),
        seed: 42,
        sim: Span::from_us(1),
        drain: Span::from_us(5),
        max_stalled: 5_000,
    };
    let exec = PointExecOptions {
        trace: true,
        metrics: true,
        trace_capacity: TRACE_CAPACITY,
        audit: false,
    };
    let run = run_point_full(
        &point,
        &FabricConfig::single(MacrochipConfig::scaled()),
        exec,
    );
    (run.metrics.expect("metrics requested").to_json(), run.trace)
}

/// The two ways a network absorbs a packet at injection: two-phase
/// masks a laser-dead requestor, and limited point-to-point finds no live
/// route from site 0 to site 9 once both of its corner links are cut.
/// Both trace `Inject` then `Drop`. The limited point-to-point digest was
/// re-recorded when its absorbed packets gained the `Inject` the
/// two-phase ones always had.
const FAULT_DIGESTS: [(&str, u64); 2] = [
    ("2-Phase Arb. masked", 0xbd2abc3fd28d63eb),
    ("Limited no-route", 0x6752b4ff9e6b9641),
];

#[test]
fn absorbed_at_injection_fault_points_match_recorded_digests() {
    let mut got = Vec::new();
    for (label, kind, plan, reason) in [
        (
            FAULT_DIGESTS[0].0,
            NetworkKind::TwoPhase,
            "laser:5@0ns",
            "masked",
        ),
        (
            FAULT_DIGESTS[1].0,
            NetworkKind::LimitedPointToPoint,
            "link:0->1@0ns; link:0->8@0ns",
            "no-route",
        ),
    ] {
        let (json, trace) = run_fault(kind, plan, 0.05);
        let absorbed =
            |ev: &TraceEvent| matches!(ev, TraceEvent::Drop { reason: r, .. } if *r == reason);
        assert!(
            trace.iter().any(|(_, ev)| absorbed(ev)),
            "{label}: no `{reason}` drop in the trace"
        );
        // An absorbed packet is traced as injected the moment before it
        // is dropped.
        for pair in trace.windows(2) {
            if let [(t0, before), (t1, drop @ TraceEvent::Drop { packet, .. })] = pair {
                if absorbed(drop)
                    && !matches!(before, TraceEvent::Inject { packet: p, .. } if p == packet)
                {
                    panic!("{label}: drop of {packet} at {t1:?} follows {before:?} at {t0:?}");
                }
            }
        }
        got.push((label.to_string(), digest(&json, trace)));
    }
    assert_digests(&got, &FAULT_DIGESTS);
}

/// Circuit-switched setups route hop by hop around killed segments. Two
/// x-axis cuts force detours from the start, and a mid-run cut diverts
/// setups already under way; none of them cuts a destination off. With
/// all four segments
/// around site 27 killed, every setup to it wanders until the hop bound
/// abandons it with a `setup-lost` drop, while traffic between the other
/// sites still delivers. The digests were recorded while each circuit's
/// setup hop count lived in its table entry, before the setup message
/// carried it.
const CIRCUIT_FAULT_DIGESTS: [(&str, u64); 2] = [
    ("Circuit detours", 0xbf6171c6c52f2163),
    ("Circuit isolated site", 0x71778908820b6cd0),
];

#[test]
fn circuit_setup_fault_points_match_recorded_digests() {
    let mut got = Vec::new();
    for (label, plan, lost) in [
        (
            CIRCUIT_FAULT_DIGESTS[0].0,
            "link:0->1@0ns; link:9->10@0ns; link:35->36@200ns",
            false,
        ),
        (
            CIRCUIT_FAULT_DIGESTS[1].0,
            "link:27->26@0ns; link:27->28@0ns; link:27->19@0ns; link:27->35@0ns",
            true,
        ),
    ] {
        let (json, trace) = run_fault(NetworkKind::CircuitSwitched, plan, 0.002);
        let count =
            |pred: &dyn Fn(&TraceEvent) -> bool| trace.iter().filter(|(_, ev)| pred(ev)).count();
        let delivered = count(&|ev| matches!(ev, TraceEvent::Deliver { .. }));
        let setup_lost = count(&|ev| {
            matches!(
                ev,
                TraceEvent::Drop {
                    reason: "setup-lost",
                    ..
                }
            )
        });
        assert!(delivered > 0, "{label}: nothing delivered");
        assert_eq!(
            setup_lost > 0,
            lost,
            "{label}: {setup_lost} setup-lost drops"
        );
        got.push((label.to_string(), digest(&json, trace)));
    }
    assert_digests(&got, &CIRCUIT_FAULT_DIGESTS);
}

/// One audited coherent point through the campaign executor: its run and
/// its audit report's `audit.*` metrics JSON.
fn run_coherent_point(kind: NetworkKind, spec: &WorkloadSpec) -> (String, String) {
    let point = CampaignPoint::Coherent {
        kind,
        spec: spec.clone(),
        seed: 0xCAFE,
    };
    let exec = PointExecOptions {
        audit: true,
        ..PointExecOptions::default()
    };
    let run = run_point_full(
        &point,
        &FabricConfig::single(MacrochipConfig::scaled()),
        exec,
    );
    let report = run.audit.expect("audit requested");
    assert!(report.is_clean(), "{kind} {}: {report}", spec.name());
    let mut reg = MetricsRegistry::new();
    report.record_metrics(&mut reg);
    (format!("{:?}", run.result), reg.snapshot().to_json())
}

/// Audited coherent points on every network, plus the Radix kernel. The
/// digests were recorded while audited coherent points ran through a
/// harness of their own, before they shared the network build, tracer
/// and audit close of the other point kinds.
const COHERENT_DIGESTS: [(&str, u64); 9] = [
    ("Token Ring Uniform", 0x7fdeaa3849429256),
    ("Circuit-Switched Uniform", 0xbc43ccdc6889a5aa),
    ("Point-to-Point Uniform", 0x7dfa98acd2713e9d),
    ("Limited Point-to-Point Uniform", 0xa12da7251fc7cbfa),
    ("2-Phase Arb. Uniform", 0x2cca298aa0837bd5),
    ("2-Phase Arb. ALT Uniform", 0x636cc5a774ca46d8),
    ("Hierarchical Uniform", 0xa1c946fca5b361b6),
    ("Point-to-Point Radix", 0xa9210a0b28a14496),
    ("Circuit-Switched Radix", 0x0bfb0ef9a34c16ce),
];

#[test]
fn coherent_points_match_recorded_digests() {
    let synthetic = WorkloadSpec::Synthetic {
        pattern: Pattern::Uniform,
        mix: SharingMix::LessSharing,
        ops_per_core: 5,
    };
    let radix = WorkloadSpec::App(AppProfile::suite()[0].with_ops_per_core(4));
    let points = NetworkKind::ALL
        .into_iter()
        .map(|kind| (kind, &synthetic))
        .chain([
            (NetworkKind::PointToPoint, &radix),
            (NetworkKind::CircuitSwitched, &radix),
        ]);
    let mut got = Vec::new();
    for (kind, spec) in points {
        let (run, audit) = run_coherent_point(kind, spec);
        let label = format!("{} {}", kind.name(), spec.name());
        got.push((label, digest(&format!("{run}\n{audit}"), Vec::new())));
    }
    assert_digests(&got, &COHERENT_DIGESTS);
}
