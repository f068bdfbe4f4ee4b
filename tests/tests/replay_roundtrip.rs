//! Capture → replay round-trip regression: a trace replayed through the
//! network it was captured on must reproduce the live run's `net.*`
//! metrics byte-identically (a coherent capture too, where no injection
//! stalls), the same trace must play through every architecture, and a
//! corrupted trace must be rejected cleanly, never with a panic.

use coherence::EngineConfig;
use desim::{Span, Tracer};
use macrochip::experiment::drive_coherent;
use macrochip::prelude::*;
use macrochip::replay_run::record_replay_metrics;
use macrochip::sweep::run_load_point_observed;
use replay::{CaptureSink, TraceHeader, TraceMeta};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static TEMP_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_trace(label: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "macrochip-roundtrip-{label}-{}-{}.mtrc",
        std::process::id(),
        TEMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn config() -> MacrochipConfig {
    MacrochipConfig::scaled()
}

fn sweep_options() -> SweepOptions {
    SweepOptions {
        sim: Span::from_ns(500),
        drain: Span::from_us(5),
        max_stalled: 5_000,
        seed: 42,
    }
}

/// Captures a short uniform point-to-point run to a trace file, returning
/// the trace header and the live network's end-of-run state.
fn capture_uniform(path: &PathBuf) -> (TraceHeader, Box<dyn Network>) {
    let cfg = config();
    let meta = TraceMeta {
        grid_side: cfg.grid.side() as u16,
        seed: 42,
        description: "round-trip regression".into(),
    };
    let mut sink = CaptureSink::create_file(path, &meta).expect("create trace");
    let (point, net) = run_load_point_observed(
        networks::build(NetworkKind::PointToPoint, cfg),
        Pattern::Uniform,
        0.05,
        &cfg,
        sweep_options(),
        Tracer::disabled(),
        |p| sink.record(p),
    );
    assert!(!point.saturated, "baseline run must not saturate");
    let header = sink.finish().expect("finish trace");
    (header, net)
}

/// The `net.*` metrics snapshot of a driven network, serialized.
fn net_snapshot_json(net: &dyn Network) -> String {
    let mut reg = netcore::MetricsRegistry::new();
    reg.record_net_stats(net.stats());
    reg.snapshot().to_json()
}

#[test]
fn same_network_replay_reproduces_net_metrics_byte_identically() {
    let path = temp_trace("identity");
    let (header, live_net) = capture_uniform(&path);
    assert!(header.packets > 1_000, "capture too small to be meaningful");

    let (summary, replay_net) = run_replay(
        NetworkKind::PointToPoint,
        &path,
        &config(),
        ReplayOptions::default(),
        Tracer::disabled(),
    )
    .expect("replay");
    assert!(!summary.saturated && !summary.timed_out && !summary.poisoned);
    assert_eq!(summary.emitted, header.packets, "every packet re-injected");
    assert_eq!(
        net_snapshot_json(live_net.as_ref()),
        net_snapshot_json(replay_net.as_ref()),
        "replay through the captured network must reproduce the live \
         net.* metrics byte for byte"
    );

    let _ = std::fs::remove_file(&path);
}

/// A closed-loop capture replays like an open-loop one where no injection
/// stalls: the coherence engine's Radix packets, played back at their
/// recorded instants through point-to-point, reproduce its `net.*`
/// metrics (the `capture --workload ... --stats` and `replay --stats`
/// files). Where injections stall, the live run also re-offers them at
/// the engine's own event instants, which the trace does not carry, so
/// `net.rejected` (circuit-switched, limited point-to-point) and even
/// admission times (hierarchical) can differ.
#[test]
fn same_network_replay_of_a_coherent_capture_reproduces_net_metrics() {
    let cfg = config();
    let kind = NetworkKind::PointToPoint;
    let spec = WorkloadSpec::App(AppProfile::suite()[0].with_ops_per_core(10));
    let path = temp_trace("coherent");
    let meta = TraceMeta {
        grid_side: cfg.grid.side() as u16,
        seed: 42,
        description: "coherent round-trip regression".into(),
    };
    let mut sink = CaptureSink::create_file(&path, &meta).expect("create trace");
    let mut live = networks::build(kind, cfg);
    let (run, _) = drive_coherent(
        live.as_mut(),
        &spec,
        EngineConfig::default(),
        42,
        Tracer::disabled(),
        |p| sink.record(p),
        false,
    );
    let header = sink.finish().expect("finish trace");
    assert_eq!(header.packets, run.packets, "every packet captured");

    let (summary, replayed) = run_replay(
        kind,
        &path,
        &cfg,
        ReplayOptions::default(),
        Tracer::disabled(),
    )
    .expect("replay");
    assert!(!summary.saturated && !summary.timed_out && !summary.poisoned);
    assert_eq!(
        net_snapshot_json(live.as_ref()),
        net_snapshot_json(replayed.as_ref()),
        "replaying a coherent capture must reproduce its net.* metrics"
    );
    let _ = std::fs::remove_file(&path);
}

#[test]
fn one_trace_plays_through_every_architecture() {
    let path = temp_trace("cross");
    let (header, _) = capture_uniform(&path);

    for kind in NetworkKind::FIGURE6 {
        let (summary, net) = run_replay(
            kind,
            &path,
            &config(),
            ReplayOptions::default(),
            Tracer::disabled(),
        )
        .unwrap_or_else(|e| panic!("replay on {kind}: {e}"));
        assert!(!summary.poisoned, "{kind} poisoned a clean trace");
        assert_eq!(summary.content_hash, header.content_hash);
        assert!(summary.delivered > 0, "{kind} delivered nothing");
        // Both metric families export for every architecture.
        let mut reg = netcore::MetricsRegistry::new();
        record_replay_metrics(&mut reg, net.as_ref(), &summary);
        let json = reg.snapshot().to_json();
        assert!(json.contains("\"replay.trace_packets\""), "{kind}: {json}");
        assert!(json.contains("\"net.delivered\""), "{kind}: {json}");
    }

    let _ = std::fs::remove_file(&path);
}

#[test]
fn replay_point_in_campaign_engine_matches_direct_run() {
    let path = temp_trace("campaign");
    let (header, _) = capture_uniform(&path);

    let (direct, _) = run_replay(
        NetworkKind::TokenRing,
        &path,
        &config(),
        ReplayOptions::default(),
        Tracer::disabled(),
    )
    .expect("direct replay");
    let campaign = Campaign::serial(config());
    let point = CampaignPoint::Replay {
        kind: NetworkKind::TokenRing,
        trace: path.to_string_lossy().into_owned(),
        content_hash: header.content_hash,
        plan: None,
        seed: 0,
        drain: ReplayOptions::default().drain,
        max_stalled: ReplayOptions::default().max_stalled,
    };
    let out = campaign.run(std::slice::from_ref(&point));
    let PointResult::Replay(engine) = &out[0].result else {
        panic!("campaign returned a non-replay result");
    };
    assert_eq!(engine, &direct, "campaign engine must match a direct run");

    let _ = std::fs::remove_file(&path);
}

#[test]
fn corrupted_trace_block_is_rejected_without_a_panic() {
    let path = temp_trace("corrupt");
    let (header, _) = capture_uniform(&path);

    // Flip one byte in the middle of the packet stream, well past the
    // header.
    let mut bytes = std::fs::read(&path).expect("read trace");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&path, &bytes).expect("rewrite trace");

    // Full validation reports the corruption as an error, not a panic.
    let err = replay::validate(&path).expect_err("corruption must be detected");
    let msg = err.to_string();
    assert!(
        msg.contains("CRC") || msg.contains("corrupt"),
        "unhelpful corruption error: {msg}"
    );

    // Replay survives too: the source poisons itself at the bad block and
    // the run ends early instead of crashing.
    let (summary, _) = run_replay(
        NetworkKind::PointToPoint,
        &path,
        &config(),
        ReplayOptions::default(),
        Tracer::disabled(),
    )
    .expect("header is intact, open succeeds");
    assert!(summary.poisoned, "replay must flag the corrupt block");
    assert!(
        summary.emitted < header.packets,
        "injection must stop at the corrupt block"
    );

    let _ = std::fs::remove_file(&path);
}
