//! Integration: message-passing collectives (the paper's §8 future work)
//! over real networks.

use macrochip::prelude::*;
use macrochip::runner::{drive, DriveLimits};
use netcore::PacketSource;
use workloads::{Collective, MessagePassingWorkload};

fn run(kind: NetworkKind, collective: Collective, bytes: u32) -> f64 {
    let config = MacrochipConfig::scaled();
    let mut net = networks::build(kind, config);
    let mut w = MessagePassingWorkload::new(&config.grid, collective, bytes, 1);
    let expected = w.total_messages();
    let outcome = drive(net.as_mut(), &mut w, DriveLimits::closed_loop());
    assert!(!outcome.timed_out, "{kind} timed out");
    assert!(w.is_exhausted(), "{kind} did not finish");
    // Packets per message: bytes / 64-byte lines.
    let per_message = bytes.div_ceil(64) as u64;
    assert_eq!(
        net.stats().delivered_packets(),
        expected * per_message,
        "{kind} conservation"
    );
    w.finished_at().expect("finished").as_us_f64()
}

#[test]
fn every_network_completes_every_collective() {
    for kind in NetworkKind::ALL {
        for collective in Collective::ALL {
            let us = run(kind, collective, 256);
            assert!(us > 0.0, "{kind} {}", collective.name());
        }
    }
}

#[test]
fn halo_exchange_favors_the_limited_network() {
    // Neighbor-only traffic maps exactly onto the row/column channels.
    let limited = run(
        NetworkKind::LimitedPointToPoint,
        Collective::HaloExchange,
        1024,
    );
    for kind in [
        NetworkKind::PointToPoint,
        NetworkKind::TokenRing,
        NetworkKind::CircuitSwitched,
    ] {
        let other = run(kind, Collective::HaloExchange, 1024);
        assert!(
            other > limited,
            "{kind} ({other} us) beat limited p2p ({limited} us) on halo"
        );
    }
}

#[test]
fn circuit_setup_compounds_across_butterfly_steps() {
    // Six dependent steps, each paying the setup round trip.
    let p2p = run(NetworkKind::PointToPoint, Collective::ButterflyExchange, 64);
    let circuit = run(
        NetworkKind::CircuitSwitched,
        Collective::ButterflyExchange,
        64,
    );
    assert!(
        circuit > 3.0 * p2p,
        "circuit {circuit} us vs p2p {p2p} us: setup did not compound"
    );
}

#[test]
fn bigger_messages_shift_the_balance_toward_wide_channels() {
    // At 4 KB per transfer, bandwidth dominates per-message overhead and
    // the 20 GB/s limited network overtakes the 5 GB/s point-to-point.
    let p2p = run(
        NetworkKind::PointToPoint,
        Collective::AllToAllPersonalized,
        4096,
    );
    let limited = run(
        NetworkKind::LimitedPointToPoint,
        Collective::AllToAllPersonalized,
        4096,
    );
    assert!(
        limited < p2p,
        "limited {limited} us should beat p2p {p2p} us on bulk transfers"
    );
}
