//! Property-based end-to-end tests: invariants that must hold for every
//! network architecture under arbitrary admissible traffic.

use desim::Time;
use netcore::{MacrochipConfig, MessageKind, NetFault, Network, NetworkKind, Packet, PacketId};
use networks::{LimitedP2pNetwork, RoutingPolicy};
use proptest::prelude::*;

/// A randomly generated injection: (source, destination, offset in ns).
fn injections(max: usize) -> impl Strategy<Value = Vec<(usize, usize, u64)>> {
    proptest::collection::vec((0usize..64, 0usize..64, 0u64..200), 1..max)
}

fn network_kind() -> impl Strategy<Value = NetworkKind> {
    prop_oneof![
        Just(NetworkKind::PointToPoint),
        Just(NetworkKind::LimitedPointToPoint),
        Just(NetworkKind::TokenRing),
        Just(NetworkKind::CircuitSwitched),
        Just(NetworkKind::TwoPhase),
        Just(NetworkKind::TwoPhaseAlt),
        Just(NetworkKind::Hierarchical),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever is injected is delivered exactly once, with delivery no
    /// earlier than creation, on every architecture.
    #[test]
    fn conservation_and_causality(kind in network_kind(), inj in injections(40)) {
        let config = MacrochipConfig::scaled();
        let mut net = networks::build(kind, config);
        let mut accepted = Vec::new();
        let mut inj = inj;
        inj.sort_by_key(|&(_, _, at)| at); // simulation time must advance monotonically
        for (i, &(s, d, at_ns)) in inj.iter().enumerate() {
            let at = Time::from_ns(at_ns);
            net.advance(at);
            let p = Packet::new(
                PacketId(i as u64),
                config.grid.site(s % 8, s / 8),
                config.grid.site(d % 8, d / 8),
                64,
                MessageKind::Data,
                at,
            );
            if net.inject(p, at).is_ok() {
                accepted.push(PacketId(i as u64));
            }
        }
        let mut guard = 0;
        while let Some(t) = net.next_event() {
            net.advance(t);
            guard += 1;
            prop_assert!(guard < 2_000_000, "{kind} did not drain");
        }
        let delivered = net.drain_delivered();
        prop_assert_eq!(delivered.len(), accepted.len(), "{} conservation", kind);
        let mut ids: Vec<PacketId> = delivered.iter().map(|p| p.id).collect();
        ids.sort();
        ids.dedup();
        prop_assert_eq!(ids.len(), accepted.len(), "{} duplicated packets", kind);
        for p in &delivered {
            prop_assert!(p.delivered.expect("delivered") >= p.created, "{} causality", kind);
        }
    }

    /// Latency respects the physical floor: no 64-byte packet beats its
    /// best-case serialization (bundle width 320 B/ns => 0.2 ns) and
    /// inter-site packets cannot beat the time of flight.
    #[test]
    fn physical_latency_floor(kind in network_kind(), inj in injections(24)) {
        let config = MacrochipConfig::scaled();
        let mut net = networks::build(kind, config);
        let mut inj = inj;
        inj.sort_by_key(|&(_, _, at)| at);
        for (i, &(s, d, at_ns)) in inj.iter().enumerate() {
            let at = Time::from_ns(at_ns);
            net.advance(at);
            let p = Packet::new(
                PacketId(i as u64),
                config.grid.site(s % 8, s / 8),
                config.grid.site(d % 8, d / 8),
                64,
                MessageKind::Data,
                at,
            );
            let _ = net.inject(p, at);
        }
        while let Some(t) = net.next_event() {
            net.advance(t);
        }
        for p in net.drain_delivered() {
            let lat = p.latency().expect("delivered");
            // Instrumentation invariant: wait + wire == total latency.
            let wait = p.wait_time().expect("tx_start instrumented");
            let wire = p.wire_time().expect("delivered");
            prop_assert_eq!(wait + wire, lat, "{} breakdown", kind);
            if p.src == p.dst {
                prop_assert_eq!(lat, config.cycle(), "{} loopback", kind);
            } else {
                // The token ring's data follows the serpentine ring, whose
                // wrap edge can undercut the row-column Manhattan route;
                // its floor is the ring flight. Everyone else routes
                // row-then-column — including the hierarchical network,
                // whose cluster rings model their wrap edges at physical
                // length, so every leg is a unit-pitch walk and the
                // src→dst Manhattan floor holds by triangle inequality.
                let flight = if kind == NetworkKind::TokenRing {
                    config
                        .layout
                        .ring_prop_delay(config.grid.coord(p.src), config.grid.coord(p.dst))
                } else {
                    config
                        .layout
                        .prop_delay(config.grid.coord(p.src), config.grid.coord(p.dst))
                };
                prop_assert!(
                    lat >= flight,
                    "{kind}: {lat} beats flight {flight} for {} -> {}",
                    p.src,
                    p.dst
                );
                prop_assert!(lat >= desim::Span::from_ps(200), "{} serialization", kind);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The admission-queue hint is sound on every architecture: whenever
    /// `refuse_if_full(admission_queue(p))` claims refusal, it counts
    /// exactly one refusal and nothing else, and a real `inject(p)` at
    /// that moment is refused too. Keys are taken when a packet is refused
    /// and kept while it stays refused, as the runner does, so faults
    /// between offers (a killed column link re-routes limited p2p, a
    /// killed site or laser masks two-phase) test stale keys.
    /// Single-packet queues, bursts of up to three packets and a 4x2
    /// block of sites make queues fill often.
    #[test]
    fn admission_hint_only_claims_real_refusals(
        steps in proptest::collection::vec(
            (0usize..8, 0usize..8, 0u64..10, 0usize..60, 1u64..4),
            1..120,
        ),
    ) {
        let config = MacrochipConfig {
            queue_capacity: 1,
            ..MacrochipConfig::scaled()
        };
        let site = |i: usize| config.grid.site(i % 4, i / 4);
        let mut steps = steps;
        steps.sort_by_key(|&(_, _, at, _, _)| at);
        let mut nets: Vec<(String, Box<dyn Network>)> = NetworkKind::ALL
            .into_iter()
            .map(|kind| (kind.to_string(), networks::build(kind, config)))
            .collect();
        // Adaptive routing picks the first hop by queue occupancy.
        nets.push((
            "limited-adaptive".to_string(),
            Box::new(LimitedP2pNetwork::with_policy(config, RoutingPolicy::Adaptive)),
        ));
        for (kind, mut net) in nets {
            let mut stalled: Vec<(Packet, Option<u32>)> = Vec::new();
            for (i, &(s, d, at_ns, fault, burst)) in steps.iter().enumerate() {
                let at = Time::from_ns(at_ns);
                net.advance(at);
                // One step in five applies a fault first.
                let fault = match fault {
                    0..=3 => Some(NetFault::LinkKill {
                        src: site(fault),
                        dst: site(fault + 4),
                    }),
                    4..=7 => Some(NetFault::LinkKill {
                        src: site(fault),
                        dst: site(fault - 4),
                    }),
                    8..=9 => Some(NetFault::SiteKill {
                        site: site(fault - 8),
                    }),
                    10..=11 => Some(NetFault::LaserLoss {
                        site: site(fault - 4),
                    }),
                    _ => None,
                };
                if let Some(fault) = fault {
                    let _ = net.apply_fault(fault, at);
                }
                let mut offers = std::mem::take(&mut stalled);
                for k in 0..burst {
                    let id = PacketId(i as u64 * 4 + k);
                    let fresh = Packet::new(id, site(s), site(d), 64, MessageKind::Data, at);
                    offers.push((fresh, net.admission_queue(&fresh)));
                }
                for (p, key) in offers {
                    if let Some(queue) = key {
                        let (rejected, injected) =
                            (net.stats().rejected_packets(), net.stats().injected_packets());
                        let claimed = net.refuse_if_full(queue);
                        let counted = u64::from(claimed);
                        prop_assert_eq!(net.stats().rejected_packets(), rejected + counted, "{}", kind);
                        prop_assert_eq!(net.stats().injected_packets(), injected, "{}", kind);
                        if claimed {
                            prop_assert!(
                                net.inject(p, at).is_err(),
                                "{kind}: hint claimed refusal of admissible packet {}", p.id.0
                            );
                            stalled.push((p, key));
                            continue;
                        }
                    }
                    if let Err(back) = net.inject(p, at) {
                        stalled.push((back, net.admission_queue(&back)));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Geometry at arbitrary grid sides: the layout invariants the networks and
// the auditor lean on must hold for every side, not just the paper's 8.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The serpentine ring visits every site exactly once and the
    /// coordinate maps invert each other at any grid side.
    #[test]
    fn serpentine_ring_bijective_at_any_side(side in 2usize..33) {
        let layout = photonics::geometry::Layout::new(side, 2.5, 0.1);
        let mut seen = vec![false; layout.sites()];
        for i in 0..layout.sites() {
            let c = layout.ring_coord(i);
            prop_assert!(c.0 < side && c.1 < side, "coord in grid");
            prop_assert!(!seen[c.1 * side + c.0], "site visited twice");
            seen[c.1 * side + c.0] = true;
            prop_assert_eq!(layout.ring_index(c), i, "ring maps invert");
        }
        // Consecutive ring positions are physically adjacent (the
        // serpentine never teleports except at the modeled wrap edge).
        for i in 0..layout.sites() - 1 {
            let a = layout.ring_coord(i);
            let b = layout.ring_coord(i + 1);
            prop_assert_eq!(
                a.0.abs_diff(b.0) + a.1.abs_diff(b.1),
                1,
                "serpentine step {} not unit pitch",
                i
            );
        }
    }

    /// Torus distance is a metric bounded by the row-column route, and
    /// ring distances complete to a full revolution, at any grid side.
    #[test]
    fn distances_are_metrics_at_any_side(
        side in 2usize..33,
        picks in proptest::collection::vec((0usize..1024, 0usize..1024), 1..24),
    ) {
        let layout = photonics::geometry::Layout::new(side, 2.5, 0.1);
        let n = layout.sites();
        for &(a, b) in &picks {
            let (a, b) = (a % n, b % n);
            let ca = (a % side, a / side);
            let cb = (b % side, b / side);
            let torus = layout.torus_hops(ca, cb);
            let manhattan = ca.0.abs_diff(cb.0) + ca.1.abs_diff(cb.1);
            prop_assert_eq!(layout.torus_hops(cb, ca), torus, "torus symmetric");
            prop_assert!(torus <= manhattan, "wrap routing never longer");
            prop_assert!(torus <= side, "torus diameter is side (2 * side/2)");
            prop_assert_eq!(torus == 0, a == b, "identity of indiscernibles");
            // prop_delay is the row-column flight: hop_delay per pitch.
            prop_assert_eq!(
                layout.prop_delay(ca, cb),
                layout.hop_delay() * manhattan as u64,
                "prop_delay counts pitches"
            );
            // Forward ring distances around the loop sum to one revolution.
            let fwd = layout.ring_distance(layout.ring_index(ca), layout.ring_index(cb));
            let back = layout.ring_distance(layout.ring_index(cb), layout.ring_index(ca));
            if a == b {
                prop_assert_eq!(fwd + back, 0);
            } else {
                prop_assert_eq!(fwd + back, n, "ring distances complete the loop");
            }
        }
    }

    /// The hierarchical clustering tiles the grid exactly at any side.
    #[test]
    fn clusters_tile_the_grid_at_any_side(side in 2usize..33) {
        let layout = photonics::geometry::Layout::new(side, 2.5, 0.1);
        let c = layout.cluster_side();
        prop_assert!((1..=4).contains(&c));
        prop_assert_eq!(side % c, 0, "cluster side divides the grid");
        let per_side = side / c;
        prop_assert_eq!(layout.clusters(), per_side * per_side);
        prop_assert_eq!(layout.clusters() * c * c, layout.sites(), "clusters tile");
    }
}
