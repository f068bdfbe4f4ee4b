//! Canonical short names for CLI arguments.
//!
//! The `macrochip` binary and the tests need the same name ↔ value
//! mappings (`"p2p"` ↔ [`NetworkKind::PointToPoint`], `"uniform"` ↔
//! [`Pattern::Uniform`], …). Keeping them here means every subcommand
//! and every test parses a name with literally the same code.

use crate::experiment::WorkloadSpec;
use netcore::{MessageKind, NetworkKind};
use workloads::{AppProfile, Collective, Pattern, SharingMix};

/// The CLI/wire code for a network (`"p2p"`, `"two-phase"`, …).
pub fn network_code(kind: NetworkKind) -> &'static str {
    match kind {
        NetworkKind::PointToPoint => "p2p",
        NetworkKind::LimitedPointToPoint => "limited",
        NetworkKind::TokenRing => "token",
        NetworkKind::CircuitSwitched => "circuit",
        NetworkKind::TwoPhase => "two-phase",
        NetworkKind::TwoPhaseAlt => "two-phase-alt",
        NetworkKind::Hierarchical => "hierarchical",
    }
}

/// Parses one network code; `"all"` is rejected here — use
/// [`parse_networks`] where a set is acceptable.
pub fn parse_network(name: &str) -> Option<NetworkKind> {
    NetworkKind::ALL
        .into_iter()
        .find(|&k| network_code(k) == name)
}

/// Parses a network argument that may be `"all"`.
pub fn parse_networks(name: &str) -> Option<Vec<NetworkKind>> {
    if name == "all" {
        return Some(NetworkKind::ALL.to_vec());
    }
    parse_network(name).map(|k| vec![k])
}

/// The CLI/wire code for a traffic pattern (`"uniform"`, `"hotspot"`, …).
pub fn pattern_code(pattern: Pattern) -> &'static str {
    match pattern {
        Pattern::Uniform => "uniform",
        Pattern::Transpose => "transpose",
        Pattern::Butterfly => "butterfly",
        Pattern::Neighbor => "neighbor",
        Pattern::AllToAll => "all-to-all",
        Pattern::HotSpot => "hotspot",
    }
}

/// Parses a traffic-pattern code.
pub fn parse_pattern(name: &str) -> Option<Pattern> {
    [
        Pattern::Uniform,
        Pattern::Transpose,
        Pattern::Butterfly,
        Pattern::Neighbor,
        Pattern::AllToAll,
        Pattern::HotSpot,
    ]
    .into_iter()
    .find(|&p| pattern_code(p) == name)
}

/// Parses a message-passing collective name.
pub fn parse_collective(name: &str) -> Option<Collective> {
    Some(match name {
        "ring" => Collective::RingAllReduce,
        "butterfly" => Collective::ButterflyExchange,
        "halo" => Collective::HaloExchange,
        "all-to-all" => Collective::AllToAllPersonalized,
        _ => return None,
    })
}

/// Resolves a workload name: an [`AppProfile`] from the paper's suite
/// (by exact name) or a synthetic pattern workload (LS sharing mix).
pub fn parse_workload(name: &str, ops: u32) -> Option<WorkloadSpec> {
    if let Some(profile) = AppProfile::suite().into_iter().find(|p| p.name == name) {
        return Some(WorkloadSpec::App(profile.with_ops_per_core(ops)));
    }
    parse_pattern(&name.to_lowercase()).map(|pattern| WorkloadSpec::Synthetic {
        pattern,
        mix: SharingMix::LessSharing,
        ops_per_core: ops,
    })
}

/// Parses a message kind for trace filtering (case-insensitive).
pub fn parse_message_kind(name: &str) -> Option<MessageKind> {
    Some(match name.to_ascii_lowercase().as_str() {
        "data" => MessageKind::Data,
        "request" => MessageKind::Request,
        "forward" => MessageKind::Forward,
        "invalidate" => MessageKind::Invalidate,
        "ack" => MessageKind::Ack,
        "control" => MessageKind::Control,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn network_codes_round_trip() {
        for kind in NetworkKind::ALL {
            assert_eq!(parse_network(network_code(kind)), Some(kind));
        }
        assert_eq!(parse_networks("all"), Some(NetworkKind::ALL.to_vec()));
        assert_eq!(parse_network("all"), None);
        assert_eq!(parse_network("bogus"), None);
    }

    #[test]
    fn pattern_codes_round_trip() {
        for name in [
            "uniform",
            "transpose",
            "butterfly",
            "neighbor",
            "all-to-all",
            "hotspot",
        ] {
            let p = parse_pattern(name).expect(name);
            assert_eq!(pattern_code(p), name);
        }
        assert_eq!(parse_pattern("Uniform"), None);
    }

    #[test]
    fn workloads_resolve_suite_and_synthetic() {
        let app = parse_workload("Swaptions", 40).expect("suite name");
        assert!(matches!(app, WorkloadSpec::App(_)));
        let synth = parse_workload("uniform", 10).expect("pattern name");
        assert!(matches!(
            synth,
            WorkloadSpec::Synthetic {
                pattern: Pattern::Uniform,
                ops_per_core: 10,
                ..
            }
        ));
        assert!(parse_workload("nope", 1).is_none());
    }
}
