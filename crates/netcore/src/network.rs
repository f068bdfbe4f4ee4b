//! The `Network` trait, implemented for all seven network kinds (six
//! architecture types: two-phase ALT is a configuration of two-phase)
//! and for the multi-chip board fabric.

use crate::{FaultResponse, MacrochipConfig, NetFault, NetStats, Packet};
use desim::{Time, Tracer};
use photonics::inventory::NetworkId;
use std::fmt;

/// The network architectures evaluated in the paper (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkKind {
    /// Statically WDM-routed point-to-point (§4.2).
    PointToPoint,
    /// Two-phase arbitration-based switched network (§4.3).
    TwoPhase,
    /// Two-phase ALT configuration: doubled transmitters/switch trees.
    TwoPhaseAlt,
    /// Token-ring-arbitrated optical crossbar, Corona adapted (§4.4).
    TokenRing,
    /// Circuit-switched torus (§4.5).
    CircuitSwitched,
    /// Limited point-to-point with electronic routing (§4.6).
    LimitedPointToPoint,
    /// Two-level hierarchical network beyond the paper: per-cluster
    /// broadcast rings bridged by an inter-cluster point-to-point
    /// backbone (HERMES-style).
    Hierarchical,
}

impl NetworkKind {
    /// All simulated architectures: the paper's figure order, then the
    /// post-paper hierarchical design.
    pub const ALL: [NetworkKind; 7] = [
        NetworkKind::TokenRing,
        NetworkKind::CircuitSwitched,
        NetworkKind::PointToPoint,
        NetworkKind::LimitedPointToPoint,
        NetworkKind::TwoPhase,
        NetworkKind::TwoPhaseAlt,
        NetworkKind::Hierarchical,
    ];

    /// The five base networks of Figure 6 (ALT excluded).
    pub const FIGURE6: [NetworkKind; 5] = [
        NetworkKind::TokenRing,
        NetworkKind::CircuitSwitched,
        NetworkKind::PointToPoint,
        NetworkKind::LimitedPointToPoint,
        NetworkKind::TwoPhase,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            NetworkKind::PointToPoint => "Point-to-Point",
            NetworkKind::TwoPhase => "2-Phase Arb.",
            NetworkKind::TwoPhaseAlt => "2-Phase Arb. ALT",
            NetworkKind::TokenRing => "Token Ring",
            NetworkKind::CircuitSwitched => "Circuit-Switched",
            NetworkKind::LimitedPointToPoint => "Limited Point-to-Point",
            NetworkKind::Hierarchical => "Hierarchical",
        }
    }

    /// The corresponding power/complexity table row for the data network.
    pub fn power_id(self) -> NetworkId {
        match self {
            NetworkKind::PointToPoint => NetworkId::PointToPoint,
            NetworkKind::TwoPhase => NetworkId::TwoPhaseData,
            NetworkKind::TwoPhaseAlt => NetworkId::TwoPhaseDataAlt,
            NetworkKind::TokenRing => NetworkId::TokenRing,
            NetworkKind::CircuitSwitched => NetworkId::CircuitSwitched,
            NetworkKind::LimitedPointToPoint => NetworkId::LimitedPointToPoint,
            NetworkKind::Hierarchical => NetworkId::Hierarchical,
        }
    }
}

impl fmt::Display for NetworkKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An inter-site interconnection network under event-driven simulation.
///
/// The experiment harness drives every architecture through this
/// interface:
///
/// 1. [`inject`](Network::inject) a packet at the current time (may refuse
///    under backpressure — the caller retries after the next event, and
///    may skip a retry while [`refuse_if_full`](Network::refuse_if_full)
///    or [`refuse_while_full`](Network::refuse_while_full) reports the
///    refusing queue still full);
/// 2. query [`next_event`](Network::next_event) for the earliest pending
///    internal event;
/// 3. [`advance`](Network::advance) simulation up to a chosen instant;
/// 4. [`drain_delivered_into`](Network::drain_delivered_into) packets
///    whose delivery completed, with their `delivered` timestamps filled
///    in.
pub trait Network {
    /// Which architecture this is.
    fn kind(&self) -> NetworkKind;

    /// The configuration the network was built with.
    fn config(&self) -> &MacrochipConfig;

    /// Offers a packet for injection at `now` (the packet's source site
    /// must match `packet.src`).
    ///
    /// # Errors
    ///
    /// Returns the packet back if the source's injection queue is full;
    /// the caller should retry after the next network event. A caller
    /// holding the refused packet may name the queue that refused it with
    /// [`admission_queue`](Network::admission_queue) and, while
    /// [`refuse_if_full`](Network::refuse_if_full) reports that queue
    /// still full, count the retry as refused without calling `inject`.
    fn inject(&mut self, packet: Packet, now: Time) -> Result<(), Packet>;

    /// Names the admission queue whose fullness refused `packet`, as a key
    /// for [`refuse_if_full`](Network::refuse_if_full). The runner asks
    /// once, right after [`inject`](Network::inject) refused `packet`. The
    /// default `None` gives no hint, so every retry goes through `inject`.
    fn admission_queue(&self, packet: &Packet) -> Option<u32> {
        let _ = packet;
        None
    }

    /// If admission queue `queue` (a key from
    /// [`admission_queue`](Network::admission_queue)) is still full,
    /// counts a refusal exactly as [`inject`](Network::inject) would and
    /// returns `true`; otherwise counts nothing and returns `false`.
    ///
    /// The contract is soundness only: `true` must mean that `inject` of
    /// the packet the key was taken from would, at this moment, be refused
    /// with no side effect beyond the refusal count. `false` is always
    /// allowed; the caller then offers the packet through `inject`. The
    /// default always answers `false`.
    fn refuse_if_full(&mut self, queue: u32) -> bool {
        let _ = queue;
        false
    }

    /// Walks `keys` in order and refuses each key whose admission queue is
    /// still full, exactly as [`refuse_if_full`](Network::refuse_if_full)
    /// would, one refusal counted per refused key. Stops at the first key
    /// whose queue is not full and returns the number refused.
    ///
    /// The contract is that of `refuse_if_full`: soundness only. The
    /// default body is compiled once per implementor, so a caller holding
    /// a `dyn Network` pays one dynamic call for a whole run of refusals
    /// while each `refuse_if_full` inside it is a static call.
    fn refuse_while_full(&mut self, keys: &[u32]) -> usize {
        keys.iter().take_while(|&&k| self.refuse_if_full(k)).count()
    }

    /// The earliest pending internal event, if any.
    fn next_event(&self) -> Option<Time>;

    /// Processes all internal events up to and including `now`.
    fn advance(&mut self, now: Time);

    /// Removes and returns packets delivered since the last call.
    fn drain_delivered(&mut self) -> Vec<Packet>;

    /// Moves packets delivered since the last call into `out`, reusing the
    /// caller's buffer. The default delegates to
    /// [`drain_delivered`](Network::drain_delivered); architectures
    /// override it to append without allocating.
    fn drain_delivered_into(&mut self, out: &mut Vec<Packet>) {
        out.extend(self.drain_delivered());
    }

    /// Timestamp of the most recently processed internal event, if any.
    ///
    /// A batched driver advances a network through many events in one
    /// [`advance`](Network::advance) call and reads the simulation clock
    /// back from here. Implementations that return `Some` must report the
    /// exact timestamp of the last event popped from their queue.
    fn last_event_time(&self) -> Option<Time> {
        None
    }

    /// True when the driver may advance this network through a whole batch
    /// of events in one [`advance`](Network::advance) call. Requires a
    /// time-faithful `advance` (each event processed at its own timestamp,
    /// never at the batch target) and a working
    /// [`last_event_time`](Network::last_event_time). Defaults to `false`
    /// so unknown implementations keep the per-event dispatch path.
    fn supports_batched_advance(&self) -> bool {
        false
    }

    /// Packet-slab allocation counters, if this network stores in-flight
    /// packets in a [`PacketSlab`](crate::PacketSlab). The audit layer
    /// uses this for its slab-leak invariant: at a clean idle, `live`
    /// must equal 0. [`Auditor::close`](crate::Auditor::close) runs that
    /// check at the end of every audited run, so it holds under every
    /// `--audit` command, on single chips and on boards.
    fn slab_stats(&self) -> Option<crate::SlabStats> {
        None
    }

    /// Aggregate statistics collected so far.
    fn stats(&self) -> &NetStats;

    /// Internal simulation events processed so far (event-queue pops).
    ///
    /// This is the deterministic work figure host-side throughput is
    /// measured against: `events_processed / wall_clock` is the
    /// simulator's events-per-second. The default returns 0 for
    /// architectures (or wrappers) that do not expose their queue.
    fn events_processed(&self) -> u64 {
        0
    }

    /// Attaches a flight-recorder handle; subsequent activity emits
    /// [`desim::TraceEvent`]s into it. The default implementation ignores
    /// the tracer, so architectures opt in individually.
    fn set_tracer(&mut self, tracer: Tracer) {
        let _ = tracer;
    }

    /// Applies a structural fault at `now`, running this architecture's
    /// degradation policy (spare wavelengths, re-routing, token
    /// regeneration, circuit re-setup, requestor masking).
    ///
    /// The default implementation reports the fault as unhandled; the
    /// resilience wrapper in the `faults` crate then falls back to its
    /// generic drop/retry policy.
    fn apply_fault(&mut self, fault: NetFault, now: Time) -> FaultResponse {
        let _ = (fault, now);
        FaultResponse::unhandled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = NetworkKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NetworkKind::ALL.len());
    }

    #[test]
    fn figure6_excludes_alt() {
        assert!(!NetworkKind::FIGURE6.contains(&NetworkKind::TwoPhaseAlt));
        assert_eq!(NetworkKind::FIGURE6.len(), 5);
    }

    #[test]
    fn figure6_excludes_the_post_paper_hierarchical() {
        // FIGURE6 is the paper's figure; the hierarchical design only
        // appears in ALL (and the "at scale" experiments).
        assert!(!NetworkKind::FIGURE6.contains(&NetworkKind::Hierarchical));
        assert!(NetworkKind::ALL.contains(&NetworkKind::Hierarchical));
    }

    #[test]
    fn power_ids_map_to_data_rows() {
        assert_eq!(NetworkKind::TwoPhase.power_id(), NetworkId::TwoPhaseData);
        assert_eq!(NetworkKind::TokenRing.power_id(), NetworkId::TokenRing);
    }
}
