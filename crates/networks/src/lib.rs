//! The five macrochip inter-site network architectures (paper §4).
//!
//! Each module implements one architecture as an event-driven model behind
//! the [`netcore::Network`] trait:
//!
//! * [`p2p`] — statically WDM-routed point-to-point (§4.2): 63 dedicated
//!   5 GB/s channels per site, no arbitration, no switching;
//! * [`two_phase`] — two-phase arbitration-based switched network (§4.3):
//!   512 shared 40 GB/s row-to-site channels, distributed slotted
//!   arbitration, source-side switch trees (base and ALT variants);
//! * [`token_ring`] — Corona-style token-ring optical crossbar adapted to
//!   the macrochip (§4.4): per-destination 320 GB/s bundles, one token per
//!   destination with an 80-cycle round trip;
//! * [`circuit`] — circuit-switched torus (§4.5): optical data circuits
//!   set up hop-by-hop over a low-bandwidth optical control network;
//! * [`limited_p2p`] — limited point-to-point with electronic routing
//!   (§4.6): 20 GB/s channels to row/column peers, one electronic router
//!   hop for everything else.
//!
//! A sixth, post-paper architecture rides on the same trait:
//!
//! * [`hierarchical`] — two-level HERMES-style network: per-cluster
//!   broadcast rings bridged by an inter-cluster point-to-point backbone.
//!   Its provisioning scales with the cluster size rather than the full
//!   site count, so it stays practical past the paper's 8×8 ceiling
//!   (see [`netcore::MacrochipConfig::with_side`]).
//!
//! All six record a packet's admission, single-cycle loop-back, refusal
//! and delivery through one crate-private module, `base`, so the
//! per-architecture code is only arbitration, switching, routing and
//! fault handling.
//!
//! [`build`] constructs any architecture from a [`NetworkKind`].
//!
//! # Example
//!
//! ```
//! use desim::Time;
//! use netcore::{MacrochipConfig, MessageKind, Network, NetworkKind, Packet, PacketId};
//!
//! let config = MacrochipConfig::scaled();
//! let mut net = networks::build(NetworkKind::PointToPoint, config);
//! let p = Packet::new(PacketId(0), config.grid.site(0, 0), config.grid.site(7, 7),
//!                     64, MessageKind::Data, Time::ZERO);
//! net.inject(p, Time::ZERO).unwrap();
//! while let Some(t) = net.next_event() {
//!     net.advance(t);
//! }
//! let done = net.drain_delivered();
//! assert_eq!(done.len(), 1);
//! assert!(done[0].latency().unwrap().as_ns_f64() > 12.8); // serialization + flight
//! ```

mod base;
pub mod circuit;
pub mod fabric;
mod geom;
pub mod hierarchical;
pub mod limited_p2p;
pub mod p2p;
pub mod token_ring;
pub mod two_phase;

pub use circuit::CircuitSwitchedNetwork;
pub use fabric::FabricNetwork;
pub use hierarchical::HierarchicalNetwork;
pub use limited_p2p::{LimitedP2pNetwork, RoutingPolicy};
pub use p2p::P2pNetwork;
pub use token_ring::TokenRingNetwork;
pub use two_phase::TwoPhaseNetwork;

use netcore::{FabricConfig, MacrochipConfig, Network, NetworkKind};

/// Builds the network architecture `kind` over `config`.
///
/// # Example
///
/// ```
/// use netcore::{MacrochipConfig, Network, NetworkKind};
/// let net = networks::build(NetworkKind::TokenRing, MacrochipConfig::scaled());
/// assert_eq!(net.kind(), NetworkKind::TokenRing);
/// ```
pub fn build(kind: NetworkKind, config: MacrochipConfig) -> Box<dyn Network> {
    match kind {
        NetworkKind::PointToPoint => Box::new(P2pNetwork::new(config)),
        NetworkKind::LimitedPointToPoint => Box::new(LimitedP2pNetwork::new(config)),
        NetworkKind::TokenRing => Box::new(TokenRingNetwork::new(config)),
        NetworkKind::CircuitSwitched => Box::new(CircuitSwitchedNetwork::new(config)),
        NetworkKind::TwoPhase => Box::new(TwoPhaseNetwork::new(config)),
        NetworkKind::TwoPhaseAlt => Box::new(TwoPhaseNetwork::new_alt(config)),
        NetworkKind::Hierarchical => Box::new(HierarchicalNetwork::new(config)),
    }
}

/// Builds architecture `kind` over a multi-chip `fabric`.
///
/// A one-chip fabric returns the bare single-chip network — byte-for-byte
/// the same simulation object, keeping single-chip results (and their
/// campaign cache keys) identical with or without the fabric layer. Any
/// larger board returns a [`FabricNetwork`] of per-chip instances joined
/// by gateway-to-gateway board links.
///
/// # Example
///
/// ```
/// use netcore::{FabricConfig, MacrochipConfig, Network, NetworkKind};
/// let fabric = FabricConfig::grid(2, MacrochipConfig::scaled());
/// let net = networks::build_fabric(NetworkKind::Hierarchical, &fabric);
/// assert_eq!(net.config().grid.sites(), 256);
/// ```
pub fn build_fabric(kind: NetworkKind, fabric: &FabricConfig) -> Box<dyn Network> {
    if fabric.is_single() {
        build(kind, fabric.chip)
    } else {
        Box::new(FabricNetwork::new(kind, *fabric))
    }
}
