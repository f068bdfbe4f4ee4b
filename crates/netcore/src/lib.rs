//! Shared abstractions for the macrochip's inter-site networks.
//!
//! Everything the five network architectures have in common lives here:
//!
//! * [`SiteId`] and [`Grid`] — the 8×8 site address space (§3);
//! * [`Packet`] and [`MessageKind`] — what moves through a network;
//! * [`MacrochipConfig`] — the simulated configuration (paper Table 4);
//! * [`QueueArena`] — many FIFOs pooled in one node vector, and
//!   [`ChannelBank`] — a network's serializing optical channels with
//!   bounded queues, built on the same pool;
//! * [`Network`] — the trait every architecture implements, so the
//!   experiment harness can drive them interchangeably;
//! * [`NetStats`] — injection/delivery/latency accounting, including the
//!   per-phase latency breakdown ([`Phase`]);
//! * [`metrics`] — the unified [`MetricsRegistry`] with deterministic
//!   JSON/CSV snapshots.
//!
//! # Example
//!
//! ```
//! use netcore::{Grid, MacrochipConfig};
//!
//! let config = MacrochipConfig::scaled();          // paper Table 4
//! assert_eq!(config.grid.sites(), 64);
//! assert_eq!(config.cores_per_site, 8);
//! assert!((config.site_bandwidth_bytes_per_ns() - 320.0).abs() < 1e-9);
//! ```

mod arena;
pub mod audit;
mod channel;
mod config;
mod fabric;
mod fault;
pub mod hash;
pub mod metrics;
mod network;
mod packet;
mod site;
pub mod slab;
pub mod stats;
mod traffic;

pub use arena::{Drain, QueueArena};
pub use audit::{AuditReport, AuditViolation, Auditor};
pub use channel::ChannelBank;
pub use config::MacrochipConfig;
pub use fabric::{FabricConfig, InterChipLinkConfig};
pub use fault::{FaultResponse, NetFault};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use metrics::{MetricsRegistry, MetricsSnapshot};
pub use network::{Network, NetworkKind};
pub use packet::{MessageKind, Packet, PacketId};
pub use site::{fast_div, fast_rem, Grid, SiteId};
pub use slab::{PacketRef, PacketSlab, SlabStats};
pub use stats::{NetStats, Phase};
pub use traffic::{ObservedSource, PacketSource};
