//! # macrochip — a silicon-photonic multi-chip network simulator
//!
//! A full reproduction of *"Silicon-Photonic Network Architectures for
//! Scalable, Power-Efficient Multi-Chip Systems"* (Koka et al., ISCA
//! 2010): the macrochip platform, its five inter-site photonic network
//! architectures, the MOESI coherence traffic that drives them, and the
//! power/complexity models behind the paper's tables.
//!
//! This crate is the facade. It ties the substrates together:
//!
//! * [`runner`] — the event loop driving any [`netcore::Network`] from
//!   any [`netcore::PacketSource`], with injection backpressure;
//! * [`audit_run`] — the cross-network differential oracle: one trace
//!   replayed through every architecture under audit;
//! * [`campaign`] — the parallel campaign engine: deterministic sharded
//!   execution of independent simulation points across a work-stealing
//!   thread pool, with a content-addressed result cache. Its one point
//!   runner executes every point — single chip or board, audited (the
//!   `--audit` flag) or not;
//! * [`sweep`] — open-loop latency-vs-offered-load sweeps (Figure 6) and
//!   saturation detection;
//! * [`experiment`] — closed-loop coherent runs over application and
//!   synthetic workloads (Figures 7 and 8);
//! * [`energy`] — laser/tuning/transceiver/router energy accounting and
//!   energy-delay products (Table 5, Figures 9 and 10);
//! * [`figures`] — every table and figure of the paper's evaluation, and
//!   the studies beyond it, as pure functions behind `macrochip figures`;
//! * [`report`] — plain-text/markdown/CSV table rendering;
//! * [`manifest`] — run provenance (config, seed, limits, outcome,
//!   version) emitted alongside exported metrics;
//! * [`replay_run`] — trace-driven experiments: capture any run into a
//!   `.mtrc` trace and play it back through any network, bare or under a
//!   fault plan (the §5 trace-driven comparison methodology);
//! * [`progress`] — live `--progress` status lines streamed from the
//!   always-on [`desim::prof`] host counters.
//!
//! ## Quickstart
//!
//! ```
//! use macrochip::prelude::*;
//!
//! // Run a small uniform-random load point on the point-to-point network.
//! let config = MacrochipConfig::scaled();
//! let point = macrochip::sweep::run_load_point(
//!     NetworkKind::PointToPoint,
//!     Pattern::Uniform,
//!     0.10,               // 10% of the 320 B/ns per-site peak
//!     &config,
//!     SweepOptions { sim: desim::Span::from_us(2), ..SweepOptions::default() },
//! );
//! assert!(!point.saturated);
//! assert!(point.mean_latency_ns < 30.0);
//! ```

pub mod audit_run;
pub mod campaign;
pub mod energy;
pub mod experiment;
pub mod figures;
pub mod manifest;
pub mod names;
pub mod progress;
pub mod replay_run;
pub mod report;
pub mod runner;
pub mod sweep;

/// One-stop imports for examples and binaries.
pub mod prelude {
    pub use crate::audit_run::{differential_replay, DifferentialReport};
    pub use crate::campaign::{
        run_indexed, Campaign, CampaignOutcome, CampaignPoint, FaultSummary, PointResult,
        ResultCache,
    };
    pub use crate::energy::{EnergyBreakdown, NetworkEnergyModel};
    pub use crate::experiment::{run_coherent, CoherentRun, WorkloadSpec};
    pub use crate::manifest::RunManifest;
    pub use crate::progress::ProgressReporter;
    pub use crate::replay_run::{
        drive_replay, run_replay, run_replay_faulted, ReplayOptions, ReplaySummary,
    };
    pub use crate::report::Table;
    pub use crate::runner::{drive, drive_observed, drive_traced, DriveLimits, RunOutcome};
    pub use crate::sweep::{
        run_load_point, run_load_point_traced, sustained_bandwidth, LoadPoint, SweepOptions,
    };
    pub use netcore::{MacrochipConfig, Network, NetworkKind};
    pub use workloads::{AppProfile, Pattern, SharingMix};
}
