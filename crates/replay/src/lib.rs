//! Trace capture & replay for the macrochip simulator.
//!
//! The paper's evaluation methodology is **trace-driven** (§5): every
//! network architecture is judged on *identical* traffic. This crate makes
//! that concrete. A run of any workload — synthetic pattern, sharing mix
//! or app kernel — can be *captured* into a compact binary trace
//! (`.mtrc`), archived with its provenance, transformed, and *replayed*
//! deterministically through any of the five networks, under fault plans,
//! and inside the parallel campaign engine.
//!
//! * [`format`](mod@format) — the `.mtrc` container: versioned header, varint +
//!   delta-encoded records, CRC32-framed blocks, streaming
//!   [`TraceWriter`]/[`TraceReader`] in O(block) memory;
//! * [`source`] — [`TraceSource`], a [`netcore::PacketSource`] that plays
//!   a trace back with the exact captured injection schedule;
//! * [`capture`] — [`CaptureSink`] for the runner's packet observer, and
//!   the `replay.*` metrics family ([`ReplayStats`]);
//! * [`transform`] — streaming time-scale / site-remap / filter / merge /
//!   truncate;
//! * [`corpus`] — the `traces/` directory index with per-trace
//!   provenance sidecars.
//!
//! # Why replay is exact
//!
//! The capture hook observes packets in the order the driver emits them,
//! and the driver always advances to `min(next source emission, next
//! network event)` — so packets are recorded at exactly their creation
//! instants, in non-decreasing time order. Replaying that stream through
//! [`TraceSource`] offers the driver the same emission instants, so the
//! same-network replay reproduces the original event sequence, stats and
//! metrics byte-for-byte.

pub mod capture;
pub mod corpus;
mod crc32;
pub mod format;
pub mod source;
pub mod transform;
mod varint;

pub use capture::{CaptureSink, ReplayStats};
pub use corpus::{sidecar_path, CorpusEntry, CorpusManifest, INDEX_NAME};
pub use crc32::crc32;
pub use format::{
    create_file, fnv1a64, open_file, validate, TraceError, TraceHeader, TraceMeta, TraceReader,
    TraceWriter, BLOCK_TARGET_BYTES, FNV_OFFSET, FORMAT_VERSION, MAGIC,
};
pub use source::TraceSource;
