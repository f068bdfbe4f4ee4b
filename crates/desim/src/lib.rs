//! Deterministic discrete-event simulation kernel.
//!
//! This crate is the substrate underneath the macrochip network simulator.
//! It provides:
//!
//! * [`Time`] / [`Span`] — picosecond-resolution simulation instants and
//!   durations with checked, unit-safe arithmetic;
//! * [`EventQueue`] — a priority queue with FIFO tie-breaking, so
//!   same-timestamp events pop in insertion order and simulations are fully
//!   deterministic. It is a binary heap on a packed `(time, seq)` key,
//!   property-tested pop for pop against a `BinaryHeap` tuple oracle;
//! * [`SimRng`] — a seeded random-number wrapper so every run is
//!   reproducible;
//! * [`stats`] — counters, running means, log-scale latency histograms and
//!   time-weighted averages used by every higher-level crate;
//! * [`trace`] — the flight recorder: structured [`TraceEvent`]s, pluggable
//!   [`TraceSink`]s and a Chrome-trace/Perfetto exporter, all behind a
//!   [`Tracer`] handle that costs one branch when disabled;
//! * [`prof`] — host-side observability: RAII wall-clock spans over the
//!   kernel's hot sites plus monotone throughput counters, a no-op behind
//!   one atomic load when disabled.
//!
//! # Example
//!
//! ```
//! use desim::{EventQueue, Span, Time};
//!
//! let mut q = EventQueue::new();
//! q.push(Time::ZERO + Span::from_ns(5), "second");
//! q.push(Time::ZERO + Span::from_ns(1), "first");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (Time::from_ns(1), "first"));
//! ```

pub mod prof;
mod queue;
mod rng;
pub mod stats;
mod time;
pub mod trace;

pub use queue::EventQueue;
pub use rng::SimRng;
pub use time::{Span, Time};
pub use trace::{TraceEvent, TraceSink, Tracer};
