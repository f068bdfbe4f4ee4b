//! Timing wrappers: a [`Network`], a [`PacketSource`] and an [`OpSource`]
//! that forward every call to the wrapped object unchanged and add up the
//! host time spent inside it. They time the simulator's layers from the
//! outside, at the boundaries `macrochip::runner::drive` already calls
//! through, so the simulated outputs stay bit-identical.

use coherence::ops::{NextMiss, OpSource};
use desim::{Time, Tracer};
use netcore::{
    FaultResponse, MacrochipConfig, NetFault, NetStats, Network, NetworkKind, Packet, PacketSource,
    SiteId, SlabStats,
};
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// Host nanoseconds and call count accumulated at one boundary.
#[derive(Debug, Default)]
pub struct Meter {
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl Meter {
    /// Runs `f`, adding its host time and one call to the meter.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.ns.set(self.ns.get() + ns);
        self.calls.set(self.calls.get() + 1);
        out
    }

    /// Host seconds spent inside the timed calls.
    pub fn secs(&self) -> f64 {
        self.ns.get() as f64 * 1e-9
    }

    /// Number of timed calls.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }
}

/// Host time inside each [`Network`] boundary of one driven run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetTimes {
    pub advance_s: f64,
    pub advance_calls: u64,
    pub next_event_s: f64,
    pub inject_s: f64,
    pub inject_calls: u64,
    pub inject_refused: u64,
    pub drain_s: f64,
    /// Every other forwarded call (stats, clock read-back, capability
    /// probes).
    pub other_s: f64,
}

impl NetTimes {
    /// Host seconds inside the network, over all its boundaries.
    pub fn total_s(&self) -> f64 {
        self.advance_s + self.next_event_s + self.inject_s + self.drain_s + self.other_s
    }
}

/// A [`Network`] that times every call into the wrapped network.
pub struct TimedNetwork {
    inner: Box<dyn Network>,
    advance: Meter,
    next_event: Meter,
    inject: Meter,
    refused: u64,
    drain: Meter,
    other: Meter,
}

impl TimedNetwork {
    pub fn new(inner: Box<dyn Network>) -> TimedNetwork {
        TimedNetwork {
            inner,
            advance: Meter::default(),
            next_event: Meter::default(),
            inject: Meter::default(),
            refused: 0,
            drain: Meter::default(),
            other: Meter::default(),
        }
    }

    /// The wrapped network, for reading its outputs untimed.
    pub fn inner(&self) -> &dyn Network {
        self.inner.as_ref()
    }

    pub fn times(&self) -> NetTimes {
        NetTimes {
            advance_s: self.advance.secs(),
            advance_calls: self.advance.calls(),
            next_event_s: self.next_event.secs(),
            inject_s: self.inject.secs(),
            inject_calls: self.inject.calls(),
            inject_refused: self.refused,
            drain_s: self.drain.secs(),
            other_s: self.other.secs(),
        }
    }
}

impl Network for TimedNetwork {
    fn kind(&self) -> NetworkKind {
        self.other.time(|| self.inner.kind())
    }

    fn config(&self) -> &MacrochipConfig {
        self.other.time(|| self.inner.config())
    }

    fn inject(&mut self, packet: Packet, now: Time) -> Result<(), Packet> {
        let inner = &mut self.inner;
        let result = self.inject.time(|| inner.inject(packet, now));
        self.refused += u64::from(result.is_err());
        result
    }

    fn next_event(&self) -> Option<Time> {
        self.next_event.time(|| self.inner.next_event())
    }

    fn advance(&mut self, now: Time) {
        let inner = &mut self.inner;
        self.advance.time(|| inner.advance(now));
    }

    fn drain_delivered(&mut self) -> Vec<Packet> {
        let inner = &mut self.inner;
        self.drain.time(|| inner.drain_delivered())
    }

    fn drain_delivered_into(&mut self, out: &mut Vec<Packet>) {
        let inner = &mut self.inner;
        self.drain.time(|| inner.drain_delivered_into(out));
    }

    fn last_event_time(&self) -> Option<Time> {
        self.other.time(|| self.inner.last_event_time())
    }

    fn supports_batched_advance(&self) -> bool {
        self.other.time(|| self.inner.supports_batched_advance())
    }

    fn slab_stats(&self) -> Option<SlabStats> {
        self.other.time(|| self.inner.slab_stats())
    }

    fn stats(&self) -> &NetStats {
        self.other.time(|| self.inner.stats())
    }

    fn events_processed(&self) -> u64 {
        self.other.time(|| self.inner.events_processed())
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        let inner = &mut self.inner;
        self.other.time(|| inner.set_tracer(tracer));
    }

    fn apply_fault(&mut self, fault: NetFault, now: Time) -> FaultResponse {
        let inner = &mut self.inner;
        self.other.time(|| inner.apply_fault(fault, now))
    }
}

/// Host time inside each [`PacketSource`] boundary of one driven run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SourceTimes {
    pub emit_s: f64,
    pub on_delivered_s: f64,
    /// `next_emission`, `is_exhausted` and `reacts_to_delivery`.
    pub other_s: f64,
}

impl SourceTimes {
    pub fn total_s(&self) -> f64 {
        self.emit_s + self.on_delivered_s + self.other_s
    }
}

/// A [`PacketSource`] that times every call into the wrapped source.
pub struct TimedSource<'a> {
    inner: &'a mut dyn PacketSource,
    emit: Meter,
    on_delivered: Meter,
    other: Meter,
}

impl<'a> TimedSource<'a> {
    pub fn new(inner: &'a mut dyn PacketSource) -> TimedSource<'a> {
        TimedSource {
            inner,
            emit: Meter::default(),
            on_delivered: Meter::default(),
            other: Meter::default(),
        }
    }

    pub fn times(&self) -> SourceTimes {
        SourceTimes {
            emit_s: self.emit.secs(),
            on_delivered_s: self.on_delivered.secs(),
            other_s: self.other.secs(),
        }
    }
}

impl PacketSource for TimedSource<'_> {
    fn next_emission(&self) -> Option<Time> {
        self.other.time(|| self.inner.next_emission())
    }

    fn emit_due(&mut self, now: Time, out: &mut Vec<Packet>) {
        let inner = &mut self.inner;
        self.emit.time(|| inner.emit_due(now, out));
    }

    fn on_delivered(&mut self, packet: &Packet, now: Time) {
        let inner = &mut self.inner;
        self.on_delivered.time(|| inner.on_delivered(packet, now));
    }

    fn is_exhausted(&self) -> bool {
        self.other.time(|| self.inner.is_exhausted())
    }

    fn reacts_to_delivery(&self) -> bool {
        self.other.time(|| self.inner.reacts_to_delivery())
    }
}

/// Everything the wrappers measured over one or more driven runs of one
/// network.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DriveTimes {
    pub net: NetTimes,
    pub src: SourceTimes,
    /// Host seconds inside the `workloads` model that feeds the source
    /// (`OpenLoopTraffic::emit_due`, or `AppWorkload::next_miss` behind a
    /// coherence engine).
    pub workload_s: f64,
    /// Host seconds of the whole `drive` call.
    pub drive_s: f64,
    /// `Network::events_processed` at the end of the run.
    pub events: u64,
}

impl DriveTimes {
    /// Runner time outside every wrapped call.
    pub fn runner_self_s(&self) -> f64 {
        self.drive_s - self.net.total_s() - self.src.total_s()
    }

    /// Adds `other`'s times and counts to `self`.
    pub fn add(&mut self, other: &DriveTimes) {
        let (a, b) = (&mut self.net, &other.net);
        a.advance_s += b.advance_s;
        a.advance_calls += b.advance_calls;
        a.next_event_s += b.next_event_s;
        a.inject_s += b.inject_s;
        a.inject_calls += b.inject_calls;
        a.inject_refused += b.inject_refused;
        a.drain_s += b.drain_s;
        a.other_s += b.other_s;
        self.src.emit_s += other.src.emit_s;
        self.src.on_delivered_s += other.src.on_delivered_s;
        self.src.other_s += other.src.other_s;
        self.workload_s += other.workload_s;
        self.drive_s += other.drive_s;
        self.events += other.events;
    }

    /// The mean of `n` runs whose sum is `self`.
    pub fn mean_of(&self, n: u64) -> DriveTimes {
        let k = 1.0 / n.max(1) as f64;
        let c = |count: u64| count / n.max(1);
        let s = self.net;
        DriveTimes {
            net: NetTimes {
                advance_s: s.advance_s * k,
                advance_calls: c(s.advance_calls),
                next_event_s: s.next_event_s * k,
                inject_s: s.inject_s * k,
                inject_calls: c(s.inject_calls),
                inject_refused: c(s.inject_refused),
                drain_s: s.drain_s * k,
                other_s: s.other_s * k,
            },
            src: SourceTimes {
                emit_s: self.src.emit_s * k,
                on_delivered_s: self.src.on_delivered_s * k,
                other_s: self.src.other_s * k,
            },
            workload_s: self.workload_s * k,
            drive_s: self.drive_s * k,
            events: c(self.events),
        }
    }
}

/// An [`OpSource`] that times the workload model behind a coherence
/// engine. The engine owns its op source, so the meter is shared.
pub struct TimedOpSource<S: OpSource> {
    inner: S,
    meter: Rc<Meter>,
}

impl<S: OpSource> TimedOpSource<S> {
    pub fn new(inner: S, meter: Rc<Meter>) -> TimedOpSource<S> {
        TimedOpSource { inner, meter }
    }
}

impl<S: OpSource> OpSource for TimedOpSource<S> {
    fn next_miss(&mut self, site: SiteId, core: usize) -> Option<NextMiss> {
        let inner = &mut self.inner;
        self.meter.time(|| inner.next_miss(site, core))
    }
}
