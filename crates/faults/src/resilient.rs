//! The resilience wrapper: a [`Network`] that injects a [`FaultPlan`]
//! into an inner network and enforces the delivery contract on top of it.
//!
//! [`ResilientNetwork`] interposes on the whole `Network` surface:
//!
//! * scheduled faults fire between events (each one is offered to the
//!   inner network's [`Network::apply_fault`] degradation policy; packets
//!   the policy evicts are re-queued under the retry contract);
//! * deliveries are screened against the transient-corruption model —
//!   a corrupted packet is NACKed and retransmitted after exponential
//!   backoff, up to the retry bound, then declared lost;
//! * packets touching a dead die are absorbed as drops so the simulation
//!   stays live (nothing ever waits on a site that cannot answer).
//!
//! Corruption decisions are a pure hash of `(seed, packet id, attempt)`,
//! not RNG draws, so they are independent of event interleaving: the same
//! plan, seed and traffic replay byte-identically. With the no-fault plan
//! the wrapper is a pure pass-through and reproduces baseline numbers
//! exactly.

use crate::plan::{FaultPlan, RecoveryPolicy};
use desim::{Span, Time, TraceEvent, Tracer};
use netcore::{FaultResponse, MacrochipConfig, NetFault, NetStats, Network, NetworkKind, Packet};
use std::collections::{BinaryHeap, HashMap, VecDeque};

/// Resilience-layer accounting, kept apart from the inner network's
/// [`NetStats`] (which still counts corrupted deliveries as deliveries —
/// the wrapper's view is goodput).
#[derive(Debug, Default, Clone)]
pub struct FaultStats {
    /// Degrading faults applied (kills and losses).
    pub faults_applied: u64,
    /// Recovery events applied (repairs and restores).
    pub recoveries_applied: u64,
    /// Deliveries the transient model corrupted.
    pub corrupted: u64,
    /// NACKs issued (each schedules a retransmission).
    pub nacks: u64,
    /// Retransmissions actually re-injected.
    pub retries: u64,
    /// Packets evicted from network queues by faults.
    pub evicted: u64,
    /// Packets lost for good (dead die, retry budget exhausted, or
    /// recovery disabled).
    pub dropped: u64,
    /// Packets delivered clean through the wrapper.
    pub clean_delivered: u64,
    /// Bytes delivered clean through the wrapper.
    pub clean_bytes: u64,
    /// Closed degraded intervals, accumulated.
    degraded_accum: Span,
    /// Start of the currently open degraded interval, if any.
    degraded_since: Option<Time>,
    /// Outstanding degrading faults (kills minus repairs).
    active_faults: u32,
}

impl FaultStats {
    /// Total simulated time spent with at least one unrepaired fault
    /// outstanding, up to `now`.
    pub fn time_degraded(&self, now: Time) -> Span {
        match self.degraded_since {
            Some(since) => self.degraded_accum + now.saturating_since(since),
            None => self.degraded_accum,
        }
    }

    fn on_fault(&mut self, fault: NetFault, now: Time) {
        if fault.is_recovery() {
            self.recoveries_applied += 1;
            self.active_faults = self.active_faults.saturating_sub(1);
            if self.active_faults == 0 {
                if let Some(since) = self.degraded_since.take() {
                    self.degraded_accum += now.saturating_since(since);
                }
            }
        } else {
            self.faults_applied += 1;
            self.active_faults += 1;
            if self.active_faults == 1 {
                self.degraded_since = Some(now);
            }
        }
    }
}

/// A pending retransmission; ordered by time (then insertion) inside a
/// max-heap via reversed comparison.
#[derive(Debug)]
struct Retry {
    at: Time,
    seq: u64,
    attempt: u32,
    packet: Packet,
}

impl PartialEq for Retry {
    fn eq(&self, other: &Retry) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Retry {}
impl PartialOrd for Retry {
    fn partial_cmp(&self, other: &Retry) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Retry {
    fn cmp(&self, other: &Retry) -> std::cmp::Ordering {
        // Reversed: BinaryHeap pops the earliest retry first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A network wrapped with fault injection and the retry contract.
pub struct ResilientNetwork {
    inner: Box<dyn Network>,
    recovery: RecoveryPolicy,
    transient: f64,
    seed: u64,
    schedule: VecDeque<(Time, NetFault)>,
    retries: BinaryHeap<Retry>,
    retry_seq: u64,
    /// Attempt number per in-flight packet id (1 = first transmission).
    attempts: HashMap<u64, u32>,
    dead: Vec<bool>,
    delivered: Vec<Packet>,
    /// Reused buffer for draining the inner network.
    scratch: Vec<Packet>,
    /// Timestamp of the last processed step (inner event, fault, or retry
    /// flush) — the wrapper's own clock for batched driving.
    last_step: Option<Time>,
    fstats: FaultStats,
    tracer: Tracer,
}

impl ResilientNetwork {
    /// Wraps `inner` under `plan`, compiling the plan's fault schedule
    /// with `seed` across `[0, horizon)`.
    pub fn new(
        inner: Box<dyn Network>,
        plan: &FaultPlan,
        seed: u64,
        horizon: Time,
    ) -> ResilientNetwork {
        let schedule = plan
            .schedule(&inner.config().grid, seed, horizon)
            .into_iter()
            .collect();
        let sites = inner.config().grid.sites();
        ResilientNetwork {
            inner,
            recovery: plan.recovery,
            transient: plan.transient.per_packet,
            seed,
            schedule,
            retries: BinaryHeap::new(),
            retry_seq: 0,
            attempts: HashMap::new(),
            dead: vec![false; sites],
            delivered: Vec::new(),
            scratch: Vec::new(),
            last_step: None,
            fstats: FaultStats::default(),
            tracer: Tracer::disabled(),
        }
    }

    /// Resilience-layer accounting.
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fstats
    }

    /// Packets lost for good across both layers: the wrapper's drops
    /// (dead dies, exhausted retries) plus drops absorbed inside the
    /// network by its own degradation policy (masked channels, lost
    /// routes).
    pub fn lost_packets(&self) -> u64 {
        self.fstats.dropped + self.inner.stats().dropped_packets()
    }

    /// Fraction of finally-resolved packets that arrived clean:
    /// `clean / (clean + lost)`, in `[0, 1]`; `1.0` before any packet
    /// resolves.
    pub fn availability(&self) -> f64 {
        let good = self.fstats.clean_delivered;
        let total = good + self.lost_packets();
        if total == 0 {
            1.0
        } else {
            good as f64 / total as f64
        }
    }

    /// Retransmissions still waiting for their backoff to expire.
    pub fn pending_retries(&self) -> usize {
        self.retries.len()
    }

    /// Flattens both statistics layers into `registry`: the inner
    /// network's standard `net.*`/`latency.*` families plus the `fault.*`
    /// family (counters for faults, retries, drops; gauges for
    /// availability and time-in-degraded-mode at `now`).
    pub fn record_metrics(&self, registry: &mut netcore::MetricsRegistry, now: Time) {
        registry.record_net_stats(self.inner.stats());
        registry.add_counter("fault.injected", self.fstats.faults_applied);
        registry.add_counter("fault.recovered", self.fstats.recoveries_applied);
        registry.add_counter("fault.corrupted", self.fstats.corrupted);
        registry.add_counter("fault.nacks", self.fstats.nacks);
        registry.add_counter("fault.retries", self.fstats.retries);
        registry.add_counter("fault.evicted", self.fstats.evicted);
        registry.add_counter("fault.dropped", self.fstats.dropped);
        registry.add_counter("fault.lost", self.lost_packets());
        registry.add_counter("fault.clean_delivered", self.fstats.clean_delivered);
        registry.set_gauge("fault.availability", self.availability());
        registry.set_gauge(
            "fault.time_degraded_ns",
            self.fstats.time_degraded(now).as_ns_f64(),
        );
    }

    /// Deterministic corruption decision for `(packet, attempt)`:
    /// a splitmix64-style hash mapped to `[0, 1)` and compared against the
    /// transient rate, so verdicts do not depend on event interleaving.
    fn is_corrupted(&self, packet: u64, attempt: u32) -> bool {
        if self.transient <= 0.0 {
            return false;
        }
        let mut z = self
            .seed
            .wrapping_add(packet.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add((attempt as u64) << 32);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let roll = (z >> 11) as f64 / (1u64 << 53) as f64;
        roll < self.transient
    }

    fn touches_dead_site(&self, packet: &Packet) -> bool {
        self.dead[packet.src.index()] || self.dead[packet.dst.index()]
    }

    fn drop_packet(&mut self, packet: &Packet, now: Time, reason: &'static str) {
        self.fstats.dropped += 1;
        self.attempts.remove(&packet.id.0);
        self.tracer.emit(now, || TraceEvent::Drop {
            packet: packet.id.0,
            site: packet.src.index(),
            reason,
        });
    }

    /// Queues `packet` for retransmission attempt `attempt` after its
    /// exponential backoff, or drops it when the contract forbids.
    fn nack(&mut self, mut packet: Packet, attempt: u32, now: Time) {
        if !self.recovery.enabled {
            self.drop_packet(&packet, now, "no-recovery");
            return;
        }
        if attempt > self.recovery.max_retries {
            self.drop_packet(&packet, now, "retries-exhausted");
            return;
        }
        packet.delivered = None;
        packet.tx_start = None;
        packet.arb_start = None;
        self.fstats.nacks += 1;
        self.tracer.emit(now, || TraceEvent::Nack {
            packet: packet.id.0,
            src: packet.src.index(),
            attempt,
        });
        self.attempts.insert(packet.id.0, attempt + 1);
        self.retry_seq += 1;
        self.retries.push(Retry {
            at: now + self.recovery.backoff_for(attempt),
            seq: self.retry_seq,
            attempt: attempt + 1,
            packet,
        });
    }

    fn apply_one(&mut self, fault: NetFault, now: Time) -> FaultResponse {
        self.fstats.on_fault(fault, now);
        let (site, peer) = (fault.site().index(), fault.peer().index());
        if fault.is_recovery() {
            self.tracer.emit(now, || TraceEvent::Recover {
                kind: fault.name(),
                site,
                peer,
            });
        } else {
            self.tracer.emit(now, || TraceEvent::Fault {
                kind: fault.name(),
                site,
                peer,
            });
        }
        if let NetFault::SiteKill { site } = fault {
            self.dead[site.index()] = true;
        }
        let FaultResponse {
            action,
            handled,
            evicted,
        } = self.inner.apply_fault(fault, now);
        for packet in evicted {
            self.fstats.evicted += 1;
            if self.touches_dead_site(&packet) {
                self.drop_packet(&packet, now, "dead-site");
            } else {
                let attempt = *self.attempts.get(&packet.id.0).unwrap_or(&1);
                self.nack(packet, attempt, now);
            }
        }
        FaultResponse {
            action,
            handled,
            evicted: Vec::new(),
        }
    }

    /// Re-offers every retry whose backoff expired. Backpressured retries
    /// are pushed back one base-backoff; they never consume an attempt.
    fn flush_retries(&mut self, now: Time) {
        while self.retries.peek().is_some_and(|r| r.at <= now) {
            let r = self.retries.pop().expect("peeked");
            if self.touches_dead_site(&r.packet) {
                let p = r.packet;
                self.drop_packet(&p, now, "dead-site");
                continue;
            }
            let (id, src) = (r.packet.id.0, r.packet.src.index());
            match self.inner.inject(r.packet, now) {
                Ok(()) => {
                    self.fstats.retries += 1;
                    self.tracer.emit(now, || TraceEvent::Retry {
                        packet: id,
                        site: src,
                    });
                }
                Err(back) => {
                    self.retry_seq += 1;
                    self.retries.push(Retry {
                        at: now + self.recovery.backoff,
                        seq: self.retry_seq,
                        attempt: r.attempt,
                        packet: back,
                    });
                }
            }
        }
    }

    /// Screens everything the inner network delivered: corrupted packets
    /// are NACKed *at their own delivery instant* (read back from
    /// `Packet::delivered`, which the inner network stamps at true event
    /// time), clean ones pass through. Per-event driving visits deliveries
    /// one instant at a time, so this is byte-identical to screening at
    /// the drain call's `now` — and it stays exact when `advance` sweeps
    /// the inner network through a whole batch of events.
    fn drain_inner(&mut self) {
        let mut batch = std::mem::take(&mut self.scratch);
        self.inner.drain_delivered_into(&mut batch);
        for packet in batch.drain(..) {
            let at = packet.delivered.expect("drained packets are stamped");
            let attempt = *self.attempts.get(&packet.id.0).unwrap_or(&1);
            if self.is_corrupted(packet.id.0, attempt) {
                self.fstats.corrupted += 1;
                self.tracer.emit(at, || TraceEvent::Corrupt {
                    packet: packet.id.0,
                    dst: packet.dst.index(),
                });
                self.nack(packet, attempt, at);
            } else {
                self.attempts.remove(&packet.id.0);
                self.fstats.clean_delivered += 1;
                self.fstats.clean_bytes += u64::from(packet.bytes);
                self.delivered.push(packet);
            }
        }
        self.scratch = batch;
    }
}

/// Keeps the default (no) admission-queue hint: dead-site absorption
/// changes over time, so a refused packet may be absorbed on its next
/// offer even while the inner queue that refused it is still full.
impl Network for ResilientNetwork {
    fn kind(&self) -> NetworkKind {
        self.inner.kind()
    }

    fn config(&self) -> &MacrochipConfig {
        self.inner.config()
    }

    fn inject(&mut self, packet: Packet, now: Time) -> Result<(), Packet> {
        if self.touches_dead_site(&packet) {
            // Absorbed, not refused: the driver must never spin on a
            // destination that will not come back.
            self.drop_packet(&packet, now, "dead-site");
            return Ok(());
        }
        match self.inner.inject(packet, now) {
            Ok(()) => {
                self.attempts.entry(packet.id.0).or_insert(1);
                Ok(())
            }
            Err(back) => Err(back),
        }
    }

    fn next_event(&self) -> Option<Time> {
        let mut next = self.inner.next_event();
        for t in [
            self.schedule.front().map(|(at, _)| *at),
            self.retries.peek().map(|r| r.at),
        ]
        .into_iter()
        .flatten()
        {
            next = Some(next.map_or(t, |n| n.min(t)));
        }
        next
    }

    /// Time-faithful stepping: each fault fires at its scheduled instant,
    /// each retry flushes at its backoff expiry, and the inner network is
    /// advanced in stretches bounded by the next wrapper action — never
    /// past one. The ordering at a shared instant `t` matches the
    /// historical per-event contract: faults at `t`, then inner events at
    /// `t`, then retries due at `t`.
    fn advance(&mut self, now: Time) {
        loop {
            let next_fault = self.schedule.front().map(|(at, _)| *at);
            let next_retry = self.retries.peek().map(|r| r.at);
            let next_wrap = [next_fault, next_retry].into_iter().flatten().min();
            let next_inner = self.inner.next_event();
            let Some(t) = [next_wrap, next_inner]
                .into_iter()
                .flatten()
                .min()
                .filter(|&t| t <= now)
            else {
                break;
            };
            if next_wrap.is_some_and(|w| w == t) {
                while self.schedule.front().is_some_and(|(at, _)| *at <= t) {
                    let (at, fault) = self.schedule.pop_front().expect("peeked");
                    self.apply_one(fault, at);
                }
                if next_inner.is_some_and(|ti| ti <= t) {
                    self.inner.advance(t);
                    self.drain_inner();
                }
                self.flush_retries(t);
                self.last_step = Some(t);
            } else {
                // A pure inner stretch: sweep up to just before the next
                // wrapper action (or `now` when none is pending).
                let bound = match next_wrap {
                    Some(w) if w <= now => Time::from_ps(w.as_ps() - 1),
                    _ => now,
                };
                self.inner.advance(bound);
                self.drain_inner();
                self.last_step = self.inner.last_event_time().or(self.last_step);
            }
        }
    }

    fn drain_delivered(&mut self) -> Vec<Packet> {
        std::mem::take(&mut self.delivered)
    }

    fn drain_delivered_into(&mut self, out: &mut Vec<Packet>) {
        out.append(&mut self.delivered);
    }

    fn last_event_time(&self) -> Option<Time> {
        self.last_step
    }

    fn supports_batched_advance(&self) -> bool {
        // A mid-batch corruption NACK would re-inject its retry after the
        // inner network had already advanced past the backoff expiry, so
        // batching is only sound with the transient model off; fault and
        // retry instants are known ahead of time and bound each stretch.
        self.transient <= 0.0 && self.inner.supports_batched_advance()
    }

    fn slab_stats(&self) -> Option<netcore::SlabStats> {
        self.inner.slab_stats()
    }

    fn stats(&self) -> &NetStats {
        self.inner.stats()
    }

    fn events_processed(&self) -> u64 {
        self.inner.events_processed()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer.clone();
        self.inner.set_tracer(tracer);
    }

    fn apply_fault(&mut self, fault: NetFault, now: Time) -> FaultResponse {
        self.apply_one(fault, now)
    }
}
