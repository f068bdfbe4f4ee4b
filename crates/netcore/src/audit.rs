//! Runtime invariant auditing — the simulator proving its own bookkeeping.
//!
//! The [`Auditor`] is a [`TraceSink`] that rides the flight-recorder event
//! stream (alongside, or instead of, a `RingSink`) and checks, on every
//! event, that the simulation conserves packets and respects physics:
//!
//! * **Packet conservation** — every injected packet ends in exactly one
//!   of delivered / dropped / still in flight / awaiting a fault retry,
//!   per network and per site. Double deliveries, deliveries of unknown
//!   packets, drops after delivery and network drops of never-injected
//!   packets are violations.
//! * **Causality and physical lower bounds** — a delivery can never
//!   precede its injection, nor beat the time of flight implied by the
//!   [`photonics::geometry::Layout`] (torus-wrapped Manhattan distance at
//!   one hop delay per site pitch) plus serialization at the full per-site
//!   bandwidth.
//! * **Per-architecture resource invariants** — token ring: at most one
//!   holder per destination waveguide, acquire/release strictly paired;
//!   circuit switched: setup/teardown paired per circuit id, a teardown
//!   never reports packets for a circuit that was never set up; two-phase:
//!   slots wasted by reported grants never exceed the network's own wasted
//!   counter (equal on clean drained runs); limited point-to-point:
//!   electronically routed bytes reconstructed from per-hop events match
//!   the router-byte counter exactly.
//! * **Fault accounting** — faulted packets must be *accounted*, never
//!   lost: nacks void a corrupted delivery and re-arm the packet, wrapper
//!   drops are classified by their stable reason strings and reconciled
//!   against the fault layer's own drop counter.
//!
//! Violations are collected (bounded), each carrying the offending packet
//! id, site, and simulation time. After the run, [`Auditor::finalize`]
//! reconciles the event-derived totals against the network's [`NetStats`]
//! counters and returns an [`AuditReport`] exportable as the `audit.*`
//! metrics family.
//!
//! # Example
//!
//! ```
//! use desim::trace::{TraceEvent, TraceSink};
//! use desim::Time;
//! use netcore::audit::Auditor;
//! use netcore::{MacrochipConfig, NetStats, NetworkKind};
//!
//! let config = MacrochipConfig::scaled();
//! let mut audit = Auditor::new(NetworkKind::PointToPoint, &config);
//! // A delivery the network never injected is a conservation violation.
//! audit.record(
//!     Time::from_ns(5),
//!     TraceEvent::Deliver {
//!         packet: 7,
//!         src: 0,
//!         dst: 1,
//!         latency: desim::Span::from_ns(5),
//!     },
//! );
//! let report = audit.finalize(&NetStats::new(), 0, Time::from_ns(5));
//! assert!(!report.is_clean());
//! assert_eq!(report.violations[0].packet, Some(7));
//! ```

use crate::metrics::MetricsRegistry;
use crate::{FabricConfig, MacrochipConfig, NetStats, Network, NetworkKind, SiteId};
use desim::trace::{TraceEvent, TraceSink};
use desim::{Span, Time};
use std::collections::HashMap;
use std::fmt;

/// Violations stored verbatim per report; further ones are only counted.
pub const MAX_RECORDED_VIOLATIONS: usize = 64;

/// Drop reasons emitted by the fault-resilience wrapper (as opposed to a
/// network absorbing a packet itself). Kept in sync with
/// `faults::ResilientNetwork`; the auditor uses them to reconcile wrapper
/// drops against `FaultStats::dropped` separately from the network's own
/// drop counter.
pub const FAULT_DROP_REASONS: [&str; 3] = ["dead-site", "no-recovery", "retries-exhausted"];

/// One invariant violation, pinpointed in space and time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditViolation {
    /// Stable dotted check name, e.g. `"conservation.double-deliver"`.
    pub check: &'static str,
    /// Offending packet id, when the check concerns a packet.
    pub packet: Option<u64>,
    /// Site index where the violation was observed, when known.
    pub site: Option<usize>,
    /// Simulation time of the offending event.
    pub at: Time,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.check)?;
        if let Some(p) = self.packet {
            write!(f, " packet={p}")?;
        }
        if let Some(s) = self.site {
            write!(f, " site={s}")?;
        }
        write!(f, " t={}ns: {}", self.at.as_ns_f64(), self.detail)
    }
}

/// Where a tracked packet currently stands in its life cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PacketPhase {
    /// Injected, not yet delivered or dropped.
    InFlight,
    /// Delivered to its destination (possibly voided later by a nack).
    Delivered,
    /// A fault voided its delivery (or evicted it); the fault layer holds
    /// it for a retry re-injection.
    PendingRetry,
    /// Permanently dropped.
    Dropped,
}

#[derive(Debug, Clone)]
struct PacketAudit {
    src: usize,
    dst: usize,
    bytes: u32,
    /// Time of the most recent injection (re-injections update it).
    last_inject: Time,
    phase: PacketPhase,
    /// Electronic router hops taken (limited point-to-point only).
    hops: u64,
}

/// Streaming invariant checker over one network's trace-event stream.
///
/// Feed it every event of a run (share it with the network's
/// [`Tracer`](desim::Tracer), optionally teed with a recording sink), then
/// call [`Auditor::close`] with the driven network to run the end-of-run
/// checks, reconcile counters and obtain the [`AuditReport`].
pub struct Auditor {
    kind: NetworkKind,
    config: MacrochipConfig,
    /// Set for multi-chip fabric runs: switches the latency floor to
    /// chip-local geometry and arms the `fabric.inter-chip-bytes`
    /// reconciliation invariant.
    fabric: Option<FabricConfig>,
    packets: HashMap<u64, PacketAudit>,
    violations: Vec<AuditViolation>,
    total_violations: u64,
    events: u64,
    inject_events: u64,
    deliver_events: u64,
    drop_events: u64,
    stall_events: u64,
    nack_events: u64,
    corrupt_events: u64,
    /// Packets absorbed at injection time (drop for a never-seen id) by
    /// the fault wrapper ("dead-site" for an injection toward a dead
    /// destination).
    absorbed_wrapper: u64,
    /// Drop events (any packet) carrying a network-level reason.
    drops_net: u64,
    /// Drop events (any packet) carrying a fault-wrapper reason.
    drops_wrapper: u64,
    /// Σ `wasted_slots` over `ArbGrant` events (two-phase).
    wasted_from_grants: u64,
    /// Σ hops × bytes over deliveries (limited point-to-point).
    routed_bytes_from_hops: u64,
    /// Destination waveguide → current token holder (token ring).
    token_holders: HashMap<usize, usize>,
    /// Live circuits by id (circuit switched).
    circuits: HashMap<u64, (usize, usize)>,
    circuit_setups: u64,
    circuit_teardowns: u64,
    site_injected: Vec<u64>,
    site_delivered: Vec<u64>,
    site_dropped: Vec<u64>,
}

impl Auditor {
    /// Creates an auditor for one `kind` network running under `config`.
    pub fn new(kind: NetworkKind, config: &MacrochipConfig) -> Auditor {
        let sites = config.grid.sites();
        Auditor {
            kind,
            config: *config,
            fabric: None,
            packets: HashMap::new(),
            violations: Vec::new(),
            total_violations: 0,
            events: 0,
            inject_events: 0,
            deliver_events: 0,
            drop_events: 0,
            stall_events: 0,
            nack_events: 0,
            corrupt_events: 0,
            absorbed_wrapper: 0,
            drops_net: 0,
            drops_wrapper: 0,
            wasted_from_grants: 0,
            routed_bytes_from_hops: 0,
            token_holders: HashMap::new(),
            circuits: HashMap::new(),
            circuit_setups: 0,
            circuit_teardowns: 0,
            site_injected: vec![0; sites],
            site_delivered: vec![0; sites],
            site_dropped: vec![0; sites],
        }
    }

    /// Creates an auditor for a multi-chip fabric running `kind` chips.
    ///
    /// Packet endpoints address the fabric's flat global grid. The
    /// latency floor drops to chip-local geometry (same-chip pairs use
    /// the *chip's* torus wrap, which a global floor would overestimate;
    /// cross-chip pairs get serialization plus one hop of flight — the
    /// weakest bound valid for any board layout), and every relay hop —
    /// on-chip or gateway — must account its packet's bytes exactly once
    /// against `NetStats::routed_bytes` (`fabric.inter-chip-bytes`).
    ///
    /// A one-chip fabric is the bare chip, so it gets the plain
    /// [`Auditor::new`] checker, as `networks::build_fabric` builds the
    /// bare network for it.
    pub fn new_fabric(kind: NetworkKind, fabric: &FabricConfig) -> Auditor {
        if fabric.is_single() {
            return Auditor::new(kind, &fabric.chip);
        }
        let mut a = Auditor::new(kind, &fabric.global_config());
        a.fabric = Some(*fabric);
        a
    }

    /// Violations found so far (bounded at [`MAX_RECORDED_VIOLATIONS`]).
    pub fn violations(&self) -> &[AuditViolation] {
        &self.violations
    }

    /// Total violations found so far, including unrecorded ones.
    pub fn total_violations(&self) -> u64 {
        self.total_violations
    }

    fn flag(
        &mut self,
        check: &'static str,
        packet: Option<u64>,
        site: Option<usize>,
        at: Time,
        detail: String,
    ) {
        self.total_violations += 1;
        if self.violations.len() < MAX_RECORDED_VIOLATIONS {
            self.violations.push(AuditViolation {
                check,
                packet,
                site,
                at,
                detail,
            });
        }
    }

    /// The physical lower bound on inject→deliver time for one packet:
    /// serialization at the full 320 B/ns per-site peak plus time of
    /// flight over the torus-wrapped Manhattan distance (the weakest
    /// valid bound across all five architectures — the circuit-switched
    /// and limited point-to-point tori route across the wrap edges).
    /// Intra-site loop-back is modeled as a one-cycle hand-off.
    fn latency_floor(&self, src: usize, dst: usize, bytes: u32) -> Span {
        if src == dst {
            return self.config.cycle();
        }
        let ser = Span::from_ns_f64(bytes as f64 / self.config.site_bandwidth_bytes_per_ns());
        if let Some(fabric) = &self.fabric {
            let (s, d) = (SiteId::from_index(src), SiteId::from_index(dst));
            if fabric.chip_of(s) == fabric.chip_of(d) {
                // Same chip: the chip's own torus wrap applies — the
                // global grid's plain distance would over-constrain a
                // pair that the chip-local ring reaches across its wrap
                // edge in one hop.
                let chip = &fabric.chip;
                let hops = chip.layout.torus_hops(
                    chip.grid.coord(fabric.local(s)),
                    chip.grid.coord(fabric.local(d)),
                );
                return chip.layout.hop_delay() * hops as u64 + ser;
            }
            // Cross-chip: at least one hop of on-chip flight plus full
            // serialization. Board flight is deliberately excluded — the
            // weakest bound that stays valid for any gateway placement.
            return self.chip_layout().hop_delay() + ser;
        }
        let layout = &self.config.layout;
        let grid = &self.config.grid;
        let hops = layout.torus_hops(
            grid.coord(SiteId::from_index(src)),
            grid.coord(SiteId::from_index(dst)),
        );
        let flight = layout.hop_delay() * hops as u64;
        flight + ser
    }

    fn chip_layout(&self) -> &photonics::geometry::Layout {
        match &self.fabric {
            Some(f) => &f.chip.layout,
            None => &self.config.layout,
        }
    }

    fn on_inject(&mut self, at: Time, packet: u64, src: usize, dst: usize, bytes: u32) {
        self.inject_events += 1;
        let sites = self.config.grid.sites();
        if src >= sites || dst >= sites {
            self.flag(
                "conservation.site-out-of-range",
                Some(packet),
                Some(src),
                at,
                format!("injected {src} -> {dst} on a {sites}-site grid"),
            );
            return;
        }
        if let Some(slot) = self.site_injected.get_mut(src) {
            *slot += 1;
        }
        match self.packets.get_mut(&packet) {
            None => {
                self.packets.insert(
                    packet,
                    PacketAudit {
                        src,
                        dst,
                        bytes,
                        last_inject: at,
                        phase: PacketPhase::InFlight,
                        hops: 0,
                    },
                );
            }
            Some(p) => {
                if p.src != src || p.dst != dst || p.bytes != bytes {
                    let detail = format!(
                        "id re-used with different identity: {} -> {} ({} B) vs {} -> {} ({} B)",
                        p.src, p.dst, p.bytes, src, dst, bytes
                    );
                    self.flag("conservation.id-reuse", Some(packet), Some(src), at, detail);
                    return;
                }
                match p.phase {
                    PacketPhase::PendingRetry => {
                        p.phase = PacketPhase::InFlight;
                        p.last_inject = at;
                    }
                    PacketPhase::InFlight => self.flag(
                        "conservation.double-inject",
                        Some(packet),
                        Some(src),
                        at,
                        "injected again while still in flight".into(),
                    ),
                    PacketPhase::Delivered => self.flag(
                        "conservation.reinject-after-delivery",
                        Some(packet),
                        Some(src),
                        at,
                        "injected again after delivery without an intervening nack".into(),
                    ),
                    PacketPhase::Dropped => self.flag(
                        "conservation.reinject-after-drop",
                        Some(packet),
                        Some(src),
                        at,
                        "injected again after a permanent drop".into(),
                    ),
                }
            }
        }
    }

    fn on_deliver(&mut self, at: Time, packet: u64, src: usize, dst: usize) {
        self.deliver_events += 1;
        if let Some(slot) = self.site_delivered.get_mut(dst) {
            *slot += 1;
        }
        let Some(p) = self.packets.get(&packet).cloned() else {
            self.flag(
                "conservation.deliver-unknown",
                Some(packet),
                Some(dst),
                at,
                "delivered a packet that was never injected".into(),
            );
            return;
        };
        if p.src != src || p.dst != dst {
            self.flag(
                "conservation.endpoint-mismatch",
                Some(packet),
                Some(dst),
                at,
                format!(
                    "delivered as {src} -> {dst} but injected as {} -> {}",
                    p.src, p.dst
                ),
            );
        }
        match p.phase {
            PacketPhase::InFlight => {}
            PacketPhase::Delivered => {
                self.flag(
                    "conservation.double-deliver",
                    Some(packet),
                    Some(dst),
                    at,
                    "delivered twice without an intervening nack".into(),
                );
                return;
            }
            PacketPhase::Dropped => {
                self.flag(
                    "conservation.deliver-after-drop",
                    Some(packet),
                    Some(dst),
                    at,
                    "delivered after being permanently dropped".into(),
                );
                return;
            }
            PacketPhase::PendingRetry => {
                self.flag(
                    "conservation.deliver-without-reinject",
                    Some(packet),
                    Some(dst),
                    at,
                    "delivered while held by the fault layer awaiting retry".into(),
                );
                return;
            }
        }
        if at < p.last_inject {
            self.flag(
                "causality.deliver-before-inject",
                Some(packet),
                Some(dst),
                at,
                format!(
                    "delivery precedes injection at {}ns",
                    p.last_inject.as_ns_f64()
                ),
            );
        } else {
            let floor = self.latency_floor(p.src, p.dst, p.bytes);
            let measured = at.saturating_since(p.last_inject);
            if measured < floor {
                self.flag(
                    "physics.latency-below-floor",
                    Some(packet),
                    Some(dst),
                    at,
                    format!(
                        "inject-to-deliver {}ns beats the physical floor {}ns \
                         ({} B, {} -> {})",
                        measured.as_ns_f64(),
                        floor.as_ns_f64(),
                        p.bytes,
                        p.src,
                        p.dst
                    ),
                );
            }
        }
        if self.fabric.is_some()
            || matches!(
                self.kind,
                NetworkKind::LimitedPointToPoint | NetworkKind::Hierarchical
            )
        {
            self.routed_bytes_from_hops += p.hops * u64::from(p.bytes);
        }
        if let Some(p) = self.packets.get_mut(&packet) {
            p.phase = PacketPhase::Delivered;
        }
    }

    fn on_drop(&mut self, at: Time, packet: u64, site: usize, reason: &'static str) {
        self.drop_events += 1;
        if let Some(slot) = self.site_dropped.get_mut(site) {
            *slot += 1;
        }
        let wrapper = FAULT_DROP_REASONS.contains(&reason);
        if wrapper {
            self.drops_wrapper += 1;
        } else {
            self.drops_net += 1;
        }
        match self.packets.get_mut(&packet) {
            // The fault wrapper absorbs a packet toward a dead site without
            // handing it to the network: it is accounted, it just never
            // flew. A network traces `Inject` before any drop, including
            // the packets it absorbs at injection (masked, unroutable).
            None if wrapper => self.absorbed_wrapper += 1,
            None => self.flag(
                "conservation.drop-without-inject",
                Some(packet),
                Some(site),
                at,
                format!("dropped ({reason}) but never injected"),
            ),
            Some(p) => match p.phase {
                PacketPhase::InFlight | PacketPhase::PendingRetry => {
                    p.phase = PacketPhase::Dropped;
                }
                PacketPhase::Delivered => self.flag(
                    "conservation.drop-after-delivery",
                    Some(packet),
                    Some(site),
                    at,
                    format!("dropped ({reason}) after successful delivery"),
                ),
                PacketPhase::Dropped => self.flag(
                    "conservation.double-drop",
                    Some(packet),
                    Some(site),
                    at,
                    format!("dropped twice (second reason: {reason})"),
                ),
            },
        }
    }

    fn on_nack(&mut self, at: Time, packet: u64, src: usize) {
        self.nack_events += 1;
        match self.packets.get_mut(&packet) {
            None => self.flag(
                "fault.nack-unknown",
                Some(packet),
                Some(src),
                at,
                "nack for a packet that was never injected".into(),
            ),
            Some(p) => match p.phase {
                // A nack voids a corrupted delivery, or re-arms a packet
                // evicted from the network's queues by a fault.
                PacketPhase::Delivered | PacketPhase::InFlight => {
                    p.phase = PacketPhase::PendingRetry;
                }
                PacketPhase::Dropped => self.flag(
                    "fault.nack-after-drop",
                    Some(packet),
                    Some(src),
                    at,
                    "nack for a permanently dropped packet".into(),
                ),
                PacketPhase::PendingRetry => self.flag(
                    "fault.double-nack",
                    Some(packet),
                    Some(src),
                    at,
                    "nack for a packet already awaiting retry".into(),
                ),
            },
        }
    }

    fn on_token_acquire(&mut self, at: Time, dst: usize, holder: usize) {
        if let Some(&prev) = self.token_holders.get(&dst) {
            self.flag(
                "token.double-hold",
                None,
                Some(holder),
                at,
                format!("waveguide {dst} token acquired while site {prev} still holds it"),
            );
        }
        self.token_holders.insert(dst, holder);
    }

    fn on_token_release(&mut self, at: Time, dst: usize, holder: usize) {
        match self.token_holders.remove(&dst) {
            Some(prev) if prev == holder => {}
            Some(prev) => self.flag(
                "token.release-mismatch",
                None,
                Some(holder),
                at,
                format!("waveguide {dst} released by site {holder} but held by site {prev}"),
            ),
            None => self.flag(
                "token.release-unheld",
                None,
                Some(holder),
                at,
                format!("waveguide {dst} released but never acquired"),
            ),
        }
    }

    fn on_circuit_setup(&mut self, at: Time, circuit: u64, src: usize, dst: usize) {
        self.circuit_setups += 1;
        if self.circuits.insert(circuit, (src, dst)).is_some() {
            self.flag(
                "circuit.double-setup",
                None,
                Some(src),
                at,
                format!("circuit {circuit} set up twice without a teardown"),
            );
        }
    }

    fn on_circuit_teardown(&mut self, at: Time, circuit: u64, packets: u64) {
        self.circuit_teardowns += 1;
        if self.circuits.remove(&circuit).is_none() && packets > 0 {
            // A zero-packet teardown without a prior setup is the abandon
            // path (the setup never completed); claiming carried packets
            // for a circuit that was never established is not.
            self.flag(
                "circuit.orphan-teardown",
                None,
                None,
                at,
                format!("circuit {circuit} tore down claiming {packets} packets, never set up"),
            );
        }
    }

    /// Slab-leak invariant: when the network has gone idle, every
    /// in-flight packet slot must have been taken back out of its
    /// [`PacketSlab`](crate::PacketSlab) arena — a nonzero residency
    /// means some event path inserted a packet and lost the reference.
    ///
    /// Call after the run with `Network::slab_stats`, but only once the
    /// network reports no pending events (a timed-out or saturated run
    /// legitimately still holds packets). `None` (no slab) passes
    /// vacuously.
    pub fn check_slab_idle(&mut self, stats: Option<crate::SlabStats>, end: Time) {
        let Some(s) = stats else { return };
        if s.live != 0 || s.allocated != s.freed {
            self.flag(
                "slab.leak",
                None,
                None,
                end,
                format!(
                    "packet slab not empty at idle: {} live ({} allocated, {} freed, \
                     high water {}, {} slots)",
                    s.live, s.allocated, s.freed, s.high_water, s.slots
                ),
            );
        }
    }

    /// Ends the audit of a run over `net`, which the auditor watched from
    /// its first event: the slab-leak check ([`Auditor::check_slab_idle`])
    /// once `net` has no pending event, then [`Auditor::finalize`]. Every
    /// audited run closes through here, so each one checks the same
    /// invariants.
    pub fn close(&mut self, net: &dyn Network, fault_drops: u64, end: Time) -> AuditReport {
        if net.next_event().is_none() {
            self.check_slab_idle(net.slab_stats(), end);
        }
        self.finalize(net.stats(), fault_drops, end)
    }

    /// Reconciles the event-derived totals against the network's own
    /// counters and produces the report.
    ///
    /// `fault_drops` is the fault wrapper's permanent-drop counter
    /// (`FaultStats::dropped`) for runs under `faults::ResilientNetwork`,
    /// zero for bare networks. `end` is the simulation end time, stamped
    /// on finalize-stage violations.
    pub fn finalize(&mut self, stats: &NetStats, fault_drops: u64, end: Time) -> AuditReport {
        let _span = desim::prof::span(desim::prof::Site::Audit);
        if self.deliver_events != stats.delivered_packets() {
            self.flag(
                "accounting.delivered-mismatch",
                None,
                None,
                end,
                format!(
                    "{} deliver events vs {} delivered in NetStats",
                    self.deliver_events,
                    stats.delivered_packets()
                ),
            );
        }
        if self.inject_events != stats.injected_packets() {
            self.flag(
                "accounting.injected-mismatch",
                None,
                None,
                end,
                format!(
                    "{} inject events vs {} injected in NetStats",
                    self.inject_events,
                    stats.injected_packets()
                ),
            );
        }
        if self.drops_net != stats.dropped_packets() {
            self.flag(
                "accounting.dropped-mismatch",
                None,
                None,
                end,
                format!(
                    "{} network drop events vs {} dropped in NetStats",
                    self.drops_net,
                    stats.dropped_packets()
                ),
            );
        }
        if self.drops_wrapper != fault_drops {
            self.flag(
                "accounting.fault-drops-mismatch",
                None,
                None,
                end,
                format!(
                    "{} wrapper drop events vs {} dropped in FaultStats",
                    self.drops_wrapper, fault_drops
                ),
            );
        }
        if self.stall_events > stats.rejected_packets() {
            self.flag(
                "accounting.reject-undercount",
                None,
                None,
                end,
                format!(
                    "{} stall events but only {} rejections in NetStats",
                    self.stall_events,
                    stats.rejected_packets()
                ),
            );
        }
        let mut in_flight = 0u64;
        let mut pending_retry = 0u64;
        let mut delivered = 0u64;
        let mut dropped = 0u64;
        for p in self.packets.values() {
            match p.phase {
                PacketPhase::InFlight => in_flight += 1,
                PacketPhase::PendingRetry => pending_retry += 1,
                PacketPhase::Delivered => delivered += 1,
                PacketPhase::Dropped => dropped += 1,
            }
        }
        // Two-phase: grants report the slots their packet wasted before
        // winning; packets still queued (or evicted by a fault before
        // winning) hold wasted slots the stream has not reported yet, so
        // the event-side sum can only ever be <= the counter — and must
        // match it exactly once everything drained cleanly.
        let drained_clean = in_flight == 0
            && pending_retry == 0
            && self.nack_events == 0
            && fault_drops == 0
            && self.drops_wrapper == 0;
        let waste_consistent = if drained_clean {
            self.wasted_from_grants == stats.wasted_slots()
        } else {
            self.wasted_from_grants <= stats.wasted_slots()
        };
        if !waste_consistent {
            self.flag(
                "twophase.wasted-slot-mismatch",
                None,
                None,
                end,
                format!(
                    "grants report {} wasted slots vs {} in NetStats",
                    self.wasted_from_grants,
                    stats.wasted_slots()
                ),
            );
        }
        // Electronic-routing byte conservation: every router (limited
        // point-to-point) or bridge (hierarchical) relay must account its
        // packet's bytes exactly once — hop events and NetStats are
        // independent tallies of the same forwarding work.
        // In fabric mode the wrapper re-emits every relay (inner network
        // forwards plus its own gateway hops) as hop events, so the
        // reconciliation covers all architectures under one invariant.
        let routed_bytes_check = if self.fabric.is_some() {
            Some("fabric.inter-chip-bytes")
        } else {
            match self.kind {
                NetworkKind::LimitedPointToPoint => Some("limited.routed-bytes-mismatch"),
                NetworkKind::Hierarchical => Some("hierarchical.bridge-bytes-mismatch"),
                _ => None,
            }
        };
        if let Some(check) = routed_bytes_check {
            if self.routed_bytes_from_hops != stats.routed_bytes() {
                self.flag(
                    check,
                    None,
                    None,
                    end,
                    format!(
                        "hop events imply {} routed bytes vs {} in NetStats",
                        self.routed_bytes_from_hops,
                        stats.routed_bytes()
                    ),
                );
            }
        }
        if !self.token_holders.is_empty() {
            let held: Vec<usize> = self.token_holders.keys().copied().collect();
            self.flag(
                "token.held-at-end",
                None,
                None,
                end,
                format!("tokens still held at end of run for waveguides {held:?}"),
            );
        }
        AuditReport {
            network: self.kind,
            events: self.events,
            packets_tracked: self.packets.len() as u64,
            absorbed: self.absorbed_wrapper,
            delivered,
            dropped,
            in_flight,
            pending_retry,
            nacks: self.nack_events,
            corruptions: self.corrupt_events,
            circuits_open: self.circuits.len() as u64,
            site_injected: std::mem::take(&mut self.site_injected),
            site_delivered: std::mem::take(&mut self.site_delivered),
            site_dropped: std::mem::take(&mut self.site_dropped),
            total_violations: self.total_violations,
            violations: std::mem::take(&mut self.violations),
        }
    }

    /// The set of packet ids this auditor saw injected (absorbed
    /// admissions excluded), order-independent: `(count, xor-fold of
    /// FNV-1a hashes)`. Two networks fed the same trace must agree — the
    /// cross-network differential oracle's conservation key.
    pub fn injected_set_digest(&self) -> (u64, u64) {
        let mut acc = 0u64;
        for &id in self.packets.keys() {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for b in id.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            acc ^= h;
        }
        (self.packets.len() as u64, acc)
    }
}

impl TraceSink for Auditor {
    fn record(&mut self, at: Time, event: TraceEvent) {
        let _span = desim::prof::span(desim::prof::Site::Audit);
        self.events += 1;
        match event {
            TraceEvent::Inject {
                packet,
                src,
                dst,
                bytes,
            } => self.on_inject(at, packet, src, dst, bytes),
            TraceEvent::Deliver {
                packet, src, dst, ..
            } => self.on_deliver(at, packet, src, dst),
            TraceEvent::Drop {
                packet,
                site,
                reason,
            } => self.on_drop(at, packet, site, reason),
            TraceEvent::Stall { .. } => self.stall_events += 1,
            TraceEvent::ArbGrant {
                packet,
                site,
                wasted_slots,
            } => {
                self.wasted_from_grants += u64::from(wasted_slots);
                if !self.packets.contains_key(&packet) {
                    self.flag(
                        "arb.grant-unknown",
                        Some(packet),
                        Some(site),
                        at,
                        "arbitration grant for a packet that was never injected".into(),
                    );
                }
            }
            TraceEvent::TokenAcquire { dst, holder } => self.on_token_acquire(at, dst, holder),
            TraceEvent::TokenRelease { dst, holder } => self.on_token_release(at, dst, holder),
            TraceEvent::CircuitSetup { circuit, src, dst } => {
                self.on_circuit_setup(at, circuit, src, dst)
            }
            TraceEvent::CircuitTeardown { circuit, packets } => {
                self.on_circuit_teardown(at, circuit, packets)
            }
            TraceEvent::Hop { packet, at: site } => {
                // Limited point-to-point router hops and hierarchical
                // bridge relays carry packet ids; the circuit-switched
                // network reuses the event for setup messages with
                // *circuit* ids, which the packet-level audit must not
                // interpret. The fabric wrapper never forwards its tracer
                // to the inner chips, so under a fabric every hop event
                // the sink sees is a packet-id relay regardless of kind.
                if self.fabric.is_some()
                    || matches!(
                        self.kind,
                        NetworkKind::LimitedPointToPoint | NetworkKind::Hierarchical
                    )
                {
                    match self.packets.get_mut(&packet) {
                        Some(p) => p.hops += 1,
                        None => self.flag(
                            "route.hop-unknown",
                            Some(packet),
                            Some(site),
                            at,
                            "forwarded a packet that was never injected".into(),
                        ),
                    }
                }
            }
            TraceEvent::Corrupt { packet, dst } => {
                self.corrupt_events += 1;
                match self.packets.get(&packet).map(|p| p.phase) {
                    Some(PacketPhase::Delivered) => {}
                    Some(_) => self.flag(
                        "fault.corrupt-undelivered",
                        Some(packet),
                        Some(dst),
                        at,
                        "corruption reported for a packet that was not just delivered".into(),
                    ),
                    None => self.flag(
                        "fault.corrupt-unknown",
                        Some(packet),
                        Some(dst),
                        at,
                        "corruption reported for a packet that was never injected".into(),
                    ),
                }
            }
            TraceEvent::Nack { packet, src, .. } => self.on_nack(at, packet, src),
            TraceEvent::Retry { .. }
            | TraceEvent::ArbRequest { .. }
            | TraceEvent::Coherence { .. }
            | TraceEvent::Fault { .. }
            | TraceEvent::Recover { .. } => {}
        }
    }
}

/// The reconciled outcome of one audited run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// Network architecture audited.
    pub network: NetworkKind,
    /// Trace events inspected.
    pub events: u64,
    /// Unique packets that entered the network (absorbed admissions not
    /// included).
    pub packets_tracked: u64,
    /// Packets the fault wrapper accounted as dropped at the injection
    /// boundary (dead destinations). A network's own absorbed admissions
    /// (masked, unroutable) trace `Inject` first and count as dropped.
    pub absorbed: u64,
    /// Packets whose final state is delivered.
    pub delivered: u64,
    /// Packets whose final state is permanently dropped (after flying).
    pub dropped: u64,
    /// Packets still in flight at the end of the run.
    pub in_flight: u64,
    /// Packets held by the fault layer awaiting a retry at end of run.
    pub pending_retry: u64,
    /// Nack events observed (voided deliveries and fault evictions).
    pub nacks: u64,
    /// Corrupted-delivery events observed.
    pub corruptions: u64,
    /// Circuits still established at end of run (circuit switched).
    pub circuits_open: u64,
    /// Packets injected per source site.
    pub site_injected: Vec<u64>,
    /// Packets delivered per destination site.
    pub site_delivered: Vec<u64>,
    /// Drop events per site (the site the drop was observed at).
    pub site_dropped: Vec<u64>,
    /// All violations found, including ones beyond the recording bound.
    pub total_violations: u64,
    /// The first [`MAX_RECORDED_VIOLATIONS`] violations, in stream order.
    pub violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// A report carrying externally produced violations (e.g. the
    /// coherence engine's invariant checks) with no packet stream behind
    /// it.
    pub fn from_violations(network: NetworkKind, violations: Vec<AuditViolation>) -> AuditReport {
        AuditReport {
            network,
            events: 0,
            packets_tracked: 0,
            absorbed: 0,
            delivered: 0,
            dropped: 0,
            in_flight: 0,
            pending_retry: 0,
            nacks: 0,
            corruptions: 0,
            circuits_open: 0,
            site_injected: Vec::new(),
            site_delivered: Vec::new(),
            site_dropped: Vec::new(),
            total_violations: violations.len() as u64,
            violations,
        }
    }

    /// True when not a single invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.total_violations == 0
    }

    /// The conservation identity over final packet states: every unique
    /// injected packet is delivered, dropped, in flight, or pending a
    /// retry. Holds by construction unless the stream itself violated
    /// conservation.
    pub fn conservation_holds(&self) -> bool {
        self.packets_tracked == self.delivered + self.dropped + self.in_flight + self.pending_retry
    }

    /// Flattens the report into `reg` as the `audit.*` metrics family.
    pub fn record_metrics(&self, reg: &mut MetricsRegistry) {
        reg.add_counter("audit.events", self.events);
        reg.add_counter("audit.packets", self.packets_tracked);
        reg.add_counter("audit.absorbed", self.absorbed);
        reg.add_counter("audit.delivered", self.delivered);
        reg.add_counter("audit.dropped", self.dropped);
        reg.add_counter("audit.in_flight", self.in_flight);
        reg.add_counter("audit.pending_retry", self.pending_retry);
        reg.add_counter("audit.nacks", self.nacks);
        reg.add_counter("audit.corruptions", self.corruptions);
        reg.add_counter("audit.violations", self.total_violations);
    }

    /// One line per violation, human-readable, bounded by the recording
    /// cap; the caller prints these under a `--audit` failure.
    pub fn violation_lines(&self) -> Vec<String> {
        let mut lines: Vec<String> = self.violations.iter().map(|v| v.to_string()).collect();
        let unrecorded = self.total_violations - self.violations.len() as u64;
        if unrecorded > 0 {
            lines.push(format!("... and {unrecorded} more violations"));
        }
        lines
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "audit[{}]: {} events, {} packets ({} delivered, {} dropped, \
             {} absorbed, {} in flight, {} pending retry), {} violations",
            self.network.name(),
            self.events,
            self.packets_tracked,
            self.delivered,
            self.dropped,
            self.absorbed,
            self.in_flight,
            self.pending_retry,
            self.total_violations
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> MacrochipConfig {
        MacrochipConfig::scaled()
    }

    fn auditor(kind: NetworkKind) -> Auditor {
        Auditor::new(kind, &config())
    }

    fn inject(packet: u64, src: usize, dst: usize) -> TraceEvent {
        TraceEvent::Inject {
            packet,
            src,
            dst,
            bytes: 64,
        }
    }

    fn deliver(packet: u64, src: usize, dst: usize) -> TraceEvent {
        TraceEvent::Deliver {
            packet,
            src,
            dst,
            latency: Span::from_ns(100),
        }
    }

    fn stats_with(injected: u64, delivered_pairs: &[(u64, u64)]) -> NetStats {
        use crate::{MessageKind, Packet, PacketId};
        let mut s = NetStats::new();
        for _ in 0..injected {
            s.on_inject(Time::ZERO);
        }
        for &(id, at_ns) in delivered_pairs {
            let mut p = Packet::new(
                PacketId(id),
                SiteId::from_index(0),
                SiteId::from_index(1),
                64,
                MessageKind::Data,
                Time::ZERO,
            );
            p.delivered = Some(Time::from_ns(at_ns));
            s.on_deliver(&p);
        }
        s
    }

    #[test]
    fn clean_inject_deliver_cycle_is_clean() {
        let mut a = auditor(NetworkKind::PointToPoint);
        a.record(Time::ZERO, inject(1, 0, 9));
        a.record(Time::from_ns(100), deliver(1, 0, 9));
        let report = a.finalize(&stats_with(1, &[(1, 100)]), 0, Time::from_ns(100));
        assert!(report.is_clean(), "{:?}", report.violations);
        assert!(report.conservation_holds());
        assert_eq!(report.delivered, 1);
        assert_eq!(report.site_injected[0], 1);
        assert_eq!(report.site_delivered[9], 1);
    }

    #[test]
    fn double_delivery_is_flagged_with_packet_site_and_time() {
        let mut a = auditor(NetworkKind::PointToPoint);
        a.record(Time::ZERO, inject(42, 3, 7));
        a.record(Time::from_ns(50), deliver(42, 3, 7));
        a.record(Time::from_ns(60), deliver(42, 3, 7));
        let report = a.finalize(&stats_with(1, &[(42, 50), (42, 60)]), 0, Time::from_ns(60));
        let v = report
            .violations
            .iter()
            .find(|v| v.check == "conservation.double-deliver")
            .expect("double delivery flagged");
        assert_eq!(v.packet, Some(42));
        assert_eq!(v.site, Some(7));
        assert_eq!(v.at, Time::from_ns(60));
    }

    #[test]
    fn delivery_of_unknown_packet_is_flagged() {
        let mut a = auditor(NetworkKind::TokenRing);
        a.record(Time::from_ns(5), deliver(7, 0, 1));
        assert_eq!(a.total_violations(), 1);
        assert_eq!(a.violations()[0].check, "conservation.deliver-unknown");
    }

    #[test]
    fn physical_latency_floor_catches_impossible_deliveries() {
        let mut a = auditor(NetworkKind::PointToPoint);
        // (0,0) -> (4,4) is 8 torus hops = 2 ns of flight; delivering
        // 0.5 ns after injection is physically impossible.
        let dst = config().grid.site(4, 4).index();
        a.record(Time::ZERO, inject(1, 0, dst));
        a.record(
            Time::from_ps(500),
            TraceEvent::Deliver {
                packet: 1,
                src: 0,
                dst,
                latency: Span::from_ps(500),
            },
        );
        assert_eq!(a.violations()[0].check, "physics.latency-below-floor");
    }

    #[test]
    fn loopback_at_one_cycle_is_legal() {
        let mut a = auditor(NetworkKind::PointToPoint);
        a.record(Time::ZERO, inject(1, 5, 5));
        a.record(Time::from_ps(200), deliver(1, 5, 5));
        assert_eq!(a.total_violations(), 0);
    }

    #[test]
    fn nack_voids_a_delivery_and_permits_reinjection() {
        let mut a = auditor(NetworkKind::PointToPoint);
        a.record(Time::ZERO, inject(1, 0, 9));
        a.record(Time::from_ns(100), deliver(1, 0, 9));
        a.record(
            Time::from_ns(100),
            TraceEvent::Corrupt { packet: 1, dst: 9 },
        );
        a.record(
            Time::from_ns(100),
            TraceEvent::Nack {
                packet: 1,
                src: 0,
                attempt: 1,
            },
        );
        a.record(Time::from_ns(200), inject(1, 0, 9));
        a.record(Time::from_ns(300), deliver(1, 0, 9));
        // 2 injections / 2 deliveries in the stream and the counters.
        let stats = stats_with(2, &[(1, 100), (1, 300)]);
        let report = a.finalize(&stats, 0, Time::from_ns(300));
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.nacks, 1);
        assert_eq!(report.corruptions, 1);
        assert_eq!(report.delivered, 1);
    }

    #[test]
    fn reinjection_without_a_nack_is_flagged() {
        let mut a = auditor(NetworkKind::PointToPoint);
        a.record(Time::ZERO, inject(1, 0, 9));
        a.record(Time::from_ns(100), deliver(1, 0, 9));
        a.record(Time::from_ns(200), inject(1, 0, 9));
        assert_eq!(
            a.violations()[0].check,
            "conservation.reinject-after-delivery"
        );
    }

    #[test]
    fn wrapper_drops_reconcile_against_fault_stats() {
        let mut a = auditor(NetworkKind::TwoPhase);
        a.record(Time::ZERO, inject(1, 0, 9));
        a.record(
            Time::from_ns(10),
            TraceEvent::Nack {
                packet: 1,
                src: 0,
                attempt: 1,
            },
        );
        a.record(
            Time::from_ns(20),
            TraceEvent::Drop {
                packet: 1,
                site: 0,
                reason: "retries-exhausted",
            },
        );
        // Nack without a delivery models a fault eviction from the queues.
        let report = a.finalize(&stats_with(1, &[]), 1, Time::from_ns(20));
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.dropped, 1);

        // The same stream reconciled against a fault layer that claims no
        // drops is an accounting violation.
        let mut b = auditor(NetworkKind::TwoPhase);
        b.record(Time::ZERO, inject(1, 0, 9));
        b.record(
            Time::from_ns(10),
            TraceEvent::Nack {
                packet: 1,
                src: 0,
                attempt: 1,
            },
        );
        b.record(
            Time::from_ns(20),
            TraceEvent::Drop {
                packet: 1,
                site: 0,
                reason: "retries-exhausted",
            },
        );
        let report = b.finalize(&stats_with(1, &[]), 0, Time::from_ns(20));
        assert!(report
            .violations
            .iter()
            .any(|v| v.check == "accounting.fault-drops-mismatch"));
    }

    #[test]
    fn absorbed_admissions_reconcile_injection_counts() {
        // A masked two-phase injection: counted in NetStats as injected
        // and dropped, and traced as an Inject then a Drop at once.
        let mut a = auditor(NetworkKind::TwoPhase);
        let mut stats = NetStats::new();
        stats.on_inject(Time::ZERO);
        stats.on_drop();
        a.record(Time::ZERO, inject(5, 2, 9));
        a.record(
            Time::ZERO,
            TraceEvent::Drop {
                packet: 5,
                site: 2,
                reason: "masked",
            },
        );
        let report = a.finalize(&stats, 0, Time::ZERO);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!((report.dropped, report.absorbed), (1, 0));
    }

    #[test]
    fn a_network_drop_without_an_inject_is_flagged() {
        // A network-reason Drop for a packet no Inject announced.
        let mut a = auditor(NetworkKind::LimitedPointToPoint);
        let mut stats = NetStats::new();
        stats.on_inject(Time::ZERO);
        stats.on_drop();
        a.record(
            Time::ZERO,
            TraceEvent::Drop {
                packet: 5,
                site: 0,
                reason: "no-route",
            },
        );
        let report = a.finalize(&stats, 0, Time::ZERO);
        let checks: Vec<&str> = report.violations.iter().map(|v| v.check).collect();
        assert!(
            checks.contains(&"conservation.drop-without-inject"),
            "{checks:?}"
        );
        // A fault-wrapper drop of a never-injected packet is an absorbed
        // admission, not a violation.
        let mut b = auditor(NetworkKind::LimitedPointToPoint);
        b.record(
            Time::ZERO,
            TraceEvent::Drop {
                packet: 6,
                site: 3,
                reason: "dead-site",
            },
        );
        let report = b.finalize(&NetStats::new(), 1, Time::ZERO);
        assert!(report.is_clean(), "{:?}", report.violations);
        assert_eq!(report.absorbed, 1);
    }

    #[test]
    fn token_double_hold_and_mismatched_release_are_flagged() {
        let mut a = auditor(NetworkKind::TokenRing);
        a.record(Time::ZERO, TraceEvent::TokenAcquire { dst: 3, holder: 1 });
        a.record(
            Time::from_ns(1),
            TraceEvent::TokenAcquire { dst: 3, holder: 2 },
        );
        a.record(
            Time::from_ns(2),
            TraceEvent::TokenRelease { dst: 3, holder: 9 },
        );
        let checks: Vec<&str> = a.violations().iter().map(|v| v.check).collect();
        assert_eq!(checks, vec!["token.double-hold", "token.release-mismatch"]);
    }

    #[test]
    fn circuit_pairing_tolerates_abandon_but_not_orphans() {
        let mut a = auditor(NetworkKind::CircuitSwitched);
        // Abandon path: per-packet drops then a zero-packet teardown with
        // no setup — tolerated.
        a.record(Time::ZERO, inject(1, 0, 9));
        a.record(
            Time::from_ns(5),
            TraceEvent::Drop {
                packet: 1,
                site: 4,
                reason: "setup-lost",
            },
        );
        a.record(
            Time::from_ns(5),
            TraceEvent::CircuitTeardown {
                circuit: 0,
                packets: 0,
            },
        );
        assert_eq!(a.total_violations(), 0);
        // An orphan teardown claiming packets is not.
        a.record(
            Time::from_ns(9),
            TraceEvent::CircuitTeardown {
                circuit: 7,
                packets: 3,
            },
        );
        assert_eq!(
            a.violations().last().unwrap().check,
            "circuit.orphan-teardown"
        );
    }

    #[test]
    fn limited_p2p_routed_bytes_reconcile() {
        let mut a = auditor(NetworkKind::LimitedPointToPoint);
        a.record(Time::ZERO, inject(1, 0, 9));
        a.record(Time::from_ns(1), TraceEvent::Hop { packet: 1, at: 3 });
        a.record(Time::from_ns(20), deliver(1, 0, 9));
        // NetStats with routed_bytes = 64 matches the one forwarded hop.
        use crate::{MessageKind, Packet, PacketId};
        let mut stats = NetStats::new();
        stats.on_inject(Time::ZERO);
        let mut p = Packet::new(
            PacketId(1),
            SiteId::from_index(0),
            SiteId::from_index(9),
            64,
            MessageKind::Data,
            Time::ZERO,
        );
        p.routed_bytes = 64;
        p.delivered = Some(Time::from_ns(20));
        stats.on_deliver(&p);
        let report = a.finalize(&stats, 0, Time::from_ns(20));
        assert!(report.is_clean(), "{:?}", report.violations);

        // A counter that disagrees with the hop stream is flagged.
        let mut b = auditor(NetworkKind::LimitedPointToPoint);
        b.record(Time::ZERO, inject(1, 0, 9));
        b.record(Time::from_ns(20), deliver(1, 0, 9));
        let report = b.finalize(&stats, 0, Time::from_ns(20));
        assert!(report
            .violations
            .iter()
            .any(|v| v.check == "limited.routed-bytes-mismatch"));
    }

    #[test]
    fn hierarchical_bridge_bytes_reconcile() {
        use crate::{MessageKind, Packet, PacketId};
        // A cross-cluster journey: two bridge relays, each accounting the
        // packet's 64 bytes — 128 routed bytes total.
        let mut stats = NetStats::new();
        stats.on_inject(Time::ZERO);
        let mut p = Packet::new(
            PacketId(1),
            SiteId::from_index(1),
            SiteId::from_index(5),
            64,
            MessageKind::Data,
            Time::ZERO,
        );
        p.routed_bytes = 128;
        p.delivered = Some(Time::from_ns(20));
        stats.on_deliver(&p);

        let mut a = auditor(NetworkKind::Hierarchical);
        a.record(Time::ZERO, inject(1, 1, 5));
        a.record(Time::from_ns(4), TraceEvent::Hop { packet: 1, at: 0 });
        a.record(Time::from_ns(9), TraceEvent::Hop { packet: 1, at: 4 });
        a.record(Time::from_ns(20), deliver(1, 1, 5));
        let report = a.finalize(&stats, 0, Time::from_ns(20));
        assert!(report.is_clean(), "{:?}", report.violations);

        // Dropping a relay's accounting breaks byte conservation.
        let mut b = auditor(NetworkKind::Hierarchical);
        b.record(Time::ZERO, inject(1, 1, 5));
        b.record(Time::from_ns(4), TraceEvent::Hop { packet: 1, at: 0 });
        b.record(Time::from_ns(20), deliver(1, 1, 5));
        let report = b.finalize(&stats, 0, Time::from_ns(20));
        assert!(report
            .violations
            .iter()
            .any(|v| v.check == "hierarchical.bridge-bytes-mismatch"));
    }

    #[test]
    fn hierarchical_cluster_grants_use_the_token_invariant() {
        // The per-cluster broadcast grant is audited with the token
        // checks, keyed by cluster id: overlapping grants are flagged.
        let mut a = auditor(NetworkKind::Hierarchical);
        a.record(Time::ZERO, TraceEvent::TokenAcquire { dst: 0, holder: 1 });
        a.record(
            Time::from_ns(1),
            TraceEvent::TokenRelease { dst: 0, holder: 1 },
        );
        assert_eq!(a.total_violations(), 0);
        a.record(
            Time::from_ns(2),
            TraceEvent::TokenAcquire { dst: 2, holder: 9 },
        );
        a.record(
            Time::from_ns(3),
            TraceEvent::TokenAcquire { dst: 2, holder: 10 },
        );
        assert_eq!(a.violations().last().unwrap().check, "token.double-hold");
    }

    #[test]
    fn injected_set_digest_is_order_independent() {
        let mut a = auditor(NetworkKind::PointToPoint);
        let mut b = auditor(NetworkKind::TokenRing);
        for id in [3u64, 1, 2] {
            a.record(Time::ZERO, inject(id, 0, 1));
        }
        for id in [1u64, 2, 3] {
            b.record(Time::ZERO, inject(id, 0, 1));
        }
        assert_eq!(a.injected_set_digest(), b.injected_set_digest());
        b.record(Time::ZERO, inject(4, 0, 1));
        assert_ne!(a.injected_set_digest(), b.injected_set_digest());
    }

    #[test]
    fn report_metrics_export_under_audit_family() {
        let mut a = auditor(NetworkKind::PointToPoint);
        a.record(Time::ZERO, inject(1, 0, 9));
        a.record(Time::from_ns(100), deliver(1, 0, 9));
        let report = a.finalize(&stats_with(1, &[(1, 100)]), 0, Time::from_ns(100));
        let mut reg = MetricsRegistry::new();
        report.record_metrics(&mut reg);
        let json = reg.snapshot().to_json();
        assert!(json.contains("\"audit.packets\": 1"), "{json}");
        assert!(json.contains("\"audit.violations\": 0"), "{json}");
    }

    #[test]
    fn slab_leak_is_flagged_at_idle() {
        use crate::{MessageKind, Packet, PacketId, PacketSlab};
        let mut slab = PacketSlab::new();
        let leaked = slab.insert(Packet::new(
            PacketId(3),
            SiteId::from_index(0),
            SiteId::from_index(1),
            64,
            MessageKind::Data,
            Time::ZERO,
        ));
        let mut a = auditor(NetworkKind::PointToPoint);
        a.check_slab_idle(Some(slab.stats()), Time::from_ns(50));
        let v = &a.violations()[0];
        assert_eq!(v.check, "slab.leak");
        assert!(v.detail.contains("1 live"), "{}", v.detail);

        // Taking the packet back out clears the invariant; no-slab
        // networks pass vacuously.
        slab.take(leaked);
        let mut b = auditor(NetworkKind::PointToPoint);
        b.check_slab_idle(Some(slab.stats()), Time::from_ns(50));
        b.check_slab_idle(None, Time::from_ns(50));
        assert_eq!(b.total_violations(), 0);
    }

    /// Just enough of a network for [`Auditor::close`]: its slab holds one
    /// packet, and it may still have an event pending.
    struct HeldPacket {
        config: MacrochipConfig,
        stats: NetStats,
        pending: Option<Time>,
    }

    impl Network for HeldPacket {
        fn kind(&self) -> NetworkKind {
            NetworkKind::PointToPoint
        }

        fn config(&self) -> &MacrochipConfig {
            &self.config
        }

        fn inject(&mut self, packet: crate::Packet, _now: Time) -> Result<(), crate::Packet> {
            Err(packet)
        }

        fn next_event(&self) -> Option<Time> {
            self.pending
        }

        fn advance(&mut self, _now: Time) {}

        fn drain_delivered(&mut self) -> Vec<crate::Packet> {
            Vec::new()
        }

        fn slab_stats(&self) -> Option<crate::SlabStats> {
            Some(crate::SlabStats {
                allocated: 1,
                freed: 0,
                live: 1,
                high_water: 1,
                slots: 1,
            })
        }

        fn stats(&self) -> &NetStats {
            &self.stats
        }
    }

    #[test]
    fn close_checks_the_slab_once_the_network_is_idle() {
        let held = |pending| HeldPacket {
            config: config(),
            stats: NetStats::new(),
            pending,
        };
        let end = Time::from_ns(50);
        let report = auditor(NetworkKind::PointToPoint).close(&held(None), 0, end);
        assert_eq!(report.total_violations, 1);
        let v = &report.violations[0];
        assert_eq!(v.check, "slab.leak");
        assert!(v.detail.contains("1 live"), "{}", v.detail);

        // With an event pending the run stopped mid-flight (saturated or
        // timed out), so a held packet is no leak.
        let busy = held(Some(Time::from_ns(60)));
        let report = auditor(NetworkKind::PointToPoint).close(&busy, 0, end);
        assert!(report.is_clean(), "{:?}", report.violation_lines());
    }

    #[test]
    fn a_one_chip_fabric_auditor_is_the_plain_auditor() {
        // No fabric-mode floors or `fabric.inter-chip-bytes` check for a
        // bare chip: it answers to its own architecture's invariants.
        let a = Auditor::new_fabric(NetworkKind::Hierarchical, &FabricConfig::single(config()));
        assert!(a.fabric.is_none());
        assert_eq!(a.config, config());
    }

    fn fabric_auditor(kind: NetworkKind) -> Auditor {
        Auditor::new_fabric(kind, &FabricConfig::grid(2, config()))
    }

    #[test]
    fn fabric_floor_uses_chip_local_wrap_for_same_chip_pairs() {
        // Global (0,0) -> (7,0) sits on one chip; the chip's token ring
        // wraps, so the pair is one local ring hop: 0.25 ns flight +
        // 0.2 ns serialization. The global 16-grid's plain distance
        // would demand 7 hops and falsely flag a legal 0.5 ns delivery.
        let mut a = fabric_auditor(NetworkKind::TokenRing);
        let fabric = FabricConfig::grid(2, config());
        let dst = fabric.global_config().grid.site(7, 0).index();
        a.record(Time::ZERO, inject(1, 0, dst));
        a.record(Time::from_ps(500), deliver(1, 0, dst));
        assert_eq!(a.total_violations(), 0, "{:?}", a.violations());
    }

    #[test]
    fn fabric_floor_binds_cross_chip_pairs() {
        // Cross-chip floor: serialization (0.2 ns) + one hop (0.25 ns).
        let mut a = fabric_auditor(NetworkKind::TokenRing);
        let fabric = FabricConfig::grid(2, config());
        let dst = fabric.gateway(1).index();
        a.record(Time::ZERO, inject(1, 0, dst));
        a.record(Time::from_ps(300), deliver(1, 0, dst));
        assert_eq!(a.violations()[0].check, "physics.latency-below-floor");

        let mut b = fabric_auditor(NetworkKind::TokenRing);
        b.record(Time::ZERO, inject(1, 0, dst));
        b.record(Time::from_ns(5), deliver(1, 0, dst));
        assert_eq!(b.total_violations(), 0, "{:?}", b.violations());
    }

    #[test]
    fn fabric_inter_chip_bytes_reconciled_for_any_kind() {
        use crate::{MessageKind, Packet, PacketId};
        let fabric = FabricConfig::grid(2, config());
        let dst = fabric.gateway(1).index();
        let stats = |routed: u32| {
            let mut s = NetStats::new();
            s.on_inject(Time::ZERO);
            let mut p = Packet::new(
                PacketId(1),
                SiteId::from_index(0),
                SiteId::from_index(dst),
                64,
                MessageKind::Data,
                Time::ZERO,
            );
            p.routed_bytes = routed;
            p.delivered = Some(Time::from_ns(20));
            s.on_deliver(&p);
            s
        };

        // Two relay hops at 64 B each, matched by the routed counter:
        // clean — even for a kind (token ring) that has no electronic
        // relays on a single chip.
        let mut a = fabric_auditor(NetworkKind::TokenRing);
        a.record(Time::ZERO, inject(1, 0, dst));
        a.record(Time::from_ns(4), TraceEvent::Hop { packet: 1, at: 0 });
        a.record(Time::from_ns(9), TraceEvent::Hop { packet: 1, at: dst });
        a.record(Time::from_ns(20), deliver(1, 0, dst));
        let report = a.finalize(&stats(128), 0, Time::from_ns(20));
        assert!(report.is_clean(), "{:?}", report.violations);

        // A gateway relay whose bytes never land in the counter breaks
        // the fabric reconciliation invariant.
        let mut b = fabric_auditor(NetworkKind::TokenRing);
        b.record(Time::ZERO, inject(1, 0, dst));
        b.record(Time::from_ns(4), TraceEvent::Hop { packet: 1, at: 0 });
        b.record(Time::from_ns(9), TraceEvent::Hop { packet: 1, at: dst });
        b.record(Time::from_ns(20), deliver(1, 0, dst));
        let report = b.finalize(&stats(64), 0, Time::from_ns(20));
        assert!(report
            .violations
            .iter()
            .any(|v| v.check == "fabric.inter-chip-bytes"));
    }

    #[test]
    fn violation_cap_keeps_counting() {
        let mut a = auditor(NetworkKind::PointToPoint);
        for id in 0..(MAX_RECORDED_VIOLATIONS as u64 + 10) {
            a.record(Time::ZERO, deliver(id, 0, 1));
        }
        assert_eq!(a.violations().len(), MAX_RECORDED_VIOLATIONS);
        assert_eq!(a.total_violations(), MAX_RECORDED_VIOLATIONS as u64 + 10);
        // Finalize reconciliation against empty NetStats adds one more.
        let report = a.finalize(&NetStats::new(), 0, Time::ZERO);
        assert_eq!(report.violations.len(), MAX_RECORDED_VIOLATIONS);
        let unrecorded = report.total_violations - MAX_RECORDED_VIOLATIONS as u64;
        let lines = report.violation_lines();
        assert!(lines
            .last()
            .unwrap()
            .contains(&format!("{unrecorded} more violations")));
    }
}
