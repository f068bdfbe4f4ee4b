//! Multi-macrochip fabric: `M×M` chips joined by board-level photonic
//! links between per-chip gateway sites (ROADMAP item 2).
//!
//! A [`FabricNetwork`] wraps one inner network instance *per chip* — any
//! of the six architectures — and extends the hierarchical design's
//! bridge idea one level up: each chip's local `(0, 0)` site is its
//! *gateway*, sourcing a dedicated WDM board link to every other
//! gateway. A cross-chip packet rides its source chip's network to the
//! gateway (leg 1), crosses the gateway-to-gateway board link, and rides
//! the destination chip's network from its gateway to the destination
//! (leg 2). Each gateway crossing is an electronic store-and-forward:
//! it emits a `Hop` trace event and accounts the packet's bytes as
//! routed bytes, which the auditor's `fabric.inter-chip-bytes` invariant
//! and the router-energy model both consume.
//!
//! The whole fabric runs inside the caller's single event loop: the
//! wrapper owns one event queue for board-link events, and `advance`
//! walks the board instant by instant, each at its own timestamp —
//! board events first, then every chip due at that instant in board
//! order. Because that walk is time-faithful, the fabric supports batched
//! advance like a bare network: the runner sweeps it through every event
//! up to the next emission in one call and reads the clock back from
//! `last_event_time`. Each chip's next-event time is cached in
//! `chip_next` and refreshed only after a call that can move it (a chip
//! `advance`, an `inject` into the chip, a forwarded fault), so finding
//! the next instant is a linear scan of at most 64 entries with no
//! dynamic calls; at that size an indexed heap is not worth its code.
//! The existing sweep/fault/replay drivers, the slab-leak check and the
//! flight recorder all work unchanged. The wrapper's tracer is *never*
//! propagated to the inner chips — inner activity is summarized at the
//! fabric boundary (their relay work is re-emitted as gateway-anchored
//! `Hop` events when a leg completes), keeping the event stream globally
//! addressed.
//!
//! Flow control mirrors the hierarchical bridge: a cross-chip admission
//! reserves a slot on its board link (`link_load`) and injection is
//! refused while the link is full, so a completed leg 1 always finds
//! buffer space. A leg-2 injection refused by a busy destination chip
//! parks in a per-chip retry queue and is re-offered after that chip's
//! next event — the chip is only ever full while it has work in flight,
//! so the retry always drains.
//!
//! The board links are one [`netcore::ChannelBank`]. The per-chip retry
//! queues are plain deques: there are only `M²` of them, they hold whole
//! packets, and a refused retry goes back to the front.

use desim::{Span, Time, TraceEvent, Tracer};
use netcore::{
    ChannelBank, FabricConfig, FaultResponse, FxHashMap, MacrochipConfig, NetFault, NetStats,
    Network, NetworkKind, Packet, SiteId, SlabStats,
};
use std::collections::VecDeque;

#[derive(Debug)]
enum Ev {
    /// A board link finished serializing; pump its queue.
    LinkFree { link: usize },
    /// A packet's last bit reached the ingress gateway.
    LinkArrive { packet: u64 },
}

/// Book-keeping for one packet crossing chips, keyed by packet id. The
/// original (globally addressed) packet is kept verbatim; legs run as
/// chip-local copies whose timestamps and routed bytes are merged back
/// here as each completes.
#[derive(Debug)]
struct Transit {
    original: Packet,
    src_chip: usize,
    dst_chip: usize,
    /// Relay bytes accumulated so far (inner forwards + gateway hops).
    routed_bytes: u32,
    arb_start: Option<Time>,
    tx_start: Option<Time>,
    tx_end: Option<Time>,
}

/// An `M×M` fabric of identical chips behind the [`Network`] trait.
///
/// `config()` exposes the flat global grid, so traffic patterns, fault
/// plans and statistics address fabric-global [`SiteId`]s; the wrapper
/// translates to chip-local ids at the boundary.
pub struct FabricNetwork {
    fabric: FabricConfig,
    /// The fabric viewed as one flat grid (what `config()` returns).
    global: MacrochipConfig,
    kind: NetworkKind,
    /// One inner network per chip, row-major board order, each built on
    /// the *chip* config and addressing chip-local sites.
    chips: Vec<Box<dyn Network>>,
    /// Gateway-to-gateway board links, indexed `src_chip * k + dst_chip`.
    links: ChannelBank<u64>,
    /// Per-link admission count (reserved slots not yet transmitting);
    /// bounded by `queue_capacity` — the gateway buffer limit.
    link_load: Vec<usize>,
    link_bw: f64,
    transit: FxHashMap<u64, Transit>,
    /// Leg-2 packets refused by a busy destination chip, re-offered
    /// after that chip's next event.
    pending: Vec<VecDeque<Packet>>,
    events: desim::EventQueue<Ev>,
    /// Cached `chips[i].next_event()`, refreshed after every call that
    /// can move it (see [`FabricNetwork::refresh`]).
    chip_next: Vec<Option<Time>>,
    /// The last instant `advance` processed, for batched driving.
    last: Option<Time>,
    /// Reused buffer for the legs drained out of one chip.
    legs: Vec<Packet>,
    delivered: Vec<Packet>,
    stats: NetStats,
    tracer: Tracer,
}

impl FabricNetwork {
    /// Builds a `kind` network on every chip of `fabric` and wires the
    /// board links between their gateways.
    pub fn new(kind: NetworkKind, fabric: FabricConfig) -> FabricNetwork {
        fabric.validate();
        let k = fabric.chips();
        let link_bw = fabric.link_bytes_per_ns();
        FabricNetwork {
            fabric,
            global: fabric.global_config(),
            kind,
            chips: (0..k).map(|_| crate::build(kind, fabric.chip)).collect(),
            links: ChannelBank::new(k * k, link_bw, fabric.chip.queue_capacity),
            link_load: vec![0; k * k],
            link_bw,
            transit: FxHashMap::default(),
            pending: (0..k).map(|_| VecDeque::new()).collect(),
            events: desim::EventQueue::new(),
            chip_next: vec![None; k],
            last: None,
            legs: Vec::new(),
            delivered: Vec::with_capacity(256),
            stats: NetStats::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// The fabric configuration this network was built over.
    pub fn fabric_config(&self) -> &FabricConfig {
        &self.fabric
    }

    fn link_index(&self, src_chip: usize, dst_chip: usize) -> usize {
        src_chip * self.chips.len() + dst_chip
    }

    /// Re-reads chip `i`'s next-event time after a call that may have
    /// moved it.
    fn refresh(&mut self, i: usize) {
        self.chip_next[i] = self.chips[i].next_event();
    }

    /// Offers a chip-local packet to chip `i`, keeping its cached clock
    /// current.
    fn inject_into(&mut self, i: usize, leg: Packet, now: Time) -> Result<(), Packet> {
        let result = self.chips[i].inject(leg, now);
        self.refresh(i);
        result
    }

    /// Re-emits an inner chip's relay work as gateway-anchored `Hop`
    /// events: the inner tracer is disconnected, so the bytes a leg
    /// accumulated in `routed_bytes` are surfaced here, one event per
    /// store-and-forward, keeping the auditor's hop×bytes reconstruction
    /// equal to the final `NetStats::routed_bytes` counter.
    fn emit_inner_hops(&mut self, id: u64, routed: u32, bytes: u32, site: usize, at: Time) {
        if routed == 0 || bytes == 0 {
            return;
        }
        debug_assert_eq!(routed % bytes, 0, "inner relays forward whole packets");
        for _ in 0..(routed / bytes) {
            self.tracer.emit(at, || TraceEvent::Hop {
                packet: id,
                at: site,
            });
        }
    }

    fn emit_relay(&mut self, id: u64, gateway: SiteId, at: Time) {
        self.tracer.emit(at, || TraceEvent::Hop {
            packet: id,
            at: gateway.index(),
        });
    }

    fn deliver(&mut self, mut packet: Packet, at: Time) {
        packet.delivered = Some(at);
        self.stats.on_deliver(&packet);
        self.tracer.emit(at, || TraceEvent::Deliver {
            packet: packet.id.0,
            src: packet.src.index(),
            dst: packet.dst.index(),
            latency: at.saturating_since(packet.created),
        });
        self.delivered.push(packet);
    }

    /// Starts the link's next transmission if it is idle.
    fn pump_link(&mut self, link: usize, now: Time) {
        if let Some((id, finish)) = self.links.begin_if_ready(link, now) {
            self.link_load[link] -= 1;
            let (src_chip, dst_chip) = {
                let tr = self.transit.get_mut(&id).expect("board packet tracked");
                if tr.arb_start.is_none() {
                    tr.arb_start = Some(now);
                }
                if tr.tx_start.is_none() {
                    tr.tx_start = Some(now);
                }
                tr.tx_end = Some(finish);
                (tr.src_chip, tr.dst_chip)
            };
            let flight = Span::from_ns_f64(self.fabric.board_flight_ns(src_chip, dst_chip));
            self.events.push(finish, Ev::LinkFree { link });
            self.events
                .push(finish + flight, Ev::LinkArrive { packet: id });
        }
    }

    /// A completed leg drained out of chip `i`: either the gateway end
    /// of leg 1 (forward onto the board) or the destination end of leg 2
    /// (finalize), or a same-chip delivery (re-globalize).
    fn on_chip_delivery(&mut self, i: usize, leg: Packet, at: Time) {
        let id = leg.id.0;
        let gateway = self.fabric.gateway(i);
        self.emit_inner_hops(id, leg.routed_bytes, leg.bytes, gateway.index(), at);
        let Some(tr) = self.transit.get_mut(&id) else {
            // Same-chip traffic: restore global endpoints and deliver.
            let mut p = leg;
            p.src = self.fabric.global(i, p.src);
            p.dst = self.fabric.global(i, p.dst);
            self.deliver(p, at);
            return;
        };
        if tr.src_chip == i {
            // Leg 1 reached the egress gateway: merge its timestamps,
            // account the gateway store-and-forward, and queue the board
            // link (space was reserved at admission).
            tr.routed_bytes += leg.routed_bytes + leg.bytes;
            if tr.arb_start.is_none() {
                tr.arb_start = leg.arb_start;
            }
            if tr.tx_start.is_none() {
                tr.tx_start = leg.tx_start;
            }
            let (sc, dc, bytes) = (tr.src_chip, tr.dst_chip, leg.bytes);
            self.emit_relay(id, gateway, at);
            let link = self.link_index(sc, dc);
            self.links
                .try_enqueue(link, id, bytes)
                .unwrap_or_else(|_| panic!("admission reserved a full board link"));
            self.pump_link(link, at);
        } else {
            // Leg 2 reached the destination: assemble the final packet.
            tr.routed_bytes += leg.routed_bytes;
            let tr = self.transit.remove(&id).expect("checked present");
            let mut p = tr.original;
            p.routed_bytes = tr.routed_bytes;
            p.arb_start = tr.arb_start;
            p.tx_start = tr.tx_start;
            p.tx_end = leg.tx_end.or(tr.tx_end);
            self.deliver(p, at);
        }
    }

    fn on_link_arrive(&mut self, id: u64, at: Time) {
        let (dst_chip, dst, bytes, kind) = {
            let tr = self.transit.get(&id).expect("board packet tracked");
            (
                tr.dst_chip,
                tr.original.dst,
                tr.original.bytes,
                tr.original.kind,
            )
        };
        let gateway = self.fabric.gateway(dst_chip);
        if dst == gateway {
            // The ingress gateway is the destination: no second relay.
            let tr = self.transit.remove(&id).expect("checked present");
            let mut p = tr.original;
            p.routed_bytes = tr.routed_bytes;
            p.arb_start = tr.arb_start;
            p.tx_start = tr.tx_start;
            p.tx_end = tr.tx_end;
            self.deliver(p, at);
            return;
        }
        // Gateway store-and-forward into the destination chip.
        self.emit_relay(id, gateway, at);
        self.transit
            .get_mut(&id)
            .expect("checked present")
            .routed_bytes += bytes;
        let local_gw = self.fabric.chip.grid.site(0, 0);
        let leg2 = Packet::new(
            netcore::PacketId(id),
            local_gw,
            self.fabric.local(dst),
            bytes,
            kind,
            at,
        );
        self.offer_leg2(dst_chip, leg2, at);
    }

    fn offer_leg2(&mut self, chip: usize, leg2: Packet, now: Time) {
        if let Err(refused) = self.inject_into(chip, leg2, now) {
            self.pending[chip].push_back(refused);
        }
    }

    fn retry_pending(&mut self, chip: usize, now: Time) {
        while let Some(leg2) = self.pending[chip].pop_front() {
            if let Err(refused) = self.inject_into(chip, leg2, now) {
                self.pending[chip].push_front(refused);
                break;
            }
        }
    }

    /// The earliest pending instant across the board queue and every
    /// chip, read from the cached chip clocks.
    fn earliest(&self) -> Option<Time> {
        debug_assert!(
            self.chips
                .iter()
                .zip(&self.chip_next)
                .all(|(chip, &cached)| chip.next_event() == cached),
            "stale cached chip clock"
        );
        let chips = self.chip_next.iter().flatten().copied().min();
        match (self.events.peek_time(), chips) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn globalize_evicted(&self, chip: usize, mut p: Packet) -> Packet {
        p.src = self.fabric.global(chip, p.src);
        p.dst = self.fabric.global(chip, p.dst);
        p
    }

    /// Maps an inner chip's evicted leg packets back to fabric-global
    /// originals, releasing any board-link reservations they held.
    fn absorb_evictions(&mut self, chip: usize, evicted: Vec<Packet>) -> Vec<Packet> {
        evicted
            .into_iter()
            .map(|leg| match self.transit.remove(&leg.id.0) {
                Some(tr) => {
                    if tr.src_chip == chip {
                        // Leg 1 never reached the board: free its slot.
                        let link = self.link_index(tr.src_chip, tr.dst_chip);
                        self.link_load[link] -= 1;
                    }
                    tr.original
                }
                None => self.globalize_evicted(chip, leg),
            })
            .collect()
    }
}

/// Keeps the default (no) admission-queue hint: board runs do not refuse
/// injections at bench load, and a refusal may come from any chip's queue
/// or a board link, so the runner simply re-offers through `inject`.
impl Network for FabricNetwork {
    fn kind(&self) -> NetworkKind {
        self.kind
    }

    fn config(&self) -> &MacrochipConfig {
        &self.global
    }

    fn inject(&mut self, packet: Packet, now: Time) -> Result<(), Packet> {
        let (sc, dc) = (
            self.fabric.chip_of(packet.src),
            self.fabric.chip_of(packet.dst),
        );
        let trace_fields = self.tracer.is_enabled().then(|| {
            (
                packet.id.0,
                packet.src.index(),
                packet.dst.index(),
                packet.bytes,
            )
        });
        if sc == dc {
            let mut leg = packet;
            leg.src = self.fabric.local(packet.src);
            leg.dst = self.fabric.local(packet.dst);
            return match self.inject_into(sc, leg, now) {
                Ok(()) => {
                    self.stats.on_inject(now);
                    if let Some((id, src, dst, bytes)) = trace_fields {
                        self.tracer.emit(now, || TraceEvent::Inject {
                            packet: id,
                            src,
                            dst,
                            bytes,
                        });
                    }
                    Ok(())
                }
                Err(_) => {
                    self.stats.on_reject();
                    Err(packet)
                }
            };
        }
        let link = self.link_index(sc, dc);
        if self.link_load[link] >= self.fabric.chip.queue_capacity {
            self.stats.on_reject();
            return Err(packet);
        }
        if packet.src == self.fabric.gateway(sc) {
            // A gateway sending cross-chip skips its own chip's network
            // and queues straight onto the board link (no relay hop: the
            // packet originates in the gateway's buffers).
            self.link_load[link] += 1;
            self.transit.insert(
                packet.id.0,
                Transit {
                    original: packet,
                    src_chip: sc,
                    dst_chip: dc,
                    routed_bytes: 0,
                    arb_start: Some(now),
                    tx_start: None,
                    tx_end: None,
                },
            );
            self.links
                .try_enqueue(link, packet.id.0, packet.bytes)
                .expect("checked not full");
            self.stats.on_inject(now);
            if let Some((id, src, dst, bytes)) = trace_fields {
                self.tracer.emit(now, || TraceEvent::Inject {
                    packet: id,
                    src,
                    dst,
                    bytes,
                });
            }
            self.pump_link(link, now);
            return Ok(());
        }
        // Leg 1: ride the source chip's network to its gateway.
        let mut leg = packet;
        leg.src = self.fabric.local(packet.src);
        leg.dst = self.fabric.chip.grid.site(0, 0);
        match self.inject_into(sc, leg, now) {
            Ok(()) => {
                self.link_load[link] += 1;
                self.transit.insert(
                    packet.id.0,
                    Transit {
                        original: packet,
                        src_chip: sc,
                        dst_chip: dc,
                        routed_bytes: 0,
                        arb_start: None,
                        tx_start: None,
                        tx_end: None,
                    },
                );
                self.stats.on_inject(now);
                if let Some((id, src, dst, bytes)) = trace_fields {
                    self.tracer.emit(now, || TraceEvent::Inject {
                        packet: id,
                        src,
                        dst,
                        bytes,
                    });
                }
                Ok(())
            }
            Err(_) => {
                self.stats.on_reject();
                Err(packet)
            }
        }
    }

    fn next_event(&self) -> Option<Time> {
        self.earliest()
    }

    fn advance(&mut self, now: Time) {
        // Process the globally earliest instant (board queue or a chip)
        // until nothing remains at or before `now`. Ties resolve
        // deterministically: board events first, then chips in board
        // order. Every handler runs at its event's own timestamp, so the
        // interleaving is time-faithful.
        let mut legs = std::mem::take(&mut self.legs);
        while let Some(t) = self.earliest() {
            if t > now {
                break;
            }
            while let Some((at, ev)) = self.events.pop_due(t) {
                match ev {
                    Ev::LinkFree { link } => self.pump_link(link, at),
                    Ev::LinkArrive { packet } => self.on_link_arrive(packet, at),
                }
            }
            for i in 0..self.chips.len() {
                if self.chip_next[i].is_some_and(|ct| ct <= t) {
                    self.chips[i].advance(t);
                    self.refresh(i);
                    self.chips[i].drain_delivered_into(&mut legs);
                    for leg in legs.drain(..) {
                        self.on_chip_delivery(i, leg, t);
                    }
                    if !self.pending[i].is_empty() {
                        self.retry_pending(i, t);
                    }
                }
            }
            self.last = Some(t);
        }
        self.legs = legs;
    }

    fn last_event_time(&self) -> Option<Time> {
        self.last
    }

    fn supports_batched_advance(&self) -> bool {
        true
    }

    fn drain_delivered(&mut self) -> Vec<Packet> {
        std::mem::take(&mut self.delivered)
    }

    fn drain_delivered_into(&mut self, out: &mut Vec<Packet>) {
        out.append(&mut self.delivered);
    }

    fn stats(&self) -> &NetStats {
        &self.stats
    }

    fn events_processed(&self) -> u64 {
        self.events.popped() + self.chips.iter().map(|c| c.events_processed()).sum::<u64>()
    }

    fn slab_stats(&self) -> Option<SlabStats> {
        let mut merged: Option<SlabStats> = None;
        for chip in &self.chips {
            let s = chip.slab_stats()?;
            merged = Some(match merged {
                Some(m) => m.merge(s),
                None => s,
            });
        }
        merged
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        // Deliberately not forwarded to the chips: inner events carry
        // chip-local site ids (and kind-specific payloads the global
        // auditor must not see); the fabric re-emits their relay work at
        // its own boundary instead.
        self.tracer = tracer;
    }

    /// Cross-chip link faults degrade the matching board link (spare
    /// wavelength: half bandwidth); everything else forwards to the chip
    /// owning the fault's site(s), with evicted leg packets mapped back
    /// to their fabric-global originals.
    fn apply_fault(&mut self, fault: NetFault, now: Time) -> FaultResponse {
        match fault {
            NetFault::LinkKill { src, dst } | NetFault::LinkRepair { src, dst }
                if self.fabric.chip_of(src) != self.fabric.chip_of(dst) =>
            {
                let link = self.link_index(self.fabric.chip_of(src), self.fabric.chip_of(dst));
                if matches!(fault, NetFault::LinkKill { .. }) {
                    self.links.set_bytes_per_ns(link, self.link_bw / 2.0);
                    FaultResponse::handled("spare-wavelength")
                } else {
                    self.links.set_bytes_per_ns(link, self.link_bw);
                    FaultResponse::handled("full-bandwidth")
                }
            }
            _ => {
                let chip = self.fabric.chip_of(fault.site());
                let local = match fault {
                    NetFault::LinkKill { src, dst } => NetFault::LinkKill {
                        src: self.fabric.local(src),
                        dst: self.fabric.local(dst),
                    },
                    NetFault::LinkRepair { src, dst } => NetFault::LinkRepair {
                        src: self.fabric.local(src),
                        dst: self.fabric.local(dst),
                    },
                    NetFault::LaserLoss { site } => NetFault::LaserLoss {
                        site: self.fabric.local(site),
                    },
                    NetFault::LaserRestore { site } => NetFault::LaserRestore {
                        site: self.fabric.local(site),
                    },
                    NetFault::SiteKill { site } => NetFault::SiteKill {
                        site: self.fabric.local(site),
                    },
                };
                let mut response = self.chips[chip].apply_fault(local, now);
                self.refresh(chip);
                if !response.evicted.is_empty() {
                    let evicted = std::mem::take(&mut response.evicted);
                    response.evicted = self.absorb_evictions(chip, evicted);
                }
                response
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcore::{MessageKind, PacketId};

    fn fabric() -> FabricConfig {
        FabricConfig::grid(2, MacrochipConfig::scaled())
    }

    fn data(id: u64, src: SiteId, dst: SiteId, at: Time) -> Packet {
        Packet::new(PacketId(id), src, dst, 64, MessageKind::Data, at)
    }

    fn run_until_idle(net: &mut dyn Network) {
        while let Some(t) = net.next_event() {
            net.advance(t);
        }
    }

    #[test]
    fn same_chip_traffic_matches_the_bare_network() {
        // A packet whose endpoints share a chip must see exactly the
        // latency the bare single-chip network gives the same local
        // pair — the fabric only translates addresses.
        let f = fabric();
        let chip = MacrochipConfig::scaled();
        for kind in [NetworkKind::TokenRing, NetworkKind::Hierarchical] {
            let mut bare = crate::build(kind, chip);
            let (a, b) = (chip.grid.site(1, 1), chip.grid.site(6, 2));
            bare.inject(data(1, a, b, Time::ZERO), Time::ZERO).unwrap();
            run_until_idle(bare.as_mut());
            let bare_latency = bare.drain_delivered()[0].latency().unwrap();

            let mut net = FabricNetwork::new(kind, f);
            // The same pair on chip 3 (offset by (8, 8) globally).
            let g = f.global_config().grid;
            let (ga, gb) = (g.site(9, 9), g.site(14, 10));
            net.inject(data(1, ga, gb, Time::ZERO), Time::ZERO).unwrap();
            run_until_idle(&mut net);
            let done = net.drain_delivered();
            assert_eq!(done.len(), 1);
            assert_eq!(done[0].src, ga, "{kind}");
            assert_eq!(done[0].dst, gb, "{kind}");
            assert_eq!(done[0].latency().unwrap(), bare_latency, "{kind}");
        }
    }

    #[test]
    fn gateway_to_gateway_crosses_one_board_link() {
        // Gateway 0 -> gateway 1: no chip legs at all. 64 B at 20 B/ns
        // = 3.2 ns serialization + 25 cm at 0.1 ns/cm = 2.5 ns flight.
        let f = fabric();
        let mut net = FabricNetwork::new(NetworkKind::TokenRing, f);
        let (a, b) = (f.gateway(0), f.gateway(1));
        net.inject(data(7, a, b, Time::ZERO), Time::ZERO).unwrap();
        run_until_idle(&mut net);
        let done = net.drain_delivered();
        assert_eq!(done.len(), 1);
        let p = &done[0];
        assert_eq!(p.delivered, Some(Time::from_ps(5_700)));
        // No relay: the packet originates and terminates in gateway
        // buffers.
        assert_eq!(p.routed_bytes, 0);
        assert_eq!(net.stats().delivered_packets(), 1);
    }

    #[test]
    fn full_two_leg_path_relays_at_both_gateways() {
        let f = fabric();
        let g = f.global_config().grid;
        for kind in [NetworkKind::TokenRing, NetworkKind::PointToPoint] {
            let mut net = FabricNetwork::new(kind, f);
            // Chip 0 interior -> chip 3 interior: leg 1, board, leg 2.
            let (a, b) = (g.site(2, 3), g.site(11, 12));
            net.inject(data(9, a, b, Time::ZERO), Time::ZERO).unwrap();
            run_until_idle(&mut net);
            let done = net.drain_delivered();
            assert_eq!(done.len(), 1, "{kind}");
            let p = &done[0];
            assert_eq!((p.src, p.dst), (a, b), "{kind}");
            // Two gateway store-and-forwards (the inner networks of
            // these kinds add no electronic hops of their own).
            assert_eq!(p.routed_bytes, 128, "{kind}");
            // Lower bound: leg-1 ser + board ser 3.2 + flight 2.5.
            assert!(p.latency().unwrap() > Span::from_ns_f64(5.7), "{kind}");
        }
    }

    #[test]
    fn cross_chip_link_kill_halves_board_bandwidth() {
        let f = fabric();
        let mut net = FabricNetwork::new(NetworkKind::TokenRing, f);
        let (a, b) = (f.gateway(0), f.gateway(1));
        let r = net.apply_fault(NetFault::LinkKill { src: a, dst: b }, Time::ZERO);
        assert!(r.handled);
        net.inject(data(1, a, b, Time::ZERO), Time::ZERO).unwrap();
        run_until_idle(&mut net);
        let p = &net.drain_delivered()[0];
        // 64 B at 10 B/ns = 6.4 ns + 2.5 ns flight.
        assert_eq!(p.delivered, Some(Time::from_ps(8_900)));

        let r = net.apply_fault(NetFault::LinkRepair { src: a, dst: b }, Time::ZERO);
        assert!(r.handled);
    }

    #[test]
    fn same_chip_fault_forwards_to_the_owning_chip() {
        let f = fabric();
        let g = f.global_config().grid;
        let mut net = FabricNetwork::new(NetworkKind::Hierarchical, f);
        // Both endpoints on chip 0: the chip's own degradation policy.
        let r = net.apply_fault(
            NetFault::LinkKill {
                src: g.site(0, 0),
                dst: g.site(3, 3),
            },
            Time::ZERO,
        );
        assert!(r.handled);
        assert_eq!(r.action, "spare-wavelength");
    }

    #[test]
    fn board_admission_is_bounded() {
        let f = fabric();
        let mut net = FabricNetwork::new(NetworkKind::TokenRing, f);
        let (a, b) = (f.gateway(0), f.gateway(1));
        let cap = f.chip.queue_capacity;
        let mut accepted = 0;
        for id in 0..(cap as u64 + 8) {
            if net.inject(data(id, a, b, Time::ZERO), Time::ZERO).is_ok() {
                accepted += 1;
            }
        }
        // One transmission in flight plus `cap` reserved slots.
        assert_eq!(accepted, cap + 1, "admission stops at the gateway buffer");
        assert_eq!(net.stats().rejected_packets(), 7);
        run_until_idle(&mut net);
        assert_eq!(net.drain_delivered().len(), cap + 1);
        // All slabs idle after the drain.
        let slab = net.slab_stats().expect("inner networks expose slabs");
        assert_eq!(slab.live, 0);
    }

    #[test]
    fn single_chip_fabric_wrapper_is_never_built() {
        // `build_fabric` must return the bare network for M=1 so the
        // single-chip path stays byte-identical; the wrapper itself is
        // reserved for M >= 2.
        let single = FabricConfig::single(MacrochipConfig::scaled());
        let net = crate::build_fabric(NetworkKind::TokenRing, &single);
        assert_eq!(net.config().grid.sites(), 64);
    }
}
