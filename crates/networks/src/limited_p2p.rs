//! The limited point-to-point network with electronic routing (paper §4.6).
//!
//! Each site has a dedicated 20 GB/s (8-wavelength) optical channel to
//! every *row peer* and *column peer* — the 14 sites sharing its row or
//! column. Packets for any other site are forwarded through the one site
//! that is a row peer of the source and a column peer of the destination:
//! there the packet is converted to the electronic domain, crosses a 7×7
//! router (one cycle), and is re-sent optically. Every transmission thus
//! needs at most one intermediate O-E/E-O conversion.
//!
//! Forwarded bytes are tagged on the packet (`routed_bytes`) so the energy
//! model can charge the paper's conservative 60 pJ/byte router energy
//! (§6.3, Figure 9).
//!
//! Only peer pairs have channels: 2(side−1) per site, held in one
//! [`netcore::ChannelBank`] indexed compactly per site (7,680 channels at
//! side 16, where a dense S² map would hold 65,536 slots).

use crate::base::NetBase;
use desim::{Time, TraceEvent, Tracer};
use netcore::{
    ChannelBank, FaultResponse, MacrochipConfig, NetFault, NetStats, Network, NetworkKind, Packet,
    PacketRef, SiteId, SlabStats,
};

/// Wavelengths per peer channel (8 × 2.5 GB/s = 20 GB/s).
pub const LAMBDAS_PER_CHANNEL: usize = 8;

/// Cost of the intermediate electronic hop: O-E conversion and clock
/// recovery on 8 parallel wavelength lanes, elastic-buffer
/// resynchronization into the router's domain, the router cycle itself,
/// and E-O remodulation. The router crossing proper is one cycle (§4.6);
/// the conversions around it dominate. This is what keeps the limited
/// point-to-point network behind the pure point-to-point design on
/// forwarded traffic despite its 4x wider channels (paper §6.2).
pub const FORWARD_CONVERSION: desim::Span = desim::Span::from_ps(10_000);

/// Which intermediate site forwards non-peer traffic. The paper's design
/// has one router per direction pair at each site; the forwarder for
/// (src, dst) can be the source's row peer in the destination's column
/// (row-first), the source's column peer in the destination's row
/// (column-first), or whichever of the two currently has the shorter
/// first-hop queue (adaptive — an extension beyond the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutingPolicy {
    /// Row link first, then the forwarder's column link (paper default).
    #[default]
    RowFirst,
    /// Column link first, then the forwarder's row link.
    ColumnFirst,
    /// Pick the first hop with the shorter queue; ties go row-first.
    Adaptive,
}

#[derive(Debug)]
enum Ev {
    /// The `src -> hop` channel finished serializing; start its next
    /// packet.
    TxDone { src: SiteId, hop: SiteId },
    /// A packet arrived at a site: the final destination or the forwarder.
    Arrive { packet: PacketRef, at_site: SiteId },
    /// The router at `at` processed the packet; enqueue the second hop.
    Forward { packet: PacketRef, at: SiteId },
}

/// The limited point-to-point network.
///
/// # Example
///
/// ```
/// use desim::Time;
/// use netcore::{MacrochipConfig, MessageKind, Network, Packet, PacketId};
/// use networks::LimitedP2pNetwork;
///
/// let config = MacrochipConfig::scaled();
/// let mut net = LimitedP2pNetwork::new(config);
/// // Non-peer sites: (0,0) -> (3,5) forwards through (3,0).
/// let p = Packet::new(PacketId(0), config.grid.site(0, 0), config.grid.site(3, 5),
///                     64, MessageKind::Data, Time::ZERO);
/// net.inject(p, Time::ZERO).unwrap();
/// while let Some(t) = net.next_event() { net.advance(t); }
/// let done = net.drain_delivered();
/// assert_eq!(done[0].routed_bytes, 64); // crossed one electronic router
/// ```
pub struct LimitedP2pNetwork {
    config: MacrochipConfig,
    policy: RoutingPolicy,
    /// The 2(side−1) peer channels of every site, indexed compactly (see
    /// [`Self::channel_index`]).
    channels: ChannelBank<PacketRef>,
    prop: crate::geom::PropByHops,
    /// Killed links, indexed like `channels`.
    dead: Vec<bool>,
    /// Set by [`Network::apply_fault`]: a killed or repaired
    /// link re-routes packets to another first hop, so admission-queue
    /// hints taken before it may name the wrong queue.
    faulted: bool,
    base: NetBase<Ev>,
}

impl LimitedP2pNetwork {
    /// Builds the network with the paper's row-first routing.
    pub fn new(config: MacrochipConfig) -> LimitedP2pNetwork {
        LimitedP2pNetwork::with_policy(config, RoutingPolicy::RowFirst)
    }

    /// Builds the network with a custom forwarding policy (used by the
    /// routing-policy ablation).
    pub fn with_policy(config: MacrochipConfig, policy: RoutingPolicy) -> LimitedP2pNetwork {
        config.validate();
        let sites = config.grid.sites();
        let bw = config.channel_bytes_per_ns(LAMBDAS_PER_CHANNEL);
        let channels = sites * Self::peers_per_site(&config);
        LimitedP2pNetwork {
            config,
            policy,
            dead: vec![false; channels],
            faulted: false,
            channels: ChannelBank::new(channels, bw, config.queue_capacity),
            prop: crate::geom::PropByHops::new(&config.layout),
            base: NetBase::new(),
        }
    }

    /// The forwarding site for a non-peer pair under the current policy.
    pub fn forwarder(&self, src: SiteId, dst: SiteId) -> SiteId {
        let g = self.config.grid;
        let row_first = g.site(g.x(dst), g.y(src));
        let col_first = g.site(g.x(src), g.y(dst));
        match self.policy {
            RoutingPolicy::RowFirst => row_first,
            RoutingPolicy::ColumnFirst => col_first,
            RoutingPolicy::Adaptive => {
                let q = |hop: SiteId| self.channels.queued(self.channel_index(src, hop));
                if q(col_first) < q(row_first) {
                    col_first
                } else {
                    row_first
                }
            }
        }
    }

    /// Direct channels per site: one to each row peer and column peer.
    fn peers_per_site(config: &MacrochipConfig) -> usize {
        2 * (config.grid.side() - 1)
    }

    /// Index of the peer channel `src -> dst`. Site `src` owns indices
    /// `src * 2(side−1) ..`: first its row peers by column, then its
    /// column peers by row, each skipping `src` itself.
    fn channel_index(&self, src: SiteId, dst: SiteId) -> usize {
        let g = self.config.grid;
        debug_assert!(g.are_peers(src, dst), "no channel {src} -> {dst}");
        let (sx, sy) = g.coord(src);
        let (dx, dy) = g.coord(dst);
        let peer = if sy == dy {
            dx - usize::from(dx > sx)
        } else {
            g.side() - 1 + dy - usize::from(dy > sy)
        };
        src.index() * Self::peers_per_site(&self.config) + peer
    }

    /// True when a direct optical channel `a -> b` exists and is alive.
    fn live(&self, a: SiteId, b: SiteId) -> bool {
        self.config.grid.are_peers(a, b) && !self.dead[self.channel_index(a, b)]
    }

    /// The first optical hop toward `dst`, routing electronically around
    /// any killed links; `None` when every detour is dead too.
    fn route_first_hop(&self, src: SiteId, dst: SiteId) -> Option<SiteId> {
        let g = self.config.grid;
        if g.are_peers(src, dst) {
            if self.live(src, dst) {
                return Some(dst);
            }
            // Direct peer link dead: detour through another site on the
            // shared row or column, which is a peer of both ends.
            let shared_row = g.y(src) == g.y(dst);
            return (0..g.side())
                .map(|i| {
                    if shared_row {
                        g.site(i, g.y(src))
                    } else {
                        g.site(g.x(src), i)
                    }
                })
                .find(|&f| f != src && f != dst && self.live(src, f) && self.live(f, dst));
        }
        // Non-peer pair: prefer the policy's corner, fall back to the
        // opposite corner when a leg through it is dead.
        let preferred = self.forwarder(src, dst);
        let row_first = g.site(g.x(dst), g.y(src));
        let col_first = g.site(g.x(src), g.y(dst));
        let fallback = if preferred == row_first {
            col_first
        } else {
            row_first
        };
        [preferred, fallback]
            .into_iter()
            .find(|&f| self.live(src, f) && self.live(f, dst))
    }

    /// Starts the `src -> hop_dst` channel's next transmission if it is
    /// idle.
    fn pump(&mut self, src: SiteId, hop_dst: SiteId, now: Time) {
        let channel = self.channel_index(src, hop_dst);
        if let Some((pref, finish)) = self.channels.begin_if_ready(channel, now) {
            let packet = self.base.slab.get_mut(pref);
            if hop_dst == packet.dst {
                // Final optical hop: the wire portion of the trip starts.
                // No arbitration exists here, so the phase is zero-width;
                // any earlier hop and conversion time counts as queueing.
                packet.arb_start = Some(now);
                packet.tx_start = Some(now);
                packet.tx_end = Some(finish);
            }
            let prop = self
                .prop
                .delay(self.config.grid.coord(src), self.config.grid.coord(hop_dst));
            self.base
                .events
                .push(finish, Ev::TxDone { src, hop: hop_dst });
            self.base.events.push(
                finish + prop,
                Ev::Arrive {
                    packet: pref,
                    at_site: hop_dst,
                },
            );
        }
    }

    fn on_arrive(&mut self, packet: PacketRef, at_site: SiteId, t: Time) {
        if at_site == self.base.slab.get(packet).dst {
            self.base.deliver(packet, t);
        } else {
            // Intermediate hop: O-E/E-O conversion plus the one-cycle
            // electronic router (§4.6).
            self.base.events.push(
                t + FORWARD_CONVERSION,
                Ev::Forward {
                    packet,
                    at: at_site,
                },
            );
        }
    }

    fn on_forward(&mut self, pref: PacketRef, at: SiteId, t: Time) {
        // Route from the router toward the destination; in the healthy
        // network this is always the direct peer channel `at -> dst`, but
        // a killed link diverts through a further electronic hop.
        let Some(hop) = self.route_first_hop(at, self.base.slab.get(pref).dst) else {
            let id = self.base.slab.take(pref).id.0;
            self.base.stats.on_drop();
            self.base.tracer.emit(t, || TraceEvent::Drop {
                packet: id,
                site: at.index(),
                reason: "no-route",
            });
            return;
        };
        let packet = self.base.slab.get_mut(pref);
        packet.routed_bytes = packet.routed_bytes.saturating_add(packet.bytes);
        let (id, bytes) = (packet.id.0, packet.bytes);
        self.base.tracer.emit(t, || TraceEvent::Hop {
            packet: id,
            at: at.index(),
        });
        let idx = self.channel_index(at, hop);
        let retry_at = match self.channels.try_enqueue(idx, pref, bytes) {
            Ok(()) => None,
            // Output buffer full: the router holds the packet and
            // retries when the channel frees a slot.
            Err(p) => Some((
                self.channels.busy_until(idx).max(t + self.config.cycle()),
                p,
            )),
        };
        match retry_at {
            None => self.pump(at, hop, t),
            Some((when, p)) => self.base.events.push(when, Ev::Forward { packet: p, at }),
        }
    }
}

impl Network for LimitedP2pNetwork {
    fn kind(&self) -> NetworkKind {
        NetworkKind::LimitedPointToPoint
    }

    fn config(&self) -> &MacrochipConfig {
        &self.config
    }

    fn inject(&mut self, packet: Packet, now: Time) -> Result<(), Packet> {
        if packet.src == packet.dst {
            let at_site = packet.dst;
            let pref = self.base.loopback(packet, now);
            self.base.events.push(
                now + self.config.cycle(),
                Ev::Arrive {
                    at_site,
                    packet: pref,
                },
            );
            return Ok(());
        }
        let Some(first_hop) = self.route_first_hop(packet.src, packet.dst) else {
            // Every route is dead: absorb the packet as a fault drop so
            // the driver does not retry forever against a dead path.
            let site = packet.src.index();
            self.base.absorb(packet, site, "no-route", now);
            return Ok(());
        };
        let idx = self.channel_index(packet.src, first_hop);
        if self.channels.is_full(idx) {
            return self.base.refuse(packet);
        }
        let (src, bytes) = (packet.src, packet.bytes);
        let pref = self.base.admit(packet, now);
        self.channels
            .try_enqueue(idx, pref, bytes)
            .expect("checked not full");
        self.pump(src, first_hop, now);
        Ok(())
    }

    /// The first-hop channel queue of the packet's current route. Under
    /// adaptive routing a non-peer packet takes whichever first hop is
    /// emptier when offered, so no single queue gates it and there is no
    /// hint.
    fn admission_queue(&self, packet: &Packet) -> Option<u32> {
        if packet.src == packet.dst {
            return None; // loop-back never queues
        }
        if self.policy == RoutingPolicy::Adaptive
            && !self.config.grid.are_peers(packet.src, packet.dst)
        {
            return None;
        }
        let first_hop = self.route_first_hop(packet.src, packet.dst)?;
        u32::try_from(self.channel_index(packet.src, first_hop)).ok()
    }

    /// Never claims a refusal once a fault has been applied: re-routing
    /// can move a packet to a different first hop (or absorb it when every
    /// route is dead), so an older hint no longer names its queue.
    fn refuse_if_full(&mut self, queue: u32) -> bool {
        let full = !self.faulted && self.channels.is_full(queue as usize);
        self.base.stats.reject_if(full)
    }

    fn next_event(&self) -> Option<Time> {
        self.base.events.peek_time()
    }

    fn advance(&mut self, now: Time) {
        while let Some((t, ev)) = self.base.events.pop_due(now) {
            match ev {
                Ev::TxDone { src, hop } => self.pump(src, hop, t),
                Ev::Arrive { packet, at_site } => self.on_arrive(packet, at_site, t),
                Ev::Forward { packet, at } => self.on_forward(packet, at, t),
            }
        }
    }

    fn drain_delivered(&mut self) -> Vec<Packet> {
        self.base.drain_delivered()
    }

    fn drain_delivered_into(&mut self, out: &mut Vec<Packet>) {
        self.base.drain_delivered_into(out);
    }

    fn stats(&self) -> &NetStats {
        &self.base.stats
    }

    fn events_processed(&self) -> u64 {
        self.base.events.popped()
    }

    fn last_event_time(&self) -> Option<Time> {
        self.base.events.last_popped()
    }

    fn supports_batched_advance(&self) -> bool {
        true
    }

    fn slab_stats(&self) -> Option<SlabStats> {
        Some(self.base.slab.stats())
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.base.tracer = tracer;
    }

    /// Degradation policy: electronic re-route around killed links. A
    /// killed peer link evicts its queued packets (the wrapper retries
    /// them) and subsequent traffic detours through a live forwarder;
    /// laser loss halves the affected site's outgoing channel bandwidth.
    fn apply_fault(&mut self, fault: NetFault, _now: Time) -> FaultResponse {
        self.faulted = true;
        let per_site = Self::peers_per_site(&self.config);
        let full = self.config.channel_bytes_per_ns(LAMBDAS_PER_CHANNEL);
        let spare = self.config.channel_bytes_per_ns(LAMBDAS_PER_CHANNEL / 2);
        match fault {
            NetFault::LinkKill { src, dst } => {
                if !self.config.grid.are_peers(src, dst) {
                    return FaultResponse::unhandled();
                }
                let idx = self.channel_index(src, dst);
                self.dead[idx] = true;
                let refs = self.channels.drain_queue(idx);
                let evicted = refs.into_iter().map(|r| self.base.slab.take(r)).collect();
                FaultResponse::handled("reroute").with_evicted(evicted)
            }
            NetFault::LinkRepair { src, dst } => {
                if !self.config.grid.are_peers(src, dst) {
                    return FaultResponse::unhandled();
                }
                let idx = self.channel_index(src, dst);
                self.dead[idx] = false;
                FaultResponse::handled("direct-route")
            }
            NetFault::LaserLoss { site } => {
                for ch in site.index() * per_site..(site.index() + 1) * per_site {
                    self.channels.set_bytes_per_ns(ch, spare);
                }
                FaultResponse::handled("half-bandwidth")
            }
            NetFault::LaserRestore { site } => {
                for ch in site.index() * per_site..(site.index() + 1) * per_site {
                    self.channels.set_bytes_per_ns(ch, full);
                }
                FaultResponse::handled("full-bandwidth")
            }
            NetFault::SiteKill { .. } => FaultResponse::unhandled(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::Span;
    use netcore::{MessageKind, PacketId};

    fn net() -> LimitedP2pNetwork {
        LimitedP2pNetwork::new(MacrochipConfig::scaled())
    }

    fn data(id: u64, src: SiteId, dst: SiteId, at: Time) -> Packet {
        Packet::new(PacketId(id), src, dst, 64, MessageKind::Data, at)
    }

    fn run_until_idle(net: &mut LimitedP2pNetwork) {
        while let Some(t) = net.next_event() {
            net.advance(t);
        }
    }

    #[test]
    fn peer_transfer_is_direct_and_fast() {
        let mut n = net();
        let g = n.config.grid;
        n.inject(data(0, g.site(0, 0), g.site(5, 0), Time::ZERO), Time::ZERO)
            .unwrap();
        run_until_idle(&mut n);
        let done = n.drain_delivered();
        // 64 B at 20 B/ns = 3.2 ns + 5 hops * 0.25 ns flight.
        assert_eq!(done[0].latency().unwrap(), Span::from_ns_f64(4.45));
        assert_eq!(done[0].routed_bytes, 0);
    }

    #[test]
    fn non_peer_transfer_uses_one_router_hop() {
        let mut n = net();
        let g = n.config.grid;
        let (src, dst) = (g.site(0, 0), g.site(3, 5));
        assert!(!g.are_peers(src, dst));
        n.inject(data(0, src, dst, Time::ZERO), Time::ZERO).unwrap();
        run_until_idle(&mut n);
        let done = n.drain_delivered();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].routed_bytes, 64);
        // hop1: 3.2 + 0.75; conversions + router 10; hop2: 3.2 + 1.25.
        assert_eq!(done[0].latency().unwrap(), Span::from_ns_f64(18.4));
    }

    #[test]
    fn forwarder_is_row_peer_of_src_and_col_peer_of_dst() {
        let n = net();
        let g = n.config.grid;
        let f = n.forwarder(g.site(1, 2), g.site(6, 7));
        assert_eq!(g.coord(f), (6, 2));
    }

    #[test]
    fn forwarded_traffic_contends_with_native_traffic() {
        let mut n = net();
        let g = n.config.grid;
        // Forwarder for (0,0)->(1,1) is (1,0). Saturate channel (1,0)->(1,1)
        // with the forwarder's own traffic, then forward through it.
        let fwd = g.site(1, 0);
        let dst = g.site(1, 1);
        for i in 0..4u64 {
            n.inject(data(i, fwd, dst, Time::ZERO), Time::ZERO).unwrap();
        }
        n.inject(data(99, g.site(0, 0), dst, Time::ZERO), Time::ZERO)
            .unwrap();
        run_until_idle(&mut n);
        let done = n.drain_delivered();
        assert_eq!(done.len(), 5);
        let routed = done.iter().find(|p| p.id == PacketId(99)).unwrap();
        // It queued behind four native 3.2 ns transmissions.
        assert!(
            routed.latency().unwrap() > Span::from_ns_f64(16.0),
            "latency {}",
            routed.latency().unwrap()
        );
    }

    #[test]
    fn nearest_neighbor_traffic_never_routes() {
        let mut n = net();
        let g = n.config.grid;
        // All four neighbors of (3,3) are peers.
        let c = g.site(3, 3);
        for (i, d) in [(2usize, 3usize), (4, 3), (3, 2), (3, 4)]
            .iter()
            .enumerate()
        {
            n.inject(data(i as u64, c, g.site(d.0, d.1), Time::ZERO), Time::ZERO)
                .unwrap();
        }
        run_until_idle(&mut n);
        let done = n.drain_delivered();
        assert_eq!(done.len(), 4);
        assert!(done.iter().all(|p| p.routed_bytes == 0));
        assert_eq!(n.stats().routed_bytes(), 0);
    }

    #[test]
    fn loopback_takes_one_cycle() {
        let mut n = net();
        let s = n.config.grid.site(4, 4);
        n.inject(data(0, s, s, Time::ZERO), Time::ZERO).unwrap();
        run_until_idle(&mut n);
        assert_eq!(
            n.drain_delivered()[0].latency().unwrap(),
            Span::from_ps(200)
        );
    }

    #[test]
    fn router_bytes_feed_stats() {
        let mut n = net();
        let g = n.config.grid;
        n.inject(data(0, g.site(0, 0), g.site(7, 7), Time::ZERO), Time::ZERO)
            .unwrap();
        run_until_idle(&mut n);
        n.drain_delivered();
        assert_eq!(n.stats().routed_bytes(), 64);
    }

    #[test]
    fn column_first_policy_routes_through_the_other_corner() {
        let n =
            LimitedP2pNetwork::with_policy(MacrochipConfig::scaled(), RoutingPolicy::ColumnFirst);
        let g = n.config.grid;
        let f = n.forwarder(g.site(1, 2), g.site(6, 7));
        assert_eq!(g.coord(f), (1, 7));
    }

    #[test]
    fn adaptive_policy_avoids_the_congested_first_hop() {
        let mut n =
            LimitedP2pNetwork::with_policy(MacrochipConfig::scaled(), RoutingPolicy::Adaptive);
        let g = n.config.grid;
        let (src, dst) = (g.site(0, 0), g.site(3, 5));
        // Congest the row-first hop (0,0) -> (3,0) with direct traffic.
        for i in 0..6u64 {
            n.inject(data(100 + i, src, g.site(3, 0), Time::ZERO), Time::ZERO)
                .unwrap();
        }
        // The adaptive forwarder now prefers the column-first corner.
        assert_eq!(g.coord(n.forwarder(src, dst)), (0, 5));
        run_until_idle(&mut n);
        assert_eq!(n.drain_delivered().len(), 6);
    }

    #[test]
    fn all_policies_deliver_non_peer_traffic() {
        for policy in [
            RoutingPolicy::RowFirst,
            RoutingPolicy::ColumnFirst,
            RoutingPolicy::Adaptive,
        ] {
            let mut n = LimitedP2pNetwork::with_policy(MacrochipConfig::scaled(), policy);
            let g = n.config.grid;
            n.inject(data(0, g.site(0, 0), g.site(7, 7), Time::ZERO), Time::ZERO)
                .unwrap();
            run_until_idle(&mut n);
            let done = n.drain_delivered();
            assert_eq!(done.len(), 1, "{policy:?}");
            assert_eq!(done[0].routed_bytes, 64, "{policy:?}");
        }
    }

    #[test]
    fn killed_peer_link_detours_electronically() {
        let mut n = net();
        let g = n.config.grid;
        let (a, b) = (g.site(0, 0), g.site(5, 0));
        let r = n.apply_fault(NetFault::LinkKill { src: a, dst: b }, Time::ZERO);
        assert!(r.handled);
        assert_eq!(r.action, "reroute");
        n.inject(data(0, a, b, Time::ZERO), Time::ZERO).unwrap();
        run_until_idle(&mut n);
        let done = n.drain_delivered();
        assert_eq!(done.len(), 1);
        // The detour crosses an electronic router, unlike the direct link.
        assert_eq!(done[0].routed_bytes, 64);
        assert!(done[0].latency().unwrap() > Span::from_ns_f64(10.0));
    }

    #[test]
    fn killed_forwarder_leg_uses_the_other_corner() {
        let mut n = net();
        let g = n.config.grid;
        let (src, dst) = (g.site(0, 0), g.site(3, 5));
        // Kill the row-first corner's first leg; traffic must route via
        // the column-first corner (0,5).
        n.apply_fault(
            NetFault::LinkKill {
                src,
                dst: g.site(3, 0),
            },
            Time::ZERO,
        );
        assert_eq!(g.coord(n.route_first_hop(src, dst).unwrap()), (0, 5));
        n.inject(data(0, src, dst, Time::ZERO), Time::ZERO).unwrap();
        run_until_idle(&mut n);
        assert_eq!(n.drain_delivered().len(), 1);
    }

    #[test]
    fn repair_restores_the_direct_route() {
        let mut n = net();
        let g = n.config.grid;
        let (a, b) = (g.site(0, 0), g.site(5, 0));
        n.apply_fault(NetFault::LinkKill { src: a, dst: b }, Time::ZERO);
        n.apply_fault(NetFault::LinkRepair { src: a, dst: b }, Time::ZERO);
        assert_eq!(n.route_first_hop(a, b), Some(b));
    }

    #[test]
    fn killed_link_evicts_queued_packets() {
        let mut n = net();
        let g = n.config.grid;
        let (a, b) = (g.site(0, 0), g.site(1, 0));
        for i in 0..4u64 {
            n.inject(data(i, a, b, Time::ZERO), Time::ZERO).unwrap();
        }
        let r = n.apply_fault(NetFault::LinkKill { src: a, dst: b }, Time::ZERO);
        // One packet is already in flight; the rest were queued.
        assert_eq!(r.evicted.len(), 3);
    }

    #[test]
    fn full_first_hop_queue_backpressures() {
        let mut n = net();
        let g = n.config.grid;
        let (a, b) = (g.site(0, 0), g.site(1, 0));
        let cap = n.config.queue_capacity;
        for i in 0..=cap as u64 {
            n.inject(data(i, a, b, Time::ZERO), Time::ZERO).unwrap();
        }
        assert!(n.inject(data(99, a, b, Time::ZERO), Time::ZERO).is_err());
    }

    #[test]
    fn admission_hint_stops_claiming_refusal_after_a_reroute() {
        let mut n = net();
        let g = n.config.grid;
        // A non-peer pair: row-first routing forwards through (1, 0).
        let (a, c) = (g.site(0, 0), g.site(1, 1));
        let mut id = 0;
        let refused = loop {
            match n.inject(data(id, a, c, Time::ZERO), Time::ZERO) {
                Ok(()) => id += 1,
                Err(back) => break back,
            }
        };
        let queue = n
            .admission_queue(&refused)
            .expect("a routed pair has a queue");
        assert_eq!(queue as usize, n.channel_index(a, g.site(1, 0)));
        assert!(n.refuse_if_full(queue));
        assert_eq!(n.stats().rejected_packets(), 2);
        // Killing the forwarder's second leg re-routes through (0, 1),
        // whose first hop is empty: the old hint must not claim refusal.
        n.apply_fault(
            NetFault::LinkKill {
                src: g.site(1, 0),
                dst: c,
            },
            Time::ZERO,
        );
        assert!(!n.refuse_if_full(queue));
        assert_eq!(n.stats().rejected_packets(), 2);
        assert!(n.inject(refused, Time::ZERO).is_ok());
    }

    #[test]
    fn adaptive_routing_gives_no_hint_for_forwarded_pairs() {
        let n = LimitedP2pNetwork::with_policy(MacrochipConfig::scaled(), RoutingPolicy::Adaptive);
        let g = n.config.grid;
        let (a, b, c) = (g.site(0, 0), g.site(1, 0), g.site(1, 1));
        // Either first hop may take a forwarded packet, so none gates it.
        assert_eq!(n.admission_queue(&data(0, a, c, Time::ZERO)), None);
        // A peer pair always takes its direct channel.
        let peer = data(1, a, b, Time::ZERO);
        assert_eq!(
            n.admission_queue(&peer),
            u32::try_from(n.channel_index(a, b)).ok()
        );
    }
}
