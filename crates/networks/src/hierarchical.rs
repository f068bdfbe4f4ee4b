//! The two-level hierarchical network (beyond the paper).
//!
//! The five paper architectures provision optics against the full site
//! count, so their component counts and laser power grow with S² — the
//! 8×8 ceiling the paper itself acknowledges. Following the HERMES line
//! of work, this design splits the macrochip into c×c *clusters* (4×4
//! for every power-of-two side) and provisions each level separately:
//!
//! * **Intra-cluster**: one shared serpentine broadcast bundle per
//!   cluster. A transmission holds the cluster's broadcast grant
//!   exclusively (the auditor's token invariant, keyed by cluster id),
//!   serializes at the bundle bandwidth, and propagates along the
//!   serpentine at one site pitch per hop.
//! * **Inter-cluster**: one electronic *bridge* per cluster (its
//!   top-left site) sources a dedicated WDM point-to-point link to every
//!   other bridge. A cross-cluster packet rides its source ring to the
//!   bridge, crosses the bridge-to-bridge link, and rides the
//!   destination ring from that bridge to its destination. Each bridge
//!   relay is an electronic store-and-forward: it emits a `Hop` trace
//!   event and accounts the packet's bytes as routed bytes, which both
//!   the invariant auditor (bridge-buffer byte conservation) and the
//!   energy model (router J/B) consume.
//!
//! Head-of-line flow control keeps bridge buffers bounded: a ring does
//! not grant a bridge-bound transmission while that bridge link's queue
//! is full, so ring backpressure propagates to injection instead of
//! growing unbounded bridge buffers.
//!
//! The bridge links are one [`netcore::ChannelBank`] and the cluster
//! rings' FIFOs one [`netcore::QueueArena`].

use crate::base::NetBase;
use desim::{Span, Time, TraceEvent, Tracer};
use netcore::{
    ChannelBank, FaultResponse, MacrochipConfig, NetFault, NetStats, Network, NetworkKind, Packet,
    PacketRef, QueueArena, SiteId, SlabStats,
};

/// Point-to-point wavelengths provisioned per in-cluster destination;
/// a c×c cluster's shared bundle carries `2·c²` wavelengths (80 GB/s
/// for the scaled 4×4 cluster).
pub const LAMBDAS_PER_CLUSTER_DEST: usize = 2;

#[derive(Debug)]
enum Ev {
    /// A cluster ring finished serializing; release the grant and pump.
    RingFree { cluster: usize },
    /// A ring transmission's last bit reached its target. `relay` means
    /// the target is the egress bridge, not the final destination.
    RingArrive { packet: PacketRef, relay: bool },
    /// A bridge link finished serializing; pump it and its source ring.
    LinkFree { link: usize },
    /// A packet's last bit reached the ingress bridge.
    LinkArrive { packet: PacketRef },
    /// Single-cycle intra-site loop-back.
    Deliver { packet: PacketRef },
}

/// One cluster's shared broadcast ring: an exclusive grant and the
/// bundle bandwidth. Its FIFO of pending transmissions lives in the
/// network's `ring_queues` arena.
#[derive(Debug)]
struct Ring {
    busy: bool,
    bytes_per_ns: f64,
}

/// The hierarchical two-level network: per-cluster broadcast rings plus
/// an inter-cluster bridge backbone.
///
/// # Example
///
/// ```
/// use desim::Time;
/// use netcore::{MacrochipConfig, MessageKind, Network, Packet, PacketId};
/// use networks::HierarchicalNetwork;
///
/// let config = MacrochipConfig::scaled();
/// let mut net = HierarchicalNetwork::new(config);
/// let (a, b) = (config.grid.site(0, 0), config.grid.site(7, 7));
/// net.inject(Packet::new(PacketId(0), a, b, 64, MessageKind::Data, Time::ZERO),
///            Time::ZERO).unwrap();
/// net.advance(Time::from_ns(50));
/// assert_eq!(net.drain_delivered().len(), 1);
/// ```
pub struct HierarchicalNetwork {
    config: MacrochipConfig,
    /// Cluster side length `c` and clusters per grid side.
    cluster_side: usize,
    clusters_per_side: usize,
    /// Physical length of a ring's wrap edge (last serpentine site back
    /// to the first), in site pitches.
    wrap_pitches: usize,
    rings: Vec<Ring>,
    /// Per-cluster ring FIFOs, indexed by cluster.
    ring_queues: QueueArena<PacketRef>,
    /// Bridge-to-bridge links, indexed `src_cluster * k + dst_cluster`.
    links: ChannelBank<PacketRef>,
    /// Per-link admission count: packets granted toward (or injected at)
    /// a bridge that have not yet begun transmitting on its link. Bounded
    /// by `queue_capacity`, this is the bridge-buffer occupancy limit —
    /// a ring withholds a grant (and a bridge source is backpressured)
    /// while the bridge is full, so in-flight ring transmissions always
    /// find buffer space when they arrive.
    link_load: Vec<usize>,
    prop: crate::geom::PropByHops,
    ring_bw: f64,
    link_bw: f64,
    base: NetBase<Ev>,
}

impl HierarchicalNetwork {
    /// Builds the network for `config`.
    pub fn new(config: MacrochipConfig) -> HierarchicalNetwork {
        config.validate();
        let cluster_side = config.layout.cluster_side();
        // `Layout::cluster_side` only returns divisors of the side, so
        // this division is exact; assert it anyway — a truncating split
        // here would silently orphan every site in the ragged edge.
        assert!(
            config.grid.side().is_multiple_of(cluster_side),
            "grid side {} is not tileable by {}x{} clusters",
            config.grid.side(),
            cluster_side,
            cluster_side
        );
        let clusters_per_side = config.grid.side() / cluster_side;
        let clusters = clusters_per_side * clusters_per_side;
        debug_assert_eq!(clusters, config.layout.clusters());
        let ring_bw =
            config.channel_bytes_per_ns(LAMBDAS_PER_CLUSTER_DEST * cluster_side * cluster_side);
        let link_bw = config.channel_bytes_per_ns(config.wavelengths_per_waveguide);
        // Local coordinate of the serpentine's last site: (0, c-1) for
        // even c, (c-1, c-1) for odd c; the wrap edge runs from there
        // back to (0, 0).
        let c = cluster_side;
        let last_x = if c.is_multiple_of(2) { 0 } else { c - 1 };
        let wrap_pitches = last_x + (c - 1);
        HierarchicalNetwork {
            config,
            cluster_side,
            clusters_per_side,
            wrap_pitches,
            rings: (0..clusters)
                .map(|_| Ring {
                    busy: false,
                    bytes_per_ns: ring_bw,
                })
                .collect(),
            ring_queues: QueueArena::new(clusters),
            links: ChannelBank::new(clusters * clusters, link_bw, config.queue_capacity),
            link_load: vec![0; clusters * clusters],
            prop: crate::geom::PropByHops::new(&config.layout),
            ring_bw,
            link_bw,
            base: NetBase::new(),
        }
    }

    /// The cluster a site belongs to.
    fn cluster_of(&self, s: SiteId) -> usize {
        let (x, y) = self.config.grid.coord(s);
        (y / self.cluster_side) * self.clusters_per_side + (x / self.cluster_side)
    }

    /// The bridge site of a cluster (the sub-grid's top-left corner).
    pub fn bridge_site(&self, cluster: usize) -> SiteId {
        let cx = cluster % self.clusters_per_side;
        let cy = cluster / self.clusters_per_side;
        self.config
            .grid
            .site(cx * self.cluster_side, cy * self.cluster_side)
    }

    /// Position of a site in its cluster's serpentine broadcast ring.
    fn local_ring_index(&self, s: SiteId) -> usize {
        let c = self.cluster_side;
        let (x, y) = self.config.grid.coord(s);
        let (lx, ly) = (x % c, y % c);
        let x_in_row = if ly % 2 == 0 { lx } else { c - 1 - lx };
        ly * c + x_in_row
    }

    /// Forward path length from `from` to `to` along the cluster's
    /// serpentine, in site pitches. Interior steps are one pitch each;
    /// the wrap edge is the return waveguide from the serpentine's last
    /// site back to its first, modeled at its physical Manhattan length
    /// (`c - 1` pitches for an even cluster side) — unlike the full-grid
    /// token ring, whose wrap endpoints are torus-adjacent, a cluster's
    /// wrap spans real substrate distance and must cost flight time for
    /// the auditor's torus-floor invariant to hold.
    fn ring_pitches(&self, from: SiteId, to: SiteId) -> usize {
        let m = self.cluster_side * self.cluster_side;
        let (a, b) = (self.local_ring_index(from), self.local_ring_index(to));
        if b >= a {
            b - a
        } else {
            (m - 1 - a) + self.wrap_pitches + b
        }
    }

    fn link_index(&self, src_cluster: usize, dst_cluster: usize) -> usize {
        src_cluster * self.rings.len() + dst_cluster
    }

    /// True when cluster `cluster`'s ring queue refuses new packets.
    fn ring_full(&self, cluster: usize) -> bool {
        self.ring_queues.len(cluster) >= self.config.queue_capacity
    }

    /// True when bridge link `link`'s buffer is full: it refuses packets
    /// from its bridge site and stalls the source ring's relay head.
    fn link_full(&self, link: usize) -> bool {
        self.link_load[link] >= self.config.queue_capacity
    }

    /// Grants the ring's head transmission if the ring is idle and, for a
    /// bridge-bound packet, its egress link can buffer it (head-of-line
    /// flow control).
    fn pump_ring(&mut self, cluster: usize, now: Time) {
        if self.rings[cluster].busy {
            return;
        }
        let Some(&pref) = self.ring_queues.front(cluster) else {
            return;
        };
        let (src, dst, bytes) = {
            let p = self.base.slab.get_mut(pref);
            (p.src, p.dst, p.bytes)
        };
        let (sc, dc) = (self.cluster_of(src), self.cluster_of(dst));
        // Which leg is this? On the source ring the target is the final
        // destination (intra-cluster) or the egress bridge; on the
        // destination ring the bridge launches the final leg.
        let (launcher, target, relay) = if cluster == sc {
            if dc == sc {
                (src, dst, false)
            } else {
                (src, self.bridge_site(sc), true)
            }
        } else {
            (self.bridge_site(dc), dst, false)
        };
        if relay && self.link_full(self.link_index(sc, dc)) {
            // Head-of-line stall: hold the grant until the bridge has
            // buffer space (LinkFree re-pumps this ring).
            return;
        }
        self.ring_queues.pop_front(cluster);
        self.rings[cluster].busy = true;
        if relay {
            let link = self.link_index(sc, dc);
            self.link_load[link] += 1;
        }
        let ser = Span::from_ns_f64(f64::from(bytes) / self.rings[cluster].bytes_per_ns);
        let finish = now + ser;
        {
            let p = self.base.slab.get_mut(pref);
            if p.arb_start.is_none() {
                p.arb_start = Some(now);
            }
            if p.tx_start.is_none() {
                p.tx_start = Some(now);
            }
            p.tx_end = Some(finish);
        }
        self.base.tracer.emit(now, || TraceEvent::TokenAcquire {
            dst: cluster,
            holder: launcher.index(),
        });
        // The release is emitted now, stamped with the grant's known end
        // time, so acquire/release always pair in the trace stream even
        // when a saturated run is cut off before `RingFree` pops.
        self.base.tracer.emit(finish, || TraceEvent::TokenRelease {
            dst: cluster,
            holder: launcher.index(),
        });
        let prop = self.config.layout.hop_delay() * self.ring_pitches(launcher, target) as u64;
        self.base.events.push(finish, Ev::RingFree { cluster });
        self.base.events.push(
            finish + prop,
            Ev::RingArrive {
                packet: pref,
                relay,
            },
        );
    }

    /// Starts the link's next transmission if it is idle.
    fn pump_link(&mut self, link: usize, now: Time) {
        if let Some((pref, finish)) = self.links.begin_if_ready(link, now) {
            self.link_load[link] -= 1;
            let (src_c, dst_c) = (link / self.rings.len(), link % self.rings.len());
            let packet = self.base.slab.get_mut(pref);
            // First-set-wins: a bridge-sourced packet starts its wire
            // time here; a relayed one already started it on its ring.
            if packet.arb_start.is_none() {
                packet.arb_start = Some(now);
            }
            if packet.tx_start.is_none() {
                packet.tx_start = Some(now);
            }
            packet.tx_end = Some(finish);
            let prop = self.prop.delay(
                self.config.grid.coord(self.bridge_site(src_c)),
                self.config.grid.coord(self.bridge_site(dst_c)),
            );
            self.base.events.push(finish, Ev::LinkFree { link });
            self.base
                .events
                .push(finish + prop, Ev::LinkArrive { packet: pref });
        }
    }

    /// An electronic bridge stores and forwards the packet: routed-bytes
    /// accounting plus the `Hop` trace event the auditor reconciles.
    fn relay_at(&mut self, pref: PacketRef, bridge: SiteId, at: Time) {
        let p = self.base.slab.get_mut(pref);
        p.routed_bytes += p.bytes;
        let id = p.id.0;
        self.base.tracer.emit(at, || TraceEvent::Hop {
            packet: id,
            at: bridge.index(),
        });
    }

    fn on_ring_arrive(&mut self, pref: PacketRef, relay: bool, at: Time) {
        if !relay {
            self.base.deliver(pref, at);
            return;
        }
        let (src, dst, bytes) = {
            let p = self.base.slab.get_mut(pref);
            (p.src, p.dst, p.bytes)
        };
        let (sc, dc) = (self.cluster_of(src), self.cluster_of(dst));
        let bridge = self.bridge_site(sc);
        self.relay_at(pref, bridge, at);
        let link = self.link_index(sc, dc);
        self.links
            .try_enqueue(link, pref, bytes)
            .unwrap_or_else(|_| panic!("ring granted into a full bridge link"));
        self.pump_link(link, at);
    }

    fn on_link_arrive(&mut self, pref: PacketRef, at: Time) {
        let dst = self.base.slab.get_mut(pref).dst;
        let dc = self.cluster_of(dst);
        let bridge = self.bridge_site(dc);
        if dst == bridge {
            // The ingress bridge is the destination: no second relay.
            self.base.deliver(pref, at);
            return;
        }
        self.relay_at(pref, bridge, at);
        self.ring_queues.push_back(dc, pref);
        self.pump_ring(dc, at);
    }
}

impl Network for HierarchicalNetwork {
    fn kind(&self) -> NetworkKind {
        NetworkKind::Hierarchical
    }

    fn config(&self) -> &MacrochipConfig {
        &self.config
    }

    fn inject(&mut self, mut packet: Packet, now: Time) -> Result<(), Packet> {
        if packet.src == packet.dst {
            // Single-cycle intra-site loop-back.
            let pref = self.base.loopback(packet, now);
            self.base
                .events
                .push(now + self.config.cycle(), Ev::Deliver { packet: pref });
            return Ok(());
        }
        let sc = self.cluster_of(packet.src);
        let (src_is_bridge, dc) = (
            packet.src == self.bridge_site(sc),
            self.cluster_of(packet.dst),
        );
        // A bridge site sending cross-cluster skips its own ring and
        // queues straight onto the bridge link (no relay hop: the packet
        // originates in the bridge's buffers).
        if src_is_bridge && sc != dc {
            let link = self.link_index(sc, dc);
            if self.link_full(link) {
                return self.base.refuse(packet);
            }
            self.link_load[link] += 1;
            let bytes = packet.bytes;
            packet.arb_start = Some(now);
            let pref = self.base.admit(packet, now);
            self.links
                .try_enqueue(link, pref, bytes)
                .expect("checked not full");
            self.pump_link(link, now);
            return Ok(());
        }
        if self.ring_full(sc) {
            return self.base.refuse(packet);
        }
        let pref = self.base.admit(packet, now);
        self.ring_queues.push_back(sc, pref);
        self.pump_ring(sc, now);
        Ok(())
    }

    /// The source cluster's ring queue (keys `0..clusters`) or, for a
    /// bridge source sending cross-cluster, its bridge link's buffer
    /// (keys `clusters + link`).
    fn admission_queue(&self, packet: &Packet) -> Option<u32> {
        if packet.src == packet.dst {
            return None; // loop-back never queues
        }
        let (sc, dc) = (self.cluster_of(packet.src), self.cluster_of(packet.dst));
        let key = if packet.src == self.bridge_site(sc) && sc != dc {
            self.rings.len() + self.link_index(sc, dc)
        } else {
            sc
        };
        u32::try_from(key).ok()
    }

    fn refuse_if_full(&mut self, queue: u32) -> bool {
        let queue = queue as usize;
        let clusters = self.rings.len();
        let full = if queue < clusters {
            self.ring_full(queue)
        } else {
            self.link_full(queue - clusters)
        };
        self.base.stats.reject_if(full)
    }

    fn next_event(&self) -> Option<Time> {
        self.base.events.peek_time()
    }

    fn advance(&mut self, now: Time) {
        while let Some((t, ev)) = self.base.events.pop_due(now) {
            match ev {
                Ev::RingFree { cluster } => {
                    // The matching TokenRelease was emitted at grant time.
                    self.rings[cluster].busy = false;
                    self.pump_ring(cluster, t);
                }
                Ev::RingArrive { packet, relay } => self.on_ring_arrive(packet, relay, t),
                Ev::LinkFree { link } => {
                    self.pump_link(link, t);
                    // A slot freed: the source ring's head may have been
                    // stalled on this link.
                    self.pump_ring(link / self.rings.len(), t);
                }
                Ev::LinkArrive { packet } => self.on_link_arrive(packet, t),
                Ev::Deliver { packet } => self.base.deliver(packet, t),
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

    /// Degradation policy: a killed waveguide inside a cluster (or a lost
    /// laser) halves that cluster's shared bundle; a killed waveguide
    /// between clusters halves the bridge link between them. Site kills
    /// fall back to the resilience wrapper's absorption policy.
    fn apply_fault(&mut self, fault: NetFault, _now: Time) -> FaultResponse {
        match fault {
            NetFault::LinkKill { src, dst } => {
                let (sc, dc) = (self.cluster_of(src), self.cluster_of(dst));
                if sc == dc {
                    self.rings[sc].bytes_per_ns = self.ring_bw / 2.0;
                } else {
                    let link = self.link_index(sc, dc);
                    self.links.set_bytes_per_ns(link, self.link_bw / 2.0);
                }
                FaultResponse::handled("spare-wavelength")
            }
            NetFault::LinkRepair { src, dst } => {
                let (sc, dc) = (self.cluster_of(src), self.cluster_of(dst));
                if sc == dc {
                    self.rings[sc].bytes_per_ns = self.ring_bw;
                } else {
                    let link = self.link_index(sc, dc);
                    self.links.set_bytes_per_ns(link, self.link_bw);
                }
                FaultResponse::handled("full-bandwidth")
            }
            NetFault::LaserLoss { site } => {
                let sc = self.cluster_of(site);
                self.rings[sc].bytes_per_ns = self.ring_bw / 2.0;
                FaultResponse::handled("spare-wavelength")
            }
            NetFault::LaserRestore { site } => {
                let sc = self.cluster_of(site);
                self.rings[sc].bytes_per_ns = self.ring_bw;
                FaultResponse::handled("full-bandwidth")
            }
            NetFault::SiteKill { .. } => FaultResponse::unhandled(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcore::{MessageKind, PacketId};

    fn net() -> HierarchicalNetwork {
        HierarchicalNetwork::new(MacrochipConfig::scaled())
    }

    fn data(id: u64, src: SiteId, dst: SiteId, at: Time) -> Packet {
        Packet::new(PacketId(id), src, dst, 64, MessageKind::Data, at)
    }

    fn run_until_idle(net: &mut HierarchicalNetwork) {
        while let Some(t) = net.next_event() {
            net.advance(t);
        }
    }

    #[test]
    fn cluster_geometry_at_8x8() {
        let n = net();
        let g = n.config.grid;
        assert_eq!(n.rings.len(), 4);
        assert_eq!(n.cluster_of(g.site(0, 0)), 0);
        assert_eq!(n.cluster_of(g.site(3, 3)), 0);
        assert_eq!(n.cluster_of(g.site(4, 0)), 1);
        assert_eq!(n.cluster_of(g.site(0, 4)), 2);
        assert_eq!(n.cluster_of(g.site(7, 7)), 3);
        assert_eq!(n.bridge_site(0), g.site(0, 0));
        assert_eq!(n.bridge_site(3), g.site(4, 4));
    }

    #[test]
    fn local_ring_is_serpentine_within_the_cluster() {
        let n = net();
        let g = n.config.grid;
        // Cluster 3's sub-grid starts at (4,4); its serpentine reverses
        // every local row.
        assert_eq!(n.local_ring_index(g.site(4, 4)), 0);
        assert_eq!(n.local_ring_index(g.site(7, 4)), 3);
        assert_eq!(n.local_ring_index(g.site(7, 5)), 4);
        assert_eq!(n.local_ring_index(g.site(4, 5)), 7);
        // Consecutive ring positions are Manhattan-adjacent.
        for i in 0..15 {
            let find = |idx: usize| {
                g.iter()
                    .find(|&s| n.cluster_of(s) == 3 && n.local_ring_index(s) == idx)
                    .unwrap()
            };
            let (a, b) = (find(i), find(i + 1));
            let (ax, ay) = g.coord(a);
            let (bx, by) = g.coord(b);
            assert_eq!(ax.abs_diff(bx) + ay.abs_diff(by), 1, "ring step {i}");
        }
    }

    #[test]
    fn intra_cluster_latency_is_grant_serialization_and_ring_flight() {
        let mut n = net();
        let g = n.config.grid;
        // (1,0) → (2,0): both in cluster 0; ring indices 1 → 2, one hop.
        n.inject(data(0, g.site(1, 0), g.site(2, 0), Time::ZERO), Time::ZERO)
            .unwrap();
        run_until_idle(&mut n);
        let done = n.drain_delivered();
        assert_eq!(done.len(), 1);
        // 64 B at 80 B/ns = 0.8 ns serialization + 1 ring hop (0.25 ns).
        assert_eq!(done[0].latency().unwrap(), Span::from_ns_f64(1.05));
    }

    #[test]
    fn inter_cluster_crosses_both_rings_and_the_bridge_link() {
        let mut n = net();
        let g = n.config.grid;
        // (1,0) in cluster 0 → (5,0) in cluster 1.
        n.inject(data(0, g.site(1, 0), g.site(5, 0), Time::ZERO), Time::ZERO)
            .unwrap();
        run_until_idle(&mut n);
        let done = n.drain_delivered();
        assert_eq!(done.len(), 1);
        // Leg 1: ring 0, (1,0) → bridge (0,0): 0.8 ns ser + a forward
        //   path of 14 interior steps plus the 3-pitch wrap edge
        //   (17 pitches, 4.25 ns).
        // Leg 2: link 0→1, 64 B at 20 B/ns = 3.2 ns + 4 hops prop (1 ns).
        // Leg 3: ring 1, bridge (4,0) → (5,0): 0.8 ns ser + 1 pitch.
        let expect = 0.8 + 17.0 * 0.25 + 3.2 + 4.0 * 0.25 + 0.8 + 0.25;
        assert_eq!(done[0].latency().unwrap(), Span::from_ns_f64(expect));
        // Two electronic relays: 128 routed bytes.
        assert_eq!(n.stats().routed_bytes(), 128);
    }

    #[test]
    fn loopback_takes_one_cycle() {
        let mut n = net();
        let s = n.config.grid.site(2, 2);
        n.inject(data(0, s, s, Time::ZERO), Time::ZERO).unwrap();
        run_until_idle(&mut n);
        let done = n.drain_delivered();
        assert_eq!(done[0].latency().unwrap(), Span::from_ps(200));
    }

    #[test]
    fn ring_grants_are_exclusive_and_serialize() {
        let mut n = net();
        let g = n.config.grid;
        // Two same-cluster transmissions from different sources share the
        // cluster 0 bundle and must serialize on it.
        n.inject(data(0, g.site(1, 0), g.site(2, 0), Time::ZERO), Time::ZERO)
            .unwrap();
        n.inject(data(1, g.site(3, 0), g.site(2, 1), Time::ZERO), Time::ZERO)
            .unwrap();
        run_until_idle(&mut n);
        let done = n.drain_delivered();
        assert_eq!(done.len(), 2);
        let t0 = done[0].tx_start.unwrap();
        let t1 = done[1].tx_start.unwrap();
        // The second grant waits out the first's 0.8 ns serialization.
        assert_eq!(t1.saturating_since(t0), Span::from_ns_f64(0.8));
    }

    #[test]
    fn backpressure_after_ring_queue_fills() {
        let mut n = net();
        let g = n.config.grid;
        let cap = n.config.queue_capacity;
        // One grant in flight plus a full FIFO.
        for i in 0..=cap as u64 {
            n.inject(data(i, g.site(1, 0), g.site(2, 0), Time::ZERO), Time::ZERO)
                .unwrap();
        }
        let err = n.inject(data(99, g.site(3, 1), g.site(2, 0), Time::ZERO), Time::ZERO);
        assert!(err.is_err());
        assert_eq!(n.stats().rejected_packets(), 1);
    }

    #[test]
    fn bridge_source_skips_its_own_ring() {
        let mut n = net();
        let g = n.config.grid;
        // Bridge of cluster 0 is (0,0); destination bridge of cluster 1.
        n.inject(data(0, g.site(0, 0), g.site(4, 0), Time::ZERO), Time::ZERO)
            .unwrap();
        run_until_idle(&mut n);
        let done = n.drain_delivered();
        // Link only: 3.2 ns ser + 4 hops (1 ns); no ring legs, no relays.
        assert_eq!(done[0].latency().unwrap(), Span::from_ns_f64(4.2));
        assert_eq!(n.stats().routed_bytes(), 0);
    }

    #[test]
    fn killed_intra_cluster_link_halves_the_bundle() {
        let mut n = net();
        let g = n.config.grid;
        let (a, b) = (g.site(1, 0), g.site(2, 0));
        let r = n.apply_fault(NetFault::LinkKill { src: a, dst: b }, Time::ZERO);
        assert!(r.handled);
        n.inject(data(0, a, b, Time::ZERO), Time::ZERO).unwrap();
        run_until_idle(&mut n);
        let done = n.drain_delivered();
        // 64 B at 40 B/ns = 1.6 ns + one ring hop.
        assert_eq!(done[0].latency().unwrap(), Span::from_ns_f64(1.85));
        n.apply_fault(NetFault::LinkRepair { src: a, dst: b }, Time::ZERO);
        let t = Time::from_us(1);
        n.inject(data(1, a, b, t), t).unwrap();
        run_until_idle(&mut n);
        let done = n.drain_delivered();
        assert_eq!(done[0].latency().unwrap(), Span::from_ns_f64(1.05));
    }

    #[test]
    fn killed_bridge_link_degrades_cross_cluster_traffic() {
        let mut n = net();
        let g = n.config.grid;
        let (a, b) = (g.site(1, 0), g.site(5, 0));
        n.apply_fault(NetFault::LinkKill { src: a, dst: b }, Time::ZERO);
        n.inject(data(0, a, b, Time::ZERO), Time::ZERO).unwrap();
        run_until_idle(&mut n);
        let done = n.drain_delivered();
        // The link leg doubles: 6.4 ns instead of 3.2 ns.
        let expect = 0.8 + 17.0 * 0.25 + 6.4 + 1.0 + 0.8 + 0.25;
        assert_eq!(done[0].latency().unwrap(), Span::from_ns_f64(expect));
    }

    #[test]
    fn works_at_16x16() {
        let mut n = HierarchicalNetwork::new(MacrochipConfig::with_side(16));
        let g = n.config.grid;
        assert_eq!(n.rings.len(), 16);
        n.inject(
            data(0, g.site(0, 0), g.site(15, 15), Time::ZERO),
            Time::ZERO,
        )
        .unwrap();
        n.inject(data(1, g.site(2, 2), g.site(3, 3), Time::ZERO), Time::ZERO)
            .unwrap();
        run_until_idle(&mut n);
        assert_eq!(n.drain_delivered().len(), 2);
        assert_eq!(n.stats().delivered_packets(), 2);
    }

    #[test]
    fn stats_count_deliveries() {
        let mut n = net();
        let g = n.config.grid;
        for i in 0..4u64 {
            n.inject(
                data(i, g.site(1, 1), g.site(6, 6), Time::from_ns(i)),
                Time::from_ns(i),
            )
            .unwrap();
        }
        run_until_idle(&mut n);
        assert_eq!(n.stats().delivered_packets(), 4);
        assert_eq!(n.stats().delivered_bytes(), 256);
        assert_eq!(n.drain_delivered().len(), 4);
    }
}
