//! The circuit-switched optical torus (paper §4.5).
//!
//! An 8×8 torus of 4×4 optical switches carries wide (320 GB/s) optical
//! circuits. Before any data moves, a path-setup message travels hop by
//! hop from the source to the destination over a *low-bandwidth optical
//! control network* (the macrochip adaptation replaces the original
//! electronic setup network, which would have required an active
//! substrate). Each control hop serializes the setup packet at one
//! wavelength (2.5 GB/s), crosses one site pitch of waveguide, and spends
//! a router cycle setting the local 4×4 switch. The destination
//! acknowledges, data flashes across the established circuit, and the
//! circuit is torn down.
//!
//! For cache-line-sized transfers the setup round trip dominates utterly —
//! the behaviour behind the paper's 2.5%-of-peak sustained bandwidth
//! (§6.1). Gateways sustain a small number of concurrent circuits
//! ([`MAX_CIRCUITS_PER_GATEWAY`]).
//!
//! The control links are one [`netcore::ChannelBank`]; the per-site
//! source and destination wait queues are two [`netcore::QueueArena`]s.
//! A setup message carries its circuit id, destination and control-hop
//! count through the links, so routing it one hop touches no per-circuit
//! table: the circuit's record is read only when the destination grants
//! it, when the ack lands and when the data finishes.

use crate::base::NetBase;
use desim::{Span, Time, TraceEvent, Tracer};
use netcore::{
    ChannelBank, FaultResponse, FxHashMap, FxHashSet, MacrochipConfig, NetFault, NetStats, Network,
    NetworkKind, Packet, PacketRef, QueueArena, SiteId, SlabStats,
};

/// Wavelengths per data circuit (128 × 2.5 GB/s = 320 GB/s).
pub const LAMBDAS_PER_CIRCUIT: usize = 128;

/// Default concurrent circuits a site's gateway can source (and sink):
/// one per sourced waveguide (§4.5: each site sources 16 waveguides).
pub const MAX_CIRCUITS_PER_GATEWAY: usize = 16;

/// Size of a path-setup control message: routing, wavelength-assignment
/// and virtual-channel state for the whole path, in bytes.
pub const SETUP_BYTES: u32 = 32;

/// Per-hop processing of a setup message at a switch point: O-E
/// conversion, route computation, driving the 4x4 switch, and E-O
/// remodulation onto the next control segment.
pub const HOP_PROCESSING: desim::Span = desim::Span::from_ps(2_000);

/// Default packets carried per circuit: the paper sets up and tears down
/// a circuit per transfer, which is exactly why small messages fare so
/// badly (§6.1). The batching ablation raises this.
pub const DEFAULT_BATCH: usize = 1;

#[derive(Debug, Clone)]
struct Circuit {
    src: SiteId,
    dst: SiteId,
    packets: Vec<PacketRef>,
    hops: usize,
}

#[derive(Debug)]
enum Ev {
    /// A control link finished serializing; start its next setup message.
    CtrlTxDone { link: usize },
    /// A setup message for `dst` reached (and was routed by) site `at`
    /// after `hops` control hops, counting fault detours; the count is
    /// bounded to detect unroutable paths. Site ids are `u16`, so a side
    /// is at most 256 and the largest count carried, 6·side + 1, fits a
    /// `u16` as well.
    SetupArrive {
        circuit: u64,
        at: SiteId,
        dst: SiteId,
        hops: u16,
    },
    /// The acknowledgment reached the source; data transmission starts.
    AckArrive { circuit: u64 },
    /// The last data bit reached the destination.
    DataDone { circuit: u64 },
    /// Intra-site loop-back delivery.
    Deliver { packet: PacketRef },
}

/// The circuit-switched torus network.
///
/// # Example
///
/// ```
/// use desim::Time;
/// use netcore::{MacrochipConfig, MessageKind, Network, Packet, PacketId};
/// use networks::CircuitSwitchedNetwork;
///
/// let config = MacrochipConfig::scaled();
/// let mut net = CircuitSwitchedNetwork::new(config);
/// let p = Packet::new(PacketId(0), config.grid.site(0, 0), config.grid.site(2, 2),
///                     64, MessageKind::Data, Time::ZERO);
/// net.inject(p, Time::ZERO).unwrap();
/// while let Some(t) = net.next_event() { net.advance(t); }
/// let done = net.drain_delivered();
/// // Path setup dominates: tens of ns for a 0.2 ns data flash.
/// assert!(done[0].latency().unwrap().as_ns_f64() > 10.0);
/// ```
pub struct CircuitSwitchedNetwork {
    config: MacrochipConfig,
    /// Directed control links: 4 per site (+x, −x, +y, −y), indexed
    /// `site * 4 + direction`. Setup messages ride them as
    /// `(circuit, dst, hops)` serialized at [`SETUP_BYTES`]: the id, the
    /// destination each switch point routes toward, and the control hops
    /// taken once this one lands.
    ctrl_links: ChannelBank<(u64, SiteId, u16)>,
    out_active: Vec<usize>,
    in_active: Vec<usize>,
    /// Per source site: packets waiting for a gateway slot.
    src_wait: QueueArena<PacketRef>,
    /// Per destination site: circuits whose setup arrived while its
    /// gateway was full.
    dst_wait: QueueArena<u64>,
    circuits: FxHashMap<u64, Circuit>,
    /// Killed torus segments, stored in both directions (a waveguide cut
    /// takes out the whole segment); setup routing detours around them.
    dead_links: FxHashSet<(usize, usize)>,
    /// Per-hop flight time and setup-message serialization, precomputed
    /// from the same `Layout`/bandwidth math the hot path used to run.
    hop_delay: Span,
    setup_ser: Span,
    /// Memo of the last data-burst serialization computed (same value the
    /// division would produce, cached for the common fixed burst size).
    data_ser_memo: std::cell::Cell<(u32, Span)>,
    gateway_limit: usize,
    batch_limit: usize,
    next_circuit: u64,
    base: NetBase<Ev>,
}

const DIR_XP: usize = 0;
const DIR_XN: usize = 1;
const DIR_YP: usize = 2;
const DIR_YN: usize = 3;

impl CircuitSwitchedNetwork {
    /// Builds the network for `config` with the default gateway limit.
    pub fn new(config: MacrochipConfig) -> CircuitSwitchedNetwork {
        CircuitSwitchedNetwork::with_gateway_limit(config, MAX_CIRCUITS_PER_GATEWAY)
    }

    /// Builds the network with a custom per-gateway concurrent-circuit
    /// limit (used by the gateway-concurrency ablation).
    ///
    /// # Panics
    ///
    /// Panics if `gateway_limit` is zero.
    pub fn with_gateway_limit(
        config: MacrochipConfig,
        gateway_limit: usize,
    ) -> CircuitSwitchedNetwork {
        CircuitSwitchedNetwork::with_batching(config, gateway_limit, DEFAULT_BATCH)
    }

    /// Builds the network carrying up to `batch_limit` queued same-destination
    /// packets per circuit (the batching ablation; the paper's design is 1).
    ///
    /// # Panics
    ///
    /// Panics if `gateway_limit` or `batch_limit` is zero.
    pub fn with_batching(
        config: MacrochipConfig,
        gateway_limit: usize,
        batch_limit: usize,
    ) -> CircuitSwitchedNetwork {
        config.validate();
        assert!(gateway_limit > 0, "need at least one circuit per gateway");
        assert!(batch_limit > 0, "need at least one packet per circuit");
        let sites = config.grid.sites();
        let ctrl_bw = config.lambda_bytes_per_ns; // one wavelength
        CircuitSwitchedNetwork {
            config,
            // Deep control queues: contention appears as queueing delay.
            ctrl_links: ChannelBank::new(sites * 4, ctrl_bw, 1024),
            out_active: vec![0; sites],
            in_active: vec![0; sites],
            src_wait: QueueArena::new(sites),
            dst_wait: QueueArena::new(sites),
            circuits: FxHashMap::default(),
            dead_links: FxHashSet::default(),
            hop_delay: config.layout.hop_delay(),
            setup_ser: Span::from_ns_f64(SETUP_BYTES as f64 / config.lambda_bytes_per_ns),
            data_ser_memo: std::cell::Cell::new((
                64,
                Span::from_ns_f64(64.0 / config.channel_bytes_per_ns(LAMBDAS_PER_CIRCUIT)),
            )),
            gateway_limit,
            batch_limit,
            next_circuit: 0,
            base: NetBase::new(),
        }
    }

    /// XY wrap-around routing: the next hop direction from `cur` toward
    /// `dst`, x first. Directions whose segment is killed are skipped in
    /// favour of the same-axis reverse ring, then the other axis; with
    /// every segment dead the preferred direction is returned and the
    /// setup-hop bound eventually abandons the circuit.
    fn next_dir(&self, cur: SiteId, dst: SiteId) -> usize {
        let g = self.config.grid;
        let n = g.side();
        let (cx, cy) = g.coord(cur);
        let (dx, dy) = g.coord(dst);
        let x_fwd = netcore::fast_rem(dx + n - cx, n); // hops going +x
        let (x_best, x_back) = if x_fwd <= n - x_fwd {
            (DIR_XP, DIR_XN)
        } else {
            (DIR_XN, DIR_XP)
        };
        let y_fwd = netcore::fast_rem(dy + n - cy, n);
        let (y_best, y_back) = if y_fwd <= n - y_fwd {
            (DIR_YP, DIR_YN)
        } else {
            (DIR_YN, DIR_YP)
        };
        // Detour preference: the other axis comes before the same-axis
        // reverse ring, which would just lead back to the blocked segment.
        let order = if cx != dx {
            [x_best, y_best, y_back, x_back]
        } else {
            [y_best, x_best, x_back, y_back]
        };
        order
            .into_iter()
            .find(|&dir| self.link_live(cur, self.neighbor(cur, dir)))
            .unwrap_or(order[0])
    }

    /// True when the torus segment between neighbours `a` and `b` is alive.
    fn link_live(&self, a: SiteId, b: SiteId) -> bool {
        !self.dead_links.contains(&(a.index(), b.index()))
    }

    fn neighbor(&self, cur: SiteId, dir: usize) -> SiteId {
        let g = self.config.grid;
        let n = g.side();
        let (x, y) = g.coord(cur);
        let (nx, ny) = match dir {
            DIR_XP => (netcore::fast_rem(x + 1, n), y),
            DIR_XN => (netcore::fast_rem(x + n - 1, n), y),
            DIR_YP => (x, netcore::fast_rem(y + 1, n)),
            DIR_YN => (x, netcore::fast_rem(y + n - 1, n)),
            _ => unreachable!("invalid direction"),
        };
        g.site(nx, ny)
    }

    /// Per-hop control cost excluding serialization: waveguide flight plus
    /// the switch point's processing.
    fn hop_overhead(&self) -> Span {
        self.hop_delay + HOP_PROCESSING
    }

    /// The acknowledgment's return traversal: the circuit's switches are
    /// already set, so the ack is serialized once and flies the reverse
    /// path without per-hop routing.
    fn ack_traverse(&self, hops: usize) -> Span {
        self.setup_ser + self.hop_delay * hops as u64
    }

    fn link_index(&self, site: SiteId, dir: usize) -> usize {
        site.index() * 4 + dir
    }

    /// True when source `src`'s setup wait queue refuses new packets.
    fn src_wait_full(&self, src: usize) -> bool {
        self.src_wait.len(src) >= self.config.queue_capacity * 4
    }

    /// Sends the circuit's setup message one hop onward from `from`
    /// toward `dst`, `hops` control hops into its path.
    fn forward_setup(&mut self, circuit: u64, from: SiteId, dst: SiteId, hops: u16, now: Time) {
        let dir = self.next_dir(from, dst);
        let link = self.link_index(from, dir);
        self.ctrl_links
            .try_enqueue(link, (circuit, dst, hops + 1), SETUP_BYTES)
            .expect("control queues are effectively unbounded");
        self.pump_ctrl(link, now);
    }

    fn pump_ctrl(&mut self, link: usize, now: Time) {
        let site = SiteId::from_index(link / 4);
        let dir = link % 4;
        if let Some(((circuit, dst, hops), finish)) = self.ctrl_links.begin_if_ready(link, now) {
            let at = self.neighbor(site, dir);
            self.base.events.push(finish, Ev::CtrlTxDone { link });
            self.base.events.push(
                finish + self.hop_overhead(),
                Ev::SetupArrive {
                    circuit,
                    at,
                    dst,
                    hops,
                },
            );
        }
    }

    /// Starts new circuits from `src` while the gateway has capacity.
    fn try_start(&mut self, src: SiteId, now: Time) {
        while self.out_active[src.index()] < self.gateway_limit {
            let Some(head) = self.src_wait.pop_front(src.index()) else {
                return;
            };
            let packet = self.base.slab.get_mut(head);
            let dst = packet.dst;
            // Leaving the gateway queue starts the setup handshake: the
            // circuit's setup round trip is this network's arbitration.
            packet.arb_start = Some(now);
            let mut packets = vec![head];
            // Batch further queued packets for the same destination onto
            // this circuit (no effect at the paper's batch limit of 1):
            // one pass rotates the queue, taking matches up to the limit
            // and re-queueing the rest in their order.
            if self.batch_limit > 1 {
                for _ in 0..self.src_wait.len(src.index()) {
                    let extra = self
                        .src_wait
                        .pop_front(src.index())
                        .expect("length checked");
                    if packets.len() < self.batch_limit && self.base.slab.get(extra).dst == dst {
                        self.base.slab.get_mut(extra).arb_start = Some(now);
                        packets.push(extra);
                    } else {
                        self.src_wait.push_back(src.index(), extra);
                    }
                }
            }
            let id = self.next_circuit;
            self.next_circuit += 1;
            let hops = self
                .config
                .layout
                .torus_hops(self.config.grid.coord(src), self.config.grid.coord(dst));
            self.circuits.insert(
                id,
                Circuit {
                    src,
                    dst,
                    packets,
                    hops,
                },
            );
            self.out_active[src.index()] += 1;
            self.forward_setup(id, src, dst, 0, now);
        }
    }

    fn on_setup_arrive(&mut self, circuit: u64, at: SiteId, dst: SiteId, hops: u16, now: Time) {
        // Only a circuit's own lost setup removes it before its data is
        // done, so the circuit outlives every hop of its setup.
        debug_assert!(self.circuits.contains_key(&circuit));
        // A setup wandering far beyond any healthy path means the fault
        // pattern has cut the destination off: abandon the circuit.
        let lost = at != dst && usize::from(hops) > 6 * self.config.grid.side();
        if lost {
            self.abandon_circuit(circuit, at, now);
            return;
        }
        if at == dst {
            if self.in_active[dst.index()] < self.gateway_limit {
                self.grant(circuit, now);
            } else {
                self.dst_wait.push_back(dst.index(), circuit);
            }
        } else {
            self.base.tracer.emit(now, || TraceEvent::Hop {
                packet: circuit,
                at: at.index(),
            });
            self.forward_setup(circuit, at, dst, hops, now);
        }
    }

    /// Abandons a circuit whose setup cannot reach the destination,
    /// dropping its packets and freeing the source gateway slot.
    fn abandon_circuit(&mut self, circuit: u64, at: SiteId, now: Time) {
        let c = self
            .circuits
            .remove(&circuit)
            .expect("a setup in flight has its circuit");
        for pref in c.packets {
            let p = self.base.slab.take(pref);
            self.base.stats.on_drop();
            self.base.tracer.emit(now, || TraceEvent::Drop {
                packet: p.id.0,
                site: at.index(),
                reason: "setup-lost",
            });
        }
        self.base.tracer.emit(now, || TraceEvent::CircuitTeardown {
            circuit,
            packets: 0,
        });
        self.out_active[c.src.index()] -= 1;
        self.try_start(c.src, now);
    }

    /// Destination accepts the circuit; the ack flies back to the source.
    fn grant(&mut self, circuit: u64, now: Time) {
        let c = &self.circuits[&circuit];
        self.in_active[c.dst.index()] += 1;
        let ack = self.ack_traverse(c.hops);
        self.base.events.push(now + ack, Ev::AckArrive { circuit });
    }

    fn on_ack(&mut self, circuit: u64, now: Time) {
        let c = &self.circuits[&circuit];
        let bytes: u32 = c.packets.iter().map(|&p| self.base.slab.get(p).bytes).sum();
        let ser = {
            let (memo_bytes, memo_span) = self.data_ser_memo.get();
            if memo_bytes == bytes {
                memo_span
            } else {
                let bw = self.config.channel_bytes_per_ns(LAMBDAS_PER_CIRCUIT);
                let span = Span::from_ns_f64(bytes as f64 / bw);
                self.data_ser_memo.set((bytes, span));
                span
            }
        };
        let (src, dst, hops) = (c.src, c.dst, c.hops);
        for &pref in &c.packets {
            let p = self.base.slab.get_mut(pref);
            p.tx_start = Some(now);
            p.tx_end = Some(now + ser);
        }
        let flight = self.hop_delay * hops as u64;
        self.base.tracer.emit(now, || TraceEvent::CircuitSetup {
            circuit,
            src: src.index(),
            dst: dst.index(),
        });
        self.base
            .events
            .push(now + ser + flight, Ev::DataDone { circuit });
    }

    fn on_data_done(&mut self, circuit: u64, now: Time) {
        let c = self
            .circuits
            .remove(&circuit)
            .expect("a granted circuit lives until its data is done");
        // u64: a long-lived circuit must never truncate its carried-packet
        // count — the auditor pairs this against per-packet deliveries.
        let carried = c.packets.len() as u64;
        for &pref in &c.packets {
            self.base.deliver(pref, now);
        }
        self.base.tracer.emit(now, || TraceEvent::CircuitTeardown {
            circuit,
            packets: carried,
        });
        // Gateways free immediately; switch teardown proceeds off the
        // critical path (the teardown message follows the same control
        // path but holds no gateway resources).
        self.out_active[c.src.index()] -= 1;
        self.in_active[c.dst.index()] -= 1;
        self.try_start(c.src, now);
        if let Some(waiting) = self.dst_wait.pop_front(c.dst.index()) {
            self.grant(waiting, now);
        }
    }
}

impl Network for CircuitSwitchedNetwork {
    fn kind(&self) -> NetworkKind {
        NetworkKind::CircuitSwitched
    }

    fn config(&self) -> &MacrochipConfig {
        &self.config
    }

    fn inject(&mut self, packet: Packet, now: Time) -> Result<(), Packet> {
        if packet.src == packet.dst {
            let pref = self.base.loopback(packet, now);
            self.base
                .events
                .push(now + self.config.cycle(), Ev::Deliver { packet: pref });
            return Ok(());
        }
        if self.src_wait_full(packet.src.index()) {
            return self.base.refuse(packet);
        }
        let src = packet.src;
        let pref = self.base.admit(packet, now);
        self.src_wait.push_back(src.index(), pref);
        self.try_start(src, now);
        Ok(())
    }

    /// The source's circuit-setup wait queue.
    fn admission_queue(&self, packet: &Packet) -> Option<u32> {
        if packet.src == packet.dst {
            return None; // loop-back never queues
        }
        u32::try_from(packet.src.index()).ok()
    }

    fn refuse_if_full(&mut self, queue: u32) -> bool {
        let full = self.src_wait_full(queue as usize);
        self.base.stats.reject_if(full)
    }

    fn next_event(&self) -> Option<Time> {
        self.base.events.peek_time()
    }

    fn advance(&mut self, now: Time) {
        while let Some((t, ev)) = self.base.events.pop_due(now) {
            match ev {
                Ev::CtrlTxDone { link } => self.pump_ctrl(link, t),
                Ev::SetupArrive {
                    circuit,
                    at,
                    dst,
                    hops,
                } => self.on_setup_arrive(circuit, at, dst, hops, t),
                Ev::AckArrive { circuit } => self.on_ack(circuit, t),
                Ev::DataDone { circuit } => self.on_data_done(circuit, t),
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

    fn last_event_time(&self) -> Option<Time> {
        self.base.events.last_popped()
    }

    fn supports_batched_advance(&self) -> bool {
        true
    }

    fn slab_stats(&self) -> Option<SlabStats> {
        Some(self.base.slab.stats())
    }

    fn stats(&self) -> &NetStats {
        &self.base.stats
    }

    fn events_processed(&self) -> u64 {
        self.base.events.popped()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.base.tracer = tracer;
    }

    /// Degradation policy: path re-setup around killed segments. Setup
    /// messages recompute their route at every switch point, so marking a
    /// segment dead diverts all subsequent setups; in-flight circuits
    /// complete optimistically (their switches are already configured).
    /// Laser loss halves the affected site's control-network bandwidth,
    /// slowing every setup it sources.
    fn apply_fault(&mut self, fault: NetFault, _now: Time) -> FaultResponse {
        match fault {
            NetFault::LinkKill { src, dst } => {
                self.dead_links.insert((src.index(), dst.index()));
                self.dead_links.insert((dst.index(), src.index()));
                FaultResponse::handled("re-setup")
            }
            NetFault::LinkRepair { src, dst } => {
                self.dead_links.remove(&(src.index(), dst.index()));
                self.dead_links.remove(&(dst.index(), src.index()));
                FaultResponse::handled("direct-route")
            }
            NetFault::LaserLoss { site } => {
                for dir in 0..4 {
                    self.ctrl_links.set_bytes_per_ns(
                        site.index() * 4 + dir,
                        self.config.lambda_bytes_per_ns * 0.5,
                    );
                }
                FaultResponse::handled("half-control-bandwidth")
            }
            NetFault::LaserRestore { site } => {
                for dir in 0..4 {
                    self.ctrl_links
                        .set_bytes_per_ns(site.index() * 4 + dir, self.config.lambda_bytes_per_ns);
                }
                FaultResponse::handled("full-control-bandwidth")
            }
            NetFault::SiteKill { .. } => FaultResponse::unhandled(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::trace::RingSink;
    use netcore::{MessageKind, PacketId};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn net() -> CircuitSwitchedNetwork {
        CircuitSwitchedNetwork::new(MacrochipConfig::scaled())
    }

    fn data(id: u64, src: SiteId, dst: SiteId, at: Time) -> Packet {
        Packet::new(PacketId(id), src, dst, 64, MessageKind::Data, at)
    }

    fn run_until_idle(net: &mut CircuitSwitchedNetwork) {
        while let Some(t) = net.next_event() {
            net.advance(t);
        }
    }

    #[test]
    fn setup_round_trip_dominates_small_transfers() {
        let mut n = net();
        let g = n.config.grid;
        n.inject(data(0, g.site(0, 0), g.site(4, 4), Time::ZERO), Time::ZERO)
            .unwrap();
        run_until_idle(&mut n);
        let done = n.drain_delivered();
        let lat = done[0].latency().unwrap().as_ns_f64();
        // 8 setup hops at ~15 ns/hop, an express ack, and 0.2 ns of data:
        // the control round trip is ~600x the data time.
        assert!(lat > 120.0 && lat < 160.0, "latency {lat}");
    }

    #[test]
    fn adjacent_sites_set_up_faster() {
        let mut n = net();
        let g = n.config.grid;
        n.inject(data(0, g.site(0, 0), g.site(1, 0), Time::ZERO), Time::ZERO)
            .unwrap();
        run_until_idle(&mut n);
        let lat = n.drain_delivered()[0].latency().unwrap().as_ns_f64();
        // One setup hop + express ack: a fraction of the cross-chip cost.
        assert!(lat < 35.0, "latency {lat}");
    }

    #[test]
    fn torus_wraps_for_setup_routing() {
        let n = net();
        let g = n.config.grid;
        // (0,0) -> (7,0): one hop in -x with wrap, not seven in +x.
        assert_eq!(n.next_dir(g.site(0, 0), g.site(7, 0)), DIR_XN);
        assert_eq!(n.neighbor(g.site(0, 0), DIR_XN), g.site(7, 0));
    }

    #[test]
    fn gateway_limits_concurrent_circuits() {
        let mut n = net();
        let g = n.config.grid;
        let src = g.site(0, 0);
        // More packets than the gateway's 16 sourced waveguides.
        for i in 0..24usize {
            n.inject(
                data(i as u64, src, g.site(i % 6 + 1, i / 6 + 1), Time::ZERO),
                Time::ZERO,
            )
            .unwrap();
        }
        assert_eq!(n.out_active[src.index()], MAX_CIRCUITS_PER_GATEWAY);
        run_until_idle(&mut n);
        assert_eq!(n.drain_delivered().len(), 24);
        assert_eq!(n.out_active[src.index()], 0);
    }

    #[test]
    fn destination_admission_queues_excess_setups() {
        let mut n = net();
        let g = n.config.grid;
        let dst = g.site(4, 4);
        // More sources than the destination gateway accepts at once.
        for i in 0..8usize {
            n.inject(
                data(i as u64, g.site(i % 8, 0), dst, Time::ZERO),
                Time::ZERO,
            )
            .unwrap();
        }
        run_until_idle(&mut n);
        assert_eq!(n.drain_delivered().len(), 8);
        assert_eq!(n.in_active[dst.index()], 0);
        assert!(n.dst_wait.is_empty(dst.index()));
    }

    #[test]
    fn control_link_contention_slows_setup() {
        let mut n = net();
        let g = n.config.grid;
        // Many circuits from one source share its +x control link.
        for i in 0..4usize {
            n.inject(
                data(i as u64, g.site(0, 0), g.site(3, i), Time::ZERO),
                Time::ZERO,
            )
            .unwrap();
        }
        run_until_idle(&mut n);
        let done = n.drain_delivered();
        let mut latencies: Vec<f64> = done
            .iter()
            .map(|p| p.latency().unwrap().as_ns_f64())
            .collect();
        latencies.sort_by(f64::total_cmp);
        // Later setups queued behind earlier serializations.
        assert!(latencies[3] > latencies[0] + 3.0);
    }

    #[test]
    fn batching_carries_multiple_packets_per_circuit() {
        let mut n = CircuitSwitchedNetwork::with_batching(MacrochipConfig::scaled(), 1, 4);
        let g = n.config.grid;
        let (a, b) = (g.site(0, 0), g.site(3, 3));
        // Five same-destination packets, one gateway slot: the first
        // circuit takes the head packet; the next takes a batch of four.
        for i in 0..5u64 {
            n.inject(data(i, a, b, Time::ZERO), Time::ZERO).unwrap();
        }
        run_until_idle(&mut n);
        let done = n.drain_delivered();
        assert_eq!(done.len(), 5);
        // Batched packets share a delivery instant.
        let mut times: Vec<Time> = done.iter().map(|p| p.delivered.unwrap()).collect();
        times.sort_unstable();
        times.dedup();
        assert_eq!(times.len(), 2, "expected exactly two circuits");
    }

    #[test]
    fn batching_skips_other_destinations() {
        let mut n = CircuitSwitchedNetwork::with_batching(MacrochipConfig::scaled(), 1, 8);
        let g = n.config.grid;
        let a = g.site(0, 0);
        // Packet 9 occupies the single gateway slot first, so the rest
        // queue up and batching can see them together.
        n.inject(data(9, a, g.site(5, 5), Time::ZERO), Time::ZERO)
            .unwrap();
        n.inject(data(0, a, g.site(3, 3), Time::ZERO), Time::ZERO)
            .unwrap();
        n.inject(data(1, a, g.site(4, 4), Time::ZERO), Time::ZERO)
            .unwrap();
        n.inject(data(2, a, g.site(3, 3), Time::ZERO), Time::ZERO)
            .unwrap();
        run_until_idle(&mut n);
        let done = n.drain_delivered();
        assert_eq!(done.len(), 4);
        // Packets 0 and 2 ride one circuit; packet 1 gets its own.
        let t0 = done.iter().find(|p| p.id == PacketId(0)).unwrap().delivered;
        let t1 = done.iter().find(|p| p.id == PacketId(1)).unwrap().delivered;
        let t2 = done.iter().find(|p| p.id == PacketId(2)).unwrap().delivered;
        assert_eq!(t0, t2);
        assert_ne!(t0, t1);
    }

    #[test]
    fn killed_segment_diverts_the_setup_path() {
        let mut n = net();
        let g = n.config.grid;
        let (src, dst) = (g.site(0, 0), g.site(1, 0));
        // Kill the direct segment; XY routing must detour.
        let r = n.apply_fault(NetFault::LinkKill { src, dst }, Time::ZERO);
        assert!(r.handled);
        assert_eq!(r.action, "re-setup");
        assert_ne!(n.neighbor(src, n.next_dir(src, dst)), dst);
        n.inject(data(0, src, dst, Time::ZERO), Time::ZERO).unwrap();
        run_until_idle(&mut n);
        let done = n.drain_delivered();
        assert_eq!(done.len(), 1);
        // The detoured setup is slower than the healthy single hop.
        assert!(done[0].latency().unwrap().as_ns_f64() > 35.0);
        assert_eq!(n.stats().dropped_packets(), 0);
    }

    #[test]
    fn unroutable_destination_abandons_the_circuit() {
        let mut n = net();
        let g = n.config.grid;
        let dst = g.site(4, 4);
        // Cut every segment touching the destination.
        for dir in 0..4 {
            let peer = n.neighbor(dst, dir);
            n.apply_fault(
                NetFault::LinkKill {
                    src: dst,
                    dst: peer,
                },
                Time::ZERO,
            );
        }
        let sink = Rc::new(RefCell::new(RingSink::new(1024)));
        n.set_tracer(Tracer::shared(&sink));
        n.inject(data(0, g.site(0, 0), dst, Time::ZERO), Time::ZERO)
            .unwrap();
        run_until_idle(&mut n);
        assert!(n.drain_delivered().is_empty());
        assert_eq!(n.stats().dropped_packets(), 1);
        // The setup is abandoned on its first arrival past 6 x side = 48
        // control hops, at the instant the model recorded when the hop
        // count still lived in the circuit table.
        let drops: Vec<(Time, usize)> = sink
            .borrow()
            .snapshot()
            .into_iter()
            .filter_map(|(t, ev)| match ev {
                TraceEvent::Drop {
                    site,
                    reason: "setup-lost",
                    ..
                } => Some((t, site)),
                _ => None,
            })
            .collect();
        assert_eq!(drops, [(Time::from_ps(737_450), 28)]);
        // The gateway slot came back, so later circuits still start.
        assert_eq!(n.out_active[g.site(0, 0).index()], 0);
    }

    #[test]
    fn repaired_segment_restores_direct_setup() {
        let mut n = net();
        let g = n.config.grid;
        let (src, dst) = (g.site(0, 0), g.site(1, 0));
        n.apply_fault(NetFault::LinkKill { src, dst }, Time::ZERO);
        n.apply_fault(NetFault::LinkRepair { src, dst }, Time::ZERO);
        assert_eq!(n.neighbor(src, n.next_dir(src, dst)), dst);
    }

    #[test]
    fn loopback_takes_one_cycle() {
        let mut n = net();
        let s = n.config.grid.site(5, 5);
        n.inject(data(0, s, s, Time::ZERO), Time::ZERO).unwrap();
        run_until_idle(&mut n);
        assert_eq!(
            n.drain_delivered()[0].latency().unwrap(),
            Span::from_ps(200)
        );
    }

    #[test]
    fn deep_injection_queue_eventually_backpressures() {
        let mut n = net();
        let g = n.config.grid;
        let (a, b) = (g.site(0, 0), g.site(1, 1));
        let cap = n.config.queue_capacity * 4;
        let mut accepted = 0;
        for i in 0..(cap as u64 + MAX_CIRCUITS_PER_GATEWAY as u64 + 4) {
            if n.inject(data(i, a, b, Time::ZERO), Time::ZERO).is_ok() {
                accepted += 1;
            }
        }
        assert!(n.stats().rejected_packets() > 0);
        run_until_idle(&mut n);
        assert_eq!(n.drain_delivered().len(), accepted);
    }
}
