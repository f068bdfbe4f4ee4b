//! The statically WDM-routed point-to-point network (paper §4.2).
//!
//! Every site has a dedicated optical data path to every other site: two
//! wavelengths (5 GB/s) chosen by static WDM routing — the transmitter
//! picks the waveguide leading to the destination's column and the
//! wavelength dropped at the destination's row. There is no arbitration,
//! switching, or path setup of any kind; a packet's latency is queueing at
//! its dedicated channel, serialization at 5 GB/s, and time of flight.
//!
//! Intra-site transfers use a single-cycle loop-back, as in the paper's
//! evaluation (§6.2).
//!
//! The S² channels are one [`netcore::ChannelBank`]: one record per
//! channel and one pooled queue for all of them, so building the network
//! makes the same few allocations at any grid size.

use crate::base::NetBase;
use desim::{Time, Tracer};
use netcore::{
    ChannelBank, FaultResponse, MacrochipConfig, NetFault, NetStats, Network, NetworkKind, Packet,
    PacketRef, SlabStats,
};

/// Wavelengths per point-to-point channel (2 × 2.5 GB/s = 5 GB/s).
pub const LAMBDAS_PER_CHANNEL: usize = 2;

#[derive(Debug)]
enum Ev {
    /// A channel finished serializing; try to start its next packet.
    TxDone { channel: usize },
    /// A packet's last bit reached the destination.
    Deliver { packet: PacketRef },
}

/// The point-to-point network: S×(S−1) dedicated serializing channels,
/// held in one [`ChannelBank`] indexed `src * S + dst`.
///
/// # Example
///
/// ```
/// use desim::Time;
/// use netcore::{MacrochipConfig, MessageKind, Network, Packet, PacketId};
/// use networks::P2pNetwork;
///
/// let config = MacrochipConfig::scaled();
/// let mut net = P2pNetwork::new(config);
/// let (a, b) = (config.grid.site(0, 0), config.grid.site(1, 0));
/// net.inject(Packet::new(PacketId(0), a, b, 64, MessageKind::Data, Time::ZERO),
///            Time::ZERO).unwrap();
/// net.advance(Time::from_ns(20));
/// assert_eq!(net.drain_delivered().len(), 1);
/// ```
pub struct P2pNetwork {
    config: MacrochipConfig,
    channels: ChannelBank<PacketRef>,
    prop: crate::geom::PropByHops,
    base: NetBase<Ev>,
}

impl P2pNetwork {
    /// Builds the network for `config`.
    pub fn new(config: MacrochipConfig) -> P2pNetwork {
        config.validate();
        let sites = config.grid.sites();
        let bw = config.channel_bytes_per_ns(LAMBDAS_PER_CHANNEL);
        P2pNetwork {
            config,
            channels: ChannelBank::new(sites * sites, bw, config.queue_capacity),
            prop: crate::geom::PropByHops::new(&config.layout),
            base: NetBase::new(),
        }
    }

    fn channel_index(&self, p: &Packet) -> usize {
        p.src.index() * self.config.grid.sites() + p.dst.index()
    }

    /// Starts the channel's next transmission if it is idle.
    fn pump(&mut self, channel: usize, now: Time) {
        if let Some((pref, finish)) = self.channels.begin_if_ready(channel, now) {
            // No arbitration on a dedicated channel: the arbitration phase
            // is zero-width, so all pre-wire delay counts as queueing.
            let packet = self.base.slab.get_mut(pref);
            packet.arb_start = Some(now);
            packet.tx_start = Some(now);
            packet.tx_end = Some(finish);
            let prop = self.prop.delay(
                self.config.grid.coord(packet.src),
                self.config.grid.coord(packet.dst),
            );
            self.base.events.push(finish, Ev::TxDone { channel });
            self.base
                .events
                .push(finish + prop, Ev::Deliver { packet: pref });
        }
    }
}

impl Network for P2pNetwork {
    fn kind(&self) -> NetworkKind {
        NetworkKind::PointToPoint
    }

    fn config(&self) -> &MacrochipConfig {
        &self.config
    }

    fn inject(&mut self, packet: Packet, now: Time) -> Result<(), Packet> {
        if packet.src == packet.dst {
            // Single-cycle intra-site loop-back.
            let pref = self.base.loopback(packet, now);
            self.base
                .events
                .push(now + self.config.cycle(), Ev::Deliver { packet: pref });
            return Ok(());
        }
        let channel = self.channel_index(&packet);
        if self.channels.is_full(channel) {
            return self.base.refuse(packet);
        }
        let bytes = packet.bytes;
        let pref = self.base.admit(packet, now);
        self.channels
            .try_enqueue(channel, pref, bytes)
            .expect("checked not full");
        self.pump(channel, now);
        Ok(())
    }

    /// The packet's dedicated `src -> dst` channel queue.
    fn admission_queue(&self, packet: &Packet) -> Option<u32> {
        if packet.src == packet.dst {
            return None; // loop-back never queues
        }
        u32::try_from(self.channel_index(packet)).ok()
    }

    fn refuse_if_full(&mut self, queue: u32) -> bool {
        let full = self.channels.is_full(queue as usize);
        self.base.stats.reject_if(full)
    }

    fn next_event(&self) -> Option<Time> {
        self.base.events.peek_time()
    }

    fn advance(&mut self, now: Time) {
        while let Some((t, ev)) = self.base.events.pop_due(now) {
            match ev {
                Ev::TxDone { channel } => self.pump(channel, t),
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

    /// Degradation policy: every site pair has a dedicated two-wavelength
    /// channel, so a killed waveguide falls back to the spare wavelength
    /// (half bandwidth) instead of dying, and a laser loss halves every
    /// outgoing channel of the affected site.
    fn apply_fault(&mut self, fault: NetFault, _now: Time) -> FaultResponse {
        let sites = self.config.grid.sites();
        let full = self.config.channel_bytes_per_ns(LAMBDAS_PER_CHANNEL);
        let spare = self.config.channel_bytes_per_ns(1);
        match fault {
            NetFault::LinkKill { src, dst } => {
                self.channels
                    .set_bytes_per_ns(src.index() * sites + dst.index(), spare);
                FaultResponse::handled("spare-wavelength")
            }
            NetFault::LinkRepair { src, dst } => {
                self.channels
                    .set_bytes_per_ns(src.index() * sites + dst.index(), full);
                FaultResponse::handled("full-bandwidth")
            }
            NetFault::LaserLoss { site } => {
                for dst in 0..sites {
                    self.channels
                        .set_bytes_per_ns(site.index() * sites + dst, spare);
                }
                FaultResponse::handled("spare-wavelength")
            }
            NetFault::LaserRestore { site } => {
                for dst in 0..sites {
                    self.channels
                        .set_bytes_per_ns(site.index() * sites + dst, full);
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
    use netcore::{MessageKind, PacketId, SiteId};

    fn net() -> P2pNetwork {
        P2pNetwork::new(MacrochipConfig::scaled())
    }

    fn data(id: u64, src: SiteId, dst: SiteId, at: Time) -> Packet {
        Packet::new(PacketId(id), src, dst, 64, MessageKind::Data, at)
    }

    fn run_until_idle(net: &mut P2pNetwork) {
        while let Some(t) = net.next_event() {
            net.advance(t);
        }
    }

    #[test]
    fn single_packet_latency_is_serialization_plus_flight() {
        let mut n = net();
        let g = n.config.grid;
        n.inject(data(0, g.site(0, 0), g.site(7, 7), Time::ZERO), Time::ZERO)
            .unwrap();
        run_until_idle(&mut n);
        let done = n.drain_delivered();
        assert_eq!(done.len(), 1);
        // 64 B at 5 B/ns = 12.8 ns; 14 hops at 0.25 ns = 3.5 ns.
        assert_eq!(done[0].latency().unwrap(), Span::from_ns_f64(16.3));
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
    fn back_to_back_packets_serialize() {
        let mut n = net();
        let g = n.config.grid;
        let (a, b) = (g.site(0, 0), g.site(1, 0));
        n.inject(data(0, a, b, Time::ZERO), Time::ZERO).unwrap();
        n.inject(data(1, a, b, Time::ZERO), Time::ZERO).unwrap();
        run_until_idle(&mut n);
        let done = n.drain_delivered();
        assert_eq!(done.len(), 2);
        let l0 = done[0].latency().unwrap();
        let l1 = done[1].latency().unwrap();
        // The second waits a full serialization time behind the first.
        assert_eq!(l1 - l0, Span::from_ns_f64(12.8));
    }

    #[test]
    fn distinct_destinations_do_not_interfere() {
        let mut n = net();
        let g = n.config.grid;
        let a = g.site(0, 0);
        n.inject(data(0, a, g.site(1, 0), Time::ZERO), Time::ZERO)
            .unwrap();
        n.inject(data(1, a, g.site(2, 0), Time::ZERO), Time::ZERO)
            .unwrap();
        run_until_idle(&mut n);
        let done = n.drain_delivered();
        // Both serialize in parallel on their dedicated channels.
        let l0 = done[0].latency().unwrap().as_ns_f64();
        let l1 = done[1].latency().unwrap().as_ns_f64();
        assert!((l0 - 13.05).abs() < 0.01, "l0 = {l0}");
        assert!((l1 - 13.3).abs() < 0.01, "l1 = {l1}");
    }

    #[test]
    fn backpressure_after_queue_fills() {
        let mut n = net();
        let g = n.config.grid;
        let (a, b) = (g.site(0, 0), g.site(1, 0));
        let cap = n.config.queue_capacity;
        // One packet enters service immediately; `cap` more fill the queue.
        for i in 0..=cap as u64 {
            n.inject(data(i, a, b, Time::ZERO), Time::ZERO).unwrap();
        }
        let err = n.inject(data(99, a, b, Time::ZERO), Time::ZERO);
        assert!(err.is_err());
        assert_eq!(n.stats().rejected_packets(), 1);
    }

    #[test]
    fn stats_count_deliveries() {
        let mut n = net();
        let g = n.config.grid;
        for i in 0..4usize {
            n.inject(
                data(i as u64, g.site(0, 0), g.site(i + 1, 0), Time::ZERO),
                Time::ZERO,
            )
            .unwrap();
        }
        run_until_idle(&mut n);
        assert_eq!(n.stats().delivered_packets(), 4);
        assert_eq!(n.stats().delivered_bytes(), 256);
        assert_eq!(n.drain_delivered().len(), 4);
    }

    #[test]
    fn killed_link_reroutes_to_spare_wavelength() {
        let mut n = net();
        let g = n.config.grid;
        let (a, b) = (g.site(0, 0), g.site(1, 0));
        let r = n.apply_fault(NetFault::LinkKill { src: a, dst: b }, Time::ZERO);
        assert!(r.handled);
        assert_eq!(r.action, "spare-wavelength");
        n.inject(data(0, a, b, Time::ZERO), Time::ZERO).unwrap();
        run_until_idle(&mut n);
        let done = n.drain_delivered();
        // 64 B at 2.5 B/ns = 25.6 ns serialization (twice the healthy
        // 12.8 ns), plus one hop at 0.25 ns.
        assert_eq!(done[0].latency().unwrap(), Span::from_ns_f64(25.85));
        // Repair restores the full two-wavelength rate.
        n.apply_fault(NetFault::LinkRepair { src: a, dst: b }, Time::ZERO);
        let t = Time::from_us(1);
        n.inject(data(1, a, b, t), t).unwrap();
        run_until_idle(&mut n);
        let done = n.drain_delivered();
        assert_eq!(done[0].latency().unwrap(), Span::from_ns_f64(13.05));
    }

    #[test]
    fn laser_loss_halves_every_outgoing_channel() {
        let mut n = net();
        let g = n.config.grid;
        let a = g.site(0, 0);
        n.apply_fault(NetFault::LaserLoss { site: a }, Time::ZERO);
        n.inject(data(0, a, g.site(7, 7), Time::ZERO), Time::ZERO)
            .unwrap();
        run_until_idle(&mut n);
        let done = n.drain_delivered();
        // 64 B at 2.5 B/ns = 25.6 ns; 14 hops at 0.25 ns = 3.5 ns.
        assert_eq!(done[0].latency().unwrap(), Span::from_ns_f64(29.1));
    }

    #[test]
    fn channel_sustains_full_rate() {
        // Saturate one channel and check near-100% utilization: the p2p
        // network has no overheads (§6.1).
        let mut n = net();
        let g = n.config.grid;
        let (a, b) = (g.site(0, 0), g.site(7, 0));
        let mut t = Time::ZERO;
        let mut sent = 0u64;
        while t < Time::from_us(2) {
            if n.inject(data(sent, a, b, t), t).is_ok() {
                sent += 1;
            }
            n.advance(t);
            t += Span::from_ns_f64(12.8); // one serialization time
        }
        run_until_idle(&mut n);
        let delivered = n.stats().delivered_packets();
        // 2 us / 12.8 ns per packet ≈ 156 packets.
        assert!(delivered >= 150, "delivered {delivered}");
        let rate = n.stats().delivered_bytes_per_ns();
        assert!(rate > 4.9, "sustained {rate} B/ns of 5");
    }
}
