//! Network-level statistics collection.

use crate::{MessageKind, Packet};
use desim::stats::{Counter, LatencyHistogram, Mean};
use desim::{Span, Time};

/// One phase of the end-to-end latency breakdown (paper Fig. 6 decomposed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Queued at the source before contending for the medium.
    Queueing,
    /// Waiting on arbitration / token / circuit setup.
    ArbWait,
    /// Putting bits on the wire.
    Serialization,
    /// Time of flight to the destination.
    Propagation,
}

impl Phase {
    /// All phases, in temporal order.
    pub const ALL: [Phase; 4] = [
        Phase::Queueing,
        Phase::ArbWait,
        Phase::Serialization,
        Phase::Propagation,
    ];

    /// Stable name used in metrics snapshots and reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Queueing => "queueing",
            Phase::ArbWait => "arb_wait",
            Phase::Serialization => "serialization",
            Phase::Propagation => "propagation",
        }
    }
}

/// Aggregate statistics of one network simulation.
///
/// Every architecture records the same measures so experiments can compare
/// them directly: accepted/delivered packet and byte counts, end-to-end
/// latency, electronic-router traffic (limited point-to-point) and wasted
/// arbitration slots (two-phase).
///
/// # Example
///
/// ```
/// use netcore::NetStats;
/// let s = NetStats::new();
/// assert_eq!(s.delivered_packets(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct NetStats {
    injected: Counter,
    rejected: Counter,
    dropped: Counter,
    delivered: Counter,
    delivered_bytes: Counter,
    routed_bytes: Counter,
    wasted_slots: Counter,
    latency: LatencyHistogram,
    data_latency: LatencyHistogram,
    control_latency: LatencyHistogram,
    /// Per-phase latency histograms, indexed like [`Phase::ALL`]; filled
    /// only for packets whose network stamped the phase boundaries.
    phase_latency: [LatencyHistogram; 4],
    per_source: Vec<Mean>,
    first_injection: Option<Time>,
    first_delivery: Option<Time>,
    last_delivery: Option<Time>,
}

impl NetStats {
    /// Creates an empty collector.
    pub fn new() -> NetStats {
        NetStats {
            injected: Counter::new(),
            rejected: Counter::new(),
            dropped: Counter::new(),
            delivered: Counter::new(),
            delivered_bytes: Counter::new(),
            routed_bytes: Counter::new(),
            wasted_slots: Counter::new(),
            latency: LatencyHistogram::new(),
            data_latency: LatencyHistogram::new(),
            control_latency: LatencyHistogram::new(),
            phase_latency: [
                LatencyHistogram::new(),
                LatencyHistogram::new(),
                LatencyHistogram::new(),
                LatencyHistogram::new(),
            ],
            per_source: Vec::new(),
            first_injection: None,
            first_delivery: None,
            last_delivery: None,
        }
    }

    /// Records a successful injection at simulation time `now`.
    pub fn on_inject(&mut self, now: Time) {
        self.injected.incr();
        if self.first_injection.is_none_or(|t| now < t) {
            self.first_injection = Some(now);
        }
    }

    /// Records a refused injection (backpressure).
    pub fn on_reject(&mut self) {
        self.rejected.incr();
    }

    /// Records a refused injection when `refused`, and returns it: the
    /// tail of every [`Network::refuse_if_full`](crate::Network::refuse_if_full).
    pub fn reject_if(&mut self, refused: bool) -> bool {
        if refused {
            self.on_reject();
        }
        refused
    }

    /// Records a packet permanently dropped by a fault (dead destination,
    /// retry budget exhausted).
    pub fn on_drop(&mut self) {
        self.dropped.incr();
    }

    /// Records a delivery; the packet must carry its `delivered` stamp.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the packet has no delivery timestamp.
    pub fn on_deliver(&mut self, packet: &Packet) {
        debug_assert!(packet.is_delivered(), "recording undelivered packet");
        let at = packet.delivered.unwrap_or(packet.created);
        let lat = at.saturating_since(packet.created);
        self.delivered.incr();
        self.delivered_bytes.add(packet.bytes as u64);
        self.routed_bytes.add(packet.routed_bytes as u64);
        self.latency.record(lat);
        if packet.kind == MessageKind::Data {
            self.data_latency.record(lat);
        } else {
            self.control_latency.record(lat);
        }
        let phases = [
            packet.queueing_time(),
            packet.arb_wait_time(),
            packet.serialization_time(),
            packet.propagation_time(),
        ];
        for (hist, span) in self.phase_latency.iter_mut().zip(phases) {
            if let Some(span) = span {
                hist.record(span);
            }
        }
        let src = packet.src.index();
        if self.per_source.len() <= src {
            self.per_source.resize_with(src + 1, Mean::new);
        }
        self.per_source[src].record(lat.as_ns_f64());
        if self.first_delivery.is_none() {
            self.first_delivery = Some(at);
        }
        self.last_delivery = Some(self.last_delivery.map_or(at, |t| t.max(at)));
    }

    /// Records one wasted arbitration data slot (two-phase network).
    pub fn on_wasted_slot(&mut self) {
        self.wasted_slots.incr();
    }

    /// Packets accepted for injection.
    pub fn injected_packets(&self) -> u64 {
        self.injected.value()
    }

    /// Injection attempts refused by backpressure.
    pub fn rejected_packets(&self) -> u64 {
        self.rejected.value()
    }

    /// Packets permanently lost to faults.
    pub fn dropped_packets(&self) -> u64 {
        self.dropped.value()
    }

    /// Packets delivered end to end.
    pub fn delivered_packets(&self) -> u64 {
        self.delivered.value()
    }

    /// Total bytes delivered.
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered_bytes.value()
    }

    /// Bytes that crossed an electronic router.
    pub fn routed_bytes(&self) -> u64 {
        self.routed_bytes.value()
    }

    /// Wasted arbitration slots (two-phase only; zero elsewhere).
    pub fn wasted_slots(&self) -> u64 {
        self.wasted_slots.value()
    }

    /// Mean end-to-end packet latency.
    pub fn mean_latency(&self) -> Span {
        self.latency.mean()
    }

    /// End-to-end latency histogram over all packets.
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// Latency histogram over data packets only.
    pub fn data_latency(&self) -> &LatencyHistogram {
        &self.data_latency
    }

    /// Latency histogram over control-sized packets only.
    pub fn control_latency(&self) -> &LatencyHistogram {
        &self.control_latency
    }

    /// Latency histogram of one phase of the end-to-end breakdown.
    ///
    /// Phases are recorded per delivered packet when the network stamped
    /// the corresponding boundaries, so a phase's count can be lower than
    /// `delivered_packets()` on partially instrumented paths.
    pub fn phase_latency(&self, phase: Phase) -> &LatencyHistogram {
        let idx = Phase::ALL.iter().position(|&p| p == phase).unwrap();
        &self.phase_latency[idx]
    }

    /// Mean duration of each phase in ns, in [`Phase::ALL`] order; a
    /// compact per-phase breakdown for reports.
    pub fn phase_breakdown_ns(&self) -> [f64; 4] {
        [
            self.phase_latency[0].mean().as_ns_f64(),
            self.phase_latency[1].mean().as_ns_f64(),
            self.phase_latency[2].mean().as_ns_f64(),
            self.phase_latency[3].mean().as_ns_f64(),
        ]
    }

    /// Mean latency observed by each source site (index = site index).
    /// Sites that delivered nothing report zero.
    pub fn per_source_mean_latency_ns(&self) -> Vec<f64> {
        self.per_source.iter().map(Mean::mean).collect()
    }

    /// Number of sources that delivered at least one packet — the `n` of
    /// [`NetStats::jain_fairness`].
    ///
    /// A fault plan that kills a site silently shrinks the fairness
    /// population: the dead source stops delivering, drops out of the
    /// index, and `jain_fairness` can *rise* even though service got
    /// strictly worse. Reports should always publish this count next to
    /// the index so a shrinking population is visible.
    pub fn participating_sources(&self) -> usize {
        self.per_source.iter().filter(|m| m.count() > 0).count()
    }

    /// Jain's fairness index over the per-source mean latencies:
    /// `(Σx)² / (n·Σx²)`, 1.0 = perfectly fair, 1/n = maximally unfair.
    ///
    /// Sources with no deliveries are **excluded** — `n` is
    /// [`NetStats::participating_sources`], not the grid size — and the
    /// index returns 1.0 with fewer than two participating sources. Under
    /// a site-kill fault plan this means dead sources do not drag the
    /// index down; interpret the index together with
    /// `participating_sources()` to catch that case.
    pub fn jain_fairness(&self) -> f64 {
        let xs: Vec<f64> = self
            .per_source
            .iter()
            .filter(|m| m.count() > 0)
            .map(Mean::mean)
            .collect();
        if xs.len() < 2 {
            return 1.0;
        }
        let sum: f64 = xs.iter().sum();
        let sq: f64 = xs.iter().map(|x| x * x).sum();
        sum * sum / (xs.len() as f64 * sq)
    }

    /// Delivered throughput in bytes/ns.
    ///
    /// Window semantics: the rate is measured over the delivery window
    /// `first_delivery → last_delivery` when it is non-empty (two or more
    /// distinct delivery instants), which excludes the initial pipe-fill
    /// latency from steady-state throughput. A run with a single delivery
    /// instant — short fault-degraded runs often end that way — has an
    /// empty delivery window, so the rate falls back to the
    /// `first_injection → last_delivery` window instead of reporting a
    /// misleading 0.0. Returns zero only when nothing was delivered or no
    /// window has positive width.
    pub fn delivered_bytes_per_ns(&self) -> f64 {
        let window = match (self.first_delivery, self.last_delivery) {
            (Some(a), Some(b)) if b > a => Some(b.saturating_since(a)),
            (_, Some(b)) => self
                .first_injection
                .filter(|&f| b > f)
                .map(|f| b.saturating_since(f)),
            _ => None,
        };
        match window {
            Some(w) => self.delivered_bytes.value() as f64 / w.as_ns_f64(),
            None => 0.0,
        }
    }

    /// Delivered throughput in GB/s (1 byte/ns = 1 GB/s in the decimal
    /// units the paper uses); see [`NetStats::delivered_bytes_per_ns`]
    /// for the window semantics.
    pub fn throughput_gbps(&self) -> f64 {
        self.delivered_bytes_per_ns()
    }

    /// Instant of the first recorded injection, if any.
    pub fn first_injection(&self) -> Option<Time> {
        self.first_injection
    }

    /// Instant of the first delivery, if any.
    pub fn first_delivery(&self) -> Option<Time> {
        self.first_delivery
    }

    /// Instant of the most recent delivery, if any.
    pub fn last_delivery(&self) -> Option<Time> {
        self.last_delivery
    }
}

impl Default for NetStats {
    fn default() -> Self {
        NetStats::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PacketId, SiteId};

    fn delivered_packet(created_ns: u64, delivered_ns: u64, kind: MessageKind) -> Packet {
        let mut p = Packet::new(
            PacketId(created_ns),
            SiteId::from_index(0),
            SiteId::from_index(1),
            64,
            kind,
            Time::from_ns(created_ns),
        );
        p.delivered = Some(Time::from_ns(delivered_ns));
        p
    }

    #[test]
    fn records_latency_by_kind() {
        let mut s = NetStats::new();
        s.on_deliver(&delivered_packet(0, 10, MessageKind::Data));
        s.on_deliver(&delivered_packet(0, 30, MessageKind::Ack));
        assert_eq!(s.delivered_packets(), 2);
        assert_eq!(s.mean_latency(), Span::from_ns(20));
        assert_eq!(s.data_latency().count(), 1);
        assert_eq!(s.control_latency().count(), 1);
    }

    #[test]
    fn throughput_over_delivery_window() {
        let mut s = NetStats::new();
        s.on_deliver(&delivered_packet(0, 0, MessageKind::Data));
        s.on_deliver(&delivered_packet(0, 64, MessageKind::Data));
        // 128 bytes over 64 ns.
        assert!((s.delivered_bytes_per_ns() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn single_delivery_falls_back_to_the_injection_window() {
        // One delivery instant leaves the delivery window empty; the rate
        // must fall back to first_injection → last_delivery instead of
        // reporting zero (short fault-degraded runs end this way).
        let mut s = NetStats::new();
        s.on_inject(Time::from_ns(1));
        s.on_deliver(&delivered_packet(0, 5, MessageKind::Data));
        // 64 bytes over the 1 ns → 5 ns window.
        assert!((s.delivered_bytes_per_ns() - 16.0).abs() < 1e-12);
        assert_eq!(s.first_injection(), Some(Time::from_ns(1)));
    }

    #[test]
    fn zero_throughput_without_any_window() {
        // No delivery at all, or a delivery with no recorded injection and
        // an empty delivery window: no rate is computable.
        let mut s = NetStats::new();
        assert_eq!(s.delivered_bytes_per_ns(), 0.0);
        s.on_deliver(&delivered_packet(0, 0, MessageKind::Data));
        assert_eq!(s.delivered_bytes_per_ns(), 0.0);
    }

    #[test]
    fn first_injection_keeps_the_earliest_instant() {
        let mut s = NetStats::new();
        s.on_inject(Time::from_ns(7));
        s.on_inject(Time::from_ns(3));
        s.on_inject(Time::from_ns(9));
        assert_eq!(s.first_injection(), Some(Time::from_ns(3)));
    }

    #[test]
    fn counts_rejections_and_waste() {
        let mut s = NetStats::new();
        s.on_inject(Time::ZERO);
        s.on_reject();
        s.on_wasted_slot();
        s.on_drop();
        assert_eq!(s.injected_packets(), 1);
        assert_eq!(s.rejected_packets(), 1);
        assert_eq!(s.wasted_slots(), 1);
        assert_eq!(s.dropped_packets(), 1);
    }

    #[test]
    fn fairness_index_detects_skew() {
        let mut fair = NetStats::new();
        let mut unfair = NetStats::new();
        for site in 0..4u32 {
            let mut p = Packet::new(
                PacketId(u64::from(site)),
                SiteId::from_index(site as usize),
                SiteId::from_index(5),
                64,
                MessageKind::Data,
                Time::ZERO,
            );
            p.delivered = Some(Time::from_ns(10));
            fair.on_deliver(&p);
            // Skewed: site i waits 10 * 4^i ns.
            p.delivered = Some(Time::from_ns(10 * 4u64.pow(site)));
            unfair.on_deliver(&p);
        }
        assert!((fair.jain_fairness() - 1.0).abs() < 1e-12);
        assert!(unfair.jain_fairness() < 0.5, "{}", unfair.jain_fairness());
        assert_eq!(fair.participating_sources(), 4);
        assert_eq!(unfair.participating_sources(), 4);
    }

    #[test]
    fn dead_sources_drop_out_of_the_fairness_population() {
        // Sites 0 and 2 deliver identically; sites 1 and 3 deliver
        // nothing (e.g. killed by a fault plan). The index stays perfect —
        // which is exactly why participating_sources must be reported
        // alongside it.
        let mut s = NetStats::new();
        for site in [0usize, 2] {
            let mut p = Packet::new(
                PacketId(site as u64),
                SiteId::from_index(site),
                SiteId::from_index(5),
                64,
                MessageKind::Data,
                Time::ZERO,
            );
            p.delivered = Some(Time::from_ns(10));
            s.on_deliver(&p);
        }
        assert_eq!(s.participating_sources(), 2);
        assert!((s.jain_fairness() - 1.0).abs() < 1e-12);
        assert_eq!(NetStats::new().participating_sources(), 0);
    }

    #[test]
    fn per_source_latencies_are_indexed_by_site() {
        let mut s = NetStats::new();
        let mut p = Packet::new(
            PacketId(0),
            SiteId::from_index(3),
            SiteId::from_index(5),
            64,
            MessageKind::Data,
            Time::ZERO,
        );
        p.delivered = Some(Time::from_ns(20));
        s.on_deliver(&p);
        let per = s.per_source_mean_latency_ns();
        assert_eq!(per.len(), 4);
        assert_eq!(per[3], 20.0);
        assert_eq!(per[0], 0.0);
    }

    #[test]
    fn empty_stats_are_perfectly_fair() {
        assert_eq!(NetStats::new().jain_fairness(), 1.0);
    }

    #[test]
    fn router_bytes_accumulate() {
        let mut s = NetStats::new();
        let mut p = delivered_packet(0, 9, MessageKind::Data);
        p.routed_bytes = 64;
        s.on_deliver(&p);
        assert_eq!(s.routed_bytes(), 64);
    }

    #[test]
    fn phase_histograms_fill_from_stamped_packets() {
        let mut s = NetStats::new();
        let mut p = delivered_packet(0, 30, MessageKind::Data);
        p.arb_start = Some(Time::from_ns(2));
        p.tx_start = Some(Time::from_ns(10));
        p.tx_end = Some(Time::from_ns(23));
        s.on_deliver(&p);
        // An unstamped packet contributes to e2e latency but no phases.
        s.on_deliver(&delivered_packet(0, 10, MessageKind::Data));
        assert_eq!(s.phase_latency(Phase::Queueing).count(), 1);
        assert_eq!(s.phase_latency(Phase::ArbWait).count(), 1);
        assert_eq!(s.phase_latency(Phase::Serialization).count(), 1);
        assert_eq!(s.phase_latency(Phase::Propagation).count(), 1);
        assert_eq!(s.phase_latency(Phase::Queueing).mean(), Span::from_ns(2));
        assert_eq!(s.phase_latency(Phase::ArbWait).mean(), Span::from_ns(8));
        assert_eq!(
            s.phase_latency(Phase::Serialization).mean(),
            Span::from_ns(13)
        );
        assert_eq!(s.phase_latency(Phase::Propagation).mean(), Span::from_ns(7));
        let breakdown = s.phase_breakdown_ns();
        assert_eq!(breakdown, [2.0, 8.0, 13.0, 7.0]);
    }

    #[test]
    fn throughput_gbps_matches_bytes_per_ns() {
        let mut s = NetStats::new();
        s.on_deliver(&delivered_packet(0, 0, MessageKind::Data));
        s.on_deliver(&delivered_packet(0, 64, MessageKind::Data));
        assert_eq!(s.throughput_gbps(), s.delivered_bytes_per_ns());
        assert!((s.throughput_gbps() - 2.0).abs() < 1e-12);
        assert_eq!(s.first_delivery(), Some(Time::ZERO));
        assert_eq!(s.last_delivery(), Some(Time::from_ns(64)));
    }
}
