//! The token-ring-arbitrated optical crossbar — Corona adapted to the
//! macrochip (paper §4.4).
//!
//! Every destination site owns a wide (128-wavelength, 320 GB/s) data
//! bundle shared by all senders, plus a token that circulates a serpentine
//! ring visiting all 64 sites. A sender diverts the token when it passes,
//! transmits, and re-injects the token. Because the macrochip's dimensions
//! are 10× Corona's single die, the token round trip is 80 core cycles
//! (16 ns) — the latency that dominates this architecture's behaviour at
//! macrochip scale (§6.1).
//!
//! The token is simulated lazily: when nobody wants it, only its (position,
//! time) reference point is kept; event cost is proportional to traffic,
//! not to token spins.
//!
//! The S² sender queues thread through one [`netcore::QueueArena`], and
//! the per-destination bundles share one serialization memo (they have
//! one bandwidth and no queue of their own).

use crate::base::NetBase;
use desim::{Span, Time, TraceEvent, Tracer};
use netcore::{
    FaultResponse, MacrochipConfig, NetFault, NetStats, Network, NetworkKind, Packet, PacketRef,
    QueueArena, SlabStats,
};
use std::cell::Cell;

/// Wavelengths per destination bundle (128 × 2.5 GB/s = 320 GB/s).
pub const LAMBDAS_PER_BUNDLE: usize = 128;

/// Cost of releasing the token after a transmission: the holder re-injects
/// a light pulse into the token bus (§4.4), modeled as half a core cycle.
pub const TOKEN_RELEASE: desim::Span = desim::Span::from_ps(100);

#[derive(Debug)]
enum Ev {
    /// The token for destination `dst` arrives at ring position `pos`.
    TokenArrive { dst: usize, pos: usize },
    /// A packet's last bit reached the destination.
    Deliver { packet: PacketRef },
}

#[derive(Debug, Clone, Copy)]
enum Token {
    /// Unclaimed: it departed ring position `pos` at time `at` and keeps
    /// circulating.
    Free { pos: usize, at: Time },
    /// A `TokenArrive` event is in flight to a requester.
    Claimed,
}

/// The Corona-style token-ring crossbar on the macrochip.
///
/// # Example
///
/// ```
/// use desim::Time;
/// use netcore::{MacrochipConfig, MessageKind, Network, Packet, PacketId};
/// use networks::TokenRingNetwork;
///
/// let config = MacrochipConfig::scaled();
/// let mut net = TokenRingNetwork::new(config);
/// let p = Packet::new(PacketId(0), config.grid.site(0, 0), config.grid.site(4, 4),
///                     64, MessageKind::Data, Time::ZERO);
/// net.inject(p, Time::ZERO).unwrap();
/// while let Some(t) = net.next_event() { net.advance(t); }
/// assert_eq!(net.drain_delivered().len(), 1);
/// ```
pub struct TokenRingNetwork {
    config: MacrochipConfig,
    /// Bandwidth of every destination's shared bundle. Bundles only
    /// serialize: queueing is in `queues`, and token arbitration decides
    /// who transmits.
    bundle_bw: f64,
    /// Memo of the last bundle serialization computed (same value the
    /// division would produce, cached for the common fixed packet size).
    ser_memo: Cell<(u32, Span)>,
    /// Per (source, destination) sender queue, S×S dense, indexed
    /// `src * S + dst`.
    queues: QueueArena<PacketRef>,
    /// Per-destination occupancy bitmap over *ring positions*: bit `p` of
    /// `waiting[dst * words_per_dst ..]` is set iff the site at ring
    /// position `p` has packets queued for `dst`. Keeps the token
    /// hand-off search O(words) instead of a walk around the ring.
    waiting: Vec<u64>,
    /// Words per destination in `waiting`.
    words_per_dst: usize,
    /// Ring geometry, precomputed at construction with the same `Layout`
    /// calls the hot path used to make (so the cached values are
    /// bit-identical): token hop time, full round trip, and the
    /// site <-> serpentine-ring-position maps.
    hop: Span,
    round_trip: Span,
    /// Site index -> ring position.
    site_rpos: Vec<usize>,
    /// Ring position -> site id.
    pos_site: Vec<netcore::SiteId>,
    /// Token state per destination.
    tokens: Vec<Token>,
    /// Packets a site may transmit per token grab; the paper's evaluation
    /// behaves like one cache line per grab ("one cycle to transmit ... 80
    /// cycles to reacquire").
    max_burst: usize,
    base: NetBase<Ev>,
}

impl TokenRingNetwork {
    /// Builds the network with the paper's one-packet-per-grab policy.
    pub fn new(config: MacrochipConfig) -> TokenRingNetwork {
        TokenRingNetwork::with_burst(config, 1)
    }

    /// Builds the network with a custom token-hold burst limit (used by
    /// the burst-limit ablation).
    ///
    /// # Panics
    ///
    /// Panics if `max_burst` is zero.
    pub fn with_burst(config: MacrochipConfig, max_burst: usize) -> TokenRingNetwork {
        config.validate();
        assert!(max_burst > 0, "burst limit must be positive");
        let sites = config.grid.sites();
        let bw = config.channel_bytes_per_ns(LAMBDAS_PER_BUNDLE);
        let layout = config.layout;
        let site_rpos = (0..sites)
            .map(|i| layout.ring_index(config.grid.coord(netcore::SiteId::from_index(i))))
            .collect();
        let pos_site = (0..sites)
            .map(|p| {
                let (x, y) = layout.ring_coord(p);
                config.grid.site(x, y)
            })
            .collect();
        TokenRingNetwork {
            config,
            bundle_bw: bw,
            ser_memo: Cell::new((64, Span::from_ns_f64(64.0 / bw))),
            queues: QueueArena::new(sites * sites),
            waiting: vec![0; sites * sites.div_ceil(64)],
            words_per_dst: sites.div_ceil(64),
            hop: layout.ring_hop(),
            round_trip: layout.ring_round_trip(),
            site_rpos,
            pos_site,
            tokens: (0..sites)
                .map(|d| Token::Free {
                    pos: d % sites,
                    at: Time::ZERO,
                })
                .collect(),
            max_burst,
            base: NetBase::new(),
        }
    }

    fn queue_index(&self, src: usize, dst: usize) -> usize {
        src * self.config.grid.sites() + dst
    }

    /// True when source queue `q` refuses new packets.
    fn queue_full(&self, q: usize) -> bool {
        self.queues.len(q) >= self.config.queue_capacity
    }

    /// Serialization time of `bytes` on a destination bundle.
    fn serialization(&self, bytes: u32) -> Span {
        let (memo_bytes, memo_span) = self.ser_memo.get();
        if memo_bytes == bytes {
            return memo_span;
        }
        let span = Span::from_ns_f64(bytes as f64 / self.bundle_bw);
        self.ser_memo.set((bytes, span));
        span
    }

    /// First instant at or after `now` when the free token for `dst`
    /// reaches ring position `target`.
    fn token_arrival(&self, dst: usize, target: usize, now: Time) -> Time {
        let Token::Free { pos, at } = self.tokens[dst] else {
            unreachable!("token_arrival requires a free token");
        };
        let first = at + self.hop * self.config.layout.ring_distance(pos, target) as u64;
        if first >= now {
            return first;
        }
        // The token kept circulating; advance whole laps until it next
        // passes the target.
        let rt = self.round_trip;
        let behind = now.saturating_since(first).as_ps();
        let laps = behind.div_ceil(rt.as_ps().max(1));
        first + Span::from_ps(rt.as_ps() * laps)
    }

    /// Claims the free token for `dst` on behalf of the site at ring
    /// position `pos` (no-op if already claimed).
    fn claim_token(&mut self, dst: usize, pos: usize, now: Time) {
        if matches!(self.tokens[dst], Token::Free { .. }) {
            let at = self.token_arrival(dst, pos, now);
            self.tokens[dst] = Token::Claimed;
            self.base.events.push(at, Ev::TokenArrive { dst, pos });
        }
    }

    /// Ring position of a site id.
    fn ring_pos(&self, site: netcore::SiteId) -> usize {
        self.site_rpos[site.index()]
    }

    fn set_waiting(&mut self, dst: usize, pos: usize) {
        self.waiting[dst * self.words_per_dst + (pos >> 6)] |= 1u64 << (pos & 63);
    }

    fn clear_waiting(&mut self, dst: usize, pos: usize) {
        self.waiting[dst * self.words_per_dst + (pos >> 6)] &= !(1u64 << (pos & 63));
    }

    /// First ring position with packets waiting for `dst`, searching
    /// cyclically from one hop past `pos` (a holder can re-grab only
    /// after a full lap, so `pos` itself is considered last). Bitmap
    /// scan: O(words), not a walk around the ring.
    fn next_waiting(&self, dst: usize, pos: usize) -> Option<usize> {
        let sites = self.config.grid.sites();
        let base = dst * self.words_per_dst;
        let start = netcore::fast_rem(pos + 1, sites);
        let start_word = start >> 6;
        // Bits at ring positions >= start.
        let mut w = start_word;
        let mut word = self.waiting[base + w] & (u64::MAX << (start & 63));
        loop {
            if word != 0 {
                return Some((w << 6) + word.trailing_zeros() as usize);
            }
            w += 1;
            if w >= self.words_per_dst {
                break;
            }
            word = self.waiting[base + w];
        }
        // Wrap: positions before `start`, ending at `pos` itself.
        let mut w = 0;
        loop {
            let mut word = self.waiting[base + w];
            if w == start_word {
                word &= !(u64::MAX << (start & 63));
            }
            if word != 0 {
                return Some((w << 6) + word.trailing_zeros() as usize);
            }
            if w == start_word {
                return None;
            }
            w += 1;
        }
    }

    fn on_token_arrive(&mut self, dst: usize, pos: usize, t: Time) {
        let sites = self.config.grid.sites();
        let holder_site = self.pos_site[pos];
        let q_idx = self.queue_index(holder_site.index(), dst);
        self.base.tracer.emit(t, || TraceEvent::TokenAcquire {
            dst,
            holder: holder_site.index(),
        });

        // Data launched at the holder travels forward around the ring to
        // the destination; the hop count is fixed for the whole burst.
        let prop = self.hop * netcore::fast_rem(self.site_rpos[dst] + sites - pos, sites) as u64;

        // Transmit up to max_burst queued packets back to back on the
        // destination's bundle.
        let mut finish = t;
        let mut sent = 0;
        while sent < self.max_burst {
            let Some(pref) = self.queues.pop_front(q_idx) else {
                break;
            };
            let packet = self.base.slab.get_mut(pref);
            packet.tx_start = Some(finish);
            let bytes = packet.bytes;
            let ser = self.serialization(bytes);
            finish += ser;
            self.base.slab.get_mut(pref).tx_end = Some(finish);
            self.base
                .events
                .push(finish + prop, Ev::Deliver { packet: pref });
            sent += 1;
        }

        if sent > 0 {
            // Re-injecting the token costs the holder a beat.
            finish += TOKEN_RELEASE;
        }
        self.base.tracer.emit(finish, || TraceEvent::TokenRelease {
            dst,
            holder: holder_site.index(),
        });

        if self.queues.is_empty(q_idx) {
            self.clear_waiting(dst, pos);
        }

        // Release the token and route it to the next requester (at least
        // one hop away: a site cannot re-grab without the token passing
        // through the ring again).
        match self.next_waiting(dst, pos) {
            Some(p) => {
                let k = if p > pos { p - pos } else { sites - pos + p };
                self.base.events.push(
                    finish + self.hop * k as u64,
                    Ev::TokenArrive { dst, pos: p },
                );
                // token stays Claimed
            }
            None => {
                self.tokens[dst] = Token::Free { pos, at: finish };
            }
        }
    }
}

impl Network for TokenRingNetwork {
    fn kind(&self) -> NetworkKind {
        NetworkKind::TokenRing
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
        let dst = packet.dst.index();
        let q = self.queue_index(packet.src.index(), dst);
        if self.queue_full(q) {
            return self.base.refuse(packet);
        }
        let pos = self.ring_pos(packet.src);
        let mut packet = packet;
        // Token arbitration starts the moment the packet queues: the wait
        // for the circulating token is this network's arbitration phase.
        packet.arb_start = Some(now);
        let pref = self.base.admit(packet, now);
        self.queues.push_back(q, pref);
        self.set_waiting(dst, pos);
        self.claim_token(dst, pos, now);
        Ok(())
    }

    /// The source's queue for the packet's destination.
    fn admission_queue(&self, packet: &Packet) -> Option<u32> {
        if packet.src == packet.dst {
            return None; // loop-back never queues
        }
        u32::try_from(self.queue_index(packet.src.index(), packet.dst.index())).ok()
    }

    fn refuse_if_full(&mut self, queue: u32) -> bool {
        let full = self.queue_full(queue as usize);
        self.base.stats.reject_if(full)
    }

    fn next_event(&self) -> Option<Time> {
        self.base.events.peek_time()
    }

    fn advance(&mut self, now: Time) {
        while let Some((t, ev)) = self.base.events.pop_due(now) {
            match ev {
                Ev::TokenArrive { dst, pos } => self.on_token_arrive(dst, pos, t),
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

    /// Degradation policy: token regeneration after loss. A laser loss or
    /// a link kill anchored at a destination kills that destination's
    /// circulating token pulse; the home site detects the missing token
    /// after a silent lap and re-injects it, costing two ring round trips
    /// (detection + regeneration) before arbitration resumes.
    fn apply_fault(&mut self, fault: NetFault, now: Time) -> FaultResponse {
        match fault {
            NetFault::LaserLoss { site } | NetFault::LinkKill { dst: site, .. } => {
                let dst = site.index();
                match self.tokens[dst] {
                    Token::Free { pos, .. } => {
                        let regen = self.config.layout.ring_round_trip() * 2;
                        self.tokens[dst] = Token::Free {
                            pos,
                            at: now + regen,
                        };
                        FaultResponse::handled("token-regen")
                    }
                    // A claimed token is an in-flight grant; the pulse
                    // already left the ring segment and survives.
                    Token::Claimed => FaultResponse::handled("token-in-transit"),
                }
            }
            // The regenerated token is already live; repairs are no-ops.
            NetFault::LaserRestore { .. } | NetFault::LinkRepair { .. } => {
                FaultResponse::handled("token-live")
            }
            NetFault::SiteKill { .. } => FaultResponse::unhandled(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcore::{MessageKind, PacketId, SiteId};

    fn net() -> TokenRingNetwork {
        TokenRingNetwork::new(MacrochipConfig::scaled())
    }

    fn data(id: u64, src: SiteId, dst: SiteId, at: Time) -> Packet {
        Packet::new(PacketId(id), src, dst, 64, MessageKind::Data, at)
    }

    fn run_until_idle(net: &mut TokenRingNetwork) {
        while let Some(t) = net.next_event() {
            net.advance(t);
        }
    }

    #[test]
    fn single_transfer_completes() {
        let mut n = net();
        let g = n.config.grid;
        n.inject(data(0, g.site(1, 0), g.site(5, 3), Time::ZERO), Time::ZERO)
            .unwrap();
        run_until_idle(&mut n);
        let done = n.drain_delivered();
        assert_eq!(done.len(), 1);
        // Token wait (< one round trip) + 0.2 ns serialization + flight.
        let lat = done[0].latency().unwrap().as_ns_f64();
        assert!(lat < 16.0 + 0.2 + 16.0, "latency {lat}");
    }

    #[test]
    fn reacquiring_the_token_costs_a_round_trip() {
        // The paper's key §6.1 observation: one-to-one patterns transmit a
        // packet in one cycle but wait 80 cycles (16 ns) for the token.
        let mut n = net();
        let g = n.config.grid;
        let (src, dst) = (g.site(0, 0), g.site(1, 0));
        n.inject(data(0, src, dst, Time::ZERO), Time::ZERO).unwrap();
        run_until_idle(&mut n);
        let t1 = n.drain_delivered()[0].delivered.unwrap();
        // Inject a second packet right after the first finished: the token
        // has been released and must circulate back.
        n.inject(data(1, src, dst, t1), t1).unwrap();
        run_until_idle(&mut n);
        let t2 = n.drain_delivered()[0].delivered.unwrap();
        let gap = t2.saturating_since(t1).as_ns_f64();
        assert!(gap >= 15.9, "token reacquisition took only {gap} ns");
    }

    #[test]
    fn token_moves_to_next_requester_without_full_lap() {
        let mut n = net();
        let g = n.config.grid;
        let dst = g.site(7, 7);
        // Two requesters adjacent on the ring: (0,0) is ring pos 0, (1,0)
        // is ring pos 1.
        n.inject(data(0, g.site(0, 0), dst, Time::ZERO), Time::ZERO)
            .unwrap();
        n.inject(data(1, g.site(1, 0), dst, Time::ZERO), Time::ZERO)
            .unwrap();
        run_until_idle(&mut n);
        let done = n.drain_delivered();
        assert_eq!(done.len(), 2);
        let a = done[0].delivered.unwrap();
        let b = done[1].delivered.unwrap();
        // The second grab is one hop + one serialization after the first,
        // not a full 16 ns lap.
        let gap = b.saturating_since(a).as_ns_f64().abs();
        assert!(gap < 2.0, "gap {gap}");
    }

    #[test]
    fn wide_bundle_serializes_fast() {
        let n = net();
        // 64 B at 320 B/ns = 0.2 ns = one core cycle, as the paper says.
        assert_eq!(n.serialization(64), Span::from_ps(200));
    }

    #[test]
    fn distinct_destinations_have_independent_tokens() {
        let mut n = net();
        let g = n.config.grid;
        let src = g.site(0, 0);
        n.inject(data(0, src, g.site(3, 3), Time::ZERO), Time::ZERO)
            .unwrap();
        n.inject(data(1, src, g.site(4, 4), Time::ZERO), Time::ZERO)
            .unwrap();
        run_until_idle(&mut n);
        assert_eq!(n.drain_delivered().len(), 2);
    }

    #[test]
    fn queue_capacity_backpressures() {
        let mut n = net();
        let g = n.config.grid;
        let (a, b) = (g.site(0, 0), g.site(1, 1));
        let cap = n.config.queue_capacity;
        for i in 0..cap as u64 {
            n.inject(data(i, a, b, Time::ZERO), Time::ZERO).unwrap();
        }
        assert!(n.inject(data(99, a, b, Time::ZERO), Time::ZERO).is_err());
    }

    #[test]
    fn burst_limit_bounds_hold_time() {
        let mut n = TokenRingNetwork::with_burst(MacrochipConfig::scaled(), 4);
        let g = n.config.grid;
        let (a, b) = (g.site(0, 0), g.site(1, 1));
        for i in 0..8u64 {
            n.inject(data(i, a, b, Time::ZERO), Time::ZERO).unwrap();
        }
        run_until_idle(&mut n);
        let done = n.drain_delivered();
        assert_eq!(done.len(), 8);
        // Packets 0-3 go in the first grab; 4-7 wait a full lap.
        let t3 = done[3].delivered.unwrap();
        let t4 = done[4].delivered.unwrap();
        assert!(t4.saturating_since(t3).as_ns_f64() > 10.0);
    }

    #[test]
    fn lost_token_regenerates_after_two_laps() {
        let mut n = net();
        let g = n.config.grid;
        let (src, dst) = (g.site(1, 0), g.site(5, 3));
        // Healthy baseline latency for this pair.
        n.inject(data(0, src, dst, Time::ZERO), Time::ZERO).unwrap();
        run_until_idle(&mut n);
        let healthy = n.drain_delivered()[0].latency().unwrap();

        // Fresh network: lose the token before anyone requests it.
        let mut n = net();
        let r = n.apply_fault(NetFault::LaserLoss { site: dst }, Time::ZERO);
        assert!(r.handled);
        assert_eq!(r.action, "token-regen");
        n.inject(data(0, src, dst, Time::ZERO), Time::ZERO).unwrap();
        run_until_idle(&mut n);
        let degraded = n.drain_delivered()[0].latency().unwrap();
        let penalty = (degraded - healthy).as_ns_f64();
        // Two 16 ns laps of detection + regeneration, within a lap's slack
        // for where the regenerated token restarts.
        assert!((16.0..=48.0).contains(&penalty), "penalty {penalty} ns");
    }

    #[test]
    fn claimed_token_survives_the_fault() {
        let mut n = net();
        let g = n.config.grid;
        let (src, dst) = (g.site(0, 0), g.site(1, 1));
        n.inject(data(0, src, dst, Time::ZERO), Time::ZERO).unwrap();
        // The claim is in flight; the fault must not strand the requester.
        let r = n.apply_fault(NetFault::LaserLoss { site: dst }, Time::ZERO);
        assert_eq!(r.action, "token-in-transit");
        run_until_idle(&mut n);
        assert_eq!(n.drain_delivered().len(), 1);
    }

    #[test]
    fn loopback_takes_one_cycle() {
        let mut n = net();
        let s = n.config.grid.site(6, 1);
        n.inject(data(0, s, s, Time::ZERO), Time::ZERO).unwrap();
        run_until_idle(&mut n);
        assert_eq!(
            n.drain_delivered()[0].latency().unwrap(),
            Span::from_ps(200)
        );
    }
}
