//! The two-phase arbitration-based switched optical network (paper §4.3).
//!
//! All sites in a row share a 40 GB/s (16-wavelength) optical data channel
//! to each destination site: 512 shared channels on the 8×8 macrochip.
//! Access is arbitrated in two phases, fully distributed:
//!
//! 1. a request is posted on the row's arbitration waveguide; every site
//!    in the arbitration domain sees it and assigns the same data slot to
//!    the requester with a per-destination round-robin counter;
//! 2. the destination's column manager notifies the column, the feed
//!    switches and the destination's input switch are set ahead of the
//!    slot, and the source transmits.
//!
//! Data channels are time-slotted in multiples of the 0.4 ns arbitration
//! slot. Because each site owns a single 1×8 switch tree per *column*
//! (two in the ALT configuration), a site can feed at most one (ALT: two)
//! transmissions per column at a time. Slot assignment is oblivious to
//! tree state — each channel's arbiter runs independently — so a granted
//! slot whose source tree is busy is **wasted**: the reservation burns on
//! the channel and the packet must re-arbitrate after a full pipeline
//! delay. This is exactly the switch-tree contention the paper blames for
//! the base design's low sustained bandwidth, and why the ALT variant
//! (double trees, double transmitters) recovers a factor ~1.4 (§6.1).
//!
//! Every channel's per-source request FIFOs (side·S·side of them) thread
//! through one [`netcore::QueueArena`], and the switch-tree busy times are
//! one flat vector.

use crate::base::NetBase;
use desim::{Span, Time, TraceEvent, Tracer};
use netcore::{
    FaultResponse, MacrochipConfig, NetFault, NetStats, Network, NetworkKind, Packet, PacketRef,
    QueueArena, SiteId, SlabStats,
};

/// Wavelengths per shared data channel (16 × 2.5 GB/s = 40 GB/s).
pub const LAMBDAS_PER_CHANNEL: usize = 16;

/// The basic arbitration slot: 0.4 ns (§4.3).
pub const BASIC_SLOT: Span = Span::from_ps(400);

/// Basic slots per assigned data slot: one 64-byte cache line at 40 GB/s.
pub const DATA_SLOT_BASICS: u64 = 4;

/// Fixed arbitration pipeline: request propagation along the row
/// (~1.75 ns worst case), slot assignment, column notification (~1.75 ns)
/// and — dominating the budget — settling of the broadband ring-resonator
/// feed switches, which the paper's protocol explicitly times the switch
/// notification around ("timed to accommodate the switch delay", §4.3).
/// A packet cannot use a slot earlier than its injection plus this delay,
/// and a wasted grant pays it again. This per-message overhead is why the
/// paper finds the point-to-point network at least 4.5x faster on
/// invalidation-heavy (MS) traffic (§6.2).
pub const ARB_PIPELINE: Span = Span::from_ps(20_000);

/// WDM factor of the column notification waveguides (§4.3: arbitration
/// wavelengths are assigned cyclically to enable WDM on the single
/// notification waveguide per column).
pub const NOTIFY_WDM: u64 = 2;

/// Minimum spacing between switch-request notifications on one column's
/// notification waveguide: one 0.4 ns arbitration slot shared by
/// [`NOTIFY_WDM`] wavelengths. Every data transmission needs one
/// notification to set the column's switches, so this waveguide is the
/// architecture's structural bottleneck — the reason the paper's base
/// design sustains only ~7.5% of peak on uniform traffic (§6.1).
pub const NOTIFY_INTERVAL: Span = Span::from_ps(400 / NOTIFY_WDM);

/// A packet waiting on a shared channel, with its earliest usable slot.
#[derive(Debug, Clone, Copy)]
struct Queued {
    packet: PacketRef,
    eligible_at: Time,
    /// Data slots this packet has burned on switch-tree conflicts so far.
    wasted: u32,
}

/// One shared (row → destination) channel's arbitration state. Its
/// per-source request FIFOs live in the network's `requests` arena.
#[derive(Debug)]
struct Channel {
    /// Bit `s` set iff the request queue of the source in column `s` is
    /// non-empty (the arbitration domain is one row, so a word covers
    /// it); lets the round-robin scan and the pending check skip empty
    /// queues without touching them.
    occ: u64,
    /// Round-robin pointer over sources.
    rr: usize,
    /// The channel is reserved up to this instant.
    free_at: Time,
    /// Whether a `Slot` event is outstanding.
    scheduled: bool,
}

#[derive(Debug)]
enum Ev {
    /// The channel's next arbitration decision point.
    Slot { channel: usize },
    /// A packet's last bit reached the destination.
    Deliver { packet: PacketRef },
}

/// The two-phase arbitrated network (base or ALT configuration).
///
/// # Example
///
/// ```
/// use desim::Time;
/// use netcore::{MacrochipConfig, MessageKind, Network, Packet, PacketId};
/// use networks::TwoPhaseNetwork;
///
/// let config = MacrochipConfig::scaled();
/// let mut net = TwoPhaseNetwork::new(config);
/// let p = Packet::new(PacketId(0), config.grid.site(0, 0), config.grid.site(5, 5),
///                     64, MessageKind::Data, Time::ZERO);
/// net.inject(p, Time::ZERO).unwrap();
/// while let Some(t) = net.next_event() { net.advance(t); }
/// let done = net.drain_delivered();
/// // Arbitration pipeline (20 ns) + slotting + serialization + flight.
/// assert!(done[0].latency().unwrap().as_ns_f64() >= 20.0);
/// ```
pub struct TwoPhaseNetwork {
    config: MacrochipConfig,
    alt: bool,
    /// Channels indexed `row * sites + dst`.
    channels: Vec<Channel>,
    /// Per-source request FIFOs of every channel, indexed
    /// `channel * side + source column` (the admission-queue key).
    requests: QueueArena<Queued>,
    /// Switch-tree busy times, `trees_per_column` entries per (site,
    /// column) pair, that pair indexed `site * side + column`.
    trees: Vec<Time>,
    trees_per_column: usize,
    /// Next instant each column's notification waveguide can carry another
    /// switch request.
    notify_free: Vec<Time>,
    /// Dead dies: masked out of arbitration as both requestors and
    /// destinations.
    masked_sites: Vec<bool>,
    /// Laser-dead transmitters: masked as requestors only.
    masked_tx: Vec<bool>,
    /// Killed shared (row → destination) channels.
    masked_channels: Vec<bool>,
    /// Set by [`Network::apply_fault`]: a masked requestor,
    /// channel or sink absorbs packets instead of refusing them, so
    /// admission-queue hints taken before it no longer imply refusal.
    faulted: bool,
    /// Shared-channel bandwidth, precomputed.
    bw: f64,
    /// Row-then-column propagation delays by hop count, precomputed.
    prop: crate::geom::PropByHops,
    /// Memo of the last slotted duration / raw serialization computed:
    /// traffic has one or two fixed packet sizes, so these turn the
    /// per-grant float math into a compare (same values, cached).
    dur_memo: std::cell::Cell<(u32, Span)>,
    ser_memo: std::cell::Cell<(u32, Span)>,
    base: NetBase<Ev>,
}

impl TwoPhaseNetwork {
    /// Builds the base configuration (one switch tree per column).
    pub fn new(config: MacrochipConfig) -> TwoPhaseNetwork {
        TwoPhaseNetwork::with_trees(config, 1)
    }

    /// Builds the ALT configuration: doubled transmitters and switch trees.
    pub fn new_alt(config: MacrochipConfig) -> TwoPhaseNetwork {
        TwoPhaseNetwork::with_trees(config, 2)
    }

    /// Builds with an explicit number of switch trees per (site, column);
    /// used by the tree-count ablation.
    ///
    /// # Panics
    ///
    /// Panics if `trees_per_column` is zero.
    pub fn with_trees(config: MacrochipConfig, trees_per_column: usize) -> TwoPhaseNetwork {
        config.validate();
        assert!(trees_per_column > 0, "need at least one switch tree");
        let side = config.grid.side();
        assert!(side <= 64, "occupancy word covers one row (side <= 64)");
        let sites = config.grid.sites();
        let channels = (0..side * sites)
            .map(|_| Channel {
                occ: 0,
                rr: 0,
                free_at: Time::ZERO,
                scheduled: false,
            })
            .collect();
        let bw = config.channel_bytes_per_ns(LAMBDAS_PER_CHANNEL);
        TwoPhaseNetwork {
            config,
            alt: trees_per_column > 1,
            channels,
            requests: QueueArena::new(side * sites * side),
            trees: vec![Time::ZERO; sites * side * trees_per_column],
            trees_per_column,
            notify_free: vec![Time::ZERO; side],
            masked_sites: vec![false; sites],
            masked_tx: vec![false; sites],
            masked_channels: vec![false; side * sites],
            faulted: false,
            bw,
            prop: crate::geom::PropByHops::new(&config.layout),
            dur_memo: std::cell::Cell::new((64, Self::slotted_duration_raw(bw, 64))),
            ser_memo: std::cell::Cell::new((64, Span::from_ns_f64(64.0 / bw))),
            base: NetBase::new(),
        }
    }

    /// True if this is the ALT configuration.
    pub fn is_alt(&self) -> bool {
        self.alt
    }

    fn channel_index(&self, src: SiteId, dst: SiteId) -> usize {
        self.config.grid.y(src) * self.config.grid.sites() + dst.index()
    }

    /// True when column `col`'s request queue on shared channel `channel`
    /// refuses new packets.
    fn request_queue_full(&self, channel: usize, col: usize) -> bool {
        self.requests.len(self.request_queue(channel, col)) >= self.config.queue_capacity
    }

    /// Index in `requests` of column `col`'s queue on `channel`.
    fn request_queue(&self, channel: usize, col: usize) -> usize {
        channel * self.config.grid.side() + col
    }

    /// Empties column `col`'s request queue on `channel` (a masked
    /// requestor, sink or channel), appending its packets to `out`.
    fn evict_requests(&mut self, channel: usize, col: usize, out: &mut Vec<Packet>) {
        let rq = self.request_queue(channel, col);
        let slab = &mut self.base.slab;
        out.extend(self.requests.drain(rq).map(|q| slab.take(q.packet)));
        self.channels[channel].occ &= !(1 << col);
    }

    fn tree_index(&self, site: SiteId, dst: SiteId) -> usize {
        site.index() * self.config.grid.side() + self.config.grid.x(dst)
    }

    /// Rounds `t` up to the global 0.4 ns slot grid.
    fn align_slot(t: Time) -> Time {
        let slot = BASIC_SLOT.as_ps();
        Time::from_ps(t.as_ps().div_ceil(slot) * slot)
    }

    /// Transmission duration quantized to whole data slots. The
    /// distributed round-robin counters assign one cache-line-sized slot
    /// (four basic slots, 1.6 ns) per grant: every site in the domain
    /// must agree on slot boundaries without seeing message sizes, so an
    /// 8-byte acknowledgment burns a whole data slot — the arbitration
    /// overhead that dominates the MS sharing mix in the paper (§6.2).
    fn slotted_duration(&self, bytes: u32) -> Span {
        let (memo_bytes, memo_span) = self.dur_memo.get();
        if memo_bytes == bytes {
            return memo_span;
        }
        let span = Self::slotted_duration_raw(self.bw, bytes);
        self.dur_memo.set((bytes, span));
        span
    }

    fn slotted_duration_raw(bw: f64, bytes: u32) -> Span {
        let raw = Span::from_ns_f64(bytes as f64 / bw);
        let slots = raw
            .as_ps()
            .div_ceil(BASIC_SLOT.as_ps())
            .max(DATA_SLOT_BASICS);
        Span::from_ps(slots * BASIC_SLOT.as_ps())
    }

    /// Raw (unslotted) serialization time of `bytes` on a shared channel.
    fn serialization(&self, bytes: u32) -> Span {
        let (memo_bytes, memo_span) = self.ser_memo.get();
        if memo_bytes == bytes {
            return memo_span;
        }
        let span = Span::from_ns_f64(bytes as f64 / self.bw);
        self.ser_memo.set((bytes, span));
        span
    }

    /// Ensures a `Slot` event is pending for `channel` no earlier than the
    /// channel's reservation horizon and `at`.
    fn schedule_slot(&mut self, channel: usize, at: Time) {
        let ch = &mut self.channels[channel];
        if ch.scheduled {
            return;
        }
        ch.scheduled = true;
        let t = Self::align_slot(at.max(ch.free_at));
        self.base.events.push(t, Ev::Slot { channel });
    }

    fn on_slot(&mut self, channel: usize, t: Time) {
        self.channels[channel].scheduled = false;
        let side = self.config.grid.side();
        let sites = self.config.grid.sites();
        let row = netcore::fast_div(channel, sites);
        let dst = SiteId::from_index(netcore::fast_rem(channel, sites));

        // Phase 2 precondition: every transmission needs a switch-request
        // slot on the destination column's notification waveguide. If it
        // is occupied, the arbiter defers the channel (no waste, but the
        // column's aggregate rate is capped by notifications).
        let col = self.config.grid.x(dst);
        if self.notify_free[col] > t {
            let at = self.notify_free[col];
            self.schedule_slot(channel, at);
            return;
        }

        // Round-robin among sources whose head packet is eligible; the
        // occupancy bitmap skips empty queues without dereferencing them.
        let (selected, earliest_wait) = {
            let ch = &self.channels[channel];
            let occ = ch.occ;
            let mut selected = None;
            let mut earliest_wait: Option<Time> = None;
            if occ != 0 {
                for k in 0..side {
                    // `rr + k < 2 * side`: a wrap-subtract replaces the
                    // modulo without changing the visit order.
                    let mut s = ch.rr + k;
                    if s >= side {
                        s -= side;
                    }
                    if occ & (1 << s) == 0 {
                        continue;
                    }
                    let q = self
                        .requests
                        .front(channel * side + s)
                        .expect("occupancy bit set");
                    if q.eligible_at <= t {
                        selected = Some(s);
                        break;
                    }
                    earliest_wait = Some(match earliest_wait {
                        Some(e) => e.min(q.eligible_at),
                        None => q.eligible_at,
                    });
                }
            }
            (selected, earliest_wait)
        };

        let Some(src_col) = selected else {
            // Nothing eligible yet; revisit when the earliest becomes so.
            if let Some(at) = earliest_wait {
                self.schedule_slot(channel, at);
            }
            return;
        };

        let src = self.config.grid.site(src_col, row);
        let rq = self.request_queue(channel, src_col);
        let head = *self
            .requests
            .front(rq)
            .expect("selected source has a head packet");
        let dur = self.slotted_duration(self.base.slab.get(head.packet).bytes);

        // Phase 2: the switch tree for the destination's column must be
        // free for the whole reserved duration.
        let tree_base = self.tree_index(src, dst) * self.trees_per_column;
        let free_tree = self.trees[tree_base..tree_base + self.trees_per_column]
            .iter()
            .position(|&b| b <= t);

        // The arbiter granted this slot range either way: the channel is
        // reserved for `dur` from `t`.
        {
            let ch = &mut self.channels[channel];
            ch.rr = netcore::fast_rem(src_col + 1, side);
            ch.free_at = t + dur;
        }
        // The grant consumed its notification slot whether or not the
        // transmission goes through.
        self.notify_free[col] = t + NOTIFY_INTERVAL;

        match free_tree {
            Some(tree) => {
                let queued = self.requests.pop_front(rq).expect("head packet present");
                if self.requests.is_empty(rq) {
                    self.channels[channel].occ &= !(1 << src_col);
                }
                let pref = queued.packet;
                self.trees[tree_base + tree] = t + dur;
                let bytes = self.base.slab.get(pref).bytes;
                let ser = self.serialization(bytes);
                let prop = self
                    .prop
                    .delay(self.config.grid.coord(src), self.config.grid.coord(dst));
                let packet = self.base.slab.get_mut(pref);
                packet.tx_start = Some(t);
                packet.routed_bytes = 0;
                packet.tx_end = Some(t + ser);
                let (id, wasted) = (packet.id.0, queued.wasted);
                self.base.tracer.emit(t, || TraceEvent::ArbGrant {
                    packet: id,
                    site: src.index(),
                    wasted_slots: wasted,
                });
                self.base
                    .events
                    .push(t + ser + prop, Ev::Deliver { packet: pref });
            }
            None => {
                // Tree conflict: reservation burns, packet re-arbitrates.
                self.base.stats.on_wasted_slot();
                let q = self.requests.front_mut(rq).expect("head packet present");
                q.eligible_at = t + ARB_PIPELINE;
                q.wasted += 1;
                let pref = q.packet;
                let id = self.base.slab.get(pref).id.0;
                self.base.tracer.emit(t, || TraceEvent::Retry {
                    packet: id,
                    site: src.index(),
                });
            }
        }

        // Keep arbitrating while any packet is pending.
        if self.channels[channel].occ != 0 {
            let at = self.channels[channel].free_at;
            self.schedule_slot(channel, at);
        }
    }
}

impl Network for TwoPhaseNetwork {
    fn kind(&self) -> NetworkKind {
        if self.alt {
            NetworkKind::TwoPhaseAlt
        } else {
            NetworkKind::TwoPhase
        }
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
        let channel = self.channel_index(packet.src, packet.dst);
        let src_col = self.config.grid.x(packet.src);
        if self.masked_channels[channel]
            || self.masked_sites[packet.src.index()]
            || self.masked_sites[packet.dst.index()]
            || self.masked_tx[packet.src.index()]
        {
            // The arbiter masks dead requestors, channels and sinks out of
            // the round-robin: the packet is absorbed as a fault drop so
            // nothing ever waits on a masked resource.
            let site = packet.src.index();
            self.base.absorb(packet, site, "masked", now);
            return Ok(());
        }
        if self.request_queue_full(channel, src_col) {
            return self.base.refuse(packet);
        }
        let mut packet = packet;
        packet.arb_start = Some(now);
        let (id, site) = (packet.id.0, packet.src.index());
        let pref = self.base.admit(packet, now);
        self.base
            .tracer
            .emit(now, || TraceEvent::ArbRequest { packet: id, site });
        let eligible_at = now + ARB_PIPELINE;
        let rq = self.request_queue(channel, src_col);
        self.requests.push_back(
            rq,
            Queued {
                packet: pref,
                eligible_at,
                wasted: 0,
            },
        );
        self.channels[channel].occ |= 1 << src_col;
        self.schedule_slot(channel, eligible_at);
        Ok(())
    }

    /// The source column's request queue on the packet's shared channel,
    /// keyed `channel * side + column`.
    fn admission_queue(&self, packet: &Packet) -> Option<u32> {
        if packet.src == packet.dst {
            return None; // loop-back never queues
        }
        let channel = self.channel_index(packet.src, packet.dst);
        let key = self.request_queue(channel, self.config.grid.x(packet.src));
        u32::try_from(key).ok()
    }

    /// Never claims a refusal once a fault has been applied: masking
    /// turns a refusal into an absorbed drop.
    fn refuse_if_full(&mut self, queue: u32) -> bool {
        let side = self.config.grid.side();
        let (channel, col) = (queue as usize / side, queue as usize % side);
        let full = !self.faulted && self.request_queue_full(channel, col);
        self.base.stats.reject_if(full)
    }

    fn next_event(&self) -> Option<Time> {
        self.base.events.peek_time()
    }

    fn advance(&mut self, now: Time) {
        while let Some((t, ev)) = self.base.events.pop_due(now) {
            match ev {
                Ev::Slot { channel } => self.on_slot(channel, t),
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

    /// Degradation policy: the distributed arbiters mask dead requestors.
    /// A dead die (or laser-dead transmitter) is dropped from every
    /// round-robin domain and its queued packets are evicted for the
    /// wrapper to triage; a killed shared channel is masked the same way.
    fn apply_fault(&mut self, fault: NetFault, _now: Time) -> FaultResponse {
        self.faulted = true;
        let sites = self.config.grid.sites();
        let g = self.config.grid;
        match fault {
            NetFault::SiteKill { site } => {
                self.masked_sites[site.index()] = true;
                let mut evicted = Vec::new();
                // The dead site's own pending requests, across its row.
                let (row, col) = (g.y(site), g.x(site));
                for d in 0..sites {
                    self.evict_requests(row * sites + d, col, &mut evicted);
                }
                // Everyone else's packets destined to the dead site.
                for r in 0..g.side() {
                    for c in 0..g.side() {
                        self.evict_requests(r * sites + site.index(), c, &mut evicted);
                    }
                }
                FaultResponse::handled("mask-requestor").with_evicted(evicted)
            }
            NetFault::LaserLoss { site } => {
                self.masked_tx[site.index()] = true;
                let mut evicted = Vec::new();
                let (row, col) = (g.y(site), g.x(site));
                for d in 0..sites {
                    self.evict_requests(row * sites + d, col, &mut evicted);
                }
                FaultResponse::handled("mask-requestor").with_evicted(evicted)
            }
            NetFault::LaserRestore { site } => {
                self.masked_tx[site.index()] = false;
                FaultResponse::handled("unmask-requestor")
            }
            NetFault::LinkKill { src, dst } => {
                let channel = self.channel_index(src, dst);
                self.masked_channels[channel] = true;
                let mut evicted = Vec::new();
                for c in 0..g.side() {
                    self.evict_requests(channel, c, &mut evicted);
                }
                FaultResponse::handled("mask-channel").with_evicted(evicted)
            }
            NetFault::LinkRepair { src, dst } => {
                let channel = self.channel_index(src, dst);
                self.masked_channels[channel] = false;
                FaultResponse::handled("unmask-channel")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcore::{MessageKind, PacketId};

    fn net() -> TwoPhaseNetwork {
        TwoPhaseNetwork::new(MacrochipConfig::scaled())
    }

    fn data(id: u64, src: SiteId, dst: SiteId, at: Time) -> Packet {
        Packet::new(PacketId(id), src, dst, 64, MessageKind::Data, at)
    }

    fn run_until_idle(net: &mut TwoPhaseNetwork) {
        while let Some(t) = net.next_event() {
            net.advance(t);
        }
    }

    #[test]
    fn single_packet_pays_the_arbitration_pipeline() {
        let mut n = net();
        let g = n.config.grid;
        n.inject(data(0, g.site(0, 0), g.site(3, 3), Time::ZERO), Time::ZERO)
            .unwrap();
        run_until_idle(&mut n);
        let lat = n.drain_delivered()[0].latency().unwrap().as_ns_f64();
        // 20 ns pipeline + 1.6 ns serialization + 1.5 ns flight.
        assert!((lat - 23.1).abs() < 0.5, "latency {lat}");
    }

    #[test]
    fn row_mates_share_the_channel() {
        let mut n = net();
        let g = n.config.grid;
        let dst = g.site(5, 5);
        // Two sites in row 0 send to the same destination: transmissions
        // serialize on the shared 40 GB/s channel.
        n.inject(data(0, g.site(0, 0), dst, Time::ZERO), Time::ZERO)
            .unwrap();
        n.inject(data(1, g.site(1, 0), dst, Time::ZERO), Time::ZERO)
            .unwrap();
        run_until_idle(&mut n);
        let done = n.drain_delivered();
        assert_eq!(done.len(), 2);
        let mut finishes: Vec<Time> = done.iter().map(|p| p.delivered.unwrap()).collect();
        finishes.sort_unstable();
        // Second transmission starts one slotted duration (1.6 ns) after
        // the first; its flight is 0.25 ns shorter from the nearer source.
        let gap = finishes[1].saturating_since(finishes[0]).as_ns_f64();
        assert!((gap - 1.35).abs() < 0.01, "gap {gap}");
    }

    #[test]
    fn different_rows_do_not_share_channels() {
        let mut n = net();
        let g = n.config.grid;
        let dst = g.site(5, 5);
        n.inject(data(0, g.site(0, 0), dst, Time::ZERO), Time::ZERO)
            .unwrap();
        n.inject(data(1, g.site(0, 1), dst, Time::ZERO), Time::ZERO)
            .unwrap();
        run_until_idle(&mut n);
        let done = n.drain_delivered();
        let l0 = done[0].latency().unwrap().as_ns_f64();
        let l1 = done[1].latency().unwrap().as_ns_f64();
        // Both transmit concurrently on their own row channels.
        assert!((l0 - l1).abs() < 1.5, "l0={l0} l1={l1}");
    }

    #[test]
    fn tree_conflict_wastes_the_slot() {
        let mut n = net();
        let g = n.config.grid;
        let src = g.site(0, 0);
        // Two destinations in the same column: the single switch tree can
        // feed only one at a time; the oblivious arbiters collide.
        n.inject(data(0, src, g.site(5, 2), Time::ZERO), Time::ZERO)
            .unwrap();
        n.inject(data(1, src, g.site(5, 3), Time::ZERO), Time::ZERO)
            .unwrap();
        run_until_idle(&mut n);
        let done = n.drain_delivered();
        assert_eq!(done.len(), 2);
        assert!(
            n.stats().wasted_slots() >= 1,
            "expected a wasted slot, got {}",
            n.stats().wasted_slots()
        );
        // The loser re-arbitrated: a full extra pipeline delay.
        let mut lats: Vec<f64> = done
            .iter()
            .map(|p| p.latency().unwrap().as_ns_f64())
            .collect();
        lats.sort_by(f64::total_cmp);
        assert!(lats[1] - lats[0] >= 4.0, "lats {lats:?}");
    }

    #[test]
    fn alt_trees_absorb_the_conflict() {
        let mut n = TwoPhaseNetwork::new_alt(MacrochipConfig::scaled());
        let g = n.config.grid;
        let src = g.site(0, 0);
        n.inject(data(0, src, g.site(5, 2), Time::ZERO), Time::ZERO)
            .unwrap();
        n.inject(data(1, src, g.site(5, 3), Time::ZERO), Time::ZERO)
            .unwrap();
        run_until_idle(&mut n);
        assert_eq!(n.drain_delivered().len(), 2);
        assert_eq!(n.stats().wasted_slots(), 0);
        assert_eq!(n.kind(), NetworkKind::TwoPhaseAlt);
    }

    #[test]
    fn every_grant_burns_a_whole_data_slot() {
        let n = net();
        // Even an 8 B ack occupies one full cache-line slot (1.6 ns).
        assert_eq!(n.slotted_duration(8), Span::from_ps(1_600));
        // 64 B = 1.6 ns = 4 basic slots exactly.
        assert_eq!(n.slotted_duration(64), Span::from_ps(1_600));
        // Oversized transfers extend by whole basic slots.
        assert_eq!(n.slotted_duration(72), Span::from_ps(2_000));
    }

    #[test]
    fn slot_alignment_rounds_up() {
        assert_eq!(
            TwoPhaseNetwork::align_slot(Time::from_ps(401)),
            Time::from_ps(800)
        );
        assert_eq!(
            TwoPhaseNetwork::align_slot(Time::from_ps(800)),
            Time::from_ps(800)
        );
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
    fn admission_hint_is_exact_until_a_fault() {
        let mut n = net();
        let g = n.config.grid;
        let (a, b) = (g.site(0, 0), g.site(1, 1));
        for i in 0..n.config.queue_capacity as u64 {
            n.inject(data(i, a, b, Time::ZERO), Time::ZERO).unwrap();
        }
        let refused = n
            .inject(data(99, a, b, Time::ZERO), Time::ZERO)
            .unwrap_err();
        let queue = n
            .admission_queue(&refused)
            .expect("a queued pair has a queue");
        assert!(n.refuse_if_full(queue));
        assert_eq!(n.stats().rejected_packets(), 2);
        // Any fault may mask the packet's requestor, channel or sink, so
        // the hint stops claiming refusal even though this queue is full.
        n.apply_fault(NetFault::LaserLoss { site: g.site(5, 5) }, Time::ZERO);
        assert!(!n.refuse_if_full(queue));
        assert_eq!(n.stats().rejected_packets(), 2);
        assert!(n.inject(refused, Time::ZERO).is_err());
    }

    #[test]
    fn loopback_takes_one_cycle() {
        let mut n = net();
        let s = n.config.grid.site(3, 6);
        n.inject(data(0, s, s, Time::ZERO), Time::ZERO).unwrap();
        run_until_idle(&mut n);
        assert_eq!(
            n.drain_delivered()[0].latency().unwrap(),
            Span::from_ps(200)
        );
    }

    #[test]
    fn base_kind_is_two_phase() {
        assert_eq!(net().kind(), NetworkKind::TwoPhase);
        assert!(!net().is_alt());
    }

    #[test]
    fn dead_site_is_masked_and_its_queues_evicted() {
        let mut n = net();
        let g = n.config.grid;
        let dead = g.site(2, 0);
        // One pending request from the dying site, one destined to it.
        n.inject(data(0, dead, g.site(5, 5), Time::ZERO), Time::ZERO)
            .unwrap();
        n.inject(data(1, g.site(0, 3), dead, Time::ZERO), Time::ZERO)
            .unwrap();
        let r = n.apply_fault(NetFault::SiteKill { site: dead }, Time::ZERO);
        assert!(r.handled);
        assert_eq!(r.action, "mask-requestor");
        assert_eq!(r.evicted.len(), 2);
        // New traffic touching the dead site is absorbed as drops, never
        // queued against a masked requestor.
        n.inject(data(2, dead, g.site(5, 5), Time::ZERO), Time::ZERO)
            .unwrap();
        n.inject(data(3, g.site(0, 3), dead, Time::ZERO), Time::ZERO)
            .unwrap();
        run_until_idle(&mut n);
        assert!(n.drain_delivered().is_empty());
        assert_eq!(n.stats().dropped_packets(), 2);
        // Healthy pairs in the same row still communicate.
        n.inject(data(4, g.site(3, 0), g.site(5, 5), Time::ZERO), Time::ZERO)
            .unwrap();
        run_until_idle(&mut n);
        assert_eq!(n.drain_delivered().len(), 1);
    }

    #[test]
    fn masked_channel_recovers_after_repair() {
        let mut n = net();
        let g = n.config.grid;
        let (src, dst) = (g.site(0, 0), g.site(4, 4));
        n.apply_fault(NetFault::LinkKill { src, dst }, Time::ZERO);
        n.inject(data(0, src, dst, Time::ZERO), Time::ZERO).unwrap();
        run_until_idle(&mut n);
        assert_eq!(n.stats().dropped_packets(), 1);
        n.apply_fault(NetFault::LinkRepair { src, dst }, Time::ZERO);
        let t = Time::from_ns(100);
        n.inject(data(1, src, dst, t), t).unwrap();
        run_until_idle(&mut n);
        assert_eq!(n.drain_delivered().len(), 1);
    }
}
