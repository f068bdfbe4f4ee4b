//! The simulation driver: couples a [`PacketSource`] to a [`Network`].

use desim::prof::{self, Counter, Site};
use desim::{Time, TraceEvent, Tracer};
use netcore::{Network, ObservedSource, Packet, PacketRef, PacketSlab, PacketSource};
use std::collections::VecDeque;

/// Bounds on a driven run.
#[derive(Debug, Clone, Copy)]
pub struct DriveLimits {
    /// Hard stop; events after this instant are not processed.
    pub deadline: Time,
    /// If this many packets are waiting for injection (backpressure), the
    /// run is declared saturated and stops early.
    pub max_stalled: usize,
}

impl DriveLimits {
    /// Limits for the standard open-loop shape: generate traffic for
    /// `sim`, then allow `drain` extra time for in-flight packets, with
    /// `max_stalled` as the saturation bound.
    pub fn for_window(sim: desim::Span, drain: desim::Span, max_stalled: usize) -> DriveLimits {
        DriveLimits {
            deadline: Time::ZERO + sim + drain,
            max_stalled,
        }
    }
}

impl Default for DriveLimits {
    fn default() -> DriveLimits {
        DriveLimits {
            deadline: Time::MAX,
            max_stalled: 5_000,
        }
    }
}

/// How a driven run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Simulation time when the run stopped.
    pub end: Time,
    /// The run hit the stalled-packet bound, or ended with packets still
    /// stalled and nothing scheduled (the network could not absorb the
    /// offered traffic).
    pub saturated: bool,
    /// The run hit the deadline with work still pending.
    pub timed_out: bool,
}

/// Drives `net` with packets from `source` until both are exhausted, the
/// deadline passes, or saturation is declared.
///
/// Injection is retried for packets refused under backpressure: they wait
/// in a stall queue (preserving per-flow order of retry attempts) and are
/// re-offered after every event. Their latency clock keeps running from
/// `Packet::created`, so stalling shows up in the measured latency exactly
/// as source queueing would. A run that ends with packets still stalled
/// and nothing scheduled (a deadlock) is reported as saturated.
///
/// # Example
///
/// ```
/// use desim::Time;
/// use macrochip::runner::{drive, DriveLimits};
/// use netcore::{Grid, MacrochipConfig, Network, NetworkKind, PacketSource};
/// use workloads::{OpenLoopTraffic, Pattern};
///
/// let config = MacrochipConfig::scaled();
/// let mut net = networks::build(NetworkKind::PointToPoint, config);
/// let mut traffic = OpenLoopTraffic::new(&config.grid, Pattern::Uniform,
///                                        0.05, 320.0, 64, 7);
/// traffic.set_horizon(Time::from_ns(500));
/// let outcome = drive(net.as_mut(), &mut traffic, DriveLimits::default());
/// assert!(!outcome.saturated);
/// assert!(net.stats().delivered_packets() > 0);
/// ```
pub fn drive(
    net: &mut dyn Network,
    source: &mut dyn PacketSource,
    limits: DriveLimits,
) -> RunOutcome {
    drive_traced(net, source, limits, Tracer::disabled())
}

/// [`drive_traced`] with a capture hook: `observer` is called for every
/// packet the source emits, in emission order, before the network sees it.
///
/// This is how trace capture taps the runner — a
/// [`replay::CaptureSink`]-backed closure records each injected packet
/// without perturbing the run (the observer cannot reorder, drop or delay
/// packets; it only watches). Because the driver visits emissions in
/// event-time order, the observed stream is sorted by `Packet::created`.
pub fn drive_observed<F: FnMut(&Packet)>(
    net: &mut dyn Network,
    source: &mut dyn PacketSource,
    limits: DriveLimits,
    tracer: Tracer,
    observer: F,
) -> RunOutcome {
    let mut observed = ObservedSource::new(source, observer);
    drive_traced(net, &mut observed, limits, tracer)
}

/// [`drive`] with a flight-recorder handle.
///
/// The runner itself emits [`TraceEvent::Stall`] when the network first
/// refuses a packet and [`TraceEvent::Retry`] when a stalled packet is
/// finally accepted on re-offer; everything in between comes from the
/// network's own instrumentation (the tracer is **not** forwarded to the
/// network here — callers attach it via [`Network::set_tracer`] so the two
/// layers can share one sink).
pub fn drive_traced(
    net: &mut dyn Network,
    source: &mut dyn PacketSource,
    limits: DriveLimits,
    tracer: Tracer,
) -> RunOutcome {
    // Host observability brackets: deltas (the network may be driven more
    // than once, e.g. by the sustained-bandwidth bisection) roll into the
    // process-wide prof counters when the run ends. None of this touches
    // simulation state — profiling on or off, results are byte-identical.
    let events_before = net.events_processed();
    let packets_before = net.stats().delivered_packets();
    let outcome = drive_loop(net, source, limits, tracer);
    prof::add(
        Counter::SimEvents,
        net.events_processed().saturating_sub(events_before),
    );
    prof::add(
        Counter::Packets,
        net.stats()
            .delivered_packets()
            .saturating_sub(packets_before),
    );
    prof::note_sim_time(outcome.end.as_ps());
    prof::flush();
    outcome
}

/// Stall-queue key for a packet whose network named no admission queue.
const NO_HINT: u32 = u32::MAX;

/// Re-offers per loop iteration: a saturated run stays O(events)
/// instead of O(events x stalls).
const RETRIES_PER_EVENT: usize = 64;

/// Packets refused under backpressure, in re-offer order.
///
/// Packets park in a slab and two parallel FIFOs, rotated together, hold
/// each packet's slot and admission-queue key, so rotating a refused
/// packet to the back moves 8 bytes, not a whole [`Packet`]. The key is
/// the queue [`Network::admission_queue`] named when the packet was
/// refused; while [`Network::refuse_while_full`] reports it still full, a
/// re-offer is counted as refused without calling [`Network::inject`].
struct StallQueue {
    slab: PacketSlab,
    slots: VecDeque<PacketRef>,
    keys: VecDeque<u32>,
}

impl StallQueue {
    fn new() -> StallQueue {
        StallQueue {
            slab: PacketSlab::new(),
            slots: VecDeque::new(),
            keys: VecDeque::new(),
        }
    }

    fn len(&self) -> usize {
        self.slots.len()
    }

    fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Parks a packet `net` has just refused, at the back of the queue.
    #[cold]
    fn park(&mut self, net: &dyn Network, packet: Packet) {
        let queue = net.admission_queue(&packet).unwrap_or(NO_HINT);
        self.slots.push_back(self.slab.insert(packet));
        self.keys.push_back(queue);
    }

    /// Re-offers up to [`RETRIES_PER_EVENT`] stalled packets, FIFO;
    /// refused ones go to the back. A run of entries whose queues are
    /// still full costs one [`Network::refuse_while_full`] call and one
    /// rotation; the entry that ends the run is offered through
    /// [`Network::inject`]. Kept out of line so the batched open-loop
    /// path, which never stalls, compiles without it.
    #[inline(never)]
    fn reoffer(&mut self, net: &mut dyn Network, now: Time, tracer: &Tracer) {
        let window = self.len().min(RETRIES_PER_EVENT);
        let mut used = 0;
        while used < window {
            let run = self.refuse_run(net, window - used);
            self.slots.rotate_left(run);
            self.keys.rotate_left(run);
            used += run;
            if used == window {
                break;
            }
            used += 1;
            self.keys.pop_front();
            let slot = self.slots.pop_front().expect("inside the window");
            let p = self.slab.take(slot);
            // The packet is moved into the network, so its trace fields
            // are copied out beforehand — only when the flight recorder
            // is attached.
            let retry_fields = tracer.is_enabled().then(|| (p.id.0, p.src.index()));
            match net.inject(p, now) {
                Ok(()) => {
                    if let Some((id, src)) = retry_fields {
                        tracer.emit(now, || TraceEvent::Retry {
                            packet: id,
                            site: src,
                        });
                    }
                }
                Err(back) => self.park(net, back),
            }
        }
    }

    /// Refuses the front entries, at most `max`, while their queues are
    /// still full, and returns how many it refused. The run stops at the
    /// first entry with no hint; it crosses from the first half of the
    /// ring buffer into the second only if the first was refused whole.
    fn refuse_run(&self, net: &mut dyn Network, max: usize) -> usize {
        let (front, back) = self.keys.as_slices();
        let run = refuse_hinted(net, front, max);
        if run == front.len() && run < max {
            run + refuse_hinted(net, back, max - run)
        } else {
            run
        }
    }
}

/// [`Network::refuse_while_full`] on the first `max` keys, cut at the
/// first [`NO_HINT`].
fn refuse_hinted(net: &mut dyn Network, keys: &[u32], max: usize) -> usize {
    let keys = &keys[..keys.len().min(max)];
    let hinted = keys
        .iter()
        .position(|&k| k == NO_HINT)
        .map_or(keys, |cut| &keys[..cut]);
    if hinted.is_empty() {
        0
    } else {
        net.refuse_while_full(hinted)
    }
}

fn drive_loop(
    net: &mut dyn Network,
    source: &mut dyn PacketSource,
    limits: DriveLimits,
    tracer: Tracer,
) -> RunOutcome {
    let mut stalled = StallQueue::new();
    let mut emissions: Vec<Packet> = Vec::new();
    let mut delivered: Vec<Packet> = Vec::new();
    let mut now = Time::ZERO;
    let mut iterations: u32 = 0;
    // An open-loop source cannot change its schedule on a delivery, so a
    // batch-capable network may be advanced through every event up to the
    // next emission in one call instead of one driver iteration per event.
    // Stalled packets force the per-event path: they are re-offered after
    // every network event, and that retry cadence is part of the results.
    let batchable = net.supports_batched_advance() && !source.reacts_to_delivery();

    loop {
        let _dispatch = prof::span(Site::Dispatch);
        iterations = iterations.wrapping_add(1);
        if iterations.is_multiple_of(4096) {
            prof::note_sim_time(now.as_ps());
        }
        let t_src = source.next_emission();
        let t_net = net.next_event();
        let t = match (t_src, t_net) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            (None, None) => {
                // Nothing scheduled anywhere. Stalled packets left over
                // mean a deadlock (no event will ever free their queues),
                // so the network did not absorb the offered traffic.
                return RunOutcome {
                    end: now,
                    saturated: !stalled.is_empty(),
                    timed_out: false,
                };
            }
        };
        if t > limits.deadline {
            return RunOutcome {
                end: limits.deadline,
                saturated: false,
                timed_out: true,
            };
        }
        now = t;

        let mut advanced = false;
        if batchable && stalled.is_empty() {
            // Sweep the network through every event up to the next
            // emission instant (or the deadline) in one call, then inject
            // at that instant in the *same* iteration — one driver
            // iteration per emission instant instead of one per event.
            // Each event still runs at its own timestamp inside
            // `advance`, and events at the emission instant are processed
            // before the injection, so results match the per-event path
            // exactly.
            match t_src {
                Some(ts) if ts <= limits.deadline => {
                    if t_net.is_some_and(|tn| tn <= ts) {
                        let _step = prof::span(Site::NetworkStep);
                        net.advance(ts);
                        advanced = true;
                    }
                    now = ts;
                }
                // No further emissions inside the window: run the network
                // dry up to the deadline and read the clock back.
                _ => {
                    if t_net.is_some_and(|tn| tn <= limits.deadline) {
                        {
                            let _step = prof::span(Site::NetworkStep);
                            net.advance(limits.deadline);
                        }
                        advanced = true;
                        now = net.last_event_time().expect("events were due");
                    }
                }
            }
        } else {
            let _step = prof::span(Site::NetworkStep);
            net.advance(now);
            advanced = true;
        }
        // Deliveries only happen inside `advance`; an emission-only
        // iteration has nothing to drain.
        if advanced {
            let _drain = prof::span(Site::Drain);
            delivered.clear();
            net.drain_delivered_into(&mut delivered);
            for p in &delivered {
                source.on_delivered(p, now);
            }
        }

        if !stalled.is_empty() {
            let _inject = prof::span(Site::Inject);
            stalled.reoffer(net, now, &tracer);
        }

        // Emissions are due only when the clock reached the next emission
        // instant (on pure event iterations `emit_due` would be a no-op).
        if t_src.is_some_and(|ts| ts <= now) {
            emissions.clear();
            {
                let _emit = prof::span(Site::SourceEmit);
                source.emit_due(now, &mut emissions);
            }
            let _inject = prof::span(Site::Inject);
            for p in emissions.drain(..) {
                if let Err(back) = net.inject(p, now) {
                    tracer.emit(now, || TraceEvent::Stall {
                        packet: back.id.0,
                        site: back.src.index(),
                    });
                    stalled.park(net, back);
                }
            }
        }

        if stalled.len() > limits.max_stalled {
            return RunOutcome {
                end: now,
                saturated: true,
                timed_out: false,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimRng;
    use netcore::{MacrochipConfig, NetworkKind};
    use workloads::{OpenLoopTraffic, Pattern};

    fn run(kind: NetworkKind, load: f64, horizon_ns: u64) -> (RunOutcome, u64, u64) {
        let config = MacrochipConfig::scaled();
        let mut net = networks::build(kind, config);
        let mut traffic = OpenLoopTraffic::new(&config.grid, Pattern::Uniform, load, 320.0, 64, 11);
        traffic.set_horizon(Time::from_ns(horizon_ns));
        let outcome = drive(net.as_mut(), &mut traffic, DriveLimits::default());
        let delivered = net.stats().delivered_packets();
        (outcome, traffic.emitted(), delivered)
    }

    #[test]
    fn light_load_delivers_everything() {
        let (outcome, emitted, delivered) = run(NetworkKind::PointToPoint, 0.05, 1_000);
        assert!(!outcome.saturated && !outcome.timed_out);
        assert_eq!(emitted, delivered);
        assert!(emitted > 1_000);
    }

    #[test]
    fn every_network_drains_a_light_uniform_load() {
        for kind in NetworkKind::ALL {
            let (outcome, emitted, delivered) = run(kind, 0.01, 500);
            assert!(!outcome.saturated, "{kind} saturated at 1% load");
            assert_eq!(emitted, delivered, "{kind} lost packets");
        }
    }

    #[test]
    fn deadline_cuts_the_run() {
        let config = MacrochipConfig::scaled();
        let mut net = networks::build(NetworkKind::PointToPoint, config);
        let mut traffic = OpenLoopTraffic::new(&config.grid, Pattern::Uniform, 0.1, 320.0, 64, 3);
        let outcome = drive(
            net.as_mut(),
            &mut traffic,
            DriveLimits {
                deadline: Time::from_ns(200),
                max_stalled: 1_000_000,
            },
        );
        assert!(outcome.timed_out);
        assert_eq!(outcome.end, Time::from_ns(200));
    }

    #[test]
    fn overload_is_declared_saturated() {
        // The circuit-switched network cannot take uniform traffic at 50%
        // of peak (its sustainable share is ~2.5%).
        let config = MacrochipConfig::scaled();
        let mut net = networks::build(NetworkKind::CircuitSwitched, config);
        let mut traffic = OpenLoopTraffic::new(&config.grid, Pattern::Uniform, 0.5, 320.0, 64, 5);
        traffic.set_horizon(Time::from_us(50));
        let outcome = drive(
            net.as_mut(),
            &mut traffic,
            DriveLimits {
                deadline: Time::MAX,
                max_stalled: 2_000,
            },
        );
        assert!(outcome.saturated);
    }

    #[test]
    fn a_deadlocked_run_is_reported_as_saturated() {
        // A network that refuses every packet and never schedules an
        // event: the stalled packet can never drain, and the run must not
        // end as if it were clean.
        struct Jammed {
            config: MacrochipConfig,
            stats: netcore::NetStats,
        }
        impl Network for Jammed {
            fn kind(&self) -> NetworkKind {
                NetworkKind::PointToPoint
            }
            fn config(&self) -> &MacrochipConfig {
                &self.config
            }
            fn inject(&mut self, packet: Packet, _: Time) -> Result<(), Packet> {
                self.stats.on_reject();
                Err(packet)
            }
            fn next_event(&self) -> Option<Time> {
                None
            }
            fn advance(&mut self, _: Time) {}
            fn drain_delivered(&mut self) -> Vec<Packet> {
                Vec::new()
            }
            fn stats(&self) -> &netcore::NetStats {
                &self.stats
            }
        }
        let config = MacrochipConfig::scaled();
        let mut net = Jammed {
            config,
            stats: netcore::NetStats::new(),
        };
        let mut traffic = OpenLoopTraffic::new(&config.grid, Pattern::Uniform, 0.01, 320.0, 64, 1);
        traffic.set_horizon(Time::from_ns(20));
        let outcome = drive(&mut net, &mut traffic, DriveLimits::default());
        assert!(traffic.emitted() > 0);
        assert!(outcome.saturated, "deadlock reported as a clean run");
        assert!(!outcome.timed_out);
    }

    #[test]
    fn stalled_latency_counts_from_creation() {
        // Saturate one p2p channel; late packets must include their stall
        // time in measured latency.
        let config = MacrochipConfig::scaled();
        let mut net = networks::build(NetworkKind::PointToPoint, config);
        struct Burst(Vec<netcore::Packet>);
        impl PacketSource for Burst {
            fn next_emission(&self) -> Option<Time> {
                self.0.last().map(|p| p.created)
            }
            fn emit_due(&mut self, now: Time, out: &mut Vec<netcore::Packet>) {
                while self.0.last().is_some_and(|p| p.created <= now) {
                    out.push(self.0.pop().expect("checked"));
                }
            }
            fn on_delivered(&mut self, _: &netcore::Packet, _: Time) {}
            fn is_exhausted(&self) -> bool {
                self.0.is_empty()
            }
        }
        let g = config.grid;
        let packets: Vec<_> = (0..40)
            .map(|i| {
                netcore::Packet::new(
                    netcore::PacketId(i),
                    g.site(0, 0),
                    g.site(1, 0),
                    64,
                    netcore::MessageKind::Data,
                    Time::ZERO,
                )
            })
            .rev()
            .collect();
        let mut src = Burst(packets);
        drive(net.as_mut(), &mut src, DriveLimits::default());
        let stats = net.stats();
        assert_eq!(stats.delivered_packets(), 40);
        // 40 packets at 12.8 ns serialization each: the last one waited
        // ~500 ns even though the channel queue holds only 16.
        assert!(stats.latency().max().as_ns_f64() > 400.0);
    }

    /// The per-entry re-offer loop the batched [`StallQueue::reoffer`]
    /// replaced, kept as its oracle: one `refuse_if_full` call, or one
    /// `inject`, and one pop and push per entry.
    struct PerEntryStallQueue {
        slab: PacketSlab,
        fifo: VecDeque<(PacketRef, u32)>,
    }

    impl PerEntryStallQueue {
        fn park(&mut self, net: &dyn Network, packet: Packet) {
            let queue = net.admission_queue(&packet).unwrap_or(NO_HINT);
            self.fifo.push_back((self.slab.insert(packet), queue));
        }

        fn reoffer(&mut self, net: &mut dyn Network, now: Time) {
            for _ in 0..self.fifo.len().min(RETRIES_PER_EVENT) {
                let (slot, queue) = self.fifo.pop_front().expect("len checked");
                if queue != NO_HINT && net.refuse_if_full(queue) {
                    self.fifo.push_back((slot, queue));
                    continue;
                }
                let p = self.slab.take(slot);
                if let Err(back) = net.inject(p, now) {
                    self.park(net, back);
                }
            }
        }
    }

    const SCRIPTED_KEYS: usize = 5;

    /// A network whose admission queues are a fullness bit per key. Every
    /// fourth packet gets no hint and is refused at random. `inject` may
    /// fill the packet's queue and free another one, and `advance` flips
    /// queues at random; all draws come from the network's own seeded
    /// generator, so two copies stay in step as long as they are driven
    /// through the same `inject` and `advance` calls. `refuse_if_full`
    /// draws nothing and panics on a key it never handed out.
    struct Scripted {
        config: MacrochipConfig,
        stats: netcore::NetStats,
        full: [bool; SCRIPTED_KEYS],
        rng: SimRng,
        injects: Vec<(u64, bool)>,
        frees: u64,
    }

    impl Scripted {
        fn new(seed: u64) -> Scripted {
            Scripted {
                config: MacrochipConfig::scaled(),
                stats: netcore::NetStats::new(),
                full: [true; SCRIPTED_KEYS],
                rng: SimRng::new(seed),
                injects: Vec::new(),
                frees: 0,
            }
        }
    }

    impl Network for Scripted {
        fn kind(&self) -> NetworkKind {
            NetworkKind::PointToPoint
        }
        fn config(&self) -> &MacrochipConfig {
            &self.config
        }
        fn inject(&mut self, packet: Packet, now: Time) -> Result<(), Packet> {
            let refused = match self.admission_queue(&packet) {
                Some(key) => self.full[key as usize],
                None => self.rng.chance(0.5),
            };
            self.injects.push((packet.id.0, !refused));
            if refused {
                self.stats.on_reject();
                return Err(packet);
            }
            self.stats.on_inject(now);
            if let Some(key) = self.admission_queue(&packet) {
                self.full[key as usize] = self.rng.chance(0.5);
            }
            if self.rng.chance(1.0 / 3.0) {
                let other = self.rng.range(0..SCRIPTED_KEYS);
                self.frees += u64::from(self.full[other]);
                self.full[other] = false;
            }
            Ok(())
        }
        fn admission_queue(&self, packet: &Packet) -> Option<u32> {
            let id = packet.id.0;
            (!id.is_multiple_of(4)).then_some((id / 4 % SCRIPTED_KEYS as u64) as u32)
        }
        fn refuse_if_full(&mut self, queue: u32) -> bool {
            self.stats.reject_if(self.full[queue as usize])
        }
        fn next_event(&self) -> Option<Time> {
            None
        }
        fn advance(&mut self, _: Time) {
            for key in 0..SCRIPTED_KEYS {
                if self.rng.chance(1.0 / 3.0) {
                    self.full[key] = !self.full[key];
                }
            }
        }
        fn drain_delivered(&mut self) -> Vec<Packet> {
            Vec::new()
        }
        fn stats(&self) -> &netcore::NetStats {
            &self.stats
        }
    }

    /// The oracle and the batched queue, each driving its own copy of one
    /// scripted network.
    struct Twins {
        oracle: PerEntryStallQueue,
        oracle_net: Scripted,
        batched: StallQueue,
        batched_net: Scripted,
        next_id: u64,
    }

    impl Twins {
        fn new(seed: u64) -> Twins {
            Twins {
                oracle: PerEntryStallQueue {
                    slab: PacketSlab::new(),
                    fifo: VecDeque::new(),
                },
                oracle_net: Scripted::new(seed),
                batched: StallQueue::new(),
                batched_net: Scripted::new(seed),
                next_id: 0,
            }
        }

        /// Offers `count` fresh packets to both sides; refused ones park.
        fn offer(&mut self, count: usize, now: Time) {
            let grid = &self.oracle_net.config.grid;
            let (src, dst) = (grid.site(0, 0), grid.site(1, 0));
            for _ in 0..count {
                let id = netcore::PacketId(self.next_id);
                let p = Packet::new(id, src, dst, 64, netcore::MessageKind::Data, now);
                self.next_id += 1;
                if let Err(back) = self.oracle_net.inject(p, now) {
                    self.oracle.park(&self.oracle_net, back);
                }
                if let Err(back) = self.batched_net.inject(p, now) {
                    self.batched.park(&self.batched_net, back);
                }
            }
        }
    }

    #[test]
    fn batched_reoffer_matches_the_per_entry_oracle() {
        let (mut wrapped, mut short, mut long, mut unhinted, mut freed) = (0, 0, 0, 0, 0);
        for seed in 0..200u64 {
            let mut script = SimRng::new(seed ^ 0x5eed);
            let mut t = Twins::new(seed);
            // Up to ~200 entries at the start: windows both shorter and
            // longer than RETRIES_PER_EVENT.
            t.offer(script.range(0..200), Time::ZERO);
            for round in 1..40u64 {
                let now = Time::from_ns(round);
                t.oracle_net.advance(now);
                t.batched_net.advance(now);
                let len = t.batched.len();
                let window = len.min(RETRIES_PER_EVENT);
                wrapped += usize::from(t.batched.keys.as_slices().0.len() < window);
                short += usize::from(window > 0 && len < RETRIES_PER_EVENT);
                long += usize::from(len > RETRIES_PER_EVENT);
                unhinted += usize::from(t.batched.keys.iter().take(window).any(|&k| k == NO_HINT));
                let frees = t.batched_net.frees;
                t.oracle.reoffer(&mut t.oracle_net, now);
                t.batched
                    .reoffer(&mut t.batched_net, now, &Tracer::disabled());
                freed += usize::from(t.batched_net.frees > frees);

                let at = format!("seed {seed} round {round}");
                assert_eq!(t.oracle_net.injects, t.batched_net.injects, "{at}");
                assert_eq!(
                    t.oracle_net.stats.rejected_packets(),
                    t.batched_net.stats.rejected_packets(),
                    "{at}"
                );
                let oracle_order: Vec<_> = t
                    .oracle
                    .fifo
                    .iter()
                    .map(|&(slot, key)| (t.oracle.slab.get(slot).id, key))
                    .collect();
                let batched_order: Vec<_> = t
                    .batched
                    .slots
                    .iter()
                    .zip(&t.batched.keys)
                    .map(|(&slot, &key)| (t.batched.slab.get(slot).id, key))
                    .collect();
                assert_eq!(oracle_order, batched_order, "{at}");

                t.offer(script.range(0..6), now);
            }
        }
        // Every case the batched loop distinguishes was exercised.
        assert!(wrapped > 0, "no window wrapped the ring buffer");
        assert!(short > 0 && long > 0, "short {short}, long {long}");
        assert!(unhinted > 0, "no window held an unhinted entry");
        assert!(freed > 0, "no accepted inject freed a queue");
    }
}
