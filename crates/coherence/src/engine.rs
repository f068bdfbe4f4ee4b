//! The closed-loop coherence engine.
//!
//! The engine plays the role of the paper's CPU simulator + coherence
//! protocol layer (§5): every core alternates compute gaps and L2 misses.
//! With the default blocking cores (the paper's single-issue, in-order,
//! one-thread cores, Table 4) a miss stalls its core until it completes;
//! the optional trace-rate mode overlaps misses up to the site's finite
//! MSHR count instead. Each miss becomes a [`OpSpec`] that the engine
//! expands into the MOESI message sequence over the network:
//!
//! ```text
//!   requester --Request--> home
//!   home --Forward--> owner          (dirty line elsewhere)
//!   home --Invalidate--> sharers     (writes/upgrades)
//!   home/owner --Data--> requester
//!   sharers --Ack--> requester
//! ```
//!
//! The operation completes when the requester has its data and all
//! acknowledgments; the elapsed time is the paper's *latency per coherence
//! operation* (Figure 8). Finite MSHRs per site stall cores when
//! exhausted; same-line secondary misses merge into the primary.
//!
//! The engine implements [`PacketSource`], so the same driver runs it over
//! any of the five networks.

use crate::ops::{NextMiss, OpKind, OpSource, OpSpec};
use desim::stats::LatencyHistogram;
use desim::{EventQueue, Span, Time, TraceEvent, Tracer};
use netcore::{FxHashMap, MacrochipConfig, MessageKind, Packet, PacketId, PacketSource, SiteId};
use std::collections::VecDeque;

/// Timing and capacity parameters of the coherence layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EngineConfig {
    /// Local memory access at the home site (clean misses).
    pub mem_latency: Span,
    /// Directory lookup at the home site.
    pub dir_latency: Span,
    /// Remote cache access (forwards, invalidation handling).
    pub cache_latency: Span,
    /// Miss-status holding registers per site.
    pub mshrs_per_site: usize,
    /// When true (the default, matching the paper's single-issue in-order
    /// cores), a core's next miss follows `gap` after its previous miss
    /// *completes*. When false, misses issue at trace rate — `gap` after
    /// the previous *issue* — overlapping up to the MSHR limit (used by
    /// the nonblocking-core ablation).
    pub blocking_cores: bool,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            mem_latency: Span::from_ns(30),
            dir_latency: Span::from_ps(400),   // two 5 GHz cycles
            cache_latency: Span::from_ps(400), // two 5 GHz cycles
            mshrs_per_site: 32,
            blocking_cores: true,
        }
    }
}

/// Aggregate results of a coherent run.
#[derive(Debug, Clone)]
pub struct OpStats {
    issued: u64,
    completed: u64,
    merged: u64,
    latency: LatencyHistogram,
    last_completion: Time,
}

impl OpStats {
    fn new() -> OpStats {
        OpStats {
            issued: 0,
            completed: 0,
            merged: 0,
            latency: LatencyHistogram::new(),
            last_completion: Time::ZERO,
        }
    }

    /// Operations issued (including merged secondaries).
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Operations completed.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Secondary misses merged into an outstanding primary.
    pub fn merged(&self) -> u64 {
        self.merged
    }

    /// Latency distribution per coherence operation (Figure 8's metric).
    pub fn latency(&self) -> &LatencyHistogram {
        &self.latency
    }

    /// Completion time of the last operation — the run's makespan
    /// (Figure 7's speedup metric compares these across networks).
    pub fn last_completion(&self) -> Time {
        self.last_completion
    }
}

type CoreKey = (SiteId, usize);

#[derive(Debug)]
enum EngEv {
    /// A core's next miss reaches the head of its pipeline.
    Issue { core: CoreKey, op: OpSpec },
    /// A protocol message leaves a site after its processing delay.
    Emit { packet: Packet },
}

#[derive(Debug)]
struct OpState {
    spec: OpSpec,
    core: CoreKey,
    issued: Time,
    acks_needed: usize,
    acks_got: usize,
    data_needed: bool,
    data_got: bool,
    /// Secondary misses merged into this op: (core, issue time).
    merged: Vec<(CoreKey, Time)>,
}

impl OpState {
    fn is_complete(&self) -> bool {
        (!self.data_needed || self.data_got) && self.acks_got >= self.acks_needed
    }
}

/// The coherence engine: an [`OpSource`] of per-core misses in, a stream
/// of protocol packets out.
///
/// # Example
///
/// ```
/// use coherence::engine::{CoherenceEngine, EngineConfig};
/// use coherence::ops::{NextMiss, OpKind, OpSpec, ScriptedSource};
/// use desim::Span;
/// use netcore::{MacrochipConfig, PacketSource, SiteId};
///
/// let config = MacrochipConfig::scaled();
/// let mut src = ScriptedSource::new();
/// src.push(config.grid.site(0, 0), 0, NextMiss {
///     gap: Span::from_ns(5),
///     op: OpSpec {
///         requester: config.grid.site(0, 0),
///         home: config.grid.site(3, 3),
///         kind: OpKind::Read,
///         owner: None,
///         sharers: vec![],
///         line: 0x40,
///     },
/// });
/// let engine = CoherenceEngine::new(config, EngineConfig::default(), src);
/// assert!(!engine.is_exhausted());
/// ```
pub struct CoherenceEngine<S: OpSource> {
    net_config: MacrochipConfig,
    config: EngineConfig,
    source: S,
    events: EventQueue<EngEv>,
    ops: FxHashMap<u64, OpState>,
    /// (site index, line) → outstanding primary op id.
    pending_lines: FxHashMap<(usize, u64), u64>,
    /// Registers in use per site.
    mshrs_used: Vec<usize>,
    /// Cores whose issue stalled on a full MSHR file, per site.
    mshr_waiters: Vec<VecDeque<(CoreKey, OpSpec)>>,
    active_cores: usize,
    next_op_id: u64,
    next_packet_id: u64,
    stats: OpStats,
    tracer: Tracer,
}

impl<S: OpSource> CoherenceEngine<S> {
    /// Creates the engine and schedules every core's first miss.
    pub fn new(
        net_config: MacrochipConfig,
        config: EngineConfig,
        mut source: S,
    ) -> CoherenceEngine<S> {
        let sites = net_config.grid.sites();
        let mut events = EventQueue::new();
        let mut active_cores = 0;
        for site in net_config.grid.iter() {
            for core in 0..net_config.cores_per_site {
                if let Some(NextMiss { gap, op }) = source.next_miss(site, core) {
                    active_cores += 1;
                    events.push(
                        Time::ZERO + gap,
                        EngEv::Issue {
                            core: (site, core),
                            op,
                        },
                    );
                }
            }
        }
        CoherenceEngine {
            net_config,
            config,
            source,
            events,
            ops: FxHashMap::default(),
            pending_lines: FxHashMap::default(),
            mshrs_used: vec![0; sites],
            mshr_waiters: (0..sites).map(|_| VecDeque::new()).collect(),
            active_cores,
            next_op_id: 0,
            next_packet_id: 0,
            stats: OpStats::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Results so far.
    pub fn stats(&self) -> &OpStats {
        &self.stats
    }

    /// Attaches a flight-recorder handle; MOESI state transitions are
    /// emitted as [`TraceEvent::Coherence`] records.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Cores still with work to do.
    pub fn active_cores(&self) -> usize {
        self.active_cores
    }

    fn packet(
        &mut self,
        src: SiteId,
        dst: SiteId,
        kind: MessageKind,
        op: u64,
        now: Time,
    ) -> Packet {
        let id = PacketId(self.next_packet_id);
        self.next_packet_id += 1;
        let bytes = self.net_config.message_bytes(kind);
        Packet::new(id, src, dst, bytes, kind, now).with_op(op)
    }

    /// Handles an `Issue` event: allocate an MSHR (or merge / stall) and
    /// send the request.
    ///
    /// Cores issue misses at their trace rate (the paper drives its
    /// network simulator the same way, §5): a core's next miss follows
    /// `gap` after this one *issues*, so several misses can be in flight,
    /// bounded only by the site's MSHRs. A core whose miss cannot get an
    /// MSHR stalls — no further misses issue until it is admitted.
    fn on_issue(&mut self, core: CoreKey, op: OpSpec, now: Time, out: &mut Vec<Packet>) {
        debug_assert_eq!(core.0, op.requester, "core issues from its own site");
        self.stats.issued += 1;
        self.admit(core, op, now, out);
    }

    /// Merges, starts, or queues an operation, and keeps the core's issue
    /// chain going in the first two cases.
    fn admit(&mut self, core: CoreKey, op: OpSpec, now: Time, out: &mut Vec<Packet>) {
        let site = op.requester.index();
        if let Some(&primary) = self.pending_lines.get(&(site, op.line)) {
            // Secondary miss: merge into the outstanding primary (no MSHR
            // consumed). A blocking core resumes when the primary
            // completes; a trace-rate core keeps issuing.
            self.stats.merged += 1;
            self.ops
                .get_mut(&primary)
                .expect("pending line has a live primary")
                .merged
                .push((core, now));
            if !self.config.blocking_cores {
                self.schedule_next(core, now);
            }
            return;
        }
        if self.mshrs_used[site] >= self.config.mshrs_per_site {
            // The core stalls until a register frees.
            self.mshr_waiters[site].push_back((core, op));
            return;
        }
        self.start_op(core, op, now, out);
    }

    fn start_op(&mut self, core: CoreKey, op: OpSpec, now: Time, out: &mut Vec<Packet>) {
        #[cfg(debug_assertions)]
        op.validate();
        let site = op.requester.index();
        self.mshrs_used[site] += 1;
        let id = self.next_op_id;
        self.next_op_id += 1;
        self.pending_lines.insert((site, op.line), id);
        let request = self.packet(op.requester, op.home, MessageKind::Request, id, now);
        let acks_needed = op.acks_needed() + usize::from(op.kind == OpKind::Upgrade);
        let data_needed = op.needs_data();
        self.ops.insert(
            id,
            OpState {
                spec: op,
                core,
                issued: now,
                acks_needed,
                acks_got: 0,
                data_needed,
                data_got: false,
                merged: Vec::new(),
            },
        );
        out.push(request);
        if !self.config.blocking_cores {
            // Trace-rate cores issue their next miss without waiting.
            self.schedule_next(core, now);
        }
    }

    /// The home site processed the request: fan out the protocol messages.
    fn on_request_at_home(&mut self, op_id: u64, now: Time) {
        let (spec, requester) = {
            let st = &self.ops[&op_id];
            (st.spec.clone(), st.spec.requester)
        };
        let after_dir = now + self.config.dir_latency;
        // Invalidations to every stale sharer (writes/upgrades).
        for sharer in &spec.sharers {
            let p = self.packet(
                spec.home,
                *sharer,
                MessageKind::Invalidate,
                op_id,
                after_dir,
            );
            self.events.push(after_dir, EngEv::Emit { packet: p });
        }
        match spec.kind {
            OpKind::Upgrade => {
                // Permission grant, no data.
                let p = self.packet(spec.home, requester, MessageKind::Ack, op_id, after_dir);
                self.events.push(after_dir, EngEv::Emit { packet: p });
            }
            OpKind::Read | OpKind::Write => {
                if let Some(owner) = spec.owner {
                    // Dirty elsewhere: forward; the owner supplies data.
                    let p = self.packet(spec.home, owner, MessageKind::Forward, op_id, after_dir);
                    self.events.push(after_dir, EngEv::Emit { packet: p });
                } else {
                    // Clean: the home's local memory supplies data.
                    let at = after_dir + self.config.mem_latency;
                    let p = self.packet(spec.home, requester, MessageKind::Data, op_id, at);
                    self.events.push(at, EngEv::Emit { packet: p });
                }
            }
        }
    }

    fn on_forward_at_owner(&mut self, op_id: u64, now: Time) {
        let (owner, requester, kind) = {
            let st = &self.ops[&op_id];
            (
                st.spec.owner.expect("forward implies an owner"),
                st.spec.requester,
                st.spec.kind,
            )
        };
        // The dirty owner downgrades: readers leave it owning a stale-able
        // copy (M->O), writers take the line away entirely (M->I).
        let transition = if kind == OpKind::Read { "M->O" } else { "M->I" };
        self.tracer.emit(now, || TraceEvent::Coherence {
            op: op_id,
            site: owner.index(),
            transition,
        });
        let at = now + self.config.cache_latency;
        let p = self.packet(owner, requester, MessageKind::Data, op_id, at);
        self.events.push(at, EngEv::Emit { packet: p });
    }

    fn on_invalidate_at_sharer(&mut self, op_id: u64, sharer: SiteId, now: Time) {
        let requester = self.ops[&op_id].spec.requester;
        self.tracer.emit(now, || TraceEvent::Coherence {
            op: op_id,
            site: sharer.index(),
            transition: "S->I",
        });
        let at = now + self.config.cache_latency;
        let p = self.packet(sharer, requester, MessageKind::Ack, op_id, at);
        self.events.push(at, EngEv::Emit { packet: p });
    }

    fn maybe_complete(&mut self, op_id: u64, now: Time, out: &mut Vec<Packet>) {
        if !self.ops[&op_id].is_complete() {
            return;
        }
        let st = self.ops.remove(&op_id).expect("op exists");
        let site = st.spec.requester.index();
        self.pending_lines.remove(&(site, st.spec.line));
        self.mshrs_used[site] -= 1;

        // The requester's line reaches its final MOESI state.
        let transition = match st.spec.kind {
            OpKind::Read if st.spec.owner.is_some() => "I->S",
            OpKind::Read => "I->E",
            OpKind::Write => "I->M",
            OpKind::Upgrade => "S->M",
        };
        self.tracer.emit(now, || TraceEvent::Coherence {
            op: op_id,
            site,
            transition,
        });

        self.stats.completed += 1;
        self.stats.latency.record(now.saturating_since(st.issued));
        self.stats.last_completion = self.stats.last_completion.max(now);
        if self.config.blocking_cores {
            self.schedule_next(st.core, now);
        }
        for (core, issued) in st.merged {
            self.stats.completed += 1;
            self.stats.latency.record(now.saturating_since(issued));
            if self.config.blocking_cores {
                self.schedule_next(core, now);
            }
        }

        // A register freed: admit stalled cores. A pop that merges frees
        // nothing, so keep admitting until a start consumes the register
        // or the queue empties.
        while self.mshrs_used[site] < self.config.mshrs_per_site {
            let Some((core, op)) = self.mshr_waiters[site].pop_front() else {
                break;
            };
            self.admit(core, op, now, out);
        }
    }

    fn schedule_next(&mut self, core: CoreKey, now: Time) {
        match self.source.next_miss(core.0, core.1) {
            Some(NextMiss { gap, op }) => {
                self.events.push(now + gap, EngEv::Issue { core, op });
            }
            None => self.active_cores -= 1,
        }
    }

    /// Checks the engine's structural invariants and returns any
    /// violations found (empty when healthy). Cheap enough to call after
    /// every drain step under `--audit`, or once at end of run:
    ///
    /// * **MSHRs never leak** — each live primary op holds exactly one
    ///   register at its requester site, so the per-site live-op count
    ///   must equal `mshrs_used`, which must never exceed the configured
    ///   file size; once the engine drains, every register is free.
    /// * **Waiters only queue on a full file** — a core stalled in
    ///   `mshr_waiters` while registers are free would be a lost wakeup.
    /// * **Pending-line table is a bijection** — every `(site, line)`
    ///   entry names a live op for that site and line, and every live op
    ///   is findable by its `(site, line)` key (no dangling or shadowed
    ///   entries).
    /// * **Directory owner/sharer exclusivity** — a live op's snapshot
    ///   never lists the owner or the requester among the sharers to
    ///   invalidate, never lists a sharer twice, and never collects more
    ///   acks than it asked for.
    pub fn check_invariants(&self, now: Time) -> Vec<netcore::AuditViolation> {
        let mut violations = Vec::new();
        let mut flag =
            |check: &'static str, op: Option<u64>, site: Option<usize>, detail: String| {
                violations.push(netcore::AuditViolation {
                    check,
                    packet: op,
                    site,
                    at: now,
                    detail,
                });
            };

        let sites = self.net_config.grid.sites();
        let mut live_per_site = vec![0usize; sites];
        for (&op_id, st) in &self.ops {
            let site = st.spec.requester.index();
            if let Some(slot) = live_per_site.get_mut(site) {
                *slot += 1;
            }
            match self.pending_lines.get(&(site, st.spec.line)) {
                Some(&primary) if primary == op_id => {}
                Some(&primary) => flag(
                    "coherence.pending-line-shadowed",
                    Some(op_id),
                    Some(site),
                    format!(
                        "live op on line {:#x} shadowed by op {} in the pending table",
                        st.spec.line, primary
                    ),
                ),
                None => flag(
                    "coherence.pending-line-missing",
                    Some(op_id),
                    Some(site),
                    format!(
                        "live op on line {:#x} absent from the pending table",
                        st.spec.line
                    ),
                ),
            }
            if st.spec.owner == Some(st.spec.requester) {
                flag(
                    "coherence.requester-owns-line",
                    Some(op_id),
                    Some(site),
                    "op snapshot names the requester as the line's owner".into(),
                );
            }
            if st.spec.sharers.contains(&st.spec.requester) {
                flag(
                    "coherence.requester-among-sharers",
                    Some(op_id),
                    Some(site),
                    "op snapshot lists the requester among sharers to invalidate".into(),
                );
            }
            if let Some(owner) = st.spec.owner {
                if st.spec.sharers.contains(&owner) {
                    flag(
                        "coherence.owner-among-sharers",
                        Some(op_id),
                        Some(site),
                        format!(
                            "site {owner} is both owner and sharer of line {:#x}",
                            st.spec.line
                        ),
                    );
                }
            }
            let mut sharers = st.spec.sharers.clone();
            sharers.sort_unstable();
            sharers.dedup();
            if sharers.len() != st.spec.sharers.len() {
                flag(
                    "coherence.duplicate-sharer",
                    Some(op_id),
                    Some(site),
                    format!(
                        "sharer list for line {:#x} contains duplicates",
                        st.spec.line
                    ),
                );
            }
            if st.acks_got > st.acks_needed {
                flag(
                    "coherence.ack-overflow",
                    Some(op_id),
                    Some(site),
                    format!(
                        "collected {} acks but only {} expected",
                        st.acks_got, st.acks_needed
                    ),
                );
            }
        }

        for (&(site, line), &op_id) in &self.pending_lines {
            match self.ops.get(&op_id) {
                None => flag(
                    "coherence.pending-line-dangling",
                    Some(op_id),
                    Some(site),
                    format!("pending table entry for line {line:#x} names a completed op"),
                ),
                Some(st) => {
                    if st.spec.requester.index() != site || st.spec.line != line {
                        flag(
                            "coherence.pending-line-mismatch",
                            Some(op_id),
                            Some(site),
                            format!(
                                "pending entry (site {site}, line {line:#x}) names an op for \
                                 site {} line {:#x}",
                                st.spec.requester.index(),
                                st.spec.line
                            ),
                        );
                    }
                }
            }
        }

        for (site, (&used, &live)) in self.mshrs_used.iter().zip(&live_per_site).enumerate() {
            if used != live {
                flag(
                    "coherence.mshr-leak",
                    None,
                    Some(site),
                    format!("{used} registers in use vs {live} live ops at the site"),
                );
            }
            if used > self.config.mshrs_per_site {
                flag(
                    "coherence.mshr-overcommit",
                    None,
                    Some(site),
                    format!(
                        "{used} registers in use vs a file of {}",
                        self.config.mshrs_per_site
                    ),
                );
            }
            if !self.mshr_waiters[site].is_empty() && used < self.config.mshrs_per_site {
                flag(
                    "coherence.mshr-waiter-stall",
                    None,
                    Some(site),
                    format!(
                        "{} cores queued while {} of {} registers are free",
                        self.mshr_waiters[site].len(),
                        self.config.mshrs_per_site - used,
                        self.config.mshrs_per_site
                    ),
                );
            }
        }
        violations
    }
}

impl<S: OpSource> PacketSource for CoherenceEngine<S> {
    fn next_emission(&self) -> Option<Time> {
        self.events.peek_time()
    }

    fn emit_due(&mut self, now: Time, out: &mut Vec<Packet>) {
        while let Some((t, ev)) = self.events.pop_due(now) {
            match ev {
                EngEv::Issue { core, op } => self.on_issue(core, op, t, out),
                EngEv::Emit { packet } => out.push(packet),
            }
        }
    }

    fn on_delivered(&mut self, packet: &Packet, now: Time) {
        let op_id = packet
            .op
            .expect("coherence packets always carry their op id");
        if !self.ops.contains_key(&op_id) {
            debug_assert!(false, "delivery for a completed op");
            return;
        }
        let mut out = Vec::new();
        match packet.kind {
            MessageKind::Request => self.on_request_at_home(op_id, now),
            MessageKind::Forward => self.on_forward_at_owner(op_id, now),
            MessageKind::Invalidate => self.on_invalidate_at_sharer(op_id, packet.dst, now),
            MessageKind::Data => {
                self.ops.get_mut(&op_id).expect("checked above").data_got = true;
                self.maybe_complete(op_id, now, &mut out);
            }
            MessageKind::Ack => {
                self.ops.get_mut(&op_id).expect("checked above").acks_got += 1;
                self.maybe_complete(op_id, now, &mut out);
            }
            MessageKind::Control => {
                debug_assert!(false, "the engine never sends Control packets");
            }
        }
        // Packets produced synchronously (an MSHR waiter admitted at
        // completion) are due immediately; queue them as zero-delay
        // emissions so the driver picks them up.
        for p in out {
            self.events.push(now, EngEv::Emit { packet: p });
        }
    }

    fn is_exhausted(&self) -> bool {
        self.active_cores == 0 && self.ops.is_empty() && self.events.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::ScriptedSource;

    fn config() -> MacrochipConfig {
        MacrochipConfig::scaled()
    }

    fn s(cfg: &MacrochipConfig, x: usize, y: usize) -> SiteId {
        cfg.grid.site(x, y)
    }

    fn read_op(cfg: &MacrochipConfig, req: SiteId, home: SiteId, line: u64) -> OpSpec {
        let _ = cfg;
        OpSpec {
            requester: req,
            home,
            kind: OpKind::Read,
            owner: None,
            sharers: vec![],
            line,
        }
    }

    /// Runs the engine against an "ideal" zero-latency network: every
    /// emitted packet is delivered instantly. Returns stats.
    fn run_ideal<Src: OpSource>(engine: &mut CoherenceEngine<Src>) -> u64 {
        let mut guard = 0;
        while !engine.is_exhausted() {
            let t = engine.next_emission().expect("engine not exhausted");
            let mut out = Vec::new();
            engine.emit_due(t, &mut out);
            for mut p in out {
                p.delivered = Some(t); // zero network latency
                engine.on_delivered(&p, t);
            }
            guard += 1;
            assert!(guard < 1_000_000, "engine did not converge");
        }
        engine.stats().completed()
    }

    #[test]
    fn clean_read_completes_with_request_and_data() {
        let cfg = config();
        let mut src = ScriptedSource::new();
        let (a, h) = (s(&cfg, 0, 0), s(&cfg, 3, 3));
        src.push(
            a,
            0,
            NextMiss {
                gap: Span::from_ns(1),
                op: read_op(&cfg, a, h, 0x40),
            },
        );
        let mut eng = CoherenceEngine::new(cfg, EngineConfig::default(), src);
        assert_eq!(run_ideal(&mut eng), 1);
        // Latency on an ideal network = dir + mem latency.
        let lat = eng.stats().latency().mean().as_ns_f64();
        assert!((lat - 30.4).abs() < 1e-6, "latency {lat}");
    }

    #[test]
    fn dirty_read_fetches_from_owner_not_memory() {
        let cfg = config();
        let mut src = ScriptedSource::new();
        let (a, h, o) = (s(&cfg, 0, 0), s(&cfg, 3, 3), s(&cfg, 5, 5));
        src.push(
            a,
            0,
            NextMiss {
                gap: Span::ZERO,
                op: OpSpec {
                    requester: a,
                    home: h,
                    kind: OpKind::Read,
                    owner: Some(o),
                    sharers: vec![],
                    line: 0x40,
                },
            },
        );
        let mut eng = CoherenceEngine::new(cfg, EngineConfig::default(), src);
        assert_eq!(run_ideal(&mut eng), 1);
        // dir (0.4) + owner cache (0.4): far below the 30 ns memory.
        let lat = eng.stats().latency().mean().as_ns_f64();
        assert!((lat - 0.8).abs() < 1e-6, "latency {lat}");
    }

    #[test]
    fn write_with_sharers_collects_all_acks() {
        let cfg = config();
        let mut src = ScriptedSource::new();
        let (a, h) = (s(&cfg, 0, 0), s(&cfg, 3, 3));
        let sharers = vec![s(&cfg, 1, 1), s(&cfg, 2, 2), s(&cfg, 4, 4)];
        src.push(
            a,
            0,
            NextMiss {
                gap: Span::ZERO,
                op: OpSpec {
                    requester: a,
                    home: h,
                    kind: OpKind::Write,
                    owner: None,
                    sharers,
                    line: 0x40,
                },
            },
        );
        let mut eng = CoherenceEngine::new(cfg, EngineConfig::default(), src);
        assert_eq!(run_ideal(&mut eng), 1);
        // Completion gated on memory (30.4) — invalidation acks (0.8)
        // overlap with it.
        let lat = eng.stats().latency().mean().as_ns_f64();
        assert!((lat - 30.4).abs() < 1e-6, "latency {lat}");
    }

    #[test]
    fn upgrade_needs_grant_and_acks_but_no_data() {
        let cfg = config();
        let mut src = ScriptedSource::new();
        let (a, h) = (s(&cfg, 0, 0), s(&cfg, 3, 3));
        src.push(
            a,
            0,
            NextMiss {
                gap: Span::ZERO,
                op: OpSpec {
                    requester: a,
                    home: h,
                    kind: OpKind::Upgrade,
                    owner: None,
                    sharers: vec![s(&cfg, 2, 2)],
                    line: 0x40,
                },
            },
        );
        let mut eng = CoherenceEngine::new(cfg, EngineConfig::default(), src);
        assert_eq!(run_ideal(&mut eng), 1);
        // No 30 ns memory access: just dir + cache latencies.
        assert!(eng.stats().latency().mean().as_ns_f64() < 1.0);
    }

    #[test]
    fn same_line_secondary_miss_merges() {
        let cfg = config();
        let mut src = ScriptedSource::new();
        let (a, h) = (s(&cfg, 0, 0), s(&cfg, 3, 3));
        // Two cores of the same site miss the same line simultaneously.
        src.push(
            a,
            0,
            NextMiss {
                gap: Span::ZERO,
                op: read_op(&cfg, a, h, 0x40),
            },
        );
        src.push(
            a,
            1,
            NextMiss {
                gap: Span::ZERO,
                op: read_op(&cfg, a, h, 0x40),
            },
        );
        let mut eng = CoherenceEngine::new(cfg, EngineConfig::default(), src);
        assert_eq!(run_ideal(&mut eng), 2);
        assert_eq!(eng.stats().merged(), 1);
    }

    #[test]
    fn mshr_exhaustion_stalls_then_admits() {
        let cfg = config();
        let mut src = ScriptedSource::new();
        let (a, h) = (s(&cfg, 0, 0), s(&cfg, 3, 3));
        // More simultaneous distinct-line misses than MSHRs.
        let mshrs = 2;
        for core in 0..4 {
            src.push(
                a,
                core,
                NextMiss {
                    gap: Span::ZERO,
                    op: read_op(&cfg, a, h, 0x40 * (core as u64 + 1)),
                },
            );
        }
        let eng_cfg = EngineConfig {
            mshrs_per_site: mshrs,
            ..EngineConfig::default()
        };
        let mut eng = CoherenceEngine::new(cfg, eng_cfg, src);
        assert_eq!(run_ideal(&mut eng), 4);
    }

    #[test]
    fn blocking_cores_serialize_their_misses() {
        let cfg = config();
        let mut src = ScriptedSource::new();
        let (a, h) = (s(&cfg, 0, 0), s(&cfg, 3, 3));
        for i in 0..5u64 {
            src.push(
                a,
                0,
                NextMiss {
                    gap: Span::from_ns(2),
                    op: read_op(&cfg, a, h, 0x40 * (i + 1)),
                },
            );
        }
        let mut eng = CoherenceEngine::new(cfg, EngineConfig::default(), src);
        assert_eq!(run_ideal(&mut eng), 5);
        // In-order cores: each miss waits for the previous to complete.
        let makespan = eng.stats().last_completion().as_ns_f64();
        assert!((makespan - 5.0 * 32.4).abs() < 1e-6, "makespan {makespan}");
    }

    #[test]
    fn trace_rate_cores_pipeline_misses() {
        let cfg = config();
        let mut src = ScriptedSource::new();
        let (a, h) = (s(&cfg, 0, 0), s(&cfg, 3, 3));
        for i in 0..5u64 {
            src.push(
                a,
                0,
                NextMiss {
                    gap: Span::from_ns(2),
                    op: read_op(&cfg, a, h, 0x40 * (i + 1)),
                },
            );
        }
        let eng_cfg = EngineConfig {
            blocking_cores: false,
            ..EngineConfig::default()
        };
        let mut eng = CoherenceEngine::new(cfg, eng_cfg, src);
        assert_eq!(run_ideal(&mut eng), 5);
        // Misses overlap: the last op issues at 5 x 2 ns and completes one
        // memory latency later — far sooner than five serialized misses.
        let makespan = eng.stats().last_completion().as_ns_f64();
        assert!(
            (makespan - (5.0 * 2.0 + 30.4)).abs() < 1e-6,
            "makespan {makespan}"
        );
    }

    #[test]
    fn mshr_exhaustion_stalls_the_trace_rate_issue_chain() {
        let cfg = config();
        let mut src = ScriptedSource::new();
        let (a, h) = (s(&cfg, 0, 0), s(&cfg, 3, 3));
        // One core, 1 MSHR: misses must serialize despite a zero gap.
        for i in 0..3u64 {
            src.push(
                a,
                0,
                NextMiss {
                    gap: Span::ZERO,
                    op: read_op(&cfg, a, h, 0x40 * (i + 1)),
                },
            );
        }
        let eng_cfg = EngineConfig {
            mshrs_per_site: 1,
            blocking_cores: false,
            ..EngineConfig::default()
        };
        let mut eng = CoherenceEngine::new(cfg, eng_cfg, src);
        assert_eq!(run_ideal(&mut eng), 3);
        let makespan = eng.stats().last_completion().as_ns_f64();
        assert!((makespan - 3.0 * 30.4).abs() < 1e-6, "makespan {makespan}");
    }

    #[test]
    fn traced_write_records_moesi_transitions() {
        use desim::trace::RingSink;
        use std::cell::RefCell;
        use std::rc::Rc;

        let cfg = config();
        let mut src = ScriptedSource::new();
        let (a, h, o) = (s(&cfg, 0, 0), s(&cfg, 3, 3), s(&cfg, 5, 5));
        src.push(
            a,
            0,
            NextMiss {
                gap: Span::ZERO,
                op: OpSpec {
                    requester: a,
                    home: h,
                    kind: OpKind::Write,
                    owner: Some(o),
                    sharers: vec![s(&cfg, 2, 2)],
                    line: 0x40,
                },
            },
        );
        let mut eng = CoherenceEngine::new(cfg, EngineConfig::default(), src);
        let sink = Rc::new(RefCell::new(RingSink::new(64)));
        eng.set_tracer(desim::Tracer::shared(&sink));
        assert_eq!(run_ideal(&mut eng), 1);
        let recorded = sink.borrow().events().count();
        let transitions: Vec<&'static str> = sink
            .borrow()
            .events()
            .filter_map(|&(_, e)| match e {
                desim::TraceEvent::Coherence { transition, .. } => Some(transition),
                _ => None,
            })
            .collect();
        // Every recorded event must be a coherence transition.
        assert_eq!(transitions.len(), recorded);
        // Owner downgrade, sharer invalidation, requester fill.
        assert!(transitions.contains(&"M->I"));
        assert!(transitions.contains(&"S->I"));
        assert_eq!(*transitions.last().unwrap(), "I->M");
    }

    #[test]
    fn engine_counts_active_cores() {
        let cfg = config();
        let mut src = ScriptedSource::new();
        let (a, h) = (s(&cfg, 0, 0), s(&cfg, 3, 3));
        src.push(
            a,
            0,
            NextMiss {
                gap: Span::ZERO,
                op: read_op(&cfg, a, h, 0x40),
            },
        );
        let eng = CoherenceEngine::new(cfg, EngineConfig::default(), src);
        assert_eq!(eng.active_cores(), 1);
    }

    #[test]
    fn invariants_hold_mid_run_and_after_drain() {
        let cfg = config();
        let mut src = ScriptedSource::new();
        let (a, h) = (s(&cfg, 0, 0), s(&cfg, 3, 3));
        for line in 0..4u64 {
            src.push(
                a,
                line as usize,
                NextMiss {
                    gap: Span::ZERO,
                    op: read_op(&cfg, a, h, 0x40 * (line + 1)),
                },
            );
        }
        let mut eng = CoherenceEngine::new(cfg, EngineConfig::default(), src);
        // Mid-run: issue the first misses, then audit with ops live.
        let t = eng.next_emission().expect("work scheduled");
        let mut out = Vec::new();
        eng.emit_due(t, &mut out);
        assert!(!out.is_empty());
        assert!(eng.check_invariants(t).is_empty());
        for mut p in out {
            p.delivered = Some(t);
            eng.on_delivered(&p, t);
        }
        run_ideal(&mut eng);
        // Drained: every MSHR free, pending table empty.
        let end = eng.stats().last_completion();
        assert!(eng.check_invariants(end).is_empty());
    }

    #[test]
    fn a_leaked_mshr_register_is_flagged_with_its_site() {
        let cfg = config();
        let mut src = ScriptedSource::new();
        let (a, h) = (s(&cfg, 0, 0), s(&cfg, 3, 3));
        src.push(
            a,
            0,
            NextMiss {
                gap: Span::ZERO,
                op: read_op(&cfg, a, h, 0x40),
            },
        );
        let mut eng = CoherenceEngine::new(cfg, EngineConfig::default(), src);
        run_ideal(&mut eng);
        // Corrupt the bookkeeping the way a missed decrement would.
        eng.mshrs_used[a.index()] += 1;
        let violations = eng.check_invariants(Time::from_ns(10));
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].check, "coherence.mshr-leak");
        assert_eq!(violations[0].site, Some(a.index()));
        assert_eq!(violations[0].at, Time::from_ns(10));
    }

    #[test]
    fn a_dangling_pending_line_entry_is_flagged() {
        let cfg = config();
        let mut src = ScriptedSource::new();
        let (a, h) = (s(&cfg, 0, 0), s(&cfg, 3, 3));
        src.push(
            a,
            0,
            NextMiss {
                gap: Span::ZERO,
                op: read_op(&cfg, a, h, 0x40),
            },
        );
        let mut eng = CoherenceEngine::new(cfg, EngineConfig::default(), src);
        run_ideal(&mut eng);
        // A completed op left behind in the pending table.
        eng.pending_lines.insert((a.index(), 0x40), 99);
        let checks: Vec<&str> = eng
            .check_invariants(Time::ZERO)
            .iter()
            .map(|v| v.check)
            .collect();
        assert!(
            checks.contains(&"coherence.pending-line-dangling"),
            "{checks:?}"
        );
    }
}
