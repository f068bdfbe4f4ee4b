//! The packet lifecycle shared by every slab-backed architecture.
//!
//! The architectures differ only in how they arbitrate, switch and route.
//! How a packet enters a site, is counted, is traced and leaves is the
//! same for all of them, and is recorded here alone: [`NetBase::admit`],
//! [`NetBase::loopback`], [`NetBase::absorb`], [`NetBase::refuse`] and
//! [`NetBase::deliver`].
//! A network owns one [`NetBase`] over its own event type and reaches the
//! slab, event queue, statistics and tracer through it.

use desim::{EventQueue, Time, TraceEvent, Tracer};
use netcore::{NetStats, Packet, PacketRef, PacketSlab};

/// The state every slab-backed network keeps for its packets: where they
/// live while in flight, the network's event queue, the packets delivered
/// since the last drain, the statistics and the flight recorder.
pub(crate) struct NetBase<E> {
    pub(crate) slab: PacketSlab,
    pub(crate) events: EventQueue<E>,
    delivered: Vec<Packet>,
    pub(crate) stats: NetStats,
    pub(crate) tracer: Tracer,
}

impl<E> NetBase<E> {
    pub(crate) fn new() -> NetBase<E> {
        NetBase {
            slab: PacketSlab::new(),
            events: EventQueue::new(),
            delivered: Vec::with_capacity(256),
            stats: NetStats::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Accepts `packet` at `now`: traces its `Inject` while the packet is
    /// still owned, moves it into the slab and counts the injection.
    #[inline]
    pub(crate) fn admit(&mut self, packet: Packet, now: Time) -> PacketRef {
        self.tracer.emit(now, || TraceEvent::Inject {
            packet: packet.id.0,
            src: packet.src.index(),
            dst: packet.dst.index(),
            bytes: packet.bytes,
        });
        let pref = self.slab.insert(packet);
        self.stats.on_inject(now);
        pref
    }

    /// Admits an intra-site packet, whose arbitration and wire phases are
    /// zero-width at `now`. The caller schedules its single-cycle
    /// loop-back arrival.
    #[inline]
    pub(crate) fn loopback(&mut self, mut packet: Packet, now: Time) -> PacketRef {
        packet.arb_start = Some(now);
        packet.tx_start = Some(now);
        packet.tx_end = Some(now);
        self.admit(packet, now)
    }

    /// Absorbs `packet` at injection as a fault drop at `site`: a dead
    /// resource it could never cross must not be refused, or the driver
    /// would offer it forever. It counts as injected and dropped, and
    /// traces `Inject` then `Drop`, the shape of any other dropped packet.
    pub(crate) fn absorb(&mut self, packet: Packet, site: usize, reason: &'static str, now: Time) {
        self.stats.on_inject(now);
        self.stats.on_drop();
        self.tracer.emit(now, || TraceEvent::Inject {
            packet: packet.id.0,
            src: packet.src.index(),
            dst: packet.dst.index(),
            bytes: packet.bytes,
        });
        self.tracer.emit(now, || TraceEvent::Drop {
            packet: packet.id.0,
            site,
            reason,
        });
    }

    /// Counts a refused injection and hands the packet back.
    #[inline]
    pub(crate) fn refuse(&mut self, packet: Packet) -> Result<(), Packet> {
        self.stats.on_reject();
        Err(packet)
    }

    /// Completes `pref`'s trip at `at`: takes it from the slab, stamps,
    /// counts and traces the delivery, and buffers it for the next drain.
    #[inline]
    pub(crate) fn deliver(&mut self, pref: PacketRef, at: Time) {
        let mut packet = self.slab.take(pref);
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

    pub(crate) fn drain_delivered(&mut self) -> Vec<Packet> {
        std::mem::take(&mut self.delivered)
    }

    pub(crate) fn drain_delivered_into(&mut self, out: &mut Vec<Packet>) {
        out.append(&mut self.delivered);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::trace::RingSink;
    use netcore::{MessageKind, PacketId, SiteId};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn traced() -> (NetBase<()>, Rc<RefCell<RingSink>>) {
        let sink = Rc::new(RefCell::new(RingSink::new(64)));
        let mut base = NetBase::new();
        base.tracer = Tracer::shared(&sink);
        (base, sink)
    }

    fn data(id: u64, src: usize, dst: usize) -> Packet {
        Packet::new(
            PacketId(id),
            SiteId::from_index(src),
            SiteId::from_index(dst),
            64,
            MessageKind::Data,
            Time::from_ns(1),
        )
    }

    #[test]
    fn deliver_stamps_counts_and_traces_once() {
        let (mut base, sink) = traced();
        let pref = base.admit(data(7, 1, 2), Time::from_ns(1));
        let at = Time::from_ns(30);
        base.deliver(pref, at);
        let done = base.drain_delivered();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].delivered, Some(at));
        assert_eq!(base.stats.delivered_packets(), 1);
        assert_eq!(base.stats.delivered_bytes(), 64);
        assert_eq!(base.slab.live(), 0);
        let delivers: Vec<_> = sink
            .borrow()
            .snapshot()
            .into_iter()
            .filter(|(_, ev)| matches!(ev, TraceEvent::Deliver { .. }))
            .collect();
        assert_eq!(
            delivers,
            [(
                at,
                TraceEvent::Deliver {
                    packet: 7,
                    src: 1,
                    dst: 2,
                    latency: at.saturating_since(Time::from_ns(1)),
                }
            )]
        );
    }

    #[test]
    fn loopback_stamps_every_phase_time() {
        let (mut base, _) = traced();
        let now = Time::from_ns(5);
        let pref = base.loopback(data(0, 3, 3), now);
        let p = base.slab.get(pref);
        assert_eq!(
            (p.arb_start, p.tx_start, p.tx_end),
            (Some(now), Some(now), Some(now))
        );
        assert_eq!(base.stats.injected_packets(), 1);
    }

    #[test]
    fn admit_traces_inject_before_the_callers_next_event() {
        let (mut base, sink) = traced();
        let now = Time::from_ns(2);
        base.admit(data(4, 0, 5), now);
        base.tracer
            .emit(now, || TraceEvent::ArbRequest { packet: 4, site: 0 });
        let events = sink.borrow().snapshot();
        assert_eq!(
            events,
            [
                (
                    now,
                    TraceEvent::Inject {
                        packet: 4,
                        src: 0,
                        dst: 5,
                        bytes: 64,
                    }
                ),
                (now, TraceEvent::ArbRequest { packet: 4, site: 0 }),
            ]
        );
        assert_eq!(base.stats.injected_packets(), 1);
    }

    #[test]
    fn refuse_counts_one_rejection_and_hands_the_packet_back() {
        let (mut base, sink) = traced();
        let back = base.refuse(data(9, 0, 1)).expect_err("refused");
        assert_eq!(back.id, PacketId(9));
        assert_eq!(base.stats.rejected_packets(), 1);
        assert_eq!(base.stats.injected_packets(), 0);
        assert_eq!(base.slab.live(), 0);
        assert!(
            sink.borrow().snapshot().is_empty(),
            "a refusal is not traced"
        );
    }
}
