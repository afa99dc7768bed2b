//! Slots, transmissions, and schedules — the unit of time of the POPS
//! machine.
//!
//! §1 of the paper: during one *slot* every processor, in parallel, sends a
//! packet to a subset of its `g` transmitters and receives a packet from
//! (at most) one of its `g` receivers. A [`SlotFrame`] is the complete
//! description of one slot's optical activity; a [`Schedule`] is a sequence
//! of slots. The legality rules (one sender per coupler, one receive per
//! processor, wiring constraints) are enforced by the simulator
//! ([`crate::simulator`]).

use crate::topology::{CouplerId, ProcessorId};

/// Identifier of a packet. Permutation routing uses the packet's source
/// processor as its id (`packet p_i` of the paper).
pub type PacketId = usize;

/// The receiver set of a [`Transmission`].
///
/// Permutation routing emits `2n` transmissions per plan, each with
/// exactly one receiver; storing that receiver inline instead of in a
/// one-element `Vec` removes two heap allocations per processor from the
/// schedule-emission hot path. True multicasts (the one-to-all patterns
/// of §1) still carry their receiver list on the heap.
///
/// The type dereferences to `[ProcessorId]`, so reading code treats it
/// exactly like the `Vec<ProcessorId>` it replaces: indexing, `len`,
/// `iter`, and `for &r in &t.receivers` all work unchanged. Equality is
/// slice equality — `One(5)` and `Many(vec![5])` compare equal, so
/// schedules survive encode/decode round-trips that rebuild the heap
/// representation.
#[derive(Clone)]
pub enum Receivers {
    /// Exactly one reading processor — every permutation-routing
    /// transmission. Stored inline, no allocation.
    One(ProcessorId),
    /// A general receiver set (multicast, or empty for a blind send).
    /// Boxed slice rather than `Vec`: schedules hold `2n` transmissions,
    /// so the 8 bytes of unused capacity field are worth shaving.
    Many(Box<[ProcessorId]>),
}

impl Receivers {
    /// The receivers as a slice, whatever the representation.
    pub fn as_slice(&self) -> &[ProcessorId] {
        match self {
            Receivers::One(r) => std::slice::from_ref(r),
            Receivers::Many(v) => v,
        }
    }
}

impl std::ops::Deref for Receivers {
    type Target = [ProcessorId];

    fn deref(&self) -> &[ProcessorId] {
        self.as_slice()
    }
}

impl std::fmt::Debug for Receivers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl PartialEq for Receivers {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Receivers {}

impl PartialEq<Vec<ProcessorId>> for Receivers {
    fn eq(&self, other: &Vec<ProcessorId>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// A single receiver becomes [`Receivers::One`], so a converted schedule
/// holds no more heap boxes than one built with
/// [`Transmission::unicast`].
impl From<Vec<ProcessorId>> for Receivers {
    fn from(v: Vec<ProcessorId>) -> Self {
        match *v.as_slice() {
            [r] => Receivers::One(r),
            _ => Receivers::Many(v.into_boxed_slice()),
        }
    }
}

/// A single receiver becomes [`Receivers::One`] without allocating.
impl FromIterator<ProcessorId> for Receivers {
    fn from_iter<I: IntoIterator<Item = ProcessorId>>(iter: I) -> Self {
        let mut iter = iter.into_iter().fuse();
        match (iter.next(), iter.next()) {
            (Some(r), None) => Receivers::One(r),
            (first, second) => {
                Receivers::Many(first.into_iter().chain(second).chain(iter).collect())
            }
        }
    }
}

impl<'a> IntoIterator for &'a Receivers {
    type Item = &'a ProcessorId;
    type IntoIter = std::slice::Iter<'a, ProcessorId>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// One optical transmission: `sender` drives `coupler` with `packet`, and
/// each processor in `receivers` reads the coupler.
///
/// The coupler physically broadcasts to all `d` processors of its
/// destination group; `receivers` lists the processors that *choose to
/// read* this coupler in this slot. Permutation routing uses exactly one
/// receiver per transmission; the one-to-all pattern of §1 uses up to `d`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Transmission {
    /// The sending processor (must be in the coupler's source group).
    pub sender: ProcessorId,
    /// The coupler driven.
    pub coupler: CouplerId,
    /// The packet transmitted.
    pub packet: PacketId,
    /// The processors reading the coupler (each in the destination group).
    pub receivers: Receivers,
}

impl Transmission {
    /// Convenience constructor for the common single-receiver case.
    /// Allocation-free: the receiver is stored inline.
    pub fn unicast(
        sender: ProcessorId,
        coupler: CouplerId,
        packet: PacketId,
        receiver: ProcessorId,
    ) -> Self {
        Self {
            sender,
            coupler,
            packet,
            receivers: Receivers::One(receiver),
        }
    }
}

/// All transmissions of one slot.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotFrame {
    /// The slot's transmissions, in no particular order.
    pub transmissions: Vec<Transmission>,
}

impl SlotFrame {
    /// An empty slot.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of couplers driven this slot.
    pub fn couplers_used(&self) -> usize {
        self.transmissions.len()
    }

    /// Number of packet *deliveries* (receiver reads) this slot.
    pub fn deliveries(&self) -> usize {
        self.transmissions.iter().map(|t| t.receivers.len()).sum()
    }
}

/// A routing schedule: a sequence of slots to execute in order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    /// The slots, executed front to back.
    pub slots: Vec<SlotFrame>,
}

impl Schedule {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of slots — the routing cost measure of the paper.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Total transmissions across all slots.
    pub fn total_transmissions(&self) -> usize {
        self.slots.iter().map(|s| s.couplers_used()).sum()
    }

    /// Total deliveries across all slots. Equals `n` for a direct routing
    /// of a permutation and `2n` for a two-hop routing.
    pub fn total_deliveries(&self) -> usize {
        self.slots.iter().map(|s| s.deliveries()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unicast_has_one_receiver() {
        let t = Transmission::unicast(0, 3, 7, 5);
        assert_eq!(t.receivers, vec![5]);
        assert_eq!(t.packet, 7);
    }

    #[test]
    fn single_receiver_conversions_are_inline() {
        assert!(matches!(Receivers::from(vec![4]), Receivers::One(4)));
        assert!(matches!([4].into_iter().collect(), Receivers::One(4)));
        for many in [vec![], vec![1, 2], vec![1, 2, 3]] {
            let converted = Receivers::from(many.clone());
            assert!(matches!(converted, Receivers::Many(_)));
            assert_eq!(converted, many);
            let collected: Receivers = many.iter().copied().collect();
            assert!(matches!(collected, Receivers::Many(_)));
            assert_eq!(collected, many);
        }
    }

    #[test]
    fn slot_counts() {
        let mut slot = SlotFrame::new();
        slot.transmissions.push(Transmission::unicast(0, 0, 0, 1));
        slot.transmissions.push(Transmission {
            sender: 2,
            coupler: 1,
            packet: 2,
            receivers: vec![3, 4].into(),
        });
        assert_eq!(slot.couplers_used(), 2);
        assert_eq!(slot.deliveries(), 3);
    }

    #[test]
    fn schedule_totals() {
        let slot_a = SlotFrame {
            transmissions: vec![Transmission::unicast(0, 0, 0, 1)],
        };
        let slot_b = SlotFrame {
            transmissions: vec![
                Transmission::unicast(1, 1, 0, 0),
                Transmission::unicast(2, 2, 2, 3),
            ],
        };
        let schedule = Schedule {
            slots: vec![slot_a, slot_b],
        };
        assert_eq!(schedule.slot_count(), 2);
        assert_eq!(schedule.total_transmissions(), 3);
        assert_eq!(schedule.total_deliveries(), 3);
    }

    #[test]
    fn empty_schedule() {
        let s = Schedule::new();
        assert_eq!(s.slot_count(), 0);
        assert_eq!(s.total_deliveries(), 0);
    }
}
