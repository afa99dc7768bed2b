//! The correctness gate. A request's first reply is executed on a
//! simulator carrying exactly the request's fault set; later replies to
//! the same request are byte-compared with that checked schedule.

use std::sync::OnceLock;

use pops_core::{theorem2_slots, HRelation};
use pops_network::{FaultSet, PopsTopology, Schedule, Simulator};
use pops_permutation::Permutation;

use crate::wire::Routed;
use crate::workload::{Op, Universe, H};

/// How a reply was checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Executed on the simulator, every request delivered.
    Simulated,
    /// Byte-identical to an earlier simulated reply to the same request.
    Compared,
    /// Executed, but part of the schedule cannot be attributed to the
    /// request (filler packets of incomplete h-relation phases).
    Unchecked,
}

/// Checked schedule bytes of every request that repeats, by
/// [`Universe::store_index`].
pub struct Store(Vec<OnceLock<Box<[u8]>>>);

impl Store {
    pub fn new(u: &Universe) -> Self {
        Self((0..u.store_len()).map(|_| OnceLock::new()).collect())
    }
}

pub fn check(
    u: &Universe,
    store: &Store,
    op: &Op,
    reply: &Routed,
    raw: &[u8],
) -> Result<Verdict, String> {
    let bytes = &raw[reply.schedule_bytes.clone()];
    let slot = u.store_index(op).map(|i| &store.0[i]);
    if let Some(checked) = slot.and_then(OnceLock::get) {
        return if **checked == *bytes {
            Ok(Verdict::Compared)
        } else {
            Err(format!("{op:?}: schedule differs from the checked reply"))
        };
    }
    let verdict = simulate(u, op, reply).map_err(|e| format!("{op:?}: {e}"))?;
    if let Some(slot) = slot {
        // A concurrent first sighting may have stored it already; both
        // replies passed the simulator.
        let _ = slot.set(bytes.into());
    }
    Ok(verdict)
}

/// Executes a reply's schedule and checks delivery.
pub fn simulate(u: &Universe, op: &Op, reply: &Routed) -> Result<Verdict, String> {
    let t = u.topology(op);
    if reply.slots != reply.schedule.slot_count() {
        return Err(format!(
            "reply claims {} slots, schedule has {}",
            reply.slots,
            reply.schedule.slot_count()
        ));
    }
    if let Some(relation) = u.relation(op) {
        return check_h_relation(t, &relation, &reply.schedule);
    }
    let pi = u.permutation(op).ok_or("request without a permutation")?;
    let fault = u.fault(op);
    if reply.degraded != fault.is_some() {
        return Err(format!("degraded flag {} on {op:?}", reply.degraded));
    }
    check_permutation(t, pi, fault, &reply.schedule)?;
    Ok(Verdict::Simulated)
}

/// A permutation's schedule: Theorem 2's `2⌈d/g⌉` slots on a healthy
/// fabric, and every packet `i` delivered to `pi(i)` without touching
/// the declared failed coupler.
pub fn check_permutation(
    t: PopsTopology,
    pi: &Permutation,
    fault: Option<usize>,
    schedule: &Schedule,
) -> Result<(), String> {
    let mut faults = FaultSet::none(&t);
    match fault {
        Some(c) => faults.fail_coupler(c),
        None if schedule.slot_count() != theorem2_slots(t.d(), t.g()) => {
            return Err(format!(
                "{} slots, Theorem 2 needs {}",
                schedule.slot_count(),
                theorem2_slots(t.d(), t.g())
            ))
        }
        None => {}
    }
    let mut sim = Simulator::with_unit_packets_and_faults(t, faults);
    sim.execute_schedule(schedule)
        .map_err(|(slot, e)| format!("slot {slot}: {e}"))?;
    sim.verify_delivery(pi.as_slice())
        .map_err(|e| format!("delivery: {e}"))
}

/// An h-relation reply is `H` Theorem-2 blocks; block `k` moves one
/// packet from every processor (packet id = source processor). Each
/// block must run conflict-free and end with one copy of every packet,
/// and the deliveries of all blocks must cover the requested pairs.
fn check_h_relation(
    t: PopsTopology,
    relation: &HRelation,
    schedule: &Schedule,
) -> Result<Verdict, String> {
    let per_phase = theorem2_slots(t.d(), t.g());
    if schedule.slot_count() != H * per_phase {
        return Err(format!(
            "{} slots for an h = {H} relation, expected {}",
            schedule.slot_count(),
            H * per_phase
        ));
    }
    let n = t.n();
    let mut delivered = Vec::with_capacity(H * n);
    for (phase, block) in schedule.slots.chunks(per_phase).enumerate() {
        let mut sim = Simulator::with_unit_packets(t);
        for (slot, frame) in block.iter().enumerate() {
            sim.execute_frame(frame)
                .map_err(|e| format!("phase {phase} slot {slot}: {e}"))?;
        }
        for packet in 0..n {
            match sim.holders_of(packet) {
                [dst] => delivered.push((packet, *dst)),
                held => return Err(format!("phase {phase}: packet {packet} held by {held:?}")),
            }
        }
    }
    let mut wanted = relation.requests().to_vec();
    wanted.sort_unstable();
    delivered.sort_unstable();
    // Multiset inclusion of the requests in the deliveries.
    let mut d = delivered.iter().peekable();
    for pair in &wanted {
        while d.next_if(|&&x| x < *pair).is_some() {}
        if d.next_if(|&&x| x == *pair).is_none() {
            return Err(format!("request {pair:?} not delivered"));
        }
    }
    Ok(if delivered.len() == wanted.len() {
        Verdict::Simulated
    } else {
        Verdict::Unchecked
    })
}
