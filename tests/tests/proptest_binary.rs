//! Fuzz-style property tests of the binary wire framing
//! ([`pops_service::frame`]): every encoder must round-trip through its
//! decoder bit for bit, the binary and JSON schedule encodings must
//! agree on every schedule, and the decoders must answer arbitrary or
//! truncated byte soup with `Err` — never a panic, and never an
//! attacker-controlled allocation.

use proptest::prelude::*;

use pops_core::engine::RoutingEngine;
use pops_network::PopsTopology;
use pops_permutation::families::random_permutation;
use pops_permutation::SplitMix64;
use pops_service::frame::{
    decode_batch_item, decode_batch_request, decode_route_reply, decode_route_request,
    encode_batch_item, encode_batch_request, encode_route_reply, encode_route_request, TAG_BATCH,
    TAG_BATCH_ITEM, TAG_ROUTE, TAG_ROUTE_REPLY,
};
use pops_service::proto::{schedule_from_json, schedule_to_json};
use pops_service::RequestKind;

/// Small shapes spanning d < g, d = g, d > g.
const SHAPES: [(usize, usize); 5] = [(1, 4), (2, 4), (3, 3), (4, 2), (5, 3)];

/// The four kinds the dense route body admits.
const PERM_KINDS: [RequestKind; 4] = [
    RequestKind::Theorem2,
    RequestKind::SingleSlot,
    RequestKind::Direct,
    RequestKind::Structured,
];

/// A real schedule for `shape`, derived from `seed` — the round-trip
/// subjects are actual router output, not synthetic slot soup.
fn schedule_for(shape: (usize, usize), seed: u64) -> pops_network::Schedule {
    let (d, g) = shape;
    let t = PopsTopology::new(d, g);
    let mut rng = SplitMix64::new(seed);
    let pi = random_permutation(d * g, &mut rng);
    RoutingEngine::new(t).plan_theorem2(&pi).schedule
}

/// [`schedule_for`] with some transmissions turned multicast (two or
/// three receivers) or blind (none), so both receiver forms travel.
fn mixed_schedule_for(shape: (usize, usize), seed: u64) -> pops_network::Schedule {
    let mut schedule = schedule_for(shape, seed);
    let mut rng = SplitMix64::new(seed ^ 0x5EED);
    for tx in schedule
        .slots
        .iter_mut()
        .flat_map(|slot| &mut slot.transmissions)
    {
        let first = tx.receivers[0];
        tx.receivers = match rng.next_u64() % 4 {
            0 => vec![first, first + 1].into(),
            1 => vec![first, first + 1, first + 2].into(),
            2 => Vec::new().into(),
            _ => continue,
        };
    }
    schedule
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_truncation_of_a_mixed_receiver_reply_is_a_typed_error(
        seed in any::<u64>(),
        shape in 0usize..SHAPES.len(),
    ) {
        let (d, g) = SHAPES[shape];
        let schedule = mixed_schedule_for((d, g), seed);
        let reply = encode_route_reply(false, 9, &schedule, true);
        let item = encode_batch_item(1, d, g, &schedule, true);
        prop_assert_eq!(decode_route_reply(&reply[1..]).unwrap().schedule, schedule.clone());
        prop_assert_eq!(decode_batch_item(&item[1..]).unwrap().schedule, schedule);
        for cut in 0..reply.len() - 1 {
            let err = decode_route_reply(&reply[1..1 + cut]).unwrap_err();
            prop_assert!(err.contains("truncated"), "cut {}: {}", cut, err);
        }
        for cut in 0..item.len() - 1 {
            let err = decode_batch_item(&item[1..1 + cut]).unwrap_err();
            prop_assert!(err.contains("truncated"), "cut {}: {}", cut, err);
        }
    }

    #[test]
    fn route_requests_round_trip(
        seed in any::<u64>(),
        shape in 0usize..SHAPES.len(),
        kind in 0usize..PERM_KINDS.len(),
        explicit_shape in any::<bool>(),
        want_schedule in any::<bool>(),
    ) {
        let (d, g) = SHAPES[shape];
        let mut rng = SplitMix64::new(seed);
        let pi = random_permutation(d * g, &mut rng);
        let shape = explicit_shape.then_some((d, g));
        let payload =
            encode_route_request(PERM_KINDS[kind], want_schedule, shape, &pi);
        prop_assert_eq!(payload[0], TAG_ROUTE);
        let back = decode_route_request(&payload[1..]).unwrap();
        prop_assert_eq!(back.kind, PERM_KINDS[kind]);
        prop_assert_eq!(back.want_schedule, want_schedule);
        prop_assert_eq!(back.shape, shape.unwrap_or((0, 0)));
        prop_assert_eq!(back.perm.unwrap(), pi);
    }

    #[test]
    fn batch_requests_round_trip(
        seed in any::<u64>(),
        count in 1usize..6,
        want_schedule in any::<bool>(),
    ) {
        let mut rng = SplitMix64::new(seed);
        let items: Vec<_> = (0..count)
            .map(|_| {
                let (d, g) = SHAPES[(rng.next_u64() as usize) % SHAPES.len()];
                let shape = (rng.next_u64() & 1 == 1).then_some((d, g));
                (shape, random_permutation(d * g, &mut rng))
            })
            .collect();
        let payload = encode_batch_request(want_schedule, items.clone());
        prop_assert_eq!(payload[0], TAG_BATCH);
        let (back, ws) = decode_batch_request(&payload[1..]).unwrap();
        prop_assert_eq!(ws, want_schedule);
        prop_assert_eq!(back.len(), items.len());
        for (decoded, (shape, pi)) in back.into_iter().zip(items) {
            prop_assert_eq!(decoded.shape, shape.unwrap_or((0, 0)));
            prop_assert_eq!(decoded.perm.unwrap(), pi);
        }
    }

    #[test]
    fn route_replies_round_trip(
        seed in any::<u64>(),
        shape in 0usize..SHAPES.len(),
        cache_hit in any::<bool>(),
        micros in any::<u64>(),
        want_schedule in any::<bool>(),
    ) {
        let schedule = schedule_for(SHAPES[shape], seed);
        let payload = encode_route_reply(cache_hit, micros, &schedule, want_schedule);
        prop_assert_eq!(payload[0], TAG_ROUTE_REPLY);
        let back = decode_route_reply(&payload[1..]).unwrap();
        prop_assert_eq!(back.cache_hit, cache_hit);
        prop_assert_eq!(back.micros, micros);
        prop_assert_eq!(back.slots, schedule.slot_count());
        if want_schedule {
            prop_assert_eq!(back.schedule, schedule);
        } else {
            prop_assert_eq!(back.schedule.slot_count(), 0);
        }
    }

    #[test]
    fn batch_items_round_trip(
        seed in any::<u64>(),
        shape in 0usize..SHAPES.len(),
        index in 0usize..10_000,
        want_schedule in any::<bool>(),
    ) {
        let (d, g) = SHAPES[shape];
        let schedule = schedule_for((d, g), seed);
        let payload = encode_batch_item(index, d, g, &schedule, want_schedule);
        prop_assert_eq!(payload[0], TAG_BATCH_ITEM);
        let back = decode_batch_item(&payload[1..]).unwrap();
        prop_assert_eq!(back.index, index);
        prop_assert_eq!((back.d, back.g), (d, g));
        prop_assert_eq!(back.slots, schedule.slot_count());
        if want_schedule {
            prop_assert_eq!(back.schedule, schedule);
        }
    }

    #[test]
    fn binary_and_json_schedule_encodings_agree(
        seed in any::<u64>(),
        shape in 0usize..SHAPES.len(),
    ) {
        // The same schedule, pushed through both wire encodings, must
        // come back as the same structure: binary frames and JSON lines
        // are two views of one protocol, not two protocols.
        let schedule = schedule_for(SHAPES[shape], seed);
        let via_json = schedule_from_json(&schedule_to_json(&schedule)).unwrap();
        let via_binary = decode_route_reply(&encode_route_reply(false, 0, &schedule, true)[1..])
            .unwrap()
            .schedule;
        prop_assert_eq!(&via_json, &via_binary);
        prop_assert_eq!(&via_json, &schedule);
    }

    #[test]
    fn decoders_survive_arbitrary_bytes(seed in any::<u64>(), len in 0usize..400) {
        let mut rng = SplitMix64::new(seed);
        let bytes: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xff) as u8).collect();
        // Err is fine; a panic or a multi-GB allocation is the bug.
        let _ = decode_route_request(&bytes);
        let _ = decode_batch_request(&bytes);
        let _ = decode_route_reply(&bytes);
        let _ = decode_batch_item(&bytes);
    }

    #[test]
    fn decoders_reject_truncated_frames(
        seed in any::<u64>(),
        shape in 0usize..SHAPES.len(),
        cut in any::<u64>(),
    ) {
        let (d, g) = SHAPES[shape];
        let mut rng = SplitMix64::new(seed);
        let pi = random_permutation(d * g, &mut rng);
        let schedule = schedule_for((d, g), seed);
        let payloads = [
            encode_route_request(RequestKind::Theorem2, true, Some((d, g)), &pi),
            encode_batch_request(true, vec![(Some((d, g)), pi.clone())]),
            encode_route_reply(true, 7, &schedule, true),
            encode_batch_item(3, d, g, &schedule, true),
        ];
        for payload in payloads {
            let body = &payload[1..];
            if body.is_empty() {
                continue;
            }
            let cut = (cut as usize) % body.len();
            let truncated = &body[..cut];
            let err = match payload[0] {
                TAG_ROUTE => decode_route_request(truncated).is_err(),
                TAG_BATCH => decode_batch_request(truncated).is_err(),
                TAG_ROUTE_REPLY => decode_route_reply(truncated).is_err(),
                _ => decode_batch_item(truncated).is_err(),
            };
            prop_assert!(err, "truncation at {cut} must not decode");
        }
    }
}
