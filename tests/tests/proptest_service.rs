//! Property tests of the service's canonical cache keys and cache
//! behaviour: identical requests hit, any semantic difference misses.

use proptest::prelude::*;

use pops_bipartite::ColorerKind;
use pops_core::HRelation;
use pops_network::{FaultSet, PopsTopology};
use pops_permutation::families::random_permutation;
use pops_permutation::{Permutation, SplitMix64};
use pops_service::{
    canonical_key, KeyHasher, MetricsSnapshot, RoutingService, ServiceConfig, ServiceRequest,
    ShardedPlanCache, TopologyRouter, TopologyRouterConfig,
};

/// Strategy: plausible (d, g) shapes with n = d·g ≤ 144.
fn shapes() -> impl Strategy<Value = (usize, usize)> {
    (1usize..=12, 1usize..=12)
}

fn tiny_service(d: usize, g: usize) -> RoutingService {
    RoutingService::with_config(
        PopsTopology::new(d, g),
        ServiceConfig {
            shards: 1,
            cache_capacity: 8,
            max_in_flight: 2,
            colorer: ColorerKind::AlternatingPath,
            ..ServiceConfig::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn identical_permutations_share_a_key_and_hit((d, g) in shapes(), seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let pi = random_permutation(d * g, &mut rng);
        // A fresh Permutation built from the same image: same canonical key.
        let rebuilt = Permutation::new(pi.as_slice().to_vec()).unwrap();
        let key_a = canonical_key(d, g, &ServiceRequest::Theorem2 { pi: pi.clone() });
        let key_b = canonical_key(d, g, &ServiceRequest::Theorem2 { pi: rebuilt.clone() });
        prop_assert_eq!(&key_a, &key_b);

        // And the cache agrees: first request computes, second hits.
        let service = tiny_service(d, g);
        let first = service.route(&ServiceRequest::Theorem2 { pi }).unwrap();
        let second = service.route(&ServiceRequest::Theorem2 { pi: rebuilt }).unwrap();
        prop_assert!(!first.cache_hit);
        prop_assert!(second.cache_hit);
        prop_assert_eq!(first.outcome.schedule(), second.outcome.schedule());
    }

    #[test]
    fn any_differing_element_misses((d, g) in shapes(), seed in any::<u64>()) {
        let n = d * g;
        prop_assume!(n >= 2);
        let mut rng = SplitMix64::new(seed);
        let pi = random_permutation(n, &mut rng);
        // Swap two distinct positions: a permutation differing in exactly
        // two image elements.
        let i = (rng.next_u64() % n as u64) as usize;
        let mut j = (rng.next_u64() % n as u64) as usize;
        if i == j {
            j = (j + 1) % n;
        }
        let mut image = pi.as_slice().to_vec();
        image.swap(i, j);
        let swapped = Permutation::new(image).unwrap();

        let key_a = canonical_key(d, g, &ServiceRequest::Theorem2 { pi: pi.clone() });
        let key_b = canonical_key(d, g, &ServiceRequest::Theorem2 { pi: swapped.clone() });
        prop_assert_ne!(&key_a, &key_b);

        let service = tiny_service(d, g);
        service.route(&ServiceRequest::Theorem2 { pi }).unwrap();
        let other = service.route(&ServiceRequest::Theorem2 { pi: swapped }).unwrap();
        prop_assert!(!other.cache_hit, "a differing permutation must miss");
    }

    #[test]
    fn differing_shape_misses((d, g) in shapes(), seed in any::<u64>()) {
        // Same permutation bytes under transposed shapes (equal n): the
        // keys must differ, because the routing depends on the grouping.
        prop_assume!(d != g);
        let mut rng = SplitMix64::new(seed);
        let pi = random_permutation(d * g, &mut rng);
        let req = ServiceRequest::Theorem2 { pi };
        prop_assert_ne!(canonical_key(d, g, &req), canonical_key(g, d, &req));
    }

    #[test]
    fn differing_kind_misses((d, g) in shapes(), seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let pi = random_permutation(d * g, &mut rng);
        let theorem2 = canonical_key(d, g, &ServiceRequest::Theorem2 { pi: pi.clone() });
        let direct = canonical_key(d, g, &ServiceRequest::Direct { pi: pi.clone() });
        let single = canonical_key(d, g, &ServiceRequest::SingleSlot { pi });
        prop_assert_ne!(&theorem2, &direct);
        prop_assert_ne!(&theorem2, &single);
        prop_assert_ne!(&direct, &single);
    }

    #[test]
    fn h_relation_keys_ignore_request_order((d, g) in shapes(), seed in any::<u64>()) {
        let n = d * g;
        prop_assume!(n >= 2);
        let mut rng = SplitMix64::new(seed);
        let p = random_permutation(n, &mut rng);
        let pairs: Vec<(usize, usize)> = (0..n).map(|s| (s, p.apply(s))).collect();
        // A deterministic shuffle of the same multiset of requests.
        let mut shuffled = pairs.clone();
        for i in (1..shuffled.len()).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            shuffled.swap(i, j);
        }
        let a = ServiceRequest::HRelation {
            relation: HRelation::new(n, pairs.clone()).unwrap(),
        };
        let b = ServiceRequest::HRelation {
            relation: HRelation::new(n, shuffled).unwrap(),
        };
        prop_assert_eq!(canonical_key(d, g, &a), canonical_key(d, g, &b));

        // Dropping one request changes the multiset: different key.
        let mut fewer = pairs;
        fewer.pop();
        let c = ServiceRequest::HRelation {
            relation: HRelation::new(n, fewer).unwrap(),
        };
        prop_assert_ne!(canonical_key(d, g, &a), canonical_key(d, g, &c));
    }

    #[test]
    fn zero_absorb_is_the_identity_on_counters((d, g) in shapes(), seed in any::<u64>()) {
        let mut rng = SplitMix64::new(seed);
        let service = tiny_service(d, g);
        for _ in 0..3 {
            let pi = random_permutation(d * g, &mut rng);
            service.route(&ServiceRequest::Theorem2 { pi }).unwrap();
        }
        let snap = service.metrics();
        let mut folded = MetricsSnapshot::zero();
        folded.absorb(&snap);
        prop_assert_eq!(folded.requests(), snap.requests());
        prop_assert_eq!(folded.hits, snap.hits);
        prop_assert_eq!(folded.misses, snap.misses);
        prop_assert_eq!(folded.errors, snap.errors);
        prop_assert_eq!(folded.slots_emitted, snap.slots_emitted);
        prop_assert_eq!(folded.wire_errors_total(), snap.wire_errors_total());
        prop_assert_eq!(folded.arena_bytes, snap.arena_bytes);
    }

    /// Fleet totals — the retired-topology ledger plus every resident
    /// service — must be monotone across LRU evictions and rebuilds.
    /// The Prometheus exposition renders exactly this sum, and a counter
    /// that ever went backwards would break every scrape-side `rate()`.
    #[test]
    fn fleet_counters_never_decrease_across_evictions(seed in any::<u64>(), steps in 4usize..24) {
        let mut rng = SplitMix64::new(seed);
        // Four shapes through a two-slot registry: the default is pinned,
        // so the remaining slot churns and evictions are frequent.
        let shapes = [(2usize, 2usize), (2, 4), (4, 2), (3, 3)];
        let router = TopologyRouter::new(
            PopsTopology::new(2, 2),
            TopologyRouterConfig {
                service: ServiceConfig {
                    shards: 1,
                    cache_capacity: 4,
                    max_in_flight: 2,
                    colorer: ColorerKind::AlternatingPath,
                    ..ServiceConfig::default()
                },
                max_topologies: 2,
                ..TopologyRouterConfig::default()
            },
        );
        let fleet = |router: &TopologyRouter| {
            let mut total = MetricsSnapshot::zero();
            total.absorb(&router.retired_metrics());
            for (_, service) in router.services() {
                total.absorb(&service.metrics());
            }
            total
        };
        let mut prev = fleet(&router);
        for _ in 0..steps {
            let (d, g) = shapes[(rng.next_u64() % shapes.len() as u64) as usize];
            let service = router.get(d, g).unwrap();
            let pi = random_permutation(d * g, &mut rng);
            service.route(&ServiceRequest::Theorem2 { pi }).unwrap();
            let cur = fleet(&router);
            prop_assert!(cur.requests() > prev.requests(), "each step routes");
            prop_assert!(cur.hits >= prev.hits);
            prop_assert!(cur.misses >= prev.misses);
            prop_assert!(cur.errors >= prev.errors);
            prop_assert!(cur.slots_emitted >= prev.slots_emitted);
            prop_assert!(cur.batches >= prev.batches);
            prev = cur;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The shard hash spreads every kind of key evenly, for any shard
    /// count. For each count `s` in 1..=16, 256·s keys (a mix of
    /// theorem2, fault and h-relation keys on one of four shapes) go
    /// through one keyed hasher, and the fullest shard may hold at most
    /// 1.5× the mean of 256. A shard's count is Binomial(256·s, 1/s), so
    /// by the Chernoff bound (e^0.5 / 1.5^1.5)^256 a given shard exceeds
    /// that with probability below 1e-12; over the 136 shards of a case
    /// and every case of a run the false-failure odds stay below 1e-8.
    #[test]
    fn shard_hash_spreads_keys_evenly(shape in 0usize..4, seed in any::<u64>()) {
        const PER_SHARD: usize = 256;
        const MAX_SHARDS: usize = 16;
        let (d, g) = [(4, 4), (16, 16), (8, 32), (32, 32)][shape];
        let (t, n) = (PopsTopology::new(d, g), d * g);
        let mut rng = SplitMix64::new(seed);
        let hasher = KeyHasher::new();
        let hashes: Vec<u64> = (0..PER_SHARD * MAX_SHARDS)
            .map(|i| {
                let pi = random_permutation(n, &mut rng);
                let req = match i % 3 {
                    0 => ServiceRequest::Theorem2 { pi },
                    1 => {
                        let mut faults = FaultSet::none(&t);
                        for _ in 0..1 + i % 4 {
                            faults.fail_coupler((rng.next_u64() % t.coupler_count() as u64) as usize);
                        }
                        ServiceRequest::WithFaults { pi, faults }
                    }
                    _ => {
                        let pairs = (0..n).map(|s| (s, pi.apply(s))).collect();
                        ServiceRequest::HRelation { relation: HRelation::new(n, pairs).unwrap() }
                    }
                };
                hasher.hash(&canonical_key(d, g, &req))
            })
            .collect();
        for shards in 1..=MAX_SHARDS {
            let cache: ShardedPlanCache<()> =
                ShardedPlanCache::with_hasher(PER_SHARD * shards, shards, hasher.clone());
            let mut counts = vec![0usize; shards];
            for &hash in &hashes[..PER_SHARD * shards] {
                counts[cache.shard_index(hash)] += 1;
            }
            let fullest = counts.iter().copied().max().unwrap();
            prop_assert!(
                2 * fullest <= 3 * PER_SHARD,
                "POPS({}, {}) at {} shards: fullest shard {} keys, mean {}",
                d, g, shards, fullest, PER_SHARD
            );
        }
    }
}
