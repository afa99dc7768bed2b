//! The two-level plan cache: sharded LRUs over canonically-keyed routing
//! outcomes and per-phase Theorem-2 plans.
//!
//! Real request streams repeat permutations — collective phases, BPC
//! families, hypercube simulation rounds — so the service fronts its
//! engine pool with a cache that converts the `2⌈d/g⌉`-slot construction
//! cost into a lookup. Values are `Arc`-shared, so a hit clones a pointer,
//! not a plan, and the same plan can be handed to any number of client
//! threads simultaneously.
//!
//! # Two levels
//!
//! * **Level 1** keys *whole requests* under [`canonical_key`] — a repeat
//!   of an identical request (any kind) is answered with the previously
//!   computed [`CachedOutcome`].
//! * **Level 2** keys *per-phase Theorem-2 plans* under [`phase_key`] (the
//!   completed permutation of one König phase). The Mei–Rizzi construction
//!   routes an h-relation as `h` completed permutations, so two different
//!   relations that share phases — e.g. the common permutation rounds of
//!   collectives — reuse each other's phase plans even though their
//!   level-1 keys differ. Plain `theorem2` requests populate level 2 too:
//!   a permutation routed once as a request later serves as a cached phase.
//!
//! Both levels hold [`CachedOutcome`]s under `Arc<[u8]>` keys, so a
//! `theorem2` miss stores its plan and its key once: level 2 gets the
//! same two `Arc`s as level 1, not copies.
//!
//! # Canonical keys
//!
//! A key is the byte string `kind ‖ d ‖ g ‖ payload` ([`canonical_key`]):
//! the payload is the permutation image (or, for h-relations, the request
//! pairs **sorted**, so any ordering of the same multiset of requests hits
//! the same entry; for fault routing, the sorted fault list then the
//! image). Two requests collide only if they are semantically identical —
//! the map compares full key bytes, the hash is just the index. Any
//! differing image element, `d`, `g`, or kind changes the key. The format
//! is **stable**: it is also the on-disk key of the cache spill file
//! ([`crate::persist`]).
//!
//! # The LRU
//!
//! A slab-backed doubly-linked list indexed by a `HashMap` from key hash
//! to slab slot: `get` and `insert` are O(1), eviction pops the list
//! tail. Keys whose hashes collide are chained through their slots and
//! told apart by a full-byte compare. No external dependency and no
//! unsafe.
//!
//! # Sharding
//!
//! A [`ShardedPlanCache`] splits one logical LRU into N LRU shards
//! behind independent mutexes, so concurrent hits on different
//! shards never serialize. A request's key is hashed **once**, by a
//! [`KeyHasher`]: std's SipHash keyed with a per-process random key, so
//! a client cannot choose keys that pile into one shard. The shard is
//! picked from the hash's high bits by multiply-shift (any shard count
//! works), and the shard's map reuses the same hash instead of hashing
//! the bytes again. Both levels of a service share one hasher, so the
//! hash computed for a level-1 lookup also files the plan in level 2.
//! Recency and eviction are per shard: each shard is an LRU over about
//! 1/N-th of the keys.

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use pops_core::RoutingOutcome;
use pops_permutation::Permutation;

use crate::metrics::RequestKind;
use crate::service::ServiceRequest;

const NIL: usize = usize::MAX;

/// Builds the canonical cache key of `req` on a POPS(d, g) service.
pub fn canonical_key(d: usize, g: usize, req: &ServiceRequest) -> Box<[u8]> {
    let payload = match req {
        ServiceRequest::HRelation { relation } => 4 + 8 * relation.requests().len(),
        ServiceRequest::WithFaults { pi, faults } => 4 + 4 * (faults.failed_count() + pi.len()),
        ServiceRequest::Theorem2 { pi }
        | ServiceRequest::SingleSlot { pi }
        | ServiceRequest::Direct { pi }
        | ServiceRequest::Structured { pi } => 4 * pi.len(),
    };
    let mut key = Vec::with_capacity(9 + payload);
    key.push(req.kind().index() as u8);
    key.extend_from_slice(&(d as u32).to_le_bytes());
    key.extend_from_slice(&(g as u32).to_le_bytes());
    let push_image = |key: &mut Vec<u8>, image: &[usize]| {
        for &v in image {
            key.extend_from_slice(&(v as u32).to_le_bytes());
        }
    };
    match req {
        ServiceRequest::Theorem2 { pi }
        | ServiceRequest::SingleSlot { pi }
        | ServiceRequest::Direct { pi }
        | ServiceRequest::Structured { pi } => push_image(&mut key, pi.as_slice()),
        ServiceRequest::HRelation { relation } => {
            let mut pairs: Vec<(usize, usize)> = relation.requests().to_vec();
            pairs.sort_unstable();
            key.extend_from_slice(&(pairs.len() as u32).to_le_bytes());
            for (src, dst) in pairs {
                key.extend_from_slice(&(src as u32).to_le_bytes());
                key.extend_from_slice(&(dst as u32).to_le_bytes());
            }
        }
        ServiceRequest::WithFaults { pi, faults } => {
            let mut failed: Vec<usize> = faults.iter_failed().collect();
            failed.sort_unstable();
            key.extend_from_slice(&(failed.len() as u32).to_le_bytes());
            for c in failed {
                key.extend_from_slice(&(c as u32).to_le_bytes());
            }
            push_image(&mut key, pi.as_slice());
        }
    }
    key.into_boxed_slice()
}

/// Builds the level-2 cache key of one routing *phase*: the completed
/// permutation a König phase routes by Theorem 2. Byte-identical to
/// [`canonical_key`] of a `Theorem2` request over the same permutation, so
/// a permutation routed as a plain request and the same permutation
/// appearing as an h-relation phase share one level-2 entry.
pub fn phase_key(d: usize, g: usize, completed: &Permutation) -> Box<[u8]> {
    let mut key = Vec::with_capacity(9 + 4 * completed.len());
    key.push(RequestKind::Theorem2.index() as u8);
    key.extend_from_slice(&(d as u32).to_le_bytes());
    key.extend_from_slice(&(g as u32).to_le_bytes());
    for &v in completed.as_slice() {
        key.extend_from_slice(&(v as u32).to_le_bytes());
    }
    key.into_boxed_slice()
}

/// The cached value type of both levels: an immutable, thread-shareable
/// routing outcome. Level-2 entries are Theorem-2 outcomes (or, for
/// phases planned inside an h-relation and restored spills, bare
/// [`RoutingOutcome::Schedule`]s); the assembler reads their
/// [`RoutingOutcome::schedule`].
pub type CachedOutcome = Arc<RoutingOutcome>;

/// The keyed hash of canonical key bytes: std's SipHash
/// ([`RandomState`]) under a random key drawn once per hasher, so the
/// shard a key lands in cannot be predicted from outside the process.
/// Clones hash identically; two hashers made by [`KeyHasher::new`] do
/// not.
#[derive(Debug, Clone, Default)]
pub struct KeyHasher(RandomState);

impl KeyHasher {
    /// A hasher with a fresh random key.
    pub fn new() -> Self {
        Self::default()
    }

    /// The 64-bit hash of `key`'s bytes.
    pub fn hash(&self, key: &[u8]) -> u64 {
        self.0.hash_one(key)
    }
}

/// The shard maps' hasher: their keys are already [`KeyHasher`] hashes,
/// so it passes the `u64` through instead of hashing it again.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn write(&mut self, bytes: &[u8]) {
        // Unused (the map's keys are `u64`s), but must still hash.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

struct Slot<V> {
    key: Arc<[u8]>,
    hash: u64,
    value: V,
    prev: usize,
    next: usize,
    /// The next slot whose key has the same hash (`NIL` ends the chain).
    collision: usize,
}

/// A fixed-capacity LRU map from hashed canonical keys to values — one
/// shard of a [`ShardedPlanCache`]. Capacity 0 disables caching entirely.
struct PlanCache<V> {
    capacity: usize,
    /// Key hash → the first slot holding a key with that hash.
    map: HashMap<u64, usize, BuildHasherDefault<PassThrough>>,
    slots: Vec<Slot<V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl<V: Clone> PlanCache<V> {
    fn new(capacity: usize) -> Self {
        Self {
            capacity,
            map: HashMap::with_capacity_and_hasher(capacity.min(1 << 20), Default::default()),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// The slot holding `key`, if cached.
    fn find(&self, hash: u64, key: &[u8]) -> Option<usize> {
        let mut idx = *self.map.get(&hash)?;
        while idx != NIL {
            if *self.slots[idx].key == *key {
                return Some(idx);
            }
            idx = self.slots[idx].collision;
        }
        None
    }

    /// Looks `key` up, marking the entry most-recently-used on a hit.
    fn get(&mut self, hash: u64, key: &[u8]) -> Option<V> {
        let idx = self.find(hash, key)?;
        self.unlink(idx);
        self.push_front(idx);
        Some(self.slots[idx].value.clone())
    }

    /// Inserts (or refreshes) `key → value`, evicting the least-recently-
    /// used entry if the cache is full. Returns whether it evicted.
    fn insert(&mut self, hash: u64, key: Arc<[u8]>, value: V) -> bool {
        if self.capacity == 0 {
            return false;
        }
        if let Some(idx) = self.find(hash, &key) {
            self.slots[idx].value = value;
            self.unlink(idx);
            self.push_front(idx);
            return false;
        }
        let evicted = self.len() == self.capacity;
        if evicted {
            let lru = self.tail;
            self.unlink(lru);
            self.unchain(lru);
            self.free.push(lru);
        }
        let slot = Slot {
            collision: self.map.get(&hash).copied().unwrap_or(NIL),
            key,
            hash,
            value,
            prev: NIL,
            next: NIL,
        };
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx] = slot;
                idx
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        self.map.insert(hash, idx);
        self.push_front(idx);
        evicted
    }

    /// Removes slot `idx` from its hash's collision chain.
    fn unchain(&mut self, idx: usize) {
        let (hash, after) = (self.slots[idx].hash, self.slots[idx].collision);
        let Some(&first) = self.map.get(&hash) else {
            return;
        };
        if first == idx {
            if after == NIL {
                self.map.remove(&hash);
            } else {
                self.map.insert(hash, after);
            }
            return;
        }
        let mut at = first;
        while self.slots[at].collision != idx {
            at = self.slots[at].collision;
        }
        self.slots[at].collision = after;
    }

    fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slots[idx].prev, self.slots[idx].next);
        if prev != NIL {
            self.slots[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.slots[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.slots[idx].prev = NIL;
        self.slots[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Visits every entry from least- to most-recently used **without**
    /// touching recency.
    fn for_each_lru(&self, mut f: impl FnMut(&Arc<[u8]>, &V)) {
        let mut idx = self.tail;
        while idx != NIL {
            let slot = &self.slots[idx];
            f(&slot.key, &slot.value);
            idx = slot.prev;
        }
    }
}

/// A concurrent LRU: N LRU shards behind independent mutexes,
/// indexed by one [`KeyHasher`] hash per key. Hits on different shards
/// proceed in parallel; total capacity is split evenly across shards
/// (remainder to the first shards), so the logical capacity is exactly
/// what was asked for.
///
/// Callers hash a key once with [`ShardedPlanCache::hash`] and pass that
/// hash to [`get`](ShardedPlanCache::get) and
/// [`insert`](ShardedPlanCache::insert), here and in any cache built
/// [`with_hasher`](ShardedPlanCache::with_hasher) a clone of this one's
/// hasher.
///
/// ```
/// use std::sync::Arc;
/// use pops_service::cache::ShardedPlanCache;
///
/// let cache: ShardedPlanCache<u32> = ShardedPlanCache::new(100, 8);
/// assert_eq!((cache.capacity(), cache.shard_count()), (100, 8));
/// let hash = cache.hash(b"plan");
/// assert!(!cache.insert(hash, Arc::from(&b"plan"[..]), 7)); // nothing evicted
/// assert_eq!(cache.get(hash, b"plan"), Some(7));
/// assert_eq!(cache.get(cache.hash(b"other"), b"other"), None);
/// assert_eq!(cache.len(), 1);
/// ```
pub struct ShardedPlanCache<V> {
    hasher: KeyHasher,
    shards: Vec<Mutex<PlanCache<V>>>,
}

impl<V: Clone> ShardedPlanCache<V> {
    /// A cache of total capacity `capacity` split over `shards` shards
    /// (clamped to at least 1; capacity 0 disables caching entirely),
    /// with a fresh [`KeyHasher`].
    pub fn new(capacity: usize, shards: usize) -> Self {
        Self::with_hasher(capacity, shards, KeyHasher::new())
    }

    /// Like [`ShardedPlanCache::new`], hashing keys with `hasher` — pass
    /// a clone of another cache's [`hasher`](ShardedPlanCache::hasher) to
    /// reuse one key hash for both.
    pub fn with_hasher(capacity: usize, shards: usize, hasher: KeyHasher) -> Self {
        let shards = shards.max(1).min(capacity.max(1));
        let base = capacity / shards;
        let extra = capacity % shards;
        Self {
            hasher,
            shards: (0..shards)
                .map(|s| Mutex::new(PlanCache::new(base + usize::from(s < extra))))
                .collect(),
        }
    }

    /// The hasher this cache indexes keys by.
    pub fn hasher(&self) -> &KeyHasher {
        &self.hasher
    }

    /// The hash of `key` that [`get`](Self::get) and
    /// [`insert`](Self::insert) expect.
    pub fn hash(&self, key: &[u8]) -> u64 {
        self.hasher.hash(key)
    }

    /// Number of shards (independent locks).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a key with this hash lives in: the high bits of
    /// `hash × shard_count`, so every shard gets an equal slice of the
    /// hash range whatever the shard count.
    pub fn shard_index(&self, hash: u64) -> usize {
        ((u128::from(hash) * self.shards.len() as u128) >> 64) as usize
    }

    /// Total eviction capacity across shards.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|s| lock(s).capacity).sum()
    }

    /// Entries currently held across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// Whether no shard holds an entry.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks `key` (hashed to `hash`) up in its shard, marking the entry
    /// most-recently-used there on a hit. Only that shard's lock is
    /// taken, and nothing is allocated.
    pub fn get(&self, hash: u64, key: &[u8]) -> Option<V> {
        lock(&self.shards[self.shard_index(hash)]).get(hash, key)
    }

    /// Inserts (or refreshes) `key → value` in its shard, evicting that
    /// shard's least-recently-used entry if the shard is full. Returns
    /// whether an entry was evicted.
    pub fn insert(&self, hash: u64, key: Arc<[u8]>, value: V) -> bool {
        lock(&self.shards[self.shard_index(hash)]).insert(hash, key, value)
    }

    /// Drops every entry in every shard (capacities are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            lock(shard).clear();
        }
    }

    /// Visits every entry, shard by shard, least-recently-used first
    /// within each shard, without touching recency. Takes one shard lock
    /// at a time.
    pub fn for_each_lru(&self, mut f: impl FnMut(&Arc<[u8]>, &V)) {
        for shard in &self.shards {
            lock(shard).for_each_lru(&mut f);
        }
    }
}

fn lock<V>(shard: &Mutex<PlanCache<V>>) -> MutexGuard<'_, PlanCache<V>> {
    shard.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<V> std::fmt::Debug for ShardedPlanCache<V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedPlanCache")
            .field("shards", &self.shards.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pops_core::HRelation;
    use pops_network::FaultSet;
    use pops_network::PopsTopology;
    use pops_permutation::families::vector_reversal;

    fn key_of(bytes: &[u8]) -> Arc<[u8]> {
        Arc::from(bytes)
    }

    /// A fixed test hash, so single-shard tests can force collisions.
    fn h(key: &[u8]) -> u64 {
        key.iter()
            .fold(7, |h: u64, &b| h.wrapping_mul(31) + u64::from(b))
    }

    impl PlanCache<u32> {
        fn put(&mut self, key: &[u8], value: u32) -> bool {
            self.insert(h(key), key_of(key), value)
        }

        fn lookup(&mut self, key: &[u8]) -> Option<u32> {
            self.get(h(key), key)
        }
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache: PlanCache<u32> = PlanCache::new(2);
        assert!(!cache.put(b"a", 1));
        assert!(!cache.put(b"b", 2));
        assert_eq!(cache.lookup(b"a"), Some(1)); // a is now MRU
        assert!(cache.put(b"c", 3), "evicts b");
        assert_eq!(cache.lookup(b"b"), None);
        assert_eq!(cache.lookup(b"a"), Some(1));
        assert_eq!(cache.lookup(b"c"), Some(3));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_value_and_recency() {
        let mut cache: PlanCache<u32> = PlanCache::new(2);
        cache.put(b"a", 1);
        cache.put(b"b", 2);
        assert!(!cache.put(b"a", 10), "a refresh evicts nothing"); // a becomes MRU
        cache.put(b"c", 3); // evicts b
        assert_eq!(cache.lookup(b"a"), Some(10));
        assert_eq!(cache.lookup(b"b"), None);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache: PlanCache<u32> = PlanCache::new(0);
        assert!(!cache.put(b"a", 1));
        assert_eq!(cache.lookup(b"a"), None);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn eviction_slots_are_reused() {
        let mut cache: PlanCache<u32> = PlanCache::new(3);
        for round in 0u32..50 {
            cache.put(format!("k{round}").as_bytes(), round);
        }
        assert_eq!(cache.len(), 3);
        assert!(cache.slots.len() <= 4, "slab must recycle evicted slots");
        assert_eq!(cache.map.len(), 3);
        assert_eq!(cache.lookup(b"k49"), Some(49));
        cache.clear();
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn colliding_hashes_are_told_apart_by_their_bytes() {
        // Every key under one hash: the chain must keep them distinct,
        // and eviction must unlink the victim from the middle, the head
        // or the end of the chain.
        let mut cache: PlanCache<u32> = PlanCache::new(3);
        for (i, key) in [b"a", b"b", b"c"].into_iter().enumerate() {
            cache.insert(42, key_of(key), i as u32);
        }
        assert_eq!(cache.map.len(), 1);
        assert_eq!(cache.get(42, b"b"), Some(1));
        assert_eq!(cache.get(42, b"zz"), None, "same hash, other bytes: a miss");
        assert!(cache.insert(42, key_of(b"d"), 3), "evicts a");
        assert_eq!(cache.get(42, b"a"), None);
        assert!(cache.insert(42, key_of(b"e"), 4), "evicts c");
        assert!(cache.insert(42, key_of(b"f"), 5), "evicts b");
        for (key, value) in [(b"d", 3), (b"e", 4), (b"f", 5)] {
            assert_eq!(cache.get(42, key), Some(value));
        }
        assert_eq!((cache.len(), cache.map.len()), (3, 1));
    }

    #[test]
    fn canonical_keys_separate_kinds_and_shapes() {
        let pi = vector_reversal(16);
        let theorem2 = ServiceRequest::Theorem2 { pi: pi.clone() };
        let direct = ServiceRequest::Direct { pi: pi.clone() };
        let k44 = canonical_key(4, 4, &theorem2);
        assert_eq!(
            k44,
            canonical_key(4, 4, &ServiceRequest::Theorem2 { pi: pi.clone() })
        );
        assert_ne!(k44, canonical_key(4, 4, &direct), "kind must separate");
        assert_ne!(
            k44,
            canonical_key(2, 8, &theorem2),
            "same n, different (d, g)"
        );
        assert_ne!(k44, canonical_key(8, 2, &theorem2));
    }

    #[test]
    fn h_relation_keys_canonicalize_request_order() {
        let a = ServiceRequest::HRelation {
            relation: HRelation::new(6, vec![(0, 1), (2, 5), (1, 0)]).unwrap(),
        };
        let b = ServiceRequest::HRelation {
            relation: HRelation::new(6, vec![(2, 5), (1, 0), (0, 1)]).unwrap(),
        };
        let c = ServiceRequest::HRelation {
            relation: HRelation::new(6, vec![(2, 5), (1, 0), (0, 2)]).unwrap(),
        };
        assert_eq!(canonical_key(2, 3, &a), canonical_key(2, 3, &b));
        assert_ne!(canonical_key(2, 3, &a), canonical_key(2, 3, &c));
    }

    #[test]
    fn phase_key_matches_theorem2_canonical_key() {
        let pi = vector_reversal(16);
        assert_eq!(
            phase_key(4, 4, &pi),
            canonical_key(4, 4, &ServiceRequest::Theorem2 { pi: pi.clone() }),
            "phase keys must alias theorem2 request keys"
        );
        assert_ne!(phase_key(4, 4, &pi), phase_key(2, 8, &pi));
    }

    #[test]
    fn for_each_lru_walks_tail_to_head() {
        let mut cache: PlanCache<u32> = PlanCache::new(3);
        cache.put(b"a", 1);
        cache.put(b"b", 2);
        cache.put(b"c", 3);
        assert_eq!(cache.lookup(b"a"), Some(1)); // a becomes MRU
        let mut seen = Vec::new();
        cache.for_each_lru(|key, &v| seen.push((key.to_vec(), v)));
        assert_eq!(
            seen,
            vec![
                (b"b".to_vec(), 2), // LRU first
                (b"c".to_vec(), 3),
                (b"a".to_vec(), 1), // MRU last
            ]
        );
    }

    #[test]
    fn sharded_cache_round_trips_and_bounds_capacity() {
        let cache: ShardedPlanCache<u32> = ShardedPlanCache::new(10, 4);
        assert_eq!(cache.capacity(), 10, "capacity split must sum back");
        assert_eq!(cache.shard_count(), 4);
        for i in 0u32..100 {
            let key = format!("k{i}");
            cache.insert(cache.hash(key.as_bytes()), key_of(key.as_bytes()), i);
        }
        assert!(cache.len() <= 10, "len {} exceeds capacity", cache.len());
        assert!(!cache.is_empty());
        let mut visited = 0;
        cache.for_each_lru(|_, _| visited += 1);
        assert_eq!(visited, cache.len());
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn sharded_cache_clamps_shards_to_capacity() {
        // 2 entries over 16 requested shards: no shard may get capacity 0,
        // which would silently drop inserts routed to it.
        let cache: ShardedPlanCache<u32> = ShardedPlanCache::new(2, 16);
        assert!(cache.shard_count() <= 2);
        for i in 0u32..20 {
            let key = format!("k{i}");
            cache.insert(cache.hash(key.as_bytes()), key_of(key.as_bytes()), i);
        }
        assert!((1..=2).contains(&cache.len()), "len {}", cache.len());
        // Zero capacity still disables caching, sharded or not.
        let off: ShardedPlanCache<u32> = ShardedPlanCache::new(0, 8);
        off.insert(off.hash(b"a"), key_of(b"a"), 1);
        assert_eq!(off.get(off.hash(b"a"), b"a"), None);
    }

    #[test]
    fn sharded_cache_is_concurrently_usable() {
        let cache: Arc<ShardedPlanCache<u64>> = Arc::new(ShardedPlanCache::new(256, 8));
        std::thread::scope(|scope| {
            for worker in 0u64..8 {
                let cache = cache.clone();
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let key = key_of(format!("w{worker}-{i}").as_bytes());
                        let hash = cache.hash(&key);
                        cache.insert(hash, key.clone(), worker * 1000 + i);
                        // The entry may have been evicted by concurrent
                        // inserts, but a hit must never be a wrong value.
                        let got = cache.get(hash, &key);
                        assert!(got.is_none() || got == Some(worker * 1000 + i));
                    }
                });
            }
        });
        assert!(cache.len() <= 256);
    }

    #[test]
    fn the_key_hash_is_keyed_per_cache() {
        let key = canonical_key(
            4,
            4,
            &ServiceRequest::Theorem2 {
                pi: vector_reversal(16),
            },
        );
        let a: ShardedPlanCache<u32> = ShardedPlanCache::new(64, 4);
        let b: ShardedPlanCache<u32> = ShardedPlanCache::new(64, 4);
        assert_ne!(a.hash(&key), b.hash(&key), "fresh caches draw fresh keys");
        let shared: ShardedPlanCache<u32> =
            ShardedPlanCache::with_hasher(64, 4, a.hasher().clone());
        assert_eq!(a.hash(&key), shared.hash(&key), "a shared hasher agrees");
    }

    #[test]
    fn fault_keys_include_the_fault_set() {
        let t = PopsTopology::new(2, 3);
        let pi = vector_reversal(6);
        let none = FaultSet::none(&t);
        let mut one = FaultSet::none(&t);
        one.fail_coupler(3);
        let k_none = canonical_key(
            2,
            3,
            &ServiceRequest::WithFaults {
                pi: pi.clone(),
                faults: none,
            },
        );
        let k_one = canonical_key(
            2,
            3,
            &ServiceRequest::WithFaults {
                pi: pi.clone(),
                faults: one,
            },
        );
        assert_ne!(k_none, k_one);
    }
}
