//! The three traffic mixes: request universes and seeded request streams.
//!
//! Everything here is a pure function of the workload and the seed, so
//! the TCP run and the in-process traced replay see the same requests.

use pops_core::HRelation;
use pops_network::{FaultSet, PopsTopology};
use pops_permutation::families::random_permutation;
use pops_permutation::{Permutation, SplitMix64};

/// Phases per h-relation request (`h`).
pub const H: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HitBinary,
    MissBinary,
    MixedJson,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::HitBinary,
        Workload::MissBinary,
        Workload::MixedJson,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HitBinary => "hit_binary",
            Workload::MissBinary => "miss_binary",
            Workload::MixedJson => "mixed_json",
        }
    }

    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn binary(self) -> bool {
        self != Workload::MixedJson
    }

    /// The shapes requests alternate between; the first is the server's
    /// default topology.
    pub fn shapes(self) -> Vec<PopsTopology> {
        match self {
            Workload::HitBinary | Workload::MissBinary => vec![PopsTopology::new(32, 32)],
            Workload::MixedJson => vec![PopsTopology::new(16, 16), PopsTopology::new(8, 32)],
        }
    }
}

/// One request, by reference into the [`Universe`] where it repeats.
#[derive(Debug, Clone)]
pub enum Op {
    /// `theorem2` on working-set permutation `item` of `shape`.
    Theorem2 { shape: usize, item: usize },
    /// `theorem2` on a permutation that is never sent again.
    Fresh { shape: usize, pi: Permutation },
    /// `faults` on a permutation that is never sent again, with one
    /// coupler down.
    Faults {
        shape: usize,
        pi: Permutation,
        coupler: usize,
    },
    /// An h-relation: the union of `H` pool permutations, in this order.
    HRelation { shape: usize, phases: [usize; H] },
}

impl Op {
    pub fn shape(&self) -> usize {
        match self {
            Op::Theorem2 { shape, .. }
            | Op::Fresh { shape, .. }
            | Op::Faults { shape, .. }
            | Op::HRelation { shape, .. } => *shape,
        }
    }
}

/// The fixed request material of one shape.
pub struct ShapeSet {
    pub topology: PopsTopology,
    /// Permutations that `theorem2` requests repeat.
    pub working: Vec<Permutation>,
    /// Single couplers whose loss leaves the fabric routable.
    pub couplers: Vec<usize>,
    /// Permutations h-relations are built from.
    pub pool: Vec<Permutation>,
}

/// Everything the workload's requests are drawn from.
pub struct Universe {
    pub workload: Workload,
    pub seed: u64,
    pub shapes: Vec<ShapeSet>,
}

/// Distinct stream seeds from one benchmark seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    seed ^ stream.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Couplers between two different groups whose loss alone leaves every
/// group pair routable. (One kind of coupler only, so that seeds differ
/// in which couplers fail, not in how hard the detour is to plan.)
fn routable_couplers(topology: &PopsTopology, rng: &mut SplitMix64, count: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let c = rng.next_below(topology.coupler_count());
        let mut set = FaultSet::none(topology);
        set.fail_coupler(c);
        let cross = topology.coupler_src_group(c) != topology.coupler_dest_group(c);
        if cross && set.fully_routable(topology) && !out.contains(&c) {
            out.push(c);
        }
    }
    out
}

impl Universe {
    pub fn new(workload: Workload, seed: u64) -> Self {
        let (working, pool) = match workload {
            Workload::HitBinary => (768, 0),
            Workload::MissBinary => (0, 0),
            Workload::MixedJson => (256, 32),
        };
        let shapes = workload
            .shapes()
            .into_iter()
            .enumerate()
            .map(|(s, topology)| {
                let mut rng = SplitMix64::new(sub_seed(seed, 100 + s as u64));
                let n = topology.n();
                let working: Vec<Permutation> = (0..working)
                    .map(|_| random_permutation(n, &mut rng))
                    .collect();
                let couplers = routable_couplers(&topology, &mut rng, 8);
                let pool = (0..pool).map(|_| random_permutation(n, &mut rng)).collect();
                ShapeSet {
                    topology,
                    working,
                    couplers,
                    pool,
                }
            })
            .collect();
        Self {
            workload,
            seed,
            shapes,
        }
    }

    pub fn topology(&self, op: &Op) -> PopsTopology {
        self.shapes[op.shape()].topology
    }

    /// The permutation a permutation-carrying request routes.
    pub fn permutation<'a>(&'a self, op: &'a Op) -> Option<&'a Permutation> {
        match op {
            Op::Theorem2 { shape, item } => Some(&self.shapes[*shape].working[*item]),
            Op::Fresh { pi, .. } | Op::Faults { pi, .. } => Some(pi),
            Op::HRelation { .. } => None,
        }
    }

    /// The coupler a request declares down.
    pub fn fault(&self, op: &Op) -> Option<usize> {
        match op {
            Op::Faults { coupler, .. } => Some(*coupler),
            _ => None,
        }
    }

    pub fn relation(&self, op: &Op) -> Option<HRelation> {
        let Op::HRelation { shape, phases } = op else {
            return None;
        };
        let set = &self.shapes[*shape];
        let requests = phases
            .iter()
            .flat_map(|&p| set.pool[p].as_slice().iter().copied().enumerate())
            .collect();
        HRelation::new(set.topology.n(), requests).ok()
    }

    /// Slot in the checked-schedule store of a request that repeats.
    pub fn store_index(&self, op: &Op) -> Option<usize> {
        match op {
            Op::Theorem2 { shape, item } => {
                let offset: usize = self.shapes[..*shape].iter().map(|s| s.working.len()).sum();
                Some(offset + item)
            }
            _ => None,
        }
    }

    pub fn store_len(&self) -> usize {
        self.shapes.iter().map(|s| s.working.len()).sum()
    }

    /// Requests that put every repeatable item through the server once,
    /// then never-repeated ones, in a fixed order. The miss workload sends
    /// `capacity` fresh permutations, so its cache starts full and
    /// evicting; the mixed one follows its working set with as many fresh
    /// `faults` requests, as its steady state holds one-off entries too.
    pub fn warmup(&self, capacity: usize) -> Vec<Op> {
        let mut ops = Vec::new();
        let mut rng = SplitMix64::new(sub_seed(self.seed, 7));
        for (s, set) in self.shapes.iter().enumerate() {
            let n = set.topology.n();
            for item in 0..set.working.len() {
                ops.push(Op::Theorem2 { shape: s, item });
            }
            for chunk in 0..set.pool.len() / H {
                let phases = std::array::from_fn(|k| chunk * H + k);
                ops.push(Op::HRelation { shape: s, phases });
            }
            match self.workload {
                Workload::HitBinary => {}
                Workload::MissBinary => ops.extend((0..capacity).map(|_| Op::Fresh {
                    shape: s,
                    pi: random_permutation(n, &mut rng),
                })),
                Workload::MixedJson => ops.extend((0..set.working.len()).map(|_| Op::Faults {
                    shape: s,
                    pi: random_permutation(n, &mut rng),
                    coupler: set.couplers[rng.next_below(set.couplers.len())],
                })),
            }
        }
        ops
    }

    /// The closed-loop request stream of connection `conn`.
    pub fn stream(&self, conn: u64) -> Stream<'_> {
        Stream {
            universe: self,
            rng: SplitMix64::new(sub_seed(self.seed, 1000 + conn)),
            count: 0,
        }
    }
}

/// A seeded, endless request sequence.
pub struct Stream<'a> {
    universe: &'a Universe,
    rng: SplitMix64,
    count: usize,
}

impl Stream<'_> {
    pub fn next_op(&mut self) -> Op {
        let u = self.universe;
        let shape = self.count % u.shapes.len();
        self.count += 1;
        let set = &u.shapes[shape];
        let rng = &mut self.rng;
        match u.workload {
            Workload::HitBinary => Op::Theorem2 {
                shape,
                item: rng.next_below(set.working.len()),
            },
            Workload::MissBinary => Op::Fresh {
                shape,
                pi: random_permutation(set.topology.n(), rng),
            },
            // 5/8 theorem2 repeats, 2/8 faults, 1/8 h-relations.
            Workload::MixedJson => match rng.next_below(8) {
                0..=4 => Op::Theorem2 {
                    shape,
                    item: rng.next_below(set.working.len()),
                },
                5 | 6 => Op::Faults {
                    shape,
                    pi: random_permutation(set.topology.n(), rng),
                    coupler: set.couplers[rng.next_below(set.couplers.len())],
                },
                _ => {
                    let mut picked = [0; H];
                    let mut k = 0;
                    while k < H {
                        let p = rng.next_below(set.pool.len());
                        if !picked[..k].contains(&p) {
                            picked[k] = p;
                            k += 1;
                        }
                    }
                    Op::HRelation {
                        shape,
                        phases: picked,
                    }
                }
            },
        }
    }
}
