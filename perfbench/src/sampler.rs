//! Seeded input samplers: the Zipf-skewed fiber stream that drives both
//! the query mix and the delta batches.
//!
//! Everything here is a pure function of its seed, so the same `--seed`
//! replays the same queries and deltas on any host.

use dbtf_tensor::{BoolTensor, DeltaCell, TensorDelta};

/// SplitMix64: a tiny, fully specified generator (no dependence on any
/// library's stream stability).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)` (`n > 0`), by 128-bit multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// Zipf-like ranks over `[0, n)`: rank `r` is drawn with probability
/// roughly proportional to `(r + 1)^-s`, by inverting the continuous
/// power-law CDF on `[1, n + 1)`.
#[derive(Clone, Debug)]
pub struct Zipf {
    n: u64,
    s: f64,
    /// `(n + 1)^(1 - s) - 1`, the CDF's scale.
    span: f64,
}

impl Zipf {
    /// A sampler over `n > 0` ranks with exponent `s > 0`, `s != 1`.
    pub fn new(n: u64, s: f64) -> Zipf {
        assert!(n > 0, "zipf over no ranks");
        assert!(
            s > 0.0 && (s - 1.0).abs() > 1e-9,
            "zipf exponent must be > 0 and != 1"
        );
        Zipf {
            n,
            s,
            span: ((n + 1) as f64).powf(1.0 - s) - 1.0,
        }
    }

    /// One rank in `[0, n)`; rank 0 is the most likely.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let x = (self.span * rng.next_f64() + 1.0).powf(1.0 / (1.0 - self.s));
        (x.floor() as u64).clamp(1, self.n) - 1
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// A seeded bijection on `[0, n)`: `r ↦ (a·r + b) mod n` with
/// `gcd(a, n) = 1`. Scatters Zipf ranks over the whole fiber space
/// without materializing a permutation table.
#[derive(Clone, Debug)]
pub struct AffinePerm {
    n: u64,
    a: u64,
    b: u64,
}

impl AffinePerm {
    /// A permutation of `[0, n)` drawn from `rng`.
    pub fn new(n: u64, rng: &mut Rng) -> AffinePerm {
        assert!(n > 0, "permutation of nothing");
        let mut a = rng.below(n).max(1);
        while gcd(a, n) != 1 {
            a = rng.below(n).max(1);
        }
        AffinePerm {
            n,
            a,
            b: rng.below(n),
        }
    }

    /// The image of `r < n`.
    pub fn apply(&self, r: u64) -> u64 {
        ((self.a as u128 * r as u128 + self.b as u128) % self.n as u128) as u64
    }
}

/// Zipf exponent of the fiber skew: the hot set fits the serving engine's
/// default 1024-fiber cache, the tail misses.
pub const ZIPF_S: f64 = 1.1;

/// Read mix: percent points and slices; the rest are topk.
pub const POINT_PCT: u64 = 80;
/// See [`POINT_PCT`].
pub const SLICE_PCT: u64 = 15;

/// The skewed fiber stream. A fiber is `X̃[i, j, :]` — the orientation
/// the serving engine's point path caches — identified by `i·J + j`.
#[derive(Clone, Debug)]
pub struct FiberStream {
    dims: [usize; 3],
    zipf: Zipf,
    perm: AffinePerm,
    rng: Rng,
}

impl FiberStream {
    /// A stream over the `I·J` fibers of a `dims` tensor. The popularity
    /// permutation comes from `seed`, so every stream of one seed shares
    /// the same hot fibers; the draws come from `(seed, stream)`.
    pub fn new(dims: [usize; 3], seed: u64, stream: u64) -> FiberStream {
        let n = dims[0] as u64 * dims[1] as u64;
        let perm = AffinePerm::new(n, &mut Rng::new(seed));
        FiberStream {
            dims,
            zipf: Zipf::new(n, ZIPF_S),
            perm,
            rng: Rng::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)),
        }
    }

    /// The fiber of popularity rank `rank` as `(i, j)`.
    pub fn fiber_of_rank(&self, rank: u64) -> (usize, usize) {
        let f = self.perm.apply(rank);
        (
            (f / self.dims[1] as u64) as usize,
            (f % self.dims[1] as u64) as usize,
        )
    }

    /// The next skewed fiber `(i, j)`.
    pub fn next_fiber(&mut self) -> (usize, usize) {
        let rank = self.zipf.sample(&mut self.rng);
        self.fiber_of_rank(rank)
    }

    /// Uniform in `[0, n)` from the stream's generator.
    pub fn below(&mut self, n: usize) -> usize {
        self.rng.below(n as u64) as usize
    }
}

/// One reconstruction query, in 0-based engine conventions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Query {
    /// `X̃[i, j, k]`.
    Point(usize, usize, usize),
    /// The fiber with free mode `free` (0–2) at fixed indices `lo`, `hi`.
    Slice(usize, usize, usize),
    /// The `k` strongest columns of entity `entity` of mode `mode`.
    Topk(usize, usize, usize),
}

impl Query {
    /// The request line (without the newline) the serve protocol
    /// expects: 1-based wire modes, `lo`/`hi` named by their modes.
    pub fn to_line(self, id: u64) -> String {
        match self {
            Query::Point(i, j, k) => {
                format!("{{\"id\":{id},\"q\":\"point\",\"i\":{i},\"j\":{j},\"k\":{k}}}")
            }
            Query::Slice(free, lo, hi) => {
                let (lo_name, hi_name) = match free {
                    0 => ("j", "k"),
                    1 => ("i", "k"),
                    _ => ("i", "j"),
                };
                format!(
                    "{{\"id\":{id},\"q\":\"slice\",\"mode\":{},\"{lo_name}\":{lo},\"{hi_name}\":{hi}}}",
                    free + 1
                )
            }
            Query::Topk(mode, entity, k) => format!(
                "{{\"id\":{id},\"q\":\"topk\",\"mode\":{},\"entity\":{entity},\"k\":{k}}}",
                mode + 1
            ),
        }
    }
}

/// Seeded query stream: skewed fibers, uniform position along the fiber.
#[derive(Clone, Debug)]
pub struct QueryStream {
    fibers: FiberStream,
}

impl QueryStream {
    /// A query stream over `dims`; see [`FiberStream::new`] for `seed`
    /// and `stream`.
    pub fn new(dims: [usize; 3], seed: u64, stream: u64) -> QueryStream {
        QueryStream {
            fibers: FiberStream::new(dims, seed, stream),
        }
    }

    /// The next query: a point on, or a slice of, a skewed fiber
    /// `X̃[i, j, :]`, or a topk on its `i` or `j` entity.
    pub fn next_query(&mut self) -> Query {
        let (i, j) = self.fibers.next_fiber();
        let dice = self.fibers.below(100) as u64;
        if dice < POINT_PCT {
            let k = self.fibers.below(self.fibers.dims[2]);
            Query::Point(i, j, k)
        } else if dice < POINT_PCT + SLICE_PCT {
            Query::Slice(2, i, j)
        } else if self.fibers.below(2) == 0 {
            Query::Topk(0, i, 5)
        } else {
            Query::Topk(1, j, 5)
        }
    }
}

/// A seeded delta batch of `cells` flips drawn from the same skew as the
/// reads (so refreshes touch hot fibers): each picks a skewed fiber and a
/// uniform position on it, and flips that cell of `x`.
pub fn delta_batch(x: &BoolTensor, fibers: &mut FiberStream, cells: usize) -> TensorDelta {
    let dims = x.dims();
    let edits = (0..cells)
        .map(|_| {
            let (i, j) = fibers.next_fiber();
            let k = fibers.below(dims[2]);
            let coord = [i as u32, j as u32, k as u32];
            DeltaCell {
                coord,
                set: !x.contains(coord[0], coord[1], coord[2]),
            }
        })
        .collect();
    TensorDelta::new(dims, edits).expect("sampled cells lie inside the tensor")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tensor() -> BoolTensor {
        BoolTensor::from_entries([40, 30, 20], vec![[1, 2, 3], [4, 5, 6], [0, 0, 0]])
    }

    #[test]
    fn queries_are_deterministic_for_a_seed() {
        let run = |seed| {
            let mut s = QueryStream::new([40, 30, 20], seed, 1);
            (0..500).map(|_| s.next_query()).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn deltas_are_deterministic_for_a_seed() {
        let x = tensor();
        let run = |seed| {
            let mut f = FiberStream::new(x.dims(), seed, 2);
            (0..5)
                .map(|_| delta_batch(&x, &mut f, 16).to_text())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn deltas_flip_cells() {
        let x = tensor();
        let mut f = FiberStream::new(x.dims(), 1, 2);
        for _ in 0..20 {
            for cell in delta_batch(&x, &mut f, 8).cells() {
                let [i, j, k] = cell.coord;
                assert_eq!(cell.set, !x.contains(i, j, k));
            }
        }
    }

    #[test]
    fn streams_of_one_seed_share_the_hot_fibers() {
        let a = FiberStream::new([50, 60, 7], 9, 1);
        let b = FiberStream::new([50, 60, 7], 9, 2);
        let c = FiberStream::new([50, 60, 7], 10, 1);
        assert_eq!(a.fiber_of_rank(0), b.fiber_of_rank(0));
        assert!((0..10).any(|r| a.fiber_of_rank(r) != c.fiber_of_rank(r)));
    }

    #[test]
    fn affine_perm_is_a_bijection() {
        for n in [1u64, 2, 12, 97, 1000] {
            let p = AffinePerm::new(n, &mut Rng::new(n));
            let mut seen: Vec<u64> = (0..n).map(|r| p.apply(r)).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..n).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(10_000, 1.1);
        let mut rng = Rng::new(5);
        let draws: Vec<u64> = (0..20_000).map(|_| z.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&r| r < 10_000));
        let top = draws.iter().filter(|&&r| r < 100).count();
        // The top 1% of ranks draws far more than 1% of the samples.
        assert!(top > 20_000 / 4, "top-100 share {top}");
    }

    #[test]
    fn query_lines_use_wire_conventions() {
        assert_eq!(
            Query::Slice(2, 3, 4).to_line(9),
            r#"{"id":9,"q":"slice","mode":3,"i":3,"j":4}"#
        );
        assert_eq!(
            Query::Topk(0, 1, 5).to_line(1),
            r#"{"id":1,"q":"topk","mode":1,"entity":1,"k":5}"#
        );
    }
}
