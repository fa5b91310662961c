//! Correctness gates, run outside every timed region.
//!
//! The repository's oracles (`dbtf_oracle::cp_error`, `serving_*`,
//! `check_bounded_resweep`) evaluate cell by cell over all `I·J·K`
//! positions, which is seconds per call at 384³ and out of reach on the
//! 25600×25600×348 proxy. The gates here compute the same quantities from
//! the same definitions in sparse form — exact error by inclusion–exclusion
//! over rank-1 blocks, replies from the factor rows — and the tests below
//! check them against those oracles on tensors small enough for both.

use dbtf::FactorSet;
use dbtf_telemetry::JsonValue;
use dbtf_tensor::{BitMatrix, BoolTensor};

use crate::sampler::Query;

/// Column `c` of `m` as packed words.
fn column_words(m: &BitMatrix, c: usize) -> Vec<u64> {
    m.column(c).words().to_vec()
}

fn popcount(words: &[u64]) -> u64 {
    words.iter().map(|w| u64::from(w.count_ones())).sum()
}

fn and(x: &[u64], y: &[u64]) -> Vec<u64> {
    x.iter().zip(y).map(|(a, b)| a & b).collect()
}

/// `|X̃|`, the number of cells the Boolean CP reconstruction sets, by
/// inclusion–exclusion over the rank-1 blocks `a_r ∘ b_r ∘ c_r`: a subset
/// of blocks intersects in `|∩a|·|∩b|·|∩c|` cells, and a subset whose
/// intersection is empty prunes all of its supersets.
pub fn reconstruction_size(f: &FactorSet) -> u64 {
    let cols: Vec<[Vec<u64>; 3]> = (0..f.rank())
        .map(|r| {
            [
                column_words(&f.a, r),
                column_words(&f.b, r),
                column_words(&f.c, r),
            ]
        })
        .collect();
    fn walk(
        cols: &[[Vec<u64>; 3]],
        start: usize,
        cur: &[Vec<u64>; 3],
        add: bool,
        total: &mut i128,
    ) {
        for (r, col) in cols.iter().enumerate().skip(start) {
            let next = [
                and(&cur[0], &col[0]),
                and(&cur[1], &col[1]),
                and(&cur[2], &col[2]),
            ];
            let size = popcount(&next[0]) as i128
                * popcount(&next[1]) as i128
                * popcount(&next[2]) as i128;
            if size == 0 {
                continue;
            }
            *total += if add { size } else { -size };
            walk(cols, r + 1, &next, !add, total);
        }
    }
    let full = [
        vec![u64::MAX; f.a.rows().div_ceil(64)],
        vec![u64::MAX; f.b.rows().div_ceil(64)],
        vec![u64::MAX; f.c.rows().div_ceil(64)],
    ];
    let mut total = 0i128;
    walk(&cols, 0, &full, true, &mut total);
    u64::try_from(total).expect("a union of blocks has a non-negative size")
}

/// Does the reconstruction set cell `(i, j, k)`?
fn cell(f: &FactorSet, i: usize, j: usize, k: usize) -> bool {
    let (a, b, c) = (f.a.row(i), f.b.row(j), f.c.row(k));
    a.iter().zip(b).zip(c).any(|((x, y), z)| x & y & z != 0)
}

/// Exact `|X ⊕ X̃| = |X| + |X̃| − 2·|X ∧ X̃|`.
pub fn exact_error(x: &BoolTensor, f: &FactorSet) -> u64 {
    let both = x
        .iter()
        .filter(|&[i, j, k]| cell(f, i as usize, j as usize, k as usize))
        .count() as u64;
    x.nnz() as u64 + reconstruction_size(f) - 2 * both
}

/// The answer a correct server gives to one query, from the definitions:
/// a point is `⋁_r a_ir ∧ b_jr ∧ c_kr`; a slice lists the set cells of
/// one fiber; topk weighs each column set in the entity's row by the
/// product of the other two factors' column counts, ranked by weight
/// descending, then column ascending.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Answer {
    /// A point's value.
    Point(bool),
    /// A slice's set indices, ascending.
    Slice(Vec<usize>),
    /// A topk's `(column, weight)` list.
    Topk(Vec<(usize, u64)>),
}

/// Evaluates queries against one generation's factors.
pub struct Evaluator {
    factors: FactorSet,
    counts: [Vec<u64>; 3],
}

impl Evaluator {
    /// An evaluator for `factors`.
    pub fn new(factors: FactorSet) -> Evaluator {
        let count = |m: &BitMatrix| {
            (0..m.cols())
                .map(|r| m.column(r).count_ones() as u64)
                .collect()
        };
        let counts = [count(&factors.a), count(&factors.b), count(&factors.c)];
        Evaluator { factors, counts }
    }

    /// The expected answer to `q`.
    pub fn answer(&self, q: Query) -> Answer {
        let f = &self.factors;
        match q {
            Query::Point(i, j, k) => Answer::Point(cell(f, i, j, k)),
            Query::Slice(free, lo, hi) => {
                let len = [f.a.rows(), f.b.rows(), f.c.rows()][free];
                Answer::Slice(
                    (0..len)
                        .filter(|&t| match free {
                            0 => cell(f, t, lo, hi),
                            1 => cell(f, lo, t, hi),
                            _ => cell(f, lo, hi, t),
                        })
                        .collect(),
                )
            }
            Query::Topk(mode, entity, k) => {
                let own = [&f.a, &f.b, &f.c][mode];
                let (o1, o2) = match mode {
                    0 => (1, 2),
                    1 => (0, 2),
                    _ => (0, 1),
                };
                let mut ranked: Vec<(usize, u64)> = (0..f.rank())
                    .filter(|&r| own.get(entity, r))
                    .map(|r| (r, self.counts[o1][r] * self.counts[o2][r]))
                    .collect();
                ranked.sort_by(|x, y| y.1.cmp(&x.1).then(x.0.cmp(&y.0)));
                ranked.truncate(k);
                Answer::Topk(ranked)
            }
        }
    }
}

/// Parses a reply line to `q` into an [`Answer`]; `None` for an error
/// reply or a malformed line.
pub fn parse_reply(line: &str, q: Query) -> Option<Answer> {
    let v = JsonValue::parse(line).ok()?;
    if v.get("ok").and_then(JsonValue::as_bool) != Some(true) {
        return None;
    }
    Some(match q {
        Query::Point(..) => Answer::Point(v.get("value")?.as_bool()?),
        Query::Slice(..) => Answer::Slice(
            v.get("indices")?
                .as_array()?
                .iter()
                .map(|x| x.as_u64().map(|n| n as usize))
                .collect::<Option<_>>()?,
        ),
        Query::Topk(..) => Answer::Topk(
            v.get("columns")?
                .as_array()?
                .iter()
                .map(|pair| {
                    let pair = pair.as_array()?;
                    Some((pair.first()?.as_u64()? as usize, pair.get(1)?.as_u64()?))
                })
                .collect::<Option<_>>()?,
        ),
    })
}

/// Gate for one fitted factor set: its error must equal the exact error
/// recomputed from the definition, and it must be bit-identical to the
/// reference run's factors. Returns violations.
pub fn solve_violations(
    x: &BoolTensor,
    factors: &FactorSet,
    reported: u64,
    reference: &FactorSet,
) -> Vec<String> {
    let mut v = Vec::new();
    let exact = exact_error(x, factors);
    if exact != reported {
        v.push(format!("reported error {reported} != exact error {exact}"));
    }
    if factors != reference {
        v.push("factors differ from the reference run".to_string());
    }
    v
}

/// The bounded re-sweep contract of one delta update (the same two
/// conditions as `dbtf_oracle::check_bounded_resweep`): columns outside
/// `affected` are unchanged, and the new factors reconstruct `x_new` no
/// worse than the old ones. Returns violations.
pub fn resweep_violations(
    x_new: &BoolTensor,
    before: &FactorSet,
    after: &FactorSet,
    affected: &[usize],
) -> Vec<String> {
    let mut v = Vec::new();
    for (name, was, now) in [
        ("A", &before.a, &after.a),
        ("B", &before.b, &after.b),
        ("C", &before.c, &after.c),
    ] {
        for r in (0..before.rank()).filter(|r| !affected.contains(r)) {
            if was.column(r) != now.column(r) {
                v.push(format!("unaffected column {r} of {name} changed"));
            }
        }
    }
    let (e0, e1) = (exact_error(x_new, before), exact_error(x_new, after));
    if e1 > e0 {
        v.push(format!("re-sweep made the error worse: {e1} > {e0}"));
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtf_serve::{FactorStore, QueryEngine, ServeMetrics};
    use dbtf_tensor::{DeltaCell, TensorDelta};
    use std::sync::Arc;

    fn factors(dims: [usize; 3], rank: usize, seed: u64) -> FactorSet {
        let mut rng = crate::sampler::Rng::new(seed);
        let mut m = |rows| {
            let mut b = BitMatrix::zeros(rows, rank);
            for r in 0..rows {
                for c in 0..rank {
                    b.set(r, c, rng.below(100) < 30);
                }
            }
            b
        };
        FactorSet {
            a: m(dims[0]),
            b: m(dims[1]),
            c: m(dims[2]),
        }
    }

    fn tensor(dims: [usize; 3], seed: u64) -> BoolTensor {
        let mut rng = crate::sampler::Rng::new(seed);
        let entries = (0..200)
            .map(|_| {
                [
                    rng.below(dims[0] as u64) as u32,
                    rng.below(dims[1] as u64) as u32,
                    rng.below(dims[2] as u64) as u32,
                ]
            })
            .collect();
        BoolTensor::from_entries(dims, entries)
    }

    #[test]
    fn exact_error_matches_the_cell_by_cell_oracle() {
        for seed in 0..6 {
            let dims = [13, 9, 70];
            let (x, f) = (tensor(dims, seed), factors(dims, 4 + seed as usize, seed));
            assert_eq!(
                exact_error(&x, &f),
                dbtf_oracle::cp_error(&x, &f.a, &f.b, &f.c),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn answers_match_the_serving_oracles() {
        let dims = [11, 7, 66];
        let f = factors(dims, 5, 3);
        let recon = dbtf_oracle::cp_reconstruct(&f.a, &f.b, &f.c);
        let ev = Evaluator::new(f.clone());
        for i in 0..dims[0] {
            for j in 0..dims[1] {
                for k in (0..dims[2]).step_by(5) {
                    assert_eq!(
                        ev.answer(Query::Point(i, j, k)),
                        Answer::Point(dbtf_oracle::serving_point(&recon, i, j, k))
                    );
                }
                assert_eq!(
                    ev.answer(Query::Slice(2, i, j)),
                    Answer::Slice(dbtf_oracle::serving_slice(&recon, 2, i, j))
                );
            }
        }
        assert_eq!(
            ev.answer(Query::Slice(0, 3, 40)),
            Answer::Slice(dbtf_oracle::serving_slice(&recon, 0, 3, 40))
        );
        assert_eq!(
            ev.answer(Query::Slice(1, 2, 40)),
            Answer::Slice(dbtf_oracle::serving_slice(&recon, 1, 2, 40))
        );
        for (mode, &len) in dims.iter().enumerate() {
            for e in 0..len {
                assert_eq!(
                    ev.answer(Query::Topk(mode, e, 3)),
                    Answer::Topk(dbtf_oracle::serving_topk(&f.a, &f.b, &f.c, mode, e, 3))
                );
            }
        }
    }

    /// Real engine replies, round-tripped through the wire format, pass;
    /// one flipped bit of the reply or of the factors fails.
    #[test]
    fn teeth_flipped_reply_bit_fails_the_gate() {
        let dims = [12, 10, 64];
        let f = factors(dims, 6, 9);
        let engine = QueryEngine::new(
            FactorStore::from_factor_set(1, &f),
            16,
            Arc::new(ServeMetrics::new()),
        );
        let ev = Evaluator::new(f.clone());
        let queries = [
            Query::Point(1, 2, 3),
            Query::Slice(2, 4, 5),
            Query::Topk(1, 6, 3),
        ];
        for q in queries {
            let line = match q {
                Query::Point(i, j, k) => dbtf_serve::protocol::reply_point(
                    Some(1),
                    engine.point(i, j, k).expect("point"),
                ),
                Query::Slice(m, lo, hi) => dbtf_serve::protocol::reply_slice(
                    Some(1),
                    &engine.slice(m, lo, hi).expect("slice"),
                ),
                Query::Topk(m, e, k) => {
                    dbtf_serve::protocol::reply_topk(Some(1), &engine.topk(m, e, k).expect("topk"))
                }
            };
            let answer = parse_reply(&line, q).expect("well-formed reply");
            assert_eq!(answer, ev.answer(q));
            let flipped = match answer {
                Answer::Point(b) => Answer::Point(!b),
                Answer::Slice(mut v) => {
                    match v.first() {
                        Some(&0) => v.remove(0),
                        _ => {
                            v.insert(0, 0);
                            0
                        }
                    };
                    Answer::Slice(v)
                }
                Answer::Topk(mut v) => {
                    v[0].1 ^= 1;
                    Answer::Topk(v)
                }
            };
            assert_ne!(flipped, ev.answer(q), "{q:?}");
        }
        // A corrupted factor bit changes some answer the gate checks.
        let mut bad = f.clone();
        bad.c.set(3, 0, !bad.c.get(3, 0));
        let bad_ev = Evaluator::new(bad);
        let differs = (0..dims[0]).any(|i| {
            (0..dims[1])
                .any(|j| bad_ev.answer(Query::Slice(2, i, j)) != ev.answer(Query::Slice(2, i, j)))
        });
        assert!(differs);
    }

    #[test]
    fn teeth_corrupted_factor_fails_the_solve_gate() {
        let dims = [10, 8, 65];
        let (x, f) = (tensor(dims, 2), factors(dims, 5, 2));
        let reported = dbtf_oracle::cp_error(&x, &f.a, &f.b, &f.c);
        assert!(solve_violations(&x, &f, reported, &f).is_empty());
        let mut bad = f.clone();
        bad.a.set(0, 0, !bad.a.get(0, 0));
        let v = solve_violations(&x, &bad, reported, &f);
        assert!(v.iter().any(|m| m.contains("reference")), "{v:?}");
    }

    #[test]
    fn resweep_gate_agrees_with_the_oracle() {
        let dims = [9, 8, 7];
        let x = tensor(dims, 4);
        let before = factors(dims, 4, 4);
        let delta = TensorDelta::new(
            dims,
            vec![DeltaCell {
                coord: [1, 2, 3],
                set: true,
            }],
        )
        .expect("delta");
        let x_new = delta.apply(&x);
        let mut after = before.clone();
        after.b.set(0, 1, !after.b.get(0, 1));
        for affected in [vec![], vec![1], vec![0, 1, 2, 3]] {
            let ours = resweep_violations(&x_new, &before, &after, &affected);
            let oracle = dbtf_oracle::check_bounded_resweep(&x_new, &before, &after, &affected);
            assert_eq!(
                ours.is_empty(),
                oracle.is_empty(),
                "affected {affected:?}: {ours:?} vs {oracle:?}"
            );
        }
    }
}
