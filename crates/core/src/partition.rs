//! Vertical partitioning of unfolded tensors with PVM-boundary blocks
//! (paper Section III-D, Algorithm 3, Figure 5).
//!
//! Each unfolded tensor `X_(n)` is split into `N` vertical partitions of
//! near-equal column ranges. Within a partition, the columns are further
//! divided into *blocks* at the boundaries of the underlying pointwise
//! vector-matrix (PVM) products `(m_{k:} ⊛ M_s)ᵀ` — the paper's *slabs* of
//! width `S`. Blocks are the unit at which the cached row summations are
//! fetched: a full-slab block reads the full-size cache directly, while the
//! at-most-two edge blocks of a partition use vertically sliced caches.

use serde::{Deserialize, Serialize};

use dbtf_tensor::UnfoldingStore;

/// The block types of the paper's Figure 5, keyed by how a block sits
/// inside its PVM slab.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BlockKind {
    /// Type (1): a strict interior range of one slab (the partition starts
    /// and ends inside the same slab).
    Interior,
    /// Type (2): a suffix of a slab (starts inside, runs to the slab end).
    Suffix,
    /// Type (3): a full slab.
    Full,
    /// Type (4): a prefix of a slab (starts at the slab start, ends inside).
    Prefix,
}

/// One block of a partition: a contiguous column range within a single PVM
/// slab, with the partition's rows of the unfolded tensor restricted to it.
///
/// Storage is sized by the block's ones, not by the unfolding's rows: only
/// rows holding at least one one are listed (`rows`, ascending), each with
/// the end of its run in one concatenated column array (`ends`). On tall
/// many-slab unfoldings most (row, block) pairs are empty: on the
/// Facebook-shaped proxy one offset per row in every block would cost
/// ~98 B per one, against ~7 B per one here.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Block {
    /// Index `k` of the PVM slab this block lies in (a row of `M_f`).
    pub slab: usize,
    /// First column of the block, as an offset inside the slab (`0..S`).
    pub inner_lo: u32,
    /// Width of the block (`1..=S`).
    pub inner_len: u32,
    /// Figure 5 block type.
    pub kind: BlockKind,
    /// The rows with at least one one in this block, ascending.
    pub(crate) rows: Vec<u32>,
    /// `ends[i]` = end of row `rows[i]`'s run in `cols`; the run starts
    /// where the previous one ends.
    pub(crate) ends: Vec<u32>,
    /// Concatenated sorted column offsets (relative to `inner_lo`).
    pub(crate) cols: Vec<u32>,
}

impl Block {
    /// An empty block of the given geometry. Rows are appended by pushing
    /// their offsets onto `cols` and closing them with [`Block::end_row`].
    pub(crate) fn new(slab: usize, inner_lo: u32, inner_len: u32, kind: BlockKind) -> Self {
        Block {
            slab,
            inner_lo,
            inner_len,
            kind,
            rows: Vec::new(),
            ends: Vec::new(),
            cols: Vec::new(),
        }
    }

    /// Closes row `r` after its offsets were pushed onto `cols`; the row is
    /// recorded only if it received any. Rows close in ascending order.
    pub(crate) fn end_row(&mut self, r: u32) {
        let end = u32::try_from(self.cols.len()).expect("block nnz exceeds u32");
        if end > self.ends.last().copied().unwrap_or(0) {
            debug_assert!(self.rows.last().is_none_or(|&last| last < r));
            self.rows.push(r);
            self.ends.push(end);
        }
    }

    /// The sorted one-offsets (relative to `inner_lo`) of unfolding row
    /// `r` within this block: a binary search over the non-empty rows, for
    /// random access. Per-row loops use [`Block::ordered_rows`].
    pub fn row(&self, r: usize) -> &[u32] {
        let Some(i) = u32::try_from(r)
            .ok()
            .and_then(|r| self.rows.binary_search(&r).ok())
        else {
            return &[];
        };
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.cols[start..self.ends[i] as usize]
    }

    /// The non-empty rows in ascending order, each with its sorted
    /// one-offsets.
    pub fn nonempty_rows(&self) -> impl Iterator<Item = (u32, &[u32])> + '_ {
        let mut start = 0usize;
        self.rows.iter().zip(&self.ends).map(move |(&r, &end)| {
            let run = &self.cols[start..end as usize];
            start = end as usize;
            (r, run)
        })
    }

    /// Every row `0..nrows` in turn, an empty row as an empty slice. Per-row
    /// kernels zip this with their per-row state, so no row can be skipped.
    pub fn ordered_rows(&self, nrows: usize) -> OrderedRows<'_> {
        debug_assert!(self.rows.last().is_none_or(|&last| (last as usize) < nrows));
        OrderedRows {
            block: self,
            row: 0,
            nrows,
            next: 0,
            start: 0,
        }
    }

    /// Number of ones stored in this block.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }
}

/// Every row of a [`Block`] in order; see [`Block::ordered_rows`].
pub struct OrderedRows<'a> {
    block: &'a Block,
    /// The row the next call yields.
    row: usize,
    nrows: usize,
    /// Index in `block.rows` of the next non-empty row.
    next: usize,
    /// Start of that row's run in `block.cols`.
    start: usize,
}

impl<'a> Iterator for OrderedRows<'a> {
    type Item = &'a [u32];

    #[inline]
    fn next(&mut self) -> Option<&'a [u32]> {
        if self.row == self.nrows {
            return None;
        }
        let r = self.row;
        self.row += 1;
        let b = self.block;
        if b.rows.get(self.next).is_some_and(|&nr| nr as usize == r) {
            let end = b.ends[self.next] as usize;
            let run = &b.cols[self.start..end];
            self.start = end;
            self.next += 1;
            Some(run)
        } else {
            Some(&[])
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.nrows - self.row;
        (left, Some(left))
    }
}

impl ExactSizeIterator for OrderedRows<'_> {}

/// One vertical partition of an unfolded tensor (Algorithm 3's `p_i`),
/// split into blocks and ready to be shipped to a worker.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModePartition {
    /// Partition index (`0..N`).
    pub index: usize,
    /// Global column range `[col_lo, col_hi)` of the unfolding.
    pub col_lo: u64,
    /// End of the global column range (exclusive).
    pub col_hi: u64,
    /// PVM slab width `S` (the row count of `M_s`).
    pub slab_width: usize,
    /// Row count `P` of the unfolding (the factor matrix height).
    pub nrows: usize,
    /// The partition's blocks, in column order.
    pub blocks: Vec<Block>,
}

/// Read access to a partition's geometry and blocks — the only surface the
/// [`WorkState`](crate::update::WorkState) hot kernels touch.
///
/// Kernels are generic over this trait with static dispatch, so they
/// monomorphize to exactly the pre-refactor code for [`ModePartition`]
/// (proven flat by the `factor_update` criterion bench) while admitting
/// alternative block containers (e.g. store-backed or borrowed views)
/// without another kernel rewrite.
pub trait PartitionData {
    /// Row count `P` of the unfolding.
    fn nrows(&self) -> usize;
    /// PVM slab width `S`.
    fn slab_width(&self) -> usize;
    /// The partition's blocks, in column order.
    fn blocks(&self) -> &[Block];
}

impl PartitionData for ModePartition {
    #[inline]
    fn nrows(&self) -> usize {
        self.nrows
    }

    #[inline]
    fn slab_width(&self) -> usize {
        self.slab_width
    }

    #[inline]
    fn blocks(&self) -> &[Block] {
        &self.blocks
    }
}

impl ModePartition {
    /// Number of ones stored in this partition.
    pub fn nnz(&self) -> usize {
        self.blocks.iter().map(Block::nnz).sum()
    }

    /// Wire size in bytes, used to meter the shuffle (Lemma 6) and worker
    /// memory (Lemma 5): each non-zero ships as a (row, column) pair; the
    /// block structure is rebuilt worker-side (Algorithm 3 line 4) and
    /// adds only per-block headers.
    pub fn byte_size(&self) -> u64 {
        64 + self.nnz() as u64 * 12 + self.blocks.len() as u64 * 16
    }
}

/// Splits the unfolding into `n_partitions` vertical partitions with
/// PVM-boundary blocks (Algorithm 3).
///
/// Column ranges are the balanced split `[p·Q/N, (p+1)·Q/N)`, satisfying
/// the algorithm's `⌊Q/N⌋ ≤ H ≤ ⌈Q/N⌉`. Partitions with an empty column
/// range (possible only when `N > Q`) carry no blocks.
///
/// Generic over [`UnfoldingStore`] (static dispatch): the heap `Unfolding`
/// and the on-disk `MmapUnfolding` yield bit-identical partitions, because
/// everything here flows through the store's `row_range` contract.
///
/// # Panics
///
/// Panics if `n_partitions == 0`.
pub fn partition_unfolding<S: UnfoldingStore>(
    unfolding: &S,
    n_partitions: usize,
) -> Vec<ModePartition> {
    assert!(n_partitions > 0, "need at least one partition");
    (0..n_partitions)
        .map(|p| partition_unfolding_one(unfolding, p, n_partitions))
        .collect()
}

/// Builds just partition `index` of the `n_partitions`-way split — the
/// lineage-recompute entry point: re-opening an unfolding store and
/// re-slicing one lost partition costs `O(partition)` instead of
/// rebuilding the whole split.
///
/// # Panics
///
/// Panics if `index >= n_partitions` or `n_partitions == 0`.
pub fn partition_unfolding_one<S: UnfoldingStore>(
    unfolding: &S,
    index: usize,
    n_partitions: usize,
) -> ModePartition {
    assert!(n_partitions > 0, "need at least one partition");
    assert!(index < n_partitions, "partition index out of range");
    let q = unfolding.ncols();
    let s = unfolding.mode().slab_width(unfolding.tensor_dims()) as u64;
    let nrows = unfolding.nrows();
    let n = n_partitions as u64;
    let p = index as u64;
    let col_lo = p * q / n;
    let col_hi = (p + 1) * q / n;
    build_partition(unfolding, index, col_lo, col_hi, s, nrows)
}

/// Builds one partition in a single pass over its rows (Algorithm 3,
/// Lemma 4). The blocks are cut at slab boundaries first. Then one
/// `row_range` search per row finds the row's ones inside
/// `[col_lo, col_hi)`, and a block cursor walks forward along them,
/// appending each run that lies in one block to that block: no division,
/// and nothing written for a (row, block) pair without a one.
///
/// Cost: `nrows` searches, one write per one and per non-empty
/// (row, block) pair, and at most one cursor comparison per block
/// boundary per row. Storage is `O(nnz + blocks)`.
fn build_partition<S: UnfoldingStore>(
    unfolding: &S,
    index: usize,
    col_lo: u64,
    col_hi: u64,
    s: u64,
    nrows: usize,
) -> ModePartition {
    let mut blocks = Vec::new();
    // Global column range `[lo, hi)` of each block.
    let mut bounds = Vec::new();
    let mut lo = col_lo;
    while lo < col_hi {
        let slab = lo / s;
        let slab_start = slab * s;
        let slab_end = slab_start + s;
        let hi = col_hi.min(slab_end);
        let inner_lo = (lo - slab_start) as u32;
        let kind = match (inner_lo == 0, hi == slab_end) {
            (true, true) => BlockKind::Full,
            (true, false) => BlockKind::Prefix,
            (false, true) => BlockKind::Suffix,
            (false, false) => BlockKind::Interior,
        };
        blocks.push(Block::new(slab as usize, inner_lo, (hi - lo) as u32, kind));
        bounds.push((lo, hi));
        lo = hi;
    }
    let rows: Vec<&[u64]> = if blocks.is_empty() {
        Vec::new()
    } else {
        (0..nrows)
            .map(|r| unfolding.row_range(r, col_lo, col_hi))
            .collect()
    };
    // Reserve each block an even share of the ones up front, which spares
    // the many small blocks of a tall unfolding their early reallocations;
    // skewed blocks still grow as needed, and every block is trimmed to its
    // exact size at the end.
    if let Some(share) = rows
        .iter()
        .map(|ones| ones.len())
        .sum::<usize>()
        .checked_div(blocks.len())
    {
        for block in &mut blocks {
            block.cols.reserve(share);
            block.rows.reserve(share.min(nrows));
            block.ends.reserve(share.min(nrows));
        }
    }
    for (r, &ones) in rows.iter().enumerate() {
        let (mut b, mut i) = (0, 0);
        while i < ones.len() {
            while ones[i] >= bounds[b].1 {
                b += 1;
            }
            let (base, end) = bounds[b];
            let block = &mut blocks[b];
            while i < ones.len() && ones[i] < end {
                block.cols.push((ones[i] - base) as u32);
                i += 1;
            }
            block.end_row(r as u32);
        }
    }
    for block in &mut blocks {
        block.cols.shrink_to_fit();
        block.rows.shrink_to_fit();
        block.ends.shrink_to_fit();
    }
    ModePartition {
        index,
        col_lo,
        col_hi,
        slab_width: s as usize,
        nrows,
        blocks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbtf_tensor::{
        BoolTensor, DeltaCell, MmapUnfolding, Mode, OverlayUnfolding, TensorDelta, Unfolding,
    };
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The per-(row, block) builder: two binary searches for every row of
    /// every block, through the same block constructor. `build_partition`
    /// must equal it byte for byte.
    fn reference_partition_one<S: UnfoldingStore>(
        unfolding: &S,
        index: usize,
        n_partitions: usize,
    ) -> ModePartition {
        let q = unfolding.ncols();
        let s = unfolding.mode().slab_width(unfolding.tensor_dims()) as u64;
        let nrows = unfolding.nrows();
        let n = n_partitions as u64;
        let p = index as u64;
        let col_lo = p * q / n;
        let col_hi = (p + 1) * q / n;
        let mut blocks = Vec::new();
        let mut lo = col_lo;
        while lo < col_hi {
            let slab = lo / s;
            let slab_start = slab * s;
            let slab_end = slab_start + s;
            let hi = col_hi.min(slab_end);
            let inner_lo = (lo - slab_start) as u32;
            let inner_len = (hi - lo) as u32;
            let kind = match (inner_lo == 0, hi == slab_end) {
                (true, true) => BlockKind::Full,
                (true, false) => BlockKind::Prefix,
                (false, true) => BlockKind::Suffix,
                (false, false) => BlockKind::Interior,
            };
            let mut block = Block::new(slab as usize, inner_lo, inner_len, kind);
            for r in 0..nrows {
                for &c in unfolding.row_range(r, lo, hi) {
                    block.cols.push((c - slab_start) as u32 - inner_lo);
                }
                block.end_row(r as u32);
            }
            blocks.push(block);
            lo = hi;
        }
        ModePartition {
            index,
            col_lo,
            col_hi,
            slab_width: s as usize,
            nrows,
            blocks,
        }
    }

    /// Asserts that every partition of the `n`-way split equals the
    /// reference builder's, through both entry points.
    fn assert_matches_reference<S: UnfoldingStore>(u: &S, n: usize, label: &str) {
        let parts = partition_unfolding(u, n);
        assert_eq!(parts.len(), n);
        for (idx, part) in parts.iter().enumerate() {
            let expect = reference_partition_one(u, idx, n);
            assert_eq!(part, &expect, "{label}: N = {n}, partition {idx}");
            assert_eq!(
                &partition_unfolding_one(u, idx, n),
                &expect,
                "{label}: single-partition build, N = {n}, partition {idx}"
            );
        }
    }

    /// An [`UnfoldingStore`] that counts the row lookups made through it.
    struct CountingStore<S> {
        inner: S,
        lookups: Cell<usize>,
    }

    impl<S: UnfoldingStore> UnfoldingStore for CountingStore<S> {
        fn mode(&self) -> Mode {
            self.inner.mode()
        }

        fn tensor_dims(&self) -> [usize; 3] {
            self.inner.tensor_dims()
        }

        fn nrows(&self) -> usize {
            self.inner.nrows()
        }

        fn ncols(&self) -> u64 {
            self.inner.ncols()
        }

        fn nnz(&self) -> u64 {
            self.inner.nnz()
        }

        fn row(&self, r: usize) -> &[u64] {
            self.lookups.set(self.lookups.get() + 1);
            self.inner.row(r)
        }

        fn row_range(&self, r: usize, lo: u64, hi: u64) -> &[u64] {
            self.lookups.set(self.lookups.get() + 1);
            self.inner.row_range(r, lo, hi)
        }
    }

    fn random_tensor(dims: [usize; 3], density: f64, seed: u64) -> BoolTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut entries = Vec::new();
        for i in 0..dims[0] as u32 {
            for j in 0..dims[1] as u32 {
                for k in 0..dims[2] as u32 {
                    if rng.gen_bool(density) {
                        entries.push([i, j, k]);
                    }
                }
            }
        }
        BoolTensor::from_entries(dims, entries)
    }

    #[test]
    fn partitions_tile_columns() {
        let t = random_tensor([6, 7, 5], 0.2, 1);
        for mode in Mode::ALL {
            let u = Unfolding::new(&t, mode);
            for n in [1, 2, 3, 7, 50] {
                let parts = partition_unfolding(&u, n);
                assert_eq!(parts.len(), n);
                let mut expect_lo = 0u64;
                for p in &parts {
                    assert_eq!(p.col_lo, expect_lo);
                    assert!(p.col_hi >= p.col_lo);
                    expect_lo = p.col_hi;
                }
                assert_eq!(expect_lo, u.ncols());
            }
        }
    }

    #[test]
    fn partition_widths_balanced() {
        // Algorithm 3: ⌊Q/N⌋ ≤ H ≤ ⌈Q/N⌉.
        let t = random_tensor([5, 9, 11], 0.15, 2);
        let u = Unfolding::new(&t, Mode::One);
        let q = u.ncols();
        for n in [2usize, 3, 4, 10] {
            for p in partition_unfolding(&u, n) {
                let h = p.col_hi - p.col_lo;
                assert!(h >= q / n as u64 && h <= q.div_ceil(n as u64), "H = {h}");
            }
        }
    }

    #[test]
    fn blocks_tile_partition_at_slab_boundaries() {
        let t = random_tensor([4, 6, 8], 0.25, 3);
        for mode in Mode::ALL {
            let u = Unfolding::new(&t, mode);
            let s = mode.slab_width(t.dims()) as u64;
            for n in [1, 3, 5, 13] {
                for p in partition_unfolding(&u, n) {
                    let mut pos = p.col_lo;
                    for b in &p.blocks {
                        let global_lo = b.slab as u64 * s + b.inner_lo as u64;
                        assert_eq!(global_lo, pos, "blocks must be contiguous");
                        assert!(b.inner_len >= 1);
                        assert!(b.inner_lo as u64 + b.inner_len as u64 <= s);
                        // A block never crosses a slab boundary.
                        pos = global_lo + b.inner_len as u64;
                    }
                    assert_eq!(pos, p.col_hi);
                }
            }
        }
    }

    #[test]
    fn block_kinds_match_geometry() {
        let t = random_tensor([3, 4, 6], 0.3, 4);
        let u = Unfolding::new(&t, Mode::One);
        let s = Mode::One.slab_width(t.dims()) as u64;
        for n in [1, 2, 3, 5, 8, 24] {
            for p in partition_unfolding(&u, n) {
                for b in &p.blocks {
                    let starts_at_slab = b.inner_lo == 0;
                    let ends_at_slab = b.inner_lo as u64 + b.inner_len as u64 == s;
                    let expect = match (starts_at_slab, ends_at_slab) {
                        (true, true) => BlockKind::Full,
                        (true, false) => BlockKind::Prefix,
                        (false, true) => BlockKind::Suffix,
                        (false, false) => BlockKind::Interior,
                    };
                    assert_eq!(b.kind, expect);
                }
            }
        }
    }

    #[test]
    fn lemma3_at_most_three_block_types() {
        // Lemma 3: a partition has at most three types of blocks, with the
        // legal compositions (1) | (2) | (4) | (2)(4) | (2)(3)*(4) |
        // (3)+(4)? | (2)?(3)+.
        let t = random_tensor([4, 5, 7], 0.2, 5);
        for mode in Mode::ALL {
            let u = Unfolding::new(&t, mode);
            for n in [1, 2, 3, 4, 6, 11, 35] {
                for p in partition_unfolding(&u, n) {
                    let kinds: Vec<BlockKind> = p.blocks.iter().map(|b| b.kind).collect();
                    let distinct: std::collections::HashSet<_> = kinds.iter().collect();
                    assert!(distinct.len() <= 3, "partition with kinds {kinds:?}");
                    // Interior blocks only appear alone.
                    if kinds.contains(&BlockKind::Interior) {
                        assert_eq!(kinds.len(), 1);
                    }
                    // At most one Suffix (it must come first) and one
                    // Prefix (it must come last).
                    let suffixes = kinds.iter().filter(|&&k| k == BlockKind::Suffix).count();
                    let prefixes = kinds.iter().filter(|&&k| k == BlockKind::Prefix).count();
                    assert!(suffixes <= 1 && prefixes <= 1);
                    if suffixes == 1 {
                        assert_eq!(kinds[0], BlockKind::Suffix);
                    }
                    if prefixes == 1 {
                        assert_eq!(*kinds.last().unwrap(), BlockKind::Prefix);
                    }
                }
            }
        }
    }

    #[test]
    fn partitioning_preserves_every_one() {
        let t = random_tensor([5, 6, 4], 0.3, 6);
        for mode in Mode::ALL {
            let u = Unfolding::new(&t, mode);
            let s = mode.slab_width(t.dims()) as u64;
            for n in [1, 3, 9] {
                let parts = partition_unfolding(&u, n);
                let total: usize = parts.iter().map(ModePartition::nnz).sum();
                assert_eq!(total, u.nnz());
                // Rebuild the full set of (row, col) pairs from blocks.
                let mut rebuilt: Vec<(usize, u64)> = Vec::new();
                for p in &parts {
                    for b in &p.blocks {
                        for r in 0..u.nrows() {
                            for &o in b.row(r) {
                                let col = b.slab as u64 * s + b.inner_lo as u64 + o as u64;
                                rebuilt.push((r, col));
                            }
                        }
                    }
                }
                rebuilt.sort_unstable();
                let mut expect: Vec<(usize, u64)> = Vec::new();
                for r in 0..u.nrows() {
                    for &c in u.row(r) {
                        expect.push((r, c));
                    }
                }
                expect.sort_unstable();
                assert_eq!(rebuilt, expect, "mode {mode:?}, N = {n}");
            }
        }
    }

    #[test]
    fn more_partitions_than_columns() {
        let t = random_tensor([2, 2, 2], 0.5, 7);
        let u = Unfolding::new(&t, Mode::One);
        let parts = partition_unfolding(&u, 10);
        assert_eq!(parts.len(), 10);
        let nonempty: usize = parts.iter().filter(|p| p.col_hi > p.col_lo).count();
        assert_eq!(nonempty, u.ncols() as usize);
        let total: usize = parts.iter().map(ModePartition::nnz).sum();
        assert_eq!(total, u.nnz());
    }

    #[test]
    fn building_a_partition_looks_up_each_row_once() {
        // Mode 3 of a proxy-like shape: 5 rows, slab width 3, 40 slabs, so
        // each partition spans many blocks and per-block searches would
        // make `nrows × blocks` lookups.
        let t = random_tensor([3, 40, 5], 0.1, 12);
        let store = CountingStore {
            inner: Unfolding::new(&t, Mode::Three),
            lookups: Cell::new(0),
        };
        let nrows = store.nrows();
        for n in [1, 2, 3, 7] {
            for idx in 0..n {
                store.lookups.set(0);
                let part = partition_unfolding_one(&store, idx, n);
                assert!(
                    part.blocks.len() > nrows,
                    "the shape must have more blocks than rows"
                );
                assert!(
                    store.lookups.get() <= nrows,
                    "N = {n}, partition {idx}: {} row lookups for {nrows} rows and {} blocks",
                    store.lookups.get(),
                    part.blocks.len()
                );
                assert_eq!(part, reference_partition_one(&store.inner, idx, n));
            }
        }
    }

    /// Heap words (`u32`s) a block's row storage holds.
    fn block_heap_words(b: &Block) -> usize {
        b.rows.capacity() + b.ends.capacity() + b.cols.capacity()
    }

    #[test]
    fn partition_storage_is_sized_by_nonzeros_not_rows() {
        // Mode 3 of a 2 × 2000 × 200 tensor: 200 rows, slab width 2, so one
        // partition spans 2000 blocks, and 400 ones leave almost every
        // (row, block) pair empty. One offset per row per block would take
        // 2000 × 201 words here.
        let dims = [2usize, 2000, 200];
        let mut rng = StdRng::seed_from_u64(14);
        let entries = (0..400)
            .map(|_| {
                [
                    rng.gen_range(0..dims[0] as u32),
                    rng.gen_range(0..dims[1] as u32),
                    rng.gen_range(0..dims[2] as u32),
                ]
            })
            .collect();
        let t = BoolTensor::from_entries(dims, entries);
        let u = Unfolding::new(&t, Mode::Three);
        for n in [1, 3] {
            for part in partition_unfolding(&u, n) {
                assert!(part.blocks.len() > part.nrows);
                let nonempty_rows: usize = part.blocks.iter().map(|b| b.rows.len()).sum();
                let words: usize = part.blocks.iter().map(block_heap_words).sum();
                let bound = 16 * (part.nnz() + nonempty_rows + part.blocks.len());
                assert!(
                    words <= bound,
                    "N = {n}: {words} heap words for {} ones, {nonempty_rows} non-empty \
                     rows and {} blocks (bound {bound})",
                    part.nnz(),
                    part.blocks.len()
                );
            }
        }
    }

    #[test]
    fn row_accessors_agree() {
        let t = random_tensor([3, 9, 6], 0.15, 13);
        for mode in Mode::ALL {
            let u = Unfolding::new(&t, mode);
            for part in partition_unfolding(&u, 4) {
                for b in &part.blocks {
                    let ordered: Vec<&[u32]> = b.ordered_rows(part.nrows).collect();
                    assert_eq!(ordered.len(), part.nrows);
                    for (r, run) in ordered.iter().enumerate() {
                        assert_eq!(*run, b.row(r), "row {r}");
                        assert!(!b.rows.contains(&(r as u32)) || !run.is_empty());
                    }
                    for (r, run) in b.nonempty_rows() {
                        assert!(!run.is_empty());
                        assert_eq!(run, b.row(r as usize));
                    }
                    assert!(b.row(part.nrows).is_empty());
                }
            }
        }
    }

    /// Strategy: a small random tensor, a partition count and a seed for a
    /// delta. Dimension ranges cover tall many-slab unfoldings with fewer
    /// rows than blocks, single-column slabs (`dims[0]` or `dims[1]` of 1),
    /// `N > Q` and empty rows (the entry count may be far below the cell
    /// count, or zero).
    fn split_strategy() -> impl Strategy<Value = (BoolTensor, usize, u64)> {
        (
            1..=4usize,
            1..=24usize,
            1..=6usize,
            0..=60usize,
            1..=40usize,
            any::<u64>(),
        )
            .prop_map(|(d0, d1, d2, count, n, seed)| {
                let mut rng = StdRng::seed_from_u64(seed);
                let dims = [d0, d1, d2];
                let entries = (0..count)
                    .map(|_| {
                        [
                            rng.gen_range(0..d0 as u32),
                            rng.gen_range(0..d1 as u32),
                            rng.gen_range(0..d2 as u32),
                        ]
                    })
                    .collect();
                (BoolTensor::from_entries(dims, entries), n, seed)
            })
    }

    fn random_delta(dims: [usize; 3], seed: u64) -> TensorDelta {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xDE17A);
        let edits = (0..rng.gen_range(0..8))
            .map(|_| DeltaCell {
                coord: [
                    rng.gen_range(0..dims[0] as u32),
                    rng.gen_range(0..dims[1] as u32),
                    rng.gen_range(0..dims[2] as u32),
                ],
                set: rng.gen_bool(0.5),
            })
            .collect();
        TensorDelta::new(dims, edits).unwrap()
    }

    static PROP_FILE_SEQ: AtomicUsize = AtomicUsize::new(0);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The one-pass builder is byte-identical to the per-(row, block)
        /// reference on heap, mmap and overlay stores.
        #[test]
        fn one_pass_builder_matches_reference((t, n, seed) in split_strategy()) {
            let seq = PROP_FILE_SEQ.fetch_add(1, Ordering::Relaxed);
            let delta = random_delta(t.dims(), seed);
            for mode in Mode::ALL {
                let u = Unfolding::new(&t, mode);
                assert_matches_reference(&u, n, "heap");
                let path = std::env::temp_dir().join(format!(
                    "dbtf-partition-prop-{}-{seq}-{}.unf",
                    std::process::id(),
                    mode.index()
                ));
                MmapUnfolding::write_from_store(&u, &path).unwrap();
                let m = MmapUnfolding::open(&path).unwrap();
                assert_matches_reference(&m, n, "mmap");
                prop_assert_eq!(partition_unfolding(&m, n), partition_unfolding(&u, n));
                let _ = std::fs::remove_file(&path);
                let overlay = OverlayUnfolding::new(&u, &delta);
                assert_matches_reference(&overlay, n, "overlay");
            }
        }
    }

    #[test]
    fn mmap_store_yields_bit_identical_partitions() {
        let t = random_tensor([6, 7, 5], 0.25, 11);
        let dir = std::env::temp_dir().join(format!("dbtf-partition-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for mode in Mode::ALL {
            let u = Unfolding::new(&t, mode);
            let path = dir.join(format!("m{}.unf", mode.index()));
            MmapUnfolding::write_from_store(&u, &path).unwrap();
            let m = MmapUnfolding::open(&path).unwrap();
            for n in [1, 2, 3, 7] {
                let from_heap = partition_unfolding(&u, n);
                let from_mmap = partition_unfolding(&m, n);
                assert_eq!(from_heap, from_mmap, "mode {mode:?}, N = {n}");
                for (idx, expect) in from_heap.iter().enumerate() {
                    assert_eq!(
                        &partition_unfolding_one(&m, idx, n),
                        expect,
                        "single-partition rebuild, mode {mode:?}, N = {n}, idx = {idx}"
                    );
                    assert_eq!(
                        &partition_unfolding_one(&u, idx, n),
                        expect,
                        "heap single-partition rebuild, mode {mode:?}, N = {n}, idx = {idx}"
                    );
                }
            }
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn byte_size_grows_with_nnz() {
        let sparse = random_tensor([8, 8, 8], 0.05, 8);
        let dense = random_tensor([8, 8, 8], 0.5, 8);
        let pu_sparse = partition_unfolding(&Unfolding::new(&sparse, Mode::One), 2);
        let pu_dense = partition_unfolding(&Unfolding::new(&dense, Mode::One), 2);
        let total = |ps: &[ModePartition]| ps.iter().map(|p| p.byte_size()).sum::<u64>();
        assert!(total(&pu_dense) > total(&pu_sparse));
    }
}
