//! Row partitions: mapping stacked activation rows back to the sequences of a batch.
//!
//! Batched inference stacks the activations of every sequence in a batch into one
//! `(sum_tokens, features)` matrix so that a whole batch shares a single fused-checksum GEMM
//! per network component. A [`RowPartition`] records where each sequence's rows live inside
//! that stack, which is what lets downstream consumers stay sequence-aware:
//!
//! * the quantizer applies one symmetric scale *per row*, so the stacked GEMM is bit-exact
//!   with running each sequence alone and the partition never touches the numerics — it is
//!   attribution metadata only;
//! * ABFT attribution maps a detected checksum deviation back to the originating sequence by
//!   re-reducing the checksums over one group's row range;
//! * the error injector can restrict corruption to the rows of a targeted sequence.
//!
//! Groups may be empty: a sequence that has completed generation contributes zero rows to a
//! lockstep decode step but keeps its batch index, so attribution stays stable for the whole
//! run.
//!
//! Beside it, [`shard_cols`] cuts a GEMM's output columns into the contiguous stripes that
//! shard faults hit and ABFT attribution charges detections to.

use std::ops::Range;

/// A partition of the rows of a stacked matrix into contiguous per-sequence groups.
///
/// Group `g` owns rows `offsets[g]..offsets[g + 1]`; groups are stored as cumulative offsets
/// so range queries are O(1).
///
/// # Example
///
/// ```
/// use realm_tensor::RowPartition;
/// let parts = RowPartition::from_lens(&[3, 0, 2]);
/// assert_eq!(parts.num_groups(), 3);
/// assert_eq!(parts.total_rows(), 5);
/// assert_eq!(parts.range(2), 3..5);
/// assert!(parts.range(1).is_empty());
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct RowPartition {
    /// Cumulative row offsets; `offsets.len() == num_groups + 1` and `offsets[0] == 0`.
    offsets: Vec<usize>,
}

impl Clone for RowPartition {
    fn clone(&self) -> Self {
        Self {
            offsets: self.offsets.clone(),
        }
    }

    /// Reuses `self`'s offsets buffer: hooks keep the partition announced before every
    /// batched forward, and a per-forward announcement must not cost an allocation.
    fn clone_from(&mut self, source: &Self) {
        self.offsets.clone_from(&source.offsets);
    }
}

impl RowPartition {
    /// Builds a partition from per-group row counts (empty groups are allowed).
    pub fn from_lens(lens: &[usize]) -> Self {
        let mut parts = Self {
            offsets: Vec::with_capacity(lens.len() + 1),
        };
        parts.refill(lens.iter().copied());
        parts
    }

    /// Rebuilds the partition in place from per-group row counts, reusing its offsets
    /// buffer: a decode loop that keeps one partition and refills it every step allocates
    /// nothing once the buffer holds its widest batch.
    pub fn refill(&mut self, lens: impl IntoIterator<Item = usize>) {
        self.offsets.clear();
        self.offsets.push(0);
        let mut total = 0usize;
        for len in lens {
            total += len;
            self.offsets.push(total);
        }
    }

    /// Number of groups (sequences) in the partition.
    pub fn num_groups(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of stacked rows across all groups.
    pub fn total_rows(&self) -> usize {
        *self
            .offsets
            .last()
            .expect("offsets always holds a leading 0")
    }

    /// Returns `true` if the partition holds no groups at all.
    pub fn is_empty(&self) -> bool {
        self.num_groups() == 0
    }

    /// The row range owned by group `group`.
    ///
    /// # Panics
    ///
    /// Panics if `group >= self.num_groups()`.
    pub fn range(&self, group: usize) -> Range<usize> {
        self.offsets[group]..self.offsets[group + 1]
    }

    /// Number of rows owned by group `group`.
    ///
    /// # Panics
    ///
    /// Panics if `group >= self.num_groups()`.
    pub fn len(&self, group: usize) -> usize {
        self.offsets[group + 1] - self.offsets[group]
    }

    /// Per-group row counts in group order.
    pub fn lens(&self) -> Vec<usize> {
        (0..self.num_groups()).map(|g| self.len(g)).collect()
    }
}

/// Balanced contiguous column partition of `cols` output columns over `degree` shards.
///
/// The first `cols % degree` shards receive one extra column, so ragged widths (not
/// divisible by the degree) are supported with a worst-case imbalance of one column.
/// Shards beyond `cols` (degree larger than the width) receive empty ranges.
///
/// # Panics
///
/// Panics if `degree` is zero.
pub fn shard_cols(cols: usize, degree: usize) -> Vec<Range<usize>> {
    assert!(degree >= 1, "a column partition needs at least one shard");
    (0..degree).map(|r| shard_range(cols, degree, r)).collect()
}

/// Shard `r`'s entry of [`shard_cols`], without building the partition.
pub fn shard_range(cols: usize, degree: usize, r: usize) -> Range<usize> {
    let (base, extra) = (cols / degree, cols % degree);
    let start = r * base + r.min(extra);
    start..start + base + usize::from(r < extra)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_cols_balances_ragged_widths() {
        assert_eq!(shard_cols(10, 4), vec![0..3, 3..6, 6..8, 8..10]);
        assert_eq!(shard_cols(8, 4), vec![0..2, 2..4, 4..6, 6..8]);
        assert_eq!(shard_cols(3, 4), vec![0..1, 1..2, 2..3, 3..3]);
        assert_eq!(shard_cols(0, 2), vec![0..0, 0..0]);
        let ranges = shard_cols(257, 4);
        assert_eq!(ranges.last().unwrap().end, 257);
        assert!(ranges.windows(2).all(|w| w[0].end == w[1].start));
    }

    #[test]
    fn from_lens_builds_contiguous_ranges() {
        let p = RowPartition::from_lens(&[2, 3, 1]);
        assert_eq!(p.num_groups(), 3);
        assert_eq!(p.total_rows(), 6);
        assert_eq!(p.range(0), 0..2);
        assert_eq!(p.range(1), 2..5);
        assert_eq!(p.range(2), 5..6);
        assert_eq!(p.lens(), vec![2, 3, 1]);
    }

    #[test]
    fn empty_groups_are_preserved() {
        let p = RowPartition::from_lens(&[1, 0, 2, 0]);
        assert_eq!(p.num_groups(), 4);
        assert_eq!(p.total_rows(), 3);
        assert!(p.range(1).is_empty());
        assert!(p.range(3).is_empty());
        assert_eq!(p.len(2), 2);
    }

    #[test]
    fn clone_from_reuses_the_offsets_buffer() {
        let mut kept = RowPartition::from_lens(&[4, 4, 4, 4]);
        let buffer = kept.offsets.as_ptr();
        let next = RowPartition::from_lens(&[1, 0, 2]);
        kept.clone_from(&next);
        assert_eq!(kept, next);
        assert_eq!(kept.offsets.as_ptr(), buffer);
        kept.refill([2, 2]);
        assert_eq!(kept, RowPartition::from_lens(&[2, 2]));
        assert_eq!(kept.offsets.as_ptr(), buffer);
    }

    #[test]
    fn degenerate_partitions() {
        let none = RowPartition::from_lens(&[]);
        assert!(none.is_empty());
        assert_eq!(none.total_rows(), 0);
        let zero = RowPartition::from_lens(&[0, 0]);
        assert!(!zero.is_empty());
        assert_eq!(zero.total_rows(), 0);
    }
}
