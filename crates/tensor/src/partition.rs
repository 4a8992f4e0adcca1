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
        let mut offsets = Vec::with_capacity(lens.len() + 1);
        let mut total = 0usize;
        offsets.push(0);
        for &len in lens {
            total += len;
            offsets.push(total);
        }
        Self { offsets }
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

#[cfg(test)]
mod tests {
    use super::*;

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
