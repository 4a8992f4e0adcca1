//! Checksum arithmetic for ABFT over INT8×INT8→INT32 GEMMs.
//!
//! For `Y = W·X` with `W ∈ ℤ^{m×k}` and `X ∈ ℤ^{k×n}`, the column-checksum identity is
//!
//! ```text
//! eᵀ·Y = (eᵀ·W)·X
//! ```
//!
//! where `e` is the all-ones vector. The left side is computed from the (possibly corrupted)
//! accumulator outputs; the right side is computed from the operands by the checksum row/
//! column added to the systolic array (Fig. 3 and Fig. 7 of the paper). Their difference per
//! output column is the *column deviation*; the sum of deviations is the matrix-sum deviation
//! (MSD) used by ApproxABFT and by the statistical unit.
//!
//! All checksum arithmetic is carried out in `i64`: operands are INT8 and accumulators INT32,
//! so exact sums fit comfortably and cannot themselves overflow.

use realm_tensor::{engine, MatI32, MatI8, PackedMatI8, RowPartition};

/// Expected output column checksum `(eᵀ·W)·X`, one entry per output column.
///
/// # Panics
///
/// Panics if `w.cols() != x.rows()` (the GEMM would have been rejected upstream).
fn expected_col_checksum(w: &MatI8, x: &MatI8) -> Vec<i64> {
    assert_eq!(w.cols(), x.rows(), "checksum shapes disagree with the GEMM");
    let etw = engine::operand_col_sums(w);
    let mut expected = vec![0i64; x.cols()];
    engine::accumulate_expected(&etw, x, &mut expected);
    expected
}

/// Per-column deviations `eᵀ·Y − (eᵀ·W)·X` of a (possibly corrupted) accumulator.
///
/// A fault-free GEMM yields all zeros. Each injected additive error of magnitude `d` in
/// column `j` shifts deviation `j` by exactly `d`, so the deviation vector is the column-wise
/// error signature the statistical unit buffers.
///
/// # Panics
///
/// Panics if the shapes are inconsistent with `acc = w · x`.
pub fn column_deviations(w: &MatI8, x: &MatI8, acc: &MatI32) -> Vec<i64> {
    assert_eq!(acc.rows(), w.rows(), "accumulator rows disagree with W");
    assert_eq!(acc.cols(), x.cols(), "accumulator columns disagree with X");
    let expected = expected_col_checksum(w, x);
    let observed = engine::observed_col_sums(acc);
    observed
        .into_iter()
        .zip(expected)
        .map(|(o, e)| o - e)
        .collect()
}

/// Matrix-sum deviation: the sum of all column deviations (`eᵀ·Y·e − eᵀ·W·X·e`).
pub fn msd(deviations: &[i64]) -> i64 {
    deviations.iter().sum()
}

/// Per-row-group column deviations of a batch-stacked GEMM: one deviation vector per group
/// of `parts`, where group `g`'s vector is `eᵍᵀ·Y − (eᵍᵀ·W)·X` with `eᵍ` selecting only
/// that group's rows.
///
/// This is how a detection on one batched GEMM is attributed back to the originating
/// sequence: the batch-wide column checksum sums over every sequence's rows, so it can say
/// *that* something deviated but not *whose* rows deviated. Re-reducing the checksums over
/// each group's row range — one extra pass over `w`, `x` and `acc` in total, paid only when
/// a detection fires — recovers the per-sequence signature. Empty groups yield all-zero
/// vectors.
///
/// `etw_scratch` receives the per-group operand checksums (`groups × w.cols()`, row-major)
/// and `deviations` the per-group deviation vectors (`groups × x.cols()`, row-major); both
/// are cleared and resized in place, so a protector that owns the two buffers pays no
/// allocation on the detection path. Group `g`'s deviations are
/// `deviations[g * n..(g + 1) * n]`.
///
/// # Panics
///
/// Panics if the shapes are inconsistent with `acc = w · x` or `parts` does not cover
/// exactly the accumulator's rows.
fn group_column_deviations_into(
    w: &MatI8,
    x: &MatI8,
    acc: &MatI32,
    parts: &RowPartition,
    etw_scratch: &mut Vec<i64>,
    deviations: &mut Vec<i64>,
) {
    assert_eq!(w.cols(), x.rows(), "checksum shapes disagree with the GEMM");
    assert_eq!(acc.rows(), w.rows(), "accumulator rows disagree with W");
    assert_eq!(acc.cols(), x.cols(), "accumulator columns disagree with X");
    assert_eq!(
        parts.total_rows(),
        acc.rows(),
        "row partition disagrees with the accumulator"
    );
    let groups = parts.num_groups();
    let k = w.cols();
    let n = x.cols();
    etw_scratch.clear();
    deviations.clear();
    if groups == 0 || n == 0 {
        // Degenerate shapes carry no checksum information (and `chunks_exact` rejects a
        // zero chunk size); leave both buffers empty.
        return;
    }
    deviations.resize(groups * n, 0);
    if k > 0 {
        // Per-group operand checksums eᵍᵀ·W: one pass over w.
        etw_scratch.resize(groups * k, 0);
        for g in 0..groups {
            let etw_g = &mut etw_scratch[g * k..(g + 1) * k];
            for r in parts.range(g) {
                for (s, &v) in etw_g.iter_mut().zip(w.row(r)) {
                    *s += v as i64;
                }
            }
        }
        // Per-group expected checksums (eᵍᵀ·W)·X: one fused pass over x for all groups.
        for (p, x_row) in (0..x.rows()).map(|p| (p, x.row(p))) {
            for (etw_g, dev_g) in etw_scratch
                .chunks_exact(k)
                .zip(deviations.chunks_exact_mut(n))
            {
                let weight = etw_g[p];
                if weight == 0 {
                    continue;
                }
                for (d, &v) in dev_g.iter_mut().zip(x_row) {
                    *d -= weight * v as i64;
                }
            }
        }
    }
    // Per-group observed checksums eᵍᵀ·Y: one pass over acc, folded straight into the
    // deviations (observed − expected).
    for (g, dev_g) in deviations.chunks_exact_mut(n).enumerate() {
        for r in parts.range(g) {
            for (d, &v) in dev_g.iter_mut().zip(acc.row(r)) {
                *d += v as i64;
            }
        }
    }
}

/// Indices of the groups of `parts` whose rows carry a non-zero checksum deviation, into
/// `out` (`etw_scratch` and `dev_scratch` are the per-group re-reduction's working buffers).
///
/// The attribution core of batched protection: given a flagged batch-stacked GEMM, yields
/// the batch sequence indices the deviation traces back to. Like any column-checksum scheme
/// it cannot see errors that cancel exactly within one group's column sums.
///
/// # Panics
///
/// Panics if the shapes are inconsistent with `acc = w · x` or `parts` does not cover
/// exactly the accumulator's rows.
#[allow(clippy::too_many_arguments)] // the three scratch buffers are the point of this entry
pub fn deviating_groups_into(
    w: &MatI8,
    x: &MatI8,
    acc: &MatI32,
    parts: &RowPartition,
    etw_scratch: &mut Vec<i64>,
    dev_scratch: &mut Vec<i64>,
    out: &mut Vec<usize>,
) {
    group_column_deviations_into(w, x, acc, parts, etw_scratch, dev_scratch);
    out.clear();
    let n = x.cols();
    if n == 0 {
        return;
    }
    for (g, dev_g) in dev_scratch.chunks_exact(n).enumerate() {
        if dev_g.iter().any(|&d| d != 0) {
            out.push(g);
        }
    }
}

/// Indices of the shards of a column-sharded GEMM whose stripes carry a non-zero column
/// deviation — the fault domains a detection traces back to.
///
/// Checks every column, not just the shard sums, so two errors that cancel in a shard's
/// MSD but sit in different columns still implicate the shard.
///
/// # Panics
///
/// Panics if `degree` is zero.
pub fn deviating_shards_into(deviations: &[i64], degree: usize, out: &mut Vec<usize>) {
    out.clear();
    for (s, range) in realm_tensor::tp::shard_cols(deviations.len(), degree)
        .into_iter()
        .enumerate()
    {
        if deviations[range].iter().any(|&d| d != 0) {
            out.push(s);
        }
    }
}

/// Per-column deviations of a packed weight replica against its pack-time checksums.
///
/// [`PackedMatI8`] snapshots `eᵀ·W` when the weight matrix is packed at model load. Re-reducing
/// the interleaved tile buffer and subtracting those stored sums audits the *resident* packed
/// bytes — the copy the decode microkernels actually stream — so a bit flip that lands in the
/// packed replica after load shows up as a non-zero entry in the affected column. A clean
/// replica yields all zeros. Note this is a storage-integrity scrub, not a GEMM check: the
/// activation-dependent expected checksum `(eᵀ·X)·W` still comes from the fused GEMM paths.
pub fn packed_weight_deviations(pb: &PackedMatI8) -> Vec<i64> {
    let mut out = Vec::new();
    packed_weight_deviations_into(pb, &mut out);
    out
}

/// [`packed_weight_deviations`] into a caller-provided buffer (cleared and resized in place),
/// for scrub loops that run periodically without allocating.
pub fn packed_weight_deviations_into(pb: &PackedMatI8, out: &mut Vec<i64>) {
    pb.tile_col_sums_into(out);
    for (d, &reference) in out.iter_mut().zip(pb.col_sums()) {
        *d -= reference;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use realm_tensor::gemm;
    use realm_tensor::rng;

    fn random_operands(seed: u64, m: usize, k: usize, n: usize) -> (MatI8, MatI8, MatI32) {
        use rand::Rng;
        let mut r = rng::seeded(seed);
        let w = MatI8::from_fn(m, k, |_, _| r.gen_range(-40..=40));
        let x = MatI8::from_fn(k, n, |_, _| r.gen_range(-40..=40));
        let acc = gemm::gemm_i8(&w, &x).unwrap();
        (w, x, acc)
    }

    #[test]
    fn fault_free_gemm_has_zero_deviations() {
        let (w, x, acc) = random_operands(1, 6, 9, 7);
        let dev = column_deviations(&w, &x, &acc);
        assert_eq!(dev.len(), 7);
        assert!(dev.iter().all(|&d| d == 0));
        assert_eq!(msd(&dev), 0);
    }

    #[test]
    fn single_additive_error_appears_in_exactly_one_column() {
        let (w, x, mut acc) = random_operands(2, 5, 8, 6);
        acc[(2, 3)] = acc[(2, 3)].wrapping_add(1 << 18);
        let dev = column_deviations(&w, &x, &acc);
        assert_eq!(dev[3], 1 << 18);
        assert!(dev.iter().enumerate().all(|(j, &d)| j == 3 || d == 0));
        assert_eq!(msd(&dev), 1 << 18);
    }

    #[test]
    fn multiple_errors_in_one_column_accumulate() {
        let (w, x, mut acc) = random_operands(3, 4, 4, 4);
        acc[(0, 1)] = acc[(0, 1)].wrapping_add(100);
        acc[(2, 1)] = acc[(2, 1)].wrapping_add(-40);
        let dev = column_deviations(&w, &x, &acc);
        assert_eq!(dev[1], 60);
        assert_eq!(msd(&dev), 60);
    }

    #[test]
    fn msd_reflects_sum_of_all_injected_errors() {
        let (w, x, mut acc) = random_operands(4, 8, 8, 8);
        let errors = [
            (0usize, 0usize, 1i64 << 10),
            (3, 5, 1 << 12),
            (7, 7, -(1 << 9)),
        ];
        for &(r, c, d) in &errors {
            acc[(r, c)] = acc[(r, c)].wrapping_add(d as i32);
        }
        let dev = column_deviations(&w, &x, &acc);
        let expected_msd: i64 = errors.iter().map(|&(_, _, d)| d).sum();
        assert_eq!(msd(&dev), expected_msd);
    }

    #[test]
    fn group_deviations_sum_to_batch_deviations_and_localise_errors() {
        let (w, x, mut acc) = random_operands(9, 9, 7, 5);
        let parts = RowPartition::from_lens(&[3, 0, 4, 2]);
        // Corrupt one row of group 2 and one row of group 3.
        acc[(4, 1)] = acc[(4, 1)].wrapping_add(1 << 16);
        acc[(8, 3)] = acc[(8, 3)].wrapping_add(-(1 << 12));

        let (mut etw, mut flat, mut deviating) = (Vec::new(), Vec::new(), Vec::new());
        group_column_deviations_into(&w, &x, &acc, &parts, &mut etw, &mut flat);
        let groups: Vec<&[i64]> = flat.chunks_exact(x.cols()).collect();
        assert_eq!(groups.len(), 4);
        assert!(groups[0].iter().all(|&d| d == 0));
        assert!(groups[1].iter().all(|&d| d == 0), "empty group stays clean");
        assert_eq!(groups[2][1], 1 << 16);
        assert_eq!(groups[3][3], -(1 << 12));

        // Group deviations partition the batch-wide deviation vector exactly.
        let total = column_deviations(&w, &x, &acc);
        for j in 0..total.len() {
            let sum: i64 = groups.iter().map(|g| g[j]).sum();
            assert_eq!(sum, total[j], "column {j}");
        }

        deviating_groups_into(&w, &x, &acc, &parts, &mut etw, &mut flat, &mut deviating);
        assert_eq!(deviating, vec![2, 3]);

        // A clean batched GEMM attributes to no group (the buffers are reused, not appended).
        let (w, x, acc) = random_operands(10, 8, 6, 4);
        let parts = RowPartition::from_lens(&[4, 4]);
        deviating_groups_into(&w, &x, &acc, &parts, &mut etw, &mut flat, &mut deviating);
        assert!(deviating.is_empty());
    }

    #[test]
    fn shard_attribution_slices_the_deviation_vector_at_stripe_boundaries() {
        // 10 columns over 4 shards: stripes 0..3, 3..6, 6..8, 8..10 (ragged).
        let mut dev = vec![0i64; 10];
        dev[4] = 1 << 14; // shard 1
        dev[8] = -(1 << 9); // shard 3
        dev[9] = 1 << 9; // shard 3 — cancels shard 3's MSD but not its columns
        let mut shards = Vec::new();
        deviating_shards_into(&dev, 4, &mut shards);
        assert_eq!(
            shards,
            vec![1, 3],
            "cancelling errors within a stripe still implicate the shard"
        );
        deviating_shards_into(&[0i64; 10], 4, &mut shards);
        assert!(shards.is_empty());

        // An actual corruption of a column owned by shard 2 of 3 (stripes 0..4, 4..8, 8..12).
        let (w, x, mut acc) = random_operands(12, 4, 8, 12);
        acc[(1, 9)] = acc[(1, 9)].wrapping_add(1 << 20);
        deviating_shards_into(&column_deviations(&w, &x, &acc), 3, &mut shards);
        assert_eq!(shards, vec![2]);
    }

    #[test]
    fn expected_checksum_equals_observed_for_clean_gemm() {
        let (w, x, acc) = random_operands(5, 10, 12, 9);
        assert_eq!(
            expected_col_checksum(&w, &x),
            engine::observed_col_sums(&acc)
        );
    }

    #[test]
    #[should_panic(expected = "disagree")]
    fn shape_mismatch_is_detected() {
        let w = MatI8::zeros(2, 3);
        let x = MatI8::zeros(3, 2);
        let acc = MatI32::zeros(3, 2);
        let _ = column_deviations(&w, &x, &acc);
    }

    #[test]
    fn packed_weight_scrub_flags_corrupted_replica_bytes() {
        use rand::Rng;
        let mut r = rng::seeded(11);
        let w = MatI8::from_fn(37, 21, |_, _| r.gen_range(-40..=40));
        let mut pb = PackedMatI8::from_mat(w);

        // Fresh pack: the resident tiles agree with the pack-time checksums.
        let clean = packed_weight_deviations(&pb);
        assert_eq!(clean.len(), 21);
        assert!(clean.iter().all(|&d| d == 0));

        // Flip a byte of the packed replica in place. The first tile byte is element
        // (row 0, col 0) of block 0 in the interleaved layout, so the deviation must land
        // in column 0 with exactly the injected delta.
        let before = pb.tiles()[0];
        pb.tiles_mut()[0] = before.wrapping_add(17);
        let delta = pb.tiles_mut()[0] as i64 - before as i64;
        let mut dev = Vec::new();
        packed_weight_deviations_into(&pb, &mut dev);
        assert_eq!(dev[0], delta);
        assert!(dev.iter().skip(1).all(|&d| d == 0));

        // Restoring the byte clears the deviation again.
        pb.tiles_mut()[0] = before;
        packed_weight_deviations_into(&pb, &mut dev);
        assert!(dev.iter().all(|&d| d == 0));
    }

    #[test]
    fn checksums_survive_worst_case_magnitudes_without_overflow() {
        // 127-valued 64x64 operands: column checksums reach 127*127*64 ≈ 1.03e6 per column and
        // the MSD reaches ~6.6e7 — comfortably inside i64 but past i16/i32 territory when
        // summed across columns, which is exactly why the checksum path uses i64.
        let w = MatI8::filled(64, 64, 127);
        let x = MatI8::filled(64, 64, 127);
        let acc = gemm::gemm_i8(&w, &x).unwrap();
        let dev = column_deviations(&w, &x, &acc);
        assert!(dev.iter().all(|&d| d == 0));
        let expected = expected_col_checksum(&w, &x);
        assert!(expected.iter().all(|&e| e == 127i64 * 127 * 64 * 64));
    }
}
