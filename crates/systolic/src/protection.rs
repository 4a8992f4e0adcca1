//! Protection schemes and the extra hardware each one adds to the systolic array.
//!
//! The paper compares its statistical ABFT against the fault-mitigation landscape of
//! Table I / Fig. 9: no protection, double-modular redundancy (DMR), Razor-style timing-error
//! detection flip-flops, ThunderVolt-style per-MAC error detection and replay, classical ABFT
//! and ApproxABFT. This module enumerates those schemes and describes the additional hardware
//! blocks they require; `area_power` prices those blocks and `energy` charges their runtime
//! costs.

use crate::array::{Dataflow, SystolicArray};

/// A fault-mitigation scheme applied to the systolic array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProtectionScheme {
    /// No protection: errors flow silently into the results.
    None,
    /// Double-modular redundancy: every computation is executed twice and compared.
    Dmr,
    /// Razor-style shadow flip-flops on the PE pipeline registers.
    RazorFfs,
    /// ThunderVolt-style timing-error detection with per-error replay inside the array.
    ThunderVolt,
    /// Classical ABFT: full checksum comparison, recovery on any mismatch.
    ClassicalAbft,
    /// ApproxABFT: matrix-sum-deviation thresholding before triggering recovery.
    ApproxAbft,
    /// The paper's statistical ABFT with the online statistical unit.
    StatisticalAbft,
}

impl ProtectionScheme {
    /// All schemes in the order the evaluation reports them.
    pub const ALL: [ProtectionScheme; 7] = [
        ProtectionScheme::None,
        ProtectionScheme::Dmr,
        ProtectionScheme::RazorFfs,
        ProtectionScheme::ThunderVolt,
        ProtectionScheme::ClassicalAbft,
        ProtectionScheme::ApproxAbft,
        ProtectionScheme::StatisticalAbft,
    ];

    /// Strictness ranking used when several schemes protect one batched GEMM: the
    /// strictest requested scheme wins. Higher is stricter. The order reflects coverage,
    /// not enum declaration order: no protection < thresholded checksums (ApproxABFT) <
    /// statistical checksums < timing-error schemes (ThunderVolt, Razor) < full
    /// duplication (DMR) < classical ABFT, which recovers every detected deviation.
    pub fn strictness(self) -> u8 {
        match self {
            ProtectionScheme::None => 0,
            ProtectionScheme::ApproxAbft => 1,
            ProtectionScheme::StatisticalAbft => 2,
            ProtectionScheme::ThunderVolt => 3,
            ProtectionScheme::RazorFfs => 4,
            ProtectionScheme::Dmr => 5,
            ProtectionScheme::ClassicalAbft => 6,
        }
    }

    /// Display label matching the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            ProtectionScheme::None => "No protection",
            ProtectionScheme::Dmr => "DMR",
            ProtectionScheme::RazorFfs => "Razor FFs",
            ProtectionScheme::ThunderVolt => "ThunderVolt",
            ProtectionScheme::ClassicalAbft => "Classical ABFT",
            ProtectionScheme::ApproxAbft => "ApproxABFT",
            ProtectionScheme::StatisticalAbft => "Statistical ABFT (ours)",
        }
    }
}

impl std::fmt::Display for ProtectionScheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Count of extra hardware blocks a protection scheme adds to a given array.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtraHardware {
    /// Extra full PE copies (DMR duplicates the whole array).
    pub duplicate_pes: usize,
    /// Extra higher-bit-width PEs for checksum accumulation (one column or row).
    pub wide_pes: usize,
    /// Extra 32-bit adders (checksum reduction row/column).
    pub adders: usize,
    /// Shadow flip-flops added inside existing PEs (Razor/ThunderVolt), counted per PE.
    pub shadow_ff_pes: usize,
    /// 32-bit buffer registers in the statistical unit (one per output column).
    pub stat_buffers: usize,
    /// Comparators in the statistical unit's `countif` stage.
    pub comparators: usize,
    /// Fixed-function units: subtractor + accumulator + Log2LinearFunction unit.
    pub stat_fixed_units: usize,
}

impl ExtraHardware {
    /// Extra hardware required by `scheme` on `array` (Fig. 7 of the paper).
    pub fn for_scheme(scheme: ProtectionScheme, array: &SystolicArray) -> Self {
        let n_cols = array.cols;
        let n_rows = array.rows;
        // The checksum datapath differs slightly between dataflows (Fig. 7a vs 7b): WS adds a
        // column of wide PEs and a row of adders; OS adds a column of adders and a row of wide
        // PEs. The totals are symmetric for a square array.
        let (checksum_wide, checksum_adders) = match array.dataflow {
            Dataflow::WeightStationary => (n_rows, n_cols),
            Dataflow::OutputStationary => (n_cols, n_rows),
        };
        match scheme {
            ProtectionScheme::None => Self::default(),
            ProtectionScheme::Dmr => Self {
                duplicate_pes: array.num_pes(),
                adders: n_cols, // output comparison
                ..Self::default()
            },
            ProtectionScheme::RazorFfs => Self {
                shadow_ff_pes: array.num_pes(),
                ..Self::default()
            },
            ProtectionScheme::ThunderVolt => Self {
                shadow_ff_pes: array.num_pes(),
                adders: n_cols, // replay steering logic approximated as an adder per column
                ..Self::default()
            },
            ProtectionScheme::ClassicalAbft => Self {
                wide_pes: checksum_wide,
                adders: checksum_adders,
                ..Self::default()
            },
            ProtectionScheme::ApproxAbft => Self {
                wide_pes: checksum_wide,
                adders: checksum_adders,
                // MSD thresholding needs a subtractor + accumulator + comparator.
                stat_fixed_units: 2,
                comparators: 1,
                ..Self::default()
            },
            ProtectionScheme::StatisticalAbft => Self {
                wide_pes: checksum_wide,
                adders: checksum_adders,
                // Statistical unit (Fig. 7c): subtractor, accumulator, Log2LinearFunction
                // unit, a buffer per output column and a parallel countif comparator per
                // buffer.
                stat_fixed_units: 3,
                stat_buffers: n_cols,
                comparators: n_cols,
                ..Self::default()
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_contains_every_scheme_once() {
        let mut labels: Vec<&str> = ProtectionScheme::ALL.iter().map(|s| s.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), 7);
    }

    #[test]
    fn strictness_ranks_every_scheme_uniquely() {
        let mut ranks: Vec<u8> = ProtectionScheme::ALL
            .iter()
            .map(|s| s.strictness())
            .collect();
        ranks.sort_unstable();
        assert_eq!(ranks, (0..7).collect::<Vec<u8>>());
        assert_eq!(ProtectionScheme::None.strictness(), 0);
        assert_eq!(ProtectionScheme::ClassicalAbft.strictness(), 6);
        assert!(
            ProtectionScheme::ClassicalAbft.strictness()
                > ProtectionScheme::StatisticalAbft.strictness()
        );
        assert!(
            ProtectionScheme::StatisticalAbft.strictness()
                > ProtectionScheme::ApproxAbft.strictness()
        );
    }

    #[test]
    fn no_protection_adds_nothing() {
        let array = SystolicArray::paper_256x256_ws();
        assert_eq!(
            ExtraHardware::for_scheme(ProtectionScheme::None, &array),
            ExtraHardware::default()
        );
    }

    #[test]
    fn dmr_duplicates_the_array() {
        let array = SystolicArray::paper_256x256_ws();
        let hw = ExtraHardware::for_scheme(ProtectionScheme::Dmr, &array);
        assert_eq!(hw.duplicate_pes, 65536);
    }

    #[test]
    fn abft_adds_one_checksum_row_and_column() {
        let array = SystolicArray::paper_256x256_ws();
        let hw = ExtraHardware::for_scheme(ProtectionScheme::ClassicalAbft, &array);
        assert_eq!(hw.wide_pes, 256);
        assert_eq!(hw.adders, 256);
        assert_eq!(hw.duplicate_pes, 0);
    }

    #[test]
    fn statistical_abft_adds_statistical_unit_on_top_of_classical() {
        let array = SystolicArray::paper_256x256_os();
        let classical = ExtraHardware::for_scheme(ProtectionScheme::ClassicalAbft, &array);
        let statistical = ExtraHardware::for_scheme(ProtectionScheme::StatisticalAbft, &array);
        assert_eq!(statistical.wide_pes, classical.wide_pes);
        assert_eq!(statistical.adders, classical.adders);
        assert!(statistical.stat_buffers > 0);
        assert!(statistical.comparators > 0);
        assert!(statistical.stat_fixed_units > classical.stat_fixed_units);
    }

    #[test]
    fn checksum_hardware_is_symmetric_for_square_arrays() {
        let ws = ExtraHardware::for_scheme(
            ProtectionScheme::ClassicalAbft,
            &SystolicArray::paper_256x256_ws(),
        );
        let os = ExtraHardware::for_scheme(
            ProtectionScheme::ClassicalAbft,
            &SystolicArray::paper_256x256_os(),
        );
        assert_eq!(ws.wide_pes, os.wide_pes);
        assert_eq!(ws.adders, os.adders);
    }
}
