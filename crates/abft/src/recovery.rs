//! Recovery policies and their cost accounting.
//!
//! When a detector requests recovery, the system must restore a correct result. The paper
//! assumes recovery by **re-executing the affected GEMM at nominal voltage** (where the BER
//! is negligible); other schemes in the comparison recover differently: ThunderVolt/Razor
//! replay individual pipeline stages per detected timing error, DMR re-runs the mismatching
//! computation. This module quantifies the work each policy performs so the energy model can
//! price it.

use realm_systolic::protection::ProtectionScheme;

/// How a recovery is carried out when a detector requests one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryPolicy {
    /// Re-execute the whole affected GEMM at nominal voltage (the paper's assumption), where
    /// the BER is negligible. The energy model prices the re-execution at its own
    /// `nominal_voltage`.
    RecomputeAtNominal,
    /// Replay only the pipeline stages that captured a timing error (Razor / ThunderVolt):
    /// cost is a fixed number of cycles per detected error rather than a full GEMM.
    PerErrorReplay {
        /// Replay cycles charged per detected error.
        cycles_per_error: u64,
    },
    /// No recovery: errors are left in place (the "no protection" baseline).
    None,
}

impl RecoveryPolicy {
    /// The recovery policy conventionally paired with each protection scheme in the
    /// evaluation's comparison (Fig. 9).
    pub fn default_for_scheme(scheme: ProtectionScheme) -> Self {
        match scheme {
            ProtectionScheme::None => RecoveryPolicy::None,
            ProtectionScheme::RazorFfs | ProtectionScheme::ThunderVolt => {
                RecoveryPolicy::PerErrorReplay {
                    cycles_per_error: 2,
                }
            }
            ProtectionScheme::Dmr
            | ProtectionScheme::ClassicalAbft
            | ProtectionScheme::ApproxAbft
            | ProtectionScheme::StatisticalAbft => RecoveryPolicy::RecomputeAtNominal,
        }
    }
}

/// Accumulated recovery work over a protected inference run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Number of GEMMs that were inspected.
    pub gemms_inspected: u64,
    /// Number of GEMMs in which the detector saw any error.
    pub gemms_with_errors: u64,
    /// Number of recoveries triggered.
    pub recoveries_triggered: u64,
    /// MACs re-executed by recoveries.
    pub recovery_macs: u64,
    /// Extra cycles spent on recovery (re-execution or replay).
    pub recovery_cycles: u64,
}

impl RecoveryStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one inspected GEMM.
    ///
    /// * `had_errors` — whether the detector saw any deviation;
    /// * `triggered` — whether recovery was requested;
    /// * `gemm_macs` / `gemm_cycles` — cost of re-executing this GEMM;
    /// * `detected_errors` — error count used by per-error replay policies.
    pub fn record(
        &mut self,
        policy: &RecoveryPolicy,
        had_errors: bool,
        triggered: bool,
        gemm_macs: u64,
        gemm_cycles: u64,
        detected_errors: u64,
    ) {
        self.gemms_inspected += 1;
        if had_errors {
            self.gemms_with_errors += 1;
        }
        if !triggered {
            return;
        }
        self.recoveries_triggered += 1;
        match policy {
            RecoveryPolicy::RecomputeAtNominal => {
                self.recovery_macs += gemm_macs;
                self.recovery_cycles += gemm_cycles;
            }
            RecoveryPolicy::PerErrorReplay { cycles_per_error } => {
                self.recovery_cycles += cycles_per_error * detected_errors;
            }
            RecoveryPolicy::None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policies_match_scheme_semantics() {
        assert_eq!(
            RecoveryPolicy::default_for_scheme(ProtectionScheme::None),
            RecoveryPolicy::None
        );
        assert!(matches!(
            RecoveryPolicy::default_for_scheme(ProtectionScheme::ThunderVolt),
            RecoveryPolicy::PerErrorReplay { .. }
        ));
        assert_eq!(
            RecoveryPolicy::default_for_scheme(ProtectionScheme::StatisticalAbft),
            RecoveryPolicy::RecomputeAtNominal
        );
    }

    #[test]
    fn recompute_policy_charges_full_gemm() {
        let mut stats = RecoveryStats::new();
        let policy = RecoveryPolicy::RecomputeAtNominal;
        stats.record(&policy, true, true, 1_000_000, 5_000, 3);
        assert_eq!(stats.recovery_macs, 1_000_000);
        assert_eq!(stats.recovery_cycles, 5_000);
        assert_eq!(stats.recoveries_triggered, 1);
        assert_eq!(stats.gemms_with_errors, 1);
    }

    #[test]
    fn replay_policy_charges_per_error() {
        let mut stats = RecoveryStats::new();
        let policy = RecoveryPolicy::PerErrorReplay {
            cycles_per_error: 2,
        };
        stats.record(&policy, true, true, 1_000_000, 5_000, 7);
        assert_eq!(stats.recovery_macs, 0);
        assert_eq!(stats.recovery_cycles, 14);
    }

    #[test]
    fn untriggered_inspections_cost_nothing() {
        let mut stats = RecoveryStats::new();
        let policy = RecoveryPolicy::RecomputeAtNominal;
        stats.record(&policy, true, false, 1_000, 10, 1);
        stats.record(&policy, false, false, 1_000, 10, 0);
        assert_eq!(stats.recoveries_triggered, 0);
        assert_eq!(stats.recovery_macs, 0);
        assert_eq!(stats.gemms_inspected, 2);
        assert_eq!(stats.gemms_with_errors, 1);
    }

    #[test]
    fn none_policy_never_accumulates_recovery_work() {
        let mut stats = RecoveryStats::new();
        stats.record(&RecoveryPolicy::None, true, true, 1_000, 10, 5);
        assert_eq!(stats.recovery_macs, 0);
        assert_eq!(stats.recovery_cycles, 0);
        assert_eq!(stats.recoveries_triggered, 1);
    }
}
