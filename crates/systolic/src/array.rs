//! Systolic-array geometry, GEMM tiling and cycle counts.

/// Dataflow of the systolic array (Sec. V-B, Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataflow {
    /// Weight-stationary: weights are pinned in the PEs, activations stream horizontally,
    /// partial sums move down the columns.
    WeightStationary,
    /// Output-stationary: outputs accumulate in place, weights and activations stream through.
    OutputStationary,
}

impl std::fmt::Display for Dataflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Dataflow::WeightStationary => f.write_str("WS"),
            Dataflow::OutputStationary => f.write_str("OS"),
        }
    }
}

/// A rectangular systolic array of INT8 multiply-accumulate processing elements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystolicArray {
    /// Number of PE rows.
    pub rows: usize,
    /// Number of PE columns.
    pub cols: usize,
    /// Dataflow the array is operated in.
    pub dataflow: Dataflow,
    /// Clock period in picoseconds (the paper uses 500 ps with a 439 ps critical path).
    pub clock_period_ps: f64,
}

/// Tiling of a GEMM onto the array, with the resulting cycle estimate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GemmSchedule {
    /// Number of tiles along the `m` (output rows) dimension.
    pub tiles_m: usize,
    /// Number of tiles along the `k` (inner) dimension.
    pub tiles_k: usize,
    /// Number of tiles along the `n` (output columns) dimension.
    pub tiles_n: usize,
    /// Total cycles to execute the GEMM, including pipeline fill/drain per tile.
    pub cycles: u64,
    /// Total multiply-accumulate operations.
    pub macs: u64,
}

impl GemmSchedule {
    /// Average PE utilization over the run (MACs per PE-cycle).
    pub fn utilization(&self, array: &SystolicArray) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        self.macs as f64 / (self.cycles as f64 * (array.rows * array.cols) as f64)
    }
}

impl SystolicArray {
    /// The paper's evaluation platform: a 256×256 array, WS dataflow, 500 ps clock.
    pub fn paper_256x256_ws() -> Self {
        Self {
            rows: 256,
            cols: 256,
            dataflow: Dataflow::WeightStationary,
            clock_period_ps: 500.0,
        }
    }

    /// The paper's evaluation platform operated with the OS dataflow.
    pub fn paper_256x256_os() -> Self {
        Self {
            dataflow: Dataflow::OutputStationary,
            ..Self::paper_256x256_ws()
        }
    }

    /// A small array for unit tests.
    pub fn small(dataflow: Dataflow) -> Self {
        Self {
            rows: 8,
            cols: 8,
            dataflow,
            clock_period_ps: 500.0,
        }
    }

    /// Total number of processing elements.
    pub fn num_pes(&self) -> usize {
        self.rows * self.cols
    }

    /// Schedules a GEMM of shape `(m, k) × (k, n)` onto the array.
    ///
    /// The model tiles the operand dimensions onto the physical array and charges, per tile,
    /// the streaming cycles plus the pipeline fill/drain latency of the wavefront. It is a
    /// first-order model — adequate for relative energy/latency comparisons between
    /// protection schemes, which is all the evaluation needs.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn schedule_gemm(&self, m: usize, k: usize, n: usize) -> GemmSchedule {
        assert!(m > 0 && k > 0 && n > 0, "GEMM dimensions must be non-zero");
        let (tiles_m, tiles_k, tiles_n, cycles_per_tile) = match self.dataflow {
            Dataflow::WeightStationary => {
                // Weights (k × n) are pinned: k maps to rows, n to columns. Activations
                // stream m rows through each tile.
                let tiles_k = div_ceil(k, self.rows);
                let tiles_n = div_ceil(n, self.cols);
                let fill = (self.rows + self.cols) as u64;
                let stream = m as u64;
                (1, tiles_k, tiles_n, fill + stream)
            }
            Dataflow::OutputStationary => {
                // Outputs (m × n) are pinned: m maps to rows, n to columns. The k dimension
                // streams through each tile.
                let tiles_m = div_ceil(m, self.rows);
                let tiles_n = div_ceil(n, self.cols);
                let fill = (self.rows + self.cols) as u64;
                let stream = k as u64;
                (tiles_m, 1, tiles_n, fill + stream)
            }
        };
        let total_tiles = (tiles_m * tiles_k * tiles_n) as u64;
        GemmSchedule {
            tiles_m,
            tiles_k,
            tiles_n,
            cycles: total_tiles * cycles_per_tile,
            macs: (m as u64) * (k as u64) * (n as u64),
        }
    }
}

fn div_ceil(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_arrays_have_expected_geometry() {
        let ws = SystolicArray::paper_256x256_ws();
        assert_eq!(ws.num_pes(), 65536);
        assert_eq!(ws.dataflow, Dataflow::WeightStationary);
        let os = SystolicArray::paper_256x256_os();
        assert_eq!(os.dataflow, Dataflow::OutputStationary);
        assert_eq!(os.rows, 256);
    }

    #[test]
    fn small_gemm_fits_in_one_tile() {
        let array = SystolicArray::small(Dataflow::WeightStationary);
        let s = array.schedule_gemm(4, 8, 8);
        assert_eq!((s.tiles_m, s.tiles_k, s.tiles_n), (1, 1, 1));
        assert_eq!(s.macs, 4 * 8 * 8);
        assert!(s.cycles >= 4);
    }

    #[test]
    fn tiling_grows_with_oversized_operands() {
        let array = SystolicArray::small(Dataflow::WeightStationary);
        let s = array.schedule_gemm(4, 32, 20);
        assert_eq!(s.tiles_k, 4);
        assert_eq!(s.tiles_n, 3);
        assert_eq!(s.tiles_m, 1);
        let one = array.schedule_gemm(4, 8, 8);
        assert!(s.cycles > one.cycles);
    }

    #[test]
    fn os_dataflow_tiles_output_dimensions() {
        let array = SystolicArray::small(Dataflow::OutputStationary);
        let s = array.schedule_gemm(20, 64, 10);
        assert_eq!(s.tiles_m, 3);
        assert_eq!(s.tiles_n, 2);
        assert_eq!(s.tiles_k, 1);
    }

    #[test]
    fn cycles_scale_with_streaming_dimension() {
        let ws = SystolicArray::small(Dataflow::WeightStationary);
        assert!(ws.schedule_gemm(100, 8, 8).cycles > ws.schedule_gemm(10, 8, 8).cycles);
        let os = SystolicArray::small(Dataflow::OutputStationary);
        assert!(os.schedule_gemm(8, 100, 8).cycles > os.schedule_gemm(8, 10, 8).cycles);
    }

    #[test]
    fn utilization_is_bounded() {
        let array = SystolicArray::paper_256x256_ws();
        let s = array.schedule_gemm(512, 256, 256);
        let u = s.utilization(&array);
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimension_is_rejected() {
        let array = SystolicArray::small(Dataflow::WeightStationary);
        let _ = array.schedule_gemm(0, 8, 8);
    }
}
