//! # realm-systolic
//!
//! Behavioural model of a TPU-like systolic array (SA) accelerator with algorithm-based
//! fault-tolerance hardware, covering the circuit half of the ReaLM co-design (Sec. V-B and
//! the evaluation's overhead/energy results).
//!
//! The paper integrates its statistical ABFT into a 256×256 SA supporting both
//! weight-stationary (WS) and output-stationary (OS) dataflows, synthesised on a commercial
//! 14 nm PDK. RTL synthesis is not available in this environment, so this crate provides an
//! analytical model with consistent relative unit costs:
//!
//! * [`mod@array`] — array geometry, GEMM tiling and cycle counts for WS/OS dataflows;
//! * [`protection`] — the protection schemes compared in the evaluation (none, DMR, Razor,
//!   ThunderVolt, classical ABFT, ApproxABFT, statistical ABFT) and the extra hardware each
//!   one adds;
//! * [`area_power`] — area and power accounting per scheme, calibrated so that the statistical
//!   ABFT overhead lands at the ~1.4% area / ~1.8% power the paper reports (Fig. 8);
//! * [`energy`] — energy accounting for compute, detection and recovery at scaled voltages
//!   (the substrate for Fig. 9, Fig. 10 and Table II).
//!
//! # Example
//!
//! ```
//! use realm_systolic::{array::SystolicArray, protection::ProtectionScheme, area_power::AreaPowerModel};
//!
//! let array = SystolicArray::paper_256x256_ws();
//! let model = AreaPowerModel::default_14nm(&array);
//! let overhead = model.overhead(ProtectionScheme::StatisticalAbft);
//! assert!(overhead.area_percent < 2.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod area_power;
pub mod array;
pub mod energy;
pub mod protection;

pub use area_power::{AreaPowerModel, Overhead};
pub use array::{Dataflow, SystolicArray};
pub use energy::EnergyModel;
pub use protection::ProtectionScheme;
