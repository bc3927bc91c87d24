//! # cr-spectre-hpc
//!
//! Hardware-performance-counter profiling for the CR-Spectre
//! reproduction: the simulator analogue of the paper's PAPI-based tool.
//!
//! * [`profiler`] — step a machine and record per-window deltas of all 56
//!   PMU counters;
//! * [`features`] — the paper's ranked feature sets (sizes 1/2/4/8/16)
//!   and Fisher-score ranking;
//! * [`dataset`] — labelled sample matrices with the paper's seeded
//!   70/30 train/test split.
//!
//! # Example
//!
//! ```
//! use cr_spectre_hpc::{dataset::{Dataset, Label}, features::FeatureSet, profiler};
//! use cr_spectre_sim::{config::MachineConfig, cpu::Machine};
//! use cr_spectre_workloads::{host::standalone_image, mibench::Mibench};
//!
//! let image = standalone_image(Mibench::Crc32);
//! let mut machine = Machine::new(MachineConfig::default());
//! let loaded = machine.load(&image).expect("loads");
//! machine.start(loaded.entry);
//! let trace = profiler::profile(&mut machine, "crc32", 2_000);
//!
//! let features = FeatureSet::paper_default();
//! let mut data = Dataset::new();
//! data.push_trace(&trace, Label::Benign, &features);
//! assert_eq!(data.len(), trace.len());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dataset;
pub mod export;
pub mod features;
pub mod profiler;

pub use dataset::{Dataset, Label};
pub use features::FeatureSet;
pub use profiler::{profile, Sample, Trace};
