//! # cr-spectre-perfbench
//!
//! The artifact benchmark of the CR-Spectre reproduction. Each workload
//! regenerates one paper artifact (Figure 5, Figure 6 or Table I)
//! through its public driver in `cr_spectre_core::campaign`, in a closed
//! loop with one caller, and reports end-to-end metrics; a separate
//! traced run replays the driver through each layer's public functions
//! and reports per-layer metrics. See `README.md` beside this crate.

pub mod cli;
pub mod digest;
pub mod host;
pub mod replay;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;
