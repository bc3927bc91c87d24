//! # cr-spectre-bench
//!
//! Perf-regression harnesses of the simulator and the HID. The paper's
//! tables themselves (Figures 4–6, Table I, the ablations and the
//! defense-overhead extension) print through
//! `cargo run --release -- campaign --artifact X`.
//!
//! Binaries:
//!
//! * `sim_throughput` — perf-regression harness for the execution fast
//!   path: guest MIPS fast vs. slow on a fixed instruction mix and the
//!   fig5 smoke campaign, written to `BENCH_sim.json`;
//! * `hid_throughput` — perf-regression harness for the HID's flat math
//!   core: train/predict rows per second per classifier family, fast
//!   (flat `Mat` + batched GEMM) vs. the seed reference
//!   implementations, written to `BENCH_hid.json`.
//!
//! Both parse their flags with `cr_spectre_core::cli`, the parser the
//! `cr-spectre` binary uses. Run with
//! `cargo run --release -p cr-spectre-bench --bin sim_throughput`.
