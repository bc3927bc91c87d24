//! The campaign engine's headline guarantee: for every experiment
//! driver, the result at `threads = 1` is **byte-identical** to the
//! result at any other thread count.
//!
//! Each test runs a driver twice at reduced scale — serial, then on 4
//! workers — and compares the `Debug` renderings of the results.
//! `Debug` formatting of `f64` round-trips every bit (Rust prints the
//! shortest string that parses back exactly), so string equality here is
//! bit equality of every accuracy, IPC, and overhead in the artifact.
//!
//! The serial rendering is also checked against a golden FNV-1a digest
//! in `tests/golden/drivers.txt`. Serial-vs-parallel equality cannot
//! see a change to code both sides share; the golden digest can.

use cr_spectre_core::campaign::{fig4, fig5, fig6, table1, CampaignConfig};
use cr_spectre_core::derive_seed;

/// Smoke scale with an explicit worker count — the acceptance bar is
/// equivalence at [`CampaignConfig::smoke`] scale.
fn tiny(threads: usize) -> CampaignConfig {
    CampaignConfig { threads, ..CampaignConfig::smoke() }
}

/// 64-bit FNV-1a, the digest `perfbench/src/digest.rs` records.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// Asserts that `rendered` hashes to the digest recorded for `driver`
/// in `tests/golden/drivers.txt` (lines of `driver 0x<digest>`).
fn assert_golden(driver: &str, rendered: &str) {
    let observed = fnv1a(rendered.as_bytes());
    let recorded = include_str!("golden/drivers.txt")
        .lines()
        .filter_map(|line| line.split_once(' '))
        .find(|(name, _)| *name == driver)
        .map(|(_, hex)| hex.trim());
    assert_eq!(
        recorded,
        Some(format!("{observed:#018x}").as_str()),
        "{driver}: observed digest {observed:#018x} differs from the golden record"
    );
}

#[test]
fn fig4_is_identical_serial_and_parallel() {
    let serial = format!("{:?}", fig4(&tiny(1)));
    let parallel = format!("{:?}", fig4(&tiny(4)));
    assert_eq!(serial, parallel);
    assert_golden("fig4", &serial);
}

#[test]
fn fig5_is_identical_serial_and_parallel() {
    let serial = format!("{:?}", fig5(&tiny(1)));
    let parallel = format!("{:?}", fig5(&tiny(4)));
    assert_eq!(serial, parallel);
    assert_golden("fig5", &serial);
}

#[test]
fn fig6_is_identical_serial_and_parallel() {
    let serial = format!("{:?}", fig6(&tiny(1)));
    let parallel = format!("{:?}", fig6(&tiny(4)));
    assert_eq!(serial, parallel);
    assert_golden("fig6", &serial);
}

#[test]
fn table1_is_identical_serial_and_parallel() {
    let serial = format!("{:?}", table1(&tiny(1), 2));
    let parallel = format!("{:?}", table1(&tiny(4), 2));
    assert_eq!(serial, parallel);
    assert_golden("table1", &serial);
}

/// Telemetry is observation-only: with a recorder installed, every
/// driver still produces bit-identical results — serial vs parallel and
/// recording vs not. (Only this test installs the process-global
/// recorder, and it uninstalls it on shutdown; the sibling tests are
/// unaffected either way because recording never changes results.)
#[test]
fn fig5_is_identical_with_telemetry_enabled() {
    use cr_spectre_telemetry as telemetry;
    use cr_spectre_telemetry::sink::MemorySink;

    let disabled = format!("{:?}", fig5(&tiny(2)));
    let sink = MemorySink::shared();
    assert!(telemetry::install(vec![Box::new(sink.clone())]), "no other recorder exists");
    let serial = format!("{:?}", fig5(&tiny(1)));
    let parallel = format!("{:?}", fig5(&tiny(4)));
    let summary = telemetry::shutdown().expect("recorder was installed");
    assert_eq!(serial, parallel, "equivalence holds while recording");
    assert_eq!(serial, disabled, "recording does not change results");
    // And the trace really observed the runs.
    assert!(summary.spans.contains_key("campaign.fig5"));
    assert!(summary.spans.contains_key("fig5.train"));
    let spans = sink.spans();
    assert!(spans.iter().any(|s| s.name == "fig5.attempt"));
    assert!(spans.iter().any(|s| s.name == "hpc.profile"));
    assert!(summary.counters.get("sim.runs").copied().unwrap_or(0) > 0);
}

#[test]
fn thread_count_beyond_work_width_is_still_identical() {
    // More workers than items exercises the clamp path.
    let serial = format!("{:?}", table1(&tiny(1), 1));
    let oversubscribed = format!("{:?}", table1(&tiny(64), 1));
    assert_eq!(serial, oversubscribed);
}

mod derive_seed_props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// `stream ↦ derive_seed(base, stream)` is injective for every
        /// fixed base: distinct trials can never collide onto the same
        /// RNG seed.
        #[test]
        fn injective_over_streams(base in any::<u64>(), a in any::<u64>(), b in any::<u64>()) {
            if a != b {
                prop_assert_ne!(derive_seed(base, a), derive_seed(base, b));
            }
        }

        /// Trial indices that are close together (the common case:
        /// attempt 0, 1, 2, …) land on well-separated seeds.
        #[test]
        fn adjacent_streams_differ(base in any::<u64>(), stream in 0u64..1 << 32) {
            prop_assert_ne!(derive_seed(base, stream), derive_seed(base, stream + 1));
        }

        /// Pure function: same inputs, same seed, on every run and host.
        #[test]
        fn deterministic(base in any::<u64>(), stream in any::<u64>()) {
            prop_assert_eq!(derive_seed(base, stream), derive_seed(base, stream));
        }
    }
}
