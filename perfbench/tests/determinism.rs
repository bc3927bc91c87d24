//! The traced replay computes exactly what the driver computes, at one
//! and at two threads, and the driver matches its recorded digest.

use cr_spectre_perfbench::trace::Tracer;
use cr_spectre_perfbench::workload::{check_call, check_leaks, sim_digest, Workload};

#[test]
fn replay_matches_driver_at_one_and_two_threads() {
    for workload in Workload::ALL {
        let mut digests = Vec::new();
        for threads in [1, 2] {
            // A held-out pool entry, at warm-up scale.
            let mut inputs = workload.inputs(5, threads);
            inputs.cfg.samples_per_class = 40;
            inputs.cfg.attempts = 1;
            let driver = inputs.call();
            let tracer = Tracer::new();
            let replayed = inputs.replay(&tracer);
            let (spans, counters) = tracer.finish();
            assert!(!spans.is_empty());
            replayed.check_shape(&inputs).expect("replay shape");
            assert_eq!(
                driver.digest(),
                replayed.digest(),
                "{} at {threads} threads",
                workload.name()
            );
            check_leaks(&counters).expect("every attack leaks");
            digests.push((driver.digest(), sim_digest(&counters)));
        }
        assert_eq!(
            digests[0],
            digests[1],
            "{} differs between 1 and 2 threads",
            workload.name()
        );
    }
}

#[test]
fn driver_reproduces_its_recorded_digest_at_one_and_two_threads() {
    for threads in [1, 2] {
        let inputs = Workload::OfflineEvasion.inputs(0, threads);
        check_call(&inputs, &inputs.call()).expect("recorded digest");
        let tracer = Tracer::new();
        inputs.replay(&tracer);
        let (_, counters) = tracer.finish();
        assert_eq!(
            Some(sim_digest(&counters)),
            inputs.recorded().map(|r| r.sim)
        );
    }
}
