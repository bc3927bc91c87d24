//! Deterministic parallel execution for campaign fan-outs.
//!
//! Every evaluation artifact of the paper (Figures 4–6, Table I) is a
//! fan-out of *independent* simulator trials: per-host benign traces,
//! per-variant Spectre runs, per-attempt CR-Spectre series. This module
//! provides the primitives that let [`crate::campaign`] execute
//! those fan-outs on every available core **without changing a single
//! output bit**:
//!
//! * [`par_map`] — a dependency-free scoped-thread map that preserves
//!   input order and propagates worker panics. Work is handed out by an
//!   atomic cursor, but each result lands in the slot of its input
//!   index, so the output is independent of scheduling.
//! * [`par_join`] — two independent jobs side by side, each with its
//!   share of the worker budget (fig6's two panels).
//! * [`derive_seed`] — per-trial RNG seed derivation (splitmix64-style
//!   finalizer). Trials never *share* a generator — each derives its own
//!   seed from `(base, stream)` — so the random stream a trial sees is a
//!   pure function of its index, not of which thread ran it first.
//!
//! Together these give the equivalence guarantee locked in by
//! `crates/core/tests/parallel_equivalence.rs`: for any driver, the
//! result at `threads = 1` is byte-identical to the result at any other
//! thread count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use cr_spectre_telemetry as telemetry;

/// The default worker count: every core the host offers.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Derives the RNG seed of one trial from a campaign base seed and the
/// trial's logical stream index.
///
/// The map `stream ↦ derive_seed(base, stream)` is a bijection for every
/// fixed `base` (an odd-multiplier affine step followed by the
/// splitmix64 finalizer, both invertible mod 2⁶⁴), so distinct trials
/// are guaranteed distinct seeds — no birthday collisions, no trial
/// accidentally replaying another's noise. Being a pure function, it
/// also makes every trial's randomness independent of execution order:
/// the property the serial-vs-parallel equivalence suite relies on.
pub fn derive_seed(base: u64, stream: u64) -> u64 {
    let mut z = base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Maps `f` over `items` on up to `threads` scoped worker threads,
/// returning results in input order.
///
/// * **Order-preserving:** `par_map(v, t, f)` equals
///   `v.into_iter().map(f).collect()` element-for-element, for every
///   `t`.
/// * **Panic-propagating:** if `f` panics on any item, the panic payload
///   resumes on the caller after all workers have stopped (no result is
///   silently dropped).
/// * **Dependency-free:** built on [`std::thread::scope`]; the build is
///   offline and must not pull rayon.
///
/// `threads == 1` (or a single item) short-circuits to a plain serial
/// map with zero thread overhead, which is also what makes the serial
/// baseline of the equivalence tests trivially trustworthy.
pub fn par_map<T, U, F>(items: Vec<T>, threads: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    let n = items.len();
    let threads = threads.max(1).min(n.max(1));
    // Telemetry here observes scheduling (queue waits, job runtimes); it
    // never feeds back into `f`, so outputs stay bit-identical whether a
    // recorder is installed or not.
    let recording = telemetry::enabled();
    let mut span = telemetry::span("par_map");
    span.field("jobs", n).field("threads", threads);
    if threads == 1 || n <= 1 {
        if recording {
            telemetry::counter("par_map.jobs", n as u64);
        }
        return items
            .into_iter()
            .map(|item| {
                if recording {
                    let t0 = std::time::Instant::now();
                    let result = f(item);
                    telemetry::histogram(
                        "par_map.job_us",
                        t0.elapsed().as_secs_f64() * 1_000_000.0,
                    );
                    result
                } else {
                    f(item)
                }
            })
            .collect();
    }

    // Each input owns a slot; workers claim indices from the cursor and
    // write results into the matching output slot, so ordering is a
    // property of the data layout, not of scheduling.
    let input: Vec<Mutex<Option<T>>> =
        items.into_iter().map(|item| Mutex::new(Some(item))).collect();
    let output: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let f = &f;

    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| loop {
                    let claim_start = recording.then(std::time::Instant::now);
                    let index = cursor.fetch_add(1, Ordering::Relaxed);
                    if index >= n {
                        break;
                    }
                    let item = input[index]
                        .lock()
                        .expect("input slot poisoned")
                        .take()
                        .expect("each index is claimed exactly once");
                    let exec_start = if let Some(t0) = claim_start {
                        // Claim phase: cursor bump + slot lock/take.
                        telemetry::histogram(
                            "par_map.claim_us",
                            t0.elapsed().as_secs_f64() * 1_000_000.0,
                        );
                        telemetry::counter("par_map.jobs", 1);
                        Some(std::time::Instant::now())
                    } else {
                        None
                    };
                    let result = f(item);
                    if let Some(t0) = exec_start {
                        telemetry::histogram(
                            "par_map.job_us",
                            t0.elapsed().as_secs_f64() * 1_000_000.0,
                        );
                    }
                    *output[index].lock().expect("output slot poisoned") = Some(result);
                })
            })
            .collect();
        for worker in workers {
            if let Err(payload) = worker.join() {
                // Re-raise on the caller; `scope` joins the remaining
                // workers before unwinding escapes.
                std::panic::resume_unwind(payload);
            }
        }
    });

    output
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("output slot poisoned")
                .expect("every index was processed")
        })
        .collect()
}

/// Runs two independent jobs side by side, splitting a `threads`
/// budget between them, and returns both results.
///
/// Each job receives the worker count for its own fan-outs: `a` gets
/// `threads / 2` and runs on one scoped thread, `b` gets the rest and
/// runs on the caller's. With `threads == 1` nothing is spawned: `a`
/// then `b` run serially on the caller with one worker each. Results
/// are whatever the jobs return, so as long as neither reads the
/// other's state the pair is identical at every thread count. A panic
/// in either job resumes on the caller.
pub fn par_join<A, B, FA, FB>(threads: usize, a: FA, b: FB) -> (A, B)
where
    A: Send,
    FA: FnOnce(usize) -> A + Send,
    FB: FnOnce(usize) -> B,
{
    if threads <= 1 {
        let ra = a(1);
        return (ra, b(1));
    }
    let share_a = threads / 2;
    std::thread::scope(|scope| {
        let job_a = scope.spawn(move || a(share_a));
        let rb = b(threads - share_a);
        match job_a.join() {
            Ok(ra) => (ra, rb),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

/// [`par_map`] over `0..count`, the common "fan out by trial index"
/// shape of the campaign drivers.
pub fn par_map_indices<U, F>(count: usize, threads: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    par_map((0..count).collect(), threads, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_serial_map() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 4, 8, 64] {
            let parallel = par_map(items.clone(), threads, |x| x * x + 1);
            assert_eq!(parallel, serial, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_preserves_order_under_skewed_load() {
        // Early items sleep, late items return instantly: any
        // completion-order bug would scramble the output.
        let out = par_map((0..32u64).collect(), 8, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i
        });
        assert_eq!(out, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn par_map_handles_empty_input() {
        let out: Vec<u32> = par_map(Vec::<u32>::new(), 4, |x| x + 1);
        assert!(out.is_empty());
    }

    #[test]
    fn par_map_handles_single_item() {
        assert_eq!(par_map(vec![41], 4, |x| x + 1), vec![42]);
    }

    #[test]
    fn par_map_handles_fewer_items_than_threads() {
        assert_eq!(par_map(vec![1, 2, 3], 64, |x| x * 10), vec![10, 20, 30]);
    }

    #[test]
    fn par_map_propagates_panics() {
        let result = std::panic::catch_unwind(|| {
            par_map((0..16).collect::<Vec<i32>>(), 4, |x| {
                if x == 7 {
                    panic!("trial 7 exploded");
                }
                x
            })
        });
        let payload = result.expect_err("panic must propagate");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(message.contains("trial 7 exploded"), "payload: {message:?}");
    }

    #[test]
    fn par_map_indices_counts_from_zero() {
        assert_eq!(par_map_indices(4, 2, |i| i * 2), vec![0, 2, 4, 6]);
    }

    #[test]
    fn par_join_splits_the_budget_and_keeps_results_apart() {
        let caller = std::thread::current().id();
        for threads in [1, 2, 3, 8] {
            let ((ta, id_a), tb) =
                par_join(threads, |t| (t, std::thread::current().id()), |t| t);
            if threads == 1 {
                assert_eq!((ta, tb), (1, 1));
                assert_eq!(id_a, caller, "threads = 1 spawns nothing");
            } else {
                assert_eq!(ta + tb, threads, "threads = {threads}");
                assert!(ta >= 1 && tb >= ta, "threads = {threads}: {ta} + {tb}");
                assert_ne!(id_a, caller, "threads = {threads} overlaps the jobs");
            }
        }
    }

    #[test]
    fn par_join_propagates_panics_from_the_spawned_job() {
        let result = std::panic::catch_unwind(|| {
            par_join(2, |_| -> u32 { panic!("panel a exploded") }, |t| t)
        });
        let payload = result.expect_err("panic must propagate");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"panel a exploded"));
    }

    #[test]
    fn derive_seed_differs_across_streams_and_bases() {
        let a = derive_seed(1, 0);
        let b = derive_seed(1, 1);
        let c = derive_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // And is stable (a pure function, same on every machine).
        assert_eq!(derive_seed(0xda7e, 5), derive_seed(0xda7e, 5));
    }
}
