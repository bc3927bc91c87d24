//! The artifact benchmark's command line.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <n> --trace <0|1>
//! perfbench record
//! ```
//!
//! A run sets up (the inputs plus one warm-up call, several times), then
//! calls the workload's driver in a closed loop with one caller for
//! `--seconds`, checks every output, and prints its end-to-end metrics.
//! The last line of standard output is the result object. `--trace 1`
//! follows every untraced call with a traced replay of the same inputs
//! and prints the per-layer table and metrics instead. `record` prints
//! the digest table kept in `digests.txt`.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cr_spectre_perfbench::cli::{self, Command, RunOpts, USAGE};
use cr_spectre_perfbench::host;
use cr_spectre_perfbench::replay::SIM_COUNTERS;
use cr_spectre_perfbench::report::{json_num, json_str, Aggregate};
use cr_spectre_perfbench::stats::{median, Summary};
use cr_spectre_perfbench::trace::Tracer;
use cr_spectre_perfbench::workload::{
    catch, check_call, check_leaks, panel_order, sim_digest, Inputs, Output, Workload, SEED_POOL,
};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::parse(&args) {
        Ok(Command::Run(opts)) => run(&opts, started),
        Ok(Command::Record) => record(),
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Attempted and failed operations.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn note<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("{what} {} failed: {e}", self.attempted);
                None
            }
        }
    }
}

/// One timed, untraced driver call.
struct Timed {
    wall_s: f64,
    cpu_s: f64,
    heap_mb: f64,
    digest: Option<u64>,
}

fn timed_call(inputs: &Inputs, tally: &mut Tally) -> Timed {
    host::reset_peak_heap();
    let cpu0 = host::process_cpu_s();
    let t0 = Instant::now();
    let output = catch(|| inputs.call());
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = host::process_cpu_s() - cpu0;
    let heap_mb = host::peak_heap_mb();
    let digest = tally.note("call", output.and_then(|o| check_call(inputs, &o)));
    Timed {
        wall_s,
        cpu_s,
        heap_mb,
        digest,
    }
}

/// Checks a replay: the checks of [`check_call`], the same result digest as the
/// untraced call, the recorded simulated counts, and every attack
/// leaking the secret.
fn check_replay(
    inputs: &Inputs,
    output: Result<Output, String>,
    counters: &BTreeMap<String, f64>,
    untraced: Option<u64>,
) -> Result<Output, String> {
    let output = output?;
    let digest = check_call(inputs, &output)?;
    if let Some(want) = untraced.filter(|&d| d != digest) {
        return Err(format!(
            "replay digest {digest:016x} differs from the driver's {want:016x}"
        ));
    }
    let sim = sim_digest(counters);
    let want = inputs.recorded().map(|r| r.sim);
    if want != Some(sim) {
        return Err(format!(
            "simulated-count digest {sim:016x} differs from recorded {want:016x?}"
        ));
    }
    check_leaks(counters)?;
    Ok(output)
}

fn run(opts: &RunOpts, started: Instant) -> ExitCode {
    let threads = host::bench_threads();
    let mut tally = Tally::default();

    // Set-up: generate the panel's inputs, then one warm-up call of the
    // same driver at reduced scale, so lazy initialisation, allocator
    // growth and page faults are paid before timing. The first set-up
    // also counts the process start.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut panel: Vec<Inputs> = Vec::new();
    for i in 0..SETUPS {
        let t0 = if i == 0 { started } else { Instant::now() };
        panel = panel_order(opts.seed)
            .into_iter()
            .map(|e| opts.workload.inputs(e, threads))
            .collect();
        let warm = opts.workload.warmup_inputs(threads);
        let checked = catch(|| warm.call()).and_then(|o| o.check_shape(&warm));
        tally.note("warm-up", checked);
        setups.push(t0.elapsed().as_secs_f64());
    }

    // The closed loop: one caller, the panel visited round-robin, until
    // the budget is spent and every entry ran at least once. A traced
    // run follows each untraced call with a traced replay of the same
    // inputs and stops at the first pair that ends past the budget.
    let budget = Duration::from_secs(opts.seconds);
    let loop_start = Instant::now();
    let mut per_entry: Vec<Vec<Timed>> = panel.iter().map(|_| Vec::new()).collect();
    let mut agg = Aggregate::default();
    let (mut pair_untraced_s, mut pair_traced_s) = (0.0, 0.0);
    let mut replay_walls = Vec::new();
    let mut gaps = Vec::new();
    for k in 0.. {
        let i = k % panel.len();
        let inputs = &panel[i];
        let call = timed_call(inputs, &mut tally);
        if opts.trace {
            let tracer = Tracer::new();
            let t0 = Instant::now();
            let output = catch(|| inputs.replay(&tracer));
            let wall = t0.elapsed().as_secs_f64();
            let (spans, counters) = tracer.finish();
            let checked = check_replay(inputs, output, &counters, call.digest);
            if let Some(output) = tally.note("replay", checked) {
                gaps.push(output.paper_gap_pp(opts.workload));
            }
            agg.add(&spans, &counters);
            replay_walls.push(wall);
            pair_untraced_s += call.wall_s;
            pair_traced_s += wall;
        }
        per_entry[i].push(call);
        let covered = opts.trace || k + 1 >= panel.len();
        if covered && loop_start.elapsed() >= budget {
            break;
        }
    }

    // Each entry's median, averaged over the panel: every run weighs the
    // same inputs equally, however many calls each one got.
    let ran: Vec<&Vec<Timed>> = per_entry.iter().filter(|calls| !calls.is_empty()).collect();
    let panel_mean = |value: fn(&Timed) -> f64| {
        ran.iter()
            .map(|calls| median(&calls.iter().map(value).collect::<Vec<_>>()))
            .sum::<f64>()
            / ran.len().max(1) as f64
    };
    let artifact_s = panel_mean(|c| c.wall_s);
    let cpu_s = panel_mean(|c| c.cpu_s);
    let heap_mb = panel_mean(|c| c.heap_mb);
    let all: Vec<&Timed> = per_entry.iter().flatten().collect();
    let walls: Vec<f64> = all.iter().map(|c| c.wall_s).collect();
    let cpus: Vec<f64> = all.iter().map(|c| c.cpu_s).collect();
    let mut summaries: Vec<(&str, Summary)> = vec![
        ("call_wall_s", Summary::of(&walls)),
        ("call_cpu_s", Summary::of(&cpus)),
        ("setup_s", Summary::of(&setups)),
    ];

    let metrics: Vec<(String, f64, &str)> = if opts.trace {
        summaries.push(("replay_wall_s", Summary::of(&replay_walls)));
        println!(
            "per-layer table, {} (seed {}, {threads} threads), per driver call:",
            opts.workload.name(),
            opts.seed
        );
        print!("{}", agg.table());
        let mut m = agg.metrics();
        m.push(("core.campaign.paper_gap_pp".into(), median(&gaps), "pp"));
        m.push(("trace.wall_s".into(), median(&replay_walls), "s"));
        m.push(("trace.replays".into(), agg.replays as f64, "count"));
        m.push(("trace.coverage".into(), agg.coverage(), "ratio"));
        m.push((
            "trace.overhead".into(),
            pair_traced_s / pair_untraced_s - 1.0,
            "ratio",
        ));
        if agg.coverage() < 0.95 {
            eprintln!(
                "warning: trace coverage {:.4} is below 0.95",
                agg.coverage()
            );
        }
        m
    } else {
        let attempted = tally.attempted as f64;
        vec![
            ("artifact_s".into(), artifact_s, "s"),
            ("cpu_s".into(), cpu_s, "s"),
            ("setup_s".into(), median(&setups), "s"),
            ("peak_heap_mb".into(), heap_mb, "MiB"),
            (
                "success_ratio".into(),
                (attempted - tally.failed as f64) / attempted,
                "ratio",
            ),
        ]
    };

    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    print_detail(opts, &panel, threads, &summaries, &tally);
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// Prints host metadata and each timing's median and spread as one
/// `detail:` JSON line.
fn print_detail(
    opts: &RunOpts,
    panel: &[Inputs],
    threads: usize,
    summaries: &[(&str, Summary)],
    tally: &Tally,
) {
    let stats: Vec<String> = summaries
        .iter()
        .map(|(name, s)| {
            let (tail_pct, tail) = s.tail.map_or(("null".to_string(), "null".to_string()), |(p, v)| {
                (p.to_string(), json_num(v))
            });
            format!(
                "{}: {{\"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"min\": {}, \"max\": {}, \"spread\": {}, \"tail_pct\": {tail_pct}, \"tail\": {tail}}}",
                json_str(name),
                s.n,
                json_num(s.median),
                json_num(s.q1),
                json_num(s.q3),
                json_num(s.min),
                json_num(s.max),
                json_num(s.spread),
            )
        })
        .collect();
    println!(
        "detail: {{\"workload\": {}, \"seed\": {}, \"campaign_seeds\": {:?}, \"trace\": {}, \"threads\": {threads}, \"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"git_commit\": {}, \"attempted\": {}, \"failed\": {}, \"stats\": {{{}}}}}",
        json_str(opts.workload.name()),
        opts.seed,
        panel.iter().map(|i| i.cfg.seed).collect::<Vec<_>>(),
        u8::from(opts.trace),
        host::nproc(),
        json_str(&host::cpu_model()),
        json_str(&host::rustc_version()),
        json_str(&host::git_commit()),
        tally.attempted,
        tally.failed,
        stats.join(", ")
    );
}

/// Recomputes the digest table: for every workload and seed-pool entry,
/// the driver's result digest and the replay's simulated-count digest,
/// after checking that replay and driver agree and every attack leaked.
fn record() -> ExitCode {
    let threads = host::bench_threads();
    println!("# <workload> <seed-pool entry> <result digest> <simulated-count digest>");
    println!("# regenerate with: cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- record > perfbench/digests.txt");
    for workload in Workload::ALL {
        for entry in 0..SEED_POOL {
            let inputs = workload.inputs(entry, threads);
            let output = inputs.call();
            let tracer = Tracer::new();
            let replayed = inputs.replay(&tracer);
            let (_, counters) = tracer.finish();
            let problem = output
                .check_shape(&inputs)
                .and_then(|()| replayed.check_shape(&inputs))
                .and_then(|()| {
                    (output.digest() == replayed.digest())
                        .then_some(())
                        .ok_or_else(|| "replay and driver disagree".to_string())
                })
                .and_then(|()| check_leaks(&counters));
            if let Err(e) = problem {
                eprintln!("error: {} entry {entry}: {e}", workload.name());
                return ExitCode::FAILURE;
            }
            let counts: Vec<String> = SIM_COUNTERS
                .iter()
                .map(|n| format!("{n}={}", counters.get(*n).copied().unwrap_or(0.0)))
                .collect();
            eprintln!("{} {entry}: {}", workload.name(), counts.join(" "));
            println!(
                "{} {} {:016x} {:016x}",
                workload.name(),
                entry,
                output.digest(),
                sim_digest(&counters)
            );
        }
    }
    ExitCode::SUCCESS
}
