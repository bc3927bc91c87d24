//! The paper-style printers behind `cr-spectre campaign --artifact X`:
//! one function per artifact, each printing the table its file under
//! `results/` holds. Commentary lines (the paper's claims, ablation
//! explanations) go through [`Args::note`] and are dropped by `--quiet`;
//! result rows always print.

use cr_spectre::attack::{run_cr_spectre, run_standalone_spectre, AttackConfig, AttackOutcome};
use cr_spectre::campaign::{
    benign_traces, build_training_data, fig4, fig5, fig6, profile_standalone, table1,
    CampaignConfig, DetectorSeries, EvasionResult, NoiseModel,
};
use cr_spectre::cli::Args;
use cr_spectre::hid::detector::{Hid, HidKind, HidMode};
use cr_spectre::hid::metrics::Confusion;
use cr_spectre::hpc::dataset::{Dataset, Label};
use cr_spectre::hpc::features::{rank_by_fisher, FeatureSet};
use cr_spectre::perturb::PerturbParams;
use cr_spectre::sim::config::MachineConfig;
use cr_spectre::spectre::SpectreVariant;
use cr_spectre::workloads::host::standalone_image;
use cr_spectre::workloads::mibench::Mibench;

/// Every artifact `campaign --artifact` accepts besides `all`, which
/// means the first four: the paper's own results.
pub const ARTIFACTS: [&str; 6] =
    ["fig4", "fig5", "fig6", "table1", "ablations", "defense_overhead"];

/// Runs and prints the named artifact, one of [`ARTIFACTS`], at the
/// scale `args` selects (`--quick`, `--threads`, `--no-fast-path`);
/// `--quiet` drops the commentary.
pub fn run(name: &str, args: &Args) {
    let cfg = args.campaign_config();
    match name {
        "fig4" => print_fig4(&cfg, args),
        "fig5" => print_fig56(&fig5(&cfg), "Fig 5", FIG5_CLAIM, args),
        "fig6" => print_fig56(&fig6(&cfg), "Fig 6", FIG6_CLAIM, args),
        "table1" => print_table1(&cfg, if args.switch("quick") { 1 } else { 5 }, args),
        "ablations" => print_ablations(cfg.threads, args),
        "defense_overhead" => print_defense_overhead(args),
        other => unreachable!("artifact {other:?} is not in ARTIFACTS"),
    }
}

const FIG5_CLAIM: &str = "\npaper: Spectre detected 86-96%, CR-Spectre degrades below 55%;";
const FIG6_CLAIM: &str = "\npaper: online HID holds ~86-96% on Spectre; dynamic CR-Spectre\n\
                          degrades detection to <55%, lowest observed 16%;";

/// Formats an accuracy as the paper's percentage.
fn pct(x: f64) -> String {
    format!("{:5.1}%", x * 100.0)
}

/// Prints a Figure-5/6 style panel: one row per detector, one column per
/// attempt.
fn print_panel(title: &str, series: &[DetectorSeries]) {
    println!("\n{title}");
    print!("{:<12}", "detector");
    let attempts = series.first().map_or(0, |s| s.accuracy.len());
    for a in 1..=attempts {
        print!("{a:>8}");
    }
    println!("{:>9}", "mean");
    for s in series {
        print!("{:<12}", s.kind.name());
        for &v in &s.accuracy {
            print!("{:>8}", pct(v).trim());
        }
        println!("{:>9}", pct(s.mean()).trim());
    }
}

/// **Figure 4**: HID accuracy for four benign hosts vs the original
/// Spectre attack, across feature sizes 16/8/4/2/1.
fn print_fig4(cfg: &CampaignConfig, args: &Args) {
    println!("Figure 4: HID accuracy vs feature size (MLP, 70/30 split)");
    println!("{:<16}{:>8}{:>8}{:>8}{:>8}{:>8}", "series", "16", "8", "4", "2", "1");
    let rows = fig4(cfg);
    for (i, row) in rows.iter().enumerate() {
        print!("Spectre_{} ({:<6})", i + 1, row.host.name());
        let mut by_size = row.accuracies.clone();
        by_size.sort_by_key(|&(size, _)| std::cmp::Reverse(size));
        for (_, acc) in by_size {
            print!("{:>7.1}%", acc * 100.0);
        }
        println!();
    }
    let acc4: Vec<f64> = rows
        .iter()
        .filter_map(|r| r.accuracies.iter().find(|(s, _)| *s == 4).map(|&(_, a)| a))
        .collect();
    let mean4 = acc4.iter().sum::<f64>() / acc4.len().max(1) as f64;
    args.note("\npaper: >90% average at feature size 4");
    println!("measured at feature size 4: {:.1}%", mean4 * 100.0);
}

/// **Figures 5 and 6**: offline (Fig 5) or online, retraining (Fig 6)
/// HIDs against plain Spectre (panel a) and CR-Spectre (panel b: one
/// static perturbation for Fig 5, dynamic variants for Fig 6), per
/// attack attempt.
fn print_fig56(result: &EvasionResult, figure: &str, claim: &str, args: &Args) {
    print_panel(
        &format!("{figure}(a): plain Spectre vs HID (accuracy per attempt)"),
        &result.spectre,
    );
    print_panel(
        &format!("{figure}(b): CR-Spectre vs HID (accuracy per attempt)"),
        &result.cr_spectre,
    );
    args.note(claim);
    let (spectre, cr) = result.headline();
    println!(
        "measured: plain Spectre mean {:.1}%, CR-Spectre minimum {:.1}%",
        spectre * 100.0,
        cr * 100.0
    );
}

/// **Table I**: host IPC overhead under CR-Spectre with offline-type and
/// online-type HIDs, per MiBench benchmark, each IPC averaged over
/// `iterations` runs.
fn print_table1(cfg: &CampaignConfig, iterations: usize, args: &Args) {
    println!("Table I: performance overhead (IPC) in evaluated benchmarks");
    println!(
        "{:<16}{:>12}{:>22}{:>22}",
        "Benchmark", "Original", "CR-Spectre offline", "CR-Spectre online"
    );
    let rows = table1(cfg, iterations);
    let mut off_sum = 0.0;
    let mut on_sum = 0.0;
    for row in &rows {
        println!(
            "{:<16}{:>12.4}{:>14.4} ({:+5.2}%){:>13.4} ({:+5.2}%)",
            row.host.display_name(),
            row.ipc_original,
            row.ipc_offline,
            row.overhead_offline() * 100.0,
            row.ipc_online,
            row.overhead_online() * 100.0,
        );
        off_sum += row.overhead_offline();
        on_sum += row.overhead_online();
    }
    let n = rows.len().max(1) as f64;
    args.note("\npaper: average overhead 0.6% (offline) / 1.1% (online)");
    println!(
        "measured: {:+.2}% (offline) / {:+.2}% (online)",
        off_sum / n * 100.0,
        on_sum / n * 100.0
    );
}

fn leak_with(f: impl FnOnce(&mut AttackConfig)) -> f64 {
    let mut config = AttackConfig::new(Mibench::Bitcount50M);
    config.secret_len = 16;
    f(&mut config);
    run_standalone_spectre(&config).leak_accuracy()
}

/// The ablation sweeps over the design choices DESIGN.md calls out:
///
/// 1. **speculation window depth** vs leak accuracy — how deep must
///    transient execution run for Spectre v1 to work at all;
/// 2. **mispredict-resolve latency** (via DRAM latency) vs leak accuracy —
///    the transient budget comes from the flushed bound's miss;
/// 3. **covert-channel stride** vs leak accuracy — strides below the cache
///    line alias probe slots;
/// 4. **reload threshold** vs leak accuracy — the hit/miss decision margin;
/// 5. **perturbation dispersal delay** vs HID detection rate — the knob
///    that turns Algorithm 2 from loud to evasive;
/// 6. **feature-set size** vs detection of the *perturbed* attack.
///
/// They run at one fixed scale; `--quick` does not shrink them.
fn print_ablations(threads: usize, args: &Args) {
    println!("== Ablation 1: speculation window depth vs leak accuracy ==");
    args.note("(the transient path needs ~7 instructions; shallow windows kill v1)");
    for window in [2u64, 4, 6, 8, 16, 32, 64] {
        let acc = leak_with(|c| c.machine.spec_window = window);
        println!("  spec_window {window:>3}: leak {:>5.1}%", acc * 100.0);
    }

    println!("\n== Ablation 2: DRAM latency vs leak accuracy ==");
    args.note("(the flushed bound's miss latency IS the transient budget)");
    for mem_latency in [20u64, 60, 120, 200, 400] {
        let acc = leak_with(|c| c.machine.caches.mem_latency = mem_latency);
        println!("  mem_latency {mem_latency:>4}: leak {:>5.1}%", acc * 100.0);
    }

    println!("\n== Ablation 3: covert-channel stride vs leak accuracy ==");
    args.note("(strides below the 64-byte line alias neighbouring byte values)");
    for stride in [16i32, 32, 64, 128, 512] {
        let acc = leak_with(|c| c.covert.stride = stride);
        println!("  stride {stride:>4}: leak {:>5.1}%", acc * 100.0);
    }

    println!("\n== Ablation 3b: same stride sweep with a next-line prefetcher ==");
    args.note("(prefetch fills corrupt adjacent probe slots — the historical reason");
    args.note(" the classic PoC uses a 512-byte stride)");
    for stride in [64i32, 128, 256, 512] {
        let acc = leak_with(|c| {
            c.covert.stride = stride;
            c.machine.caches.next_line_prefetch = true;
        });
        println!("  stride {stride:>4}: leak {:>5.1}%", acc * 100.0);
    }

    println!("\n== Ablation 4: reload threshold vs leak accuracy ==");
    args.note("(L1 hit ≈ 10 cycles, memory ≈ 230; thresholds outside break decode)");
    for threshold in [5i32, 20, 100, 200, 2000] {
        let acc = leak_with(|c| c.covert.threshold = threshold);
        println!("  threshold {threshold:>5}: leak {:>5.1}%", acc * 100.0);
    }

    // Train one MLP HID for the detection-side ablations.
    let cfg = CampaignConfig { samples_per_class: 250, threads, ..CampaignConfig::default() };
    let features = FeatureSet::paper_default();
    let mut training = build_training_data(&cfg, &Mibench::FIG4_HOSTS, &features);
    let noise = NoiseModel::fit(&training.x, cfg.noise_strength);
    noise.apply(&mut training.x, cfg.seed, 7);
    let hid = Hid::train(HidKind::Mlp, HidMode::Offline, training);

    println!("\n== Ablation 5: perturbation dispersal delay vs detection rate ==");
    args.note("(Algorithm 2 with growing delay loops — §II-E's dispersal mechanism)");
    for delay in [0i32, 200, 800, 2_500, 6_000] {
        let mut config = AttackConfig::new(Mibench::Bitcount50M)
            .with_variant(SpectreVariant::V1)
            .with_perturb(PerturbParams {
                delay,
                loop_count: 24,
                ..PerturbParams::paper_default()
            });
        config.secret_len = 16;
        let outcome = run_standalone_spectre(&config);
        let mut rows = outcome.attack_rows(&features);
        noise.apply(&mut rows, cfg.seed, 11 + delay as u64);
        println!(
            "  delay {delay:>5}: detection {:>5.1}%  (leak {:>5.1}%)",
            hid.detection_rate(&rows) * 100.0,
            outcome.leak_accuracy() * 100.0
        );
    }

    println!("\n== Ablation 6: extra classifier families (beyond the paper's four) ==");
    args.note("(decision tree and k-NN on plain vs evasively perturbed Spectre)");
    {
        let plain = run_standalone_spectre(&AttackConfig::new(Mibench::Bitcount50M));
        let mut config = AttackConfig::new(Mibench::Bitcount50M)
            .with_perturb(PerturbParams::evasive_default());
        config.secret_len = 16;
        let perturbed = run_standalone_spectre(&config);
        let mut train = build_training_data(&cfg, &Mibench::FIG4_HOSTS, &features);
        let noise2 = NoiseModel::fit(&train.x, cfg.noise_strength);
        noise2.apply(&mut train.x, cfg.seed, 19);
        for kind in [HidKind::Tree, HidKind::Knn] {
            let hid = Hid::train(kind, HidMode::Offline, train.clone());
            let rate = |outcome: &AttackOutcome, tag: u64| {
                let mut rows = outcome.attack_rows(&features);
                noise2.apply(&mut rows, cfg.seed, tag);
                hid.detection_rate(&rows)
            };
            println!(
                "  {:<4} plain Spectre {:>5.1}%   perturbed CR-Spectre {:>5.1}%",
                kind.name(),
                rate(&plain, 23) * 100.0,
                rate(&perturbed, 29) * 100.0
            );
        }
    }

    println!("\n== Ablation 7: feature-set size vs detection of the perturbed attack ==");
    let mut config = AttackConfig::new(Mibench::Bitcount50M)
        .with_perturb(PerturbParams::evasive_default());
    config.secret_len = 16;
    let outcome = run_standalone_spectre(&config);
    for size in [1usize, 2, 4, 8, 16] {
        let fs = FeatureSet::paper(size);
        let mut training = build_training_data(&cfg, &Mibench::FIG4_HOSTS, &fs);
        let noise = NoiseModel::fit(&training.x, cfg.noise_strength);
        noise.apply(&mut training.x, cfg.seed, 13);
        let hid = Hid::train(HidKind::Mlp, HidMode::Offline, training);
        let mut rows = outcome.attack_rows(&fs);
        noise.apply(&mut rows, cfg.seed, 17 + size as u64);
        println!(
            "  features {size:>2}: detection of perturbed CR-Spectre {:>5.1}%",
            hid.detection_rate(&rows) * 100.0
        );
    }

    println!("\n== Ablation 8: offline Fisher ranking of all 56 events ==");
    args.note("(does the paper-ranked real-time prefix agree with a data-driven rank?)");
    {
        let all = FeatureSet::all();
        let training = build_training_data(&cfg, &Mibench::FIG4_HOSTS, &all);
        let ranked = rank_by_fisher(all.events(), &training.x, &training.y);
        for (i, (event, score)) in ranked.iter().take(10).enumerate() {
            println!("  #{:<2} {:<22} fisher {score:.3}", i + 1, event.to_string());
        }
    }

    println!("\n== Ablation 9: the online HID's hidden false-alarm cost ==");
    args.note("(after chasing perturbation variants, how noisy is the detector?)");
    {
        let mut training = build_training_data(&cfg, &Mibench::FIG4_HOSTS, &features);
        let noise9 = NoiseModel::fit(&training.x, cfg.noise_strength);
        noise9.apply(&mut training.x, cfg.seed, 31);
        let mut hid = Hid::train(HidKind::Mlp, HidMode::Online, training);
        // Fresh benign evaluation set (held out).
        let mut benign_eval = Dataset::new();
        for trace in benign_traces(&cfg, &[Mibench::Crc32, Mibench::Fft]) {
            benign_eval.push_trace(&trace, Label::Benign, &features);
        }
        noise9.apply(&mut benign_eval.x, cfg.seed, 37);
        let before = Confusion::measure(&hid, &benign_eval.x, &benign_eval.y);
        // Chase three evasive variants, self-labelling as a real deployment
        // would.
        for attempt in 0..3u64 {
            let mut config = AttackConfig::new(Mibench::Sha1)
                .with_perturb(PerturbParams::evasive_default());
            config.secret_len = 16;
            let outcome = run_cr_spectre(&config).expect("launches");
            let mut rows = outcome.attack_rows(&features);
            noise9.apply(&mut rows, cfg.seed, 41 + attempt);
            hid.ingest_self_labeled(&rows);
            hid.retrain();
        }
        let after = Confusion::measure(&hid, &benign_eval.x, &benign_eval.y);
        println!(
            "  benign false-positive rate: {:.1}% before, {:.1}% after the chase",
            before.false_positive_rate() * 100.0,
            after.false_positive_rate() * 100.0
        );
    }
}

fn ipc(machine: &MachineConfig, host: Mibench) -> f64 {
    profile_standalone(machine, &standalone_image(host), 2_000).outcome.ipc()
}

fn leak(machine: &MachineConfig) -> f64 {
    let mut cfg = AttackConfig::new(Mibench::Bitcount50M);
    cfg.machine = machine.clone();
    cfg.secret_len = 16;
    run_standalone_spectre(&cfg).leak_accuracy()
}

/// Extension experiment: the trade-off the paper's introduction argues —
/// hardware/microcode Spectre defenses (InvisiSpec, Context-Sensitive
/// Fencing, §I) stop the attack but "induce overheads and require
/// architecture level modifications", whereas the HID is low-overhead
/// but, as CR-Spectre shows, evadable. For each MiBench workload this
/// prints the IPC under no defense, InvisiSpec and CSF, plus whether the
/// Spectre leak survives.
fn print_defense_overhead(args: &Args) {
    let baseline = MachineConfig::default();
    let invisispec = MachineConfig::invisispec();
    let csf = MachineConfig::csf();

    println!("Defense overhead vs protection (extension of the paper's §I argument)");
    println!(
        "\n{:<16}{:>12}{:>22}{:>22}",
        "Benchmark", "no defense", "InvisiSpec", "CSF"
    );
    let mut inv_sum = 0.0;
    let mut csf_sum = 0.0;
    let hosts = Mibench::TABLE1_ROWS;
    for &host in &hosts {
        let base = ipc(&baseline, host);
        let inv = ipc(&invisispec, host);
        let fenced = ipc(&csf, host);
        inv_sum += 1.0 - inv / base;
        csf_sum += 1.0 - fenced / base;
        println!(
            "{:<16}{:>12.4}{:>14.4} ({:+5.1}%){:>13.4} ({:+5.1}%)",
            host.display_name(),
            base,
            inv,
            (1.0 - inv / base) * 100.0,
            fenced,
            (1.0 - fenced / base) * 100.0,
        );
    }
    let n = hosts.len() as f64;
    println!(
        "\naverage slowdown: InvisiSpec {:+.1}%, CSF {:+.1}%",
        inv_sum / n * 100.0,
        csf_sum / n * 100.0
    );

    println!("\nSpectre v1 leak accuracy under each defense:");
    println!("  no defense : {:>5.1}%", leak(&baseline) * 100.0);
    println!("  InvisiSpec : {:>5.1}%", leak(&invisispec) * 100.0);
    println!("  CSF        : {:>5.1}%", leak(&csf) * 100.0);
    args.note("\nThe HID's appeal (and CR-Spectre's opening): zero slowdown on the");
    args.note("host, at the price of a detector an adaptive attacker can evade.");
}
