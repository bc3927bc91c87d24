//! `cr-spectre` — command-line front end for the reproduction.
//!
//! ```text
//! cr-spectre attack   [--host H] [--variant v1|rsb] [--perturb none|paper|evasive]
//!                     [--canary] [--no-clflush] [--evict-reload] [--aslr SEED]
//!                     [--shadow-stack] [--invisispec] [--csf]
//! cr-spectre spectre  [--host H] [--variant v1|rsb]      # standalone launch
//! cr-spectre gadgets  [--host H] [--max-len N] [--limit N]
//! cr-spectre disasm   [--host H] [--symbol S] [--context N]
//! cr-spectre profile  [--app NAME] [--interval N] [--csv PATH]
//! cr-spectre trace    [--host H] [--limit N]
//! cr-spectre campaign [--artifact fig4|fig5|fig6|table1|ablations|defense_overhead|all]
//!                     [--threads N] [--quick] [--quiet] [--telemetry PATH] [--no-fast-path]
//! cr-spectre list
//! ```
//!
//! Every command declares its flags; an unknown, repeated or malformed
//! flag prints `error: …` and the usage text and exits 1.

mod artifacts;

use std::process::ExitCode;

use cr_spectre::attack::{run_cr_spectre, run_standalone_spectre, AttackConfig};
use cr_spectre::cli::{exit_with_usage, Args, Kind, Spec};
use cr_spectre::covert::CovertConfig;
use cr_spectre::hpc::export::trace_to_csv_full;
use cr_spectre::hpc::profiler::profile;
use cr_spectre::perturb::PerturbParams;
use cr_spectre::rop::Scanner;
use cr_spectre::sim::config::MachineConfig;
use cr_spectre::sim::cpu::Machine;
use cr_spectre::sim::disasm::{context_around, disassemble_image};
use cr_spectre::spectre::SpectreVariant;
use cr_spectre::workloads::benign::BenignApp;
use cr_spectre::workloads::host::{standalone_image, vulnerable_host, HostOptions, SECRET};
use cr_spectre::workloads::mibench::Mibench;

/// `attack` and `spectre` flags.
const ATTACK: &Spec = &[
    ("host", Kind::Text),
    ("variant", Kind::Text),
    ("perturb", Kind::Text),
    ("aslr", Kind::Number),
    ("canary", Kind::Switch),
    ("no-clflush", Kind::Switch),
    ("evict-reload", Kind::Switch),
    ("shadow-stack", Kind::Switch),
    ("invisispec", Kind::Switch),
    ("csf", Kind::Switch),
    ("no-fast-path", Kind::Switch),
];
const GADGETS: &Spec = &[("host", Kind::Text), ("max-len", Kind::Count), ("limit", Kind::Number)];
const DISASM: &Spec = &[("host", Kind::Text), ("symbol", Kind::Text), ("context", Kind::Number)];
const PROFILE: &Spec = &[("app", Kind::Text), ("interval", Kind::Count), ("csv", Kind::Text)];
const TRACE: &Spec = &[("host", Kind::Text), ("limit", Kind::Number)];
const CAMPAIGN: &Spec = &[
    ("artifact", Kind::Text),
    ("threads", Kind::Count),
    ("quick", Kind::Switch),
    ("quiet", Kind::Switch),
    ("telemetry", Kind::Text),
    ("no-fast-path", Kind::Switch),
];

fn host_by_name(name: &str) -> Result<Mibench, String> {
    Mibench::ALL
        .into_iter()
        .find(|w| w.name() == name)
        .ok_or_else(|| format!("unknown host {name:?}; see `cr-spectre list`"))
}

fn variant_by_name(name: &str) -> Result<SpectreVariant, String> {
    match name {
        "v1" => Ok(SpectreVariant::V1),
        "rsb" => Ok(SpectreVariant::Rsb),
        other => Err(format!("unknown variant {other:?} (v1 | rsb)")),
    }
}

fn machine_from(args: &Args) -> MachineConfig {
    let mut machine = MachineConfig::default();
    if args.switch("no-fast-path") {
        machine.fast_path = false;
    }
    if args.switch("no-clflush") {
        machine.protect.clflush_enabled = false;
    }
    if args.switch("shadow-stack") {
        machine.protect.shadow_stack = true;
    }
    if args.switch("invisispec") {
        machine.protect.invisispec = true;
    }
    if args.switch("csf") {
        machine.protect.csf = true;
    }
    machine.protect.aslr_seed = args.number("aslr");
    machine
}

fn attack_config(args: &Args) -> Result<AttackConfig, String> {
    let host = host_by_name(args.text("host").unwrap_or("bitcount_50m"))?;
    let mut config = AttackConfig::new(host);
    config.machine = machine_from(args);
    if let Some(v) = args.text("variant") {
        config.variant = variant_by_name(v)?;
    }
    match args.text("perturb").unwrap_or("none") {
        "none" => {}
        "paper" => config.perturb = Some(PerturbParams::paper_default()),
        "evasive" => config.perturb = Some(PerturbParams::evasive_default()),
        other => return Err(format!("unknown perturbation {other:?} (none | paper | evasive)")),
    }
    if args.switch("canary") {
        config.host_options = HostOptions { canary: true, ..HostOptions::default() };
    }
    if args.switch("evict-reload") {
        config.covert = CovertConfig::evict_reload();
    }
    Ok(config)
}

fn report(outcome: &cr_spectre::attack::AttackOutcome) {
    println!("exit          : {:?}", outcome.trace.outcome.exit);
    println!("instructions  : {}", outcome.trace.outcome.instructions);
    println!("cycles        : {}", outcome.trace.outcome.cycles);
    println!("windows       : {}", outcome.trace.len());
    if !outcome.injection_spans.is_empty() {
        println!("injections    : {:?}", outcome.injection_spans);
    }
    println!("recovered     : {:?}", String::from_utf8_lossy(&outcome.recovered));
    println!("leak accuracy : {:.1}%", outcome.leak_accuracy() * 100.0);
}

fn cmd_attack(args: &Args) -> Result<(), String> {
    let config = attack_config(args)?;
    println!(
        "CR-Spectre against host `{}` ({}, perturbation {:?})\n",
        config.host,
        config.variant,
        config.perturb.is_some()
    );
    let outcome = run_cr_spectre(&config).map_err(|e| e.to_string())?;
    report(&outcome);
    Ok(())
}

fn cmd_spectre(args: &Args) -> Result<(), String> {
    let config = attack_config(args)?;
    println!("standalone {} against victim `{}`\n", config.variant, config.host);
    let outcome = run_standalone_spectre(&config);
    report(&outcome);
    Ok(())
}

fn cmd_gadgets(args: &Args) -> Result<(), String> {
    let host = host_by_name(args.text("host").unwrap_or("bitcount_50m"))?;
    let max_len = args.number("max-len").unwrap_or(4) as usize;
    let limit = args.number("limit").unwrap_or(40) as usize;
    let built = vulnerable_host(host, HostOptions::default());
    let mut machine = Machine::new(MachineConfig::default());
    let loaded = machine.load(&built.image).map_err(|e| e.to_string())?;
    let set = Scanner::new(max_len).scan_image(&machine, &loaded);
    println!("{} gadgets in host `{}` (showing {}):\n", set.len(), host, limit.min(set.len()));
    for gadget in set.iter().take(limit) {
        println!("  {gadget}");
    }
    Ok(())
}

fn cmd_disasm(args: &Args) -> Result<(), String> {
    let host = host_by_name(args.text("host").unwrap_or("bitcount_50m"))?;
    let built = vulnerable_host(host, HostOptions::default());
    let mut machine = Machine::new(MachineConfig::default());
    let loaded = machine.load(&built.image).map_err(|e| e.to_string())?;
    match args.text("symbol") {
        Some(symbol) => {
            let addr = loaded
                .try_addr(symbol)
                .ok_or_else(|| format!("no symbol {symbol:?} in {}", built.image.name))?;
            let context = args.number("context").unwrap_or(6) as usize;
            print!("{}", context_around(&machine, &loaded, addr, context));
        }
        None => {
            for line in disassemble_image(&machine, &loaded) {
                println!("{line}");
            }
        }
    }
    Ok(())
}

fn cmd_profile(args: &Args) -> Result<(), String> {
    let name = args.text("app").unwrap_or("crc32");
    let interval = args.number("interval").unwrap_or(2000);
    let image = if let Ok(host) = host_by_name(name) {
        standalone_image(host)
    } else if let Some(app) = BenignApp::ALL.into_iter().find(|a| a.name() == name) {
        app.image()
    } else {
        return Err(format!("unknown app {name:?}; see `cr-spectre list`"));
    };
    let mut machine = Machine::new(MachineConfig::default());
    let loaded = machine.load(&image).map_err(|e| e.to_string())?;
    machine.start(loaded.entry);
    let trace = profile(&mut machine, name, interval);
    println!(
        "{name}: {} windows, {} instructions, {} cycles, IPC {:.4}",
        trace.len(),
        trace.outcome.instructions,
        trace.outcome.cycles,
        trace.outcome.ipc()
    );
    if let Some(path) = args.text("csv") {
        let file = std::fs::File::create(path).map_err(|e| e.to_string())?;
        trace_to_csv_full(&trace, file).map_err(|e| e.to_string())?;
        println!("wrote all 56 counters to {path}");
    }
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    let host = host_by_name(args.text("host").unwrap_or("crc32"))?;
    let limit = args.number("limit").unwrap_or(40) as usize;
    let image = standalone_image(host);
    let mut machine = Machine::new(MachineConfig::default());
    let loaded = machine.load(&image).map_err(|e| e.to_string())?;
    machine.start(loaded.entry);
    for (pc, instr) in machine.run_traced(limit) {
        println!("{pc:#010x}: {instr}");
    }
    println!("... ({} instructions retired so far)", machine.instructions());
    Ok(())
}

fn cmd_campaign(args: &Args) -> Result<(), String> {
    let selected = match args.text("artifact").unwrap_or("all") {
        "all" => &artifacts::ARTIFACTS[..4],
        name => {
            let Some(i) = artifacts::ARTIFACTS.iter().position(|&a| a == name) else {
                return Err(format!(
                    "unknown artifact {name:?} ({} | all)",
                    artifacts::ARTIFACTS.join(" | ")
                ));
            };
            &artifacts::ARTIFACTS[i..=i]
        }
    };
    args.install_telemetry()?;
    for (i, name) in selected.iter().enumerate() {
        if i > 0 {
            println!();
        }
        artifacts::run(name, args);
    }
    let _ = cr_spectre::telemetry::shutdown();
    Ok(())
}

fn cmd_list(_: &Args) -> Result<(), String> {
    println!("MiBench-like hosts:");
    for w in Mibench::ALL {
        println!("  {:<14} {}", w.name(), w.display_name());
    }
    println!("\nbenign applications:");
    for a in BenignApp::ALL {
        println!("  {}", a.name());
    }
    println!("\nsecret carried by every host: {:?}", String::from_utf8_lossy(SECRET));
    println!("\npaper artifacts (tables as in results/):");
    println!("  cr-spectre campaign --artifact {}", artifacts::ARTIFACTS.join("|"));
    Ok(())
}

const USAGE: &str = "\
usage: cr-spectre <command> [options]

commands:
  attack    run the full ROP-injected CR-Spectre chain
  spectre   run the attack binary standalone (no injection)
  gadgets   scan a host's executable pages for ROP gadgets
  disasm    disassemble a host image (--symbol S for a window)
  profile   profile a workload and optionally export CSV (--csv PATH)
  trace     print the first --limit executed instructions of a host
  campaign  print the paper's tables (Figures 4-6, Table I) and extensions
  list      list hosts, benign applications and artifacts

attack / spectre options:
  --host H          target host (default bitcount_50m)
  --variant v1|rsb  speculation variant
  --perturb none|paper|evasive
  --canary          compile the host with a stack canary
  --aslr SEED       enable ASLR
  --no-clflush / --evict-reload / --shadow-stack / --invisispec / --csf
  --no-fast-path    disable the execution fast path (predecode + page
                    caches); results are bit-identical, only slower

gadgets: --host H, --max-len N (N >= 1, default 4), --limit N (default 40)
disasm:  --host H, --symbol S, --context N (default 6)
profile: --app NAME (default crc32), --interval N (N >= 1, default 2000),
         --csv PATH
trace:   --host H (default crc32), --limit N (default 40)

campaign options:
  --artifact A      fig4 | fig5 | fig6 | table1 | ablations |
                    defense_overhead | all (default all: the four paper
                    artifacts)
  --threads N       worker threads, N >= 1 (default: all cores; results
                    are bit-identical at every thread count)
  --quick           smoke-scale configuration (ablations and
                    defense_overhead run at one fixed scale)
  --telemetry PATH  record a structured JSONL trace of the run (spans,
                    counters, histograms; off by default, and results
                    are bit-identical with it on)
  --quiet           only result rows; suppresses the paper's claims, the
                    commentary and the telemetry summary report
  --no-fast-path    as above
";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = raw.split_first() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    type Command = fn(&Args) -> Result<(), String>;
    let (spec, run): (&Spec, Command) = match command.as_str() {
        "attack" => (ATTACK, cmd_attack),
        "spectre" => (ATTACK, cmd_spectre),
        "gadgets" => (GADGETS, cmd_gadgets),
        "disasm" => (DISASM, cmd_disasm),
        "profile" => (PROFILE, cmd_profile),
        "trace" => (TRACE, cmd_trace),
        "campaign" => (CAMPAIGN, cmd_campaign),
        "list" => (&[], cmd_list),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => exit_with_usage(&format!("unknown command {other:?}"), USAGE),
    };
    let args = Args::parse(rest, spec).unwrap_or_else(|e| exit_with_usage(&e, USAGE));
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
