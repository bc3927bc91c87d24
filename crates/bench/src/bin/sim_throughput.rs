//! Perf-regression harness for the simulator's execution fast path.
//!
//! Two measurements, each taken with the fast path on and with the
//! `MachineConfig::fast_path = false` escape hatch:
//!
//! 1. a **fixed instruction mix** — a branchy ALU/load/store/call loop
//!    over a 64 KiB buffer, the interpreter's steady-state diet;
//! 2. the **fig5 smoke campaign** — the full CR-Spectre chain (ROP
//!    injection, speculation, HID sampling) at smoke scale, with
//!    guest-MIPS derived from the telemetry layer's `sim.*` counters.
//!
//! Both report guest MIPS (millions of retired guest instructions per
//! wall-clock second) and the fast/slow speedup, and the run doubles as
//! an equivalence check: the mix must retire the identical instruction
//! and cycle counts either way.
//!
//! Flags: `--quick` (fewer, shorter reps), `--threads N` (fig5 workers),
//! `--quiet` (result lines only) and `--out PATH` (default
//! `BENCH_sim.json`).
//!
//! Run with `cargo run --release -p cr-spectre-bench --bin sim_throughput`.

use std::time::Instant;

use cr_spectre_core::campaign::{fig5, CampaignConfig};
use cr_spectre_core::cli::{self, Args, Kind, Spec};
use cr_spectre_sim::config::MachineConfig;
use cr_spectre_sim::cpu::Machine;
use cr_spectre_sim::image::{Image, ImageSegment, SegKind};
use cr_spectre_sim::isa::{AluOp, BranchCond, Instr, Reg, Width, INSTR_BYTES};
use cr_spectre_sim::mem::Perms;
use cr_spectre_sim::RunOutcome;
use cr_spectre_telemetry as telemetry;
use cr_spectre_telemetry::sink::MemorySink;

/// One measured configuration: guest MIPS plus its raw ingredients.
struct Throughput {
    instructions: u64,
    wall_s: f64,
}

impl Throughput {
    fn mips(&self) -> f64 {
        self.instructions as f64 / self.wall_s / 1e6
    }
}

/// The fixed instruction mix: `iters` round trips through a 14-instruction
/// loop body — 6 ALU ops, 2 loads, 1 store, a call/ret pair, and the
/// back edge — striding through a 64 KiB read-write buffer whose base the
/// host passes in `R1`.
fn mix_image(iters: u32) -> Image {
    let b = INSTR_BYTES as i32; // branch immediates are byte offsets
    let instrs = [
        /* i0  */ Instr::Ldi(Reg::R2, iters as i32),
        /* i1  */ Instr::Ldi(Reg::R3, 0), // i = 0
        // loop:
        /* i2  */ Instr::Alui(AluOp::Add, Reg::R4, Reg::R3, 13),
        /* i3  */ Instr::Alui(AluOp::Xor, Reg::R5, Reg::R4, 0x55),
        /* i4  */ Instr::Alu(AluOp::Add, Reg::R6, Reg::R4, Reg::R5),
        /* i5  */ Instr::Alui(AluOp::And, Reg::R7, Reg::R6, 0xfff8),
        /* i6  */ Instr::Alu(AluOp::Add, Reg::R8, Reg::R1, Reg::R7),
        /* i7  */ Instr::Ld(Width::D, Reg::R9, Reg::R8, 0),
        /* i8  */ Instr::Alu(AluOp::Add, Reg::R9, Reg::R9, Reg::R6),
        /* i9  */ Instr::St(Width::D, Reg::R8, Reg::R9, 0),
        /* i10 */ Instr::Ld(Width::W, Reg::R10, Reg::R1, 64),
        /* i11 */ Instr::Call(4 * b), // leaf at i15
        /* i12 */ Instr::Alui(AluOp::Add, Reg::R3, Reg::R3, 1),
        /* i13 */ Instr::Br(BranchCond::Ne, Reg::R3, Reg::R2, -(11 * b)), // back to i2
        /* i14 */ Instr::Halt,
        // leaf:
        /* i15 */ Instr::Alui(AluOp::Add, Reg::R11, Reg::R11, 1),
        /* i16 */ Instr::Ret,
    ];
    let bytes: Vec<u8> = instrs.iter().flat_map(|i| i.encode()).collect();
    Image::new(
        "mix",
        vec![ImageSegment { name: ".text".into(), kind: SegKind::Text, offset: 0, bytes }],
        0,
    )
}

/// Runs the mix once on a fresh machine and returns the outcome plus the
/// wall-clock seconds the guest took.
fn run_mix_once(fast_path: bool, iters: u32) -> (RunOutcome, f64) {
    let cfg = MachineConfig { fast_path, ..MachineConfig::default() };
    let mut m = Machine::new(cfg);
    let li = m.load(&mix_image(iters)).expect("mix image loads");
    let buf = m.alloc(64 * 1024, Perms::RW);
    m.start(li.entry);
    m.set_reg(Reg::R1, buf);
    let t0 = Instant::now();
    let out = m.run();
    let wall = t0.elapsed().as_secs_f64();
    assert!(out.exit.is_clean(), "mix must halt cleanly, got {:?}", out.exit);
    (out, wall)
}

/// Best-of-`reps` throughput of the mix (one unmeasured warmup first).
fn measure_mix(args: &Args, fast_path: bool, iters: u32, reps: u32) -> Throughput {
    let _ = run_mix_once(fast_path, iters); // warmup
    let mut best: Option<Throughput> = None;
    let mut reference: Option<RunOutcome> = None;
    for _ in 0..reps {
        let (out, wall) = run_mix_once(fast_path, iters);
        // Every rep is deterministic; a drift here is a simulator bug.
        assert_eq!(
            *reference.get_or_insert(out.clone()),
            out,
            "mix reps must be deterministic"
        );
        let t = Throughput { instructions: out.instructions, wall_s: wall };
        if best.as_ref().is_none_or(|b| t.mips() > b.mips()) {
            best = Some(t);
        }
    }
    let best = best.expect("at least one rep");
    args.note(&format!(
        "  mix fast_path={fast_path:<5} {:>8.2} MIPS  ({} instrs, best of {reps} reps)",
        best.mips(),
        best.instructions
    ));
    best
}

/// Runs the fig5 smoke campaign with the given fast-path setting under a
/// fresh telemetry recorder; MIPS comes from the recorded `sim.*`
/// counters, exercising the bench's telemetry-reporting path end to end.
fn measure_fig5(args: &Args, fast_path: bool) -> (Throughput, String) {
    let mut cfg = CampaignConfig::smoke();
    cfg.machine.fast_path = fast_path;
    if let Some(threads) = args.number("threads") {
        cfg.threads = threads as usize;
    }
    let sink = MemorySink::shared();
    let installed = telemetry::install(vec![Box::new(sink)]);
    assert!(installed, "telemetry recorder already installed");
    let t0 = Instant::now();
    let result = fig5(&cfg);
    let wall = t0.elapsed().as_secs_f64();
    let summary = telemetry::shutdown().expect("recorder was installed");
    let instructions =
        summary.counters.get("sim.instructions").copied().expect("campaign emits sim counters");
    let t = Throughput { instructions, wall_s: wall };
    args.note(&format!(
        "  fig5 fast_path={fast_path:<5} {:>8.2} MIPS  ({instructions} guest instrs in {wall:.2}s)",
        t.mips()
    ));
    (t, format!("{result:?}"))
}

fn json_entry(t: &Throughput) -> String {
    format!(
        "{{\"mips\": {:.3}, \"instructions\": {}, \"wall_s\": {:.6}}}",
        t.mips(),
        t.instructions,
        t.wall_s
    )
}

const SPEC: &Spec = &[
    ("quick", Kind::Switch),
    ("quiet", Kind::Switch),
    ("threads", Kind::Count),
    ("out", Kind::Text),
];

const USAGE: &str =
    "usage: sim_throughput [--quick] [--quiet] [--threads N] [--out PATH]\n";

fn main() {
    let args = cli::parse_env_or_exit(SPEC, USAGE);
    let quick = args.switch("quick");
    let out_path = args.text("out").unwrap_or("BENCH_sim.json");

    // Rep length is chosen so one rep runs for hundreds of milliseconds:
    // short bursts measure the CPU's frequency ramp and cold caches, not
    // the interpreter's steady-state throughput.
    let (iters, reps) = if quick { (800_000, 2) } else { (2_000_000, 3) };

    args.note("fixed instruction mix (ALU/load/store/call loop):");
    let mix_fast = measure_mix(&args, true, iters, reps);
    let mix_slow = measure_mix(&args, false, iters, reps);
    assert_eq!(
        mix_fast.instructions, mix_slow.instructions,
        "fast path must not change the architectural instruction count"
    );
    let mix_speedup = mix_fast.mips() / mix_slow.mips();

    args.note("fig5 smoke campaign (full CR-Spectre chain):");
    let (fig5_fast, fast_result) = measure_fig5(&args, true);
    let (fig5_slow, slow_result) = measure_fig5(&args, false);
    assert_eq!(fast_result, slow_result, "fig5 must be bit-identical fast vs slow");
    let fig5_speedup = fig5_fast.mips() / fig5_slow.mips();

    let json = format!(
        "{{\n  \"bench\": \"sim_throughput\",\n  \"quick\": {},\n  \"mix\": {{\n    \
         \"fast_path\": {},\n    \"baseline\": {},\n    \"speedup\": {:.3}\n  }},\n  \
         \"fig5_smoke\": {{\n    \"fast_path\": {},\n    \"baseline\": {},\n    \
         \"speedup\": {:.3}\n  }}\n}}\n",
        quick,
        json_entry(&mix_fast),
        json_entry(&mix_slow),
        mix_speedup,
        json_entry(&fig5_fast),
        json_entry(&fig5_slow),
        fig5_speedup,
    );
    std::fs::write(out_path, &json)
        .unwrap_or_else(|e| panic!("cannot write {out_path:?}: {e}"));

    println!(
        "mix:  {:.2} -> {:.2} MIPS ({mix_speedup:.2}x)   fig5: {:.2} -> {:.2} MIPS ({fig5_speedup:.2}x)",
        mix_slow.mips(),
        mix_fast.mips(),
        fig5_slow.mips(),
        fig5_fast.mips(),
    );
    println!("wrote {out_path}");
}
