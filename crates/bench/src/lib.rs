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
//!   implementations, each rate as median/min/max over its repetitions
//!   with the host from [`host_json`], written to `BENCH_hid.json`.
//!
//! Both parse their flags with `cr_spectre_core::cli`, the parser the
//! `cr-spectre` binary uses. Run with
//! `cargo run --release -p cr-spectre-bench --bin sim_throughput`.

use std::process::{Command, Stdio};

/// The host a measurement ran on, as a JSON object: cores available to
/// the process (`nproc`), CPU model and `rustc --version`. A field that
/// cannot be read is `"unknown"`.
pub fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rustc = Command::new("rustc")
        .arg("--version")
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": {}, \"rustc\": {}}}",
        json_str(&cpu_model),
        json_str(&rustc)
    )
}

/// `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_str_escapes_quotes_backslashes_and_controls() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
