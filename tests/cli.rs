//! Malformed invocations of the `cr-spectre` binary: each must be
//! rejected by the argument parser before any simulation starts — exit
//! status 1, stderr starting with `error:`, and no panic.

use std::process::Command;

/// `(arguments, expected error text)`.
const MALFORMED: &[(&[&str], &str)] = &[
    // A misspelled flag is rejected, not silently ignored.
    (&["gadgets", "--limt", "3"], "unknown flag \"--limt\""),
    (&["campaign", "--thraeds", "3"], "unknown flag \"--thraeds\""),
    (&["list", "--bogus"], "unknown flag \"--bogus\""),
    // A repeated flag is rejected, not resolved to its last value.
    (&["gadgets", "--limit", "2", "--limit", "5"], "--limit given twice"),
    // A switch never swallows the next word as its value.
    (&["campaign", "--quick", "fig5", "--threads", "2"], "unexpected positional argument \"fig5\""),
    // A value flag without its value never falls back to a default run.
    (&["campaign", "--artifact"], "--artifact needs a value"),
    (&["campaign", "--telemetry", "--quick"], "--telemetry needs a value"),
    // Numbers are whole, and counts are at least 1.
    (&["campaign", "--threads", "0"], "--threads must be at least 1"),
    (&["campaign", "--threads", "two"], "--threads needs a whole number"),
    (&["gadgets", "--max-len", "0"], "--max-len must be at least 1"),
    (&["profile", "--interval", "0"], "--interval must be at least 1"),
    (&["attack", "--aslr", "-1"], "--aslr needs a whole number"),
    // Flags belong to the command that declares them.
    (&["gadgets", "--quick"], "unknown flag \"--quick\""),
    // Values are checked against what the command knows.
    (&["campaign", "--artifact", "fig7"], "unknown artifact \"fig7\""),
    (&["attack", "--host", "nope"], "unknown host \"nope\""),
    (&["frobnicate"], "unknown command \"frobnicate\""),
];

#[test]
fn malformed_invocations_exit_1_with_an_error() {
    for (args, expected) in MALFORMED {
        let output = Command::new(env!("CARGO_BIN_EXE_cr-spectre"))
            .args(*args)
            .output()
            .expect("cr-spectre runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(stderr.contains(expected), "{args:?}: expected {expected:?} in {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(output.stdout.is_empty(), "{args:?} printed results before failing");
    }
}

#[test]
fn parse_errors_print_the_usage_text() {
    let output = Command::new(env!("CARGO_BIN_EXE_cr-spectre"))
        .args(["campaign", "--artifact"])
        .output()
        .expect("cr-spectre runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("usage: cr-spectre <command> [options]"), "{stderr}");
}

#[test]
fn the_largest_context_window_shows_the_whole_image() {
    let output = Command::new(env!("CARGO_BIN_EXE_cr-spectre"))
        .args(["disasm", "--symbol", "exploited_function", "--context"])
        .arg(u64::MAX.to_string())
        .output()
        .expect("cr-spectre runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{stderr}");
    assert!(String::from_utf8_lossy(&output.stdout).contains("=> "), "{stderr}");
}
