//! Strict command-line parsing shared by the `cr-spectre` binary and the
//! perf harnesses: every flag is declared by its command, given at most
//! once and checked where it enters; anything else is an error, never
//! ignored.
//!
//! ```
//! use cr_spectre_core::cli::{Args, Kind};
//!
//! let spec = [("quick", Kind::Switch), ("threads", Kind::Count)];
//! let raw: Vec<String> = ["--threads", "2"].iter().map(|s| s.to_string()).collect();
//! let args = Args::parse(&raw, &spec)?;
//! assert_eq!(args.campaign_config().threads, 2);
//! assert!(Args::parse(&["--thraeds".to_string()], &spec).is_err());
//! # Ok::<(), String>(())
//! ```

use std::collections::{BTreeMap, BTreeSet};

use cr_spectre_telemetry as telemetry;
use cr_spectre_telemetry::sink::{JsonlSink, Sink, SummarySink};

use crate::campaign::CampaignConfig;

/// What a declared flag takes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A bare switch, e.g. `--quick`.
    Switch,
    /// A free-text value, e.g. `--host sha_1`.
    Text,
    /// A whole number, zero included, e.g. `--limit 0`.
    Number,
    /// A whole number of at least 1, e.g. `--threads 2`.
    Count,
}

/// The flags one command accepts: `(name without the leading --, kind)`.
pub type Spec = [(&'static str, Kind)];

/// The flags of one validated invocation.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: BTreeMap<&'static str, String>,
    switches: BTreeSet<&'static str>,
}

impl Args {
    /// Parses `raw` (the arguments after the command) against `spec`.
    ///
    /// # Errors
    ///
    /// An unknown or repeated flag, a stray positional argument, a
    /// missing value (a value never starts with `--`), a non-numeric
    /// value for a [`Kind::Number`] or [`Kind::Count`] flag, or zero for
    /// a [`Kind::Count`] flag.
    pub fn parse(raw: &[String], spec: &Spec) -> Result<Args, String> {
        let mut args = Args::default();
        let mut it = raw.iter();
        while let Some(flag) = it.next() {
            let Some(given) = flag.strip_prefix("--") else {
                return Err(format!("unexpected positional argument {flag:?}"));
            };
            let Some(&(name, kind)) = spec.iter().find(|(name, _)| *name == given) else {
                return Err(format!("unknown flag {flag:?}"));
            };
            if args.switches.contains(name) || args.values.contains_key(name) {
                return Err(format!("{flag} given twice"));
            }
            if kind == Kind::Switch {
                args.switches.insert(name);
                continue;
            }
            let value = match it.next() {
                Some(value) if !value.starts_with("--") => value,
                _ => return Err(format!("{flag} needs a value")),
            };
            if kind != Kind::Text {
                let n: u64 = value
                    .parse()
                    .map_err(|_| format!("{flag} needs a whole number, got {value:?}"))?;
                if kind == Kind::Count && n == 0 {
                    return Err(format!("{flag} must be at least 1"));
                }
            }
            args.values.insert(name, value.clone());
        }
        Ok(args)
    }

    /// The value of a [`Kind::Text`] flag, if given.
    pub fn text(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// The value of a [`Kind::Number`] or [`Kind::Count`] flag, if given.
    pub fn number(&self, name: &str) -> Option<u64> {
        self.values.get(name).map(|v| v.parse().expect("checked by Args::parse"))
    }

    /// Whether a [`Kind::Switch`] flag was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.contains(name)
    }

    /// Prints a commentary line unless `--quiet`; result lines print
    /// unconditionally.
    pub fn note(&self, msg: &str) {
        if !self.switch("quiet") {
            println!("{msg}");
        }
    }

    /// The campaign configuration these flags select: paper scale, or
    /// smoke scale with `--quick`; `--threads N` and `--no-fast-path`
    /// applied.
    pub fn campaign_config(&self) -> CampaignConfig {
        let mut cfg =
            if self.switch("quick") { CampaignConfig::smoke() } else { CampaignConfig::default() };
        if let Some(threads) = self.number("threads") {
            cfg.threads = threads as usize;
        }
        if self.switch("no-fast-path") {
            // Escape hatch: every machine runs on the uncached slow path.
            // Results are bit-identical (the fastpath_equivalence suite
            // pins this); the switch exists to prove it from the CLI.
            cfg.machine.fast_path = false;
        }
        cfg
    }

    /// Installs the telemetry recorder `--telemetry PATH` asks for: a
    /// [`JsonlSink`] at `PATH`, plus the [`SummarySink`] report on stderr
    /// unless `--quiet`. Without `--telemetry` recording stays off (the
    /// default). Telemetry observes a run, it never feeds back: results
    /// are bit-identical with and without it. Pair with
    /// [`telemetry::shutdown`] after the last result line.
    ///
    /// # Errors
    ///
    /// The trace file cannot be created.
    pub fn install_telemetry(&self) -> Result<(), String> {
        let Some(path) = self.text("telemetry") else { return Ok(()) };
        let jsonl = JsonlSink::create(path)
            .map_err(|e| format!("cannot create telemetry file {path:?}: {e}"))?;
        let mut sinks: Vec<Box<dyn Sink>> = vec![Box::new(jsonl)];
        if !self.switch("quiet") {
            sinks.push(Box::new(SummarySink::new()));
        }
        telemetry::install(sinks);
        Ok(())
    }
}

/// Prints `error: …` and `usage` to stderr and exits with status 1.
pub fn exit_with_usage(error: &str, usage: &str) -> ! {
    eprintln!("error: {error}\n");
    eprint!("{usage}");
    std::process::exit(1)
}

/// Parses the process arguments against `spec`, or exits through
/// [`exit_with_usage`].
pub fn parse_env_or_exit(spec: &Spec, usage: &str) -> Args {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    Args::parse(&raw, spec).unwrap_or_else(|e| exit_with_usage(&e, usage))
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAMPAIGN: &Spec = &[
        ("artifact", Kind::Text),
        ("threads", Kind::Count),
        ("quick", Kind::Switch),
        ("quiet", Kind::Switch),
        ("telemetry", Kind::Text),
        ("limit", Kind::Number),
    ];

    fn parse(args: &[&str]) -> Result<Args, String> {
        let raw: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Args::parse(&raw, CAMPAIGN)
    }

    fn error(args: &[&str]) -> String {
        parse(args).expect_err("input must be rejected")
    }

    #[test]
    fn parses_every_kind() {
        let a = parse(&["--quick", "--threads", "3", "--quiet", "--telemetry", "t.jsonl"])
            .expect("valid");
        assert!(a.switch("quick") && a.switch("quiet"));
        assert_eq!(a.number("threads"), Some(3));
        assert_eq!(a.text("telemetry"), Some("t.jsonl"));
        let cfg = a.campaign_config();
        assert_eq!(cfg.threads, 3);
        assert_eq!(cfg.attempts, 3, "--quick selects the smoke scale");
        assert_eq!(parse(&["--limit", "0"]).expect("valid").number("limit"), Some(0));
    }

    #[test]
    fn defaults_to_paper_scale() {
        let a = parse(&[]).expect("valid");
        assert!(!a.switch("quick") && !a.switch("quiet"));
        assert_eq!(a.number("threads"), None);
        assert_eq!(a.text("telemetry"), None);
        assert_eq!(a.campaign_config().attempts, 10, "paper scale by default");
        a.install_telemetry().expect("no --telemetry installs nothing");
    }

    #[test]
    fn rejects_unknown_flags() {
        assert_eq!(error(&["--thraeds", "3"]), "unknown flag \"--thraeds\"");
        assert_eq!(error(&["-q"]), "unexpected positional argument \"-q\"");
    }

    #[test]
    fn rejects_repeated_flags() {
        assert_eq!(error(&["--limit", "2", "--limit", "5"]), "--limit given twice");
        assert_eq!(error(&["--quick", "--quick"]), "--quick given twice");
    }

    #[test]
    fn rejects_stray_positionals() {
        assert_eq!(error(&["--quick", "fig5"]), "unexpected positional argument \"fig5\"");
    }

    #[test]
    fn rejects_missing_values() {
        assert_eq!(error(&["--telemetry"]), "--telemetry needs a value");
        assert_eq!(error(&["--artifact", "--quick"]), "--artifact needs a value");
    }

    #[test]
    fn rejects_bad_numbers() {
        assert_eq!(error(&["--threads", "0"]), "--threads must be at least 1");
        assert_eq!(error(&["--threads", "two"]), "--threads needs a whole number, got \"two\"");
        assert_eq!(error(&["--limit", "-1"]), "--limit needs a whole number, got \"-1\"");
    }
}
