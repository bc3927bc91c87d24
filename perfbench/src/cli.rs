//! Strict command-line parsing: every flag is known, required once and
//! checked where it enters; anything else is an error, never ignored.

use crate::workload::Workload;

/// Usage text printed after an argument error.
pub const USAGE: &str =
    "usage: perfbench --workload <online-retrain|ipc-overhead|offline-evasion> \
--seed <n> --seconds <n ≥ 1> --trace <0|1>\n       perfbench record";

/// Longest measuring time accepted, in seconds.
pub const MAX_SECONDS: u64 = 3600;

/// A benchmark run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOpts {
    /// Which driver.
    pub workload: Workload,
    /// Input seed; any value, including 0.
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: u64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
}

/// What the command line asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// Measure one workload.
    Run(RunOpts),
    /// Recompute the recorded digests of every workload and seed.
    Record,
}

fn number(flag: &str, raw: &str) -> Result<u64, String> {
    raw.parse::<u64>()
        .map_err(|_| format!("{flag} needs a whole number, got {raw:?}"))
}

/// Parses the arguments after the program name.
///
/// # Errors
///
/// An unknown, repeated or missing flag, a missing value, a value that
/// is not a whole number, `--seconds 0` or above [`MAX_SECONDS`],
/// `--trace` other than 0 or 1, or an unknown workload.
pub fn parse(args: &[String]) -> Result<Command, String> {
    if args.first().map(String::as_str) == Some("record") {
        return match args.get(1) {
            None => Ok(Command::Record),
            Some(extra) => Err(format!("record takes no arguments, got {extra:?}")),
        };
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let slot_taken = match flag.as_str() {
            "--workload" => workload.is_some(),
            "--seed" => seed.is_some(),
            "--seconds" => seconds.is_some(),
            "--trace" => trace.is_some(),
            other => return Err(format!("unknown argument {other:?}")),
        };
        if slot_taken {
            return Err(format!("{flag} given twice"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(number(flag, value)?),
            "--seconds" => {
                let n = number(flag, value)?;
                if n == 0 || n > MAX_SECONDS {
                    return Err(format!(
                        "--seconds must be between 1 and {MAX_SECONDS}, got {n}"
                    ));
                }
                seconds = Some(n);
            }
            _ => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                });
            }
        }
    }
    Ok(Command::Run(RunOpts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}
