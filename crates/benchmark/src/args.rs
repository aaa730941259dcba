//! Command-line arguments shared by both binaries.

use crate::workload::{Workload, REFERENCE_SECONDS};

/// Parsed arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// `--workload <name>`.
    pub workload: Workload,
    /// `--seed <n>`: the same seed gives the same inputs.
    pub seed: u64,
    /// `--seconds <n>`: scales the replay counts (see [`crate::workload::Shape`]).
    pub seconds: u64,
    /// `--trace <0|1>`: which run the caller expects; each binary accepts only its own.
    pub trace: bool,
    /// `--smoke`: tiny tables and two replays, for the tier-1 test.
    pub smoke: bool,
    /// `--audit <n>`: run the workload n times in fresh processes and report spreads.
    pub audit: Option<usize>,
}

/// The usage line.
pub const USAGE: &str = "usage: --workload <ask_plenty|ask_scarce|serve_hot|ingest_mixed> \
[--seed <n>] [--seconds <n>] [--trace <0|1>] [--smoke] [--audit <n>]";

impl Args {
    /// Parse `args` (without the program name). `trace_default` is the value of
    /// `--trace` the calling binary implements.
    pub fn parse(args: impl Iterator<Item = String>, trace_default: bool) -> Result<Args, String> {
        let mut workload = None;
        let (mut seed, mut seconds) = (1u64, REFERENCE_SECONDS);
        let (mut trace, mut smoke, mut audit) = (trace_default, false, None);
        let mut args = args;
        while let Some(flag) = args.next() {
            let mut value = |what: &str| {
                args.next()
                    .ok_or_else(|| format!("{flag} needs {what}\n{USAGE}"))
            };
            let number = |text: String| {
                text.parse::<u64>()
                    .map_err(|_| format!("not a whole number: {text}\n{USAGE}"))
            };
            match flag.as_str() {
                "--workload" => {
                    let name = value("a workload name")?;
                    workload = Some(
                        Workload::from_name(&name)
                            .ok_or_else(|| format!("unknown workload {name}\n{USAGE}"))?,
                    );
                }
                "--seed" => seed = number(value("a number")?)?,
                "--seconds" => seconds = number(value("a number")?)?.max(1),
                "--trace" => trace = number(value("0 or 1")?)? != 0,
                "--audit" => audit = Some(number(value("a run count")?)? as usize),
                "--smoke" => smoke = true,
                other => return Err(format!("unknown argument {other}\n{USAGE}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
            seed,
            seconds,
            trace,
            smoke,
            audit,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(str::to_string), false)
    }

    #[test]
    fn parses_the_driver_command_line() {
        let args = parse("--workload serve_hot --seed 9 --seconds 20 --trace 0").unwrap();
        assert_eq!(args.workload, Workload::ServeHot);
        assert_eq!((args.seed, args.seconds, args.trace), (9, 20, false));
        assert!(!args.smoke && args.audit.is_none());
    }

    #[test]
    fn rejects_what_it_does_not_know() {
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload serve_hot --seed x").is_err());
        assert!(parse("--workload serve_hot --frobnicate").is_err());
    }
}
