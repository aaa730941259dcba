//! `cqads-benchmark`: one workload end to end, untraced.
//!
//! ```text
//! cargo run --release -p cqads-benchmark -- --workload ask_scarce --seed 1
//! ```

#![forbid(unsafe_code)]

use cqads_benchmark::args::Args;
use cqads_benchmark::{audit, e2e};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1), false) {
        Ok(args) if !args.trace => args,
        Ok(_) => {
            eprintln!("--trace 1 is the cqads-benchmark-trace binary");
            return ExitCode::from(2);
        }
        Err(usage) => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.audit {
        return match audit::run(&args, runs) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("audit: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match e2e::run(&args) {
        Ok((report, tally)) => {
            report.print(&tally);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
