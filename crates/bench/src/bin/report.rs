//! Experiment report runner: regenerates every figure/theorem artifact.
//!
//! ```text
//! cargo run -p anonet-bench --bin report                 # all experiments
//! cargo run -p anonet-bench --bin report -- fig2         # one experiment
//! cargo run -p anonet-bench --bin report -- batch scale  # several, in order
//! cargo run -p anonet-bench --bin report -- list         # list ids
//! ```
//!
//! Exits 1 if any experiment failed.

use std::process::ExitCode;

use anonet_bench::{run_experiment, EXPERIMENT_IDS};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<&str> = match args.first().map(String::as_str) {
        None | Some("all") => EXPERIMENT_IDS.to_vec(),
        Some("list") => {
            for id in EXPERIMENT_IDS {
                println!("{id}");
            }
            return ExitCode::SUCCESS;
        }
        Some(_) => args.iter().map(String::as_str).collect(),
    };

    let mut failures = 0usize;
    for id in ids {
        println!("=== experiment {id} ===\n");
        match run_experiment(id) {
            Ok(rendered) => println!("{rendered}"),
            Err(e) => {
                eprintln!("experiment {id} FAILED: {e}\n");
                failures += 1;
            }
        }
    }
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        eprintln!("{failures} experiment(s) failed");
        ExitCode::FAILURE
    }
}
