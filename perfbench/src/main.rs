//! Command line of the benchmark:
//!
//! ```text
//! anonet-perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Prints a provenance line, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 if any output
//! was invalid, 2 on bad arguments or a failure outside the instances.

use anonet_perfbench::{provenance, run, Config, Scale, DEFAULT_SEED, WORKLOADS};

fn parse_args() -> Result<(String, Config), String> {
    let mut workload = None;
    let mut cfg = Config { seed: DEFAULT_SEED, seconds: 10.0, scale: Scale::Full, trace: false };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => cfg.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => cfg.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload =
        workload.ok_or_else(|| format!("--workload is required: {}", WORKLOADS.join(", ")))?;
    Ok((workload, cfg))
}

fn main() {
    let (workload, cfg) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("anonet-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match run(&workload, &cfg) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("anonet-perfbench: {workload}: {e}");
            std::process::exit(2);
        }
    };
    println!("{}", provenance(&workload, &cfg));
    eprintln!(
        "anonet-perfbench: {workload}: {} attempted, {} failed (error rate {}){}",
        report.attempted,
        report.failed,
        report.error_rate(),
        match report.traced_matches_untraced {
            Some(true) => ", traced outputs equal untraced outputs",
            Some(false) => ", TRACED OUTPUTS DIFFER FROM UNTRACED OUTPUTS",
            None => "",
        }
    );
    println!("{}", report.to_json());
    if !report.correct() {
        std::process::exit(1);
    }
}
