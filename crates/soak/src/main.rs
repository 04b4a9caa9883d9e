//! `anonet-soak` — run seeded soak campaigns and gate fresh runs against
//! the committed `BENCH_soak.json` baseline.
//!
//! ```text
//! anonet-soak run   [--grid full|smoke] [--seed N] [--reps N]
//!                   [--budget-secs N] [--out PATH] [--trace PATH]
//! anonet-soak check [--baseline PATH] [--current PATH] [--band-pct P]
//!                   [run options for the fresh run]
//! ```
//!
//! `run` executes a campaign and writes the report. `check` loads (or
//! freshly runs) a current report, diffs it against the baseline, and
//! exits 1 on any regression — listing each regressed cell with its
//! `tc1:…` replay string. A missing baseline degrades to a note (exit 0) so the gate
//! can be adopted before a baseline is committed. Exit 2 is an
//! operational error (bad flags, unreadable files, campaign failure).

use std::path::PathBuf;
use std::process::ExitCode;

use anonet_soak::{baseline, diff, report, CampaignConfig, SoakError};
use anonet_testkit::CampaignGrid;

const DEFAULT_BASELINE: &str = "BENCH_soak.json";
const DEFAULT_CURRENT_OUT: &str = "target/BENCH_soak_current.json";

struct Options {
    grid: CampaignGrid,
    seed: u64,
    reps: usize,
    budget_secs: Option<u64>,
    out: PathBuf,
    baseline: PathBuf,
    current: Option<PathBuf>,
    band: f64,
    trace: Option<PathBuf>,
}

impl Options {
    fn defaults() -> Options {
        let full = CampaignConfig::full();
        Options {
            grid: full.grid,
            seed: full.base_seed,
            reps: full.reps,
            budget_secs: None,
            out: PathBuf::from(DEFAULT_BASELINE),
            baseline: PathBuf::from(DEFAULT_BASELINE),
            current: None,
            band: diff::DEFAULT_BAND,
            trace: None,
        }
    }

    fn campaign_config(&self) -> CampaignConfig {
        CampaignConfig {
            grid: self.grid.clone(),
            base_seed: self.seed,
            reps: self.reps,
            budget: self.budget_secs.map(std::time::Duration::from_secs),
        }
    }
}

fn usage() -> String {
    "usage: anonet-soak run   [--grid full|smoke] [--seed N] [--reps N] \
     [--budget-secs N] [--out PATH] [--trace PATH]\n       anonet-soak check [--baseline PATH] \
     [--current PATH] [--band-pct P] [run options]"
        .to_string()
}

fn parse_value<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let raw = value.ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse().map_err(|_| format!("{flag}: cannot parse `{raw}`"))
}

fn parse(args: &mut std::env::Args, opts: &mut Options) -> Result<(), String> {
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--grid" => {
                let name: String = parse_value("--grid", args.next())?;
                opts.grid = match name.as_str() {
                    "full" => CampaignGrid::full(),
                    "smoke" => CampaignGrid::smoke(),
                    other => return Err(format!("--grid: unknown grid `{other}`")),
                };
            }
            "--seed" => opts.seed = parse_value("--seed", args.next())?,
            "--reps" => opts.reps = parse_value("--reps", args.next())?,
            "--budget-secs" => {
                opts.budget_secs = Some(parse_value("--budget-secs", args.next())?);
            }
            "--out" => opts.out = PathBuf::from(parse_value::<String>("--out", args.next())?),
            "--baseline" => {
                opts.baseline = PathBuf::from(parse_value::<String>("--baseline", args.next())?);
            }
            "--current" => {
                opts.current =
                    Some(PathBuf::from(parse_value::<String>("--current", args.next())?));
            }
            "--band-pct" => {
                let pct: f64 = parse_value("--band-pct", args.next())?;
                if !(0.0..=100.0).contains(&pct) {
                    return Err(format!("--band-pct: {pct} is not in 0..=100"));
                }
                opts.band = pct / 100.0;
            }
            "--trace" => {
                opts.trace = Some(PathBuf::from(parse_value::<String>("--trace", args.next())?));
            }
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    Ok(())
}

fn cmd_run(opts: &Options) -> Result<ExitCode, SoakError> {
    let run = match &opts.trace {
        Some(path) => {
            // Stream the campaign's causal trace as JSONL for the
            // `anonet-trace` toolchain; a panic mid-campaign still
            // flushes what was buffered.
            let io_err = |e| SoakError::Io {
                context: format!("writing trace {}", path.display()),
                source: e,
            };
            if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
                std::fs::create_dir_all(parent).map_err(io_err)?;
            }
            let jsonl =
                std::sync::Arc::new(anonet_obs::JsonlRecorder::create(path).map_err(io_err)?);
            jsonl.flush_on_panic();
            let shared: anonet_obs::SharedRecorder = jsonl.clone();
            let run = anonet_soak::run_campaign_observed(&opts.campaign_config(), &shared)?;
            jsonl.flush().map_err(io_err)?;
            println!("trace written to {}", path.display());
            run
        }
        None => anonet_soak::run_campaign(&opts.campaign_config())?,
    };
    baseline::save(&opts.out, &run)?;
    print!("{}", report::render_table(&run));
    println!("report written to {}", opts.out.display());
    if run.failures.is_empty() {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("{} oracle failure(s); see replay strings above", run.failures.len());
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_check(opts: &Options) -> Result<ExitCode, SoakError> {
    let current = match &opts.current {
        Some(path) => baseline::load(path)?,
        None => {
            let run = anonet_soak::run_campaign(&opts.campaign_config())?;
            baseline::save(PathBuf::from(DEFAULT_CURRENT_OUT).as_path(), &run)?;
            println!("fresh run written to {DEFAULT_CURRENT_OUT}");
            run
        }
    };

    let mut outcome = diff::DiffOutcome::default();
    if opts.baseline.exists() {
        let base = baseline::load(&opts.baseline)?;
        outcome = diff::diff(&current, &base, opts.band);
    } else {
        outcome.notes.push(format!(
            "baseline {} absent; soak diff skipped (commit one with `anonet-soak run`)",
            opts.baseline.display()
        ));
    }
    print!("{}", diff::render(&outcome));
    Ok(if outcome.passed() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let mut args = std::env::args();
    let _argv0 = args.next();
    let command = match args.next() {
        Some(c) => c,
        None => {
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut opts = Options::defaults();
    if let Err(e) = parse(&mut args, &mut opts) {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    let result = match command.as_str() {
        "run" => cmd_run(&opts),
        "check" => cmd_check(&opts),
        other => {
            eprintln!("error: unknown command `{other}`\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
