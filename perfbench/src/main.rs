//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//!     --serve-bin PATH --work-dir DIR
//! perfbench --record
//! ```
//!
//! Prints human-readable lines, then one JSON result line last. Exits
//! non-zero when an output check fails. `--record` prints the event-log
//! hash of every engine run the engine workloads make, in the format of
//! `expected_hashes.txt`.

mod engine_wl;
mod report;
mod serve_wl;
mod snap;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: Option<PathBuf>,
    work_dir: PathBuf,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        serve_bin: None,
        work_dir: PathBuf::from(".bench_build/perfbench-work"),
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => args.seconds = value()?.parse().map_err(|_| "bad --seconds")?,
            "--trace" => args.trace = value()? == "1",
            "--serve-bin" => args.serve_bin = Some(PathBuf::from(value()?)),
            "--work-dir" => args.work_dir = PathBuf::from(value()?),
            "--record" => args.record = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.record {
        return match engine_wl::record() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let work = args.work_dir.join(&args.workload);
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::FAILURE;
    }
    let engine = |churn| {
        Ok(if args.trace {
            engine_wl::run_traced(&args.workload, churn, args.seed, args.seconds, &work)
        } else {
            engine_wl::run(&args.workload, churn, args.seed, args.seconds)
        })
    };
    let serve = |shape: &serve_wl::Shape| {
        let bin = args.serve_bin.as_deref().ok_or("--serve-bin is required")?;
        if args.trace {
            serve_wl::run_traced(shape, args.seed, args.seconds, bin, &work)
        } else {
            serve_wl::run(shape, args.seed, args.seconds, bin, &work)
        }
    };
    let result: Result<report::Report, String> = match args.workload.as_str() {
        "engine-calm" => engine(false),
        "engine-churn" => engine(true),
        "serve-steady-tcp" => serve(&serve_wl::STEADY_TCP),
        "serve-burst-unix" => serve(&serve_wl::BURST_UNIX),
        other => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&work);
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", report.to_json());
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
