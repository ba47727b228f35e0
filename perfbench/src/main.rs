//! `lisa-perfbench --workload NAME --seed N --seconds S --trace 0|1
//! [--out DIR]`: runs one workload and prints, as its last line, the
//! JSON result `{"correct", "attempted", "failed", "metrics"}`.

use std::path::Path;
use std::process::ExitCode;

use lisa_metrics::json::escape;
use lisa_perfbench::bench::{self, Outcome};
use lisa_perfbench::cli::{self, Args};
use lisa_perfbench::report::result_line;

fn write_out(dir: &Path, args: &Args, outcome: &Outcome, line: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let stem = format!("{}-seed{}-trace{}", args.workload.name(), args.seed, u8::from(args.trace));
    let notes: Vec<String> = outcome.notes.iter().map(|n| escape(n)).collect();
    let json = format!(
        "{{\"host\": {}, \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"notes\": [{}], \"result\": {line}}}\n",
        outcome.host.json(),
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        notes.join(", ")
    );
    std::fs::write(dir.join(format!("{stem}.json")), json)?;
    if args.trace {
        std::fs::write(dir.join(format!("{stem}-spans.jsonl")), &outcome.spans)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", cli::USAGE);
            return ExitCode::from(2);
        }
    };
    let outcome = match bench::run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("{}", outcome.host.line());
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for note in &outcome.notes {
        println!("{note}");
    }
    for failure in &outcome.tally.notes {
        println!("FAILED: {failure}");
    }
    let line = result_line(&outcome.tally, &outcome.metrics);
    if let Some(dir) = &args.out {
        if let Err(e) = write_out(dir, &args, &outcome, &line) {
            eprintln!("cannot write results to {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{line}");
    ExitCode::SUCCESS
}
