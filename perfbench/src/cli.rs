//! Command-line interface: `--workload NAME --seed N --seconds S
//! --trace 0|1 [--out DIR]`.

use std::path::PathBuf;

/// The measured workloads. The `/v1/simulate` closed loop runs only in
/// the traced run (see [`crate::bench`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Long programs on every model and backend, run loop only.
    SteadyRun,
    /// The five-oracle lockstep fuzzer over a fixed program range.
    FuzzLockstep,
}

impl Workload {
    /// Every workload, in the order a run measures them.
    pub const ALL: [Workload; 2] = [Workload::SteadyRun, Workload::FuzzLockstep];

    /// The name `--workload` takes and `BENCHMARK.json` lists.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyRun => "steady_run",
            Workload::FuzzLockstep => "fuzz_lockstep",
        }
    }

    /// Parses a workload name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Parsed arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The workload to measure.
    pub workload: Workload,
    /// Seed for every generated input.
    pub seed: u64,
    /// Measured time, in seconds.
    pub seconds: f64,
    /// Whether to make the traced run that reports per-layer metrics.
    pub trace: bool,
    /// Directory for the result file and spans; nothing is written
    /// without it.
    pub out: Option<PathBuf>,
}

/// Usage text.
pub const USAGE: &str = "usage: lisa-perfbench --workload steady_run|fuzz_lockstep \
     --seed N --seconds S --trace 0|1 [--out DIR]";

/// Parses the arguments after the program name.
///
/// # Errors
///
/// A message naming the missing or malformed argument.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s.is_finite() && s > 0.0 && s <= 3600.0) {
                    return Err(format!("seconds must be in (0, 3600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got `{value}`")),
                });
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
        out,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload fuzz_lockstep --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::FuzzLockstep);
        assert_eq!((a.seed, a.seconds, a.trace, a.out), (7, 10.0, true, None));
        let a = args("--seed 1 --workload steady_run --seconds 2.5 --trace 0 --out r").unwrap();
        assert_eq!(a.out, Some(PathBuf::from("r")));
    }

    #[test]
    fn rejects_bad_arguments() {
        assert!(args("--workload nope --seed 1 --seconds 1").is_err());
        assert!(args("--workload steady_run --seconds 1").is_err());
        assert!(args("--workload steady_run --seed 1 --seconds 0").is_err());
        assert!(args("--workload steady_run --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload steady_run --seed").is_err());
    }
}
