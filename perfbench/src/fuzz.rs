//! `fuzz_lockstep`: `Fuzzer::run` over a fixed program range per model,
//! single-threaded — the five-oracle stack nightly CI and `/v1/fuzz` run.
//!
//! The range is the one CI fuzzes, cut short: master seed 0, the same
//! number of programs on every model, so the models weigh as they do in
//! `lisa-tool fuzz --seed 0 --iters N`. It is pinned (not drawn from the
//! seed) because fuzz programs differ up to threefold in cost between
//! master seeds: one program that exhausts its cycle budget can outweigh
//! dozens that halt. The seed only orders the models and rotates where
//! each range starts. Every program has its own one-program `Fuzzer`, so
//! each `Fuzzer::run` call is timed alone; the programs are visited
//! cyclically, and the throughput rests on each program's mean check
//! time in reference time: every check is preceded by a calibration
//! sample (see [`crate::calib`] and [`Pass::programs_per_s`]).

use std::time::{Duration, Instant};

use lisa_conform::{CoverageMap, FuzzConfig, FuzzReport, Fuzzer, Outcome, Rng};
use lisa_models::Workbench;

use crate::calib::Calibrator;
use crate::programs::MODELS;
use crate::report::Tally;
use crate::rng::SplitMix;
use crate::trace::{Key, Tracer};

/// Master seed of the pinned program range, as CI fuzzes.
pub const FUZZ_SEED: u64 = 0;

/// Programs per model in the pinned range `0..PROGRAMS`, equal on every
/// model as in CI.
pub const PROGRAMS: u64 = 64;

/// What one model's pinned range produces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuzzCounts {
    /// Runs that halted with every backend agreeing.
    pub halted: u64,
    /// Runs that exhausted the cycle budget in agreement.
    pub budget: u64,
    /// Runs where every backend raised the same error.
    pub errored: u64,
    /// Coding-tree paths the programs reach.
    pub paths: usize,
}

/// The recorded outcome of each model's pinned range.
pub const RECORDED: [FuzzCounts; 4] = [
    FuzzCounts { halted: 53, budget: 4, errored: 7, paths: 659 },
    FuzzCounts { halted: 27, budget: 0, errored: 37, paths: 27 },
    FuzzCounts { halted: 50, budget: 1, errored: 13, paths: 15 },
    FuzzCounts { halted: 61, budget: 2, errored: 1, paths: 16 },
];

/// One pinned program and what it produced the first time.
struct Program<'w> {
    model: usize,
    config: FuzzConfig,
    fuzzer: Fuzzer<'w>,
    first: Option<(FuzzCounts, CoverageMap)>,
}

/// The pinned programs of every model, in the seed's order.
pub struct Fuzz<'w> {
    programs: Vec<Program<'w>>,
    cursor: usize,
    calib: Calibrator,
}

/// The checks of each program over one or more windows.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Reference time (ns) and number of checks per program, by position
    /// in the visiting order.
    pub timed: Vec<(u64, u64)>,
    /// Programs checked, repetitions included.
    pub checked: u64,
    /// Host time of every check.
    pub host_ns: u64,
}

impl Pass {
    /// Programs checked by all five oracles per reference second: the
    /// pinned programs over the sum of their mean check times, so every program
    /// weighs once however often a window revisited it.
    #[must_use]
    pub fn programs_per_s(&self) -> f64 {
        let timed: Vec<f64> =
            self.timed.iter().filter(|t| t.1 > 0).map(|&(ns, n)| ns as f64 / n as f64).collect();
        timed.len() as f64 * 1e9 / timed.iter().sum::<f64>().max(1.0)
    }
}

fn outcome_counts(report: &FuzzReport) -> FuzzCounts {
    FuzzCounts {
        halted: report.halted,
        budget: report.budget,
        errored: report.errored,
        paths: report.coverage.len(),
    }
}

impl<'w> Fuzz<'w> {
    /// Builds one fuzzer per pinned program; `seed` picks the model
    /// order and where each model's range starts.
    ///
    /// # Errors
    ///
    /// When a model cannot drive program generation.
    pub fn new(wbs: &'w [Workbench], seed: u64) -> Result<Fuzz<'w>, String> {
        let mut rng = SplitMix::new(seed, 0x4655_5A5A);
        let mut order: Vec<usize> = (0..MODELS.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut programs = Vec::new();
        for m in order {
            let rotation = rng.below(PROGRAMS);
            for k in 0..PROGRAMS {
                let start = (rotation + k) % PROGRAMS;
                let config =
                    FuzzConfig { seed: FUZZ_SEED, start, iters: 1, ..FuzzConfig::default() };
                let fuzzer =
                    Fuzzer::new(&wbs[m], config).map_err(|e| format!("{}: {e}", MODELS[m].name))?;
                programs.push(Program { model: m, config, fuzzer, first: None });
            }
        }
        Ok(Fuzz { programs, cursor: 0, calib: Calibrator::new() })
    }

    /// `(model, program index)` in visiting order.
    #[must_use]
    pub fn order(&self) -> Vec<(usize, u64)> {
        self.programs.iter().map(|p| (p.model, p.config.start)).collect()
    }

    /// The program words of model `model`, in visiting order (pure
    /// functions of the pinned seed and their index).
    #[must_use]
    pub fn programs(&self, model: usize) -> Vec<Vec<u128>> {
        self.programs
            .iter()
            .filter(|p| p.model == model)
            .map(|p| {
                let mut rng = Rng::for_iteration(p.config.seed, p.config.start);
                p.fuzzer.generator().gen_program(&mut rng, p.config.max_len)
            })
            .collect()
    }

    /// A pass with no program checked yet.
    #[must_use]
    pub fn new_pass(&self) -> Pass {
        Pass { timed: vec![(0, 0); self.programs.len()], checked: 0, host_ns: 0 }
    }

    /// Checks programs in cyclic order into `pass` until `window` has
    /// passed (at least one). With `tracer`, the loop of `Fuzzer::run` is
    /// driven from here so generation (`ProgramGen::gen_program` +
    /// `image`) and checking (`Fuzzer::check_words`) are timed apart.
    pub fn run_for(
        &mut self,
        window: Duration,
        pass: &mut Pass,
        mut tracer: Option<&mut Tracer>,
        tally: &mut Tally,
    ) {
        let deadline = Instant::now() + window;
        loop {
            self.check_next(pass, tracer.as_deref_mut(), tally);
            if Instant::now() >= deadline {
                return;
            }
        }
    }

    /// Checks, in cyclic order, every program `pass` has no time for yet.
    pub fn complete(
        &mut self,
        pass: &mut Pass,
        mut tracer: Option<&mut Tracer>,
        tally: &mut Tally,
    ) {
        while pass.timed.iter().any(|t| t.1 == 0) {
            self.check_next(pass, tracer.as_deref_mut(), tally);
        }
    }

    fn check_next(&mut self, pass: &mut Pass, tracer: Option<&mut Tracer>, tally: &mut Tally) {
        let i = self.cursor;
        self.cursor = (self.cursor + 1) % self.programs.len();
        let slowness = self.calib.slowness();
        let program = &mut self.programs[i];
        let start = Instant::now();
        let got = match tracer {
            None => {
                let report = program.fuzzer.run();
                match &report.failure {
                    None => Ok((outcome_counts(&report), report.coverage)),
                    Some(f) => Err(format!("{:?}", f.verdict)),
                }
            }
            Some(t) => traced_check(program, t),
        };
        let host_ns = start.elapsed().as_nanos() as u64;
        let ns = (host_ns as f64 / slowness) as u64;
        pass.checked += 1;
        pass.host_ns += host_ns;
        let timed = &mut pass.timed[i];
        *timed = (timed.0 + ns, timed.1 + 1);
        let name = MODELS[program.model].name;
        tally.check(match (got, &program.first) {
            (Err(verdict), _) => {
                Err(format!("{name}: program {} diverges: {verdict}", program.config.start))
            }
            (Ok(now), Some(first)) if now != *first => {
                Err(format!("{name}: program {} changed outcome", program.config.start))
            }
            (Ok(now), _) => {
                program.first = Some(now);
                Ok(())
            }
        });
    }

    /// Outcome counts per model, summed over the programs' first checks.
    #[must_use]
    pub fn counts(&self) -> [FuzzCounts; 4] {
        let mut counts = [FuzzCounts::default(); 4];
        let mut coverage = vec![CoverageMap::new(); MODELS.len()];
        for p in &self.programs {
            if let Some((c, paths)) = &p.first {
                let total = &mut counts[p.model];
                total.halted += c.halted;
                total.budget += c.budget;
                total.errored += c.errored;
                coverage[p.model].merge(paths);
            }
        }
        for (m, c) in counts.iter_mut().enumerate() {
            c.paths = coverage[m].len();
        }
        counts
    }

    /// Checks the outcome counts against the recorded ones.
    pub fn check_counts(&self, tally: &mut Tally) {
        for (m, got) in self.counts().iter().enumerate() {
            tally.check(if *got == RECORDED[m] {
                Ok(())
            } else {
                Err(format!("{}: fuzz counts {got:?}, recorded {:?}", MODELS[m].name, RECORDED[m]))
            });
        }
    }
}

/// One program through generation and the oracle stack, timed apart.
fn traced_check(
    program: &Program<'_>,
    tracer: &mut Tracer,
) -> Result<(FuzzCounts, CoverageMap), String> {
    let (m, config) = (program.model, program.config);
    let gen = program.fuzzer.generator();
    let t0 = Instant::now();
    let mut rng = Rng::for_iteration(config.seed, config.start);
    let prefix = gen.gen_program(&mut rng, config.max_len);
    let image = gen.image(&prefix);
    let t1 = Instant::now();
    let coverage = gen.coverage_of(&prefix);
    let t2 = Instant::now();
    let verdict = program.fuzzer.check_words(&prefix);
    let t3 = Instant::now();
    tracer.record(Key::new("conform.gen_program", Some(m), None), None, t0, t1, image.len() as u64);
    tracer.record(Key::new("conform.check_words", Some(m), None), None, t2, t3, 1);
    let paths = coverage.len();
    let one = |halted, budget, errored| FuzzCounts { halted, budget, errored, paths };
    match verdict {
        Ok(Outcome::Halted { .. }) => Ok((one(1, 0, 0), coverage)),
        Ok(Outcome::Budget { .. }) => Ok((one(0, 1, 0), coverage)),
        Ok(Outcome::Error { .. }) => Ok((one(0, 0, 1), coverage)),
        Err(v) => Err(format!("{v:?}")),
    }
}
