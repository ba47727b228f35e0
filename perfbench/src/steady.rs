//! `steady_run`: each model's long program runs on all three backends in
//! lockstep slices. Only `run_until` is timed; building, loading (with
//! its predecode and translation) and every check happen outside the
//! timed windows. Each model's round of slices is preceded by a
//! calibration sample, and the rates rest on the slices' reference time (see
//! [`crate::calib`]).

use std::time::{Duration, Instant};

use lisa_core::model::Resource;
use lisa_models::kernels::Kernel;
use lisa_models::Workbench;
use lisa_sim::{SimError, SimStats, Simulator, StopReason};

use crate::calib::Calibrator;
use crate::programs::{steady_program, verify, BACKENDS, MODELS};
use crate::report::Tally;
use crate::stats::geomean;
use crate::trace::{Key, Tracer};

/// Control steps per timed slice, per model: sized so that one slice
/// takes a few milliseconds on every backend and every model's program
/// finishes after about the same number of rounds.
pub const SLICE_CYCLES: [u64; 4] = [700, 5000, 5000, 5000];

/// Names of the mode-independent [`SimStats`] counters, in [`Counts`]
/// order.
pub const COUNT_NAMES: [&str; 7] =
    ["cycles", "executed_ops", "activations", "retired", "stalls", "flushes", "decodes"];

/// The simulator statistics that must not depend on the backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// The counters named by [`COUNT_NAMES`].
    pub values: [u64; 7],
    /// Stall requests by stage.
    pub stall_by_stage: [u64; lisa_sim::STALL_STAGE_BUCKETS],
}

impl From<&SimStats> for Counts {
    fn from(s: &SimStats) -> Counts {
        Counts {
            values: [
                s.cycles,
                s.executed_ops,
                s.activations,
                s.instructions_retired,
                s.stalls,
                s.flushes,
                s.decodes,
            ],
            stall_by_stage: s.stall_by_stage,
        }
    }
}

/// The statistics of each model's whole `steady_run` program, in
/// [`MODELS`] order: the same on every backend and for every seed (the
/// seed changes only the data).
pub const RECORDED: [Counts; 4] = [
    recorded([140_952, 1_162_158, 862_988, 158_228, 0, 0, 158_228]),
    recorded([1_028_002, 4_112_008, 0, 1_028_002, 0, 0, 1_028_002]),
    recorded([991_604, 3_631_416, 0, 1_319_906, 0, 0, 1_319_906]),
    recorded([1_015_817, 4_063_268, 0, 1_015_817, 0, 0, 1_015_817]),
];

/// Recorded [`Counts`] of a program that never stalls.
const fn recorded(values: [u64; 7]) -> Counts {
    Counts { values, stall_by_stage: [0; lisa_sim::STALL_STAGE_BUCKETS] }
}

/// One timed slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slice {
    /// Host time of the `run_until` call.
    pub ns: u64,
    /// That time over the host's slowness measured just before the
    /// model's round: the slice's reference time.
    pub ref_ns: u64,
    /// Simulated cycles it covered.
    pub cycles: u64,
    /// Operations executed in it.
    pub ops: u64,
}

/// The slices of one pass, per model and backend.
#[derive(Debug, Clone)]
pub struct Pass {
    /// `slices[model][backend]`.
    pub slices: Vec<Vec<Vec<Slice>>>,
    /// The host's slowness before each model's round.
    pub slowness: Vec<f64>,
}

impl Default for Pass {
    fn default() -> Pass {
        Pass { slices: vec![vec![Vec::new(); BACKENDS.len()]; MODELS.len()], slowness: Vec::new() }
    }
}

impl Pass {
    /// Appends another pass's slices.
    pub fn extend(&mut self, other: Pass) {
        for (mine, theirs) in
            self.slices.iter_mut().flatten().zip(other.slices.into_iter().flatten())
        {
            mine.extend(theirs);
        }
        self.slowness.extend(other.slowness);
    }

    /// Simulated Mcycles per second of one model and backend: every timed
    /// slice's cycles over every timed slice's reference time, or host
    /// time when `host`.
    #[must_use]
    pub fn mcycles_per_s(&self, model: usize, backend: usize, host: bool) -> f64 {
        let slices = &self.slices[model][backend];
        let cycles: u64 = slices.iter().map(|s| s.cycles).sum();
        let ns: u64 = slices.iter().map(|s| if host { s.ns } else { s.ref_ns }).sum();
        cycles as f64 * 1e3 / ns.max(1) as f64
    }

    /// Geometric mean over the models of [`Pass::mcycles_per_s`].
    #[must_use]
    pub fn backend_mcycles_per_s(&self, backend: usize, host: bool) -> f64 {
        let rates: Vec<f64> =
            (0..MODELS.len()).map(|m| self.mcycles_per_s(m, backend, host)).collect();
        geomean(&rates)
    }

    /// Geometric mean over the three backends in reference time: the
    /// pass's headline.
    #[must_use]
    pub fn headline(&self) -> f64 {
        geomean(&[0, 1, 2].map(|b| self.backend_mcycles_per_s(b, false)))
    }
}

struct Lane<'m> {
    model: usize,
    wb: &'m Workbench,
    kernel: Kernel,
    words: Vec<u128>,
    image: Vec<u128>,
    halt: &'m Resource,
    sims: Vec<Simulator<'m>>,
}

impl<'m> Lane<'m> {
    fn load(&self) -> Result<Vec<Simulator<'m>>, String> {
        BACKENDS
            .iter()
            .map(|&(mode, _)| {
                MODELS[self.model].load(self.wb.model(), mode, &self.kernel.data, &self.image)
            })
            .collect()
    }
}

/// The lockstep state of the `steady_run` workload.
pub struct Steady<'m> {
    lanes: Vec<Lane<'m>>,
    calib: Calibrator,
    /// Decode-cache misses inside timed windows, per model and backend.
    pub timed_decode_misses: [[u64; 3]; 4],
    /// Completed programs per model.
    completions: [u64; 4],
    /// The statistics of a completed program, per model (checked against
    /// [`RECORDED`] at every completion).
    pub counts: [Option<Counts>; 4],
}

impl<'m> Steady<'m> {
    /// Assembles each model's program with data from `seed` and loads it
    /// on all three backends.
    ///
    /// # Errors
    ///
    /// Assembly or loading errors, described.
    pub fn new(wbs: &'m [Workbench], seed: u64) -> Result<Steady<'m>, String> {
        let mut lanes = Vec::new();
        for (m, spec) in MODELS.iter().enumerate() {
            let wb = &wbs[m];
            let kernel = steady_program(m, seed);
            let program = spec
                .assembler(wb.model())
                .assemble(&kernel.source)
                .map_err(|e| format!("{}: {e}", kernel.name))?;
            let image = spec.image(wb.model(), program.origin, &program.words)?;
            let halt = spec.halt(wb.model())?;
            let mut lane =
                Lane { model: m, wb, kernel, words: program.words, image, halt, sims: Vec::new() };
            lane.sims = lane.load()?;
            lanes.push(lane);
        }
        Ok(Steady {
            lanes,
            calib: Calibrator::new(),
            timed_decode_misses: [[0; 3]; 4],
            completions: [0; 4],
            counts: [None; 4],
        })
    }

    /// The program image of model `m`.
    #[must_use]
    pub fn image(&self, m: usize) -> &[u128] {
        &self.lanes[m].image
    }

    /// The assembled words of model `m`'s program, from its origin.
    #[must_use]
    pub fn words(&self, m: usize) -> &[u128] {
        &self.lanes[m].words
    }

    /// The data image of model `m`'s program.
    #[must_use]
    pub fn data(&self, m: usize) -> &[(&'static str, i64, i64)] {
        &self.lanes[m].kernel.data
    }

    /// Runs lockstep rounds over every model until `window` has passed
    /// (at least one round), recording spans when `tracer` is given.
    pub fn run_for(
        &mut self,
        window: Duration,
        mut tracer: Option<&mut Tracer>,
        tally: &mut Tally,
    ) -> Pass {
        let deadline = Instant::now() + window;
        let mut pass = Pass::default();
        loop {
            for lane in 0..self.lanes.len() {
                let slowness = self.calib.slowness();
                pass.slowness.push(slowness);
                self.round(lane, slowness, &mut pass, tracer.as_deref_mut(), tally);
            }
            if Instant::now() >= deadline {
                return pass;
            }
        }
    }

    /// Runs the lanes whose program has not yet completed in this process
    /// to completion, untimed, so every run checks golden values and
    /// records the statistics of a whole program.
    pub fn finish_programs(&mut self, tally: &mut Tally) {
        let mut pass = Pass::default();
        for (lane, slice) in SLICE_CYCLES.iter().enumerate() {
            let budget = self.lanes[lane].kernel.max_steps / slice + 1;
            let mut rounds = 0;
            while self.completions[lane] == 0 && rounds <= budget {
                self.round(lane, 1.0, &mut pass, None, tally);
                rounds += 1;
            }
            if self.completions[lane] == 0 {
                tally.check(Err(format!("{}: did not halt", self.lanes[lane].kernel.name)));
            }
        }
    }

    /// One lockstep slice of one model on all three backends, then the
    /// cross-backend check; a completed program is verified and reloaded.
    fn round(
        &mut self,
        lane_idx: usize,
        slowness: f64,
        pass: &mut Pass,
        mut tracer: Option<&mut Tracer>,
        tally: &mut Tally,
    ) {
        let lane = &mut self.lanes[lane_idx];
        let m = lane.model;
        let mut halted = [false; 3];
        let mut failure = None;
        for (b, sim) in lane.sims.iter_mut().enumerate() {
            let before = *sim.stats();
            let halt = lane.halt;
            let start = Instant::now();
            let outcome =
                sim.run_until(|st| st.read_int(halt, &[]).unwrap_or(0) != 0, SLICE_CYCLES[m]);
            let end = Instant::now();
            match outcome {
                Ok(out) => halted[b] = out.reason == StopReason::Halted,
                Err(SimError::StepLimit { .. }) => {}
                Err(e) => {
                    failure = Some(format!("{} on {}: {e}", lane.kernel.name, BACKENDS[b].1));
                    break;
                }
            }
            let after = sim.stats();
            let cycles = after.cycles - before.cycles;
            self.timed_decode_misses[m][b] += after.decode_misses() - before.decode_misses();
            let ns = end.duration_since(start).as_nanos() as u64;
            pass.slices[m][b].push(Slice {
                ns,
                ref_ns: (ns as f64 / slowness) as u64,
                cycles,
                ops: after.executed_ops - before.executed_ops,
            });
            if let Some(t) = tracer.as_deref_mut() {
                t.record(Key::new("sim.run_until", Some(m), Some(b)), None, start, end, cycles);
            }
        }

        if let Some(note) = failure {
            tally.check(Err(note));
            match lane.load() {
                Ok(sims) => lane.sims = sims,
                Err(e) => tally.check(Err(e)),
            }
            return;
        }

        let reference = (Counts::from(lane.sims[0].stats()), lane.sims[0].state().digest());
        let mut verdict = Ok(());
        for b in 1..BACKENDS.len() {
            let other = (Counts::from(lane.sims[b].stats()), lane.sims[b].state().digest());
            if other != reference || halted[b] != halted[0] {
                verdict = Err(format!(
                    "{}: {} diverges from interp at cycle {}: {other:?} vs {reference:?}",
                    lane.kernel.name, BACKENDS[b].1, reference.0.values[0]
                ));
            }
        }
        let diverged = verdict.is_err();
        tally.check(verdict);
        if !halted[0] && !diverged {
            return;
        }
        if !diverged {
            for sim in &lane.sims {
                tally.check(verify(lane.wb.model(), &lane.kernel, sim.state()));
            }
            let counts = reference.0;
            tally.check(if counts == RECORDED[m] {
                Ok(())
            } else {
                Err(format!(
                    "{}: statistics {counts:?}, recorded {:?}",
                    lane.kernel.name, RECORDED[m]
                ))
            });
            self.counts[m] = Some(counts);
            self.completions[m] += 1;
        }
        match lane.load() {
            Ok(sims) => lane.sims = sims,
            Err(e) => tally.check(Err(e)),
        }
    }
}
