//! One benchmark run: set-up (repeated, median reported), then the
//! measured passes, then the result.
//!
//! Every run reports every end-to-end metric. The named workload gets
//! two thirds of the measured time and the other one third, as a shorter
//! copy of the same passes, so a metric that belongs to one workload is
//! still reported (and guarded) on the other. Every time an end-to-end
//! metric rests on (a set-up, a steady slice, a fuzz check) is a
//! reference time: host time over the host's slowness measured next to
//! it (see [`crate::calib`]).
//!
//! The `/v1/simulate` closed loop runs in the traced run only, and its
//! request metrics are per-layer: on a shared 2-vCPU host its round trips
//! drift by up to 60% over minutes while the calibration loop moves a
//! few percent, so their spread over ten seeds reached 0.29–0.40, past
//! any bound the benchmark may set.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use lisa_models::Workbench;

use crate::calib::Calibrator;
use crate::cli::{Args, Workload};
use crate::fuzz::Fuzz;
use crate::host::{peak_rss_mib, Host};
use crate::layers;
use crate::programs::{BACKENDS, MODELS};
use crate::report::{Metric, Tally};
use crate::requests::{self, Body, Pass as RequestPass, Service};
use crate::stats::{median, quantile, tail};
use crate::steady::{Pass as SteadyPass, Steady};
use crate::trace::{Key, Tracer};

/// Set-ups per run; `setup_s` is the median of their reference times.
pub const SETUP_REPEATS: usize = 7;

/// Share of the measured time the named workload gets.
pub const PRIMARY_SHARE: f64 = 2.0 / 3.0;

/// Each workload's share of a run is measured in this many chunks,
/// interleaved with the others, so that drift in the host's speed
/// during a run touches every metric alike.
const ROUNDS: u32 = 6;

/// Most server workers, whatever the core count.
const MAX_WORKERS: usize = 4;

/// Everything a run builds before measuring: the four models, the
/// request bodies with their reference digests, and the running service.
pub struct Env {
    /// One workbench per model, in [`MODELS`] order.
    pub wbs: Vec<Workbench>,
    /// The `/v1/simulate` bodies.
    pub bodies: Vec<Body>,
    /// The in-process server.
    pub service: Service,
}

impl Env {
    fn new(workers: usize) -> Result<Env, String> {
        let wbs = MODELS
            .iter()
            .map(|s| Workbench::from_source(s.source, s.program_memory, s.halt_flag))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let bodies = requests::bodies(&wbs)?;
        let service = Service::start(workers)?;
        Ok(Env { wbs, bodies, service })
    }
}

/// The per-workload state borrowed from an [`Env`].
struct Active<'e> {
    steady: Steady<'e>,
    fuzz: Fuzz<'e>,
}

impl<'e> Active<'e> {
    /// Builds the steady lanes and fuzzers and warms up: one lockstep
    /// round per model and every request body once over HTTP.
    fn new(env: &'e Env, seed: u64, tally: &mut Tally) -> Result<Active<'e>, String> {
        let mut steady = Steady::new(&env.wbs, seed)?;
        let fuzz = Fuzz::new(&env.wbs, seed)?;
        steady.run_for(Duration::ZERO, None, tally);
        requests::warm_up(&env.service.addr, &env.bodies, tally);
        Ok(Active { steady, fuzz })
    }
}

/// What a run prints and writes.
pub struct Outcome {
    /// Host metadata.
    pub host: Host,
    /// Checked operations.
    pub tally: Tally,
    /// Reported metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    /// The traced run's spans as JSON lines (empty when untraced).
    pub spans: String,
}

fn window(args: &Args, w: Workload) -> Duration {
    let others = (Workload::ALL.len() - 1) as f64;
    let share = if w == args.workload { PRIMARY_SHARE } else { (1.0 - PRIMARY_SHARE) / others };
    Duration::from_secs_f64(args.seconds * share)
}

/// The reference time of a set-up that took `seconds` of host time: that
/// time over the mean of the host's slowness just before and just after.
fn reference_s(seconds: f64, before: f64, after: f64) -> f64 {
    seconds * 2.0 / (before + after)
}

/// Runs the benchmark as `args` asks.
///
/// # Errors
///
/// Set-up failures (a model that does not build, a port that cannot be
/// bound); check failures are counted in the tally instead.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let host = Host::probe();
    let workers = host.nproc.clamp(1, MAX_WORKERS);
    let mut tally = Tally::default();
    let mut calib = Calibrator::new();
    let (mut setups, mut raw) = (Vec::new(), Vec::new());
    for _ in 1..SETUP_REPEATS {
        let before = calib.slowness();
        let start = Instant::now();
        let env = Env::new(workers)?;
        drop(Active::new(&env, args.seed, &mut tally)?);
        let seconds = start.elapsed().as_secs_f64();
        raw.push(seconds);
        setups.push(reference_s(seconds, before, calib.slowness()));
        env.service.stop()?;
    }
    let before = calib.slowness();
    let start = Instant::now();
    let env = Env::new(workers)?;
    let mut active = Active::new(&env, args.seed, &mut tally)?;
    let seconds = start.elapsed().as_secs_f64();
    raw.push(seconds);
    setups.push(reference_s(seconds, before, calib.slowness()));

    let mut notes = vec![format!(
        "setup_s: median of {} set-ups in reference time {:?} (host time {:?}); one client and \
         {workers} server workers",
        setups.len(),
        setups.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>(),
        raw.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>()
    )];
    let (metrics, spans) = if args.trace {
        traced(args, &env, &mut active, &mut tally, &mut notes)
    } else {
        let mut metrics = vec![Metric::new("setup_s", "s", median(&setups))];
        metrics.extend(untraced(args, &mut active, &mut tally, &mut notes));
        let rss = peak_rss_mib().ok_or("no peak RSS in /proc/self/status")?;
        metrics.push(Metric::new("peak_rss_mib", "MiB", rss));
        (metrics, String::new())
    };
    drop(active);
    env.service.stop()?;
    Ok(Outcome { host, tally, metrics, notes, spans })
}

fn request_metrics(pass: &RequestPass, notes: &mut Vec<String>) -> Vec<Metric> {
    let latencies = pass.latencies_ms();
    let tail = tail(&latencies);
    notes.push(format!(
        "requests (untraced half of the traced run): {} in {:.3} s with think time; req_p50_ms \
         over {} samples; req_p99_ms is {}",
        pass.samples.len(),
        pass.elapsed.as_secs_f64(),
        latencies.len(),
        tail.map_or_else(
            || "the maximum (fewer than 20 samples)".to_owned(),
            |t| format!("p{} of {} samples", t.percentile, t.samples)
        )
    ));
    let p99 = tail.map_or_else(|| latencies.iter().copied().fold(0.0, f64::max), |t| t.value);
    vec![
        Metric::new("req_per_s", "req/s", pass.req_per_s()),
        Metric::new("req_p50_ms", "ms", pass.p50_ms()),
        Metric::new("req_p99_ms", "ms", p99),
    ]
}

fn steady_metrics(pass: &SteadyPass, notes: &mut Vec<String>) -> Vec<Metric> {
    let slices: usize = pass.slices.iter().flatten().map(Vec::len).sum();
    let mut slowness = pass.slowness.clone();
    slowness.sort_by(f64::total_cmp);
    let host: Vec<String> = BACKENDS
        .iter()
        .enumerate()
        .map(|(b, (_, name))| format!("{name} {:.4}", pass.backend_mcycles_per_s(b, true)))
        .collect();
    notes.push(format!(
        "steady_run: {slices} timed slices over 4 models x 3 backends; host slowness over {} \
         samples: median {:.3}, quartiles {:.3} and {:.3}; Mcycles per host second: {}",
        slowness.len(),
        quantile(&slowness, 0.5),
        quantile(&slowness, 0.25),
        quantile(&slowness, 0.75),
        host.join(", ")
    ));
    BACKENDS
        .iter()
        .enumerate()
        .map(|(b, (_, name))| {
            let rate = pass.backend_mcycles_per_s(b, false);
            Metric::new(format!("{name}_mcycles_per_s"), "Mcycles/s", rate)
        })
        .collect()
}

fn untraced(
    args: &Args,
    active: &mut Active<'_>,
    tally: &mut Tally,
    notes: &mut Vec<String>,
) -> Vec<Metric> {
    let mut steady = SteadyPass::default();
    let mut fuzz = active.fuzz.new_pass();
    for _ in 0..ROUNDS {
        for w in Workload::ALL {
            let window = window(args, w) / ROUNDS;
            match w {
                Workload::SteadyRun => steady.extend(active.steady.run_for(window, None, tally)),
                Workload::FuzzLockstep => active.fuzz.run_for(window, &mut fuzz, None, tally),
            }
        }
    }
    if args.workload == Workload::SteadyRun {
        active.steady.finish_programs(tally);
    }
    let mut metrics = steady_metrics(&steady, notes);
    active.fuzz.complete(&mut fuzz, None, tally);
    active.fuzz.check_counts(tally);
    notes.push(format!(
        "fuzz_lockstep: {} checks of {} pinned programs, each timed by its mean; {:.3} s of \
         host time, {:.3} s of reference time",
        fuzz.checked,
        fuzz.timed.len(),
        fuzz.host_ns as f64 / 1e9,
        fuzz.timed.iter().map(|t| t.0).sum::<u64>() as f64 / 1e9
    ));
    metrics.push(Metric::new("fuzz_programs_per_s", "programs/s", fuzz.programs_per_s()));
    metrics
}

fn traced(
    args: &Args,
    env: &Env,
    active: &mut Active<'_>,
    tally: &mut Tally,
    notes: &mut Vec<String>,
) -> (Vec<Metric>, String) {
    let mut tracer = Tracer::new();
    let mut overhead = Vec::new();
    let half = |w| window(args, w) / 2;

    let w = Workload::SteadyRun;
    let plain = active.steady.run_for(half(w), None, tally);
    let steady_pass = active.steady.run_for(half(w), Some(&mut tracer), tally);
    overhead.push((w.name(), plain.headline() / steady_pass.headline() - 1.0));
    active.steady.finish_programs(tally);

    let addr = &env.service.addr;
    let quarter = Duration::from_secs_f64(args.seconds / 4.0);
    let plain = requests::closed_loop(addr, &env.bodies, (args.seed, 0), quarter, tally);
    let request_metrics = request_metrics(&plain, notes);
    let request_pass = requests::closed_loop(addr, &env.bodies, (args.seed, 1), quarter, tally);
    for s in &request_pass.samples {
        let body = &env.bodies[s.body];
        tracer.record(
            Key::new("serve.client_post", Some(body.model), Some(body.backend)),
            None,
            s.start,
            s.end,
            1,
        );
    }
    overhead.push(("simulate_requests", plain.req_per_s() / request_pass.req_per_s() - 1.0));

    let w = Workload::FuzzLockstep;
    let (mut plain, mut traced) = (active.fuzz.new_pass(), active.fuzz.new_pass());
    active.fuzz.run_for(half(w), &mut plain, None, tally);
    active.fuzz.complete(&mut plain, None, tally);
    active.fuzz.run_for(half(w), &mut traced, Some(&mut tracer), tally);
    active.fuzz.complete(&mut traced, Some(&mut tracer), tally);
    active.fuzz.check_counts(tally);
    overhead.push((w.name(), plain.programs_per_s() / traced.programs_per_s() - 1.0));

    layers::census(&env.wbs, &active.steady, &env.bodies, &env.service, &mut tracer, tally);
    let (mut metrics, largest) = layers::metrics(
        &tracer,
        &active.steady,
        &steady_pass,
        &env.bodies,
        &request_pass,
        &active.fuzz.counts(),
    );
    metrics.extend(request_metrics);
    for (w, o) in overhead {
        metrics.push(Metric::new(format!("trace_overhead.{w}"), "share", o));
    }
    metrics.push(Metric::new("error_rate", "share", tally.error_rate()));

    let mut table = String::from("per-layer metrics (traced run):\n");
    for m in &metrics {
        let _ = writeln!(table, "  {:<48} {:>16.4} {}", m.name, m.value, m.unit);
    }
    table.push_str("simulate_requests phase shares of the mean round trip, largest per model:\n");
    for (model, phase, share) in &largest {
        let _ = writeln!(table, "  {model:<10} {phase:<10} {:>6.1}%", share * 100.0);
    }
    let transport =
        metrics.iter().find(|m| m.name == "serve.transport_us_p50").map_or(0.0, |m| m.value);
    let _ = write!(
        table,
        "transport (round trip minus in-process dispatch) p50 = {transport:.0} us; the acceptor \
         sleeps 2 ms whenever accept() would block (crates/serve/src/server.rs), which this \
         includes; recorded as a measurement only"
    );
    notes.push(table);
    let models: Vec<&str> = MODELS.iter().map(|s| s.name).collect();
    let backends: Vec<&str> = BACKENDS.iter().map(|b| b.1).collect();
    (metrics, tracer.to_jsonl(&models, &backends))
}
