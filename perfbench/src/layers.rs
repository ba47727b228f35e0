//! The traced run's layer census: short, fixed amounts of work that time
//! each layer's public calls from outside the program, plus the
//! reduction of every recorded span to the per-layer metrics.

use std::time::{Duration, Instant};

use lisa_core::Model;
use lisa_isa::Decoder;
use lisa_models::Workbench;
use lisa_serve::http::Request;
use lisa_sim::{SimError, Simulator};

use crate::fuzz::FuzzCounts;
use crate::programs::{BACKENDS, MODELS};
use crate::report::{Metric, Tally};
use crate::requests::{Body, Pass as RequestPass, Sample, Service, MAX_CYCLES, REQUEST_BACKENDS};
use crate::stats::median;
use crate::steady::{Pass as SteadyPass, Steady, COUNT_NAMES, SLICE_CYCLES};
use crate::trace::{Key, Tracer};

/// Repetitions of each census measurement.
const REPS: usize = 5;

/// Words each model's decode sweep covers.
const DECODE_WORDS: usize = 20_000;

/// Slices per configuration in the arch-profile comparison.
const PROFILE_SLICES: usize = 15;

/// The phases of a `/v1/simulate` request the census replays in
/// process, in span-name and report order.
pub const PHASES: [&str; 4] = ["assemble", "build", "translate", "run"];

const PHASE_SPANS: [&str; 4] =
    ["request.assemble", "request.build", "request.translate", "request.run"];

/// Times the layer calls of every model: model builds, decoding,
/// assembly, simulator construction, translation, the arch profile's
/// cost, and the request phases of every body, in process.
pub fn census(
    wbs: &[Workbench],
    steady: &Steady<'_>,
    bodies: &[Body],
    service: &Service,
    tracer: &mut Tracer,
    tally: &mut Tally,
) {
    for (m, spec) in MODELS.iter().enumerate() {
        for _ in 0..REPS {
            let built = tracer.time(Key::new("core.from_source", Some(m), None), None, 1, || {
                Model::from_source(spec.source)
            });
            tally.check(built.map(drop).map_err(|e| format!("{}: {e}", spec.name)));
        }
        let model = wbs[m].model();
        decode_sweep(m, model, steady.words(m), tracer, tally);
        for (b, &(mode, _)) in BACKENDS.iter().enumerate() {
            for _ in 0..REPS {
                let sim = tracer.time(Key::new("sim.new", Some(m), Some(b)), None, 1, || {
                    Simulator::new(model, mode)
                });
                tally.check(sim.map(drop).map_err(|e| format!("{}: {e}", spec.name)));
            }
        }
        arch_profile_cost(m, wbs, steady, tracer, tally);
    }
    for body in bodies {
        for _ in 0..REPS {
            replay(body, wbs, tracer, tally);
            dispatch(body, service, tracer, tally);
        }
    }
}

fn decode_sweep(m: usize, model: &Model, words: &[u128], tracer: &mut Tracer, tally: &mut Tally) {
    let decoder = match Decoder::new(model) {
        Ok(d) => d,
        Err(e) => return tally.check(Err(format!("{}: {e}", MODELS[m].name))),
    };
    for _ in 0..DECODE_WORDS.div_ceil(words.len()) {
        let decoded =
            tracer.time(Key::new("isa.decode", Some(m), None), None, words.len() as u64, || {
                words.iter().filter(|&&w| decoder.decode(w).is_ok()).count()
            });
        if decoded == 0 {
            tally.check(Err(format!("{}: no program word decodes", MODELS[m].name)));
        }
    }
}

/// Alternates plain and arch-profiled `run_until` slices of the steady
/// program on the compiled backend (the service's default).
fn arch_profile_cost(
    m: usize,
    wbs: &[Workbench],
    steady: &Steady<'_>,
    tracer: &mut Tracer,
    tally: &mut Tally,
) {
    let spec = &MODELS[m];
    let model = wbs[m].model();
    let (data, image) = (steady.data(m), steady.image(m));
    let Ok(halt) = spec.halt(model) else {
        return tally.check(Err(format!("{}: no halt", spec.name)));
    };
    let load = |profiled: bool| {
        spec.load(model, BACKENDS[1].0, data, image).map(|mut sim| {
            if profiled {
                sim.enable_arch_profile();
            }
            sim
        })
    };
    let mut sims = match (load(false), load(true)) {
        (Ok(a), Ok(b)) => [a, b],
        (Err(e), _) | (_, Err(e)) => return tally.check(Err(e)),
    };
    for _ in 0..PROFILE_SLICES {
        for (profiled, sim) in sims.iter_mut().enumerate() {
            let before = sim.stats().cycles;
            let name =
                if profiled == 1 { "probe.run_until_profiled" } else { "probe.run_until_plain" };
            let start = Instant::now();
            let outcome =
                sim.run_until(|st| st.read_int(halt, &[]).unwrap_or(0) != 0, SLICE_CYCLES[m]);
            let end = Instant::now();
            match &outcome {
                Ok(_) | Err(SimError::StepLimit { .. }) => {}
                Err(e) => return tally.check(Err(format!("{}: {e}", spec.name))),
            }
            tracer.record(
                Key::new(name, Some(m), None),
                None,
                start,
                end,
                sim.stats().cycles - before,
            );
            if outcome.is_ok() {
                match load(profiled == 1) {
                    Ok(fresh) => *sim = fresh,
                    Err(e) => return tally.check(Err(e)),
                }
            }
        }
    }
}

/// Replays one request's phases in process the way the service runs
/// them: assemble, build the simulator with the arch profile on,
/// load and translate the program, run to the halt flag.
fn replay(body: &Body, wbs: &[Workbench], tracer: &mut Tracer, tally: &mut Tally) {
    let (m, b) = (body.model, body.backend);
    let spec = &MODELS[m];
    let model = wbs[m].model();
    let key = |name| Key::new(name, Some(m), Some(b));
    let root_start = Instant::now();
    let t0 = Instant::now();
    let assembler = spec.assembler(model);
    let t1 = Instant::now();
    let program = assembler.assemble(&body.source);
    let t2 = Instant::now();
    let sim = Simulator::new(model, BACKENDS[b].0).map(|mut sim| {
        sim.enable_arch_profile();
        sim
    });
    let t3 = Instant::now();
    let (Ok(_), Ok(mut sim)) = (program, sim) else {
        return tally.check(Err(format!("{}: replay failed to assemble or build", body.kernel)));
    };
    let loaded = sim.load_program(spec.program_memory, &body.image);
    let t4 = Instant::now();
    let halt = spec.halt(model).expect("bodies are built for models with a halt flag");
    let run = sim.run_until(|st| st.read_int(halt, &[]).unwrap_or(0) != 0, MAX_CYCLES);
    let t5 = Instant::now();
    let root = tracer.record(key("request.replay"), None, root_start, t5, 1);
    tracer.record(key("asm.assembler_new"), Some(root), t0, t1, 1);
    tracer.record(key("asm.assemble"), Some(root), t1, t2, body.lines as u64);
    tracer.record(key("request.assemble"), Some(root), t0, t2, body.lines as u64);
    tracer.record(key("request.build"), Some(root), t2, t3, 1);
    tracer.record(key("request.translate"), Some(root), t3, t4, body.image.len() as u64);
    tracer.record(key("request.run"), Some(root), t4, t5, sim.stats().cycles);
    tally.check(match (loaded, run) {
        (Ok(()), Ok(_)) if sim.state().digest() == body.digest => Ok(()),
        (Ok(()), Ok(_)) => Err(format!("{}: replay digest differs", body.kernel)),
        (Err(e), _) | (_, Err(e)) => Err(format!("{}: replay: {e}", body.kernel)),
    });
}

/// `AppState::dispatch` on the body, in process.
fn dispatch(body: &Body, service: &Service, tracer: &mut Tracer, tally: &mut Tally) {
    let req = Request {
        method: "POST".to_owned(),
        target: "/v1/simulate".to_owned(),
        http11: true,
        headers: vec![("Content-Type".to_owned(), "application/json".to_owned())],
        body: body.json.clone().into_bytes(),
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    let key = Key::new("serve.dispatch", Some(body.model), Some(body.backend));
    let resp = tracer.time(key, None, 1, || service.state.dispatch(&req, deadline));
    tally.check(if resp.status == 200 {
        Ok(())
    } else {
        Err(format!("{}: in-process dispatch answered {}", body.kernel, resp.status))
    });
}

/// Median of `values`, or 0 when there are none.
fn med(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// The largest phase of each model's requests, in [`MODELS`] order.
pub type LargestPhases = Vec<(&'static str, &'static str, f64)>;

/// Reduces the recorded spans and the passes' exact counts to the
/// per-layer metrics, and names each model's largest request phase.
pub fn metrics(
    tracer: &Tracer,
    steady: &Steady<'_>,
    steady_pass: &SteadyPass,
    bodies: &[Body],
    requests: &RequestPass,
    fuzz: &[FuzzCounts; 4],
) -> (Vec<Metric>, LargestPhases) {
    let mut out = Vec::new();
    for (m, spec) in MODELS.iter().enumerate() {
        let name = spec.name;
        let per = |n: &'static str, b: Option<usize>| tracer.ns_per_work(Key::new(n, Some(m), b));
        out.push(Metric::new(
            format!("core.model_build_ms.{name}"),
            "ms",
            med(&per("core.from_source", None)) / 1e6,
        ));
        out.push(Metric::new(
            format!("isa.decode_ns_per_word.{name}"),
            "ns",
            med(&per("isa.decode", None)),
        ));
        let asm: Vec<f64> =
            REQUEST_BACKENDS.iter().flat_map(|&b| per("asm.assemble", Some(b))).collect();
        out.push(Metric::new(format!("asm.us_per_line.{name}"), "us", med(&asm) / 1e3));
        for (b, (_, bname)) in BACKENDS.iter().enumerate() {
            out.push(Metric::new(
                format!("sim.build_us.{name}.{bname}"),
                "us",
                med(&per("sim.new", Some(b))) / 1e3,
            ));
        }
        for b in REQUEST_BACKENDS {
            let durations = tracer.durations(Key::new("request.translate", Some(m), Some(b)));
            out.push(Metric::new(
                format!("sim.translate_us.{name}.{}", BACKENDS[b].1),
                "us",
                med(&durations) / 1e3,
            ));
        }
        for (b, (_, bname)) in BACKENDS.iter().enumerate() {
            let ns: Vec<f64> = steady_pass.slices[m][b]
                .iter()
                .filter(|s| s.cycles > 0)
                .map(|s| s.ns as f64 / s.cycles as f64)
                .collect();
            out.push(Metric::new(format!("sim.run_ns_per_cycle.{name}.{bname}"), "ns", med(&ns)));
        }
        let per_op: Vec<f64> = steady_pass.slices[m][2]
            .iter()
            .filter(|s| s.ops > 0)
            .map(|s| s.ns as f64 / s.ops as f64)
            .collect();
        out.push(Metric::new(format!("sim.run_ns_per_op.{name}.ops"), "ns", med(&per_op)));
        let plain = med(&per("probe.run_until_plain", None));
        let profiled = med(&per("probe.run_until_profiled", None));
        let cost = if plain > 0.0 { profiled / plain - 1.0 } else { 0.0 };
        out.push(Metric::new(format!("probe.arch_profile_cost.{name}"), "share", cost));
        out.push(Metric::new(
            format!("conform.gen_us_per_program.{name}"),
            "us",
            med(&tracer.durations(Key::new("conform.gen_program", Some(m), None))) / 1e3,
        ));
        out.push(Metric::new(
            format!("conform.check_ms_per_program.{name}"),
            "ms",
            med(&tracer.durations(Key::new("conform.check_words", Some(m), None))) / 1e6,
        ));
        let counts = steady.counts[m].map_or([0; 7], |c| c.values);
        for (i, cname) in COUNT_NAMES.iter().enumerate() {
            out.push(Metric::new(format!("count.{cname}.{name}"), "count", counts[i] as f64));
        }
        for b in REQUEST_BACKENDS {
            out.push(Metric::new(
                format!("count.timed_decode_misses.{name}.{}", BACKENDS[b].1),
                "count",
                steady.timed_decode_misses[m][b] as f64,
            ));
        }
        out.push(Metric::new(
            format!("conform.paths_covered.{name}"),
            "count",
            fuzz[m].paths as f64,
        ));
        out.push(Metric::new(format!("conform.errored.{name}"), "count", fuzz[m].errored as f64));
    }

    // Request phases: in-process replay means per body, weighted by how
    // often the traced closed loop sent each body.
    let body_key = |name, body: &Body| Key::new(name, Some(body.model), Some(body.backend));
    let mean =
        |v: Vec<f64>| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
    let phase_mean: Vec<Vec<f64>> = bodies
        .iter()
        .map(|body| {
            PHASE_SPANS.iter().map(|&span| mean(tracer.durations(body_key(span, body)))).collect()
        })
        .collect();
    let dispatch_median: Vec<f64> = bodies
        .iter()
        .map(|body| med(&tracer.durations(body_key("serve.dispatch", body))))
        .collect();
    let all_dispatch: Vec<f64> = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "serve.dispatch")
        .map(|s| s.dur_ns as f64)
        .collect();
    out.push(Metric::new("serve.dispatch_us_p50", "us", med(&all_dispatch) / 1e3));
    let transport = |s: &Sample| s.ns() as f64 - dispatch_median[s.body];
    let all_transport: Vec<f64> = requests.samples.iter().map(transport).collect();
    out.push(Metric::new("serve.transport_us_p50", "us", med(&all_transport) / 1e3));

    // Shares of the mean round trip, for all requests or one model's.
    let shares = |model: Option<usize>| {
        let samples: Vec<&Sample> = requests
            .samples
            .iter()
            .filter(|s| model.is_none_or(|m| bodies[s.body].model == m))
            .collect();
        let round_trip = mean(samples.iter().map(|s| s.ns() as f64).collect());
        let mut share: Vec<f64> = (0..PHASES.len())
            .map(|p| mean(samples.iter().map(|s| phase_mean[s.body][p]).collect()) / round_trip)
            .collect();
        share.push(mean(samples.iter().map(|s| transport(s)).collect()) / round_trip);
        share
    };
    for (name, share) in PHASES.iter().chain(&["transport"]).zip(shares(None)) {
        out.push(Metric::new(format!("share.{name}"), "share", share));
    }
    let largest = MODELS
        .iter()
        .enumerate()
        .map(|(m, spec)| {
            let share = shares(Some(m));
            let (i, &v) =
                share.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).expect("five phases");
            (spec.name, PHASES.get(i).copied().unwrap_or("transport"), v)
        })
        .collect();
    (out, largest)
}
