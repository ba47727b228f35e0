//! The benchmark's own tests: determinism of the generated inputs, the
//! translation-free timed windows, and agreement between the metrics a
//! run prints and those `BENCHMARK.json` lists.

use std::collections::BTreeSet;
use std::time::Duration;

use lisa_metrics::json::{self, Value};
use lisa_models::Workbench;
use lisa_perfbench::bench;
use lisa_perfbench::cli::{Args, Workload};
use lisa_perfbench::fuzz::{Fuzz, PROGRAMS};
use lisa_perfbench::programs::{steady_program, verify, BACKENDS, MODELS};
use lisa_perfbench::report::{valid_name, Tally};
use lisa_perfbench::requests;
use lisa_perfbench::steady::{Counts, Steady, RECORDED};
use lisa_sim::SimError;

fn workbenches() -> Vec<Workbench> {
    MODELS
        .iter()
        .map(|s| {
            Workbench::from_source(s.source, s.program_memory, s.halt_flag).expect("model builds")
        })
        .collect()
}

#[test]
fn same_seed_same_request_sequence() {
    let sequence =
        |seed, pass| -> Vec<usize> { requests::draws(seed, pass, 24).take(500).collect() };
    for pass in 0..4 {
        let a = sequence(42, pass);
        assert_eq!(a, sequence(42, pass));
        assert_ne!(a, sequence(43, pass));
        assert_ne!(a, sequence(42, pass + 1));
        // Every cycle of 24 sends each body once.
        for cycle in a.chunks_exact(24) {
            let mut sorted = cycle.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..24).collect::<Vec<_>>());
        }
        let thinks = |seed| -> Vec<Duration> { requests::thinks(seed, pass).take(500).collect() };
        assert_eq!(thinks(42), thinks(42));
        assert_ne!(thinks(42), thinks(43));
        assert!(thinks(42).iter().all(|&t| t < requests::MAX_THINK));
    }
}

#[test]
fn same_seed_same_fuzz_programs() {
    let wbs = workbenches();
    let (a, b, c) =
        (Fuzz::new(&wbs, 9).unwrap(), Fuzz::new(&wbs, 9).unwrap(), Fuzz::new(&wbs, 10).unwrap());
    assert_eq!(a.order(), b.order());
    for m in 0..MODELS.len() {
        let programs = a.programs(m);
        assert_eq!(programs.len() as u64, PROGRAMS);
        assert_eq!(programs, b.programs(m));
        // Another seed visits the same pinned programs, in another order.
        let (mut x, mut y) = (programs, c.programs(m));
        x.sort();
        y.sort();
        assert_eq!(x, y);
    }
}

#[test]
fn steady_counts_repeat_across_seeds_and_backends() {
    let wbs = workbenches();
    for (m, spec) in MODELS.iter().enumerate() {
        let model = wbs[m].model();
        let halt = spec.halt(model).unwrap();
        let mut seen = Vec::new();
        for seed in [1, 2] {
            let kernel = steady_program(m, seed);
            let program = spec.assembler(model).assemble(&kernel.source).unwrap();
            let image = spec.image(model, program.origin, &program.words).unwrap();
            for &(mode, _) in &BACKENDS {
                let mut sim = spec.load(model, mode, &kernel.data, &image).unwrap();
                match sim.run_until(|st| st.read_int(halt, &[]).unwrap_or(0) != 0, 3000) {
                    Err(SimError::StepLimit { .. }) => {}
                    other => panic!("{}: {other:?}", spec.name),
                }
                seen.push(Counts::from(sim.stats()));
            }
        }
        assert!(seen.windows(2).all(|w| w[0] == w[1]), "{}: {seen:?}", spec.name);
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs ~4x10^6 cycles; use --release")]
fn steady_programs_match_recorded_counts() {
    let wbs = workbenches();
    for (m, spec) in MODELS.iter().enumerate() {
        let model = wbs[m].model();
        let halt = spec.halt(model).unwrap();
        for seed in [1, 2] {
            let kernel = steady_program(m, seed);
            let program = spec.assembler(model).assemble(&kernel.source).unwrap();
            let image = spec.image(model, program.origin, &program.words).unwrap();
            let mut sim = spec.load(model, BACKENDS[2].0, &kernel.data, &image).unwrap();
            sim.run_until(|st| st.read_int(halt, &[]).unwrap_or(0) != 0, kernel.max_steps)
                .unwrap_or_else(|e| panic!("{}: {e}", kernel.name));
            verify(model, &kernel, sim.state()).unwrap();
            assert_eq!(Counts::from(sim.stats()), RECORDED[m], "{}", kernel.name);
        }
    }
}

#[test]
fn timed_windows_never_decode() {
    let wbs = workbenches();
    let mut steady = Steady::new(&wbs, 5).unwrap();
    let mut tally = Tally::default();
    for _ in 0..3 {
        steady.run_for(Duration::ZERO, None, &mut tally);
    }
    assert!(tally.correct(), "{:?}", tally.notes);
    for (m, misses) in steady.timed_decode_misses.iter().enumerate() {
        assert!(misses[0] > 0, "{}: the interpreter decodes every fetch", MODELS[m].name);
        assert_eq!(
            misses[1..],
            [0, 0],
            "{}: compiled and ops must be translated up front",
            MODELS[m].name
        );
    }
}

fn listed(doc: &Value, key: &str) -> BTreeSet<(String, String)> {
    doc.get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field =
                |f: &str| m.get(f).and_then(Value::as_str).expect("name and unit").to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "runs the benchmark; use --release")]
fn printed_metrics_match_benchmark_json() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));

    for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let want = listed(&doc, key);
        assert!(want.iter().all(|(name, _)| valid_name(name)), "{want:?}");
        let args = Args { workload: Workload::SteadyRun, seed: 3, seconds: 0.3, trace, out: None };
        let outcome = bench::run(&args).expect("benchmark runs");
        assert!(outcome.tally.correct(), "{:?}", outcome.tally.notes);
        let got: BTreeSet<(String, String)> =
            outcome.metrics.iter().map(|m| (m.name.clone(), m.unit.to_owned())).collect();
        assert_eq!(got.len(), outcome.metrics.len(), "duplicate metric names");
        assert_eq!(got, want, "{key}");
        if !trace {
            assert!(outcome.metrics.iter().all(|m| m.value > 0.0), "{:?}", outcome.metrics);
        }
    }
}
