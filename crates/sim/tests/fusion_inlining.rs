//! Property test for the ops translator's superinstructions and call
//! inlining.
//!
//! Random models put random behaviors in front of the translator: jump
//! targets inside would-be fused windows (ternaries and short-circuit
//! logic next to constant operands), `/` and `%` by a constant 0 in fused
//! position, scalar reads of a watched memory, a recursive callee driven
//! past the inline depth, and an unbound callee with an ACTIVATION
//! (immediate and delayed targets, and a condition). Ops must match the
//! interpreter after every step — state digest, statistics, architecture
//! profile and error text — and a traced ops run must emit exactly the
//! events of a traced compiled run.

use lisa_core::Model;
use lisa_sim::{ProbeSpec, SimMode, Simulator};
use proptest::prelude::*;

/// SplitMix64: a small deterministic generator for model text.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len() as u64) as usize]
    }

    /// A small constant; now and then zero, which `/` and `%` turn into
    /// a division-by-zero error.
    fn constant(&mut self) -> i64 {
        match self.below(12) {
            0 => 0,
            1 => -(self.below(9) as i64),
            _ => self.below(9) as i64,
        }
    }

    fn leaf(&mut self, locals: &[String]) -> String {
        match self.below(5) {
            0 => self.constant().to_string(),
            1 if !locals.is_empty() => locals[self.below(locals.len() as u64) as usize].clone(),
            2 => "scal".to_owned(),
            _ => self.pick(&["r0", "r1", "r2", "r3"]).to_owned(),
        }
    }

    fn expr(&mut self, locals: &[String], depth: u32) -> String {
        if depth == 0 {
            return self.leaf(locals);
        }
        let ops =
            ["+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>", "<", "<=", ">", ">=", "==", "!="];
        match self.below(9) {
            // Operand forms the superinstructions fuse: `x op k`.
            0..=3 => {
                let lhs = if self.below(2) == 0 {
                    self.leaf(locals)
                } else {
                    self.expr(locals, depth - 1)
                };
                let op = self.pick(&ops);
                let k = if matches!(op, "/" | "%") && self.below(4) != 0 {
                    self.below(7) as i64 + 1
                } else {
                    self.constant()
                };
                format!("({lhs} {op} {k})")
            }
            4 => {
                let (a, b) = (self.expr(locals, depth - 1), self.expr(locals, depth - 1));
                format!("({a} {} {b})", self.pick(&["+", "-", "&", "^", "<", "=="]))
            }
            // Jumps that land inside would-be fused windows.
            5 => {
                let c = self.expr(locals, depth - 1);
                let (a, b) = (self.leaf(locals), self.leaf(locals));
                format!("(({c} ? {a} : {b}) {} {})", self.pick(&ops[..4]), self.constant())
            }
            6 => {
                let (a, b) = (self.expr(locals, depth - 1), self.expr(locals, depth - 1));
                format!("({a} {} {b})", self.pick(&["&&", "||"]))
            }
            7 => format!("{}({})", self.pick(&["-", "!", "~"]), self.leaf(locals)),
            _ => format!("mem[{} & 7]", self.expr(locals, depth - 1)),
        }
    }

    fn block(&mut self, locals: &mut Vec<String>, depth: u32, calls: &[&str], out: &mut String) {
        let scope = locals.len();
        for _ in 0..=self.below(4) {
            self.stmt(locals, depth, calls, out);
        }
        locals.truncate(scope);
    }

    fn stmt(&mut self, locals: &mut Vec<String>, depth: u32, calls: &[&str], out: &mut String) {
        let e = |g: &mut Gen, l: &[String]| g.expr(l, 2);
        match self.below(9) {
            2 => {
                let (i, v) = (e(self, locals), e(self, locals));
                out.push_str(&format!("mem[{i} & 7] = {v};\n"));
            }
            3 => {
                let name = format!("t{}", self.next() % 1000);
                out.push_str(&format!("int {name} = {};\n", e(self, locals)));
                locals.push(name);
            }
            // Loop counters (`i…`) stay read-only, so every loop ends.
            4 if locals.iter().any(|l| l.starts_with('t')) => {
                let temps: Vec<&String> = locals.iter().filter(|l| l.starts_with('t')).collect();
                let name = temps[self.below(temps.len() as u64) as usize].clone();
                out.push_str(&format!("{name} = {};\n", e(self, locals)));
            }
            4 | 5 if !calls.is_empty() => {
                let callee = self.pick(calls);
                if callee == "rec" {
                    out.push_str(&format!("depth = {};\n", self.below(9)));
                }
                out.push_str(&format!("{callee};\n"));
            }
            6 if depth > 0 => {
                out.push_str(&format!("if ({}) {{\n", e(self, locals)));
                self.block(locals, depth - 1, calls, out);
                out.push_str("} else {\n");
                self.block(locals, depth - 1, calls, out);
                out.push_str("}\n");
            }
            7 if depth > 0 => {
                let i = format!("i{}", self.next() % 1000);
                out.push_str(&format!("for (int {i} = 0; {i} < {}; {i}++) {{\n", self.below(4)));
                locals.push(i);
                self.block(locals, depth - 1, calls, out);
                locals.pop();
                out.push_str("}\n");
            }
            8 if depth > 0 => {
                let cond = e(self, locals);
                out.push_str(&format!("if ({cond}) {{\n"));
                self.block(locals, depth - 1, calls, out);
                out.push_str("}\n");
            }
            _ => {
                let target = self.pick(&["r0", "r1", "r2", "r3", "scal"]);
                out.push_str(&format!("{target} = {};\n", e(self, locals)));
            }
        }
    }

    fn behavior(&mut self, calls: &[&str]) -> String {
        let mut out = String::new();
        self.block(&mut Vec::new(), 2, calls, &mut out);
        out
    }
}

/// A random model: `main` and `helper` call the recursive `rec`, the
/// activating `noisy` and each other's callees at random.
fn random_model(seed: u64) -> String {
    let mut g = Gen(seed);
    let noisy = g.behavior(&[]);
    let helper = g.behavior(&["rec", "noisy"]);
    let main = g.behavior(&["helper", "rec", "noisy"]);
    let threshold = g.constant();
    format!(
        r"
RESOURCE {{
    PROGRAM_COUNTER int pc;
    REGISTER int r0; REGISTER int r1; REGISTER int r2; REGISTER int r3;
    REGISTER int depth;
    DATA_MEMORY int scal;
    DATA_MEMORY int mem[8];
}}
OPERATION rec {{
    BEHAVIOR {{ if (depth > 0) {{ depth = depth - 1; r3 = r3 + (depth * 3); rec; }} }}
}}
OPERATION tail {{ BEHAVIOR {{ r1 = r1 + 3; }} }}
OPERATION later {{ BEHAVIOR {{ r2 = (r2 ^ 6) - 1; }} }}
OPERATION noisy {{
    BEHAVIOR {{
{noisy}    }}
    ACTIVATION {{ tail; later; if (scal > {threshold}) {{ tail }} }}
}}
OPERATION helper {{
    BEHAVIOR {{
{helper}    }}
}}
OPERATION main {{
    BEHAVIOR {{
        depth = 7;
        rec;
        noisy;
{main}        pc = pc + 1;
    }}
}}
"
    )
}

const STEPS: u64 = 24;

fn watched(model: &Model, mode: SimMode) -> Simulator<'_> {
    let mut sim = Simulator::new(model, mode).expect("simulator builds");
    let probes = ProbeSpec::parse("watch scal; watch r1").expect("spec parses");
    sim.set_probes(probes.compile(model).expect("spec compiles"));
    sim.enable_arch_profile();
    sim
}

/// Steps ops and the interpreter in lockstep until `STEPS` or the first
/// error, comparing everything observable after each step.
fn ops_matches_interpreter(model: &Model) -> Result<(), TestCaseError> {
    let mut ops = watched(model, SimMode::Ops);
    let mut interp = watched(model, SimMode::Interpretive);
    for step in 0..STEPS {
        let (a, b) = (ops.step(), interp.step());
        prop_assert_eq!(
            a.as_ref().map_err(ToString::to_string),
            b.as_ref().map_err(ToString::to_string),
            "step {}",
            step
        );
        prop_assert_eq!(ops.state().digest(), interp.state().digest(), "step {}", step);
        prop_assert_eq!(ops.stats(), interp.stats(), "step {}", step);
        prop_assert_eq!(ops.arch_profile(), interp.arch_profile(), "step {}", step);
        if a.is_err() {
            break;
        }
    }
    Ok(())
}

/// A traced, probed run of `mode` to `STEPS` or the first error.
fn traced(model: &Model, mode: SimMode) -> (Vec<lisa_sim::TraceEvent>, Option<String>) {
    let mut sim = watched(model, mode);
    sim.set_trace(true);
    let err = sim.run(STEPS).err().map(|e| e.to_string());
    (sim.take_events(), err)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fused_and_inlined_code_runs_like_the_tree_walkers(seed in any::<u64>()) {
        let source = random_model(seed);
        let model = Model::from_source(&source).expect("generated model builds");
        ops_matches_interpreter(&model)?;
        let (ops_events, ops_err) = traced(&model, SimMode::Ops);
        let (compiled_events, compiled_err) = traced(&model, SimMode::Compiled);
        prop_assert_eq!(ops_err, compiled_err);
        prop_assert_eq!(ops_events, compiled_events);
    }
}

/// The generator reaches every translator path the property is about.
#[test]
fn generated_models_exercise_fusion_and_inlining() {
    let mut seen = [false; 6];
    for seed in 0..64 {
        let model = Model::from_source(&random_model(seed)).expect("generated model builds");
        let mut sim = Simulator::new(&model, SimMode::Ops).expect("simulator builds");
        let listing = sim.ops_listing();
        let checks = [
            listing.contains(" jz "),
            listing.lines().any(|l| l.contains("binop") && l.contains('#') && !l.contains("read")),
            listing.lines().any(|l| l.contains("read scal binop")),
            listing.contains("enter rec") && listing.contains("invoke rec"),
            listing.contains("invoke child"),
            sim.run(STEPS).is_err_and(|e| e.to_string().contains("division by zero")),
        ];
        for (s, c) in seen.iter_mut().zip(checks) {
            *s |= c;
        }
    }
    assert_eq!(seen, [true; 6], "fused jz, BinK, ScalarBinK, inline depth, child call, div by 0");
}
