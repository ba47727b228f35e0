//! Model-driven program synthesis.
//!
//! The generator walks a model's decode-root coding tree — the same
//! structure `lisa-isa` builds decoders from — and fills each field:
//! fixed pattern bits are copied, operand (label) bits are drawn from the
//! random stream, group fields recursively select and encode an
//! alternative. Every emitted word is validated against the real
//! [`Decoder`], so synthesized programs are legal by construction rather
//! than by a hand-maintained instruction table.
//!
//! Termination is guaranteed structurally: the program image fills the
//! *entire* program memory, with the synthesized instruction sequence as
//! a prefix and the model's canonical halt word everywhere else. A
//! branch to any address inside the memory therefore lands on a halt
//! instruction; backwards loops that never escape are cut off by the
//! harness cycle budget instead. The halt word itself is discovered from
//! the model: the generator scans every instruction's behavior tree for
//! an assignment to the workbench's halt flag and proves the candidate
//! empirically by running it in a one-packet program.

use lisa_core::ast::{Block, Expr, Stmt};
use lisa_core::model::{CodingTarget, Model, OpId};
use lisa_isa::Decoder;
use lisa_models::Workbench;
use lisa_sim::SimMode;

use crate::coverage::{path_key, CoverageMap, JUNK_PATH};
use crate::rng::Rng;

/// Upper bound on the synthesized program image, in words. Memories
/// larger than this keep their tail at zero; a branch past the fill
/// fails to decode identically in both backends, which the oracles
/// treat as agreement.
const MAX_IMAGE_WORDS: usize = 2048;

/// Recursion limit while expanding coding trees (guards against
/// pathological self-referential groups).
const MAX_ENCODE_DEPTH: u32 = 24;

/// How often a raw, unvalidated word is emitted instead of a legal
/// instruction (1 in `JUNK_DENOMINATOR`). Junk words exercise the
/// "both backends reject identically" path: pre-decode skips them and
/// the live decode raises the same diagnostic in either mode.
const JUNK_DENOMINATOR: u64 = 24;

/// A generator construction failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenError {
    /// The model has no decoder (no decode root) or the workbench could
    /// not be queried.
    Workbench(String),
    /// The decode root's coding references no instruction alternatives.
    NoInstructions,
    /// No instruction that demonstrably sets the halt flag was found.
    NoHaltWord {
        /// The halt flag that was searched for.
        halt_flag: String,
    },
}

impl std::fmt::Display for GenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenError::Workbench(msg) => write!(f, "workbench error: {msg}"),
            GenError::NoInstructions => {
                write!(f, "decode root has no instruction alternatives to synthesize from")
            }
            GenError::NoHaltWord { halt_flag } => {
                write!(f, "no instruction provably sets halt flag `{halt_flag}`")
            }
        }
    }
}

impl std::error::Error for GenError {}

/// A seeded, deterministic program generator for one workbench.
pub struct ProgramGen<'w> {
    wb: &'w Workbench,
    decoder: Decoder<'w>,
    instructions: Vec<OpId>,
    halt_word: u128,
    image_words: usize,
}

impl<'w> ProgramGen<'w> {
    /// Builds a generator for the workbench's model.
    ///
    /// # Errors
    ///
    /// [`GenError`] when the model has no decoder, no instructions, or
    /// no discoverable halt instruction.
    pub fn new(wb: &'w Workbench) -> Result<ProgramGen<'w>, GenError> {
        let model = wb.model();
        let decoder = wb.decoder().map_err(|e| GenError::Workbench(e.to_string()))?;
        let instructions = instruction_ops(model, decoder.root());
        if instructions.is_empty() {
            return Err(GenError::NoInstructions);
        }
        let mem = model
            .resource_by_name(wb.program_memory())
            .ok_or_else(|| GenError::Workbench(format!("no resource `{}`", wb.program_memory())))?;
        let image_words =
            usize::try_from(mem.element_count()).unwrap_or(MAX_IMAGE_WORDS).min(MAX_IMAGE_WORDS);

        let mut gen = ProgramGen { wb, decoder, instructions, halt_word: 0, image_words };
        gen.halt_word = gen.find_halt_word()?;
        Ok(gen)
    }

    /// The instruction word width in bits.
    #[must_use]
    pub fn word_width(&self) -> u32 {
        self.decoder.word_width()
    }

    /// The canonical halting word the generator pads images with.
    #[must_use]
    pub fn halt_word(&self) -> u128 {
        self.halt_word
    }

    /// The instruction alternatives the generator draws from.
    #[must_use]
    pub fn instructions(&self) -> &[OpId] {
        &self.instructions
    }

    /// Number of words in a full program image.
    #[must_use]
    pub fn image_words(&self) -> usize {
        self.image_words
    }

    /// Synthesizes a program prefix of `1..=max_len` words from the
    /// random stream. The prefix is the shrinkable test case; wrap it
    /// with [`ProgramGen::image`] before loading it into a simulator.
    pub fn gen_program(&self, rng: &mut Rng, max_len: usize) -> Vec<u128> {
        let budget = self.image_words.saturating_sub(1).max(1);
        let len = 1 + rng.below(max_len.clamp(1, budget));
        (0..len).map(|_| self.gen_word(rng)).collect()
    }

    /// One synthesized word: a validated legal instruction, or (rarely)
    /// a raw junk word to exercise the shared decode-failure path.
    pub fn gen_word(&self, rng: &mut Rng) -> u128 {
        if rng.chance(1, JUNK_DENOMINATOR) {
            return rng.bits(self.word_width());
        }
        for _ in 0..8 {
            let op = self.instructions[rng.below(self.instructions.len())];
            if let Some(word) = self.encode(op, Some(rng), 0) {
                if self.decoder.decode(word).is_ok() {
                    return word;
                }
            }
        }
        self.halt_word
    }

    /// The coding-tree path of one word: the structural shape of its
    /// decode, or [`JUNK_PATH`] when the word does not decode. Computed
    /// from the word alone (not from generator choices), so coverage is
    /// identical whether a program is generated, replayed, or
    /// regenerated on another machine.
    #[must_use]
    pub fn path_of(&self, word: u128) -> u64 {
        match self.decoder.decode(word) {
            Ok(decoded) => path_key(&decoded),
            Err(_) => JUNK_PATH,
        }
    }

    /// Coverage reached by a program prefix: one path record per word.
    #[must_use]
    pub fn coverage_of(&self, words: &[u128]) -> CoverageMap {
        let mut map = CoverageMap::new();
        for &word in words {
            map.record(self.path_of(word));
        }
        map
    }

    /// Expands a program prefix into a full memory image padded with the
    /// halt word, so every reachable address terminates the run.
    #[must_use]
    pub fn image(&self, prefix: &[u128]) -> Vec<u128> {
        let mut image = prefix.to_vec();
        image.truncate(self.image_words);
        image.resize(self.image_words, self.halt_word);
        image
    }

    /// Encodes one operation. `rng` draws free bits and group choices;
    /// `None` selects the canonical zero-filled / first-member encoding
    /// used for the halt word.
    fn encode(&self, op_id: OpId, mut rng: Option<&mut Rng>, depth: u32) -> Option<u128> {
        if depth > MAX_ENCODE_DEPTH {
            return None;
        }
        let model = self.wb.model();
        let op = model.operation(op_id);
        let with_coding: Vec<usize> =
            (0..op.variants.len()).filter(|&i| op.variants[i].coding.is_some()).collect();
        let variant_idx = match rng.as_deref_mut() {
            Some(r) if with_coding.len() > 1 => with_coding[r.below(with_coding.len())],
            _ => *with_coding.first()?,
        };
        let variant = &op.variants[variant_idx];
        let coding = variant.coding.as_ref()?;

        let mut word = 0u128;
        for field in &coding.fields {
            let bits = match &field.target {
                CodingTarget::Pattern(p) | CodingTarget::Label { pattern: p, .. } => {
                    let free = match rng.as_deref_mut() {
                        Some(r) => {
                            // Bias operand values small so branch targets
                            // and addresses usually stay in-image.
                            if matches!(field.target, CodingTarget::Label { .. }) && r.chance(1, 2)
                            {
                                r.bits(p.width().min(4))
                            } else {
                                r.bits(p.width())
                            }
                        }
                        None => 0,
                    };
                    p.fixed_value() | (free & !p.fixed_mask())
                }
                CodingTarget::Group(g) => {
                    let members = &op.groups[*g].members;
                    let pinned = variant.guard.iter().find(|(gi, _)| gi == g).map(|&(_, m)| m);
                    let member = match (pinned, rng.as_deref_mut()) {
                        (Some(m), _) => m,
                        (None, Some(r)) => members[r.below(members.len())],
                        (None, None) => *members.first()?,
                    };
                    self.encode(member, rng.as_deref_mut(), depth + 1)?
                }
                CodingTarget::Op(o) => self.encode(*o, rng.as_deref_mut(), depth + 1)?,
            };
            word |= bits << field.offset;
        }
        Some(word)
    }

    /// Finds the canonical halt word: scan instruction behaviors for an
    /// assignment to the halt flag, encode each candidate zero-filled,
    /// and prove it by running a one-packet program to halt.
    fn find_halt_word(&self) -> Result<u128, GenError> {
        let model = self.wb.model();
        let halt = self.wb.halt_flag();
        for &op in &self.instructions {
            let mut visited = Vec::new();
            if !writes_halt(model, op, halt, &mut visited) {
                continue;
            }
            let Some(word) = self.encode(op, None, 0) else { continue };
            if self.decoder.decode(word).is_err() {
                continue;
            }
            // Eight copies cover VLIW fetch packets as well as scalar
            // fetch; the first executed copy must raise the flag.
            let program = vec![word; 8];
            let Ok(mut sim) = self.wb.simulator(SimMode::Interpretive) else { continue };
            if sim.load_program(self.wb.program_memory(), &program).is_err() {
                continue;
            }
            if self.wb.run_to_halt(&mut sim, 64).is_ok() {
                return Ok(word);
            }
        }
        Err(GenError::NoHaltWord { halt_flag: halt.to_owned() })
    }
}

/// Instruction alternatives reachable from the decode root's coding
/// (groups contribute their members, direct references themselves).
fn instruction_ops(model: &Model, root: OpId) -> Vec<OpId> {
    let mut ops = Vec::new();
    let root_op = model.operation(root);
    for variant in &root_op.variants {
        let Some(coding) = &variant.coding else { continue };
        for field in &coding.fields {
            match &field.target {
                CodingTarget::Group(g) => {
                    for &m in &root_op.groups[*g].members {
                        if !ops.contains(&m) {
                            ops.push(m);
                        }
                    }
                }
                CodingTarget::Op(o) if !ops.contains(o) => ops.push(*o),
                _ => {}
            }
        }
    }
    ops
}

/// Whether any behavior reachable from `op` assigns the halt flag.
fn writes_halt(model: &Model, op_id: OpId, halt: &str, visited: &mut Vec<OpId>) -> bool {
    if visited.contains(&op_id) {
        return false;
    }
    visited.push(op_id);
    let op = model.operation(op_id);
    for variant in &op.variants {
        if let Some(behavior) = &variant.behavior {
            if block_writes(behavior, halt) {
                return true;
            }
        }
    }
    let reachable: Vec<OpId> = op
        .groups
        .iter()
        .flat_map(|g| g.members.iter().copied())
        .chain(op.references.iter().copied())
        .collect();
    reachable.into_iter().any(|next| writes_halt(model, next, halt, visited))
}

fn block_writes(block: &Block, halt: &str) -> bool {
    block.stmts.iter().any(|s| stmt_writes(s, halt))
}

fn stmt_writes(stmt: &Stmt, halt: &str) -> bool {
    match stmt {
        Stmt::Assign { target, .. } | Stmt::IncDec { target, .. } => target_is_halt(target, halt),
        Stmt::If { then_block, else_block, .. } => {
            block_writes(then_block, halt) || block_writes(else_block, halt)
        }
        Stmt::While { body, .. } | Stmt::DoWhile { body, .. } => block_writes(body, halt),
        Stmt::For { init, step, body, .. } => {
            init.as_deref().is_some_and(|s| stmt_writes(s, halt))
                || step.as_deref().is_some_and(|s| stmt_writes(s, halt))
                || block_writes(body, halt)
        }
        Stmt::Switch { cases, default, .. } => {
            cases.iter().any(|(_, b)| block_writes(b, halt))
                || default.as_ref().is_some_and(|b| block_writes(b, halt))
        }
        Stmt::Block(b) => block_writes(b, halt),
        Stmt::Local { .. } | Stmt::Expr(_) | Stmt::Break | Stmt::Continue => false,
    }
}

fn target_is_halt(expr: &Expr, halt: &str) -> bool {
    match expr {
        Expr::Name(id) => id.name == halt,
        Expr::Index { base, .. } => target_is_halt(base, halt),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_workbenches() -> Vec<(&'static str, Workbench)> {
        vec![
            ("tinyrisc", lisa_models::tinyrisc::workbench().unwrap()),
            ("scalar2", lisa_models::scalar2::workbench().unwrap()),
            ("accu16", lisa_models::accu16::workbench().unwrap()),
            ("vliw62", lisa_models::vliw62::workbench().unwrap()),
        ]
    }

    #[test]
    fn builds_for_every_builtin_model() {
        for (name, wb) in all_workbenches() {
            let gen = ProgramGen::new(&wb).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!gen.instructions().is_empty(), "{name}: no instructions");
            assert!(gen.image_words() > 0, "{name}: empty image");
        }
    }

    #[test]
    fn halt_word_halts_every_model() {
        for (name, wb) in all_workbenches() {
            let gen = ProgramGen::new(&wb).unwrap_or_else(|e| panic!("{name}: {e}"));
            let image = gen.image(&[]);
            let mut sim = wb.simulator(SimMode::Interpretive).unwrap();
            sim.load_program(wb.program_memory(), &image).unwrap();
            wb.run_to_halt(&mut sim, 64)
                .unwrap_or_else(|e| panic!("{name}: halt image did not halt: {e}"));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        for (name, wb) in all_workbenches() {
            let gen = ProgramGen::new(&wb).unwrap_or_else(|e| panic!("{name}: {e}"));
            let a = gen.gen_program(&mut Rng::new(1234), 24);
            let b = gen.gen_program(&mut Rng::new(1234), 24);
            assert_eq!(a, b, "{name}: same seed produced different programs");
            let c = gen.gen_program(&mut Rng::new(1235), 24);
            assert!(a != c || a.len() == 1, "{name}: different seeds should usually differ");
        }
    }

    #[test]
    fn coverage_is_a_pure_function_of_words() {
        for (name, wb) in all_workbenches() {
            let gen = ProgramGen::new(&wb).unwrap_or_else(|e| panic!("{name}: {e}"));
            let words = gen.gen_program(&mut Rng::new(42), 32);
            let a = gen.coverage_of(&words);
            let b = gen.coverage_of(&words);
            assert_eq!(a, b, "{name}: coverage not deterministic");
            assert!(!a.is_empty(), "{name}: program covered nothing");
            // Distinct instructions must land on distinct paths: the
            // halt word and a junk word cannot share one.
            let halt_path = gen.path_of(gen.halt_word());
            assert_ne!(halt_path, crate::coverage::JUNK_PATH);
        }
    }

    #[test]
    fn generated_words_mostly_decode() {
        for (name, wb) in all_workbenches() {
            let gen = ProgramGen::new(&wb).unwrap_or_else(|e| panic!("{name}: {e}"));
            let decoder = Decoder::new(wb.model()).unwrap();
            let mut rng = Rng::new(99);
            let words = gen.gen_program(&mut rng, 64);
            let decodable = words.iter().filter(|&&w| decoder.decode(w).is_ok()).count();
            // Junk words are rare; the bulk must be legal instructions.
            assert!(
                decodable * 2 >= words.len(),
                "{name}: only {decodable}/{} words decode",
                words.len()
            );
        }
    }
}
