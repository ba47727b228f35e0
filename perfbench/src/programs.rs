//! The four bundled models and the long-running programs of the
//! `steady_run` workload, each with golden values computed here in Rust.
//!
//! Every program wraps an existing kernel body (dot product, memory sum,
//! unrolled FIR) in an outer repetition loop so it runs long enough for
//! the cycle loop to reach steady state. The seed chooses the data; the
//! control flow, and so every simulator statistic, does not depend on it.

use lisa_asm::Assembler;
use lisa_bits::Bits;
use lisa_core::model::Resource;
use lisa_core::Model;
use lisa_models::kernels::{Check, Kernel};
use lisa_models::{accu16, scalar2, tinyrisc, vliw62};
use lisa_sim::{SimMode, Simulator, State};

use crate::rng::SplitMix;

/// How one bundled model is wired: its source and the resources a
/// loader and a halt check need.
#[derive(Debug, Clone, Copy)]
pub struct ModelSpec {
    /// Registry name, as `/v1/simulate` takes it.
    pub name: &'static str,
    /// The LISA description.
    pub source: &'static str,
    /// The program-memory resource.
    pub program_memory: &'static str,
    /// The halt-flag resource.
    pub halt_flag: &'static str,
    /// VLIW fetch-packet size, when packet assembly applies.
    pub packet: Option<usize>,
}

/// The four bundled models, in report order.
pub const MODELS: [ModelSpec; 4] = [
    ModelSpec {
        name: "vliw62",
        source: vliw62::SOURCE,
        program_memory: "pmem",
        halt_flag: "halt",
        packet: Some(vliw62::FETCH_PACKET),
    },
    ModelSpec {
        name: "accu16",
        source: accu16::SOURCE,
        program_memory: "prog_mem",
        halt_flag: "halt",
        packet: None,
    },
    ModelSpec {
        name: "scalar2",
        source: scalar2::SOURCE,
        program_memory: "pmem",
        halt_flag: "halt",
        packet: None,
    },
    ModelSpec {
        name: "tinyrisc",
        source: tinyrisc::SOURCE,
        program_memory: "pmem",
        halt_flag: "halt",
        packet: None,
    },
];

impl ModelSpec {
    /// The assembler the service uses for this model.
    #[must_use]
    pub fn assembler<'m>(&self, model: &'m Model) -> Assembler<'m> {
        match self.packet {
            Some(n) => Assembler::with_packet(model, n, 1),
            None => Assembler::new(model),
        }
    }
}

/// The three backends, with the names metrics use.
pub const BACKENDS: [(SimMode, &str); 3] =
    [(SimMode::Interpretive, "interp"), (SimMode::Compiled, "compiled"), (SimMode::Ops, "ops")];

impl ModelSpec {
    /// The halt-flag resource of `model`.
    ///
    /// # Errors
    ///
    /// When the model lacks it.
    pub fn halt<'m>(&self, model: &'m Model) -> Result<&'m Resource, String> {
        model.resource_by_name(self.halt_flag).ok_or_else(|| format!("{}: no halt flag", self.name))
    }

    /// Program words laid out from the program memory's base address:
    /// the assembled image, preceded by zero words up to its origin.
    ///
    /// # Errors
    ///
    /// When the model lacks the memory or the origin lies below its base.
    pub fn image(&self, model: &Model, origin: u64, words: &[u128]) -> Result<Vec<u128>, String> {
        let pmem = model
            .resource_by_name(self.program_memory)
            .ok_or_else(|| format!("{}: no `{}`", self.name, self.program_memory))?;
        let base = pmem.dims.first().map_or(0, |d| d.base());
        let pad =
            origin.checked_sub(base).ok_or_else(|| format!("{}: origin below base", self.name))?;
        let mut image = vec![0; pad as usize];
        image.extend_from_slice(words);
        Ok(image)
    }

    /// A simulator of `model` on `mode` with `data` written and the
    /// program `image` loaded through [`Simulator::load_program`], which
    /// also predecodes and translates on the compiled and ops backends.
    ///
    /// # Errors
    ///
    /// Construction, data or loading errors, described.
    pub fn load<'m>(
        &self,
        model: &'m Model,
        mode: SimMode,
        data: &[(&'static str, i64, i64)],
        image: &[u128],
    ) -> Result<Simulator<'m>, String> {
        let err = |e: lisa_sim::SimError| format!("{} {mode:?}: {e}", self.name);
        let mut sim = Simulator::new(model, mode).map_err(err)?;
        for &(name, addr, value) in data {
            let res = model.resource_by_name(name).ok_or_else(|| format!("no `{name}`"))?;
            sim.state_mut().write_int(res, &[addr], value).map_err(err)?;
        }
        sim.load_program(self.program_memory, image).map_err(err)?;
        Ok(sim)
    }
}

/// The kernels `/v1/simulate` bodies are drawn from, per model in
/// [`MODELS`] order: the twelve bundled kernels.
#[must_use]
pub fn request_kernels() -> [Vec<Kernel>; 4] {
    use lisa_models::kernels::{accu_suite, scalar_suite, tiny_suite, vliw_suite};
    [vliw_suite(), accu_suite(), scalar_suite(), tiny_suite()]
}

/// The `steady_run` program of model `model` (an index into
/// [`MODELS`]), with data drawn from `seed`: tight loops on vliw62,
/// scalar2 and tinyrisc, and on accu16 the unrolled FIR, whose image of
/// ~260 distinct words exercises decode lookup over a large program.
/// vliw62 runs ~1.4×10⁵ cycles (~1.2×10⁶ operations), the others ~10⁶.
///
/// # Panics
///
/// Panics for a model index outside [`MODELS`].
#[must_use]
pub fn steady_program(model: usize, seed: u64) -> Kernel {
    let mut rng = SplitMix::new(seed, 0x5354_4541_4459 + model as u64);
    match model {
        0 => vliw_dot_rep(&mut rng, 32, 270),
        1 => accu_fir_rep(&mut rng, 4, 16, 4000),
        2 => scalar_dot_rep(&mut rng, 24, 6700),
        3 => tiny_memsum_rep(&mut rng, 24, 13),
        _ => panic!("no model #{model}"),
    }
}

fn samples(rng: &mut SplitMix, n: usize, magnitude: i64) -> Vec<i64> {
    (0..n).map(|_| rng.signed(magnitude)).collect()
}

/// `value` reduced to a `width`-bit two's-complement integer.
fn wrap(width: u32, value: i64) -> i64 {
    Bits::from_i128_wrapped(width, i128::from(value)).to_i128() as i64
}

fn nops(n: usize) -> String {
    "        NOP 1\n".repeat(n)
}

/// vliw62: a 16-bit dot product repeated `reps` times into one 32-bit
/// accumulator (A9, also stored at byte 2048).
fn vliw_dot_rep(rng: &mut SplitMix, n: usize, reps: i64) -> Kernel {
    let x = samples(rng, n, 1000);
    let y = samples(rng, n, 1000);
    let dot: i64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
    let golden = wrap(32, reps * dot);
    let mut data = Vec::new();
    for (base, values) in [(0, &x), (1024, &y)] {
        for (i, &v) in values.iter().enumerate() {
            data.push(("dmem", base + 2 * i as i64, v & 0xFF));
            data.push(("dmem", base + 2 * i as i64 + 1, (v >> 8) & 0xFF));
        }
    }
    let branch_delay = nops(5);
    let source = format!(
        "        MVK B2, {reps}      ; repetitions
        MVK B9, 1
        ZERO A9             ; accumulator, kept across repetitions
rep:    MVK A10, 0          ; &x (bytes)
        MVK B10, 1024       ; &y
        MVK B0, {n}
loop:   LDH *+A10[0], A3
        LDH *+B10[0], B3
        ADDK A10, 2
     || ADDK B10, 2
        NOP 1
        NOP 1
        NOP 1               ; load delay slots
        MPY A4, A3, B3
        NOP 1               ; multiply delay slot
        ADD .L A9, A9, A4
     || SUB .L B0, B0, B9
        [B0] B loop
{branch_delay}        SUB .L B2, B2, B9
        [B2] B rep
{branch_delay}        MVK A11, 2048
        STW A9, *+A11[0]
        HALT
"
    );
    let mut checks = vec![Check::Reg { resource: "A", index: 9, value: golden }];
    for k in 0..4 {
        checks.push(Check::Mem {
            resource: "dmem",
            addr: 2048 + k,
            value: (golden >> (8 * k)) & 0xFF,
        });
    }
    checks.push(Check::Reg { resource: "B", index: 2, value: 0 });
    Kernel {
        name: format!("vliw_dot_{n}_x{reps}"),
        source,
        data,
        checks,
        max_steps: 600 * reps as u64,
    }
}

/// accu16: the fully unrolled FIR (one straight-line MAC chain per
/// output, every word distinct) repeated `reps` times by the hardware
/// loop — the large-image program among the tight loops.
fn accu_fir_rep(rng: &mut SplitMix, taps: usize, outputs: usize, reps: i64) -> Kernel {
    let h = samples(rng, taps, 40);
    let x = samples(rng, outputs + taps, 120);
    let mut data = Vec::new();
    for (i, &v) in x.iter().enumerate() {
        data.push(("data_mem1", i as i64, v));
    }
    for (k, &v) in h.iter().enumerate() {
        data.push(("data_mem1", 256 + k as i64, v));
    }
    let mut source = format!("        .org 0x100\n        LDLC {reps}\n");
    for i in 0..outputs {
        let label = if i == 0 { "rep:" } else { "" };
        source.push_str(&format!("{label:<8}CLR\n        LAR a0, {i}\n        LAR a1, 256\n"));
        source.push_str(
            &"        MOVP r0, a0\n        MOVP r1, a1\n        MAC r0, r1\n".repeat(taps),
        );
        source.push_str(&format!("        STA {}\n", 512 + i));
    }
    source.push_str("        DBNZ rep\n        HLT\n");
    let checks = (0..outputs)
        .map(|i| {
            let y: i64 = (0..taps).map(|k| h[k] * x[i + k]).sum();
            Check::Mem { resource: "data_mem1", addr: 512 + i as i64, value: y }
        })
        .collect();
    Kernel {
        name: format!("accu_fir_unrolled_{taps}x{outputs}_x{reps}"),
        source,
        data,
        checks,
        max_steps: ((3 * taps as u64 + 5) * outputs as u64 + 10) * reps as u64,
    }
}

/// scalar2: a dot product repeated `reps` times into one accumulator
/// (R5, also stored at `dmem[128]`).
fn scalar_dot_rep(rng: &mut SplitMix, n: usize, reps: i64) -> Kernel {
    let x = samples(rng, n, 120);
    let y = samples(rng, n, 120);
    let dot: i64 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
    let golden = wrap(32, reps * dot);
    let mut data = Vec::new();
    for (i, (&a, &b)) in x.iter().zip(&y).enumerate() {
        data.push(("dmem", i as i64, a));
        data.push(("dmem", 64 + i as i64, b));
    }
    let source = format!(
        "        LDI R10, {reps}     ; repetitions
        LDI R4, 1
        LDI R5, 0           ; accumulator, kept across repetitions
rep:    LDI R1, 0           ; &x
        LDI R2, 64          ; &y
        LDI R3, {n}
loop:   LD R6, R1
        LD R7, R2
        MUL R8, R6, R7
        ADD R5, R5, R8
        ADD R1, R1, R4
        ADD R2, R2, R4
        SUB R3, R3, R4
        BNZ R3, loop
        SUB R10, R10, R4
        BNZ R10, rep
        LDI R9, 128
        ST R5, R9
        HLT
"
    );
    Kernel {
        name: format!("scalar_dot_{n}_x{reps}"),
        source,
        data,
        checks: vec![
            Check::Reg { resource: "R", index: 5, value: golden },
            Check::Mem { resource: "dmem", addr: 128, value: golden },
            Check::Reg { resource: "R", index: 10, value: 0 },
        ],
        max_steps: (8 * n as u64 + 20) * reps as u64,
    }
}

/// tinyrisc: a memory sum repeated `1 << shift` times into one
/// accumulator (R1, also stored at `dmem[200]`).
fn tiny_memsum_rep(rng: &mut SplitMix, n: usize, shift: u32) -> Kernel {
    let x = samples(rng, n, 900);
    let reps = 1i64 << shift;
    let golden = wrap(32, reps * x.iter().sum::<i64>());
    let data = x.iter().enumerate().map(|(i, &v)| ("dmem", i as i64, v)).collect();
    let source = format!(
        "        LDI R7, 1
        SHL R7, R7, {shift} ; repetitions
        LDI R1, 0           ; sum, kept across repetitions
        LDI R4, -1
        LDI R5, 1
rep:    LDI R2, 0           ; cursor
        LDI R3, {n}
loop:   LD R6, R2
        ADD R1, R1, R6
        ADD R2, R2, R5
        ADD R3, R3, R4
        BNZ loop
        ADD R7, R7, R4
        BNZ rep
        LDI R6, 25
        SHL R6, R6, 3       ; 200 = 25 << 3
        ST R1, R6
        HLT
"
    );
    Kernel {
        name: format!("tiny_memsum_{n}_x{reps}"),
        source,
        data,
        checks: vec![
            Check::Reg { resource: "R", index: 1, value: golden },
            Check::Mem { resource: "dmem", addr: 200, value: golden },
            Check::Reg { resource: "R", index: 7, value: 0 },
        ],
        max_steps: (6 * n as u64 + 10) * reps as u64,
    }
}

/// Checks a finished run's state against a kernel's golden values,
/// comparing modulo each resource's width.
///
/// # Errors
///
/// The first mismatch, described.
pub fn verify(model: &Model, kernel: &Kernel, state: &State) -> Result<(), String> {
    for check in &kernel.checks {
        let (resource, addr, expected) = match check {
            Check::Mem { resource, addr, value } | Check::Reg { resource, index: addr, value } => {
                (*resource, *addr, *value)
            }
        };
        let res = model
            .resource_by_name(resource)
            .ok_or_else(|| format!("{}: no resource `{resource}`", kernel.name))?;
        let indices: &[i64] = if res.is_array() { &[addr] } else { &[] };
        let got = state.read(res, indices).map_err(|e| format!("{}: {e}", kernel.name))?;
        let want = Bits::from_i128_wrapped(res.ty.width(), i128::from(expected));
        if got != want {
            return Err(format!(
                "{}: {resource}[{addr}] = {got}, expected {expected}",
                kernel.name
            ));
        }
    }
    Ok(())
}

/// Number of source lines that carry an instruction or directive.
#[must_use]
pub fn source_lines(source: &str) -> usize {
    source
        .lines()
        .map(|l| l.split(';').next().unwrap_or(""))
        .filter(|l| {
            let t = l.trim();
            !t.is_empty() && !t.ends_with(':')
        })
        .count()
}
