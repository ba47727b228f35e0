//! Heap allocations on the cycle path, counted by a global allocator.
//!
//! Each model runs a steady loop for 10 000 control steps after a
//! warm-up. The ops backend must not allocate at all: routines are
//! borrowed from its code tables, frames and buffers are recycled. The
//! interpreter re-decodes every fetched word, so it may allocate what
//! those decodes need and nothing more: at most the decode count times
//! the allocations of the costliest decode of a program-memory word,
//! measured here through the same decoder.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use lisa_models::kernels::{load_kernel, Kernel};
use lisa_models::Workbench;
use lisa_sim::{SimMode, Simulator};

/// Counts the allocations (and reallocations) of the current thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// destructor-free thread-local touched without allocating.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: forwarded with the caller's guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by `f` on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

const WARMUP: u64 = 2_000;
const MEASURED: u64 = 10_000;

/// A loop per model that never halts: loads, arithmetic, a store or a
/// multiply-accumulate, and a branch back — every fetch decodes.
fn steady_loops() -> Vec<(&'static str, Workbench, &'static str)> {
    vec![
        (
            "vliw62",
            lisa_models::vliw62::workbench().expect("vliw62 builds"),
            r"
        MVK B0, 1
        ZERO A9
loop:   MVK A10, 0
        MVK B10, 1024
        LDH *+A10[0], A3
        LDH *+B10[0], B3
        NOP 1
        NOP 1
        NOP 1
        NOP 1
        MPY A4, A3, B3
        NOP 1
        ADD .L A9, A9, A4
        [B0] B loop
        NOP 1
        NOP 1
        NOP 1
        NOP 1
        NOP 1
",
        ),
        (
            "accu16",
            lisa_models::accu16::workbench().expect("accu16 builds"),
            r"
        .org 0x100
        CLR
loop:   LAR a0, 0
        LAR a1, 256
        LDLC 16
inner:  MOVP r0, a0
        MOVP r1, a1
        MAC r0, r1
        DBNZ inner
        STA 512
        JMP loop
",
        ),
        (
            "scalar2",
            lisa_models::scalar2::workbench().expect("scalar2 builds"),
            r"
        LDI R4, 1
loop:   LDI R1, 5
        LD R5, R1
        ADD R2, R2, R5
        SUB R3, R3, R4
        ST R2, R1
        BNZ R4, loop
",
        ),
        (
            "tinyrisc",
            lisa_models::tinyrisc::workbench().expect("tinyrisc builds"),
            r"
        LDI R2, 0
        LDI R5, 1
loop:   LD R6, R2
        ADD R1, R1, R6
        ADD R2, R2, R5
        MUL R3, R1, R5
        ST R3, R2
        JMP loop
",
        ),
    ]
}

fn load<'w>(wb: &'w Workbench, source: &str, mode: SimMode) -> Simulator<'w> {
    let kernel = Kernel {
        name: "steady_loop".into(),
        source: source.into(),
        data: Vec::new(),
        checks: Vec::new(),
        max_steps: WARMUP + MEASURED,
    };
    let mut sim = load_kernel(wb, &kernel, mode).expect("loop loads");
    sim.run(WARMUP).expect("warm-up runs");
    sim
}

/// The most allocations one decode of a program-memory word takes,
/// counting the `Arc` the simulator wraps it in.
fn allocations_per_decode(wb: &Workbench, sim: &Simulator<'_>) -> u64 {
    let decoder = wb.decoder().expect("decoder");
    let pmem = wb.model().resource_by_name(wb.program_memory()).expect("pmem");
    let base = pmem.dims.first().map_or(0, |d| d.base()) as i64;
    (0..sim.state().element_count(pmem.id) as i64)
        .map(|i| {
            let word = sim.state().read(pmem, &[base + i]).expect("in range").to_u128();
            allocations(|| drop(decoder.decode(word).map(Arc::new)))
        })
        .max()
        .unwrap_or(0)
}

#[test]
fn the_cycle_loop_allocates_only_for_interpretive_decodes() {
    for (model, wb, source) in steady_loops() {
        let mut ops = load(&wb, source, SimMode::Ops);
        let mut interp = load(&wb, source, SimMode::Interpretive);

        let ops_allocs = allocations(|| ops.run(MEASURED).expect("ops runs"));
        let decodes_before = interp.stats().decodes;
        let interp_allocs = allocations(|| interp.run(MEASURED).expect("interpretive runs"));
        let decodes = interp.stats().decodes - decodes_before;
        let per_decode = allocations_per_decode(&wb, &interp);
        eprintln!(
            "{model}: ops {ops_allocs} allocations, interpretive {:.1} per cycle for {:.2} \
             decodes per cycle (at most {per_decode} each)",
            interp_allocs as f64 / MEASURED as f64,
            decodes as f64 / MEASURED as f64
        );

        let halt = wb.model().resource_by_name(wb.halt_flag()).expect("halt flag");
        assert_eq!(interp.state().read_int(halt, &[]).unwrap(), 0, "{model}: the loop halted");
        assert_eq!(ops.state().digest(), interp.state().digest(), "{model}: backends differ");
        assert!(decodes >= MEASURED / 4, "{model}: the loop stopped decoding");
        assert_eq!(ops_allocs, 0, "{model}: ops allocated in the cycle loop");
        assert!(
            interp_allocs <= decodes * per_decode,
            "{model}: interpreter made {interp_allocs} allocations for {decodes} decodes of at \
             most {per_decode} each"
        );
    }
}
