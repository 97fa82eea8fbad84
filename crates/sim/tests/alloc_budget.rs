//! Allocation budget of the simulated pipeline's hot path.
//!
//! The `NullProbe` path must perform no heap allocation per simulated
//! cycle or per warp instruction: every per-cycle buffer is reused and
//! every per-instruction operand list is inline. This test counts the
//! allocations of whole launches with a counting global allocator and
//! runs the same ALU-heavy loop kernel at trip counts `N` and `2N`. The
//! difference cancels set-up (GPU construction, block launch, result
//! packaging), leaving the allocations the extra loop iterations cost.
//! That must stay well below one per extra warp instruction.

use bow_isa::{CmpOp, Kernel, KernelBuilder, KernelDims, Operand, Pred, Reg};
use bow_sim::collector::CollectorKind;
use bow_sim::config::CoreModelKind;
use bow_sim::{Gpu, GpuConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts allocations made by the current thread. Thread-local, so tests
/// running in parallel (and the harness itself) do not disturb each other.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call forwards unchanged to the system allocator; the
// counter is a const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Extra allocations allowed per extra warp instruction.
const BUDGET: f64 = 0.5;

/// An ALU-heavy loop: `trips` iterations of a dependent integer/FMA chain
/// plus the loop counter, then one store so the work is observable.
fn loop_kernel(trips: u32) -> Kernel {
    let r = Reg::r;
    KernelBuilder::new("alu_loop")
        .param_words(1)
        .s2r(r(0), bow_isa::Special::TidX)
        .mov_imm(r(1), 0)
        .mov_imm(r(2), 3)
        .mov_imm(r(3), 0)
        .label("loop")
        .iadd(r(2), r(2).into(), r(0).into())
        .imad(r(3), r(2).into(), r(2).into(), r(3).into())
        .xor(r(4), r(3).into(), r(2).into())
        .shl(r(5), r(4).into(), Operand::Imm(1))
        .ffma(r(6), r(5).into(), r(4).into(), r(6).into())
        .iadd(r(1), r(1).into(), Operand::Imm(1))
        .isetp(CmpOp::Lt, Pred::p(0), r(1).into(), Operand::Imm(trips))
        .bra_if(Pred::p(0), false, "loop")
        .shl(r(7), r(0).into(), Operand::Imm(2))
        .ldc(r(8), 0)
        .iadd(r(8), r(8).into(), r(7).into())
        .stg(r(8), 0, r(6).into())
        .exit()
        .build()
        .expect("loop kernel builds")
}

/// Allocations and warp instructions of one launch (GPU set-up included).
fn measure(config: &GpuConfig, kernel: &Kernel) -> (u64, u64) {
    let before = ALLOCS.with(Cell::get);
    let mut gpu = Gpu::new(config.clone());
    let result = gpu.launch(kernel, KernelDims::linear(4, 128), &[0x1_0000]);
    let allocs = ALLOCS.with(Cell::get) - before;
    assert!(result.completed, "loop kernel must finish");
    (allocs, result.stats.warp_instructions)
}

/// Extra allocations per extra warp instruction between trip counts `n`
/// and `2n`, after one warm-up launch.
fn marginal_rate(config: &GpuConfig, prepare: impl Fn(Kernel) -> Kernel) -> f64 {
    const N: u32 = 40;
    let short = prepare(loop_kernel(N));
    let long = prepare(loop_kernel(2 * N));
    measure(config, &short);
    let (a1, w1) = measure(config, &short);
    let (a2, w2) = measure(config, &long);
    assert!(w2 > w1, "the longer loop must retire more instructions");
    (a2 as f64 - a1 as f64) / (w2 - w1) as f64
}

#[test]
fn pascal_bow_wr_hot_path_does_not_allocate() {
    let config = GpuConfig::scaled(CollectorKind::bow_wr(3));
    let rate = marginal_rate(&config, |k| k);
    assert!(
        rate < BUDGET,
        "scaled Pascal BOW-WR IW3: {rate:.2} allocations per extra warp instruction"
    );
}

#[test]
fn pascal_baseline_hot_path_does_not_allocate() {
    let config = GpuConfig::scaled(CollectorKind::Baseline);
    let rate = marginal_rate(&config, |k| k);
    assert!(
        rate < BUDGET,
        "scaled Pascal baseline: {rate:.2} allocations per extra warp instruction"
    );
}

#[test]
fn modern_hot_path_does_not_allocate() {
    let config = GpuConfig {
        core_model: CoreModelKind::Modern,
        ..GpuConfig::scaled(CollectorKind::bow_wr(3))
    };
    let rate = marginal_rate(&config, |k| {
        bow_compiler::emit_ctrl(&k, &bow_compiler::CtrlLatencies::default())
    });
    assert!(
        rate < BUDGET,
        "modern BOW-WR IW3: {rate:.2} allocations per extra warp instruction"
    );
}
