//! The modern core: a post-Volta sub-core organization.
//!
//! Models the SM structure "Analyzing Modern NVIDIA GPU cores"
//! (arXiv 2503.20481) documents for Volta and later:
//!
//! * **Sub-cores** — the SM splits into `schedulers_per_sm` (four on real
//!   parts) processing blocks, each with a private warp scheduler, a
//!   private slice of the operand collectors, and a private register-file
//!   bank group (warp `w` lives on sub-core `w % n`, enforced by the
//!   clustered [`RegFile`](crate::regfile::RegFile) mapping). Only the
//!   memory system, functional-unit issue budgets and the completion
//!   crossbar are SM-wide.
//! * **Control bits instead of a scoreboard** — fixed-latency dependences
//!   come from the compiler: each instruction carries a stall count and
//!   wait/read/write barrier fields ([`CtrlBits`]) the issue logic obeys.
//!   Kernels without the sidecar run under a conservative one-in-flight
//!   interlock, so the bits are a timing contract, never a correctness
//!   one — correctness rests on the strict in-order per-warp dispatch
//!   gate ([`OperandStage::min_seq_of`]).
//! * **Uniform register file** — block-uniform values (`ldc` results,
//!   immediates, block-level specials) are tracked per warp; reads of a
//!   uniform-resident register skip the banked RF entirely, which is the
//!   modern core's structural answer to part of the port pressure BOW
//!   attacks on Pascal.
//!
//! Dependence stalls are reported through the existing
//! `Stall(Scoreboard)` event: the control-bit interlock plays exactly the
//! scoreboard's role, and reusing the counter keeps the statistics schema
//! frozen.
//!
//! [`CtrlBits`]: bow_isa::CtrlBits
//! [`OperandStage::min_seq_of`]: crate::collector::OperandStage::min_seq_of

use super::CoreModel;
use crate::collector::OperandStage;
use crate::config::GpuConfig;
use crate::exec::{self, ControlOutcome};
use crate::probe::{emit, PipeEvent, Probe, StallKind};
use crate::scheduler::WarpScheduler;
use crate::stage::dispatch::execute_and_complete;
use crate::stage::{CompletionQueue, DispatchLatch, SmCtx};
use bow_isa::ctrl::NUM_BARRIERS;
use bow_isa::{FuClass, Instruction, Kernel, Opcode, Operand, Reg, Special};
use bow_mem::GlobalAccess;

/// Per-warp control-bit interlock state.
#[derive(Clone, Debug, Default)]
struct WarpCtrl {
    /// Cycles until this warp may issue again (set from the stall field).
    stall: u32,
    /// Outstanding set-count per dependence barrier. A barrier blocks
    /// waiters while its count is non-zero; counting (rather than a
    /// plain flag) makes compiler barrier reuse sound.
    bar_pending: [u32; NUM_BARRIERS as usize],
}

impl WarpCtrl {
    fn pending_mask(&self) -> u8 {
        let mut m = 0u8;
        for (i, &p) in self.bar_pending.iter().enumerate() {
            if p > 0 {
                m |= 1 << i;
            }
        }
        m
    }
}

/// One sub-core: private scheduler, collector slice and dispatch latch.
struct SubCore {
    scheduler: WarpScheduler,
    oc: OperandStage,
    latch: DispatchLatch,
}

/// Whether `inst` produces a block-uniform value every lane agrees on:
/// an unguarded constant load, immediate move, or block-level special.
/// These are what the uniform register file captures.
fn is_uniform_producer(inst: &Instruction) -> bool {
    if inst.guard.is_some() {
        return false;
    }
    match inst.op {
        Opcode::Ldc => true,
        Opcode::Mov => matches!(inst.srcs.first(), Some(Operand::Imm(_))),
        Opcode::S2R => matches!(
            inst.srcs.first(),
            Some(Operand::Special(
                Special::CtaidX
                    | Special::CtaidY
                    | Special::NtidX
                    | Special::NtidY
                    | Special::NctaidX
                    | Special::NctaidY
                    | Special::WarpId
            ))
        ),
        _ => false,
    }
}

/// 256-bit register set, one per warp slot.
type RegSet = [u64; 4];

fn set_get(s: &RegSet, r: Reg) -> bool {
    let i = usize::from(r.index());
    s[i / 64] >> (i % 64) & 1 == 1
}

fn set_put(s: &mut RegSet, r: Reg, val: bool) {
    let i = usize::from(r.index());
    if val {
        s[i / 64] |= 1 << (i % 64);
    } else {
        s[i / 64] &= !(1 << (i % 64));
    }
}

/// The post-Volta pipeline.
pub struct ModernCore {
    subs: Vec<SubCore>,
    /// SM-wide result crossbar back to the sub-cores.
    completions: CompletionQueue,
    /// Per-warp-slot interlock state.
    ctrls: Vec<WarpCtrl>,
    /// Per-warp-slot uniform-resident register sets.
    uniform: Vec<RegSet>,
    /// One-dispatch-per-warp-per-cycle gate (cleared each cycle).
    warp_dispatched: Vec<bool>,
    /// Scratch buffers (reused across cycles).
    ready_buf: Vec<usize>,
    picked_buf: Vec<usize>,
    values_buf: Vec<u32>,
}

impl ModernCore {
    fn build_sub(config: &GpuConfig) -> SubCore {
        let nsub = config.schedulers_per_sm.max(1) as usize;
        SubCore {
            scheduler: WarpScheduler::new(config.sched),
            oc: OperandStage::new(
                config.collector,
                config.max_warps_per_sm as usize,
                (config.num_ocus as usize / nsub).max(1),
                u64::from(config.rf_read_latency),
                (config.xbar_width / nsub as u32).max(1),
            ),
            latch: DispatchLatch::default(),
        }
    }

    fn num_subs(&self) -> usize {
        self.subs.len()
    }

    /// Retires `wslot`: flushes its sub-core collector state and frees
    /// the warp/block slots (the modern half of `SmCtx::finalize_warp`).
    fn finalize_warp<P: Probe>(&mut self, ctx: &mut SmCtx, wslot: usize, probe: &mut P) {
        let sub = wslot % self.num_subs();
        self.subs[sub]
            .oc
            .flush_warp(wslot, &mut ctx.rf, &mut ctx.stats, probe);
        ctx.retire_warp(wslot);
    }

    // --- writeback ---------------------------------------------------

    fn writeback<P: Probe>(&mut self, ctx: &mut SmCtx, kernel: &Kernel, probe: &mut P) {
        while let Some(c) = self.completions.pop_due(ctx.cycle) {
            let span = ctx.cycle - c.issue_cycle;
            emit(
                &mut ctx.stats,
                probe,
                PipeEvent::ExecSpan {
                    is_mem: c.is_mem,
                    span,
                },
            );
            let Some(warp) = ctx.warps[c.warp].as_mut() else {
                debug_assert!(false, "completion for retired warp");
                emit(
                    &mut ctx.stats,
                    probe,
                    PipeEvent::RetiredCompletion {
                        cycle: ctx.cycle,
                        warp: c.warp,
                        pc: c.pc,
                    },
                );
                continue;
            };
            warp.inflight -= 1;
            let current_seq = warp.seq;
            emit(
                &mut ctx.stats,
                probe,
                PipeEvent::Writeback {
                    cycle: ctx.cycle,
                    sm: ctx.id,
                    warp: c.warp,
                    pc: c.pc,
                    seq: c.seq,
                },
            );
            if let Some(reg) = c.dst_reg {
                let sub = c.warp % self.num_subs();
                self.subs[sub].oc.writeback(
                    c.warp,
                    reg,
                    c.seq,
                    c.hint,
                    current_seq,
                    &mut ctx.rf,
                    &mut ctx.stats,
                    probe,
                );
            }
            // The write barrier this instruction set (if any) clears now:
            // its result is architecturally visible to waiters.
            if let Some(cb) = kernel.ctrl.get(c.pc) {
                if let Some(b) = cb.wr_bar {
                    let p = &mut self.ctrls[c.warp].bar_pending[b as usize];
                    *p = p.saturating_sub(1);
                }
            }
            if ctx.warps[c.warp]
                .as_ref()
                .is_some_and(|w| w.done && w.inflight == 0)
            {
                self.finalize_warp(ctx, c.warp, probe);
            }
        }
    }

    // --- dispatch ----------------------------------------------------

    fn dispatch<P: Probe, G: GlobalAccess>(
        &mut self,
        ctx: &mut SmCtx,
        kernel: &Kernel,
        global: &mut G,
        probe: &mut P,
    ) {
        let mut budget = [
            ctx.config.fu_width(FuClass::Alu),
            ctx.config.fu_width(FuClass::Mul),
            ctx.config.fu_width(FuClass::Sfu),
            ctx.config.fu_width(FuClass::Mem),
        ];
        let class_idx = |c: FuClass| match c {
            FuClass::Alu => 0,
            FuClass::Mul => 1,
            FuClass::Sfu => 2,
            FuClass::Mem => 3,
            FuClass::Ctrl => unreachable!("control ops never enter the collector"),
        };
        self.warp_dispatched.clear();
        self.warp_dispatched.resize(ctx.warps.len(), false);
        for s in 0..self.subs.len() {
            let ready = self.subs[s].latch.take_ready();
            let mut picked = std::mem::take(&mut self.picked_buf);
            for &idx in &ready {
                let slot = self.subs[s].oc.slot(idx);
                let (warp, seq) = (slot.warp, slot.seq);
                let class = kernel.insts[slot.pc].op.fu_class();
                // Strict per-warp program order: only the warp's oldest
                // resident instruction may leave, one per cycle. This is
                // what keeps functional execution at dispatch correct
                // even under unsound control bits.
                if self.warp_dispatched[warp] || self.subs[s].oc.min_seq_of(warp) != Some(seq) {
                    continue;
                }
                let b = &mut budget[class_idx(class)];
                if *b == 0 {
                    continue;
                }
                *b -= 1;
                self.warp_dispatched[warp] = true;
                picked.push(idx);
            }
            self.subs[s].latch.restore(ready);
            // Remove highest-index first so indices stay valid.
            for &idx in picked.iter().rev() {
                let mut slot = self.subs[s].oc.remove(idx);
                let inst = &kernel.insts[slot.pc];
                // Re-read the guard predicate now: the issue-time read can
                // precede the producer's execute under tight control bits,
                // and dispatch is where in-order execution makes the warp
                // state current. (The divergence mask cannot have moved:
                // control instructions wait for the collector to drain.)
                if inst.guard.is_some() {
                    if let Some(warp) = ctx.warps[slot.warp].as_ref() {
                        slot.mask = warp.guard_mask(inst.guard);
                    }
                }
                // The read barrier clears at dispatch: the operands are
                // consumed, so overwriting the sources is now safe.
                if let Some(cb) = kernel.ctrl.get(slot.pc) {
                    if let Some(b) = cb.rd_bar {
                        let p = &mut self.ctrls[slot.warp].bar_pending[b as usize];
                        *p = p.saturating_sub(1);
                    }
                }
                execute_and_complete(
                    ctx,
                    &mut self.completions,
                    inst,
                    slot,
                    &mut self.values_buf,
                    global,
                    probe,
                );
            }
            picked.clear();
            self.picked_buf = picked;
        }
    }

    // --- issue -------------------------------------------------------

    fn ready_warps_of<P: Probe>(
        &mut self,
        ctx: &mut SmCtx,
        sub: usize,
        kernel: &Kernel,
        probe: &mut P,
        ready: &mut Vec<usize>,
    ) {
        let nsub = self.num_subs();
        let has_ctrl = !kernel.ctrl.is_empty();
        for w in (sub..ctx.warps.len()).step_by(nsub) {
            let Some(warp) = ctx.warps[w].as_ref() else {
                continue;
            };
            if warp.done || warp.at_barrier {
                continue;
            }
            if warp.pc >= kernel.insts.len() {
                continue;
            }
            if self.ctrls[w].stall > 0 {
                emit(
                    &mut ctx.stats,
                    probe,
                    PipeEvent::Stall(StallKind::Scoreboard),
                );
                continue;
            }
            let inst = &kernel.insts[warp.pc];
            if has_ctrl {
                let wait = kernel.ctrl[warp.pc].wait_mask;
                if self.ctrls[w].pending_mask() & wait != 0 {
                    emit(
                        &mut ctx.stats,
                        probe,
                        PipeEvent::Stall(StallKind::Scoreboard),
                    );
                    continue;
                }
            } else if warp.inflight > 0 {
                // Unannotated kernel: conservative one-in-flight
                // interlock per warp (the fallback the control bits
                // exist to beat).
                emit(
                    &mut ctx.stats,
                    probe,
                    PipeEvent::Stall(StallKind::Scoreboard),
                );
                continue;
            }
            if inst.op.is_control() {
                // Control executes at issue, ahead of the dispatch
                // stage's in-order gate — so it must wait until every
                // older instruction of this warp has left the collector
                // (their architectural writes land at dispatch). Control
                // bits are a timing contract only; a guarded branch
                // reading its predicate early would be a correctness bug.
                if self.subs[sub].oc.occupied_by(w) > 0 {
                    continue;
                }
                // Barriers and exits additionally wait for the warp's
                // pipeline to drain so block release and flushes see a
                // quiet machine.
                let needs_drain = matches!(inst.op, Opcode::Exit | Opcode::Bar);
                if needs_drain && warp.inflight > 0 {
                    continue;
                }
                ready.push(w);
            } else {
                if !self.subs[sub].oc.can_accept(w) {
                    emit(
                        &mut ctx.stats,
                        probe,
                        PipeEvent::Stall(StallKind::NoCollector),
                    );
                    continue;
                }
                ready.push(w);
            }
        }
    }

    fn issue_one<P: Probe>(
        &mut self,
        ctx: &mut SmCtx,
        sub: usize,
        w: usize,
        kernel: &Kernel,
        probe: &mut P,
    ) {
        let warp = ctx.warps[w].as_mut().expect("ready warp is live");
        let inst = &kernel.insts[warp.pc];
        let seq = warp.seq;
        warp.seq += 1;
        let uid = ctx.blocks[warp.block_slot]
            .as_ref()
            .map(|b| b.base_uid + u64::from(warp.warp_in_block))
            .unwrap_or(0)
            | ((ctx.id as u64) << 48);
        let warp = ctx.warps[w].as_mut().expect("live");
        emit(
            &mut ctx.stats,
            probe,
            PipeEvent::Issued {
                uid,
                pc: warp.pc,
                active: warp.active.count_ones(),
                inst,
            },
        );

        if inst.op.is_control() {
            let ctrl_pc = ctx.warps[w].as_ref().expect("live").pc;
            emit(
                &mut ctx.stats,
                probe,
                PipeEvent::Control {
                    cycle: ctx.cycle,
                    sm: ctx.id,
                    warp: w,
                    pc: ctrl_pc,
                    seq,
                    inst,
                },
            );
            self.subs[sub]
                .oc
                .note_control(w, seq, &mut ctx.rf, &mut ctx.stats, probe);
            // Control instructions honour their stall field (it carries
            // residual latency across block boundaries) but never set
            // barriers: they do not dispatch or write back, so nothing
            // would ever release them.
            if let Some(cb) = kernel.ctrl.get(ctrl_pc) {
                self.ctrls[w].stall = u32::from(cb.stall);
            }
            let warp = ctx.warps[w].as_mut().expect("live");
            let (arrive, live, sync_underflow) = if P::ACTIVE {
                (
                    warp.guard_mask(inst.guard),
                    warp.valid & !warp.exited,
                    exec::sync_underflows(warp, inst),
                )
            } else {
                (0, 0, false)
            };
            let outcome = exec::execute_control(warp, inst);
            if P::ACTIVE {
                let depth = (warp.stack.len() + warp.splits.len()) as u32;
                emit(
                    &mut ctx.stats,
                    probe,
                    PipeEvent::CtrlTrace {
                        uid,
                        pc: ctrl_pc,
                        seq,
                        arrive,
                        live,
                        depth,
                        sync_underflow,
                        inst,
                    },
                );
            }
            match outcome {
                ControlOutcome::Exit => {
                    if warp.done {
                        emit(&mut ctx.stats, probe, PipeEvent::WarpExit { uid });
                        if warp.inflight == 0 {
                            self.finalize_warp(ctx, w, probe);
                        }
                    }
                }
                ControlOutcome::Barrier => ctx.maybe_release_barrier(w),
                ControlOutcome::Plain => {}
            }
        } else {
            let mask = warp.guard_mask(inst.guard);
            warp.pc += 1;
            warp.inflight += 1;
            let pc = warp.pc - 1;
            let cycle = ctx.cycle;
            let uni = self.uniform[w];
            self.subs[sub].oc.insert_uniform(
                w,
                pc,
                inst,
                mask,
                seq,
                cycle,
                &mut ctx.rf,
                &mut ctx.stats,
                probe,
                |r| set_get(&uni, r),
            );
            // Track uniform residency: a uniform producer parks its
            // result in the uniform RF; any other write to the register
            // evicts it (the value is no longer lane-invariant).
            if let Some(d) = inst.dst_reg() {
                set_put(&mut self.uniform[w], d, is_uniform_producer(inst));
            }
            if let Some(cb) = kernel.ctrl.get(pc) {
                self.ctrls[w].stall = u32::from(cb.stall);
                if let Some(b) = cb.wr_bar {
                    self.ctrls[w].bar_pending[b as usize] += 1;
                }
                if let Some(b) = cb.rd_bar {
                    self.ctrls[w].bar_pending[b as usize] += 1;
                }
            }
            emit(
                &mut ctx.stats,
                probe,
                PipeEvent::Issue {
                    cycle,
                    sm: ctx.id,
                    warp: w,
                    pc,
                    seq,
                    inst,
                },
            );
        }
    }

    fn issue<P: Probe>(&mut self, ctx: &mut SmCtx, kernel: &Kernel, probe: &mut P) {
        // Stall counters count down once per cycle, before issue checks.
        for c in &mut self.ctrls {
            c.stall = c.stall.saturating_sub(1);
        }
        let mut ready = std::mem::take(&mut self.ready_buf);
        for s in 0..self.subs.len() {
            for _ in 0..ctx.config.issue_per_scheduler {
                ready.clear();
                self.ready_warps_of(ctx, s, kernel, probe, &mut ready);
                let age = &ctx.warp_age;
                let pick = self.subs[s].scheduler.pick(&ready, |w| age[w]);
                let Some(w) = pick else { break };
                self.issue_one(ctx, s, w, kernel, probe);
            }
        }
        ready.clear();
        self.ready_buf = ready;
    }
}

impl CoreModel for ModernCore {
    const NAME: &'static str = "modern";

    fn new(config: &GpuConfig) -> ModernCore {
        let nsub = config.schedulers_per_sm.max(1) as usize;
        let max_warps = config.max_warps_per_sm as usize;
        ModernCore {
            subs: (0..nsub).map(|_| Self::build_sub(config)).collect(),
            completions: CompletionQueue::default(),
            ctrls: (0..max_warps).map(|_| WarpCtrl::default()).collect(),
            uniform: vec![[0; 4]; max_warps],
            warp_dispatched: Vec::new(),
            ready_buf: Vec::new(),
            picked_buf: Vec::new(),
            values_buf: Vec::new(),
        }
    }

    /// Rebuilds the sub-core collector slices and interlock state;
    /// scheduler state persists across launches like the Pascal core's.
    fn reset_for_launch(&mut self, ctx: &mut SmCtx) {
        for sub in &mut self.subs {
            sub.oc = Self::build_sub(&ctx.config).oc;
            sub.latch = DispatchLatch::default();
        }
        self.completions = CompletionQueue::default();
        for c in &mut self.ctrls {
            *c = WarpCtrl::default();
        }
        for u in &mut self.uniform {
            *u = [0; 4];
        }
    }

    fn on_warps_assigned(&mut self, warps: &[usize]) {
        for &w in warps {
            self.ctrls[w] = WarpCtrl::default();
            self.uniform[w] = [0; 4];
        }
    }

    fn pipeline_empty(&self) -> bool {
        self.completions.is_empty()
    }

    fn tick<P: Probe, G: GlobalAccess>(
        &mut self,
        ctx: &mut SmCtx,
        kernel: &Kernel,
        global: &mut G,
        probe: &mut P,
    ) {
        ctx.rf.begin_cycle();
        self.writeback(ctx, kernel, probe);
        for sub in &mut self.subs {
            sub.oc.collect(ctx.cycle, &mut ctx.rf);
            sub.latch.fill(&sub.oc, ctx.cycle);
        }
        self.dispatch(ctx, kernel, global, probe);
        self.issue(ctx, kernel, probe);
        for sub in &self.subs {
            sub.oc.sample_occupancy(&mut ctx.stats, probe);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::collector::CollectorKind;
    use crate::config::{CoreModelKind, GpuConfig};
    use crate::probe::NullProbe;
    use crate::sm::Sm;
    use crate::stats::SimStats;
    use bow_isa::ctrl::CtrlBits;
    use bow_isa::{Kernel, KernelBuilder, KernelDims, Operand, Pred, Reg, Special};
    use bow_mem::GlobalMemory;

    fn modern_config(kind: CollectorKind) -> GpuConfig {
        let mut c = GpuConfig::scaled(kind);
        c.core_model = CoreModelKind::Modern;
        c
    }

    fn run_on(config: &GpuConfig, kernel: &Kernel, threads: u32, g: &mut GlobalMemory) -> SimStats {
        let mut sm = Sm::new(0, config);
        sm.reset_for_launch(&[0x1000]);
        sm.assign_block(kernel, (0, 0), KernelDims::linear(1, threads), 0);
        let mut guard = 0;
        while sm.busy() {
            sm.tick(kernel, g, &mut NullProbe);
            guard += 1;
            assert!(guard < 1_000_000, "kernel did not terminate");
        }
        sm.stats()
    }

    fn store_iota() -> Kernel {
        let r = Reg::r;
        KernelBuilder::new("iota")
            .s2r(r(0), Special::TidX)
            .ldc(r(1), 0)
            .shl(r(2), r(0).into(), Operand::Imm(2))
            .iadd(r(1), r(1).into(), r(2).into())
            .stg(r(1), 0, r(0).into())
            .exit()
            .build()
            .unwrap()
    }

    #[test]
    fn modern_core_runs_all_collectors_identically() {
        let kernel = store_iota();
        let mut fps = Vec::new();
        for kind in [
            CollectorKind::Baseline,
            CollectorKind::bow(3),
            CollectorKind::bow_wr(3),
            CollectorKind::rfc6(),
        ] {
            let mut g = GlobalMemory::new();
            run_on(&modern_config(kind), &kernel, 32, &mut g);
            for i in 0..32u64 {
                assert_eq!(g.read_u32(0x1000 + 4 * i), i as u32, "{kind:?} lane {i}");
            }
            fps.push(g.fingerprint());
        }
        assert!(fps.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn annotated_kernel_matches_unannotated_memory() {
        // Control bits are timing-only: even deliberately tight (all-zero
        // stall) annotations must not change architectural results.
        let mut kernel = store_iota();
        let plain = {
            let mut g = GlobalMemory::new();
            run_on(
                &modern_config(CollectorKind::bow_wr(3)),
                &kernel,
                32,
                &mut g,
            );
            g.fingerprint()
        };
        kernel.ctrl = vec![CtrlBits::default(); kernel.insts.len()];
        let mut g = GlobalMemory::new();
        let st = run_on(
            &modern_config(CollectorKind::bow_wr(3)),
            &kernel,
            32,
            &mut g,
        );
        assert_eq!(g.fingerprint(), plain);
        assert_eq!(st.warp_instructions, 6);
    }

    #[test]
    fn annotated_issue_is_no_slower_checked_by_barrier_timing() {
        // A load consumer guarded by a write barrier: the annotated run
        // must still produce correct data (barrier released at writeback).
        let r = Reg::r;
        let mut kernel = KernelBuilder::new("ldchain")
            .ldc(r(0), 0)
            .ldg(r(1), r(0), 0)
            .iadd(r(2), r(1).into(), Operand::Imm(1))
            .stg(r(0), 4, r(2).into())
            .exit()
            .build()
            .unwrap();
        kernel.ctrl = vec![
            CtrlBits {
                wr_bar: Some(0),
                ..Default::default()
            },
            CtrlBits {
                wait_mask: 0b1,
                wr_bar: Some(1),
                rd_bar: Some(2),
                ..Default::default()
            },
            CtrlBits {
                wait_mask: 0b10,
                stall: 4,
                ..Default::default()
            },
            CtrlBits {
                wait_mask: 0b100,
                ..Default::default()
            },
            CtrlBits::default(),
        ];
        kernel.validate().unwrap();
        let mut g = GlobalMemory::new();
        g.write_u32(0x1000, 41);
        run_on(
            &modern_config(CollectorKind::bow_wr(3)),
            &kernel,
            32,
            &mut g,
        );
        assert_eq!(g.read_u32(0x1000 + 4), 42);
    }

    #[test]
    fn divergence_and_loops_work_on_modern() {
        let r = Reg::r;
        let kernel = KernelBuilder::new("diverge")
            .s2r(r(0), Special::TidX)
            .isetp(
                bow_isa::CmpOp::Lt,
                Pred::p(0),
                r(0).into(),
                Operand::Imm(16),
            )
            .ssy("join")
            .bra_if(Pred::p(0), false, "then")
            .mov_imm(r(1), 9)
            .bra("join")
            .label("then")
            .mov_imm(r(1), 5)
            .label("join")
            .sync()
            .ldc(r(2), 0)
            .shl(r(3), r(0).into(), Operand::Imm(2))
            .iadd(r(2), r(2).into(), r(3).into())
            .stg(r(2), 0, r(1).into())
            .exit()
            .build()
            .unwrap();
        let mut g = GlobalMemory::new();
        run_on(
            &modern_config(CollectorKind::bow_wr(3)),
            &kernel,
            32,
            &mut g,
        );
        for i in 0..32u64 {
            let expect = if i < 16 { 5 } else { 9 };
            assert_eq!(g.read_u32(0x1000 + 4 * i), expect, "lane {i}");
        }
    }

    #[test]
    fn barrier_synchronizes_across_sub_cores() {
        // Two warps land on different sub-cores (w % nsub); the block
        // barrier must still rendezvous them.
        let r = Reg::r;
        let kernel = KernelBuilder::new("bar")
            .shared_bytes(256)
            .s2r(r(0), Special::TidX)
            .shl(r(1), r(0).into(), Operand::Imm(2))
            .sts(r(1), 0, r(0).into())
            .bar()
            .xor(r(2), r(1).into(), Operand::Imm(128))
            .lds(r(3), r(2), 0)
            .ldc(r(4), 0)
            .iadd(r(4), r(4).into(), r(1).into())
            .stg(r(4), 0, r(3).into())
            .exit()
            .build()
            .unwrap();
        let config = modern_config(CollectorKind::bow_wr(3));
        let mut g = GlobalMemory::new();
        let mut sm = Sm::new(0, &config);
        sm.reset_for_launch(&[0x2000]);
        sm.assign_block(&kernel, (0, 0), KernelDims::linear(1, 64), 0);
        let mut guard = 0;
        while sm.busy() {
            sm.tick(&kernel, &mut g, &mut NullProbe);
            guard += 1;
            assert!(guard < 1_000_000);
        }
        for i in 0..64u64 {
            assert_eq!(g.read_u32(0x2000 + 4 * i), (i as u32) ^ 32, "thread {i}");
        }
    }

    #[test]
    fn uniform_rf_cuts_bank_reads() {
        // ldc produces a uniform value consumed repeatedly: the uniform
        // RF should serve those reads, so the modern core performs fewer
        // bank reads than Pascal on the same kernel and collector.
        let r = Reg::r;
        let kernel = KernelBuilder::new("unireads")
            .ldc(r(0), 0)
            .s2r(r(1), Special::TidX)
            .iadd(r(2), r(0).into(), r(1).into())
            .iadd(r(3), r(0).into(), r(2).into())
            .iadd(r(4), r(0).into(), r(3).into())
            .shl(r(5), r(1).into(), Operand::Imm(2))
            .iadd(r(5), r(0).into(), r(5).into())
            .stg(r(5), 0, r(4).into())
            .exit()
            .build()
            .unwrap();
        let pascal = GpuConfig::scaled(CollectorKind::Baseline);
        let mut g1 = GlobalMemory::new();
        let ps = run_on(&pascal, &kernel, 32, &mut g1);
        let mut g2 = GlobalMemory::new();
        let ms = run_on(
            &modern_config(CollectorKind::Baseline),
            &kernel,
            32,
            &mut g2,
        );
        assert_eq!(
            g1.fingerprint(),
            g2.fingerprint(),
            "same architectural state"
        );
        assert!(
            ms.rf.reads < ps.rf.reads,
            "uniform reads must skip banks: {} !< {}",
            ms.rf.reads,
            ps.rf.reads
        );
    }
}
