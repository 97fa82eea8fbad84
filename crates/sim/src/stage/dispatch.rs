//! The dispatch stage: picks ready slots under the functional-unit
//! budgets, executes them functionally and schedules their completions.

use super::writeback::{Completion, CompletionQueue};
use super::{Latches, PipelineStage, SmCtx};
use crate::exec::{self, ExecCtx, Space};
use crate::probe::{emit, PipeEvent, Probe};
use bow_isa::{FuClass, Instruction, Kernel};
use bow_mem::{bank_conflict_degree, AccessKind, GlobalAccess};

/// The collect → dispatch latch: indices of collector slots whose
/// operands were all ready when the collect stage last ticked.
#[derive(Debug, Default)]
pub struct DispatchLatch {
    ready: Vec<usize>,
}

impl DispatchLatch {
    /// Refills the latched ready set in place, reusing the buffer's
    /// capacity across cycles.
    pub(crate) fn fill(&mut self, oc: &crate::collector::OperandStage, cycle: u64) {
        self.ready.clear();
        oc.ready_slots_into(cycle, &mut self.ready);
    }

    /// Drains the latched ready set. Pair with [`DispatchLatch::restore`]
    /// to hand the emptied buffer back.
    pub(crate) fn take_ready(&mut self) -> Vec<usize> {
        std::mem::take(&mut self.ready)
    }

    /// Returns a drained buffer so its capacity survives to next cycle.
    pub(crate) fn restore(&mut self, mut buf: Vec<usize>) {
        buf.clear();
        self.ready = buf;
    }
}

/// The dispatch stage.
#[derive(Debug, Default)]
pub struct DispatchStage {
    /// Scratch list of slot indices dispatched this cycle (buffer reuse).
    dispatched: Vec<usize>,
    /// Scratch for `ExecResult` lane values (only touched by active probes).
    values_buf: Vec<u32>,
}

impl PipelineStage for DispatchStage {
    const NAME: &'static str = "dispatch";

    fn tick<P: Probe, G: GlobalAccess>(
        &mut self,
        ctx: &mut SmCtx,
        latches: &mut Latches,
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
        let ready = latches.dispatch.take_ready();
        let mut dispatched = std::mem::take(&mut self.dispatched);
        for &idx in &ready {
            let class = kernel.insts[ctx.oc.slot(idx).pc].op.fu_class();
            let b = &mut budget[class_idx(class)];
            if *b == 0 {
                continue;
            }
            *b -= 1;
            dispatched.push(idx);
        }
        latches.dispatch.restore(ready);
        // Remove from the stage highest-index first so indices stay valid.
        for &idx in dispatched.iter().rev() {
            let slot = ctx.oc.remove(idx);
            self.execute_slot(ctx, latches, kernel, slot, global, probe);
        }
        dispatched.clear();
        self.dispatched = dispatched;
    }
}

impl DispatchStage {
    fn execute_slot<P: Probe, G: GlobalAccess>(
        &mut self,
        ctx: &mut SmCtx,
        latches: &mut Latches,
        kernel: &Kernel,
        slot: crate::collector::Slot,
        global: &mut G,
        probe: &mut P,
    ) {
        let inst = &kernel.insts[slot.pc];
        ctx.scoreboards[slot.warp].dispatch(inst);
        execute_and_complete(
            ctx,
            &mut latches.completions,
            inst,
            slot,
            &mut self.values_buf,
            global,
            probe,
        );
    }
}

/// The core-model-independent half of a dispatch: emits the `Dispatch`
/// event, executes the slot functionally, snapshots the result for an
/// active probe (the lockstep oracle) and schedules its completion.
/// `inst` is the slot's instruction, `kernel.insts[slot.pc]`.
///
/// The Pascal core releases its scoreboard's WAR entries before calling
/// this; the modern core releases the slot's read barrier. Everything
/// else — timing, memory, events — is identical across core models.
pub(crate) fn execute_and_complete<P: Probe, G: GlobalAccess>(
    ctx: &mut SmCtx,
    completions: &mut CompletionQueue,
    inst: &Instruction,
    slot: crate::collector::Slot,
    values_buf: &mut Vec<u32>,
    global: &mut G,
    probe: &mut P,
) {
    {
        let wslot = slot.warp;
        let slot_pc = slot.pc;
        let oc_cycles = ctx.cycle - slot.insert_cycle;
        let is_mem = inst.op.is_memory();
        emit(
            &mut ctx.stats,
            probe,
            PipeEvent::Dispatch {
                cycle: ctx.cycle,
                sm: ctx.id,
                warp: wslot,
                pc: slot_pc,
                seq: slot.seq,
                oc_cycles,
                is_mem,
                inst,
            },
        );

        let warp = ctx.warps[wslot].as_mut().expect("dispatch for live warp");
        let bslot = warp.block_slot;
        let block = ctx.blocks[bslot].as_mut().expect("block resident");
        let mut ectx = ExecCtx {
            global,
            shared: &mut block.shared,
            params: &ctx.params,
            block: block.info,
        };
        let access = exec::execute_data(warp, inst, slot.mask, &mut ectx);

        if P::ACTIVE {
            // Snapshot the architectural result for the lockstep oracle
            // checker. `ExecResult` is a statistics no-op, so skipping the
            // emission entirely under `NullProbe` keeps counters identical.
            let warp = ctx.warps[wslot].as_ref().expect("live warp");
            values_buf.clear();
            let mut pred_bits = 0u32;
            if let Some(reg) = inst.dst_reg() {
                for lane in 0..bow_isa::WARP_SIZE {
                    values_buf.push(warp.read_reg(lane, reg));
                }
            }
            if let Some(p) = inst.dst.pred() {
                for lane in 0..bow_isa::WARP_SIZE {
                    if warp.read_pred(lane, p) {
                        pred_bits |= 1 << lane;
                    }
                }
            }
            let uid = ctx.blocks[bslot]
                .as_ref()
                .map(|b| b.base_uid + u64::from(warp.warp_in_block))
                .unwrap_or(0)
                | ((ctx.id as u64) << 48);
            emit(
                &mut ctx.stats,
                probe,
                PipeEvent::ExecResult {
                    uid,
                    pc: slot_pc,
                    seq: slot.seq,
                    dst_reg: inst.dst_reg(),
                    dst_pred: inst.dst.pred(),
                    mask: slot.mask,
                    pred_bits,
                    values: values_buf,
                },
            );

            // Snapshot the memory access for the race sanitizer. Store
            // values come from the source operand per lane — stores never
            // write registers, so reading it post-execute is exact.
            if let Some(a) = &access {
                if a.space != Space::Param {
                    values_buf.clear();
                    if a.is_store {
                        let warp = ctx.warps[wslot].as_ref().expect("live warp");
                        let block = ctx.blocks[bslot].as_ref().expect("block resident");
                        for lane in 0..bow_isa::WARP_SIZE {
                            if slot.mask & (1 << lane) != 0 {
                                values_buf.push(exec::operand_value(
                                    warp,
                                    lane,
                                    inst.srcs[0],
                                    &block.info,
                                ));
                            }
                        }
                    }
                    emit(
                        &mut ctx.stats,
                        probe,
                        PipeEvent::MemTrace {
                            uid,
                            pc: slot_pc,
                            seq: slot.seq,
                            is_store: a.is_store,
                            shared: a.space == Space::Shared,
                            mask: slot.mask,
                            addrs: &a.addrs,
                            values: values_buf,
                        },
                    );
                }
            }
        }

        let complete = match access {
            Some(a) => match a.space {
                Space::Global => {
                    let kind = if a.is_store {
                        AccessKind::Store
                    } else {
                        AccessKind::Load
                    };
                    ctx.mem.access(kind, &a.addrs, ctx.cycle)
                }
                Space::Shared => {
                    let degree = bank_conflict_degree(&a.addrs);
                    ctx.cycle
                        + u64::from(ctx.config.smem_latency)
                        + u64::from(degree.saturating_sub(1))
                }
                Space::Param => ctx.cycle + 4,
            },
            None => ctx.cycle + u64::from(ctx.config.fu_latency(inst.op.fu_class())),
        }
        .max(ctx.cycle + 1);

        completions.push(Completion {
            time: complete,
            ord: 0, // stamped by the queue
            warp: wslot,
            pc: slot_pc,
            dst_reg: inst.dst_reg(),
            dst_pred: inst.dst.pred(),
            hint: inst.hint,
            seq: slot.seq,
            issue_cycle: slot.insert_cycle,
            is_mem,
        });
    }
}
