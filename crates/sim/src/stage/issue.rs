//! The issue stage: per-scheduler warp selection, scoreboard and
//! collector admission checks, control resolution and barrier release.

use super::{Latches, PipelineStage, SmCtx};
use crate::exec::{self, ControlOutcome};
use crate::probe::{emit, PipeEvent, Probe, StallKind};
use crate::scheduler::WarpScheduler;
use bow_isa::Kernel;
use bow_mem::GlobalAccess;

/// The issue stage. Owns the warp schedulers; all other issue state
/// (warps, scoreboards, ages) lives in [`SmCtx`].
#[derive(Debug)]
pub struct IssueStage {
    schedulers: Vec<WarpScheduler>,
    /// Scratch list of issuable warp slots (buffer reuse across picks).
    ready_buf: Vec<usize>,
}

impl IssueStage {
    /// Creates the stage with one scheduler per configured slot.
    pub(crate) fn new(config: &crate::config::GpuConfig) -> IssueStage {
        IssueStage {
            schedulers: (0..config.schedulers_per_sm)
                .map(|_| WarpScheduler::new(config.sched))
                .collect(),
            ready_buf: Vec::new(),
        }
    }
}

impl PipelineStage for IssueStage {
    const NAME: &'static str = "issue";

    fn tick<P: Probe, G: GlobalAccess>(
        &mut self,
        ctx: &mut SmCtx,
        _latches: &mut Latches,
        kernel: &Kernel,
        _global: &mut G,
        probe: &mut P,
    ) {
        let nsched = self.schedulers.len();
        let mut ready = std::mem::take(&mut self.ready_buf);
        for s in 0..nsched {
            for _ in 0..ctx.config.issue_per_scheduler {
                ready.clear();
                self.ready_warps_of(ctx, s, kernel, probe, &mut ready);
                let age = &ctx.warp_age;
                let pick = self.schedulers[s].pick(&ready, |w| age[w]);
                let Some(w) = pick else { break };
                self.issue_one(ctx, w, kernel, probe);
            }
        }
        ready.clear();
        self.ready_buf = ready;
    }
}

impl IssueStage {
    fn ready_warps_of<P: Probe>(
        &self,
        ctx: &mut SmCtx,
        sched: usize,
        kernel: &Kernel,
        probe: &mut P,
        ready: &mut Vec<usize>,
    ) {
        let nsched = self.schedulers.len();
        for w in (sched..ctx.warps.len()).step_by(nsched) {
            let Some(warp) = ctx.warps[w].as_ref() else {
                continue;
            };
            if warp.done || warp.at_barrier {
                continue;
            }
            if warp.pc >= kernel.insts.len() {
                continue;
            }
            let inst = &kernel.insts[warp.pc];
            if inst.op.is_control() {
                // Barriers and exits wait for the warp's pipeline to drain
                // so block release and flushes see a quiet machine.
                let needs_drain = matches!(inst.op, bow_isa::Opcode::Exit | bow_isa::Opcode::Bar);
                if needs_drain && warp.inflight > 0 {
                    continue;
                }
                // Branch guards must not be pending.
                if !ctx.scoreboards[w].can_issue(inst) {
                    emit(
                        &mut ctx.stats,
                        probe,
                        PipeEvent::Stall(StallKind::Scoreboard),
                    );
                    continue;
                }
                ready.push(w);
            } else {
                if !ctx.oc.can_accept(w) {
                    emit(
                        &mut ctx.stats,
                        probe,
                        PipeEvent::Stall(StallKind::NoCollector),
                    );
                    continue;
                }
                if !ctx.scoreboards[w].can_issue(inst) {
                    emit(
                        &mut ctx.stats,
                        probe,
                        PipeEvent::Stall(StallKind::Scoreboard),
                    );
                    continue;
                }
                ready.push(w);
            }
        }
    }

    fn issue_one<P: Probe>(&mut self, ctx: &mut SmCtx, w: usize, kernel: &Kernel, probe: &mut P) {
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
            ctx.oc
                .note_control(w, seq, &mut ctx.rf, &mut ctx.stats, probe);
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
                            ctx.finalize_warp(w, probe);
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
            let rf_fetches = ctx.oc.insert(
                w,
                pc,
                inst,
                mask,
                seq,
                cycle,
                &mut ctx.rf,
                &mut ctx.stats,
                probe,
            );
            // With the architectural shadow on, a bank fetch returns what
            // the banks hold — not the always-fresh functional value. The
            // scoreboard's RAW/WAR blocking guarantees no write to these
            // registers is in flight, so overwriting them here is exactly
            // the value the grant would deliver.
            if ctx.rf.shadow_enabled() {
                let warp = ctx.warps[w].as_mut().expect("live");
                for reg in rf_fetches {
                    if let Some(lanes) = ctx.rf.shadow_read(w, reg) {
                        for (lane, v) in lanes.iter().enumerate() {
                            warp.write_reg(lane, reg, *v);
                        }
                    }
                }
            }
            ctx.scoreboards[w].issue(inst);
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
}
