//! Modelled (simulated-time) results of a workload pass: exact counter
//! sums, the IPC gain of BOW-WR over the baseline, the RF energy ratio
//! and one digest over every launch's `SimStats::fingerprint()`. These
//! repeat exactly for a given seed; the determinism guard compares them
//! across passes, thread counts and runs.

use bow::experiment::RunRecord;
use bow_energy::{EnergyModel, EnergyReport};

use crate::host::geomean;

/// The paper's BOW-WR IW3 geomean IPC gain (Fig. 10b), the only reference
/// the model has; it has not been validated against hardware.
pub const PAPER_BOWWR_IW3_GAIN_PCT: f64 = 13.0;

#[derive(Clone, Debug, PartialEq)]
pub struct Modelled {
    pub launches: u64,
    pub sim_cycles: u64,
    pub warp_instructions: u64,
    pub rf_reads: u64,
    pub rf_writes: u64,
    pub rf_read_conflicts: u64,
    pub bypassed_reads: u64,
    pub bypassed_writes: u64,
    pub forced_evictions: u64,
    pub stall_no_collector: u64,
    pub stall_scoreboard: u64,
    pub oc_cycles: u64,
    pub l1_hits: u64,
    pub l1_accesses: u64,
    pub l2_hits: u64,
    pub l2_accesses: u64,
    pub dram_accesses: u64,
    /// Geomean IPC gain of the BOW-WR IW3 column over the baseline, in %.
    pub ipc_gain_pct: f64,
    /// Mean normalized RF dynamic energy (plus overhead) of BOW-WR IW3.
    pub rf_energy_ratio: f64,
    /// SHA-256 over the sorted (config, benchmark, cycles, stats
    /// fingerprint) lines of every launch.
    pub fingerprint: String,
}

impl Modelled {
    /// Sums `records` and pairs the `base` and `wr` columns by benchmark.
    /// Benchmarks missing from either column (failed requests) are left
    /// out of the ratios.
    pub fn of(records: &[RunRecord], base: &str, wr: &str) -> Modelled {
        let mut m = Modelled {
            launches: 0,
            sim_cycles: 0,
            warp_instructions: 0,
            rf_reads: 0,
            rf_writes: 0,
            rf_read_conflicts: 0,
            bypassed_reads: 0,
            bypassed_writes: 0,
            forced_evictions: 0,
            stall_no_collector: 0,
            stall_scoreboard: 0,
            oc_cycles: 0,
            l1_hits: 0,
            l1_accesses: 0,
            l2_hits: 0,
            l2_accesses: 0,
            dram_accesses: 0,
            ipc_gain_pct: f64::NAN,
            rf_energy_ratio: f64::NAN,
            fingerprint: String::new(),
        };
        let mut lines = Vec::with_capacity(records.len());
        for r in records {
            let s = &r.outcome.result.stats;
            m.launches += 1;
            m.sim_cycles += r.outcome.result.cycles;
            m.warp_instructions += s.warp_instructions;
            m.rf_reads += s.rf.reads;
            m.rf_writes += s.rf.writes;
            m.rf_read_conflicts += s.rf.read_conflicts;
            m.bypassed_reads += s.bypassed_reads;
            m.bypassed_writes += s.bypassed_writes;
            m.forced_evictions += s.forced_evictions;
            m.stall_no_collector += s.stall_no_collector;
            m.stall_scoreboard += s.stall_scoreboard;
            m.oc_cycles += s.oc_cycles();
            m.l1_hits += s.mem.l1.hits;
            m.l1_accesses += s.mem.l1.hits + s.mem.l1.misses;
            m.l2_hits += s.mem.l2.hits;
            m.l2_accesses += s.mem.l2.hits + s.mem.l2.misses;
            m.dram_accesses += s.mem.dram_accesses;
            lines.push(format!(
                "{}\t{}\t{}\t{:016x}\n",
                r.label,
                r.benchmark,
                r.outcome.result.cycles,
                s.fingerprint()
            ));
        }
        lines.sort();
        m.fingerprint = bow_util::hash::sha256_hex(lines.concat().as_bytes());

        let energy = EnergyModel::table_iv();
        let mut gains = Vec::new();
        let mut energies = Vec::new();
        for b in records.iter().filter(|r| r.label == base) {
            let Some(w) = records
                .iter()
                .find(|r| r.label == wr && r.benchmark == b.benchmark)
            else {
                continue;
            };
            if b.ipc() > 0.0 && w.ipc() > 0.0 {
                gains.push(w.ipc() / b.ipc());
            }
            energies.push(
                EnergyReport::normalized(
                    &energy,
                    &w.outcome.result.stats.access_counts(),
                    &b.outcome.result.stats.access_counts(),
                )
                .total_norm(),
            );
        }
        if !gains.is_empty() {
            m.ipc_gain_pct = 100.0 * (geomean(&gains) - 1.0);
        }
        if !energies.is_empty() {
            m.rf_energy_ratio = energies.iter().sum::<f64>() / energies.len() as f64;
        }
        m
    }

    fn rate(num: u64, den: u64) -> f64 {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    }

    /// The `model.*`, `energy.*` and `accuracy.*` per-layer metrics of
    /// one workload, suffixed with the workload name.
    pub fn layer_metrics(&self, workload: &str) -> Vec<(String, f64, &'static str)> {
        let counts: [(&str, u64); 11] = [
            ("model.warp_instructions", self.warp_instructions),
            ("model.rf_reads", self.rf_reads),
            ("model.rf_writes", self.rf_writes),
            ("model.rf_read_conflicts", self.rf_read_conflicts),
            ("model.bypassed_reads", self.bypassed_reads),
            ("model.bypassed_writes", self.bypassed_writes),
            ("model.forced_evictions", self.forced_evictions),
            ("model.stall_no_collector", self.stall_no_collector),
            ("model.stall_scoreboard", self.stall_scoreboard),
            ("model.oc_cycles", self.oc_cycles),
            ("model.dram_accesses", self.dram_accesses),
        ];
        let mut out: Vec<(String, f64, &'static str)> = counts
            .iter()
            .map(|(n, v)| (format!("{n}.{workload}"), *v as f64, "count"))
            .collect();
        out.push((
            format!("model.l1_hit_rate.{workload}"),
            Modelled::rate(self.l1_hits, self.l1_accesses),
            "ratio",
        ));
        out.push((
            format!("model.l2_hit_rate.{workload}"),
            Modelled::rate(self.l2_hits, self.l2_accesses),
            "ratio",
        ));
        out.push((
            format!("energy.rf_energy_ratio.{workload}"),
            self.rf_energy_ratio,
            "ratio",
        ));
        out.push((
            format!("accuracy.ipc_gain_gap_pp.{workload}"),
            self.ipc_gain_pct - PAPER_BOWWR_IW3_GAIN_PCT,
            "pp",
        ));
        out
    }
}
