//! The two sweep workloads: `fig10_scaled` (the paper's Fig. 10 matrix
//! on the scaled 2-SM Pascal model, serial) and `chip_modern_t2` (the
//! full 56-SM TITAN X with the modern core, one launch at a time on two
//! engine threads).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use bow::experiment::{prepare_kernel, run_prepared, Config, ConfigBuilder, GpuModel, RunRecord};
use bow::suite::Suite;
use bow_compiler::CompilerReport;
use bow_isa::Kernel;
use bow_sim::{CoreModelKind, DivergenceModel};
use bow_workloads::{suite as paper_suite, Benchmark, Scale};

use crate::model::Modelled;
use crate::trace::Tracer;

const BASE: &str = "baseline";

pub struct SweepWorkload {
    pub name: &'static str,
    model: GpuModel,
    core: CoreModelKind,
    /// Engine threads per launch (the sweep itself always runs one cell
    /// at a time).
    pub threads: u32,
    /// One pass's wall time on a 2-vCPU host (sets the passes per run).
    pub nominal_pass_s: f64,
    builders: Vec<ConfigBuilder>,
}

/// 15 Table III benchmarks at paper scale × {baseline, BOW IW2/3/4,
/// BOW-WR IW2/3/4} on the scaled Pascal model.
pub fn fig10_scaled() -> SweepWorkload {
    let mut builders = vec![ConfigBuilder::baseline()];
    builders.extend([2, 3, 4].map(ConfigBuilder::bow));
    builders.extend([2, 3, 4].map(ConfigBuilder::bow_wr));
    SweepWorkload {
        name: "fig10_scaled",
        model: GpuModel::Scaled,
        core: CoreModelKind::Pascal,
        threads: 1,
        nominal_pass_s: 17.0,
        builders,
    }
}

/// 15 Table III benchmarks × {baseline, BOW-WR IW3} on the full-chip
/// TITAN X with the modern core at two engine threads.
pub fn chip_modern_t2() -> SweepWorkload {
    SweepWorkload {
        name: "chip_modern_t2",
        model: GpuModel::TitanX,
        core: CoreModelKind::Modern,
        threads: 2,
        nominal_pass_s: 3.0,
        builders: vec![ConfigBuilder::baseline(), ConfigBuilder::bow_wr(3)],
    }
}

/// One pass over the matrix.
pub struct Pass {
    pub wall: Duration,
    /// The pass's own set-up: building the benchmarks' inputs, plus the
    /// part of the sweep outside its cells (kernel preparation and
    /// bookkeeping).
    pub setup: Duration,
    /// Host time of each cell (seed + launch + host check), parallel to
    /// `records`, in execution order.
    pub cell_walls: Vec<Duration>,
    pub records: Vec<RunRecord>,
    /// Cells whose reference check failed or whose launch did not
    /// complete, as `benchmark label`, sorted.
    pub failures: Vec<String>,
    pub modelled: Modelled,
}

/// The compiler-relevant part of a configuration: cells that agree on it
/// share one prepared kernel (the same memo `Suite` keeps).
type PrepKey = (
    &'static str,
    bool,
    bool,
    u32,
    CoreModelKind,
    DivergenceModel,
);

fn prep_key(bench: &dyn Benchmark, c: &Config) -> PrepKey {
    let window = if c.hints {
        c.gpu.collector.window().unwrap_or(3)
    } else {
        0
    };
    (
        bench.name(),
        c.reorder,
        c.hints,
        window,
        c.gpu.core_model,
        c.gpu.divergence,
    )
}

impl SweepWorkload {
    /// The matrix in the order `Suite` and the `fig10_ipc` bench binary
    /// use. The inputs are the paper's, so the seed changes nothing here.
    pub fn inputs(&self, threads: u32) -> (Vec<Box<dyn Benchmark>>, Vec<Config>) {
        let configs = self
            .builders
            .iter()
            .map(|b| {
                b.clone()
                    .model(self.model)
                    .core_model(self.core)
                    .sim_threads(threads)
                    .build()
            })
            .collect();
        (paper_suite(Scale::Paper), configs)
    }

    /// Labels of the baseline and BOW-WR IW3 columns on this workload's
    /// core model (the pair `ipc_gain_pct` compares).
    pub fn gain_labels(&self) -> (String, String) {
        let label = |b: ConfigBuilder| b.model(self.model).core_model(self.core).build().label;
        (
            label(ConfigBuilder::baseline()),
            label(ConfigBuilder::bow_wr(3)),
        )
    }

    /// One pass through `Suite`, serially: one cell at a time, each launch
    /// on `threads` engine threads.
    pub fn pass(&self, threads: u32) -> Pass {
        let t = Instant::now();
        let (benches, configs) = self.inputs(threads);
        let build = t.elapsed();
        let result = Suite::over(benches)
            .configs(configs)
            .jobs(threads as usize)
            .sim_threads(threads)
            .progress(false)
            .run();
        let mut records = Vec::new();
        let mut cell_walls = Vec::new();
        for row in result.rows {
            records.extend(row.records);
            cell_walls.extend(row.wall);
        }
        Pass::new(result.wall, build, cell_walls, records, self.gain_labels())
    }

    /// The same pass without `Suite`: the benchmark calls
    /// `prepare_kernel` and `run_prepared` itself, with spans around each
    /// call (the traced run).
    pub fn traced_pass(&self, threads: u32, tracer: &mut Tracer) -> Pass {
        let t = Instant::now();
        let (benches, configs) = self.inputs(threads);
        let build = t.elapsed();
        let t = Instant::now();
        let mut prepared: HashMap<PrepKey, (Kernel, Option<CompilerReport>)> = HashMap::new();
        let mut records = Vec::new();
        let mut cell_walls = Vec::new();
        tracer.span("pass", 0, |tr| {
            for (ci, c) in configs.iter().enumerate() {
                for (bi, b) in benches.iter().enumerate() {
                    let op = (ci * benches.len() + bi) as u64;
                    let (kernel, report) =
                        prepared.entry(prep_key(b.as_ref(), c)).or_insert_with(|| {
                            tr.span("experiment.prepare", op, |_| prepare_kernel(b.as_ref(), c))
                        });
                    let t0 = Instant::now();
                    let rec = tr.span("experiment.run_prepared", op, |_| {
                        run_prepared(b.as_ref(), c, kernel, report.clone())
                    });
                    cell_walls.push(t0.elapsed());
                    records.push(rec);
                }
            }
        });
        Pass::new(t.elapsed(), build, cell_walls, records, self.gain_labels())
    }

    /// Times each compiler pass the workloads use on every Table III
    /// kernel at paper scale, `reps` times over.
    pub fn trace_compiler(tracer: &mut Tracer, reps: usize) {
        let kernels: Vec<Kernel> = paper_suite(Scale::Paper)
            .iter()
            .map(|b| b.kernel())
            .collect();
        let lat = bow_compiler::CtrlLatencies::default();
        for _ in 0..reps {
            for (op, k) in kernels.iter().enumerate() {
                let op = op as u64;
                let r = tracer.span("compiler.reorder", op, |_| {
                    bow_compiler::reorder_for_bypass(k)
                });
                let (a, _) = tracer.span("compiler.annotate", op, |_| bow_compiler::annotate(k, 3));
                let c = tracer.span("compiler.emit_ctrl", op, |_| {
                    bow_compiler::emit_ctrl(k, &lat)
                });
                std::hint::black_box((r, a, c));
            }
        }
    }
}

impl Pass {
    /// `build` is the time spent building the pass's inputs before `wall`
    /// started.
    fn new(
        wall: Duration,
        build: Duration,
        cell_walls: Vec<Duration>,
        records: Vec<RunRecord>,
        (base, wr): (String, String),
    ) -> Pass {
        let mut failures: Vec<String> = records
            .iter()
            .filter(|r| r.outcome.checked.is_err() || !r.outcome.result.completed)
            .map(|r| format!("{} {}", r.benchmark, r.label))
            .collect();
        failures.sort();
        let modelled = Modelled::of(&records, &base, &wr);
        Pass {
            wall,
            setup: build + wall.saturating_sub(cell_walls.iter().sum()),
            cell_walls,
            records,
            failures,
            modelled,
        }
    }

    /// Sum of the cells' host times.
    pub fn cell_time(&self) -> Duration {
        self.cell_walls.iter().sum()
    }
}

/// Checks the Fig. 10 tables against the repository's committed
/// `results/fig10_ipc.txt`: every per-benchmark and geomean cell of both
/// panels must read the same at one decimal. Returns the mismatches.
pub fn check_fig10_reference(records: &[RunRecord], path: &str) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let (a, b) = text
        .split_once("(b) BOW-WR")
        .ok_or_else(|| format!("{path}: no `(b) BOW-WR` panel"))?;
    let find = |label: &str, bench: &str| {
        records
            .iter()
            .find(|r| r.label == label && r.benchmark == bench)
            .map(|r| r.outcome.result.cycles as f64)
    };
    let mut compared = 0;
    for (panel, prefix) in [(a, "bow"), (b, "bow-wr")] {
        for line in panel.lines() {
            let cols: Vec<&str> = line.split_whitespace().collect();
            if cols.len() != 4 || !cols[1].ends_with('%') {
                continue;
            }
            for (w, want) in [2, 3, 4].iter().zip(&cols[1..]) {
                let label = format!("{prefix} iw{w}");
                let speedup = if cols[0] == "geomean" {
                    let mut logs = Vec::new();
                    for base in records.iter().filter(|r| r.label == BASE) {
                        let cfg = find(&label, &base.benchmark)
                            .ok_or_else(|| format!("no {label} cell for {}", base.benchmark))?;
                        logs.push((base.outcome.result.cycles as f64 / cfg).ln());
                    }
                    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
                } else {
                    let base =
                        find(BASE, cols[0]).ok_or_else(|| format!("no baseline {}", cols[0]))?;
                    base / find(&label, cols[0]).ok_or_else(|| format!("no {label} {}", cols[0]))?
                };
                let got = format!("{:+.1}%", 100.0 * (speedup - 1.0));
                if got != *want {
                    return Err(format!(
                        "{path}: {} {label} reads {want}, this run gives {got}",
                        cols[0]
                    ));
                }
                compared += 1;
            }
        }
    }
    if compared != 2 * 16 * 3 {
        return Err(format!("{path}: compared {compared} cells, expected 96"));
    }
    Ok(compared)
}
