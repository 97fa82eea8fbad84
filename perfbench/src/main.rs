//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig10_scaled --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` runs about `--seconds` of whole passes of one workload and
//! prints its end-to-end metrics; `--trace 1` runs the layer profile (one
//! untraced and one traced pass of every workload, whichever `--workload`
//! names) and prints the per-layer metrics. The last line of standard
//! output is the JSON result; diagnostics go to standard error and to
//! `.bench_out/` in the working directory. See `perfbench/README.md`.

mod host;
mod model;
mod service;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use bow::experiment::RunRecord;
use bow_util::json::Json;
use host::{median, quantile};
use model::Modelled;
use sweep::SweepWorkload;
use trace::{Agg, Tracer};

const WORKLOADS: [&str; 3] = ["fig10_scaled", "chip_modern_t2", "service_corpus"];
/// The committed Fig. 10 tables `fig10_scaled` must reproduce.
const FIG10_REFERENCE: &str = "results/fig10_ipc.txt";
const OUT_DIR: &str = ".bench_out";
/// What every run of each workload must reproduce: the digest of its
/// modelled results (`Modelled::fingerprint`) and its failed operations.
/// Any difference is a semantic change to the simulator; a change that
/// means one updates this file with the values the run prints.
const GOLDEN: &str = include_str!("../golden.json");
/// Passes per run at least, so that each operation has three samples
/// even when one pass outlasts `--seconds`.
const MIN_PASSES: usize = 3;

/// A fixed number of passes per run: as many as fill `seconds` at the
/// workload's nominal pass time on a 2-vCPU host, and at least
/// [`MIN_PASSES`]. Fixed, not timed, so that a slow host phase does not
/// change how many samples each operation's minimum is taken over.
fn passes_for(seconds: f64, nominal_pass_s: f64) -> usize {
    ((seconds / nominal_pass_s).ceil() as usize).max(MIN_PASSES)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not `{t}`")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// What a run measured and checked.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Output-check and determinism-guard violations; any makes the run
    /// incorrect.
    violations: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    /// Diagnostics for standard error and `.bench_out/runs.jsonl`.
    notes: Vec<(&'static str, String)>,
}

impl Outcome {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn guard(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

fn out_dir() -> PathBuf {
    let dir = PathBuf::from(OUT_DIR);
    let _ = std::fs::create_dir_all(&dir);
    dir
}

fn ok_pct(attempted: u64, failed: u64) -> f64 {
    100.0 * (1.0 - failed as f64 / attempted as f64)
}

/// The steady wall time of one pass: each operation's fastest time over
/// the run's passes (the same operation sits at the same position in
/// every pass), plus the median time between operations. Contention from
/// other tenants of the host comes in phases of seconds to minutes and
/// only ever slows an operation down; a pass's median moved by 15-30%
/// between runs on a 2-vCPU host, the per-operation minimum by 3-15%
/// (perfbench/NOTES.md).
fn steady_wall(op_secs: &[Vec<f64>], walls: &[f64]) -> f64 {
    let per_op: f64 = (0..op_secs[0].len())
        .map(|i| op_secs.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
        .sum();
    let between: Vec<f64> = op_secs
        .iter()
        .zip(walls)
        .map(|(p, w)| w - p.iter().sum::<f64>())
        .collect();
    per_op + median(&between)
}

/// The end-to-end metrics every workload reports. `op_secs` holds each
/// pass's per-operation times; `insts` is one pass's simulated warp
/// instructions.
fn end_to_end(
    o: &mut Outcome,
    setups: &[f64],
    op_secs: &[Vec<f64>],
    walls: &[f64],
    m: &Modelled,
    insts: u64,
) {
    let wall = steady_wall(op_secs, walls);
    o.metric("setup_s", median(setups), "s");
    o.metric("wall_s", wall, "s");
    o.metric("ops_per_s", op_secs[0].len() as f64 / wall, "1/s");
    o.metric("sim_warp_inst_per_s", insts as f64 / wall, "1/s");
    o.metric("peak_rss_mb", host::peak_rss_mb(), "MB");
    o.metric("ok_pct", ok_pct(o.attempted, o.failed), "%");
    o.metric("sim_cycles", m.sim_cycles as f64, "cycles");
    o.metric("ipc_gain_pct", m.ipc_gain_pct, "%");
    o.notes.push(("fingerprint", m.fingerprint.clone()));
    o.notes.push((
        "setups_ms",
        setups
            .iter()
            .map(|s| format!("{:.3}", s * 1e3))
            .collect::<Vec<_>>()
            .join(" "),
    ));
    o.notes.push((
        "pass_walls_s",
        walls
            .iter()
            .map(|w| format!("{w:.3}"))
            .collect::<Vec<_>>()
            .join(" "),
    ));
}

/// Compares a workload's modelled results and failed operations with
/// `golden.json`.
fn check_golden(o: &mut Outcome, workload: &str, m: &Modelled, failures: &[String]) {
    let golden = bow_util::json::parse(GOLDEN).expect("golden.json is valid JSON");
    let entry = golden.get(workload);
    let fingerprint = entry
        .and_then(|g| g.get("fingerprint"))
        .and_then(Json::as_str);
    o.guard(fingerprint == Some(m.fingerprint.as_str()), || {
        format!(
            "{workload}: modelled results {} differ from golden.json ({})",
            m.fingerprint,
            fingerprint.unwrap_or("missing")
        )
    });
    let want: Vec<&str> = entry
        .and_then(|g| g.get("failures"))
        .and_then(Json::as_arr)
        .map_or_else(Vec::new, |a| a.iter().filter_map(Json::as_str).collect());
    o.guard(want.iter().eq(failures.iter()), || {
        format!("{workload}: failed operations {failures:?} differ from golden.json {want:?}")
    });
}

fn run_sweep(wl: &SweepWorkload, a: &Args) -> Outcome {
    let mut o = Outcome::default();
    let passes: Vec<sweep::Pass> = (0..passes_for(a.seconds, wl.nominal_pass_s))
        .map(|_| wl.pass(wl.threads))
        .collect();
    let first = &passes[0];
    for p in &passes[1..] {
        o.guard(
            p.modelled == first.modelled && p.failures == first.failures,
            || {
                format!(
                    "pass results differ: {} {:?} vs {} {:?}",
                    p.modelled.fingerprint, p.failures, first.modelled.fingerprint, first.failures
                )
            },
        );
    }
    let setups: Vec<f64> = passes.iter().map(|p| p.setup.as_secs_f64()).collect();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    let op_secs: Vec<Vec<f64>> = passes
        .iter()
        .map(|p| p.cell_walls.iter().map(Duration::as_secs_f64).collect())
        .collect();
    o.attempted = passes.iter().map(|p| p.records.len() as u64).sum();
    o.failed = passes.iter().map(|p| p.failures.len() as u64).sum();
    end_to_end(
        &mut o,
        &setups,
        &op_secs,
        &walls,
        &first.modelled,
        first.modelled.warp_instructions,
    );
    if wl.threads > 1 {
        // Determinism across engine thread counts; outside the timed passes.
        let p1 = wl.pass(1);
        o.guard(
            p1.modelled == first.modelled && p1.failures == first.failures,
            || {
                format!(
                    "sim_threads 1 differs from {}: {} {:?} vs {} {:?}",
                    wl.threads,
                    p1.modelled.fingerprint,
                    p1.failures,
                    first.modelled.fingerprint,
                    first.failures
                )
            },
        );
        o.attempted += p1.records.len() as u64;
        o.failed += p1.failures.len() as u64;
    }
    check_golden(&mut o, wl.name, &first.modelled, &first.failures);
    o.notes.push(("failures", first.failures.join("; ")));
    if wl.name == "fig10_scaled" {
        if let Err(e) = sweep::check_fig10_reference(&first.records, FIG10_REFERENCE) {
            o.violations.push(e);
        }
    }
    o
}

fn run_service(a: &Args) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let dir = out_dir().join(format!("service-{}", std::process::id()));
    let mut off = Tracer::new(false);
    let mut setups = Vec::new();
    let mut inputs: Option<service::Inputs> = None;
    let mut passes = Vec::new();
    for _ in 0..passes_for(a.seconds, service::NOMINAL_PASS_S) {
        let t = Instant::now();
        let fresh = service::setup()?;
        setups.push(t.elapsed().as_secs_f64());
        let inputs = inputs.get_or_insert(fresh);
        let plan = service::plan(a.seed, inputs.requests.len());
        passes.push(service::pass(inputs, &plan, &dir, &mut off)?);
    }
    let _ = std::fs::remove_dir_all(&dir);
    let first = &passes[0];
    for p in &passes {
        o.violations.extend(p.violations.iter().cloned());
        o.guard(
            p.modelled == first.modelled && p.failures == first.failures,
            || "pass results or failures differ between passes".to_string(),
        );
    }
    let walls: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
    let op_secs: Vec<Vec<f64>> = passes
        .iter()
        .map(|p| p.answers.iter().map(|x| x.latency.as_secs_f64()).collect())
        .collect();
    o.attempted = passes.iter().map(|p| p.answers.len() as u64).sum();
    o.failed = passes.iter().map(|p| p.failed as u64).sum();
    end_to_end(
        &mut o,
        &setups,
        &op_secs,
        &walls,
        &first.modelled,
        first.modelled.warp_instructions,
    );
    check_golden(&mut o, "service_corpus", &first.modelled, &first.failures);
    o.notes.push(("failures", first.failures.join("; ")));
    Ok(o)
}

fn agg_of(agg: &BTreeMap<&'static str, Agg>, name: &str) -> Agg {
    agg.get(name).copied().unwrap_or_default()
}

/// The per-layer profile: every workload once untraced and once traced.
fn profile(a: &Args) -> Result<(Outcome, Tracer), String> {
    let mut o = Outcome::default();
    let mut tr = Tracer::new(true);
    let mut table = Vec::new();
    for wl in [sweep::fig10_scaled(), sweep::chip_modern_t2()] {
        let core = if wl.name == "fig10_scaled" {
            "pascal"
        } else {
            "modern"
        };
        let cpu0 = host::cpu_seconds();
        let plain = wl.pass(wl.threads);
        let cpu = host::cpu_seconds() - cpu0;
        let mark = tr.mark();
        let traced = wl.traced_pass(wl.threads, &mut tr);
        let agg = tr.aggregate(mark);
        o.guard(
            traced.modelled == plain.modelled && traced.failures == plain.failures,
            || format!("{}: traced pass differs", wl.name),
        );
        check_golden(&mut o, wl.name, &plain.modelled, &plain.failures);
        o.attempted += 2 * plain.records.len() as u64;
        o.failed += (plain.failures.len() + traced.failures.len()) as u64;

        let wall = plain.wall.as_secs_f64();
        let cell = plain.cell_time().as_secs_f64();
        let m = &plain.modelled;
        let sms: u64 = plain
            .records
            .first()
            .map_or(0, |r| r.outcome.result.per_sm.len() as u64);
        // Host time of each BOW-WR IW3 cell over its baseline cell.
        let (base, wr) = wl.gain_labels();
        let cells: Vec<(&RunRecord, f64)> = plain
            .records
            .iter()
            .zip(plain.cell_walls.iter().map(Duration::as_secs_f64))
            .collect();
        let ratios: Vec<f64> = cells
            .iter()
            .filter(|(r, _)| r.label == base)
            .filter_map(|(b, bt)| {
                let (_, wt) = cells
                    .iter()
                    .find(|(r, _)| r.label == wr && r.benchmark == b.benchmark)?;
                Some(wt / bt)
            })
            .collect();
        let prep = agg_of(&agg, "experiment.prepare");
        let run = agg_of(&agg, "experiment.run_prepared");
        let pass = agg_of(&agg, "pass");
        let tw = pass.total_ns as f64;
        o.metric(
            format!("experiment.prepare_ms.{core}"),
            prep.mean_us() / 1e3,
            "ms",
        );
        o.metric(
            format!("experiment.run_prepared_ms.{core}"),
            run.mean_us() / 1e3,
            "ms",
        );
        o.metric(
            format!("suite.overhead_frac.{core}"),
            1.0 - cell / wall,
            "ratio",
        );
        o.metric(
            format!("sim.host_ns_per_warp_inst.{core}"),
            cell * 1e9 / m.warp_instructions as f64,
            "ns",
        );
        o.metric(
            format!("sim.host_ns_per_sm_cycle.{core}"),
            cell * 1e9 / (m.sim_cycles * sms) as f64,
            "ns",
        );
        o.metric(
            format!("sim.bowwr_host_cost_ratio.{core}"),
            host::geomean(&ratios),
            "ratio",
        );
        o.metric(
            format!("trace.overhead_frac.{core}"),
            traced.wall.as_secs_f64() / wall - 1.0,
            "ratio",
        );
        o.metric(
            format!("experiment.prepare_self_s.{core}"),
            prep.self_ns as f64 / 1e9,
            "s",
        );
        o.metric(
            format!("experiment.run_prepared_self_s.{core}"),
            run.self_ns as f64 / 1e9,
            "s",
        );
        o.metric(
            format!("bench.loop_self_s.{core}"),
            pass.self_ns as f64 / 1e9,
            "s",
        );
        table.push(format!(
            "| {} ({core}) | {:.3} | {:.4} | {:.2} | {:.4} | {:.4} |",
            wl.name,
            traced.wall.as_secs_f64(),
            prep.self_ns as f64 / tw,
            run.self_ns as f64 / tw,
            pass.self_ns as f64 / tw,
            1.0 - cell / wall,
        ));
        if wl.threads > 1 {
            let p1 = wl.pass(1);
            o.guard(
                p1.modelled == plain.modelled && p1.failures == plain.failures,
                || format!("{}: sim_threads 1 differs", wl.name),
            );
            o.attempted += p1.records.len() as u64;
            o.failed += p1.failures.len() as u64;
            o.metric("sim.parallel_speedup", p1.wall.as_secs_f64() / wall, "x");
            o.metric("sim.parallel_cpu_util", cpu / wall, "ratio");
        }
        o.metrics.extend(m.layer_metrics(wl.name));
    }

    let mark = tr.mark();
    SweepWorkload::trace_compiler(&mut tr, 3);
    let agg = tr.aggregate(mark);
    for pass in ["reorder", "annotate", "emit_ctrl"] {
        let name = format!("compiler.{pass}");
        o.metric(format!("{name}_us"), agg_of(&agg, &name).mean_us(), "us");
    }

    let inputs = service::setup()?;
    o.metric("corpus.generate_s", inputs.generate.as_secs_f64(), "s");
    let plan = service::plan(a.seed, inputs.requests.len());
    let dir = out_dir().join(format!("service-{}", std::process::id()));
    let plain = service::pass(&inputs, &plan, &dir, &mut Tracer::new(false))?;
    let mark = tr.mark();
    let traced = service::pass(&inputs, &plan, &dir, &mut tr)?;
    let _ = std::fs::remove_dir_all(&dir);
    let agg = tr.aggregate(mark);
    o.violations.extend(plain.violations.iter().cloned());
    o.violations.extend(traced.violations.iter().cloned());
    o.guard(traced.modelled == plain.modelled, || {
        "service: traced pass differs".to_string()
    });
    check_golden(&mut o, "service_corpus", &plain.modelled, &plain.failures);
    o.attempted += (plain.answers.len() + traced.answers.len()) as u64;
    o.failed += (plain.failed + traced.failed) as u64;
    // Round trip minus the in-process sequence, per request class.
    let mut roundtrip = vec![0u64; plan.len()];
    let mut inproc = vec![0u64; plan.len()];
    for s in &tr.spans()[mark..] {
        match s.name {
            "server.roundtrip" => roundtrip[s.op as usize] = s.dur_ns(),
            "inproc" => inproc[s.op as usize] = s.dur_ns(),
            _ => {}
        }
    }
    let failed_ops: Vec<bool> = traced
        .answers
        .iter()
        .map(|x| !(200..300).contains(&x.status))
        .collect();
    let overhead_us = |first: bool| {
        let xs: Vec<f64> = (0..plan.len())
            .filter(|&i| plan[i].1 == first && !failed_ops[i])
            .map(|i| (roundtrip[i] as f64 - inproc[i] as f64) / 1e3)
            .collect();
        median(&xs)
    };
    for (name, span, scale, unit) in [
        ("util.json_parse_us", "util.json_parse", 1.0, "us"),
        ("api.decode_us", "api.decode", 1.0, "us"),
        ("api.fingerprint_us", "api.fingerprint", 1.0, "us"),
        ("api.execute_ms", "api.execute", 1e-3, "ms"),
        ("experiment.encode_us", "experiment.encode", 1.0, "us"),
        ("server.store_get_us", "server.store_get", 1.0, "us"),
        ("server.store_put_us", "server.store_put", 1.0, "us"),
    ] {
        o.metric(name, agg_of(&agg, span).mean_us() * scale, unit);
    }
    o.metric("server.http_overhead_hit_us", overhead_us(false), "us");
    o.metric("server.http_overhead_miss_us", overhead_us(true), "us");
    o.metric("server.sim_runs", plain.sim_runs as f64, "count");
    o.metric(
        "server.hit_ratio",
        plain.hit_ms.len() as f64 / plain.answers.len() as f64,
        "ratio",
    );
    o.metric("service.latency_p50_ms", median(&plain.all_ms), "ms");
    o.metric("service.latency_p90_ms", quantile(&plain.all_ms, 0.9), "ms");
    o.metric("service.hit_latency_p50_ms", median(&plain.hit_ms), "ms");
    o.metric("service.miss_latency_p50_ms", median(&plain.miss_ms), "ms");
    let op = agg_of(&agg, "op");
    o.metric(
        "trace.overhead_frac.service",
        (op.total_ns as f64 - agg_of(&agg, "inproc").total_ns as f64)
            / 1e9
            / plain.wall.as_secs_f64()
            - 1.0,
        "ratio",
    );
    o.metrics
        .extend(plain.modelled.layer_metrics("service_corpus"));
    o.notes.push(("failures", plain.failures.join("; ")));
    eprintln!("layer shares of traced pass wall time (self time):");
    eprintln!("| workload (core) | traced wall s | experiment.prepare | experiment.run_prepared | benchmark loop | suite overhead (untraced) |");
    eprintln!("|---|---|---|---|---|---|");
    for row in &table {
        eprintln!("{row}");
    }
    Ok((o, tr))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    if !std::path::Path::new(FIG10_REFERENCE).is_file() {
        eprintln!("perfbench: run from the repository root ({FIG10_REFERENCE} not found)");
        std::process::exit(2);
    }
    // Known defects panic the server worker (it answers 500); keep each
    // report to one line on standard error.
    std::panic::set_hook(Box::new(|info| eprintln!("panic: {info}")));
    let ref_before = host::reference_loop_ms();
    let steal_before = host::steal_seconds();
    let started = Instant::now();
    let mut tracer = None;
    let outcome = if args.trace {
        profile(&args).map(|(o, t)| {
            tracer = Some(t);
            o
        })
    } else {
        match args.workload.as_str() {
            "fig10_scaled" => Ok(run_sweep(&sweep::fig10_scaled(), &args)),
            "chip_modern_t2" => Ok(run_sweep(&sweep::chip_modern_t2(), &args)),
            _ => run_service(&args),
        }
    };
    let mut o = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let ref_after = host::reference_loop_ms();
    for (name, v, _) in &o.metrics {
        if !v.is_finite() {
            o.violations.push(format!("metric {name} is not a number"));
        }
    }
    let correct = o.violations.is_empty() && o.attempted > 0;

    let metrics = o
        .metrics
        .iter()
        .map(|(n, v, u)| {
            (
                n.clone(),
                Json::obj([("value", Json::from(*v)), ("unit", Json::from(*u))]),
            )
        })
        .collect();
    let result = Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(o.attempted)),
        ("failed", Json::from(o.failed)),
        ("metrics", Json::Obj(metrics)),
    ]);

    let mut info: Vec<(&str, String)> = vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", host::nproc().to_string()),
        ("rustc", host::rustc_version()),
        ("git", host::git_sha()),
        ("run_s", format!("{:.3}", started.elapsed().as_secs_f64())),
        (
            "reference_loop_ms",
            format!("{ref_before:.1} {ref_after:.1}"),
        ),
        (
            "steal_s",
            format!("{:.2}", host::steal_seconds() - steal_before),
        ),
    ];
    info.extend(o.notes.iter().map(|(k, v)| (*k, v.clone())));
    for (k, v) in &info {
        eprintln!("{k}: {v}");
    }
    for v in &o.violations {
        eprintln!("VIOLATION: {v}");
    }
    let dir = out_dir();
    let mut record: Vec<(String, Json)> = info
        .iter()
        .map(|(k, v)| (k.to_string(), Json::from(v.as_str())))
        .collect();
    let violations = o
        .violations
        .iter()
        .map(|v| Json::from(v.as_str()))
        .collect();
    record.push(("violations".to_string(), Json::Arr(violations)));
    record.push(("result".to_string(), result.clone()));
    let record = Json::Obj(record).to_string_compact() + "\n";
    if let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("runs.jsonl"))
    {
        let _ = f.write_all(record.as_bytes());
    }
    if let Some(t) = tracer {
        let path = dir.join(format!("trace-{}-{}.json", args.workload, args.seed));
        let _ = std::fs::write(path, t.to_json().to_string_compact());
    }
    println!("{}", result.to_string_compact());
}
