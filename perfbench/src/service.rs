//! The `service_corpus` workload: an in-process `bow-server` with one
//! worker, driven by one closed-loop client that keeps one request
//! outstanding. Requests are the inline-asm corpus requests of
//! `bow-cli corpus sweep --addr` (four collector columns per kernel);
//! every first submission (a miss) is followed by one repeat of an
//! earlier request (a hit), so both classes see the same host phases.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bow::api::RunRequest;
use bow::corpus;
use bow::error::BowError;
use bow::experiment::RunRecord;
use bow_server::store::ResultStore;
use bow_server::{client, Server, ServerConfig};
use bow_util::json::{self, Json};
use bow_util::rng::XorShift;

use crate::host::shuffle;
use crate::model::Modelled;
use crate::trace::Tracer;

/// Corpus kernels per pass: the first 300 that `corpus::select` picks
/// from the corpus at its default seed.
pub const KERNELS: usize = 300;
/// One pass's wall time on a 2-vCPU host (sets the passes per run).
pub const NOMINAL_PASS_S: f64 = 2.5;
/// The collector columns of `bow-cli corpus sweep --addr`.
const COLLECTORS: [&str; 4] = ["baseline", "bow", "bow-wr", "rfc"];
const BASE: &str = "baseline";
const WR: &str = "bow-wr iw3";

/// One distinct request: its kernel, collector and wire body.
pub struct Req {
    pub kernel: String,
    pub collector: &'static str,
    pub body: String,
}

/// The generated inputs: every distinct request, plus how long corpus
/// generation took.
pub struct Inputs {
    pub requests: Vec<Req>,
    pub generate: Duration,
}

/// Set-up: generate the corpus, select the kernels, disassemble them and
/// build every request body.
pub fn setup() -> Result<Inputs, String> {
    let t = Instant::now();
    let manifest = corpus::generate(corpus::DEFAULT_SEED, KERNELS);
    let generate = t.elapsed();
    let picked = corpus::select(&manifest, KERNELS);
    if picked.len() != KERNELS {
        return Err(format!(
            "corpus selected {} kernels, expected {KERNELS}",
            picked.len()
        ));
    }
    let mut requests = Vec::with_capacity(KERNELS * COLLECTORS.len());
    for entry in picked {
        let kernel = corpus::kernel_for(entry)
            .ok_or_else(|| format!("{}: cannot re-materialize", entry.name))?;
        let asm = kernel.disassemble();
        for collector in COLLECTORS {
            let body = Json::obj([
                (
                    "kernel",
                    Json::obj([
                        ("asm", Json::from(asm.as_str())),
                        ("blocks", Json::from(bow_isa::fuzz::GRID.0)),
                        ("threads", Json::from(bow_isa::fuzz::BLOCK.0)),
                    ]),
                ),
                (
                    "config",
                    Json::obj([
                        ("collector", Json::from(collector)),
                        ("window", Json::from(3_u32)),
                        ("model", Json::from("scaled")),
                        ("core_model", Json::from("pascal")),
                        ("divergence", Json::from("stack")),
                    ]),
                ),
                ("wait", Json::from(true)),
            ]);
            requests.push(Req {
                kernel: entry.name.clone(),
                collector,
                body: body.to_string_compact(),
            });
        }
    }
    Ok(Inputs { requests, generate })
}

/// The seeded request stream: every distinct request once, in a shuffled
/// order, each first submission followed by a repeat of a uniformly
/// chosen request already sent. Entries are (request index, first?).
pub fn plan(seed: u64, n: usize) -> Vec<(usize, bool)> {
    let mut rng = XorShift::new(seed ^ 0x5e41_1ce0_c0de_0002);
    let mut order: Vec<usize> = (0..n).collect();
    shuffle(&mut rng, &mut order);
    let mut out = Vec::with_capacity(2 * n);
    for i in 0..n {
        out.push((order[i], true));
        out.push((order[rng.below(i as u64 + 1) as usize], false));
    }
    out
}

/// A running in-process server with a fresh store.
struct Running {
    addr: String,
    handle: JoinHandle<Result<(), BowError>>,
    store: PathBuf,
}

fn start(store: PathBuf) -> Result<Running, String> {
    let _ = std::fs::remove_dir_all(&store);
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        store_dir: store.clone(),
    })
    .map_err(|e| e.to_string())?;
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    Ok(Running {
        addr,
        handle,
        store,
    })
}

impl Running {
    /// `sim_runs` from `/v1/healthz`.
    fn sim_runs(&self) -> Result<u64, String> {
        let r = client::get(&self.addr, "/v1/healthz").map_err(|e| e.to_string())?;
        r.json()
            .ok()
            .and_then(|v| v.get("sim_runs").and_then(Json::as_u64))
            .ok_or_else(|| format!("healthz without sim_runs: {}", r.body))
    }

    fn stop(self) -> Result<(), String> {
        client::post(&self.addr, "/v1/shutdown", "{}").map_err(|e| e.to_string())?;
        let res = self
            .handle
            .join()
            .map_err(|_| "server thread panicked".to_string())?;
        let _ = std::fs::remove_dir_all(&self.store);
        res.map_err(|e| e.to_string())
    }
}

/// One answered request.
pub struct Answer {
    pub req: usize,
    pub first: bool,
    pub status: u16,
    pub body: String,
    pub latency: Duration,
}

/// One pass over the stream, checked.
pub struct Pass {
    pub wall: Duration,
    pub answers: Vec<Answer>,
    /// Requests that failed: non-2xx or no `result.ipc`.
    pub failed: usize,
    /// Failed requests, by kernel and collector, sorted.
    pub failures: Vec<String>,
    /// Latencies (ms) of successful first submissions and repeats.
    pub miss_ms: Vec<f64>,
    pub hit_ms: Vec<f64>,
    pub all_ms: Vec<f64>,
    pub sim_runs: u64,
    /// Output-check violations (hit/miss bodies differing, sim-run
    /// accounting off, a repeat answered differently).
    pub violations: Vec<String>,
    pub modelled: Modelled,
}

/// The stored document inside a submission response
/// (`{"fingerprint":..,"cached":..,"result":DOC}`).
fn result_doc(body: &str) -> Option<&str> {
    let at = body.find("\"result\":")?;
    body[at + 9..].strip_suffix('}')
}

fn send(addr: &str, body: &str) -> (u16, String) {
    match client::post(addr, "/v1/runs", body) {
        Ok(r) => (r.status, r.body),
        Err(e) => (0, e.to_string()),
    }
}

/// Runs the stream against a fresh server. With `tracer` on, every
/// request is also replayed through the in-process sequence the server
/// runs (parse, decode, fingerprint, store lookup, and on a miss
/// execute, encode, store write), with a span around each call.
pub fn pass(
    inputs: &Inputs,
    plan: &[(usize, bool)],
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<Pass, String> {
    let server = start(dir.join("store"))?;
    let inproc = dir.join("inproc-store");
    let _ = std::fs::remove_dir_all(&inproc);
    let local = ResultStore::open(&inproc).map_err(|e| e.to_string())?;
    let mut answers = Vec::with_capacity(plan.len());
    let t = Instant::now();
    for (op, &(req, first)) in plan.iter().enumerate() {
        let body = &inputs.requests[req].body;
        let op = op as u64;
        tracer.span("op", op, |tr| {
            let t0 = Instant::now();
            let (status, text) = tr.span("server.roundtrip", op, |_| send(&server.addr, body));
            answers.push(Answer {
                req,
                first,
                status,
                body: text,
                latency: t0.elapsed(),
            });
            if tr.on() {
                tr.span("inproc", op, |tr| inproc_sequence(tr, op, body, &local));
            }
        });
    }
    let wall = t.elapsed();
    let sim_runs = server.sim_runs();
    server.stop()?;
    let _ = std::fs::remove_dir_all(&inproc);
    Ok(check(inputs, wall, answers, sim_runs?))
}

fn inproc_sequence(tr: &mut Tracer, op: u64, body: &str, store: &ResultStore) {
    let Ok(v) = tr.span("util.json_parse", op, |_| json::parse(body)) else {
        return;
    };
    let Ok(req) = tr.span("api.decode", op, |_| RunRequest::from_json(&v)) else {
        return;
    };
    let fp = tr.span("api.fingerprint", op, |_| req.fingerprint());
    if tr
        .span("server.store_get", op, |_| store.get(&fp))
        .is_some()
    {
        return;
    }
    let executed = tr.span("api.execute", op, |_| {
        catch_unwind(AssertUnwindSafe(|| req.execute()))
    });
    if let Ok(Ok(rec)) = executed {
        let doc = tr.span("experiment.encode", op, |_| {
            rec.to_json().to_string_pretty()
        });
        let _ = tr.span("server.store_put", op, |_| store.put(&fp, doc));
    }
}

fn check(inputs: &Inputs, wall: Duration, mut answers: Vec<Answer>, sim_runs: u64) -> Pass {
    let mut docs: Vec<Option<String>> = vec![None; inputs.requests.len()];
    let mut failures = Vec::new();
    let mut violations = Vec::new();
    let (mut miss_ms, mut hit_ms, mut all_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut records = Vec::new();
    let mut firsts = 0u64;
    let mut failed_repeats = 0u64;
    for a in &answers {
        let r = &inputs.requests[a.req];
        let ms = a.latency.as_secs_f64() * 1e3;
        all_ms.push(ms);
        firsts += u64::from(a.first);
        let parsed = if (200..300).contains(&a.status) {
            json::parse(&a.body).ok()
        } else {
            None
        };
        let ipc = parsed
            .as_ref()
            .and_then(|v| v.get("result"))
            .and_then(|r| r.get("ipc"))
            .and_then(Json::as_f64);
        let doc = result_doc(&a.body);
        if ipc.is_none() || doc.is_none() {
            failures.push(format!("{} {} ({})", r.kernel, r.collector, a.status));
            failed_repeats += u64::from(!a.first);
            continue;
        }
        let (parsed, doc) = (
            parsed.expect("ipc implies a parsed body"),
            doc.expect("checked"),
        );
        let cached = parsed.get("cached").and_then(Json::as_bool);
        if a.first {
            miss_ms.push(ms);
            if cached != Some(false) {
                violations.push(format!(
                    "{} {}: first submission answered from the store",
                    r.kernel, r.collector
                ));
            }
            match parsed.get("result").map(RunRecord::from_json) {
                Some(Ok(rec)) => records.push(rec),
                _ => violations.push(format!(
                    "{} {}: result does not decode",
                    r.kernel, r.collector
                )),
            }
            docs[a.req] = Some(doc.to_string());
        } else {
            hit_ms.push(ms);
            if cached != Some(true) || docs[a.req].as_deref() != Some(doc) {
                violations.push(format!(
                    "{} {}: repeat differs from its first answer",
                    r.kernel, r.collector
                ));
            }
        }
    }
    if sim_runs != firsts + failed_repeats {
        violations.push(format!(
            "healthz sim_runs {sim_runs} != {firsts} misses + {failed_repeats} failed re-executions"
        ));
    }
    failures.sort();
    failures.dedup();
    // Bodies are checked; keeping them would grow memory with the pass
    // count.
    for a in &mut answers {
        a.body = String::new();
    }
    let failed = answers.len() - miss_ms.len() - hit_ms.len();
    let modelled = Modelled::of(&records, BASE, WR);
    Pass {
        wall,
        answers,
        failed,
        failures,
        miss_ms,
        hit_ms,
        all_ms,
        sim_runs,
        violations,
        modelled,
    }
}
