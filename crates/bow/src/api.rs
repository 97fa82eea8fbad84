//! The versioned (v1) request surface of the simulation service.
//!
//! `bow-server` accepts JSON documents describing a run (one kernel under
//! one configuration) or a sweep (benchmarks × configurations). This
//! module owns the contract: parsing those documents into typed requests
//! with [`BowError`]s for everything malformed, *canonicalizing* a
//! request into a stable JSON form, and deriving the content-addressed
//! **fingerprint** — `sha256(canonical request)` — that keys the result
//! store.
//!
//! Canonicalization rules:
//!
//! * the canonical form is built from the *resolved* configuration (the
//!   full [`GpuConfig`](bow_sim::GpuConfig)), not the request text, so `{"collector":"bow"}`
//!   and a request spelling out every default hash identically;
//! * execution knobs that provably do not affect results are excluded —
//!   most importantly `sim_threads`, so the store key honours the
//!   deterministic-engine contract (identical results at any thread
//!   count) and a cache entry produced at 8 threads serves a 1-thread
//!   client;
//! * inline kernels are canonicalized through their binary encoding
//!   ([`bow_isa::encode_kernel`]), so formatting/comment differences in
//!   the assembly text do not defeat the cache;
//! * `schema_version` is hashed in, so a schema bump invalidates every
//!   old key instead of serving stale-layout documents.

use crate::error::{BowError, ConfigError};
use crate::experiment::{run, Config, ConfigBuilder, GpuModel, RunRecord, SCHEMA_VERSION};
use crate::suite::{Suite, SweepResult};
use bow_sim::{CollectorKind, CoreModelKind, DivergenceModel, Gpu, OracleCheck, SchedPolicy};
use bow_util::json::Json;
use bow_workloads::{by_name, suite as paper_suite, RunOutcome, Scale};

/// The kernel a run request targets.
#[derive(Clone, Debug)]
pub enum KernelSpec {
    /// A named Table III workload (name + inputs + host reference).
    Workload {
        /// Benchmark name (e.g. `"vectoradd"`).
        name: String,
        /// Problem scale.
        scale: Scale,
    },
    /// An inline kernel, submitted as assembly text. No host reference
    /// exists, so the launch runs under the memory oracle
    /// ([`OracleCheck::Memory`]) for verification instead.
    Inline {
        /// The parsed kernel.
        kernel: bow_isa::Kernel,
        /// Launch dimensions: (blocks, threads-per-block).
        dims: (u32, u32),
    },
}

/// A parsed, validated `POST /v1/runs` request.
#[derive(Clone, Debug)]
pub struct RunRequest {
    /// What to run.
    pub kernel: KernelSpec,
    /// The resolved configuration to run it under.
    pub config: Config,
}

/// A parsed, validated `POST /v1/sweeps` request.
#[derive(Clone, Debug)]
pub struct SweepRequest {
    /// Benchmark names, in request order.
    pub benchmarks: Vec<String>,
    /// Problem scale for every benchmark.
    pub scale: Scale,
    /// Configuration columns, in request order.
    pub configs: Vec<Config>,
    /// Sweep-pool worker count (0 = all cores).
    pub jobs: usize,
}

fn parse_scale(v: &Json) -> Result<Scale, BowError> {
    match v.get("scale").map(|s| (s.as_str(), s)) {
        None => Ok(Scale::Test),
        Some((Some("test"), _)) => Ok(Scale::Test),
        Some((Some("paper"), _)) => Ok(Scale::Paper),
        Some((other, _)) => Err(ConfigError::Unknown {
            what: "scale",
            value: other.map_or_else(|| "non-string".to_string(), str::to_string),
        }
        .into()),
    }
}

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Paper => "paper",
    }
}

/// Builds a [`Config`] from a `ConfigBuilder`-shaped JSON document.
///
/// Every knob is optional (defaults match [`ConfigBuilder`]); unknown
/// keys are rejected so client typos surface as 4xx errors instead of
/// silently running the wrong experiment.
///
/// # Errors
///
/// Returns a [`BowError`] for unknown keys/names, mistyped values or
/// out-of-range knobs.
pub fn config_from_json(v: &Json) -> Result<Config, BowError> {
    let obj = v
        .as_obj()
        .ok_or_else(|| BowError::parse("`config` must be an object"))?;
    const KNOWN: &[&str] = &[
        "collector",
        "window",
        "half_size",
        "capacity",
        "rfc_entries",
        "hints",
        "reorder",
        "model",
        "core_model",
        "divergence",
        "analyzer",
        "sim_threads",
        "label",
    ];
    for (key, _) in obj {
        if !KNOWN.contains(&key.as_str()) {
            return Err(BowError::parse(format!(
                "unknown config field `{key}` (known: {})",
                KNOWN.join(", ")
            )));
        }
    }
    let u32_field = |key: &'static str, default: u32| -> Result<u32, BowError> {
        match v.get(key) {
            None => Ok(default),
            Some(j) => j
                .as_u64()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| BowError::parse(format!("`{key}` must be a small integer"))),
        }
    };
    let bool_field = |key: &'static str| -> Result<Option<bool>, BowError> {
        match v.get(key) {
            None => Ok(None),
            Some(j) => j
                .as_bool()
                .map(Some)
                .ok_or_else(|| BowError::parse(format!("`{key}` must be a bool"))),
        }
    };
    let window = u32_field("window", 3)?;
    let collector = v.get("collector").map_or(Ok("baseline"), |c| {
        c.as_str()
            .ok_or_else(|| BowError::parse("`collector` must be a string"))
    })?;
    let mut builder = match collector {
        "baseline" => ConfigBuilder::baseline(),
        "bow" => ConfigBuilder::bow(window),
        "bow-wr" => ConfigBuilder::bow_wr(window),
        "bow-wr-half" => ConfigBuilder::bow_wr(window).half_size(true),
        "bow-flex" => ConfigBuilder::bow_flex(u32_field("capacity", 12)?),
        "rfc" => ConfigBuilder::rfc().rfc_entries(u32_field("rfc_entries", 6)?),
        other => {
            return Err(ConfigError::Unknown {
                what: "collector",
                value: other.to_string(),
            }
            .into())
        }
    };
    if let Some(half) = bool_field("half_size")? {
        builder = builder.half_size(half);
    }
    if let Some(hints) = bool_field("hints")? {
        builder = builder.hints(hints);
    }
    if let Some(reorder) = bool_field("reorder")? {
        builder = builder.reorder(reorder);
    }
    match v.get("model").map(|m| m.as_str()) {
        None => {}
        Some(Some("scaled")) => builder = builder.model(GpuModel::Scaled),
        Some(Some("titan-x")) => builder = builder.model(GpuModel::TitanX),
        Some(other) => {
            return Err(ConfigError::Unknown {
                what: "model",
                value: other.map_or_else(|| "non-string".to_string(), str::to_string),
            }
            .into())
        }
    }
    match v.get("core_model").map(|m| m.as_str()) {
        None => {}
        Some(Some("pascal")) => builder = builder.core_model(CoreModelKind::Pascal),
        Some(Some("modern")) => builder = builder.core_model(CoreModelKind::Modern),
        Some(other) => {
            return Err(ConfigError::Unknown {
                what: "core_model",
                value: other.map_or_else(|| "non-string".to_string(), str::to_string),
            }
            .into())
        }
    }
    match v.get("divergence").map(|m| m.as_str()) {
        None => {}
        Some(Some("stack")) => builder = builder.divergence(DivergenceModel::Stack),
        Some(Some("barrier")) => builder = builder.divergence(DivergenceModel::Barrier),
        Some(other) => {
            return Err(ConfigError::Unknown {
                what: "divergence",
                value: other.map_or_else(|| "non-string".to_string(), str::to_string),
            }
            .into())
        }
    }
    if let Some(windows) = v.get("analyzer") {
        let ws = windows
            .as_arr()
            .ok_or_else(|| BowError::parse("`analyzer` must be an array of window sizes"))?
            .iter()
            .map(|w| {
                w.as_u64()
                    .and_then(|n| u32::try_from(n).ok())
                    .ok_or_else(|| BowError::parse("`analyzer` entries must be small integers"))
            })
            .collect::<Result<Vec<u32>, _>>()?;
        builder = builder.analyzer(&ws);
    }
    builder = builder.sim_threads(u32_field("sim_threads", 1)?);
    if let Some(label) = v.get("label") {
        builder = builder.label(
            label
                .as_str()
                .ok_or_else(|| BowError::parse("`label` must be a string"))?,
        );
    }
    Ok(builder.try_build()?)
}

/// The canonical JSON form of a resolved configuration: every semantic
/// knob of the [`GpuConfig`](bow_sim::GpuConfig) spelled out, presentational/execution knobs
/// (`label`, `sim_threads`, tracing, oracle mode) excluded. This is what
/// gets hashed into the fingerprint.
pub fn canonical_config_json(config: &Config) -> Json {
    let g = &config.gpu;
    let collector = match g.collector {
        CollectorKind::Baseline => Json::obj([("kind", Json::from("baseline"))]),
        CollectorKind::Bow { window, half_size } => Json::obj([
            ("kind", Json::from("bow")),
            ("window", Json::from(window)),
            ("half_size", Json::from(half_size)),
        ]),
        CollectorKind::BowWr { window, half_size } => Json::obj([
            ("kind", Json::from("bow-wr")),
            ("window", Json::from(window)),
            ("half_size", Json::from(half_size)),
        ]),
        CollectorKind::BowFlex { capacity } => Json::obj([
            ("kind", Json::from("bow-flex")),
            ("capacity", Json::from(capacity)),
        ]),
        CollectorKind::Rfc { entries } => Json::obj([
            ("kind", Json::from("rfc")),
            ("entries", Json::from(entries)),
        ]),
    };
    let cache = |c: &bow_mem::CacheConfig| {
        Json::obj([
            ("size_bytes", Json::from(c.size_bytes)),
            ("line_bytes", Json::from(c.line_bytes)),
            ("ways", Json::from(c.ways)),
        ])
    };
    Json::obj([
        ("collector", collector),
        ("core_model", Json::from(g.core_model.name())),
        ("divergence", Json::from(g.divergence.name())),
        ("num_sms", Json::from(g.num_sms)),
        ("cores_per_sm", Json::from(g.cores_per_sm)),
        ("max_blocks_per_sm", Json::from(g.max_blocks_per_sm)),
        ("max_warps_per_sm", Json::from(g.max_warps_per_sm)),
        ("rf_bytes_per_sm", Json::from(g.rf_bytes_per_sm)),
        ("rf_banks", Json::from(g.rf_banks)),
        ("schedulers_per_sm", Json::from(g.schedulers_per_sm)),
        ("issue_per_scheduler", Json::from(g.issue_per_scheduler)),
        ("num_ocus", Json::from(g.num_ocus)),
        ("rf_read_latency", Json::from(g.rf_read_latency)),
        ("xbar_width", Json::from(g.xbar_width)),
        ("alu_latency", Json::from(g.alu_latency)),
        ("mul_latency", Json::from(g.mul_latency)),
        ("sfu_latency", Json::from(g.sfu_latency)),
        ("smem_latency", Json::from(g.smem_latency)),
        ("alu_width", Json::from(g.alu_width)),
        ("mul_width", Json::from(g.mul_width)),
        ("sfu_width", Json::from(g.sfu_width)),
        ("mem_width", Json::from(g.mem_width)),
        (
            "mem",
            Json::obj([
                ("l1", cache(&g.mem.l1)),
                ("l2", cache(&g.mem.l2)),
                ("l1_latency", Json::from(g.mem.l1_latency)),
                ("l2_latency", Json::from(g.mem.l2_latency)),
                ("dram_latency", Json::from(g.mem.dram_latency)),
                ("tx_serialization", Json::from(g.mem.tx_serialization)),
                ("mshr_entries", Json::from(g.mem.mshr_entries)),
            ]),
        ),
        (
            "sched",
            Json::from(match g.sched {
                SchedPolicy::Gto => "gto",
                SchedPolicy::Lrr => "lrr",
            }),
        ),
        (
            "analyze_windows",
            Json::Arr(g.analyze_windows.iter().map(|&w| Json::from(w)).collect()),
        ),
        ("max_cycles", Json::from(g.max_cycles)),
        ("shadow_rf", Json::from(g.shadow_rf)),
        ("sim_window", Json::from(g.sim_window)),
        ("hints", Json::from(config.hints)),
        ("reorder", Json::from(config.reorder)),
        ("verify", Json::from(config.verify)),
    ])
}

fn canonical_kernel_json(kernel: &KernelSpec) -> Json {
    match kernel {
        KernelSpec::Workload { name, scale } => Json::obj([
            ("workload", Json::from(name.as_str())),
            ("scale", Json::from(scale_name(*scale))),
        ]),
        KernelSpec::Inline { kernel, dims } => {
            let words = bow_isa::encode_kernel(kernel);
            let mut hex = String::with_capacity(words.len() * 8);
            for w in words {
                hex.push_str(&format!("{w:08x}"));
            }
            Json::obj([
                ("inline", Json::from(hex)),
                ("blocks", Json::from(dims.0)),
                ("threads", Json::from(dims.1)),
            ])
        }
    }
}

fn parse_kernel_spec(v: &Json) -> Result<KernelSpec, BowError> {
    let k = v
        .get("kernel")
        .ok_or_else(|| BowError::parse("missing `kernel` object"))?;
    match (k.get("workload"), k.get("asm")) {
        (Some(name), None) => Ok(KernelSpec::Workload {
            name: name
                .as_str()
                .ok_or_else(|| BowError::parse("`kernel.workload` must be a string"))?
                .to_string(),
            scale: parse_scale(k)?,
        }),
        (None, Some(asm)) => {
            let text = asm
                .as_str()
                .ok_or_else(|| BowError::parse("`kernel.asm` must be a string"))?;
            let kernel = bow_isa::asm::parse_kernel(text)
                .map_err(|e| BowError::parse(format!("kernel assembly: {e}")))?;
            let dim = |key: &'static str, default: u32| -> Result<u32, BowError> {
                match k.get(key) {
                    None => Ok(default),
                    Some(j) => j
                        .as_u64()
                        .and_then(|n| u32::try_from(n).ok())
                        .filter(|&n| n >= 1)
                        .ok_or_else(|| {
                            BowError::parse(format!("`kernel.{key}` must be a positive integer"))
                        }),
                }
            };
            Ok(KernelSpec::Inline {
                kernel,
                dims: (dim("blocks", 1)?, dim("threads", 32)?),
            })
        }
        _ => Err(BowError::parse(
            "`kernel` must have exactly one of `workload` or `asm`",
        )),
    }
}

impl RunRequest {
    /// Parses a `POST /v1/runs` body.
    ///
    /// # Errors
    ///
    /// Returns a [`BowError`] for malformed kernels, unknown names or
    /// invalid configurations.
    pub fn from_json(v: &Json) -> Result<RunRequest, BowError> {
        let kernel = parse_kernel_spec(v)?;
        if let KernelSpec::Workload { name, scale } = &kernel {
            // Resolve early so unknown names fail at submit time, not in
            // the job.
            if by_name(name, *scale).is_none() {
                return Err(ConfigError::Unknown {
                    what: "benchmark",
                    value: name.clone(),
                }
                .into());
            }
        }
        let config = match v.get("config") {
            None => ConfigBuilder::baseline().build(),
            Some(c) => config_from_json(c)?,
        };
        Ok(RunRequest { kernel, config })
    }

    /// The canonical JSON form of this request (see the module docs for
    /// the rules). Hash input for [`fingerprint`](RunRequest::fingerprint).
    pub fn canonical_json(&self) -> Json {
        Json::obj([
            ("schema_version", Json::from(SCHEMA_VERSION)),
            ("kernel", canonical_kernel_json(&self.kernel)),
            ("config", canonical_config_json(&self.config)),
        ])
    }

    /// The content-addressed store key: SHA-256 of the canonical request,
    /// as 64 hex characters.
    pub fn fingerprint(&self) -> String {
        bow_util::hash::sha256_hex(self.canonical_json().to_string_compact().as_bytes())
    }

    /// Runs the request to completion on the calling thread and returns
    /// the record. Named workloads run through the standard experiment
    /// driver (host-reference checked); inline kernels launch directly
    /// with the memory oracle enabled, so `checked` still means
    /// "independently verified".
    ///
    /// # Errors
    ///
    /// Returns [`BowError::Verify`] when a workload fails its reference
    /// check.
    pub fn execute(&self) -> Result<RunRecord, BowError> {
        match &self.kernel {
            KernelSpec::Workload { name, scale } => {
                let bench = by_name(name, *scale).ok_or_else(|| ConfigError::Unknown {
                    what: "benchmark",
                    value: name.clone(),
                })?;
                let rec = run(bench.as_ref(), self.config.clone());
                if let Err(e) = &rec.outcome.checked {
                    return Err(BowError::verify(format!(
                        "{name} under {}: {e}",
                        self.config.label
                    )));
                }
                Ok(rec)
            }
            KernelSpec::Inline { kernel, dims } => {
                let window = self.config.gpu.collector.window().unwrap_or(3);
                let mut kernel = kernel.clone();
                if self.config.reorder {
                    kernel = bow_compiler::reorder_for_bypass(&kernel);
                }
                let compiler = if self.config.hints {
                    let (k, rep) = bow_compiler::annotate(&kernel, window);
                    kernel = k;
                    Some(rep)
                } else {
                    None
                };
                // Same pass order as `experiment::prepare_kernel`: the
                // barrier lowering runs on the annotated kernel and before
                // control-bit emission.
                if self.config.gpu.divergence == DivergenceModel::Barrier {
                    kernel = bow_compiler::lower_to_barriers(&kernel).map_err(|e| {
                        BowError::verify(format!(
                            "barrier lowering rejected `{}`: {e}",
                            kernel.name
                        ))
                    })?;
                }
                if self.config.gpu.core_model == CoreModelKind::Modern {
                    kernel =
                        bow_compiler::emit_ctrl(&kernel, &bow_compiler::CtrlLatencies::default());
                }
                let mut gpu_cfg = self.config.gpu.clone();
                gpu_cfg.oracle_check = OracleCheck::Memory;
                let mut gpu = Gpu::new(gpu_cfg);
                let result = gpu.launch(
                    &kernel,
                    bow_isa::KernelDims::linear(dims.0, dims.1),
                    &inline_params(&kernel),
                );
                Ok(RunRecord {
                    label: self.config.label.clone(),
                    benchmark: kernel.name.clone(),
                    outcome: RunOutcome {
                        result,
                        checked: Ok(()),
                    },
                    compiler,
                })
            }
        }
    }
}

/// The parameter block an inline kernel is launched with: one 64 KiB
/// buffer base address per parameter word.
fn inline_params(kernel: &bow_isa::Kernel) -> Vec<u32> {
    (0..kernel.param_words)
        .map(|i| 0x10_0000 + u32::from(i) * 0x1_0000)
        .collect()
}

impl SweepRequest {
    /// Parses a `POST /v1/sweeps` body: `benchmarks` (array of names, or
    /// absent for the whole Table III suite), optional `scale`, and
    /// `configs` (array of config documents, at least one).
    ///
    /// # Errors
    ///
    /// Returns a [`BowError`] for unknown benchmarks or invalid configs.
    pub fn from_json(v: &Json) -> Result<SweepRequest, BowError> {
        let scale = parse_scale(v)?;
        let benchmarks: Vec<String> = match v.get("benchmarks") {
            None => paper_suite(scale)
                .iter()
                .map(|b| b.name().to_string())
                .collect(),
            Some(list) => list
                .as_arr()
                .ok_or_else(|| BowError::parse("`benchmarks` must be an array of names"))?
                .iter()
                .map(|b| {
                    b.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| BowError::parse("`benchmarks` entries must be strings"))
                })
                .collect::<Result<_, _>>()?,
        };
        for name in &benchmarks {
            if by_name(name, scale).is_none() {
                return Err(ConfigError::Unknown {
                    what: "benchmark",
                    value: name.clone(),
                }
                .into());
            }
        }
        let configs = v
            .get("configs")
            .ok_or_else(|| BowError::parse("missing `configs` array"))?
            .as_arr()
            .ok_or_else(|| BowError::parse("`configs` must be an array"))?
            .iter()
            .map(config_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        if configs.is_empty() {
            return Err(BowError::parse("`configs` must not be empty"));
        }
        let jobs = match v.get("jobs") {
            None => 1,
            Some(j) => j
                .as_u64()
                .and_then(|n| usize::try_from(n).ok())
                .ok_or_else(|| BowError::parse("`jobs` must be a non-negative integer"))?,
        };
        Ok(SweepRequest {
            benchmarks,
            scale,
            configs,
            jobs,
        })
    }

    /// The canonical JSON form of this request. `jobs` is an execution
    /// knob (results are identical at any worker count) and is excluded.
    pub fn canonical_json(&self) -> Json {
        Json::obj([
            ("schema_version", Json::from(SCHEMA_VERSION)),
            (
                "sweep",
                Json::obj([
                    ("scale", Json::from(scale_name(self.scale))),
                    (
                        "benchmarks",
                        Json::Arr(
                            self.benchmarks
                                .iter()
                                .map(|b| Json::from(b.as_str()))
                                .collect(),
                        ),
                    ),
                    (
                        "configs",
                        Json::Arr(self.configs.iter().map(canonical_config_json).collect()),
                    ),
                ]),
            ),
        ])
    }

    /// The content-addressed store key for this sweep.
    pub fn fingerprint(&self) -> String {
        bow_util::hash::sha256_hex(self.canonical_json().to_string_compact().as_bytes())
    }

    /// Runs the sweep on the parallel engine and returns the result.
    ///
    /// # Errors
    ///
    /// Returns [`BowError::Verify`] when any cell fails its reference
    /// check.
    pub fn execute(&self) -> Result<SweepResult, BowError> {
        let benches = self
            .benchmarks
            .iter()
            .map(|name| {
                by_name(name, self.scale).ok_or_else(|| ConfigError::Unknown {
                    what: "benchmark",
                    value: name.clone(),
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        let result = Suite::over(benches)
            .configs(self.configs.iter().cloned())
            .jobs(self.jobs)
            .progress(false)
            .run();
        for rec in result.all_records() {
            if let Err(e) = &rec.outcome.checked {
                return Err(BowError::verify(format!(
                    "{} under {}: {e}",
                    rec.benchmark, rec.label
                )));
            }
        }
        Ok(result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bow_util::json::parse;

    fn req(body: &str) -> Result<RunRequest, BowError> {
        RunRequest::from_json(&parse(body).expect("test body is valid JSON"))
    }

    #[test]
    fn workload_request_parses_and_fingerprints() {
        let r = req(r#"{"kernel": {"workload": "vectoradd"},
                        "config": {"collector": "bow-wr", "window": 3}}"#)
        .unwrap();
        assert_eq!(r.config.label, "bow-wr iw3");
        let f = r.fingerprint();
        assert_eq!(f.len(), 64);
        assert!(f.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn fingerprint_ignores_sim_threads_and_label() {
        let a = req(r#"{"kernel": {"workload": "vectoradd"},
                        "config": {"collector": "bow", "sim_threads": 1}}"#)
        .unwrap();
        let b = req(r#"{"kernel": {"workload": "vectoradd"},
                        "config": {"collector": "bow", "sim_threads": 8, "label": "mine"}}"#)
        .unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_separates_semantic_knobs() {
        let base = req(r#"{"kernel": {"workload": "vectoradd"}}"#).unwrap();
        for other in [
            r#"{"kernel": {"workload": "vectoradd"}, "config": {"collector": "bow"}}"#,
            r#"{"kernel": {"workload": "lps"}}"#,
            r#"{"kernel": {"workload": "vectoradd", "scale": "paper"}}"#,
        ] {
            assert_ne!(base.fingerprint(), req(other).unwrap().fingerprint());
        }
    }

    #[test]
    fn core_model_is_a_semantic_knob() {
        let pascal = req(r#"{"kernel": {"workload": "vectoradd"},
                             "config": {"collector": "bow", "core_model": "pascal"}}"#)
        .unwrap();
        let modern = req(r#"{"kernel": {"workload": "vectoradd"},
                             "config": {"collector": "bow", "core_model": "modern"}}"#)
        .unwrap();
        assert_ne!(pascal.fingerprint(), modern.fingerprint());
        assert_eq!(modern.config.label, "bow iw3+modern");
        // Pascal is the default: spelling it out keys identically.
        let default = req(r#"{"kernel": {"workload": "vectoradd"},
                              "config": {"collector": "bow"}}"#)
        .unwrap();
        assert_eq!(pascal.fingerprint(), default.fingerprint());
        let e = req(r#"{"kernel": {"workload": "vectoradd"},
                        "config": {"core_model": "volta"}}"#)
        .unwrap_err();
        assert_eq!(e.kind(), "config");
    }

    #[test]
    fn divergence_is_a_semantic_knob() {
        let stack = req(r#"{"kernel": {"workload": "bfs"},
                            "config": {"collector": "bow", "divergence": "stack"}}"#)
        .unwrap();
        let barrier = req(r#"{"kernel": {"workload": "bfs"},
                              "config": {"collector": "bow", "divergence": "barrier"}}"#)
        .unwrap();
        assert_ne!(stack.fingerprint(), barrier.fingerprint());
        assert_eq!(barrier.config.label, "bow iw3+barrier");
        // Stack is the default: spelling it out keys identically.
        let default = req(r#"{"kernel": {"workload": "bfs"},
                              "config": {"collector": "bow"}}"#)
        .unwrap();
        assert_eq!(stack.fingerprint(), default.fingerprint());
        let e = req(r#"{"kernel": {"workload": "bfs"},
                        "config": {"divergence": "ipdom"}}"#)
        .unwrap_err();
        assert_eq!(e.kind(), "config");
    }

    #[test]
    fn defaulted_and_spelled_out_requests_collide() {
        let short = req(r#"{"kernel": {"workload": "vectoradd"}}"#).unwrap();
        let long = req(r#"{"kernel": {"workload": "vectoradd", "scale": "test"},
                           "config": {"collector": "baseline", "model": "scaled"}}"#)
        .unwrap();
        assert_eq!(short.fingerprint(), long.fingerprint());
    }

    #[test]
    fn inline_kernels_canonicalize_through_encoding() {
        let a =
            req(r#"{"kernel": {"asm": ".kernel k\n    mov r0, 7\n    exit\n", "threads": 32}}"#)
                .unwrap();
        // Different whitespace/comments, same instructions.
        let b = req(r#"{"kernel": {"asm": ".kernel k\n# a comment\n  mov   r0, 7\n  exit\n"}}"#)
            .unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = req(r#"{"kernel": {"asm": ".kernel k\n    mov r0, 8\n    exit\n"}}"#).unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    /// A kernel whose lanes leave a loop after different trip counts
    /// (`tid % 4`) and reconverge at the `sync`, as assembly text.
    fn divergent_asm() -> String {
        use bow_isa::{CmpOp, KernelBuilder, Operand, Pred, Reg, Special};
        let r = Reg::r;
        KernelBuilder::new("diverge")
            .param_words(1)
            .s2r(r(0), Special::TidX)
            .and(r(1), r(0).into(), Operand::Imm(3))
            .mov_imm(r(2), 0)
            .mov_imm(r(5), 1)
            .ssy("done")
            .label("loop")
            .isetp(CmpOp::Ge, Pred::p(0), r(2).into(), r(1).into())
            .bra_if(Pred::p(0), false, "done")
            .iadd(r(5), r(5).into(), r(5).into())
            .iadd(r(2), r(2).into(), Operand::Imm(1))
            .bra("loop")
            .label("done")
            .sync()
            .shl(r(3), r(0).into(), Operand::Imm(2))
            .ldc(r(4), 0)
            .iadd(r(4), r(4).into(), r(3).into())
            .stg(r(4), 0, r(5).into())
            .exit()
            .build()
            .expect("divergent kernel builds")
            .disassemble()
    }

    fn inline_req(asm: &str, config: &str) -> RunRequest {
        let body = Json::obj([
            (
                "kernel",
                Json::obj([("asm", Json::from(asm)), ("threads", Json::from(64u64))]),
            ),
            ("config", parse(config).expect("test config is valid JSON")),
        ]);
        RunRequest::from_json(&body).expect("inline request parses")
    }

    #[test]
    fn inline_barrier_requests_run_the_lowered_kernel() {
        let r = inline_req(&divergent_asm(), r#"{"divergence": "barrier"}"#);
        let KernelSpec::Inline { kernel, dims } = &r.kernel else {
            panic!("inline request");
        };
        let direct = |k: &bow_isa::Kernel| {
            let mut gpu = Gpu::new(r.config.gpu.clone());
            let dims = bow_isa::KernelDims::linear(dims.0, dims.1);
            gpu.launch(k, dims, &inline_params(k)).stats.fingerprint()
        };
        let lowered = bow_compiler::lower_to_barriers(kernel).expect("kernel lowers");
        let got = r.execute().expect("inline run").outcome.result.stats;
        assert_eq!(got.fingerprint(), direct(&lowered));
    }

    #[test]
    fn inline_barrier_requests_fail_when_the_lowering_refuses() {
        // Nine nested `ssy` regions run on the SIMT stack but need more
        // convergence barriers than exist, so `barrier` must reject the
        // kernel with a typed error instead of running it unlowered.
        let mut b = bow_isa::KernelBuilder::new("deep");
        for d in 0..=bow_isa::NUM_CBARS {
            b = b.ssy(format!("l{d}"));
        }
        for d in (0..=bow_isa::NUM_CBARS).rev() {
            b = b.label(format!("l{d}")).sync();
        }
        let asm = b.exit().build().expect("deep kernel builds").disassemble();
        let stack = inline_req(&asm, r#"{"divergence": "stack"}"#);
        assert!(stack.execute().expect("stack run").outcome.result.completed);
        let e = inline_req(&asm, r#"{"divergence": "barrier"}"#)
            .execute()
            .expect_err("barrier lowering must refuse");
        assert_eq!(e.kind(), "verify");
        assert!(e.to_string().contains("convergence barriers"), "{e}");
    }

    #[test]
    fn inline_requests_keep_the_analyzer() {
        let inline = inline_req(
            &divergent_asm(),
            r#"{"collector": "bow", "analyzer": [2, 3]}"#,
        );
        let workload = req(r#"{"kernel": {"workload": "vectoradd"},
                               "config": {"collector": "bow", "analyzer": [2, 3]}}"#)
        .unwrap();
        for r in [inline, workload] {
            let windows = r.execute().expect("run").outcome.result.windows;
            assert_eq!(windows.len(), 2);
            assert!(windows.iter().all(|w| w.total_reads > 0));
        }
    }

    #[test]
    fn bad_requests_fail_with_typed_errors() {
        let e = req(r#"{"config": {}}"#).unwrap_err();
        assert_eq!(e.kind(), "parse");
        let e = req(r#"{"kernel": {"workload": "nope"}}"#).unwrap_err();
        assert_eq!(e.kind(), "config");
        let e = req(r#"{"kernel": {"workload": "vectoradd"},
                        "config": {"collector": "warp-drive"}}"#)
        .unwrap_err();
        assert_eq!(e.kind(), "config");
        let e = req(r#"{"kernel": {"workload": "vectoradd"},
                        "config": {"collector": "bow", "window": 0}}"#)
        .unwrap_err();
        assert_eq!(e.kind(), "config");
        let e = req(r#"{"kernel": {"workload": "vectoradd"},
                        "config": {"windw": 3}}"#)
        .unwrap_err();
        assert!(
            e.to_string().contains("unknown config field `windw`"),
            "{e}"
        );
        let e = req(r#"{"kernel": {"asm": "not assembly"}}"#).unwrap_err();
        assert_eq!(e.kind(), "parse");
    }

    #[test]
    fn run_request_executes_and_records_match_direct_runs() {
        let r = req(r#"{"kernel": {"workload": "vectoradd"},
                        "config": {"collector": "bow-wr"}}"#)
        .unwrap();
        let rec = r.execute().unwrap();
        let direct = run(
            by_name("vectoradd", Scale::Test).unwrap().as_ref(),
            ConfigBuilder::bow_wr(3).build(),
        );
        assert_eq!(
            rec.to_json().to_string_pretty(),
            direct.to_json().to_string_pretty()
        );
    }

    #[test]
    fn inline_request_executes_under_the_memory_oracle() {
        let r = req(
            r#"{"kernel": {"asm": ".kernel k\n    mov r0, 7\n    iadd r1, r0, 1\n    exit\n"}}"#,
        )
        .unwrap();
        let rec = r.execute().unwrap();
        assert_eq!(rec.benchmark, "k");
        assert!(rec.outcome.checked.is_ok());
        assert!(rec.outcome.result.stats.warp_instructions > 0);
    }

    #[test]
    fn sweep_request_round_trip() {
        let v = parse(
            r#"{"benchmarks": ["vectoradd", "lps"],
                "configs": [{"collector": "baseline"}, {"collector": "bow-wr"}]}"#,
        )
        .unwrap();
        let s = SweepRequest::from_json(&v).unwrap();
        assert_eq!(s.benchmarks, ["vectoradd", "lps"]);
        assert_eq!(s.configs.len(), 2);
        assert_eq!(s.fingerprint().len(), 64);
        let result = s.execute().unwrap();
        assert_eq!(result.rows.len(), 2);
        // jobs is an execution knob: a different worker count keys the same.
        let mut with_jobs = SweepRequest::from_json(&v).unwrap();
        with_jobs.jobs = 8;
        assert_eq!(s.fingerprint(), with_jobs.fingerprint());
    }

    #[test]
    fn sweep_rejects_unknowns() {
        let e = SweepRequest::from_json(
            &parse(r#"{"benchmarks": ["nope"], "configs": [{}]}"#).unwrap(),
        )
        .unwrap_err();
        assert_eq!(e.kind(), "config");
        let e = SweepRequest::from_json(&parse(r#"{"benchmarks": []}"#).unwrap()).unwrap_err();
        assert_eq!(e.kind(), "parse");
    }
}
