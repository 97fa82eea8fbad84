//! Host-side measurement helpers: order statistics, process memory and
//! CPU time from `/proc`, the host-phase reference loop and the host
//! context recorded with every run.

use std::hint::black_box;
use std::time::Instant;

use bow_util::rng::XorShift;

/// Linear-interpolated quantile (`q` in `[0, 1]`) of `xs`; NaN if empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Geometric mean of positive ratios.
pub fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// In-place Fisher-Yates shuffle driven by the workload seed.
pub fn shuffle<T>(rng: &mut XorShift, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

fn proc_status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(f64::NAN, |kb| kb / 1024.0)
}

/// User plus system CPU time of the whole process, in seconds
/// (`/proc/self/stat`, clock ticks of 10 ms).
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name start at `state`
    // (field 3); utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<u64> = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|x| x.parse().ok())
        .collect();
    if f.len() == 2 {
        (f[0] + f[1]) as f64 / 100.0
    } else {
        f64::NAN
    }
}

/// Times a fixed integer loop. It does the same work in every run and
/// every commit, so its time tracks only the host's speed at that
/// moment: a diagnostic for host phases, never a benchmark metric.
pub fn reference_loop_ms() -> f64 {
    let t = Instant::now();
    let mut rng = XorShift::new(0x5eed);
    let mut acc = 0u64;
    for _ in 0..40_000_000u32 {
        acc = acc.wrapping_add(black_box(rng.next_u64()) >> 7);
    }
    black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// Time the hypervisor ran something else while this VM's vCPUs were
/// runnable (`steal` in `/proc/stat`, all CPUs), in seconds.
pub fn steal_seconds() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().next()?.to_string();
            line.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |t| t / 100.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `rustc --version`, or `unknown` when no compiler is on the path.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The commit of a git checkout in the working directory, read from
/// `.git` directly; `unknown` for an exported tree.
pub fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".to_string(),
    }
}
