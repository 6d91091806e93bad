//! Process memory, the scratch directory and the host description.

use std::path::PathBuf;

use rtbh_json::Json;

/// Resets the kernel's resident-set high-water mark (`VmHWM`) to the
/// current resident size, so a later [`peak_rss_mb`] covers only what
/// ran after this call. Returns false where `/proc/self/clear_refs` is
/// not writable.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set since start or the last [`reset_peak_rss`], MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").unwrap_or(0.0) / 1024.0
}

/// The benchmark's scratch directory inside the checkout: under
/// `$CARGO_TARGET_DIR` (relative paths resolve against the working
/// directory), else `.bench_build`.
pub fn work_dir(workload: &str, seed: u64) -> std::io::Result<PathBuf> {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".bench_build"));
    let dir = target
        .join("perfbench")
        .join(format!("{workload}-{seed}-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// CPU seconds (`utime + stime`) of the whole process, exited threads
/// included. In `/proc/self/stat` the fields after the parenthesized
/// command name start at field 3; utime and stime are fields 14 and 15,
/// in clock ticks of 1/100 s.
pub fn cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let rest = stat.rsplit(')').next().unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

/// Worker threads the CLI defaults to (`--threads 0` = one per core).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Git revision of the checkout when it is a git work tree: `.git/HEAD`
/// followed through one symbolic ref. `None` in an exported tree.
pub fn git_revision() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    }
}

/// Host description: revision, core count and compiler.
pub fn host_json() -> Json {
    Json::Obj(vec![
        (
            "git_revision".to_string(),
            git_revision().map_or(Json::Null, Json::Str),
        ),
        ("nproc".to_string(), Json::U64(nproc() as u64)),
        (
            "rustc".to_string(),
            Json::Str(env!("PERFBENCH_RUSTC_VERSION").to_string()),
        ),
        (
            "peak_rss_resettable".to_string(),
            Json::Bool(std::fs::metadata("/proc/self/clear_refs").is_ok()),
        ),
    ])
}
