//! Process and host facts the results record: peak RSS, host name, core
//! count, build profile, and the benchmark's scratch directory.

use std::path::PathBuf;

/// A `Vm*` field of `/proc/self/status`, in MiB.
fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Reset the process's RSS high-water mark to its current RSS, so the
/// next [`peak_rss_mb`] reads the peak of what follows. Returns whether
/// the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// High-water RSS of this process since start (or the last reset), MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:").unwrap_or(0.0)
}

/// Restart both memory high-water marks (live heap and RSS).
pub fn reset_peaks() {
    crate::heap::reset_peak();
    reset_peak_rss();
}

/// Record both high-water marks: peak live heap as the gated metric,
/// peak RSS beside it in the record.
pub fn record_peaks(out: &mut crate::Outcome) {
    out.metric("peak_heap_mb", crate::heap::peak_mb(), "MB");
    out.note("peak_rss_mb", json_num(peak_rss_mb()));
}

/// Host name, for the results record.
pub fn host() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Build profile of this binary.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Scratch directory for journals, references and trace files: beside
/// the build output (`<target>/perfbench-work`), so it stays inside the
/// checkout and under whatever the build directory's ignore rule is.
pub fn work_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("current executable path");
    // <target>/release/perfbench → <target>/perfbench-work
    let target = exe
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    let dir = target.join("perfbench-work");
    std::fs::create_dir_all(&dir).expect("create the benchmark work directory");
    dir
}

/// Identity of this build (executable size and mtime), so reference
/// files written by one build are never compared against another's.
/// Read once, at first use: a rebuild while this process runs must not
/// change it.
pub fn build_id() -> &'static str {
    static ID: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    ID.get_or_init(|| {
        let exe = std::env::current_exe().expect("current executable path");
        let meta = std::fs::metadata(&exe).expect("stat the executable");
        let mtime = meta
            .modified()
            .ok()
            .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
            .map_or(0, |d| d.as_secs());
        format!("{:x}-{mtime:x}", meta.len())
    })
}

/// Minimal JSON string escaping for the record line.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite float as JSON (non-finite values become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
