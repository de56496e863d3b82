//! Host and provenance facts recorded with every result.

use std::path::Path;

/// The commit the checkout was made from, when it still carries its `.git`
/// directory; `"unknown"` otherwise (an exported tree has none).
pub fn git_sha() -> String {
    read_head(Path::new(".git")).unwrap_or_else(|| "unknown".to_string())
}

fn read_head(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|line| {
        let (sha, name) = line.split_once(' ')?;
        (name == reference).then(|| sha.to_string())
    })
}

/// CPU model name and the flags that select the int8 kernel.
pub fn cpu() -> (String, Vec<&'static str>) {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        info.lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
    };
    let flags = field("flags").unwrap_or_default();
    let has = |f: &str| flags.split_whitespace().any(|x| x == f);
    let selected = ["avx2", "avx512bw"]
        .into_iter()
        .filter(|f| has(f))
        .collect();
    (
        field("model name").unwrap_or_else(|| "unknown".to_string()),
        selected,
    )
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
