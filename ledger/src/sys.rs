//! What the benchmark measures from outside the program: process memory
//! and context switches from `/proc`, process CPU time from the kernel, and the machine and source
//! fingerprint printed with every result.

use std::path::Path;

/// A `kB` field of `/proc/self/status`, e.g. `VmHWM`.
fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Resident-set high-water mark of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    status_kib("VmHWM:").map_or(f64::NAN, |kib| kib as f64 / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, out: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time of this process in seconds, every thread included (also
/// threads that already ended), with nanosecond resolution.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (same layout as the C
    // struct on 64-bit Linux) for the duration of the call, and the clock
    // id is a valid constant; the call writes only into `ts`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    } else {
        f64::NAN
    }
}

/// Voluntary plus involuntary context switches summed over the threads
/// alive now (`/proc/self/task/*/status`).
pub fn context_switches() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    let mut total = 0;
    for task in tasks.flatten() {
        let Ok(status) = std::fs::read_to_string(task.path().join("status")) else {
            continue;
        };
        for line in status.lines() {
            if line.starts_with("voluntary_ctxt_switches:")
                || line.starts_with("nonvoluntary_ctxt_switches:")
            {
                total += line
                    .split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<u64>().ok())
                    .unwrap_or(0);
            }
        }
    }
    total
}

/// Which machine and which source produced a result. Results are only
/// ever compared between runs with the same fingerprint.
pub struct Fingerprint {
    pub nproc: usize,
    pub cpu_model: String,
    pub rustc: &'static str,
    pub commit: String,
    pub library_lines: u64,
    /// FNV-1a over the library sources, so a checkout without git history
    /// still names its exact code.
    pub source_hash: u64,
}

impl Fingerprint {
    pub fn collect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, m)| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let (library_lines, source_hash) = library_sources();
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            rustc: env!("LEDGER_RUSTC_VERSION"),
            commit: git_commit().unwrap_or_else(|| "unknown".to_string()),
            library_lines,
            source_hash,
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"rustc\": {}, \"commit\": {}, \
             \"library_lines\": {}, \"source_hash\": \"{:016x}\"}}",
            self.nproc,
            json_string(&self.cpu_model),
            json_string(self.rustc),
            json_string(&self.commit),
            self.library_lines,
            self.source_hash
        )
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The commit `HEAD` names, read from `.git` without running git; `None`
/// in a checkout that is not a repository.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Lines and FNV-1a hash of the library sources: `src/` and every
/// non-shim crate's `src/`, in sorted path order.
fn library_sources() -> (u64, u64) {
    let mut roots = vec![Path::new("src").to_path_buf()];
    if let Ok(crates) = std::fs::read_dir("crates") {
        for entry in crates.flatten() {
            if entry.file_name() != "shims" {
                roots.push(entry.path().join("src"));
            }
        }
    }
    let mut files = Vec::new();
    for root in roots {
        collect_rs(&root, &mut files);
    }
    files.sort();
    let mut lines = 0u64;
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for file in files {
        let Ok(bytes) = std::fs::read(&file) else {
            continue;
        };
        lines += bytes.iter().filter(|&&b| b == b'\n').count() as u64;
        for &b in file.to_string_lossy().as_bytes().iter().chain(&bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    (lines, hash)
}

fn collect_rs(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
