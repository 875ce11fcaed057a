//! Facts about the host and this process: the quiet-machine record
//! every result carries, procfs counters, and per-process scratch
//! directories.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

use thicket_perfsim::Json;

/// The host record taken at the start and end of a run.
#[derive(Debug, Clone)]
pub struct HostFacts {
    pub nproc: usize,
    pub rustc: String,
    pub git_rev: String,
    pub loadavg_start: f64,
    pub loadavg_end: f64,
    /// Share of all CPU time that the hypervisor gave to other guests
    /// (`steal`) between start and finish; 0 where procfs is missing.
    pub steal_share: f64,
    ticks_start: CpuTicks,
}

/// A run that lost more than this share of CPU time to other guests is
/// flagged. On the shared 2-vCPU host the benchmark was written on,
/// quiet periods show under 3% steal and busy ones 8-36%, with session
/// times up to 1.5x longer.
const BUSY_STEAL_SHARE: f64 = 0.05;

impl HostFacts {
    /// Take the start-of-run facts (`loadavg_end` is filled by
    /// [`HostFacts::finish`]).
    pub fn start() -> HostFacts {
        let load = loadavg();
        HostFacts {
            nproc: nproc(),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            git_rev: command_line("git", &["rev-parse", "--short=12", "HEAD"])
                .unwrap_or_else(|| "unknown (not a git checkout)".into()),
            loadavg_start: load,
            loadavg_end: load,
            steal_share: 0.0,
            ticks_start: cpu_ticks(),
        }
    }

    pub fn finish(&mut self) {
        self.loadavg_end = loadavg();
        let end = cpu_ticks();
        let total = end.total.saturating_sub(self.ticks_start.total);
        if total > 0 {
            let steal = end.steal.saturating_sub(self.ticks_start.steal);
            self.steal_share = steal as f64 / total as f64;
        }
    }

    /// A run that started with more runnable work than half the cores,
    /// or lost more than [`BUSY_STEAL_SHARE`] of the host's CPU time to
    /// other guests, is flagged: its figures are kept but must not be
    /// averaged in with quiet-machine runs.
    pub fn busy(&self) -> bool {
        self.loadavg_start > 0.5 * self.nproc as f64 || self.steal_share > BUSY_STEAL_SHARE
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("nproc".into(), Json::Num(self.nproc as f64)),
            ("rustc".into(), Json::Str(self.rustc.clone())),
            ("git_rev".into(), Json::Str(self.git_rev.clone())),
            ("loadavg_start".into(), Json::Num(self.loadavg_start)),
            ("loadavg_end".into(), Json::Num(self.loadavg_end)),
            ("steal_share".into(), Json::Num(self.steal_share)),
            ("busy".into(), Json::Bool(self.busy())),
        ])
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// First line of a command's stdout; `None` if it cannot run or fails.
/// `output()` waits for the child, so nothing outlives the call.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

/// One-minute load average (0 where procfs is missing).
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// Host-wide CPU time counters, in clock ticks.
#[derive(Debug, Clone, Copy, Default)]
struct CpuTicks {
    steal: u64,
    total: u64,
}

/// The aggregate `cpu` line of `/proc/stat`: user, nice, system, idle,
/// iowait, irq, softirq and steal (guest time is already in user).
/// All zero where procfs is missing.
fn cpu_ticks() -> CpuTicks {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return CpuTicks::default();
    };
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .take(8)
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    if fields.len() < 8 {
        return CpuTicks::default();
    }
    CpuTicks {
        steal: fields[7],
        total: fields.iter().sum(),
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    // From the C library the standard library already links.
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// Linux clock ids.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec of the C layout on
    // 64-bit Linux, and `clock` is one of the constants above.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU time this process has used so far, all threads (including ones
/// that have exited), in seconds. With paravirtual steal accounting
/// (`CONFIG_PARAVIRT_TIME_ACCOUNTING`) the kernel leaves out time the
/// hypervisor gave to other guests, and time spent waiting for a CPU
/// never counts.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time the calling thread has used so far, in seconds.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse::<f64>().ok())
        })
        .map(|kib| kib / 1024.0)
        .unwrap_or(0.0)
}

/// Reset this process's `VmHWM` to its current RSS (Linux
/// `clear_refs` code 5), so a later [`peak_rss_mib`] covers only what
/// ran after the reset. Returns false where the kernel refuses.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Bytes the *calling thread* has passed to `write(2)`-family calls
/// (`wchar` of `/proc/thread-self/io`). Per thread, so a server thread
/// writing sockets in the same process does not pollute a writer's
/// count.
pub fn thread_wchar() -> u64 {
    std::fs::read_to_string("/proc/thread-self/io")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("wchar:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Total size of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Files directly inside `dir` whose name starts with `prefix`.
pub fn files_with_prefix(dir: &Path, prefix: &str) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(|e| e.ok())
                .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
                .map(|e| e.path())
                .collect()
        })
        .unwrap_or_default();
    out.sort();
    out
}

static SCRATCH_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A scratch directory unique to this process and call (pid plus a
/// counter), removed on drop, so concurrent benchmark processes on one
/// host never share or delete each other's files.
#[derive(Debug)]
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    pub fn new(root: &Path, tag: &str) -> std::io::Result<Scratch> {
        let n = SCRATCH_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = root.join(format!("{tag}-{}-{n}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(Scratch { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
