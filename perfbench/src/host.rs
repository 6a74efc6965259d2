//! The host header every run prints, and the process's peak memory.

use std::path::Path;

use hercules::runtime::affinity::{online_cores, pin_current_thread};

use crate::report::json_str;

/// What a result depends on beyond the code: cores, pinning, compiler,
/// build profile, revision, and the CPU time other tenants took.
pub struct Host {
    /// Cores the kernel has online.
    pub online_cores: usize,
    /// Cores this process may run on (affinity mask and cgroup quota).
    pub visible_cores: usize,
    /// Whether a thread can be pinned to a visible core.
    pub pinning: bool,
    pub rustc: &'static str,
    pub profile: &'static str,
    pub git_rev: String,
    /// `(steal, total)` CPU jiffies when the probe ran.
    cpu_at_start: Option<(u64, u64)>,
}

impl Host {
    pub fn probe() -> Self {
        let visible_cores = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(online_cores().len().max(1));
        // Pin a throwaway thread so the probe leaves this thread's mask
        // alone.
        let core = online_cores().first().copied().unwrap_or(0);
        let pinning = std::thread::spawn(move || pin_current_thread(core))
            .join()
            .unwrap_or(false);
        Host {
            online_cores: online_cpu_count().unwrap_or(visible_cores),
            visible_cores,
            pinning,
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            git_rev: git_rev(Path::new(".git")),
            cpu_at_start: cpu_jiffies(),
        }
    }

    /// The header as one JSON object; `threads` is the workload's runtime
    /// thread count (0 when it runs no serving threads). `steal_frac` is
    /// the share of CPU time the hypervisor gave to other tenants since the
    /// probe: the contention that slows wall-clock serving.
    pub fn json(&self, workload: &str, threads: u32) -> String {
        let steal_frac = steal_frac(self.cpu_at_start, cpu_jiffies())
            .map_or("null".into(), |f| format!("{f:.4}"));
        format!(
            "{{\"workload\": {}, \"online_cores\": {}, \"visible_cores\": {}, \"pinning\": {}, \
             \"runtime_threads\": {threads}, \"threads_per_core\": {}, \"rustc\": {}, \
             \"profile\": {}, \"git_rev\": {}, \"steal_frac\": {steal_frac}}}",
            json_str(workload),
            self.online_cores,
            self.visible_cores,
            self.pinning,
            threads as f64 / self.visible_cores as f64,
            json_str(self.rustc),
            json_str(self.profile),
            json_str(&self.git_rev),
        )
    }
}

/// Share of the CPU time between two [`cpu_jiffies`] readings that the
/// hypervisor gave to other tenants; `None` without both readings or when
/// no jiffy passed.
pub fn steal_frac(from: Option<(u64, u64)>, to: Option<(u64, u64)>) -> Option<f64> {
    match (from, to) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => Some((s1 - s0) as f64 / (t1 - t0) as f64),
        _ => None,
    }
}

/// The `cpu` line of `/proc/stat`: steal and total jiffies across all
/// CPUs; `None` where the file is absent.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// `HEAD`'s commit, read from the repository's files (no git process, no
/// network); `"unknown"` outside a git checkout.
fn git_rev(git_dir: &Path) -> String {
    let Ok(head) = std::fs::read_to_string(git_dir.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git_dir.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git_dir.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(target_os = "linux")]
mod sys {
    /// `struct rusage` as glibc lays it out on 64-bit Linux.
    #[repr(C)]
    pub struct Rusage {
        pub utime: [i64; 2],
        pub stime: [i64; 2],
        pub maxrss: i64,
        pub rest: [i64; 13],
    }

    pub const SC_NPROCESSORS_ONLN: i32 = 84;

    extern "C" {
        pub fn getrusage(who: i32, usage: *mut Rusage) -> i32;
        pub fn sysconf(name: i32) -> i64;
    }
}

/// Peak resident memory of this process in MiB.
#[cfg(target_os = "linux")]
pub fn peak_rss_mb() -> f64 {
    let mut usage = sys::Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage`; RUSAGE_SELF (0)
    // only writes into it.
    let rc = unsafe { sys::getrusage(0, &mut usage) };
    if rc == 0 {
        usage.maxrss as f64 / 1024.0
    } else {
        0.0
    }
}

/// Peak resident memory of this process in MiB (unsupported here: 0).
#[cfg(not(target_os = "linux"))]
pub fn peak_rss_mb() -> f64 {
    0.0
}

#[cfg(target_os = "linux")]
fn online_cpu_count() -> Option<usize> {
    // SAFETY: sysconf reads a system constant and has no preconditions.
    let n = unsafe { sys::sysconf(sys::SC_NPROCESSORS_ONLN) };
    usize::try_from(n).ok().filter(|&n| n > 0)
}

#[cfg(not(target_os = "linux"))]
fn online_cpu_count() -> Option<usize> {
    None
}
