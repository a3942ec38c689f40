//! Host facts and CPU confinement (measurement rule 1).
//!
//! Every timing this benchmark gates was measured to repeat only when the
//! whole process — client, reactor and worker threads alike — shares one
//! CPU: unpinned, the scheduler's placement of client vs worker moved a
//! 2000-GET block from 63 ms to 138–162 ms between processes.

use std::fs;

#[cfg(target_os = "linux")]
extern "C" {
    /// `sched_setaffinity(2)`; `pid == 0` names the calling thread.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words in the kernel's `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

fn status_field(name: &str) -> Option<String> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':').map(|v| v.trim().to_owned()))
}

/// Parses a kernel CPU list such as `0-3,8`.
fn parse_cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.split(',').map(str::trim).filter(|p| !p.is_empty()) {
        match part.split_once('-') {
            Some((lo, hi)) => {
                if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
                    cpus.extend(lo..=hi);
                }
            }
            None => cpus.extend(part.parse::<usize>().ok()),
        }
    }
    cpus
}

/// The CPUs this process may run on, from `Cpus_allowed_list`.
pub fn allowed_cpus() -> Vec<usize> {
    status_field("Cpus_allowed_list").map(|l| parse_cpu_list(&l)).unwrap_or_default()
}

/// Confines the calling thread to the highest-numbered allowed CPU and
/// confirms it by re-reading `/proc/self/status`. Must run before any
/// thread is spawned: threads inherit the mask, `available_parallelism()`
/// becomes 1, and the batch kernels and `DirectBuilder` stop spawning.
///
/// # Errors
///
/// A description of why the process is not confined; the caller prints no
/// metrics in that case.
#[cfg(target_os = "linux")]
pub fn pin_to_highest_allowed_cpu() -> Result<usize, String> {
    let allowed = allowed_cpus();
    let cpu = *allowed.last().ok_or("cannot read Cpus_allowed_list from /proc/self/status")?;
    if cpu >= CPU_SET_WORDS * 64 {
        return Err(format!("cpu {cpu} does not fit a {}-bit cpu_set_t", CPU_SET_WORDS * 64));
    }
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, properly aligned array of exactly the
    // `cpusetsize` bytes passed alongside it, the kernel only reads it, and
    // pid 0 names the calling thread, so no other process is affected.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity(cpu {cpu}) failed: {}",
            std::io::Error::last_os_error()
        ));
    }
    match allowed_cpus().as_slice() {
        [only] if *only == cpu => Ok(cpu),
        other => Err(format!("asked for cpu {cpu} but Cpus_allowed_list reads {other:?}")),
    }
}

/// Without `sched_setaffinity` there is no confinement, hence no metrics.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_highest_allowed_cpu() -> Result<usize, String> {
    Err("CPU pinning is implemented for Linux only".to_owned())
}

/// A `kB` field of `/proc/self/status`, in MiB.
fn status_mb(name: &str) -> f64 {
    status_field(name)
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

/// Current resident set size (`VmRSS`), in MiB.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS")
}

/// `/proc/loadavg` verbatim (one line), or `unknown`.
pub fn loadavg() -> String {
    fs::read_to_string("/proc/loadavg")
        .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// Time the hypervisor ran something else while `cpu` had work, in clock
/// ticks (usually 10 ms) since boot: the `steal` column of `/proc/stat`.
pub fn steal_ticks(cpu: usize) -> u64 {
    let stat = fs::read_to_string("/proc/stat").unwrap_or_default();
    let prefix = format!("cpu{cpu} ");
    stat.lines()
        .find_map(|l| l.strip_prefix(&prefix)?.split_whitespace().nth(7)?.parse().ok())
        .unwrap_or(0)
}

/// Size of the level-2 cache of `cpu` as sysfs prints it (e.g. `2048K`).
pub fn l2_size(cpu: usize) -> String {
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu{cpu}/cache/index{index}");
        let level = fs::read_to_string(format!("{dir}/level")).unwrap_or_default();
        if level.trim() == "2" {
            if let Ok(size) = fs::read_to_string(format!("{dir}/size")) {
                return size.trim().to_owned();
            }
        }
    }
    "unknown".to_owned()
}

/// The commit the working directory is at, read from `.git` without
/// spawning a process; `unknown` in an exported checkout.
pub fn git_sha() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_owned(),
        Err(_) => return "unknown".to_owned(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => fs::read_to_string(format!(".git/{reference}"))
            .map_or_else(|_| format!("unknown ({reference})"), |s| s.trim().to_owned()),
    }
}

/// The run header: enough to recognise, from a run's own output, that it
/// was taken during interference or on a different host.
pub fn header(pinned_cpu: usize, nproc_before_pin: usize, seed: u64, workload: &str) -> String {
    format!(
        "# ledger workload={workload} seed={seed} nproc={nproc_before_pin} pinned_cpu={pinned_cpu} \
         l2={} loadavg_before=\"{}\" git_sha={}",
        l2_size(pinned_cpu),
        loadavg(),
        git_sha()
    )
}
