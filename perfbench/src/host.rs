//! Host-side measurement: CPU pinning, the batch scheduling policy, the
//! malloc arena limit, per-thread
//! and per-process CPU accounting, and peak resident memory.
//!
//! Everything here is read from outside the simulator, through libc and
//! `/proc`, so the program under test carries no instrumentation.

use std::os::raw::{c_int, c_long};

/// `cpu_set_t` as glibc lays it out: 1024 bits.
#[repr(C)]
#[derive(Clone, Copy)]
struct CpuSet([u64; 16]);

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` on Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [c_long; 14],
}

/// Index of `ru_nvcsw` within [`Rusage::rest`].
const NVCSW: usize = 12;
const RUSAGE_SELF: c_int = 0;
const RUSAGE_THREAD: c_int = 1;
/// glibc's `M_ARENA_MAX` parameter for `mallopt`.
const M_ARENA_MAX: c_int = -8;
/// Linux's default `SCHED_OTHER` policy.
const SCHED_OTHER: c_int = 0;
/// Linux's `SCHED_BATCH` policy.
const SCHED_BATCH: c_int = 3;

/// `struct sched_param`.
#[repr(C)]
struct SchedParam {
    priority: c_int,
}

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn mallopt(param: c_int, value: c_int) -> c_int;
    fn malloc_trim(pad: usize) -> c_int;
    fn sched_setscheduler(pid: c_int, policy: c_int, param: *const SchedParam) -> c_int;
}

/// The steadiness settings a run was made under.
#[derive(Debug, Clone)]
pub struct Settings {
    /// The CPU every thread of the run is pinned to.
    pub cpu: usize,
    /// The CPUs the process was allowed before pinning.
    pub allowed: Vec<usize>,
    /// Whether glibc accepted the one-arena limit.
    pub one_arena: bool,
    /// `std::thread::available_parallelism` after pinning.
    pub parallelism: usize,
}

impl Settings {
    /// One-line JSON rendering for the run log.
    pub fn to_json(&self) -> String {
        let allowed: Vec<String> = self.allowed.iter().map(|c| c.to_string()).collect();
        format!(
            "{{\"cpu\": {}, \"allowed\": [{}], \"policy\": \"SCHED_BATCH\", \"malloc_arena_max\": {}, \"available_parallelism\": {}}}",
            self.cpu,
            allowed.join(", "),
            if self.one_arena { "1" } else { "null" },
            self.parallelism
        )
    }
}

/// Pin the calling thread to the first CPU it is allowed, put it under
/// `SCHED_BATCH` and limit malloc to one arena. Call first thing in `main`,
/// before any thread exists: threads spawned later inherit the affinity and
/// the policy, so the simulator's process threads and the engine thread
/// share that one CPU, every handoff is a same-CPU wake rather than a
/// cross-CPU one whose cost the hypervisor varies, and a woken thread waits
/// for the waker to block instead of preempting it.
pub fn steady() -> Result<Settings, String> {
    let mut set = CpuSet([0; 16]);
    // SAFETY: `set` is a valid, writable cpu_set_t of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let allowed: Vec<usize> = (0..1024)
        .filter(|&c| set.0[c / 64] & (1 << (c % 64)) != 0)
        .collect();
    let cpu = *allowed.first().ok_or("no CPU in the affinity mask")?;
    let mut one = CpuSet([0; 16]);
    one.0[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a valid cpu_set_t of the size passed; pid 0 is the
    // calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    set_batch(true)?;
    // SAFETY: mallopt only adjusts allocator tuning; no thread has
    // allocated from a second arena yet.
    let one_arena = unsafe { mallopt(M_ARENA_MAX, 1) } == 1;
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    Ok(Settings {
        cpu,
        allowed,
        one_arena,
        parallelism,
    })
}

/// Put the calling thread under `SCHED_BATCH` (`true`) or back under the
/// default `SCHED_OTHER` (`false`). Threads it spawns afterwards inherit the
/// policy.
pub fn set_batch(on: bool) -> Result<(), String> {
    let param = SchedParam { priority: 0 };
    let policy = if on { SCHED_BATCH } else { SCHED_OTHER };
    // SAFETY: `param` is a valid sched_param; pid 0 is the calling thread.
    let rc = unsafe { sched_setscheduler(0, policy, &param) };
    if rc != 0 {
        return Err(format!(
            "sched_setscheduler: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(())
}

/// CPU time and voluntary context switches at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Voluntary context switches (the thread blocked).
    pub nvcsw: u64,
}

impl Usage {
    fn read(who: c_int) -> Usage {
        let mut ru = Rusage::default();
        // SAFETY: `ru` is a valid, writable struct rusage.
        let rc = unsafe { getrusage(who, &mut ru) };
        assert_eq!(rc, 0, "getrusage cannot fail with valid arguments");
        let secs = |t: Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
        Usage {
            user_s: secs(ru.utime),
            sys_s: secs(ru.stime),
            nvcsw: ru.rest[NVCSW] as u64,
        }
    }

    /// The calling thread's usage.
    pub fn thread() -> Usage {
        Self::read(RUSAGE_THREAD)
    }

    /// The whole process's usage, exited threads included.
    pub fn process() -> Usage {
        Self::read(RUSAGE_SELF)
    }

    /// User plus system seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// `self - earlier`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            nvcsw: self.nvcsw - earlier.nvcsw,
        }
    }
}

/// Return the heap's free memory to the system (`malloc_trim`), then reset
/// this process's peak resident set size to its current size (Linux
/// `clear_refs` value 5), so the next [`peak_rss_mb`] covers only what runs
/// after it, on top of live memory alone rather than whatever free memory
/// earlier operations left in the heap.
pub fn reset_peak_rss() -> std::io::Result<()> {
    // SAFETY: malloc_trim only releases free heap pages.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Peak resident set size of this process (`VmHWM`) since it started or
/// since the last [`reset_peak_rss`], in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
