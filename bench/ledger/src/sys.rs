//! What the ledger reads from the operating system: process resource
//! usage, the allocation count of this binary, the thread census, and the
//! description of the machine a run was taken on.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus one relaxed counter: every `alloc`/`realloc`
/// of the process (program and harness alike) is counted, so a per-cell
/// delta divided by the cell's operations is allocations per invocation.
pub struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a side effect only.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocations made by the process so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of Linux on 64-bit targets: two timevals and fourteen
/// longs.
#[repr(C)]
#[derive(Default)]
struct RawRusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    ixrss: i64,
    idrss: i64,
    isrss: i64,
    minflt: i64,
    majflt: i64,
    nswap: i64,
    inblock: i64,
    oublock: i64,
    msgsnd: i64,
    msgrcv: i64,
    nsignals: i64,
    nvcsw: i64,
    nivcsw: i64,
}

/// Words of the CPU masks passed to the affinity calls (1024 CPUs).
const CPU_MASK_WORDS: usize = 16;

extern "C" {
    fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restrict the calling thread — and every thread it spawns afterwards —
/// to the highest-numbered CPU it is allowed to run on. Returns that CPU,
/// or `None` when the kernel refuses (the run then goes unpinned and says
/// so).
///
/// One CPU, not all of them: on a small shared box the cost of an
/// invocation is dominated by waking a thread on another core, which is
/// the hypervisor's cost, not the program's, and moves by tens of percent
/// from minute to minute (the README has the measurement).
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; CPU_MASK_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let (word, bits) = mask
        .iter()
        .enumerate()
        .rev()
        .find(|(_, bits)| **bits != 0)?;
    let bit = 63 - bits.leading_zeros() as usize;
    let mut one = [0u64; CPU_MASK_WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of exactly `bytes` bytes naming one
    // CPU the thread was already allowed on; pid 0 names the calling
    // thread.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(word * 64 + bit)
}

/// Resource usage of the whole process (all threads, dead ones included).
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User CPU time, microseconds.
    pub user_us: u64,
    /// System CPU time, microseconds.
    pub sys_us: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
    /// Peak resident set size, KiB.
    pub max_rss_kib: u64,
}

impl Usage {
    /// Usage of this process now (zeros if the call fails).
    pub fn now() -> Usage {
        let mut raw = RawRusage::default();
        // SAFETY: `raw` is a live, writable `struct rusage` of the layout
        // the 64-bit Linux ABI defines; RUSAGE_SELF (0) is a valid `who`.
        let rc = unsafe { getrusage(0, &mut raw) };
        if rc != 0 {
            return Usage::default();
        }
        let micros = |t: &Timeval| (t.sec.max(0) as u64) * 1_000_000 + t.usec.max(0) as u64;
        Usage {
            user_us: micros(&raw.utime),
            sys_us: micros(&raw.stime),
            ctx_switches: (raw.nvcsw.max(0) + raw.nivcsw.max(0)) as u64,
            max_rss_kib: raw.maxrss.max(0) as u64,
        }
    }

    /// Counter-wise `self - earlier` (peak RSS is kept, not subtracted).
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_us: self.user_us.saturating_sub(earlier.user_us),
            sys_us: self.sys_us.saturating_sub(earlier.sys_us),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
            max_rss_kib: self.max_rss_kib,
        }
    }
}

/// Threads alive in this process (`Threads:` of `/proc/self/status`), 0 if
/// unreadable.
pub fn thread_count() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("Threads:"))
                .and_then(|rest| rest.trim().parse().ok())
        })
        .unwrap_or(0)
}

/// One-minute load average, -1 if unreadable.
pub fn load_average() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|text| text.split_whitespace().next()?.parse().ok())
        .unwrap_or(-1.0)
}

/// The machine a run was taken on; printed with every run so numbers from
/// different boxes are never compared by accident.
#[derive(Debug, Clone)]
pub struct Machine {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
    /// One-minute load average when the run started.
    pub load_start: f64,
    /// The CPU the whole process is pinned to, if pinning succeeded.
    pub pinned_cpu: Option<usize>,
}

impl Machine {
    /// Pin the process to one CPU and describe the machine. Call before
    /// any thread is spawned, so every thread inherits the pin.
    pub fn pin_and_probe() -> Machine {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let pinned_cpu = pin_to_one_cpu();
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|line| line.starts_with("model name"))
                    .and_then(|line| line.split(':').nth(1))
                    .map(|model| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map(|text| text.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string());
        Machine {
            nproc,
            cpu_model,
            kernel,
            load_start: load_average(),
            pinned_cpu,
        }
    }
}
