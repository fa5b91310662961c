//! CPU placement of the serving half: the server's threads and the reader
//! share one core, so every read is the same pair of context switches on
//! that core instead of a wake-up sent to another, possibly idle, core
//! (whose latency follows the load of the host under a virtual machine).

/// Bytes of the CPU mask passed to the kernel (1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread (and threads it creates from now on) to
/// `cpus`; an empty slice allows every CPU. Returns whether the kernel
/// accepted the mask.
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    if cpus.is_empty() {
        mask = [u64::MAX; MASK_WORDS];
    }
    for &c in cpus.iter().filter(|&&c| c < MASK_WORDS * 64) {
        mask[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a live, initialized array of exactly the size
    // passed, and pid 0 names the calling thread; the call only reads it.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// The CPU the server's threads and the reader share.
pub const SERVE_CPU: usize = 0;
