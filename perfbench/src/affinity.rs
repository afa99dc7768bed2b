//! CPU affinity of the load threads.
//!
//! Each closed loop runs on a CPU of its own, so one loop's reply check
//! (a simulator run of about a millisecond) cannot hold the core the
//! other loop's reply decode is waiting for. In 10 s `miss_binary` runs
//! on a 2-vCPU x86_64 VM, three with unpinned loops read a median-window
//! p99 of 825-975 us, three with pinned loops 724-741 us. The server's
//! threads are left to the scheduler.

/// 64-bit words in a `cpu_set_t` (1024 CPUs).
const SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPUs the calling thread may run on, in ascending order (empty
/// if the system refused to say).
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; SET_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..SET_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] & (1 << (cpu % 64)) != 0)
        .collect()
}

/// Restricts the calling thread to `cpu`; false if the system refused.
pub fn pin_current_thread(cpu: usize) -> bool {
    let mut mask = [0u64; SET_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}
