//! Gives the load generator one CPU and the program the others.
//!
//! The open-loop generator spins between sends, so it holds a CPU for
//! the whole loop. Left to the scheduler, the server's workers, the
//! reply collector and the writer land beside it or apart from it,
//! each placement holds for seconds, and the median read latency of a
//! run depended on which one it drew (on a 2-vCPU VM, 11 against
//! 25 us). So the load threads (generator, collector, closed-loop
//! client) run on the last CPU the process may use, and the main
//! thread, with every thread the program starts from it, on the rest:
//! client and server as on two machines.

use std::sync::OnceLock;

/// `cpu_set_t` as glibc lays it out: 1024 bits.
#[repr(C)]
#[derive(Clone, Copy)]
struct CpuSet([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

const SIZE: usize = std::mem::size_of::<CpuSet>();

/// The load CPU, once [`init`] has split the CPUs.
static LOAD_CPU: OnceLock<usize> = OnceLock::new();
/// How many CPUs the process may use, counted before the split.
static CPUS: OnceLock<usize> = OnceLock::new();

fn set_calling_thread(set: &CpuSet) -> bool {
    // SAFETY: the kernel reads `SIZE` bytes of `set`, which is that
    // large.
    unsafe { sched_setaffinity(0, SIZE, set) == 0 }
}

/// Splits the CPUs the process may use: pins the calling thread (the
/// main thread, before it starts any other) to all but the last, and
/// keeps the last for [`load_thread`]. With fewer than two CPUs
/// nothing is pinned.
pub fn init() {
    let mut set = CpuSet([0; 16]);
    // SAFETY: the kernel writes at most `SIZE` bytes into `set`, which
    // is that large.
    if unsafe { sched_getaffinity(0, SIZE, &mut set) } != 0 {
        return;
    }
    let cpus: Vec<usize> = (0..16 * 64)
        .filter(|&c| (set.0[c / 64] >> (c % 64)) & 1 == 1)
        .collect();
    let _ = CPUS.set(cpus.len());
    if let [_, .., last] = cpus[..] {
        let mut server = set;
        server.0[last / 64] &= !(1 << (last % 64));
        if set_calling_thread(&server) {
            let _ = LOAD_CPU.set(last);
        }
    }
}

/// How many CPUs the process may use, the load CPU included (`nproc`).
pub fn cpus() -> usize {
    CPUS.get()
        .copied()
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Pins the calling thread to the load CPU, if [`init`] kept one. A
/// failure leaves the thread where it was, which costs only
/// steadiness.
pub fn load_thread() {
    if let Some(&cpu) = LOAD_CPU.get() {
        let mut set = CpuSet([0; 16]);
        set.0[cpu / 64] |= 1 << (cpu % 64);
        set_calling_thread(&set);
    }
}
