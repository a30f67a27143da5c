//! Places the cluster's threads on processors.
//!
//! Left to the scheduler, the eight threads of an in-process cluster run
//! wherever they were last woken, and whether an op's wake-ups cross
//! processors is decided anew in every run: on this 2-processor virtual
//! machine the same binary measured 13k, 20k, 26k and 61k `remote_rt`
//! ops/s in successive runs. So the placement is fixed, by one rule: a
//! workload runs on as many processors as it can keep busy at once
//! ([`Workload::processors`](crate::workload::Workload::processors)),
//! node `i` on the `i`-th of them and the last of them hosting the nodes
//! beyond.
//!
//! * One client, no disk: one processor. A closed loop with one op in
//!   flight never needs two threads at once, so an op's time is the
//!   processor time the whole stack spends on it, on every node, plus
//!   context switches: all of it code a change to this repository can
//!   move. (`stream_pipelined` keeps a window in flight; here its client
//!   and owner take turns, and it measures processor time per write.) On
//!   two processors the same `remote_rt` op is 50 µs instead of
//!   15, the difference being hypervisor time for cross-processor
//!   wake-ups, which no change here can move and which spreads twice as
//!   widely from run to run.
//! * `mixed_contended` has two clients and runs them in parallel, node 0
//!   on one processor and nodes 1 and 2 on the other: its point is
//!   concurrent writers and a client contending with a peer's requests.
//! * `remote_rt_durable` has one client and a disk. The device's
//!   completion interrupts and the kernel's journal threads run beside
//!   the cluster whether it likes it or not; confined to one processor
//!   with them, its `read_p95_us` spread 33 % over ten seeds, with a
//!   second processor 11 %.
//!
//! A workload with more clients than the machine has processors is
//! refused by `main`: its clients would time-share and measure the
//! scheduler.

use std::sync::OnceLock;

const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The processors this process was allowed on when first asked,
/// ascending; empty where affinity is unavailable, and then nothing is
/// pinned. First asked from an unpinned thread: `main`, or a bring-up
/// thread before it pins itself.
fn allowed() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(|| {
        #[cfg(target_os = "linux")]
        {
            let mut mask = [0u64; MASK_WORDS];
            let bytes = std::mem::size_of_val(&mask);
            // SAFETY: `mask` is a writable buffer of exactly `bytes`
            // bytes (glibc's 1024-bit `cpu_set_t`), and pid 0 names the
            // calling thread.
            if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } == 0 {
                return (0..MASK_WORDS * 64)
                    .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
                    .collect();
            }
        }
        Vec::new()
    })
}

/// Number of processors available: the most client threads a workload
/// may run. 0 where affinity is unavailable.
#[must_use]
pub fn processors() -> usize {
    allowed().len()
}

/// The processor of `node`'s threads in a workload that keeps
/// `processors` of them busy, if placement is available.
#[must_use]
pub fn cpu_of(node: u32, processors: usize) -> Option<usize> {
    // Counted from the highest-numbered processor down: device
    // interrupts are mostly served by the lowest.
    let cpus = allowed();
    let used = cpus.len().min(processors);
    let nth = (node as usize).min(used.checked_sub(1)?);
    Some(cpus[cpus.len() - 1 - nth])
}

/// Restricts the calling thread, and every thread it spawns later, to
/// `node`'s processor (see [`cpu_of`]). Returns whether the thread is
/// now there.
pub fn enter(node: u32, processors: usize) -> bool {
    let Some(cpu) = cpu_of(node, processors) else {
        return false;
    };
    #[cfg(target_os = "linux")]
    {
        let mut only = [0u64; MASK_WORDS];
        only[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `only` is a readable buffer of exactly the size
        // passed, and pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&only), only.as_ptr()) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = cpu;
        false
    }
}
