//! Pins the benchmark, and with it every daemon it spawns, to one CPU.
//!
//! A run has three busy threads — the generator and one reactor per daemon
//! — and the sandbox two virtual CPUs. Left to the scheduler, every
//! request wakes a thread on the other CPU, which in a virtual machine is
//! an inter-processor interrupt and a trip through the hypervisor: at the
//! seed commit `tcp-singles` commits 70 k operations a second at 11 µs of
//! daemon CPU each on two CPUs and 125 k at 4.3 µs on one, and on two the
//! rate of any tenth of a second depends on where the three threads happen
//! to sit. On one CPU they run strictly one after another, so a run
//! measures the work the program does per operation and nothing of the
//! scheduler's placement.

use std::io;

// The C library `std` links already; the epoll shim under `crates/shims`
// declares its system calls the same way.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words of a CPU mask: room for 1024 CPUs, the C library's `cpu_set_t`.
const MASK_WORDS: usize = 16;

/// The highest-numbered CPU of `mask`.
fn highest_cpu(mask: &[u64; MASK_WORDS]) -> Option<usize> {
    let word = mask.iter().rposition(|word| *word != 0)?;
    Some(word * 64 + 63 - mask[word].leading_zeros() as usize)
}

/// Restricts the calling thread to the highest-numbered CPU it may run on
/// (the lowest take most of a virtual machine's device interrupts) and
/// returns it. Threads and processes started afterwards inherit the mask,
/// so this is called first thing in `main`.
pub fn pin_to_one_cpu() -> io::Result<usize> {
    let mut allowed = [0u64; MASK_WORDS];
    let size = std::mem::size_of_val(&allowed);
    // SAFETY: the pointer is to `size` writable bytes; pid 0 is the caller.
    if unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpu = highest_cpu(&allowed).ok_or_else(|| io::Error::other("no CPU to run on"))?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the pointer is to `size` readable bytes; pid 0 is the caller.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_highest_cpu_of_a_mask() {
        let mut mask = [0u64; MASK_WORDS];
        assert_eq!(highest_cpu(&mask), None);
        mask[0] = 0b11;
        assert_eq!(highest_cpu(&mask), Some(1));
        mask[2] = 1 << 5;
        assert_eq!(highest_cpu(&mask), Some(133));
    }

    #[test]
    fn pinning_leaves_one_cpu() {
        let cpu = pin_to_one_cpu().expect("may set its own affinity");
        let mut allowed = [0u64; MASK_WORDS];
        let size = std::mem::size_of_val(&allowed);
        // SAFETY: as in `pin_to_one_cpu`.
        assert_eq!(
            unsafe { sched_getaffinity(0, size, allowed.as_mut_ptr()) },
            0
        );
        assert_eq!(allowed.iter().map(|w| w.count_ones()).sum::<u32>(), 1);
        assert_eq!(highest_cpu(&allowed), Some(cpu));
    }
}
