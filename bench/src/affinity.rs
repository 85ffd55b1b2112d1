//! CPU affinity of the calling thread, through Linux `sched_setaffinity` in
//! the C library the standard library already links.

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Words of the kernel's default CPU set (`cpu_set_t`, 1024 bits).
const MASK_WORDS: usize = 1024 / 64;

/// Restricts the calling thread — and every thread it starts from now on —
/// to `cpus` (those the process may not use are ignored by the kernel).
/// Returns false when none of them is allowed; the affinity is then
/// unchanged.
pub fn restrict_to(cpus: impl IntoIterator<Item = usize>) -> bool {
    let mut mask = [0u64; MASK_WORDS];
    for cpu in cpus.into_iter().filter(|&c| c < MASK_WORDS * 64) {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is an initialised array that outlives the call and the
    // size passed is exactly its length in bytes; pid 0 names the calling
    // thread, and the kernel only reads the mask.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Pins the calling thread to the first CPU it may use; returns that CPU.
pub fn pin_to_one_cpu() -> Option<usize> {
    (0..MASK_WORDS * 64).find(|&cpu| restrict_to([cpu]))
}

/// Lets the calling thread run on every CPU the process may use again.
pub fn unpin() -> bool {
    restrict_to(0..MASK_WORDS * 64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_thread_can_pin_and_unpin_itself() {
        // A thread of its own, so the test runner's threads keep their mask.
        std::thread::spawn(|| {
            assert!(pin_to_one_cpu().is_some());
            assert!(!restrict_to([]));
            assert!(unpin());
        })
        .join()
        .expect("affinity thread");
    }
}
