//! Seeded violations: one `unsafe` block without a SAFETY comment, one
//! `unwrap()` in library code, one unjustified `Ordering::Relaxed`, and one
//! `pub fn` no other file names (`tests/callers.rs` names the rest).

use std::sync::atomic::{AtomicUsize, Ordering};

pub fn missing_safety_comment(values: &[u32]) -> u32 {
    unsafe { *values.get_unchecked(0) }
}

pub fn library_unwrap(text: &str) -> u32 {
    text.parse::<u32>().unwrap()
}

pub fn unjustified_relaxed(counter: &AtomicUsize) -> usize {
    counter.load(Ordering::Relaxed)
}

/// Only this file names it, and a comment elsewhere does not count as a use.
pub fn orphaned_helper() -> u32 {
    7
}

#[cfg(test)]
mod tests {
    // Inside a test region both patterns are fine; the analyzer must not
    // report these lines.
    #[test]
    fn unwrap_is_fine_in_tests() {
        assert_eq!("7".parse::<u32>().unwrap(), 7);
    }
}
