//! Names every seeded `pub fn` except `orphaned_helper`, so each rule's
//! fixture trips only its own rule.

use std::sync::atomic::AtomicUsize;

#[test]
fn seeded_functions_have_a_caller() {
    demo::missing_safety_comment(&[1]);
    demo::library_unwrap("1");
    demo::unjustified_relaxed(&AtomicUsize::new(0));
    gk_gpusim::simulated_step_with_host_clock();
    gk_filters::demo_kernel_x4([0; 4]);
}
