//! Fixture: sync-discipline. Fed to the analyzer under a simulation-crate
//! path; never compiled. Synchronization primitives, interior mutability
//! and `unsafe` are forbidden outside the host-side harness files.

use std::sync::Mutex; // line 5: lock type
use std::sync::atomic::AtomicU64; // line 6: the Atomic* family

pub fn step() {
    let cell = RefCell::new(0u64); // line 9: interior mutability
    let count = AtomicU64::new(0); // line 10: atomic
    let zero = unsafe { core::mem::zeroed::<u64>() }; // line 11: escape hatch
    drop((cell, count, zero));
}

pub fn sanctioned() {
    // analyze: allow(sync-discipline) reason="fixture: sanctioned hand-off"
    let gate = Mutex::new(()); // line 17: suppressed by the allow above
    drop(gate);
}

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    #[test]
    fn sync_in_tests_is_fine() {
        let m = Mutex::new(0);
        assert_eq!(*m.lock().unwrap(), 0);
    }
}
