//! Fixture: sync-discipline. Fed to the analyzer under a simulation-crate
//! path; never compiled. Synchronization primitives, interior mutability
//! and `unsafe` are forbidden outside the host-side harness files, and
//! frozen read views must stay `&self`.

use std::sync::Mutex; // line 6: lock type
use std::sync::atomic::AtomicU64; // line 7: the Atomic* family

pub struct LlcView {
    lines: u64,
}

impl LlcView {
    pub fn probe(&self, addr: u64) -> bool { // line 14: &self query, legal
        self.lines == addr
    }

    pub fn touch(&mut self, addr: u64) { // line 18: mutating view method
        self.lines = addr;
    }
}

impl Stage {
    pub fn apply(&mut self) { // line 24: &mut self off a non-view impl, legal
        let _ = self;
    }
}

pub fn step() {
    let cell = RefCell::new(0u64); // line 30: interior mutability
    let count = AtomicU64::new(0); // line 31: atomic
    let zero = unsafe { core::mem::zeroed::<u64>() }; // line 32: escape hatch
    drop((cell, count, zero));
}

pub fn sanctioned() {
    // analyze: allow(sync-discipline) reason="fixture: sanctioned hand-off"
    let gate = Mutex::new(()); // line 38: suppressed by the allow above
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
