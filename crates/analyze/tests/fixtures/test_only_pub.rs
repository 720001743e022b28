//! Fixture: test-only-pub. Fed to the analyzer as a library-crate file,
//! beside synthetic caller files; never compiled into the simulator.

use std::fmt;

/// Only the unit tests and an integration test call this.
pub fn only_tested() -> u64 { // line 7: flagged
    7
}

/// The CLI calls this.
pub fn called_by_cli() -> u64 {
    only_tested_helper()
}

/// perfbench calls this.
pub fn called_by_perfbench() -> u64 {
    2
}

fn only_tested_helper() -> u64 {
    1
}

/// The crate root re-exports this, which names nothing.
pub const ONLY_REEXPORTED: u64 = 3; // line 26: flagged

pub struct Probe;

impl fmt::Display for Probe {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "probe")
    }
}

pub use crate::elsewhere::Reexported;

// analyze: allow(test-only-pub) reason="fixture: a deliberate entry point"
pub fn kept_entry_point() {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calls() {
        assert_eq!(only_tested(), 7);
        assert_eq!(ONLY_REEXPORTED, 3);
        kept_entry_point();
        assert_eq!(Probe.to_string(), "probe");
    }
}
