//! Per-crate panic-site ratchet.
//!
//! Each entry is the maximum *number* of non-test `.unwrap()` /
//! `.expect(` sites the crate may contain. A count, not a density per
//! line: deleting code never raises a count, so a simplification that
//! removes duplicated lines without removing a panic site cannot trip the
//! ratchet, while every new site in a crate at its ceiling fails `--deny`.
//!
//! The ceilings are pinned to the measured counts at the time they were
//! last touched, so a count can only go down: removing sites should be
//! followed by lowering the ceiling here. A crate with no entry fails
//! analysis outright — new crates must opt in explicitly.

pub const PANIC_CEILINGS: &[(&str, usize)] = &[
    ("analyze", 0),
    ("baselines", 2),
    ("bench", 11),
    ("core", 14),
    // The facade crate re-exports only.
    ("klotski", 0),
    ("model", 0),
    // Two `expect`s with documented invariants (h2o eviction, argmax on
    // a non-empty vocabulary).
    ("moe", 2),
    ("serve", 3),
    ("sim", 4),
    ("tensor", 0),
];

/// Looks up the site ceiling for a crate key (`crates/<key>/...`, or
/// `klotski` for the root facade sources).
pub fn ceiling(krate: &str) -> Option<usize> {
    PANIC_CEILINGS
        .iter()
        .find(|(k, _)| *k == krate)
        .map(|&(_, c)| c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_sorted_and_unique() {
        for w in PANIC_CEILINGS.windows(2) {
            assert!(w[0].0 < w[1].0, "{} !< {}", w[0].0, w[1].0);
        }
    }

    #[test]
    fn lookup_hits_and_misses() {
        assert_eq!(ceiling("core"), Some(14));
        assert_eq!(ceiling("moe"), Some(2));
        assert_eq!(ceiling("nonexistent"), None);
    }
}
