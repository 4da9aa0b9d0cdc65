//! Per-crate panic-density ratchet.
//!
//! Each entry is the maximum *density* of non-test `.unwrap()` /
//! `.expect(` sites the crate may contain, in sites per 10,000 non-test
//! code lines (tenths of sites-per-KLoC: a ceiling of 45 reads as 4.5
//! sites per KLoC). Density, not an absolute count, so a crate that
//! doubles in size with the same habits neither trips the ratchet nor
//! earns free panic headroom from sheer growth — the ceiling tracks
//! discipline, not volume.
//!
//! The ceilings are pinned to the measured density at the time they were
//! last touched, so the density can only go down: new panic sites fail
//! `--deny`, and removing sites (or adding panic-free code) should be
//! followed by lowering the ceiling here. A crate with no entry fails
//! analysis outright — new crates must opt in explicitly.

pub const PANIC_CEILINGS: &[(&str, usize)] = &[
    ("analyze", 0),
    ("baselines", 27),
    ("bench", 45),
    ("core", 55),
    // The facade crate re-exports only.
    ("klotski", 0),
    ("model", 0),
    // Two `expect`s with documented invariants (h2o eviction, argmax on
    // a non-empty vocabulary).
    ("moe", 18),
    ("serve", 27),
    ("sim", 36),
    ("tensor", 0),
];

/// Looks up the density ceiling for a crate key (`crates/<key>/...`, or
/// `klotski` for the root facade sources), in sites per 10k lines.
pub fn ceiling(krate: &str) -> Option<usize> {
    PANIC_CEILINGS
        .iter()
        .find(|(k, _)| *k == krate)
        .map(|&(_, c)| c)
}

/// Measured density in the ratchet's unit: sites per 10,000 non-test
/// code lines, rounded up so a single site in a tiny crate never rounds
/// to a free zero.
pub fn density_per_10k(sites: usize, code_lines: usize) -> usize {
    let loc = code_lines.max(1);
    (sites * 10_000).div_ceil(loc)
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
        assert_eq!(ceiling("core"), Some(55));
        assert_eq!(ceiling("nonexistent"), None);
    }

    #[test]
    fn density_rounds_up_and_survives_empty_crates() {
        assert_eq!(density_per_10k(0, 0), 0);
        assert_eq!(density_per_10k(0, 5_000), 0);
        assert_eq!(density_per_10k(1, 10_000), 1);
        assert_eq!(density_per_10k(1, 9_999), 2, "rounds up, not down");
        assert_eq!(density_per_10k(3, 1_000), 30);
        assert_eq!(density_per_10k(2, 0), 20_000, "zero-line guard");
    }
}
