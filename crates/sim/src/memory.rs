//! Capacity-tracked memory tiers (VRAM / DRAM / disk).
//!
//! Pools track live bytes and the high-water mark; allocation beyond
//! capacity is an error surfaced to the engine, which is how out-of-memory
//! behaviour of baselines (e.g. MoE-Infinity at large batch sizes, §9.2 of
//! the paper) is reproduced.

use std::error::Error;
use std::fmt;

/// A level of the heterogeneous memory hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// GPU memory.
    Vram,
    /// Host (CPU) memory.
    Dram,
    /// Disk / SSD.
    Disk,
}

impl Tier {
    /// All tiers, fastest first.
    pub const ALL: [Tier; 3] = [Tier::Vram, Tier::Dram, Tier::Disk];

    /// Dense index in [`Tier::ALL`].
    pub fn index(self) -> usize {
        match self {
            Tier::Vram => 0,
            Tier::Dram => 1,
            Tier::Disk => 2,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Tier::Vram => "vram",
            Tier::Dram => "dram",
            Tier::Disk => "disk",
        }
    }

    /// The next slower tier, if any.
    pub fn slower(self) -> Option<Tier> {
        match self {
            Tier::Vram => Some(Tier::Dram),
            Tier::Dram => Some(Tier::Disk),
            Tier::Disk => None,
        }
    }
}

impl fmt::Display for Tier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A signed memory effect applied by a task at start or end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemDelta {
    /// Which pool the delta applies to.
    pub tier: Tier,
    /// Signed byte count: positive allocates, negative frees.
    pub bytes: i64,
}

impl MemDelta {
    /// An allocation of `bytes` on `tier`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds `i64::MAX`.
    #[inline]
    pub fn alloc(tier: Tier, bytes: u64) -> Self {
        MemDelta {
            tier,
            bytes: i64::try_from(bytes).expect("allocation size overflows i64"),
        }
    }

    /// A release of `bytes` on `tier`.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds `i64::MAX`.
    #[inline]
    pub fn free(tier: Tier, bytes: u64) -> Self {
        MemDelta {
            tier,
            bytes: -i64::try_from(bytes).expect("free size overflows i64"),
        }
    }
}

/// Error returned when an allocation exceeds a pool's capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OomError {
    /// Pool that overflowed.
    pub tier: Tier,
    /// Bytes requested by the failing allocation.
    pub requested: u64,
    /// Live bytes at the time of the failure.
    pub in_use: u64,
    /// Pool capacity.
    pub capacity: u64,
}

impl fmt::Display for OomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "out of memory on {}: requested {} B with {} / {} B in use",
            self.tier, self.requested, self.in_use, self.capacity
        )
    }
}

impl Error for OomError {}

/// A capacity-tracked pool for one memory tier.
///
/// # Examples
///
/// ```
/// use klotski_sim::memory::{MemoryPool, Tier};
///
/// let mut pool = MemoryPool::new(Tier::Vram, 1024);
/// pool.alloc(512)?;
/// assert_eq!(pool.in_use(), 512);
/// pool.free(512);
/// assert_eq!(pool.in_use(), 0);
/// assert_eq!(pool.peak(), 512);
/// # Ok::<(), klotski_sim::memory::OomError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MemoryPool {
    tier: Tier,
    capacity: u64,
    in_use: u64,
    peak: u64,
}

impl MemoryPool {
    /// Creates a pool of `capacity` bytes for `tier`.
    pub fn new(tier: Tier, capacity: u64) -> Self {
        MemoryPool {
            tier,
            capacity,
            in_use: 0,
            peak: 0,
        }
    }

    /// The tier this pool models.
    pub fn tier(&self) -> Tier {
        self.tier
    }

    /// Total capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Live bytes.
    pub fn in_use(&self) -> u64 {
        self.in_use
    }

    /// Bytes still available.
    pub fn available(&self) -> u64 {
        self.capacity - self.in_use
    }

    /// High-water mark of live bytes since creation.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Whether `bytes` more would fit right now.
    pub fn fits(&self, bytes: u64) -> bool {
        bytes <= self.available()
    }

    /// Reserves `bytes`.
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] if the pool would exceed its capacity; the pool
    /// is left unchanged in that case.
    pub fn alloc(&mut self, bytes: u64) -> Result<(), OomError> {
        if !self.fits(bytes) {
            return Err(OomError {
                tier: self.tier,
                requested: bytes,
                in_use: self.in_use,
                capacity: self.capacity,
            });
        }
        self.in_use += bytes;
        self.peak = self.peak.max(self.in_use);
        Ok(())
    }

    /// Reserves as much of `bytes` as is available, `min(bytes,
    /// available)`, and returns that amount. Infallible: for staging that
    /// fills a tier up to its capacity (on a fresh pool, `min(bytes,
    /// capacity)`).
    pub fn alloc_up_to(&mut self, bytes: u64) -> u64 {
        let granted = bytes.min(self.available());
        self.in_use += granted;
        self.peak = self.peak.max(self.in_use);
        granted
    }

    /// Releases `bytes`.
    ///
    /// # Panics
    ///
    /// Panics if more bytes are freed than are live — this always indicates
    /// a scheduler bookkeeping bug and must not be silently absorbed.
    pub fn free(&mut self, bytes: u64) {
        assert!(
            bytes <= self.in_use,
            "{}: freeing {bytes} B with only {} B live",
            self.tier,
            self.in_use
        );
        self.in_use -= bytes;
    }

    /// Applies a signed delta (task memory effect).
    ///
    /// # Errors
    ///
    /// Returns [`OomError`] on allocation overflow.
    ///
    /// # Panics
    ///
    /// Panics if a negative delta frees more than is live.
    pub fn apply(&mut self, delta: i64) -> Result<(), OomError> {
        if delta >= 0 {
            self.alloc(delta as u64)
        } else {
            self.free((-delta) as u64);
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_tracks_usage_and_peak() {
        let mut p = MemoryPool::new(Tier::Dram, 100);
        p.alloc(60).unwrap();
        p.alloc(30).unwrap();
        assert_eq!(p.in_use(), 90);
        assert_eq!(p.available(), 10);
        p.free(50);
        assert_eq!(p.in_use(), 40);
        assert_eq!(p.peak(), 90);
    }

    #[test]
    fn oom_is_reported_and_pool_unchanged() {
        let mut p = MemoryPool::new(Tier::Vram, 100);
        p.alloc(80).unwrap();
        let err = p.alloc(21).unwrap_err();
        assert_eq!(err.tier, Tier::Vram);
        assert_eq!(err.requested, 21);
        assert_eq!(err.in_use, 80);
        assert_eq!(p.in_use(), 80);
        assert!(err.to_string().contains("out of memory on vram"));
    }

    #[test]
    fn alloc_up_to_grants_what_is_available() {
        let mut p = MemoryPool::new(Tier::Dram, 100);
        assert_eq!(p.alloc_up_to(30), 30);
        assert_eq!(p.alloc_up_to(500), 70);
        assert_eq!(p.alloc_up_to(5), 0);
        assert_eq!((p.in_use(), p.peak()), (100, 100));
    }

    #[test]
    #[should_panic(expected = "freeing")]
    fn over_free_panics() {
        let mut p = MemoryPool::new(Tier::Vram, 100);
        p.alloc(10).unwrap();
        p.free(11);
    }

    #[test]
    fn apply_handles_both_signs() {
        let mut p = MemoryPool::new(Tier::Disk, 1000);
        p.apply(700).unwrap();
        p.apply(-200).unwrap();
        assert_eq!(p.in_use(), 500);
        assert!(p.apply(600).is_err());
    }

    #[test]
    fn tier_ordering_and_names() {
        assert_eq!(Tier::Vram.slower(), Some(Tier::Dram));
        assert_eq!(Tier::Dram.slower(), Some(Tier::Disk));
        assert_eq!(Tier::Disk.slower(), None);
        for (i, t) in Tier::ALL.iter().enumerate() {
            assert_eq!(t.index(), i);
        }
    }

    #[test]
    fn mem_delta_constructors() {
        assert_eq!(MemDelta::alloc(Tier::Vram, 5).bytes, 5);
        assert_eq!(MemDelta::free(Tier::Vram, 5).bytes, -5);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// in_use equals the sum of surviving allocations; peak never decreases
        /// and always bounds in_use.
        #[test]
        fn conservation(ops in proptest::collection::vec(0u64..50, 1..100)) {
            let mut p = MemoryPool::new(Tier::Dram, 10_000);
            let mut live: Vec<u64> = Vec::new();
            let mut expected = 0u64;
            for (i, &sz) in ops.iter().enumerate() {
                if i % 3 == 2 && !live.is_empty() {
                    let sz = live.pop().unwrap();
                    p.free(sz);
                    expected -= sz;
                } else if p.fits(sz) {
                    p.alloc(sz).unwrap();
                    live.push(sz);
                    expected += sz;
                }
                prop_assert_eq!(p.in_use(), expected);
                prop_assert!(p.peak() >= p.in_use());
                prop_assert!(p.in_use() <= p.capacity());
            }
        }
    }
}
