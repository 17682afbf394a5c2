//! Prefix caching: sharing KV state across requests (§2.2 / \[54\]).
//!
//! §2.2: "Reuse of the KV cache across requests \[54\] ... \[is\] used, but
//! \[has\] its limitations and even together they do not fundamentally change
//! the heavily read-dominated nature of the workload." This module
//! implements vLLM-style automatic prefix caching over chunk hashes so the
//! claim can be measured: shared system prompts deduplicate their KV
//! writes, which *reduces* the endurance requirement and prefill traffic —
//! and the experiment shows by how much (and that read dominance is
//! untouched).
//!
//! Prompts are represented as sequences of chunk hashes (one hash per
//! `chunk_tokens` tokens). The cache is a trie keyed by
//! `(parent node, chunk hash)` with reference counts, exactly the shape a
//! control plane would pin MRM zones with.

use std::collections::{BTreeMap, BTreeSet};

/// Node identifier in the prefix trie.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct PrefixNodeId(u32);

/// Sentinel parent for root chunks.
const ROOT: PrefixNodeId = PrefixNodeId(u32::MAX);

#[derive(Clone, Debug)]
struct Node {
    refcount: u32,
    /// Tokens covered by this chunk (== chunk_tokens except a short tail).
    tokens: u32,
}

/// Outcome of inserting a prompt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrefixInsert {
    /// Tokens whose KV state was already cached (no prefill, no KV write).
    pub hit_tokens: u64,
    /// Tokens that must be prefilled and written.
    pub new_tokens: u64,
    /// This request's pins on the node path (release when done).
    pub path: PrefixLease,
}

/// One holder's pins on an inserted node path, handed out by
/// [`PrefixCache::insert`] and spent by [`PrefixCache::release`]. A lease
/// belongs to the cache that issued it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrefixLease {
    id: u64,
    nodes: Vec<PrefixNodeId>,
}

impl PrefixLease {
    /// Nodes pinned by this lease.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the lease pins no node (a zero-token prompt).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// A reference-counted prefix-cache trie over chunk hashes.
///
/// # Examples
///
/// ```
/// use mrm_tiering::prefix::PrefixCache;
///
/// let mut pc = PrefixCache::new(16);
/// let a = pc.insert(&[11, 22, 33], 48);
/// assert_eq!(a.hit_tokens, 0);
/// // Same system prompt (first two chunks) + different user turn.
/// let b = pc.insert(&[11, 22, 99], 48);
/// assert_eq!(b.hit_tokens, 32);
/// assert_eq!(b.new_tokens, 16);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PrefixCache {
    chunk_tokens: u32,
    children: BTreeMap<(PrefixNodeId, u64), PrefixNodeId>,
    nodes: Vec<Node>,
    /// Cumulative stats.
    hits_tokens: u64,
    misses_tokens: u64,
    /// Id of the next lease [`PrefixCache::insert`] hands out.
    next_lease: u64,
    /// Leases handed out and not yet released.
    live_leases: BTreeSet<u64>,
    /// Release-mode count of double releases (debug builds assert instead).
    release_underflows: u64,
}

impl PrefixCache {
    /// Creates a cache with the given chunk granularity (tokens per chunk).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_tokens` is zero.
    pub fn new(chunk_tokens: u32) -> Self {
        assert!(chunk_tokens > 0, "chunk granularity must be positive");
        PrefixCache {
            chunk_tokens,
            ..Default::default()
        }
    }

    /// Tokens per chunk.
    pub fn chunk_tokens(&self) -> u32 {
        self.chunk_tokens
    }

    /// Live (referenced or cached) nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.tokens > 0).count()
    }

    /// Total KV tokens resident in the cache (deduplicated).
    pub fn resident_tokens(&self) -> u64 {
        self.nodes.iter().map(|n| u64::from(n.tokens)).sum()
    }

    /// Cumulative `(hit_tokens, miss_tokens)`.
    pub fn totals(&self) -> (u64, u64) {
        (self.hits_tokens, self.misses_tokens)
    }

    /// Hit rate over all inserted tokens.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits_tokens + self.misses_tokens;
        if total == 0 {
            return 0.0;
        }
        self.hits_tokens as f64 / total as f64
    }

    /// Inserts a prompt given its chunk hashes and total token count; the
    /// last chunk may be partial. Pins every node on the path.
    pub fn insert(&mut self, chunk_hashes: &[u64], prompt_tokens: u32) -> PrefixInsert {
        let mut parent = ROOT;
        let mut path = Vec::with_capacity(chunk_hashes.len());
        let mut hit_tokens = 0u64;
        let mut new_tokens = 0u64;
        let mut remaining = prompt_tokens;
        for (i, &h) in chunk_hashes.iter().enumerate() {
            // Extra hashes beyond the prompt's token count carry no KV
            // state: stop rather than minting zero-token nodes, which
            // would count as evicted (`tokens == 0`) while still pinned.
            if remaining == 0 {
                break;
            }
            let chunk = if i + 1 == chunk_hashes.len() {
                remaining
            } else {
                self.chunk_tokens.min(remaining)
            };
            remaining -= chunk;
            let id = match self.children.get(&(parent, h)) {
                Some(&id) if self.nodes[id.0 as usize].tokens > 0 => {
                    self.nodes[id.0 as usize].refcount += 1;
                    hit_tokens += u64::from(chunk);
                    id
                }
                _ => {
                    let id = PrefixNodeId(self.nodes.len() as u32);
                    self.nodes.push(Node {
                        refcount: 1,
                        tokens: chunk,
                    });
                    self.children.insert((parent, h), id);
                    new_tokens += u64::from(chunk);
                    id
                }
            };
            path.push(id);
            parent = id;
        }
        self.hits_tokens += hit_tokens;
        self.misses_tokens += new_tokens;
        let id = self.next_lease;
        self.next_lease += 1;
        self.live_leases.insert(id);
        PrefixInsert {
            hit_tokens,
            new_tokens,
            path: PrefixLease { id, nodes: path },
        }
    }

    /// Releases a request's pins. Nodes stay cached (refcount may reach 0)
    /// until [`PrefixCache::evict_unreferenced`] reclaims them.
    ///
    /// Releasing a lease that is no longer live is a caller bug: debug
    /// builds panic; release builds refuse it and count it in
    /// [`PrefixCache::release_underflows`]. Either way it never touches a
    /// refcount, so it cannot strip another holder's pin on a shared node.
    pub fn release(&mut self, lease: &PrefixLease) {
        let live = self.live_leases.remove(&lease.id);
        debug_assert!(live, "double release of prefix lease {}", lease.id);
        if !live {
            self.release_underflows += 1;
            return;
        }
        for &id in &lease.nodes {
            self.nodes[id.0 as usize].refcount -= 1;
        }
    }

    /// Double releases refused in release builds (always 0 in a correct
    /// caller; debug builds panic at the offending release instead).
    pub fn release_underflows(&self) -> u64 {
        self.release_underflows
    }

    /// Test oracle: every live node is reachable from the root over edges
    /// whose child is live, and every edge points at a live node. Returns
    /// the live-node count.
    ///
    /// # Panics
    ///
    /// Panics if a live node is unreachable (an orphan) or an edge targets
    /// an evicted node.
    pub fn check_invariants(&self) -> usize {
        let mut reachable = vec![false; self.nodes.len()];
        let mut frontier = vec![ROOT];
        while let Some(p) = frontier.pop() {
            for (&(parent, _), &child) in &self.children {
                let c = child.0 as usize;
                if parent == p && self.nodes[c].tokens > 0 && !reachable[c] {
                    reachable[c] = true;
                    frontier.push(child);
                }
            }
        }
        for &child in self.children.values() {
            assert!(
                self.nodes[child.0 as usize].tokens > 0,
                "edge points at evicted node {child:?}"
            );
        }
        let mut live = 0;
        for (i, n) in self.nodes.iter().enumerate() {
            if n.tokens > 0 {
                assert!(reachable[i], "live node {i} unreachable from root");
                live += 1;
            }
        }
        live
    }

    /// Evicts all unreferenced nodes (a coarse low-memory response).
    /// Returns the KV tokens reclaimed.
    pub fn evict_unreferenced(&mut self) -> u64 {
        let mut reclaimed = 0u64;
        // A node is evictable only if no *live* descendant references it;
        // sweep leaf-to-root by repeated passes (trie depth is small).
        loop {
            let mut changed = false;
            let has_live_child: Vec<bool> = {
                let mut v = vec![false; self.nodes.len()];
                for (&(parent, _), &child) in &self.children {
                    if parent != ROOT && self.nodes[child.0 as usize].tokens > 0 {
                        v[parent.0 as usize] = true;
                    }
                }
                v
            };
            for (i, n) in self.nodes.iter_mut().enumerate() {
                if n.tokens > 0 && n.refcount == 0 && !has_live_child[i] {
                    reclaimed += u64::from(n.tokens);
                    n.tokens = 0;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        self.children
            .retain(|_, &mut child| self.nodes[child.0 as usize].tokens > 0);
        reclaimed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_prompts_fully_hit() {
        let mut pc = PrefixCache::new(16);
        let first = pc.insert(&[1, 2, 3], 48);
        assert_eq!(first.hit_tokens, 0);
        assert_eq!(first.new_tokens, 48);
        let second = pc.insert(&[1, 2, 3], 48);
        assert_eq!(second.hit_tokens, 48);
        assert_eq!(second.new_tokens, 0);
        assert!((pc.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn shared_system_prompt_dedupes() {
        let mut pc = PrefixCache::new(16);
        pc.insert(&[7, 8, 100], 48);
        let b = pc.insert(&[7, 8, 200], 48);
        assert_eq!(b.hit_tokens, 32, "the two system-prompt chunks");
        assert_eq!(b.new_tokens, 16);
        // Divergent chunk with same hash but different parent is distinct.
        let c = pc.insert(&[100, 8, 7], 48);
        assert_eq!(c.hit_tokens, 0, "prefix identity is positional");
    }

    #[test]
    fn partial_tail_chunks_count_correct_tokens() {
        let mut pc = PrefixCache::new(16);
        let a = pc.insert(&[1, 2], 20); // 16 + 4-token tail
        assert_eq!(a.new_tokens, 20);
        let b = pc.insert(&[1, 2], 20);
        assert_eq!(b.hit_tokens, 20);
    }

    #[test]
    fn resident_tokens_are_deduplicated() {
        let mut pc = PrefixCache::new(16);
        for user in 0..10u64 {
            pc.insert(&[42, 43, 1000 + user], 48);
        }
        // One shared 32-token prefix + ten 16-token tails.
        assert_eq!(pc.resident_tokens(), 32 + 10 * 16);
    }

    #[test]
    fn eviction_respects_refcounts_and_children() {
        let mut pc = PrefixCache::new(16);
        let a = pc.insert(&[1, 2, 3], 48);
        let b = pc.insert(&[1, 2, 4], 48);
        // Release only request A: its unique tail is evictable, the shared
        // prefix is not (B still pins it).
        pc.release(&a.path);
        let reclaimed = pc.evict_unreferenced();
        assert_eq!(reclaimed, 16, "only A's tail chunk");
        // A re-inserted A must re-write only its tail.
        let a2 = pc.insert(&[1, 2, 3], 48);
        assert_eq!(a2.hit_tokens, 32);
        assert_eq!(a2.new_tokens, 16);
        // Release everything: all reclaimable.
        pc.release(&b.path);
        pc.release(&a2.path);
        let reclaimed = pc.evict_unreferenced();
        assert_eq!(reclaimed, 64, "shared prefix + both tails reclaimed");
        assert_eq!(pc.resident_tokens(), 0);
    }

    #[test]
    fn excess_hashes_mint_no_zero_token_nodes() {
        let mut pc = PrefixCache::new(16);
        // 16 tokens fill one chunk; the second hash carries nothing.
        let a = pc.insert(&[1, 2], 16);
        assert_eq!(a.path.len(), 1, "zero-token chunk must not be pinned");
        assert_eq!(a.new_tokens, 16);
        assert_eq!(pc.node_count(), 1);
        pc.check_invariants();
        // A later full-length insert caches the second chunk cleanly
        // instead of colliding with a dead placeholder.
        let b = pc.insert(&[1, 2], 32);
        assert_eq!(b.hit_tokens, 16);
        assert_eq!(b.new_tokens, 16);
        pc.release(&a.path);
        pc.release(&b.path);
        assert_eq!(pc.evict_unreferenced(), 32);
        pc.check_invariants();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double release")]
    fn double_release_panics_in_debug() {
        let mut pc = PrefixCache::new(16);
        let a = pc.insert(&[1], 8);
        pc.release(&a.path);
        pc.release(&a.path);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn double_release_is_refused_and_counted_in_release_builds() {
        let mut pc = PrefixCache::new(16);
        let a = pc.insert(&[1], 8);
        let b = pc.insert(&[1], 8);
        pc.release(&a.path);
        pc.release(&a.path); // caller bug: must not strip b's pin
        assert_eq!(pc.release_underflows(), 1);
        assert_eq!(pc.evict_unreferenced(), 0, "b still pins the node");
        pc.release(&b.path);
        assert_eq!(pc.evict_unreferenced(), 8);
    }

    #[test]
    fn interior_nodes_survive_while_descendants_live() {
        let mut pc = PrefixCache::new(16);
        let a = pc.insert(&[1, 2, 3], 48);
        // Release the shorter request while a longer one still pins the
        // deeper chain: nothing is reclaimable, the interior must survive.
        let b = pc.insert(&[1, 2, 3, 9], 64);
        pc.release(&a.path);
        assert_eq!(pc.evict_unreferenced(), 0);
        let c = pc.insert(&[1, 2, 3, 9], 64);
        assert_eq!(c.hit_tokens, 64, "whole chain must still be cached");
        pc.release(&b.path);
        pc.release(&c.path);
        assert_eq!(pc.evict_unreferenced(), 64);
    }
}
