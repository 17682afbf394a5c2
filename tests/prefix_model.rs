//! Model-based invariant suite for the prefix cache (PR 6 bug-burndown).
//!
//! The `PrefixCache` trie is driven through random scripts of inserts,
//! releases and evictions while a plain-map oracle — `BTreeMap` keyed by
//! hash-path prefix, applying the same chunking rule — tracks what every
//! observable must be. The script exercises exactly the edge cases the
//! refcount fix targets: prompts whose hash list outruns their token count
//! (previously minting zero-token ghost nodes), interleaved release orders,
//! and evictions racing re-inserts of the same prefix.

use std::collections::BTreeMap;

use mrm::tiering::prefix::{PrefixCache, PrefixLease};
use proptest::prelude::*;

/// The oracle: one entry per live chunk, keyed by its hash path from the
/// root. Refcounts and token sizes only — no trie, no node ids.
#[derive(Default)]
struct Model {
    chunk_tokens: u32,
    nodes: BTreeMap<Vec<u64>, (u32, u32)>, // path -> (refcount, tokens)
}

impl Model {
    fn new(chunk_tokens: u32) -> Model {
        Model {
            chunk_tokens,
            ..Model::default()
        }
    }

    /// Mirrors `PrefixCache::insert`: same chunking rule (last chunk takes
    /// the remainder, zero-token chunks are never created), hits counted at
    /// the inserting request's chunk size.
    fn insert(&mut self, hashes: &[u64], prompt_tokens: u32) -> (u64, u64, Vec<Vec<u64>>) {
        let mut remaining = prompt_tokens;
        let (mut hit, mut new) = (0u64, 0u64);
        let mut path = Vec::new();
        let mut prefix: Vec<u64> = Vec::new();
        for (i, &h) in hashes.iter().enumerate() {
            if remaining == 0 {
                break;
            }
            let chunk = if i + 1 == hashes.len() {
                remaining
            } else {
                self.chunk_tokens.min(remaining)
            };
            remaining -= chunk;
            prefix.push(h);
            match self.nodes.get_mut(&prefix) {
                Some((rc, _)) => {
                    *rc += 1;
                    hit += u64::from(chunk);
                }
                None => {
                    self.nodes.insert(prefix.clone(), (1, chunk));
                    new += u64::from(chunk);
                }
            }
            path.push(prefix.clone());
        }
        (hit, new, path)
    }

    fn release(&mut self, path: &[Vec<u64>]) {
        for p in path {
            let (rc, _) = self
                .nodes
                .get_mut(p)
                .expect("oracle: released path must be live");
            assert!(*rc > 0, "oracle: double release");
            *rc -= 1;
        }
    }

    /// Mirrors `evict_unreferenced`: an unreferenced node dies only once no
    /// live child remains, to a fixpoint.
    fn evict_unreferenced(&mut self) -> u64 {
        let mut reclaimed = 0u64;
        loop {
            let victims: Vec<Vec<u64>> =
                self.nodes
                    .iter()
                    .filter(|(path, (rc, _))| {
                        *rc == 0
                            && !self.nodes.keys().any(|other| {
                                other.len() == path.len() + 1 && other.starts_with(path)
                            })
                    })
                    .map(|(path, _)| path.clone())
                    .collect();
            if victims.is_empty() {
                return reclaimed;
            }
            for path in victims {
                let (_, tokens) = self.nodes.remove(&path).expect("victim exists");
                reclaimed += u64::from(tokens);
            }
        }
    }

    fn resident_tokens(&self) -> u64 {
        self.nodes.values().map(|&(_, t)| u64::from(t)).sum()
    }
}

#[derive(Clone, Debug)]
enum Op {
    /// Insert a prompt: chunk hashes (small alphabet to force sharing) and
    /// a token count deliberately *decoupled* from the hash count.
    Insert(Vec<u64>, u32),
    /// Release the k-th outstanding request's pins (mod the live count).
    Release(usize),
    /// Evict everything unreferenced.
    Evict,
}

/// Decodes one generated `(kind, arg, tokens)` tuple into an op (the
/// vendored proptest stand-in has no `prop_oneof`, so scripts are tuples —
/// the same encoding the fault-invariant suite uses). Inserts dominate;
/// hash paths are 1–4 chunks over a 4-symbol alphabet to force sharing.
fn decode(kind: u8, arg: u64, tokens: u32) -> Op {
    match kind {
        0..=4 => {
            let len = 1 + (arg % 4) as usize;
            let hashes = (0..len).map(|i| (arg >> (2 * i + 2)) & 3).collect();
            Op::Insert(hashes, tokens)
        }
        5..=6 => Op::Release(arg as usize),
        _ => Op::Evict,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn prefix_cache_matches_plain_map_oracle(
        ops in proptest::collection::vec((0u8..8, 0u64..u64::MAX, 1u32..60), 1..60),
    ) {
        let chunk = 16;
        let mut pc = PrefixCache::new(chunk);
        let mut model = Model::new(chunk);
        // Outstanding pins: (real path, oracle path), released exactly once.
        let mut outstanding: Vec<(PrefixLease, Vec<Vec<u64>>)> = Vec::new();

        for &(kind, arg, tokens) in &ops {
            match &decode(kind, arg, tokens) {
                Op::Insert(hashes, tokens) => {
                    let got = pc.insert(hashes, *tokens);
                    let (hit, new, mpath) = model.insert(hashes, *tokens);
                    prop_assert_eq!(got.hit_tokens, hit, "hit tokens diverge");
                    prop_assert_eq!(got.new_tokens, new, "new tokens diverge");
                    prop_assert_eq!(
                        got.hit_tokens + got.new_tokens,
                        u64::from(*tokens),
                        "every prompt token is either hit or written"
                    );
                    prop_assert_eq!(got.path.len(), mpath.len(), "pinned path length");
                    outstanding.push((got.path, mpath));
                }
                Op::Release(k) => {
                    if !outstanding.is_empty() {
                        let (rpath, mpath) = outstanding.remove(k % outstanding.len());
                        pc.release(&rpath);
                        model.release(&mpath);
                    }
                }
                Op::Evict => {
                    prop_assert_eq!(
                        pc.evict_unreferenced(),
                        model.evict_unreferenced(),
                        "reclaimed tokens diverge"
                    );
                }
            }
            prop_assert_eq!(pc.resident_tokens(), model.resident_tokens());
            prop_assert_eq!(pc.node_count(), model.nodes.len(), "live node count");
            prop_assert_eq!(pc.release_underflows(), 0);
            pc.check_invariants();
        }

        // Drain: releasing every pin and evicting empties both worlds.
        for (rpath, mpath) in outstanding.drain(..) {
            pc.release(&rpath);
            model.release(&mpath);
        }
        prop_assert_eq!(pc.evict_unreferenced(), model.evict_unreferenced());
        prop_assert_eq!(pc.resident_tokens(), 0);
        prop_assert_eq!(model.resident_tokens(), 0);
        prop_assert_eq!(pc.check_invariants(), 0);
    }
}
