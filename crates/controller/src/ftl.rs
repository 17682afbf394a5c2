//! A Flash translation layer: the long-retention housekeeping tax.
//!
//! §3: "Flash retention is too long, which is achieved at the expense of
//! endurance, requiring FTL mechanisms (wear levelling, garbage
//! collection). ... housekeeping leverages the write path, and is typically
//! energy-intensive." This page-mapped, log-structured FTL makes that tax
//! measurable as **write amplification**: every host write eventually drags
//! `WA − 1` additional device writes behind it, costing both energy and
//! endurance.

use std::collections::VecDeque;

use mrm_faults::{FaultModel, FaultStats, ReadFaults, RecoveryAction};

/// Wear-levelling policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WearLeveling {
    /// No wear levelling: GC picks the emptiest victim only.
    None,
    /// Dynamic: GC victim selection penalizes high-erase blocks.
    Dynamic,
    /// Static: additionally rotate cold blocks into service when the
    /// erase-count spread exceeds the threshold.
    Static {
        /// Maximum allowed difference between max and min erase counts.
        threshold: u64,
    },
}

/// FTL geometry and policy.
#[derive(Clone, Copy, Debug)]
pub struct FtlConfig {
    /// Physical blocks on the device.
    pub blocks: u32,
    /// Pages per block.
    pub pages_per_block: u32,
    /// Page size, bytes.
    pub page_bytes: u32,
    /// Fraction of physical space exported as logical space (the rest is
    /// over-provisioning for GC headroom). Must be in `(0, 1)`.
    pub logical_fraction: f64,
    /// GC triggers when free blocks drop to this count.
    pub gc_threshold_blocks: u32,
    /// Wear-levelling policy.
    pub wear_leveling: WearLeveling,
    /// Uncorrectable events on one block before it is retired (grown bad
    /// block). Zero retires on the first event.
    pub ue_retire_threshold: u32,
}

impl FtlConfig {
    /// A small SSD-like default: 256 blocks × 64 pages × 16 KiB, 87.5%
    /// exported (12.5% OP), greedy GC at 4 free blocks.
    pub fn small() -> Self {
        FtlConfig {
            blocks: 256,
            pages_per_block: 64,
            page_bytes: 16 * 1024,
            logical_fraction: 0.875,
            gc_threshold_blocks: 4,
            wear_leveling: WearLeveling::Dynamic,
            ue_retire_threshold: 2,
        }
    }

    /// Logical pages exported to the host.
    pub fn logical_pages(&self) -> u64 {
        let physical = u64::from(self.blocks) * u64::from(self.pages_per_block);
        (physical as f64 * self.logical_fraction) as u64
    }
}

/// FTL statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FtlStats {
    /// Pages written by the host.
    pub host_writes: u64,
    /// Pages moved by garbage collection.
    pub gc_moves: u64,
    /// Pages moved by static wear levelling.
    pub wl_moves: u64,
    /// Block erases performed.
    pub erases: u64,
    /// Pages rewritten by UE-recovery remaps (including valid pages
    /// evacuated from retiring blocks).
    pub remap_moves: u64,
    /// Checked reads that needed a retry.
    pub read_retries: u64,
    /// Blocks retired as grown bad blocks.
    pub blocks_retired: u64,
}

impl FtlStats {
    /// Write amplification: device page writes per host page write.
    pub fn write_amplification(&self) -> f64 {
        if self.host_writes == 0 {
            return 1.0;
        }
        (self.host_writes + self.gc_moves + self.wl_moves + self.remap_moves) as f64
            / self.host_writes as f64
    }
}

#[derive(Clone, Debug)]
struct Block {
    /// Physical page → logical page (None = invalid/unwritten).
    rmap: Vec<Option<u64>>,
    /// Next free page slot.
    write_ptr: u32,
    valid: u32,
    erase_count: u64,
    /// Uncorrectable-error events recorded against this block.
    ue_events: u32,
    /// Grown bad block: permanently out of rotation.
    retired: bool,
}

impl Block {
    fn new(pages: u32) -> Self {
        Block {
            rmap: vec![None; pages as usize],
            write_ptr: 0,
            valid: 0,
            erase_count: 0,
            ue_events: 0,
            retired: false,
        }
    }

    fn is_full(&self, pages: u32) -> bool {
        self.write_ptr >= pages
    }
}

/// A page-mapped, log-structured Flash translation layer.
///
/// # Examples
///
/// ```
/// use mrm_controller::ftl::{Ftl, FtlConfig};
///
/// let mut ftl = Ftl::new(FtlConfig::small());
/// ftl.write(42).unwrap();
/// assert!(ftl.read(42).is_some());
/// assert!(ftl.read(43).is_none());
/// ```
#[derive(Clone, Debug)]
pub struct Ftl {
    cfg: FtlConfig,
    /// Logical page → (block, page).
    map: Vec<Option<(u32, u32)>>,
    blocks: Vec<Block>,
    free: VecDeque<u32>,
    open: u32,
    stats: FtlStats,
    /// Optional fault-injection layer for checked reads.
    faults: Option<FaultModel>,
}

/// Result of an [`Ftl::read_checked`] recovery sequence.
#[derive(Clone, Copy, Debug)]
pub struct FtlCheckedRead {
    /// Physical location the data ended up at (post-remap if recovery
    /// relocated it).
    pub loc: (u32, u32),
    /// Fault outcomes merged across every attempt.
    pub faults: ReadFaults,
    /// Deepest recovery step reached. For the FTL, `Scrubbed` means the
    /// page was remapped (rewritten elsewhere) and `Retired` additionally
    /// retired the source block as a grown bad block — in both cases the
    /// data itself was recovered.
    pub action: RecoveryAction,
}

/// FTL errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FtlError {
    /// Logical page number beyond the exported space.
    OutOfRange,
    /// Device out of writable space (should not happen with sane OP/GC).
    NoSpace,
}

impl std::fmt::Display for FtlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FtlError::OutOfRange => write!(f, "logical page out of range"),
            FtlError::NoSpace => write!(f, "no writable space"),
        }
    }
}

impl std::error::Error for FtlError {}

impl Ftl {
    /// Creates an FTL with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics on degenerate configurations (no over-provisioning, fewer
    /// blocks than the GC threshold + 2).
    pub fn new(cfg: FtlConfig) -> Self {
        assert!(cfg.logical_fraction > 0.0 && cfg.logical_fraction < 1.0);
        assert!(cfg.blocks > cfg.gc_threshold_blocks + 2, "too few blocks");
        let blocks: Vec<Block> = (0..cfg.blocks)
            .map(|_| Block::new(cfg.pages_per_block))
            .collect();
        let free: VecDeque<u32> = (1..cfg.blocks).collect();
        let open = 0;
        Ftl {
            map: vec![None; cfg.logical_pages() as usize],
            blocks,
            free,
            open,
            cfg,
            stats: FtlStats::default(),
            faults: None,
        }
    }

    /// Attaches a fault-injection layer; [`Ftl::read_checked`] runs every
    /// read through it and drives remap/retire recovery on uncorrectables.
    pub fn attach_faults(&mut self, model: FaultModel) {
        self.faults = Some(model);
    }

    /// Cumulative fault-layer totals, if a layer is attached.
    pub fn fault_stats(&self) -> Option<&FaultStats> {
        self.faults.as_ref().map(|f| f.stats())
    }

    /// The configuration.
    pub fn config(&self) -> &FtlConfig {
        &self.cfg
    }

    /// Statistics so far.
    pub fn stats(&self) -> FtlStats {
        self.stats
    }

    /// Spread between the most- and least-erased in-service block.
    /// Retired blocks are excluded: their counts are frozen and would pin
    /// the minimum forever.
    pub fn erase_spread(&self) -> u64 {
        let mut max = 0u64;
        let mut min = u64::MAX;
        for b in self.blocks.iter().filter(|b| !b.retired) {
            max = max.max(b.erase_count);
            min = min.min(b.erase_count);
        }
        if min == u64::MAX {
            0
        } else {
            max - min
        }
    }

    /// Looks up the physical location of a logical page.
    pub fn read(&self, lpn: u64) -> Option<(u32, u32)> {
        self.map.get(lpn as usize).copied().flatten()
    }

    /// Reads a logical page through the fault layer at raw bit error rate
    /// `rber` (supplied by the device/age model above this layer) and, on
    /// an uncorrectable outcome, runs the FTL recovery machinery:
    ///
    /// 1. **retry** — a second decode attempt (transient UEs clear);
    /// 2. **remap** — rewrite the recovered page at a fresh location
    ///    (log-structured relocation) and charge a UE event against the
    ///    source block;
    /// 3. **retire** — once a block's UE events reach
    ///    [`FtlConfig::ue_retire_threshold`], evacuate its remaining valid
    ///    pages and take it out of rotation as a grown bad block.
    ///
    /// Returns `Ok(None)` for an unmapped page. Without an attached fault
    /// layer this is exactly [`Ftl::read`] (plus the `Ok` wrapper).
    pub fn read_checked(
        &mut self,
        lpn: u64,
        rber: f64,
    ) -> Result<Option<FtlCheckedRead>, FtlError> {
        if lpn as usize >= self.map.len() {
            return Err(FtlError::OutOfRange);
        }
        let Some(loc) = self.read(lpn) else {
            return Ok(None);
        };
        let page_bytes = u64::from(self.cfg.page_bytes);
        let Some(model) = self.faults.as_mut() else {
            return Ok(Some(FtlCheckedRead {
                loc,
                faults: ReadFaults::default(),
                action: RecoveryAction::None,
            }));
        };
        let mut faults = model.inject_read(page_bytes, rber);
        if !faults.uncorrectable() {
            return Ok(Some(FtlCheckedRead {
                loc,
                faults,
                action: RecoveryAction::None,
            }));
        }
        // Step 1: retry.
        self.stats.read_retries += 1;
        let again = self
            .faults
            .as_mut()
            .expect("fault layer attached")
            .inject_read(page_bytes, rber);
        let cleared = !again.uncorrectable();
        faults.merge(&again);
        if cleared {
            return Ok(Some(FtlCheckedRead {
                loc,
                faults,
                action: RecoveryAction::Retried,
            }));
        }
        // Step 2: remap — the outer code recovered the data (or the host
        // re-supplied it); rewrite it somewhere healthier and charge a UE
        // event to the source block.
        let (src, _) = loc;
        self.stats.remap_moves += 1;
        self.program(lpn)?;
        self.blocks[src as usize].ue_events += 1;
        // Step 3: grown-bad-block retirement at the configured threshold.
        let action = if self.blocks[src as usize].ue_events >= self.cfg.ue_retire_threshold.max(1) {
            self.retire_block(src)?;
            RecoveryAction::Retired
        } else {
            RecoveryAction::Scrubbed
        };
        self.maybe_gc()?;
        let loc = self.read(lpn).expect("page was just programmed");
        Ok(Some(FtlCheckedRead {
            loc,
            faults,
            action,
        }))
    }

    /// Retires `block` as a grown bad block: evacuates its remaining valid
    /// pages, then permanently removes it from rotation (never erased,
    /// never re-enters the free pool, invisible to GC and wear levelling).
    pub fn retire_block(&mut self, block: u32) -> Result<(), FtlError> {
        if block as usize >= self.blocks.len() || self.blocks[block as usize].retired {
            return Ok(());
        }
        // Never retire the open block in place: roll the write frontier
        // to a fresh block first so evacuation has somewhere to go.
        if block == self.open {
            let next = self.free.pop_front().ok_or(FtlError::NoSpace)?;
            self.open = next;
        }
        let lpns: Vec<u64> = self.blocks[block as usize]
            .rmap
            .iter()
            .flatten()
            .copied()
            .collect();
        for lpn in lpns {
            self.stats.remap_moves += 1;
            self.program(lpn)?;
        }
        let b = &mut self.blocks[block as usize];
        debug_assert_eq!(b.valid, 0, "retiring block with valid pages");
        b.retired = true;
        // Park the write pointer at the end so the block never looks open.
        b.write_ptr = self.cfg.pages_per_block;
        // The block may be sitting in the free pool (retired while empty):
        // pull it out so it can never be popped as the write frontier.
        self.free.retain(|&f| f != block);
        self.stats.blocks_retired += 1;
        self.maybe_gc()
    }

    /// Blocks retired as grown bad blocks so far.
    pub fn blocks_retired(&self) -> u64 {
        self.stats.blocks_retired
    }

    /// Writes (or overwrites) a logical page.
    pub fn write(&mut self, lpn: u64) -> Result<(), FtlError> {
        if lpn as usize >= self.map.len() {
            return Err(FtlError::OutOfRange);
        }
        self.stats.host_writes += 1;
        self.program(lpn)?;
        self.maybe_gc()?;
        self.maybe_static_wl()?;
        Ok(())
    }

    /// Invalidates (TRIMs) a logical page.
    pub fn trim(&mut self, lpn: u64) -> Result<(), FtlError> {
        if lpn as usize >= self.map.len() {
            return Err(FtlError::OutOfRange);
        }
        self.invalidate(lpn);
        Ok(())
    }

    fn invalidate(&mut self, lpn: u64) {
        if let Some((b, p)) = self.map[lpn as usize].take() {
            let blk = &mut self.blocks[b as usize];
            debug_assert_eq!(blk.rmap[p as usize], Some(lpn));
            blk.rmap[p as usize] = None;
            blk.valid -= 1;
        }
    }

    /// Appends `lpn` to the open block, rolling to a fresh block when full.
    fn program(&mut self, lpn: u64) -> Result<(), FtlError> {
        self.invalidate(lpn);
        if self.blocks[self.open as usize].is_full(self.cfg.pages_per_block) {
            let next = self.free.pop_front().ok_or(FtlError::NoSpace)?;
            self.open = next;
        }
        let open = self.open as usize;
        let blk = &mut self.blocks[open];
        let p = blk.write_ptr;
        blk.rmap[p as usize] = Some(lpn);
        blk.write_ptr += 1;
        blk.valid += 1;
        self.map[lpn as usize] = Some((self.open, p));
        Ok(())
    }

    /// Runs garbage collection until the free pool is above threshold.
    fn maybe_gc(&mut self) -> Result<(), FtlError> {
        let mut guard = 0;
        while (self.free.len() as u32) < self.cfg.gc_threshold_blocks {
            guard += 1;
            if guard > self.cfg.blocks {
                return Err(FtlError::NoSpace);
            }
            let victim = match self.pick_victim() {
                Some(v) => v,
                None => return Ok(()), // nothing reclaimable yet
            };
            self.collect(victim)?;
        }
        Ok(())
    }

    /// Greedy (or wear-aware) victim selection among full blocks.
    fn pick_victim(&self) -> Option<u32> {
        let max_erase = self.blocks.iter().map(|b| b.erase_count).max().unwrap_or(0);
        let mut best: Option<(f64, u32)> = None;
        #[allow(clippy::manual_find)] // scoring + filtering reads better imperatively
        for (i, b) in self.blocks.iter().enumerate() {
            let i = i as u32;
            if i == self.open || b.retired || !b.is_full(self.cfg.pages_per_block) {
                continue;
            }
            if b.valid == self.cfg.pages_per_block {
                continue; // nothing to reclaim
            }
            let score = match self.cfg.wear_leveling {
                WearLeveling::None => f64::from(b.valid),
                // Penalize hot blocks: effective score grows with wear.
                WearLeveling::Dynamic | WearLeveling::Static { .. } => {
                    f64::from(b.valid) + (b.erase_count as f64 - max_erase as f64).abs() * 0.5
                }
            };
            if best.is_none_or(|(s, _)| score < s) {
                best = Some((score, i));
            }
        }
        best.map(|(_, i)| i)
    }

    /// Moves a victim's valid pages to the open block and erases it.
    fn collect(&mut self, victim: u32) -> Result<(), FtlError> {
        let lpns: Vec<u64> = self.blocks[victim as usize]
            .rmap
            .iter()
            .flatten()
            .copied()
            .collect();
        for lpn in lpns {
            self.stats.gc_moves += 1;
            self.program(lpn)?;
        }
        self.erase(victim);
        Ok(())
    }

    fn erase(&mut self, block: u32) {
        let b = &mut self.blocks[block as usize];
        debug_assert_eq!(b.valid, 0, "erasing block with valid pages");
        debug_assert!(!b.retired, "erasing a retired block");
        let pages = self.cfg.pages_per_block;
        *b = Block {
            erase_count: b.erase_count + 1,
            // UE history survives erase: grown bad blocks are grown.
            ue_events: b.ue_events,
            ..Block::new(pages)
        };
        self.stats.erases += 1;
        self.free.push_back(block);
    }

    /// Static wear levelling: when the erase spread exceeds the threshold,
    /// force the coldest full block into rotation.
    fn maybe_static_wl(&mut self) -> Result<(), FtlError> {
        let WearLeveling::Static { threshold } = self.cfg.wear_leveling else {
            return Ok(());
        };
        for _ in 0..16 {
            if self.erase_spread() <= threshold {
                return Ok(());
            }
            // Coldest full block (not open). If the globally coldest block
            // is free or open it will rotate into service by itself, so
            // only full blocks are migration candidates.
            let global_min = self
                .blocks
                .iter()
                .filter(|b| !b.retired)
                .map(|b| b.erase_count)
                .min()
                .unwrap_or(0);
            let coldest = self
                .blocks
                .iter()
                .enumerate()
                .filter(|(i, b)| {
                    *i as u32 != self.open && !b.retired && b.is_full(self.cfg.pages_per_block)
                })
                .min_by_key(|(_, b)| b.erase_count)
                .map(|(i, _)| (i as u32, self.blocks[i].erase_count));
            match coldest {
                Some((c, e)) if e <= global_min + 1 => {
                    let lpns: Vec<u64> = self.blocks[c as usize]
                        .rmap
                        .iter()
                        .flatten()
                        .copied()
                        .collect();
                    for lpn in lpns {
                        self.stats.wl_moves += 1;
                        self.program(lpn)?;
                    }
                    self.erase(c);
                }
                _ => return Ok(()),
            }
        }
        Ok(())
    }

    /// Internal consistency check: the forward and reverse maps agree and
    /// valid counters match. Used by tests and debug assertions.
    pub fn check_invariants(&self) -> Result<(), String> {
        for (lpn, loc) in self.map.iter().enumerate() {
            if let Some((b, p)) = loc {
                let back = self.blocks[*b as usize].rmap[*p as usize];
                if back != Some(lpn as u64) {
                    return Err(format!("map/rmap mismatch at lpn {lpn}"));
                }
            }
        }
        for (lpn, loc) in self.map.iter().enumerate() {
            if let Some((b, _)) = loc {
                if self.blocks[*b as usize].retired {
                    return Err(format!("live lpn {lpn} points at retired block {b}"));
                }
            }
        }
        for (i, b) in self.blocks.iter().enumerate() {
            let count = b.rmap.iter().flatten().count() as u32;
            if count != b.valid {
                return Err(format!("valid counter mismatch in block {i}"));
            }
            if b.retired && b.valid != 0 {
                return Err(format!("retired block {i} still holds valid pages"));
            }
            for (p, lpn) in b.rmap.iter().enumerate() {
                if let Some(lpn) = lpn {
                    if self.map[*lpn as usize] != Some((i as u32, p as u32)) {
                        return Err(format!("stale rmap entry block {i} page {p}"));
                    }
                }
            }
        }
        if self.free.iter().any(|&b| self.blocks[b as usize].retired) {
            return Err("retired block in the free pool".to_string());
        }
        if self.blocks[self.open as usize].retired {
            return Err("open block is retired".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read() {
        let mut f = Ftl::new(FtlConfig::small());
        f.write(0).unwrap();
        f.write(7).unwrap();
        assert!(f.read(0).is_some());
        assert!(f.read(7).is_some());
        assert!(f.read(8).is_none());
        f.check_invariants().unwrap();
    }

    #[test]
    fn overwrite_moves_page() {
        let mut f = Ftl::new(FtlConfig::small());
        f.write(5).unwrap();
        let first = f.read(5).unwrap();
        f.write(5).unwrap();
        let second = f.read(5).unwrap();
        assert_ne!(first, second, "log-structured writes relocate");
        f.check_invariants().unwrap();
    }

    #[test]
    fn trim_invalidates() {
        let mut f = Ftl::new(FtlConfig::small());
        f.write(3).unwrap();
        f.trim(3).unwrap();
        assert!(f.read(3).is_none());
        f.check_invariants().unwrap();
    }

    #[test]
    fn out_of_range_rejected() {
        let mut f = Ftl::new(FtlConfig::small());
        let lp = f.config().logical_pages();
        assert_eq!(f.write(lp), Err(FtlError::OutOfRange));
    }

    #[test]
    fn sustained_overwrites_trigger_gc_and_wa() {
        let mut f = Ftl::new(FtlConfig::small());
        let lp = f.config().logical_pages();
        // Fill logical space twice over: forces GC.
        for i in 0..lp * 3 {
            f.write(i % lp).unwrap();
        }
        let s = f.stats();
        assert!(s.erases > 0, "GC must have erased blocks");
        assert!(s.gc_moves > 0 || s.write_amplification() >= 1.0);
        assert!(s.write_amplification() >= 1.0);
        f.check_invariants().unwrap();
        // All logical pages still readable.
        for i in 0..lp {
            assert!(f.read(i).is_some(), "lost lpn {i}");
        }
    }

    #[test]
    fn hot_cold_skew_amplifies_writes() {
        // Hot/cold split: cold data pins blocks, hot overwrites churn —
        // write amplification exceeds the uniform case.
        let mk = |wl| {
            let mut cfg = FtlConfig::small();
            cfg.wear_leveling = wl;
            let mut f = Ftl::new(cfg);
            let lp = f.config().logical_pages();
            // Write everything once (cold baseline).
            for i in 0..lp {
                f.write(i).unwrap();
            }
            // Hammer the first 5%, with occasional cold rewrites mixed in
            // so blocks hold mixed-age data (the WA-generating pattern).
            let hot = lp / 20;
            for k in 0..lp * 4 {
                if k % 7 == 0 {
                    f.write((k * 2_654_435_761) % lp).unwrap();
                } else {
                    f.write(k % hot.max(1)).unwrap();
                }
            }
            f
        };
        let f = mk(WearLeveling::Dynamic);
        assert!(
            f.stats().write_amplification() > 1.02,
            "wa {}",
            f.stats().write_amplification()
        );
        f.check_invariants().unwrap();
    }

    #[test]
    fn static_wl_bounds_erase_spread() {
        let mut cfg = FtlConfig::small();
        cfg.wear_leveling = WearLeveling::Static { threshold: 8 };
        let mut f = Ftl::new(cfg);
        let lp = f.config().logical_pages();
        for i in 0..lp {
            f.write(i).unwrap();
        }
        let hot = lp / 20;
        for k in 0..lp * 6 {
            f.write(k % hot.max(1)).unwrap();
        }
        f.check_invariants().unwrap();
        // Spread stays near the threshold (slack for blocks parked in the
        // free pool, which the migrator cannot touch).
        assert!(f.erase_spread() <= 8 + 8, "spread {}", f.erase_spread());
        assert!(f.stats().wl_moves > 0, "static WL must have moved data");
    }

    #[test]
    fn no_wl_lets_spread_grow() {
        let mut cfg = FtlConfig::small();
        cfg.wear_leveling = WearLeveling::None;
        let mut f = Ftl::new(cfg);
        let lp = f.config().logical_pages();
        for i in 0..lp {
            f.write(i).unwrap();
        }
        let hot = lp / 20;
        for k in 0..lp * 6 {
            f.write(k % hot.max(1)).unwrap();
        }
        let no_wl_spread = f.erase_spread();

        let mut cfg = FtlConfig::small();
        cfg.wear_leveling = WearLeveling::Static { threshold: 8 };
        let mut g = Ftl::new(cfg);
        for i in 0..lp {
            g.write(i).unwrap();
        }
        for k in 0..lp * 6 {
            g.write(k % hot.max(1)).unwrap();
        }
        assert!(
            no_wl_spread > g.erase_spread(),
            "no-WL spread {} must exceed static-WL spread {}",
            no_wl_spread,
            g.erase_spread()
        );
    }

    #[test]
    fn read_checked_clean_path_leaves_map_alone() {
        use mrm_faults::{FaultConfig, FaultModel};
        let mut f = Ftl::new(FtlConfig::small());
        f.attach_faults(FaultModel::new(FaultConfig::mrm(), 3));
        f.write(9).unwrap();
        let before = f.read(9).unwrap();
        // Fresh-data RBER: nothing to recover.
        let r = f.read_checked(9, 1e-9).unwrap().unwrap();
        assert_eq!(r.action, RecoveryAction::None);
        assert_eq!(r.loc, before);
        assert!(f.read_checked(10, 1e-9).unwrap().is_none());
        assert_eq!(f.stats().read_retries, 0);
        f.check_invariants().unwrap();
    }

    #[test]
    fn ue_storm_remaps_then_retires_grown_bad_block() {
        use mrm_faults::{FaultConfig, FaultModel, RecoveryAction};
        let mut f = Ftl::new(FtlConfig::small());
        f.attach_faults(FaultModel::new(FaultConfig::mrm(), 5));
        let lp = f.config().logical_pages();
        for i in 0..lp {
            f.write(i).unwrap();
        }
        // An RBER far beyond the t=2 budget on a 16 KiB page: every
        // checked read is uncorrectable, so the ladder must walk
        // retry → remap → retire deterministically.
        let mut actions = Vec::new();
        for lpn in 0..64 {
            if let Some(r) = f.read_checked(lpn, 1e-2).unwrap() {
                assert!(r.faults.uncorrectable());
                actions.push(r.action);
                // Post-remap the page lives on a healthy block.
                assert!(!matches!(r.action, RecoveryAction::None));
            }
            f.check_invariants().unwrap();
        }
        let s = f.stats();
        assert!(s.read_retries > 0);
        assert!(s.remap_moves > 0);
        assert!(
            actions.contains(&RecoveryAction::Retired),
            "threshold 2 must retire under a UE storm: {actions:?}"
        );
        assert!(s.blocks_retired > 0);
        assert!(s.write_amplification() > 1.0, "remaps are device writes");
        // Every logical page is still mapped: recovery never loses data.
        for lpn in 0..lp {
            assert!(f.read(lpn).is_some(), "lost lpn {lpn}");
        }
    }

    #[test]
    fn retired_blocks_leave_rotation_for_good() {
        use mrm_faults::{FaultConfig, FaultModel};
        let mut cfg = FtlConfig::small();
        cfg.ue_retire_threshold = 1; // retire on first UE event
        let mut f = Ftl::new(cfg);
        f.attach_faults(FaultModel::new(FaultConfig::mrm(), 9));
        let lp = f.config().logical_pages();
        for i in 0..lp {
            f.write(i).unwrap();
        }
        let (src, _) = f.read(0).unwrap();
        let r = f.read_checked(0, 1e-2).unwrap().unwrap();
        assert_eq!(r.action, RecoveryAction::Retired);
        assert_eq!(f.blocks_retired(), 1);
        f.check_invariants().unwrap();
        // Churn hard: the retired block must never host data again.
        for k in 0..lp * 3 {
            f.write(k % lp).unwrap();
        }
        f.check_invariants().unwrap();
        for lpn in 0..lp {
            let (b, _) = f.read(lpn).unwrap();
            assert_ne!(b, src, "retired block re-entered rotation");
        }
    }

    #[test]
    fn wa_is_the_housekeeping_tax() {
        // The §3 energy story: device writes = host writes × WA, so the FTL
        // burns (WA−1)× extra write energy. Verify WA grows when OP shrinks.
        let run = |logical_fraction: f64| {
            let mut cfg = FtlConfig::small();
            cfg.logical_fraction = logical_fraction;
            let mut f = Ftl::new(cfg);
            let lp = f.config().logical_pages();
            let mut rng = mrm_sim::rng::SimRng::seed_from(42);
            for i in 0..lp {
                f.write(i).unwrap();
            }
            // Uniform-random overwrites: the canonical WA-generating load.
            for _ in 0..lp * 3 {
                f.write(rng.gen_range_u64(lp)).unwrap();
            }
            f.check_invariants().unwrap();
            f.stats().write_amplification()
        };
        let tight = run(0.95);
        let roomy = run(0.6);
        assert!(
            tight > 1.2,
            "tight-OP uniform-random WA must be material, got {tight}"
        );
        assert!(
            tight > roomy,
            "tight-OP WA {tight} must exceed roomy-OP WA {roomy}"
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn never_loses_live_data(
            ops in proptest::collection::vec((0u64..512, prop::bool::ANY), 1..2000)
        ) {
            let mut cfg = FtlConfig::small();
            cfg.blocks = 32;
            cfg.pages_per_block = 32;
            cfg.logical_fraction = 0.6;
            let mut f = Ftl::new(cfg);
            let lp = f.config().logical_pages();
            let mut live = std::collections::BTreeSet::new();
            for (lpn, is_trim) in ops {
                let lpn = lpn % lp;
                if is_trim {
                    f.trim(lpn).unwrap();
                    live.remove(&lpn);
                } else {
                    f.write(lpn).unwrap();
                    live.insert(lpn);
                }
            }
            f.check_invariants().unwrap();
            for lpn in 0..lp {
                prop_assert_eq!(f.read(lpn).is_some(), live.contains(&lpn), "lpn {}", lpn);
            }
            prop_assert!(f.stats().write_amplification() >= 1.0);
        }
    }
}
