//! Cell-level physics: the retention ↔ write-cost ↔ endurance continuum.
//!
//! The MRM paper's core observation (§1, §3) is that "non-volatile" is a
//! misleading binary: every memory cell has a *retention time*, from
//! microseconds (DRAM capacitors) to decades (Flash floating gates), and the
//! retention target a technology is engineered for determines its write
//! energy, write latency, and endurance.
//!
//! This module encodes that continuum with models distilled from the
//! literature the paper cites:
//!
//! * **Retention is thermally activated.** For the resistive technologies
//!   (STT-MRAM explicitly, PCM/RRAM approximately), the retention time of a
//!   cell is `t_ret ≈ t0 · exp(Δ)` where `t0 ≈ 1 ns` is the thermal attempt
//!   time and `Δ` is the thermal-stability factor. Ten-year retention needs
//!   `Δ ≈ ln(10y/1ns) ≈ 40`; one-hour retention needs only `Δ ≈ 29` — a
//!   quarter of the barrier gone. (Smullen et al. HPCA'11 \[43\]; Jog et al. DAC'12 \[18\];
//!   Sun et al. MICRO'11 \[48\].)
//! * **Write cost scales with the barrier.** The energy (and, to first
//!   order, the current × pulse-width product) needed to flip a cell scales
//!   roughly linearly with `Δ`: relaxed-retention STT-MRAM designs report
//!   write energy and latency reductions tracking the Δ reduction
//!   (Smullen et al. \[43\] report ~70% write-energy reduction when dropping
//!   retention from years to seconds).
//! * **Endurance improves as write stress drops.** For RRAM and PCM,
//!   endurance and retention trade off on a log-log line: each decade of
//!   retention given up buys roughly a fixed factor of endurance, because
//!   gentler SET/RESET pulses stress the filament/phase-change volume less
//!   (Ielmini et al. IRPS'10 \[15\]; Nail et al. IEDM'16 \[34\]; Lammie et al.
//!   \[23\] fit `endurance ∝ retention^(−γ)` with γ near 0.5–1).
//!
//! The [`RetentionTradeoff`] type packages these as calibrated, clamped
//! curves anchored at each technology's *as-shipped* operating point, so the
//! rest of the workspace can ask "what does this cell look like if I only
//! need 12 hours of retention?" — the question MRM exists to ask.

use mrm_sim::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Thermal attempt time `t0` for thermally-activated retention (seconds).
pub const THERMAL_ATTEMPT_TIME_S: f64 = 1e-9;

/// Raw bit error rate at the retention target: retention time is specified
/// as the age at which raw BER reaches this ECC design point (a typical
/// storage-class spec level).
pub const RBER_AT_RETENTION_TARGET: f64 = 1e-4;

/// The broad physics family a cell belongs to.
///
/// The family selects the exponents of the trade-off curves: DRAM-family
/// cells (capacitor-based) cannot trade retention for anything — their
/// retention is fixed by leakage — while the resistive families can.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CellFamily {
    /// Capacitor-based DRAM (incl. HBM and LPDDR dies): fixed ~ms retention.
    Dram,
    /// Charge-trap / floating-gate Flash (NAND or NOR).
    Flash,
    /// Phase-change memory (GST amorphous/crystalline resistance contrast).
    Pcm,
    /// Filamentary resistive RAM (HfOx and friends).
    Rram,
    /// Spin-transfer-torque magnetic RAM.
    SttMram,
}

impl CellFamily {
    /// Whether the family supports trading retention for write cost and
    /// endurance (the MRM enabler). DRAM cannot (leakage-limited); Flash can
    /// in principle but only coarsely (program-verify levels); the resistive
    /// families can continuously.
    pub fn retention_tunable(self) -> bool {
        !matches!(self, CellFamily::Dram)
    }

    /// The endurance–retention power-law exponent γ for the family
    /// (`endurance ∝ retention^(−γ)` when relaxing retention).
    ///
    /// Calibrated against the paper's cited trade-off studies: RRAM shows
    /// the steepest, best-documented trade (Nail et al. \[34\]), PCM a
    /// moderate one, STT-MRAM gains mostly via lower write stress.
    pub fn endurance_retention_gamma(self) -> f64 {
        match self {
            CellFamily::Dram => 0.0,
            CellFamily::Flash => 0.25,
            CellFamily::Pcm => 0.45,
            CellFamily::Rram => 0.60,
            CellFamily::SttMram => 0.35,
        }
    }

    /// Fraction of write energy attributable to overcoming the retention
    /// barrier (vs. fixed peripheral/array overheads). Determines how much
    /// write energy relaxed retention can recover.
    pub fn barrier_energy_fraction(self) -> f64 {
        match self {
            CellFamily::Dram => 0.0,
            CellFamily::Flash => 0.55,
            CellFamily::Pcm => 0.70,
            CellFamily::Rram => 0.65,
            CellFamily::SttMram => 0.80,
        }
    }
}

/// The thermal-stability factor Δ required for a retention target.
///
/// `Δ = ln(t_ret / t0)`. Returns 0 for sub-`t0` targets.
///
/// # Examples
///
/// ```
/// use mrm_device::cell::delta_for_retention;
/// use mrm_sim::time::SimDuration;
///
/// let ten_years = delta_for_retention(SimDuration::from_years(10));
/// let one_hour = delta_for_retention(SimDuration::from_hours(1));
/// assert!(ten_years > 40.0 && ten_years < 41.0);
/// assert!(one_hour > 28.0 && one_hour < 30.0);
/// ```
pub fn delta_for_retention(retention: SimDuration) -> f64 {
    let secs = retention.as_secs_f64();
    if secs <= THERMAL_ATTEMPT_TIME_S {
        return 0.0;
    }
    (secs / THERMAL_ATTEMPT_TIME_S).ln()
}

/// A calibrated retention trade-off curve for one technology.
///
/// Anchored at the technology's shipped operating point
/// (`ref_retention`, `ref_write_energy_pj_bit`, `ref_write_latency_ns`,
/// `ref_endurance`); evaluation at any other retention target rescales
/// those anchors along the family's curves, clamped to physically plausible
/// bounds.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RetentionTradeoff {
    /// Cell physics family (selects curve exponents).
    pub family: CellFamily,
    /// Retention at the anchor (as-shipped) operating point.
    pub ref_retention: SimDuration,
    /// Write energy at the anchor point, pJ/bit.
    pub ref_write_energy_pj_bit: f64,
    /// Write latency at the anchor point, ns.
    pub ref_write_latency_ns: f64,
    /// Endurance (write cycles/cell) at the anchor point.
    pub ref_endurance: f64,
    /// Endurance ceiling for the family — gentler writes cannot push
    /// endurance past intrinsic wear-out mechanisms (dielectric breakdown,
    /// electrode degradation).
    pub endurance_ceiling: f64,
}

/// The cell parameters realized at a particular retention target.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CellOperatingPoint {
    /// Retention target this point was derived for.
    pub retention: SimDuration,
    /// Write energy, pJ/bit.
    pub write_energy_pj_bit: f64,
    /// Write latency, ns.
    pub write_latency_ns: f64,
    /// Endurance, write cycles per cell.
    pub endurance: f64,
    /// Thermal stability factor at this point.
    pub delta: f64,
}

impl RetentionTradeoff {
    /// Evaluates the cell parameters at `retention`.
    ///
    /// For non-tunable families (DRAM) the anchor point is returned
    /// unchanged regardless of the requested retention.
    pub fn at(&self, retention: SimDuration) -> CellOperatingPoint {
        let delta = delta_for_retention(retention);
        if !self.family.retention_tunable() || retention == self.ref_retention {
            return CellOperatingPoint {
                retention: self.ref_retention,
                write_energy_pj_bit: self.ref_write_energy_pj_bit,
                write_latency_ns: self.ref_write_latency_ns,
                endurance: self.ref_endurance,
                delta: delta_for_retention(self.ref_retention),
            };
        }

        let ref_delta = delta_for_retention(self.ref_retention).max(1.0);
        let delta_ratio = (delta / ref_delta).clamp(0.05, 4.0);

        // Write energy: the barrier-proportional share scales with Δ; the
        // peripheral share is fixed.
        let f = self.family.barrier_energy_fraction();
        let energy = self.ref_write_energy_pj_bit * ((1.0 - f) + f * delta_ratio);

        // Write latency: pulse width tracks the barrier similarly, but with
        // a weaker exponent (drivers are current-limited, not energy-limited).
        let latency = self.ref_write_latency_ns * ((1.0 - f) + f * delta_ratio.powf(0.7));

        // Endurance: power law in the retention ratio, clamped to the
        // family ceiling (and never *below* the anchor when relaxing).
        let gamma = self.family.endurance_retention_gamma();
        let ret_ratio = (self.ref_retention.as_secs_f64().max(1e-9)
            / retention.as_secs_f64().max(1e-9))
        .max(1e-12);
        let endurance = (self.ref_endurance * ret_ratio.powf(gamma)).min(self.endurance_ceiling);

        CellOperatingPoint {
            retention,
            write_energy_pj_bit: energy,
            write_latency_ns: latency,
            endurance,
            delta,
        }
    }

    /// The raw bit error probability of a cell read `age` after it was
    /// written with retention target `retention`, before wear effects.
    ///
    /// Retention loss is a Weibull failure process with shape β = 3
    /// (wear-out-like onset: negligible failures early, accelerating
    /// steeply). The *retention target* is defined the way datasheets
    /// define it: the age at which raw BER reaches the ECC design point
    /// [`RBER_AT_RETENTION_TARGET`] — not the age at which cells have
    /// half-decayed. The Weibull characteristic life τ is therefore placed
    /// well beyond the target: `0.5·(1 − exp(−(ret/τ)^β)) =` spec.
    ///
    /// `RBER(age) = floor + 0.5 · (1 − exp(−(k·age/ret)^β))` with
    /// `k = (2·spec)^(1/β)`; the `0.5` ceiling reflects that a fully
    /// decayed cell reads a random value, so only half the decayed bits
    /// differ from the written data.
    pub fn rber_at_age(&self, retention: SimDuration, age: SimDuration, rber_floor: f64) -> f64 {
        const BETA: f64 = 3.0;
        let k = (2.0 * RBER_AT_RETENTION_TARGET).powf(1.0 / BETA);
        let ret = retention.as_secs_f64().max(1e-12);
        let t = age.as_secs_f64();
        let x = (k * t / ret).powf(BETA);
        let decayed = 1.0 - (-x).exp();
        (rber_floor + 0.5 * decayed).min(0.5)
    }
}

/// Most retentions a [`WritePoints`] table keeps. A DCM device meets its
/// ladder classes; a retention met once the table is full is priced on
/// every call instead, so the bound caps the table's size, never the
/// result.
const WRITE_POINTS: usize = 16;

/// A retention curve with the operating points it has already priced.
///
/// Writes that program retention per write (DCM, §4) meet a few distinct
/// retentions over and over; the table evaluates the curve (`ln`, `powf`)
/// once per distinct retention and returns the stored point after that.
/// The points sit in a `Vec` of at most 16 entries, searched linearly and
/// allocated on first use. Each is the exact value
/// [`RetentionTradeoff::at`] returns, so a table-served write is
/// bit-identical to one priced from the curve.
#[derive(Clone, Debug)]
pub struct WritePoints {
    curve: RetentionTradeoff,
    points: Vec<(SimDuration, CellOperatingPoint)>,
}

impl WritePoints {
    /// An empty table over `curve`.
    pub fn new(curve: RetentionTradeoff) -> Self {
        WritePoints {
            curve,
            points: Vec::new(),
        }
    }

    /// The operating point for a write programmed for `retention`.
    ///
    /// Inlined, so a device write scans the table in place and reads only
    /// the fields it uses; a miss calls out to the curve.
    #[inline]
    pub fn at(&mut self, retention: SimDuration) -> CellOperatingPoint {
        match self.points.iter().find(|(r, _)| *r == retention) {
            Some(&(_, point)) => point,
            None => self.price(retention),
        }
    }

    /// Evaluates the curve at `retention`, keeping the point if there is
    /// room.
    fn price(&mut self, retention: SimDuration) -> CellOperatingPoint {
        let point = self.curve.at(retention);
        if self.points.len() < WRITE_POINTS {
            self.points.push((retention, point));
        }
        point
    }
}

/// Wear accounting for a block/region of cells.
///
/// Tracks cumulative writes against the endurance budget and derives the
/// wear-induced RBER multiplier. Endurance failure is not a cliff: RBER
/// degrades smoothly as cycles approach the rated endurance, which is how
/// real devices (and their ECC budgets) die.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct WearState {
    /// Cumulative write cycles seen by this region.
    pub cycles: u64,
}

impl WearState {
    /// Creates a fresh (unworn) state.
    pub fn new() -> Self {
        WearState { cycles: 0 }
    }

    /// Records `n` write cycles.
    pub fn record_writes(&mut self, n: u64) {
        self.cycles = self.cycles.saturating_add(n);
    }

    /// Fraction of the endurance budget consumed (may exceed 1).
    pub fn wear_fraction(&self, endurance: f64) -> f64 {
        if endurance <= 0.0 {
            return f64::INFINITY;
        }
        self.cycles as f64 / endurance
    }

    /// Whether the region has exceeded its rated endurance.
    pub fn is_worn_out(&self, endurance: f64) -> bool {
        self.wear_fraction(endurance) >= 1.0
    }

    /// Wear multiplier on RBER: 1× when fresh, rising superlinearly past
    /// ~80% of rated endurance, 10× at 100%, unbounded beyond.
    pub fn rber_multiplier(&self, endurance: f64) -> f64 {
        let w = self.wear_fraction(endurance);
        if w <= 0.8 {
            1.0 + 0.5 * w
        } else {
            // Smoothly continues from 1.4 at w=0.8 through 10 at w=1.0.
            1.4 * (w / 0.8).powf(8.8)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stt_tradeoff() -> RetentionTradeoff {
        // Anchor: a 10-year-retention STT-MRAM product part.
        RetentionTradeoff {
            family: CellFamily::SttMram,
            ref_retention: SimDuration::from_years(10),
            ref_write_energy_pj_bit: 2.5,
            ref_write_latency_ns: 10.0,
            ref_endurance: 1e10,
            endurance_ceiling: 1e15,
        }
    }

    fn rram_tradeoff() -> RetentionTradeoff {
        RetentionTradeoff {
            family: CellFamily::Rram,
            ref_retention: SimDuration::from_years(10),
            ref_write_energy_pj_bit: 10.0,
            ref_write_latency_ns: 100.0,
            ref_endurance: 1e6,
            endurance_ceiling: 1e12,
        }
    }

    #[test]
    fn delta_matches_known_anchors() {
        // 10 years over a 1 ns attempt time: ln(3.15e17) ≈ 40.3... with
        // SECS_PER_YEAR=365d, 10y = 3.154e8 s → ln(3.154e17) ≈ 40.3.
        let d10y = delta_for_retention(SimDuration::from_years(10));
        assert!((40.0..41.0).contains(&d10y), "Δ(10y) = {d10y}");
        let d1h = delta_for_retention(SimDuration::from_hours(1));
        assert!((28.0..30.0).contains(&d1h), "Δ(1h) = {d1h}");
        let d64ms = delta_for_retention(SimDuration::from_millis(64));
        assert!((17.0..19.0).contains(&d64ms), "Δ(64ms) = {d64ms}");
    }

    #[test]
    fn delta_retention_roundtrip() {
        for secs in [1.0, 3600.0, 86400.0, 3.15e8] {
            // Inverting Δ = ln(t / τ0) recovers the retention time.
            let d = delta_for_retention(SimDuration::from_secs_f64(secs));
            let back = THERMAL_ATTEMPT_TIME_S * d.exp();
            assert!((back / secs - 1.0).abs() < 1e-6, "{secs} -> {back}");
        }
    }

    #[test]
    fn relaxing_retention_cuts_write_energy() {
        let t = stt_tradeoff();
        let ten_years = t.at(SimDuration::from_years(10));
        let one_day = t.at(SimDuration::from_days(1));
        let ten_secs = t.at(SimDuration::from_secs(10));
        assert!(one_day.write_energy_pj_bit < ten_years.write_energy_pj_bit);
        assert!(ten_secs.write_energy_pj_bit < one_day.write_energy_pj_bit);
        // Smullen-style magnitude: seconds-scale retention saves > 30%.
        assert!(ten_secs.write_energy_pj_bit < 0.7 * ten_years.write_energy_pj_bit);
    }

    #[test]
    fn relaxing_retention_cuts_write_latency() {
        let t = stt_tradeoff();
        let anchor = t.at(SimDuration::from_years(10));
        let relaxed = t.at(SimDuration::from_hours(12));
        assert!(relaxed.write_latency_ns < anchor.write_latency_ns);
    }

    #[test]
    fn relaxing_retention_raises_endurance() {
        let t = rram_tradeoff();
        let anchor = t.at(SimDuration::from_years(10));
        let relaxed = t.at(SimDuration::from_hours(12));
        assert!(relaxed.endurance > anchor.endurance * 100.0);
        assert!(relaxed.endurance <= t.endurance_ceiling);
    }

    #[test]
    fn endurance_respects_ceiling() {
        let t = rram_tradeoff();
        let extreme = t.at(SimDuration::from_micros(1));
        assert_eq!(extreme.endurance.to_bits(), t.endurance_ceiling.to_bits());
    }

    #[test]
    fn tightening_retention_costs_endurance() {
        let mut t = rram_tradeoff();
        t.ref_retention = SimDuration::from_hours(1);
        let tighter = t.at(SimDuration::from_years(10));
        assert!(tighter.endurance < t.ref_endurance);
    }

    #[test]
    fn dram_family_is_not_tunable() {
        let t = RetentionTradeoff {
            family: CellFamily::Dram,
            ref_retention: SimDuration::from_millis(64),
            ref_write_energy_pj_bit: 4.0,
            ref_write_latency_ns: 15.0,
            ref_endurance: 1e16,
            endurance_ceiling: 1e16,
        };
        let p = t.at(SimDuration::from_days(7));
        assert_eq!(p.retention, SimDuration::from_millis(64));
        // Clamped exactly at the ceiling, so bit equality holds.
        assert_eq!(p.write_energy_pj_bit.to_bits(), 4.0f64.to_bits());
        assert_eq!(p.endurance.to_bits(), 1e16f64.to_bits());
    }

    #[test]
    fn anchor_point_is_identity() {
        let t = stt_tradeoff();
        let p = t.at(SimDuration::from_years(10));
        // At the anchor the scaling exponent is zero, so the reference
        // values come back bit-identical.
        assert_eq!(
            p.write_energy_pj_bit.to_bits(),
            t.ref_write_energy_pj_bit.to_bits()
        );
        assert_eq!(
            p.write_latency_ns.to_bits(),
            t.ref_write_latency_ns.to_bits()
        );
        assert_eq!(p.endurance.to_bits(), t.ref_endurance.to_bits());
    }

    #[test]
    fn energy_monotone_in_retention() {
        let t = rram_tradeoff();
        let mut last = 0.0;
        for hours in [1u64, 12, 24, 24 * 30, 24 * 365, 24 * 3650] {
            let p = t.at(SimDuration::from_hours(hours));
            assert!(
                p.write_energy_pj_bit >= last,
                "energy not monotone at {hours}h: {} < {last}",
                p.write_energy_pj_bit
            );
            last = p.write_energy_pj_bit;
        }
    }

    #[test]
    fn rber_grows_with_age() {
        let t = stt_tradeoff();
        let ret = SimDuration::from_hours(12);
        let floor = 1e-9;
        let fresh = t.rber_at_age(ret, SimDuration::from_secs(1), floor);
        let mid = t.rber_at_age(ret, SimDuration::from_hours(6), floor);
        let at_target = t.rber_at_age(ret, ret, floor);
        let past = t.rber_at_age(ret, SimDuration::from_hours(48), floor);
        assert!(fresh < 1e-8, "fresh {fresh}");
        assert!(mid > fresh && mid < at_target);
        // The retention target is the RBER spec point by definition.
        assert!(
            (at_target / RBER_AT_RETENTION_TARGET - 1.0).abs() < 0.05,
            "at_target {at_target}"
        );
        assert!(past > at_target && past <= 0.5);
    }

    #[test]
    fn rber_within_retention_window_is_small() {
        // Data read at 10% of its retention target: RBER must stay within
        // typical ECC-correctable range (< 1e-2 for 1% of lifetime).
        let t = rram_tradeoff();
        let ret = SimDuration::from_days(1);
        let r = t.rber_at_age(ret, SimDuration::from_hours(2), 1e-9);
        assert!(r < 1e-6, "rber {r}");
    }

    #[test]
    fn wear_state_progression() {
        let mut w = WearState::new();
        assert!(w.wear_fraction(1e6).abs() < f64::EPSILON);
        assert!(!w.is_worn_out(1e6));
        w.record_writes(500_000);
        assert!((w.wear_fraction(1e6) - 0.5).abs() < 1e-12);
        assert!((w.rber_multiplier(1e6) - 1.25).abs() < 1e-12);
        w.record_writes(500_000);
        assert!(w.is_worn_out(1e6));
        let m = w.rber_multiplier(1e6);
        assert!((9.0..11.0).contains(&m), "multiplier at wear-out {m}");
    }

    #[test]
    fn wear_multiplier_is_monotone_and_continuous_at_knee() {
        let e = 1e6;
        let mut w = WearState::new();
        let mut last = 0.0;
        for k in 0..200 {
            w.cycles = k * 10_000;
            let m = w.rber_multiplier(e);
            assert!(m >= last, "multiplier not monotone at {k}");
            last = m;
        }
        // Continuity at the 0.8 knee.
        let below = WearState { cycles: 799_999 }.rber_multiplier(e);
        let above = WearState { cycles: 800_001 }.rber_multiplier(e);
        assert!((below - above).abs() < 0.01, "{below} vs {above}");
    }

    #[test]
    fn zero_endurance_is_immediately_worn() {
        let w = WearState { cycles: 1 };
        assert!(w.is_worn_out(0.0));
    }

    #[test]
    fn write_points_serve_the_curve_point_and_stay_bounded() {
        let curve = rram_tradeoff();
        let mut table = WritePoints::new(curve.clone());
        let distinct: Vec<SimDuration> = (1..=20).map(|k| SimDuration::from_mins(7 * k)).collect();
        for _ in 0..2 {
            for &r in &distinct {
                assert_eq!(table.at(r), curve.at(r), "{r}");
            }
        }
        assert_eq!(table.points.len(), WRITE_POINTS);
        let kept: Vec<SimDuration> = table.points.iter().map(|&(r, _)| r).collect();
        assert_eq!(kept, distinct[..WRITE_POINTS]);
    }
}
