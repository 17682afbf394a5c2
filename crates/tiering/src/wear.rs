//! Software wear-levelling evaluation: device lifetime under KV write load.
//!
//! §3 sizes the endurance requirement; this module answers the follow-on
//! systems question (E10): given an MRM part with finite endurance and a
//! sustained KV-cache append load, how many years does the device last —
//! and how much does control-plane wear levelling (the §4 "left up to a
//! software control plane" design) buy over naive zone reuse?

use mrm_controller::mrm_block::{MrmBlockController, ZoneId};
use mrm_device::device::MemoryDevice;
use mrm_device::tech::Technology;
use mrm_sim::time::{SimDuration, SimTime};
use mrm_telemetry::SimTelemetry;
use serde::{Deserialize, Serialize};

/// Zone-allocation policy for the wear experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum WearPolicy {
    /// Always reuse the lowest-numbered free zone (no wear levelling):
    /// a hot subset of zones absorbs the whole write load.
    LowestNumbered,
    /// Open the least-worn free zone (software wear levelling).
    LeastWorn,
}

impl WearPolicy {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            WearPolicy::LowestNumbered => "no-WL",
            WearPolicy::LeastWorn => "least-worn",
        }
    }
}

/// Result of a wear simulation.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct WearReport {
    /// Policy evaluated.
    pub policy: WearPolicy,
    /// Total bytes written during the simulated window.
    pub bytes_written: u64,
    /// Highest per-zone write-cycle count observed.
    pub max_zone_cycles: u64,
    /// Mean per-zone write-cycle count.
    pub mean_zone_cycles: f64,
    /// Projected device lifetime in years: the time until the *hottest*
    /// zone exhausts the cell endurance budget at the observed rate.
    pub projected_lifetime_years: f64,
}

/// Simulates a sustained KV-append churn: streams of `stream_bytes` are
/// written, live for a while, and are dropped, over a simulated window of
/// `window`; zone reuse follows `policy`. The write rate is
/// `write_bytes_per_s`.
///
/// The simulation runs a scaled-down device (the zone-reuse pattern, not
/// the absolute capacity, determines relative wear) and projects lifetime
/// from cycles-per-simulated-second on the hottest zone.
///
/// With a telemetry sink attached, each churn step counts the bytes
/// written; at every due snapshot boundary the current peak/mean zone
/// write-cycle counts are published as gauges; the final per-zone wear
/// distribution goes into the `zone_write_cycles` histogram. The
/// simulation draws no randomness, so attaching a sink cannot change the
/// report.
///
/// # Panics
///
/// Panics if the configuration cannot fit two streams in the device.
pub fn simulate_wear(
    tech: Technology,
    zone_bytes: u64,
    stream_bytes: u64,
    write_bytes_per_s: f64,
    window: SimDuration,
    policy: WearPolicy,
    mut sink: Option<&mut SimTelemetry>,
) -> WearReport {
    let endurance = tech.endurance;
    let capacity = tech.capacity_bytes;
    let zones_per_stream = stream_bytes.div_ceil(zone_bytes).max(1);
    assert!(
        capacity / zone_bytes >= 2 * zones_per_stream,
        "device too small for churn simulation"
    );
    let mut ctrl = MrmBlockController::new(MemoryDevice::new(tech), zone_bytes);
    let retention = SimDuration::from_hours(12);

    // Live streams cycle: keep the device about half full; each step drops
    // the oldest stream and writes a new one.
    let max_live = (capacity / 2 / stream_bytes).max(1) as usize;
    let mut live: std::collections::VecDeque<Vec<ZoneId>> = std::collections::VecDeque::new();

    let mut now = SimTime::ZERO;
    let step = SimDuration::from_secs_f64(stream_bytes as f64 / write_bytes_per_s);
    let mut bytes_written = 0u64;

    while now.duration_since(SimTime::ZERO) < window {
        if live.len() >= max_live {
            let retired = live
                .pop_front()
                .expect("live stream queue is non-empty when at max_live");
            for z in retired {
                ctrl.reset_zone(z).expect("reset");
            }
        }
        let mut zones = Vec::with_capacity(zones_per_stream as usize);
        let mut remaining = stream_bytes;
        while remaining > 0 {
            let z = match policy {
                WearPolicy::LowestNumbered => ctrl.open_zone().expect("open"),
                WearPolicy::LeastWorn => ctrl.open_zone_least_worn().expect("open"),
            };
            let chunk = remaining.min(zone_bytes);
            ctrl.append(now, z, chunk, retention).expect("append");
            ctrl.finish_zone(z).ok();
            zones.push(z);
            remaining -= chunk;
        }
        live.push_back(zones);
        bytes_written += stream_bytes;
        now += step;
        if let Some(sink) = sink.as_deref_mut() {
            sink.count("wear_bytes_written", stream_bytes);
            while let Some(at) = sink.snapshot_due(now) {
                let (max_c, mean_c) = zone_cycle_stats(&ctrl);
                sink.gauge("wear_max_zone_cycles", max_c as f64);
                sink.gauge("wear_mean_zone_cycles", mean_c);
                sink.snapshot(at);
            }
        }
    }

    let (max_cycles, mean_cycles) = zone_cycle_stats(&ctrl);
    if let Some(sink) = sink {
        ctrl.emit_wear_histogram(sink);
    }
    let elapsed_s = window.as_secs_f64();
    let hottest_cycles_per_s = max_cycles as f64 / elapsed_s;
    let projected_lifetime_years = if hottest_cycles_per_s > 0.0 {
        endurance / hottest_cycles_per_s / (365.0 * 86_400.0)
    } else {
        f64::INFINITY
    };

    WearReport {
        policy,
        bytes_written,
        max_zone_cycles: max_cycles,
        mean_zone_cycles: mean_cycles,
        projected_lifetime_years,
    }
}

/// Peak and mean per-zone write-cycle counts across the whole device.
fn zone_cycle_stats(ctrl: &MrmBlockController) -> (u64, f64) {
    let n = ctrl.zone_count();
    let mut max_cycles = 0u64;
    let mut total_cycles = 0u64;
    for i in 0..n {
        let c = ctrl
            .write_cycles(ZoneId(i as u32))
            .expect("zone index is within zone_count");
        max_cycles = max_cycles.max(c);
        total_cycles += c;
    }
    (max_cycles, total_cycles as f64 / n.max(1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrm_device::tech::presets;
    use mrm_sim::units::MIB;

    fn small_mrm() -> Technology {
        let mut t = presets::mrm_hours();
        t.capacity_bytes = 256 * MIB;
        t
    }

    fn run(policy: WearPolicy) -> WearReport {
        simulate_wear(
            small_mrm(),
            4 * MIB,  // zones
            16 * MIB, // streams
            64.0 * MIB as f64,
            SimDuration::from_secs(600),
            policy,
            None,
        )
    }

    #[test]
    fn wear_levelling_extends_lifetime() {
        let naive = run(WearPolicy::LowestNumbered);
        let levelled = run(WearPolicy::LeastWorn);
        assert!(naive.bytes_written == levelled.bytes_written);
        assert!(
            levelled.max_zone_cycles < naive.max_zone_cycles,
            "least-worn must reduce peak wear: {} vs {}",
            levelled.max_zone_cycles,
            naive.max_zone_cycles
        );
        assert!(
            levelled.projected_lifetime_years > 1.5 * naive.projected_lifetime_years,
            "lifetime: {} vs {}",
            levelled.projected_lifetime_years,
            naive.projected_lifetime_years
        );
    }

    #[test]
    fn levelled_wear_is_near_uniform() {
        let r = run(WearPolicy::LeastWorn);
        // Peak within 3× of mean under least-worn (half the zones are
        // parked in live streams at any instant).
        assert!(
            (r.max_zone_cycles as f64) < 3.0 * r.mean_zone_cycles.max(1.0),
            "max {} mean {}",
            r.max_zone_cycles,
            r.mean_zone_cycles
        );
    }

    #[test]
    fn telemetry_does_not_change_report() {
        let base = run(WearPolicy::LeastWorn);
        let mut tele = SimTelemetry::new(SimDuration::from_secs(60));
        let traced = simulate_wear(
            small_mrm(),
            4 * MIB,
            16 * MIB,
            64.0 * MIB as f64,
            SimDuration::from_secs(600),
            WearPolicy::LeastWorn,
            Some(&mut tele),
        );
        assert_eq!(base.bytes_written, traced.bytes_written);
        assert_eq!(base.max_zone_cycles, traced.max_zone_cycles);
        // Telemetry must be a pure observer: bit-identical results.
        assert_eq!(
            base.mean_zone_cycles.to_bits(),
            traced.mean_zone_cycles.to_bits()
        );
        assert_eq!(
            base.projected_lifetime_years.to_bits(),
            traced.projected_lifetime_years.to_bits()
        );
        // 600 s window pumped at 60 s → boundaries 60..=600.
        assert_eq!(tele.snapshots().len(), 10);
        assert_eq!(
            tele.registry().counter_value("wear_bytes_written"),
            Some(traced.bytes_written)
        );
        let wear = tele
            .registry()
            .histogram_by_name("zone_write_cycles")
            .expect("wear histogram");
        assert!(wear.count() > 0);
    }

    #[test]
    fn report_accounting() {
        let r = run(WearPolicy::LeastWorn);
        // 600 s at 64 MiB/s = 37.5 GiB in 16 MiB streams.
        assert!(r.bytes_written > 30 * 1024 * MIB);
        assert!(r.projected_lifetime_years.is_finite());
        assert!(r.projected_lifetime_years > 0.0);
    }
}
