//! **E10** (§3/§4) — device lifetime under sustained KV write load, with
//! and without software wear levelling.
//!
//! §4 proposes leaving wear levelling "up to a software control plane
//! higher up in the stack". This experiment measures what that buys: the
//! projected lifetime of an MRM part under the Splitwise-derived KV append
//! stream, for naive zone reuse vs. least-worn allocation, across the
//! endurance levels of Figure 1 (SCM product vs. technology potential).
//!
//! With `--telemetry <path>` each configuration also records a sim-time
//! JSONL series (60 s snapshots of bytes written and peak/mean zone
//! cycles, plus the final per-zone wear histogram).

use mrm_analysis::report::Table;
use mrm_bench::{
    check, heading, output_path_from_args, save_json, save_telemetry, warn_unsupported_obs,
};
use mrm_device::tech::presets;
use mrm_sim::time::SimDuration;
use mrm_sim::units::MIB;
use mrm_telemetry::{export, SimTelemetry};
use mrm_tiering::wear::{simulate_wear, WearPolicy, WearReport};
use serde::Value;

fn main() {
    let telemetry_path = output_path_from_args("--telemetry");
    warn_unsupported_obs("e10_wear");
    let mut jsonl = String::new();

    heading("E10 — zone churn simulation (scaled device, KV-stream append/drop)");
    let mut results: Vec<WearReport> = Vec::new();
    let mut t = Table::new(&[
        "policy",
        "endurance",
        "max zone cycles",
        "mean zone cycles",
        "peak/mean",
        "projected lifetime",
    ]);
    let mut point = 0u64;
    for policy in [WearPolicy::LowestNumbered, WearPolicy::LeastWorn] {
        for (label, endurance) in [
            ("1e5 (RRAM product)", 1e5),
            ("3e6 (PCM product)", 3e6),
            ("1e10 (RRAM potential)", 1e10),
            ("1e12 (MRM class)", 1e12),
        ] {
            let mut tech = presets::mrm_hours();
            tech.capacity_bytes = 512 * MIB; // scaled device, same reuse pattern
            tech.endurance = endurance;
            let mut tele = telemetry_path
                .as_ref()
                .map(|_| SimTelemetry::new(SimDuration::from_secs(60)));
            let r = simulate_wear(
                tech,
                4 * MIB,            // zone size
                16 * MIB,           // stream (context KV) size
                256.0 * MIB as f64, // sustained append rate
                SimDuration::from_secs(1200),
                policy,
                tele.as_mut(),
            );
            if let Some(tele) = tele {
                jsonl.push_str(&export::jsonl_tagged(
                    tele.snapshots(),
                    &[
                        ("experiment", Value::Str("e10".to_string())),
                        ("point", Value::U64(point)),
                        ("policy", Value::Str(policy.label().to_string())),
                        ("endurance", Value::F64(endurance)),
                    ],
                ));
            }
            point += 1;
            t.row(&[
                policy.label(),
                label,
                &r.max_zone_cycles.to_string(),
                &format!("{:.1}", r.mean_zone_cycles),
                &format!(
                    "{:.2}",
                    r.max_zone_cycles as f64 / r.mean_zone_cycles.max(1e-9)
                ),
                &format!("{:.2} years", r.projected_lifetime_years),
            ]);
            results.push(r);
        }
    }
    print!("{}", t.render());

    heading("Shape checks");
    // Pair up naive vs levelled at equal endurance.
    let labels = ["1e5", "3e6", "1e10", "1e12"];
    let half = results.len() / 2;
    let mut ok = true;
    for i in 0..half {
        let naive = &results[i];
        let lev = &results[half + i];
        let gain = lev.projected_lifetime_years / naive.projected_lifetime_years;
        ok &= check(
            gain > 1.5,
            &format!(
                "endurance {}: least-worn extends lifetime {:.1}x ({:.2}y -> {:.2}y)",
                labels[i % labels.len()],
                gain,
                naive.projected_lifetime_years,
                lev.projected_lifetime_years
            ),
        );
    }
    println!();
    println!("the 5-year target (§3) is reachable with software wear levelling at potential-");
    println!("class endurance, and out of reach for SCM-product endurance — Figure 1's gap,");
    println!("restated as device lifetime.");

    save_json("e10_wear", &results);
    if let Some(path) = telemetry_path {
        save_telemetry(&path, &jsonl);
    }
    if !ok {
        std::process::exit(1);
    }
}
