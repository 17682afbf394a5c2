//! **E8** (§4) — retention-aware error correction.
//!
//! "A large block-based MRM interface means that there is scope for
//! considering error correction techniques that operate on larger code
//! words and have less overhead \[8\]." Plus the scrub-scheduling question:
//! how close to the retention target can data age before the decoder can
//! no longer hold the reliability target?

use mrm_analysis::report::Table;
use mrm_bench::{
    heading, note, output_path_from_args, save_json, save_telemetry, warn_unsupported_obs,
};
use mrm_device::cell::RetentionTradeoff;
use mrm_device::tech::presets;
use mrm_ecc::analysis::{iso_reliability_overhead, max_safe_age_fraction};
use mrm_ecc::bch::Bch;
use mrm_ecc::hamming::Hamming;
use mrm_sim::rng::SimRng;
use mrm_sim::time::{SimDuration, SimTime};
use mrm_telemetry::{export, SimTelemetry};
use serde::Value;

/// Stable gauge name for each E8d code point (telemetry names must be
/// `&'static str`).
fn scrub_ok_gauge(n_bits: u64, t: u64) -> &'static str {
    match (n_bits, t) {
        (72, 1) => "scrub_ok_n72_t1",
        (552, 4) => "scrub_ok_n552_t4",
        (32872, 8) => "scrub_ok_n32872_t8",
        (32872, 16) => "scrub_ok_n32872_t16",
        (32872, 32) => "scrub_ok_n32872_t32",
        _ => "scrub_ok_other",
    }
}

fn main() {
    let telemetry_path = output_path_from_args("--telemetry");
    warn_unsupported_obs("e8_ecc");
    heading("E8a — the Dolinar curve: overhead vs. codeword size at iso-reliability");
    println!("(RBER 1e-4, target codeword failure 1e-12, BCH-style m*t parity)\n");
    let rows = iso_reliability_overhead(1e-4, 1e-12, &[64, 256, 1024, 4096, 16384, 65536]);
    let mut t = Table::new(&["data bits", "codeword bits", "t", "parity bits", "overhead"]);
    for r in &rows {
        t.row(&[
            &r.data_bits.to_string(),
            &r.codeword_bits.to_string(),
            &r.t.to_string(),
            &r.parity_bits.to_string(),
            &format!("{:.2}%", r.overhead * 100.0),
        ]);
    }
    print!("{}", t.render());
    println!(
        "overhead falls {:.1}x from 64-bit words to 64-kbit blocks — larger code words, less overhead (§4).",
        rows[0].overhead / rows.last().unwrap().overhead
    );

    heading("E8b — real codecs: SECDED baseline vs. large-block BCH");
    let mut t = Table::new(&["code", "n", "k", "t", "overhead"]);
    let h = Hamming::secded_72_64();
    t.row(&[
        "Hamming SECDED (DRAM-style)",
        &h.codeword_len().to_string(),
        &h.data_len().to_string(),
        "1",
        &format!("{:.2}%", h.overhead() * 100.0),
    ]);
    for (m, tt, data) in [(10u32, 4usize, 512usize), (13, 8, 512 * 8)] {
        let code = Bch::with_data_len(m, tt, data);
        t.row(&[
            &format!("BCH over GF(2^{m})"),
            &code.n().to_string(),
            &code.k().to_string(),
            &tt.to_string(),
            &format!("{:.2}%", code.overhead() * 100.0),
        ]);
    }
    print!("{}", t.render());
    println!("a 4 KiB MRM block is protected by 8 such 512-byte codewords, bit-interleaved");
    println!("(mrm_ecc::interleave) so a physical burst spreads across all eight decoders.");

    heading("E8c — codec verification under injected errors");
    let code = Bch::with_data_len(13, 8, 512 * 8);
    let mut rng = SimRng::seed_from(99);
    let data: Vec<u8> = (0..code.k()).map(|_| (rng.next_u64() & 1) as u8).collect();
    let mut corrected_all = true;
    for trial in 0..20 {
        let mut cw = code.encode(&data);
        let errs = (trial % 8) + 1;
        for _ in 0..errs {
            let p = rng.gen_index(cw.len());
            cw[p] ^= 1;
        }
        match code.decode(&cw) {
            Ok((out, _fixed)) => corrected_all &= out == data,
            Err(_) => corrected_all = false,
        }
    }
    println!(
        "BCH(t=8, 512 B data): 20 trials with 1..8 injected errors -> {}",
        if corrected_all {
            "all corrected"
        } else {
            "FAILURE"
        }
    );
    assert!(corrected_all);

    heading("E8d — scrub scheduling: max safe data age vs. ECC strength");
    println!("(MRM hours-class cell; age as fraction of the retention target)\n");
    let tech = presets::mrm_hours();
    let tradeoff: RetentionTradeoff = tech.tradeoff();
    let retention = SimDuration::from_hours(12);
    let rber_at = |frac: f64| tradeoff.rber_at_age(retention, retention.mul_f64(frac), 1e-9);
    let codes = [
        (72u64, 1u64),
        (552, 4),
        (32872, 8),
        (32872, 16),
        (32872, 32),
    ];
    let mut t = Table::new(&["code", "t", "max safe age (x retention)", "scrub interval"]);
    let mut safe_fracs = Vec::with_capacity(codes.len());
    for (n_bits, tt) in codes {
        let frac = max_safe_age_fraction(n_bits, tt, 1e-12, rber_at);
        safe_fracs.push(frac);
        let interval = retention.mul_f64(frac);
        t.row(&[
            &format!("n={n_bits}"),
            &tt.to_string(),
            &format!("{frac:.2}"),
            &interval.to_string(),
        ]);
    }
    print!("{}", t.render());
    note("stronger codes let data age closer to (or past) the nominal retention target,");
    note("stretching the software scrub interval — ECC strength and retention class are");
    note("one joint design knob (§4 \"retention-aware error correction\").");

    // RBER-vs-data-age time series: the decoder's view of a 12 h retention
    // class as data ages in 15-minute steps, with a per-code "still within
    // its scrub budget" flag. Pure function of age — no RNG.
    if let Some(path) = telemetry_path {
        let step = SimDuration::from_secs(900);
        let mut tele = SimTelemetry::new(step);
        let steps = 48u64; // 48 * 15 min = the 12 h retention target
        for i in 1..=steps {
            let now = SimTime::ZERO + step.saturating_mul(i);
            let frac = i as f64 / steps as f64;
            tele.gauge("rber", rber_at(frac));
            for ((n_bits, tt), safe_frac) in codes.iter().zip(&safe_fracs) {
                let ok = frac <= *safe_frac;
                tele.gauge(scrub_ok_gauge(*n_bits, *tt), if ok { 1.0 } else { 0.0 });
            }
            while let Some(at) = tele.snapshot_due(now) {
                tele.snapshot(at);
            }
        }
        save_telemetry(
            &path,
            &export::jsonl_tagged(
                tele.snapshots(),
                &[
                    ("experiment", Value::Str("e8".to_string())),
                    ("point", Value::U64(0)),
                ],
            ),
        );
    }

    let records: Vec<(u64, u64, u64, u64, f64)> = rows
        .iter()
        .map(|r| (r.data_bits, r.codeword_bits, r.t, r.parity_bits, r.overhead))
        .collect();
    save_json("e8_ecc", &records);
}
