//! Failure injection across the stack: bit errors vs. the ECC path, aged
//! data vs. the fault model, and worn-out cells vs. the device read path.

use mrm::controller::dcm::RetentionClass;
use mrm::controller::mrm_block::MrmBlockController;
use mrm::device::device::MemoryDevice;
use mrm::device::tech::presets;
use mrm::ecc::analysis::codeword_failure_prob;
use mrm::ecc::bch::{Bch, BchError};
use mrm::ecc::hamming::{Hamming, HammingOutcome};
use mrm::ecc::interleave::Interleaver;
use mrm::faults::{FaultConfig, FaultModel};
use mrm::sim::rng::SimRng;
use mrm::sim::time::{SimDuration, SimTime};
use mrm::sim::units::{GIB, MIB};

/// Monte-Carlo RBER injection against the analytic binomial-tail model:
/// the measured codeword failure rate must agree with the prediction.
#[test]
fn measured_bch_failure_rate_matches_analysis() {
    let code = Bch::new(8, 2); // (255, 239): small enough to fail visibly
    let mut rng = SimRng::seed_from(2024);
    let data: Vec<u8> = (0..code.k()).map(|_| (rng.next_u64() & 1) as u8).collect();
    let clean = code.encode(&data);

    let rber = 0.01; // exaggerated so failures occur in few trials
    let trials = 4000;
    let mut failures = 0u32;
    for _ in 0..trials {
        let mut cw = clean.clone();
        for bit in cw.iter_mut() {
            if rng.next_f64() < rber {
                *bit ^= 1;
            }
        }
        match code.decode(&cw) {
            Ok((out, _)) if out == data => {}
            _ => failures += 1,
        }
    }
    let measured = f64::from(failures) / f64::from(trials);
    let predicted = codeword_failure_prob(code.n() as u64, code.t() as u64, rber);
    assert!(
        (measured / predicted - 1.0).abs() < 0.25,
        "measured {measured:.4} vs predicted {predicted:.4}"
    );
}

/// The aged-device → RBER → ECC pipeline: the RBER a zone read reports
/// for aged data, pushed through the analytic binomial tail, must predict
/// the uncorrectable codewords the fault model samples at that rate, and
/// expiry must match the programmed class.
#[test]
fn aged_reads_rber_is_consistent_with_integrity() {
    let mut tech = presets::mrm_hours();
    tech.capacity_bytes = GIB;
    let mut ctrl = MrmBlockController::new(MemoryDevice::new(tech), 64 * MIB);
    let t0 = SimTime::ZERO;
    let retention = RetentionClass::for_lifetime(SimDuration::from_mins(8), 1.25).duration();
    let zone = ctrl.open_zone_least_worn().unwrap();
    ctrl.append(t0, zone, 32 * MIB, retention).unwrap(); // 10m class

    let mut model = FaultModel::new(FaultConfig::mrm(), 3);
    let mut last_rber = 0.0;
    for mins in [1u64, 5, 9, 15] {
        let op = ctrl
            .read(t0 + SimDuration::from_mins(mins), zone, 0, 32 * MIB)
            .unwrap();
        assert!(
            op.rber > last_rber,
            "minute {mins}: RBER must grow with age"
        );
        last_rber = op.rber;
        assert_eq!(op.expired, mins >= 10, "minute {mins}: expiry vs class");

        let r = model.inject_read(32 * MIB, op.rber);
        let p_fail = codeword_failure_prob(model.codeword_bits(), model.t(), op.rber);
        let expected = p_fail * r.codewords as f64;
        // A t+1 pattern never decodes to the written data, so every
        // uncorrectable codeword is detected or (CRC-caught) miscorrected.
        let ue = (r.detected_ue + r.miscorrected + r.silent) as f64;
        assert!(
            (ue - expected).abs() <= 5.0 * expected.sqrt() + 1.0,
            "minute {mins}: sampled {ue} UEs vs predicted {expected:.2}"
        );
        assert_eq!(r.silent, 0, "the outer CRC leaves nothing silent");
        if mins == 1 {
            assert!(!r.uncorrectable(), "fresh data must decode: {r:?}");
        }
        if op.expired {
            assert!(r.uncorrectable(), "expired data must break through: {r:?}");
        }
    }
}

/// Burst failure: a physical burst that would kill one codeword survives
/// interleaving + BCH, end to end.
#[test]
fn interleaved_bch_survives_wordline_burst() {
    let code = Bch::with_data_len(10, 4, 512);
    let il = Interleaver::new(8, code.n());
    let mut rng = SimRng::seed_from(5);
    let payloads: Vec<Vec<u8>> = (0..8)
        .map(|_| (0..512).map(|_| (rng.next_u64() & 1) as u8).collect())
        .collect();
    let cws: Vec<Vec<u8>> = payloads.iter().map(|p| code.encode(p)).collect();
    let mut frame = il.interleave(&cws);

    // A 24-bit contiguous burst: 3 errors per codeword after deinterleave.
    let start = 1000;
    for bit in frame.iter_mut().skip(start).take(24) {
        *bit ^= 1;
    }
    for (j, received) in il.deinterleave(&frame).iter().enumerate() {
        let (out, fixed) = code.decode(received).expect("burst must be correctable");
        assert_eq!(out, payloads[j]);
        assert!(fixed <= 3);
    }

    // Control: the same burst on a single codeword is uncorrectable (or at
    // least not silently "fixed" into the right data by luck).
    let mut single = cws[0].clone();
    for bit in single.iter_mut().skip(100).take(24) {
        *bit ^= 1;
    }
    match code.decode(&single) {
        Err(BchError::TooManyErrors) => {}
        Ok((out, _)) => assert_ne!(out, payloads[0]),
    }
}

/// SECDED miscorrection boundary: triple errors may alias to a "corrected"
/// word — the documented limitation — but never panic.
#[test]
fn secded_triple_error_does_not_panic() {
    let h = Hamming::secded_72_64();
    let data: Vec<u8> = (0..64).map(|i| (i % 2) as u8).collect();
    let cw = h.encode(&data);
    for (a, b, c) in [(0usize, 1usize, 2usize), (3, 40, 71), (10, 20, 30)] {
        let mut bad = cw.clone();
        bad[a] ^= 1;
        bad[b] ^= 1;
        bad[c] ^= 1;
        let (_, outcome) = h.decode(&bad);
        // Any outcome is acceptable except a clean verdict.
        assert_ne!(outcome, HammingOutcome::Clean, "triple error read as clean");
    }
}

/// Worn-out cells surface through the device read path.
#[test]
fn wearout_is_reported_not_hidden() {
    let mut tech = presets::rram_product();
    tech.endurance = 5.0;
    tech.capacity_bytes = MIB;
    let mut dev = MemoryDevice::new(tech);
    for _ in 0..6 {
        dev.write(SimTime::ZERO, 0, 4096).unwrap();
    }
    let r = dev.read(SimTime::ZERO, 0, 4096).unwrap();
    assert!(r.worn_out, "endurance exhaustion must be visible");
    assert!(r.rber > 0.0 || r.worn_out);
}
