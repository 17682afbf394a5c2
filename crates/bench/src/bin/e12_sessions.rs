//! **E12** (§2/§4) — session think-time gaps vs. retention classes.
//!
//! A context lives across a whole interaction (§2), and the intervals the
//! KV cache must survive are the user's think times between turns. This
//! experiment generates multi-turn sessions and asks, per DCM retention
//! class: what fraction of sessions complete with zero KV recompute (every
//! gap covered), and what the residual recompute rate costs — locating the
//! retention sweet spot from the *session* side.

use mrm_analysis::report::Table;
use mrm_bench::{heading, output_path_from_args, save_json, save_telemetry, warn_unsupported_obs};
use mrm_controller::dcm::RetentionClass;
use mrm_sim::rng::SimRng;
use mrm_sim::time::{SimDuration, SimTime};
use mrm_telemetry::{export, SimTelemetry};
use mrm_workload::model::{ModelConfig, Quantization};
use mrm_workload::sessions::SessionSampler;
use serde::Value;

/// Static gauge name for a retention class's session-coverage fraction
/// (the registry interns `&'static str` names).
fn coverage_gauge(class: RetentionClass) -> &'static str {
    match class {
        RetentionClass::Seconds30 => "session_coverage_30s",
        RetentionClass::Minutes10 => "session_coverage_10m",
        RetentionClass::Hours1 => "session_coverage_1h",
        RetentionClass::Hours12 => "session_coverage_12h",
        RetentionClass::Days7 => "session_coverage_7d",
    }
}

fn main() {
    let telemetry_path = output_path_from_args("--telemetry");
    warn_unsupported_obs("e12_sessions");
    let sampler = SessionSampler::conversation_default(4096);
    let model = ModelConfig::llama2_70b();
    let kvpt = model.kv_bytes_per_token(Quantization::Fp16);
    let n = 50_000;
    let mut rng = SimRng::seed_from(7);
    let sessions: Vec<_> = (0..n).map(|_| sampler.sample(&mut rng)).collect();

    let multi: Vec<_> = sessions.iter().filter(|s| s.turns.len() > 1).collect();
    heading("E12 — multi-turn sessions (conversation population)");
    println!(
        "{n} sessions, {} multi-turn ({:.0}% continue rate, expected {:.2} turns/session)\n",
        multi.len(),
        60.0,
        sampler.expected_turns()
    );

    let mut t = Table::new(&[
        "retention class",
        "sessions fully covered",
        "gaps covered",
        "recomputed KV per 1k sessions",
    ]);
    let mut results = Vec::new();
    for class in RetentionClass::ladder() {
        let ret = class.duration();
        let mut covered_sessions = 0u64;
        let mut gaps_total = 0u64;
        let mut gaps_covered = 0u64;
        let mut recompute_bytes = 0u64;
        for s in &multi {
            let mut context = 0u64;
            let mut all = true;
            for (i, turn) in s.turns.iter().enumerate() {
                if i > 0 {
                    gaps_total += 1;
                    if turn.gap <= ret {
                        gaps_covered += 1;
                    } else {
                        all = false;
                        // The whole accumulated context must be recomputed.
                        recompute_bytes += context * kvpt;
                    }
                }
                context += u64::from(turn.prompt_tokens) + u64::from(turn.output_tokens);
            }
            if all {
                covered_sessions += 1;
            }
        }
        let frac_sessions = covered_sessions as f64 / multi.len() as f64;
        let frac_gaps = gaps_covered as f64 / gaps_total as f64;
        let recompute_gb_per_k = recompute_bytes as f64 / 1e9 / (multi.len() as f64 / 1000.0);
        t.row(&[
            class.label(),
            &format!("{:.1}%", frac_sessions * 100.0),
            &format!("{:.1}%", frac_gaps * 100.0),
            &format!("{recompute_gb_per_k:.1} GB"),
        ]);
        results.push((class.label(), frac_sessions, frac_gaps, recompute_gb_per_k));
    }
    print!("{}", t.render());

    heading("Reading the experiment");
    println!("- seconds-class retention recomputes nearly every turn: unusable alone;");
    println!("- the hours classes cover essentially all think times with zero scrubs —");
    println!("  the §1 \"retention can be relaxed to days or hours\" claim, derived from");
    println!("  session structure rather than asserted;");
    println!("- the residual (cross-session) reuse is what the follow-up window and");
    println!("  prefix cache (E11) handle.");

    // Shape checks: coverage is monotone in retention; hours-class ≈ full.
    for w in results.windows(2) {
        assert!(w[1].1 >= w[0].1, "coverage must be monotone in retention");
    }
    let hours1 = results.iter().find(|r| r.0 == "1h").unwrap();
    assert!(
        hours1.1 > 0.9,
        "1h class must cover >90% of sessions, got {}",
        hours1.1
    );
    let secs = results.iter().find(|r| r.0 == "30s").unwrap();
    assert!(secs.1 < 0.7, "30s class must visibly fail sessions");
    println!("\nPASS session-coverage shape checks");

    if let Some(path) = &telemetry_path {
        // One snapshot per retention class at a synthetic 1 s step: the
        // session/gap coverage curve as a JSONL series, same shape as the
        // cluster experiments' exports.
        let mut tele = SimTelemetry::new(SimDuration::from_secs(1));
        for (i, (class, r)) in RetentionClass::ladder().iter().zip(&results).enumerate() {
            tele.gauge(coverage_gauge(*class), r.1);
            tele.gauge("session_gap_coverage", r.2);
            tele.gauge("session_recompute_gb_per_k", r.3);
            tele.snapshot(SimTime::ZERO + SimDuration::from_secs(i as u64 + 1));
        }
        save_telemetry(
            path,
            &export::jsonl_tagged(
                tele.snapshots(),
                &[
                    ("experiment", Value::Str("e12".to_string())),
                    ("point", Value::U64(0)),
                ],
            ),
        );
    }

    save_json("e12_sessions", &results);
}
