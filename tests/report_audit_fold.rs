//! The cluster report's decision counters against the audit log.
//!
//! `ClusterSim` derives its report's decision counters from the `AuditLog`
//! it returns, with one cursor fold over the records. The folds here are
//! the reference that production fold is checked against: written apart
//! from it, each as a plain filter over the whole log, on the
//! configurations the e9, e11 and e13 experiments run.
//!
//! No experiment bin fires a scrub, migration, escalation, redeploy or
//! weight refetch, so `GOLDEN.json` cannot see those paths. The ladder
//! points here do, and their serialized reports and audit logs are pinned
//! by digest, so a speed-only change to those paths must keep every byte.

use std::collections::BTreeMap;

use mrm::control::{AuditAction, AuditLog, AuditRecord, ControlClass};
use mrm::faults::FaultConfig;
use mrm::sim::time::SimDuration;
use mrm::tiering::{ClusterConfig, ClusterReport, ClusterSim, PlacementPolicy};

/// The configuration the e11/e13 grid points share (short follow-up
/// window and maintenance period, so cached KV ages span its class).
fn audited(policy: PlacementPolicy, seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::llama70b(policy, 2, 8.0);
    cfg.duration = SimDuration::from_secs(90);
    cfg.followup_window = SimDuration::from_secs(20);
    cfg.hint_window = SimDuration::from_secs(20);
    cfg.followup_prob = 0.8;
    cfg.maintenance_period = SimDuration::from_secs(5);
    cfg.seed = seed;
    cfg
}

/// Every grid point of `e9_cluster`'s main grid, `e11_faults` and
/// `e13_control` (full length, default seeds), plus [`ladder_configs`],
/// labelled.
fn configs() -> Vec<(String, ClusterConfig)> {
    let mut out = Vec::new();
    for p in PlacementPolicy::all() {
        let mut cfg = ClusterConfig::llama70b(p, 4, 16.0);
        cfg.duration = SimDuration::from_secs(120);
        out.push((format!("e9 {}", p.label()), cfg));
    }
    let mrm = [PlacementPolicy::HbmMrm, PlacementPolicy::HbmMrmDcm];
    for p in mrm {
        for margin in [10.0, 5.0, 2.5, 1.5, 1.25, 1.0] {
            let mut cfg = audited(p, 0xC1A5_7E12);
            cfg.faults = FaultConfig {
                provision_margin: Some(margin),
                ..FaultConfig::mrm()
            };
            out.push((format!("e11 {} margin {margin}", p.label()), cfg));
        }
    }
    for p in mrm {
        out.push((format!("e13 {} healthy", p.label()), audited(p, 0xC0_47_01)));
        let mut cfg = audited(p, 0xC0_47_01);
        cfg.faults = FaultConfig {
            ber_scale: 40.0,
            provision_margin: Some(1.0),
            ..FaultConfig::mrm()
        };
        out.push((format!("e13 {} margin-1x", p.label()), cfg));
    }
    out.extend(ladder_configs());
    out
}

/// Points that fire the counters the experiment grids leave at zero:
/// scrubs, planned migrations, escalations, redeploys and weight
/// re-fetches.
fn ladder_configs() -> Vec<(String, ClusterConfig)> {
    // Scrub verification at 40x BER near end-of-retention escalates.
    let mut escalate = audited(PlacementPolicy::HbmMrm, 1);
    escalate.followup_prob = 0.2;
    escalate.maintenance_period = SimDuration::from_secs(2);
    escalate.faults = FaultConfig {
        ber_scale: 40.0,
        provision_margin: Some(0.25),
        ..FaultConfig::mrm()
    };
    // Optimistic hints: DCM programs short classes the sweep must scrub
    // or migrate to keep cached contexts alive.
    let mut scrub = ClusterConfig::llama70b(PlacementPolicy::HbmMrmDcm, 1, 0.2);
    scrub.duration = SimDuration::from_secs(1200);
    scrub.hint_window = SimDuration::from_mins(1);
    scrub.followup_window = SimDuration::from_mins(30);
    scrub.followup_prob = 0.0;
    scrub.maintenance_period = SimDuration::from_secs(30);
    // Weights redeployed every 30 s into the 30 s DCM class (no lifetime
    // margin), read at 40x BER as they age toward it: re-fetches.
    let mut redeploy = audited(PlacementPolicy::HbmMrmDcm, 2);
    redeploy.weight_redeploy_period = Some(SimDuration::from_secs(30));
    redeploy.lifetime_margin = 1.0;
    redeploy.faults = FaultConfig {
        ber_scale: 40.0,
        provision_margin: Some(1.0),
        ..FaultConfig::mrm()
    };
    // A 2 h need spans many short DCM retention periods: the sweep plans
    // a Migrate to a longer class.
    let mut migrate = ClusterConfig::llama70b(PlacementPolicy::HbmMrmDcm, 1, 0.05);
    migrate.duration = SimDuration::from_secs(1200);
    migrate.hint_window = SimDuration::from_mins(1);
    migrate.followup_window = SimDuration::from_hours(2);
    migrate.followup_prob = 0.0;
    migrate.maintenance_period = SimDuration::from_secs(30);
    vec![
        ("scrub escalation".to_string(), escalate),
        ("optimistic hints".to_string(), scrub),
        ("redeploy at 40x BER".to_string(), redeploy),
        ("long needs migrate".to_string(), migrate),
    ]
}

fn fold(audit: &AuditLog, pick: impl Fn(&AuditRecord) -> bool) -> u64 {
    audit.records().iter().filter(|r| pick(r)).count() as u64
}

#[test]
fn decision_counters_equal_their_audit_folds() {
    let mut mismatches = Vec::new();
    let mut fired: BTreeMap<&str, u64> = BTreeMap::new();
    let (mut pinned, mut moved) = (0, Vec::new());
    for (label, cfg) in configs() {
        let (report, audit) = ClusterSim::new(cfg).run_with_audit();
        if let Some(&(_, report_fnv, audit_fnv)) = LADDER_DIGESTS.iter().find(|d| d.0 == label) {
            pinned += 1;
            let (r, a) = digests(&report, &audit);
            if (r, a) != (report_fnv, audit_fnv) {
                moved.push(format!("    (\"{label}\", {r:#018x}, {a:#018x}),"));
            }
        }
        let a = |action: AuditAction| move |r: &AuditRecord| r.action == action;
        let migrates = fold(&audit, a(AuditAction::Migrate));
        let escalates = fold(&audit, a(AuditAction::Escalate));
        let counters = [
            (
                "completions",
                report.completions,
                fold(&audit, |r| {
                    r.class == ControlClass::KvTail && r.action == AuditAction::Retire
                }),
            ),
            (
                "scrubs",
                report.scrubs,
                fold(&audit, a(AuditAction::Refresh)),
            ),
            ("migrations", report.migrations, migrates + escalates),
            // The reconciler's reclaims: need lapsed (drop) or ended
            // (retire), as planned by a maintenance sweep.
            (
                "drops",
                report.drops,
                fold(&audit, |r| {
                    matches!(r.reason, "need-lapsed" | "need-ended")
                        && matches!(r.action, AuditAction::Drop | AuditAction::Retire)
                }),
            ),
            (
                "evictions",
                report.evictions,
                fold(&audit, a(AuditAction::Evict)),
            ),
            (
                "redeploys",
                report.redeploys,
                fold(&audit, |r| {
                    r.class == ControlClass::Weights
                        && r.action == AuditAction::Store
                        && r.reason == "redeploy"
                }),
            ),
            (
                "faults.weight_refetches",
                report.faults.weight_refetches,
                fold(&audit, a(AuditAction::Refetch)),
            ),
            (
                "faults.kv_recomputes",
                report.faults.kv_recomputes,
                fold(&audit, |r| {
                    r.action == AuditAction::Recompute && r.reason == "uncorrectable-read"
                }),
            ),
            (
                "faults.scrub_escalations",
                report.faults.scrub_escalations,
                fold(&audit, a(AuditAction::Escalate)),
            ),
            // Every recompute: retention lapsed, uncorrectable read, or a
            // follow-up whose context was already gone.
            (
                "recomputes",
                report.recomputes,
                fold(&audit, a(AuditAction::Recompute)),
            ),
        ];
        // `migrations` counts two decisions: tally each apart, so that
        // escalations alone cannot make it look fired.
        *fired.entry("migrations: Migrate").or_default() += migrates;
        *fired.entry("migrations: Escalate").or_default() += escalates;
        for (name, counter, folded) in counters {
            if name != "migrations" {
                *fired.entry(name).or_default() += counter;
            }
            if counter != folded {
                mismatches.push(format!(
                    "{label}: {name} = {counter}, audit fold = {folded}"
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
    assert_eq!(
        pinned,
        LADDER_DIGESTS.len(),
        "a pinned label matched no point"
    );
    assert!(
        moved.is_empty(),
        "ladder digests moved:\n{}",
        moved.join("\n")
    );
    // Every counter fired somewhere, so no equality above is a vacuous
    // zero against zero.
    assert!(fired.values().all(|&n| n > 0), "counter totals {fired:?}");
}

/// The FNV-1a 64 digest of each ladder point's report (compact JSON) and
/// audit log (one `Debug` line per record), as `(label, report, audit)`. A
/// change that moves them on purpose re-pins them from the failure
/// message. As with `GOLDEN.json`, the digests hold on the host family
/// that blessed them: a libm with other last-bit rounding moves the
/// report's floats.
const LADDER_DIGESTS: [(&str, u64, u64); 4] = [
    ("scrub escalation", 0x0f3152f4eb857e7d, 0x9a0070646c487cb8),
    ("optimistic hints", 0xe2e5e507d91f7d38, 0x34819e0f79e8a608),
    (
        "redeploy at 40x BER",
        0x6bde280e73f93a99,
        0x55d195500d589c4e,
    ),
    ("long needs migrate", 0x2ab8142a2d061e99, 0x2cbcb4b1786d9c1c),
];

/// The `(report, audit)` digests of one run, as in [`LADDER_DIGESTS`].
fn digests(report: &ClusterReport, audit: &AuditLog) -> (u64, u64) {
    let fnv = |s: &str| {
        s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    };
    let mut log = String::new();
    for r in audit.records() {
        log.push_str(&format!("{r:?}\n"));
    }
    (fnv(&serde_json::to_string(report).unwrap()), fnv(&log))
}
