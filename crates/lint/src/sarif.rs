//! SARIF 2.1.0 output, hand-rolled (the lint crate is dependency-free by
//! design, so no serde).
//!
//! The shape follows the subset CI and code-review UIs actually consume:
//! `runs[0].tool.driver.rules` carries the catalogue (short description,
//! full description, long-form help from [`RuleId::explain`]), each result
//! carries a physical location, and multi-site diagnostics (U2 callee
//! declaration sites) carry their extra sites as `relatedLocations`.

use crate::rules::{RuleId, Severity, Violation};

/// JSON string escaping per RFC 8259.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn location(path: &str, line: u32, message: Option<&str>) -> String {
    let msg = message
        .map(|m| format!(r#""message":{{"text":"{}"}},"#, esc(m)))
        .unwrap_or_default();
    format!(
        r#"{{{msg}"physicalLocation":{{"artifactLocation":{{"uri":"{}"}},"region":{{"startLine":{line}}}}}}}"#,
        esc(path)
    )
}

/// All rules that can appear in results, in catalogue order.
fn catalogue() -> Vec<RuleId> {
    let mut rules = RuleId::ALL.to_vec();
    rules.push(RuleId::Meta);
    rules
}

/// Renders one run's surviving violations as a SARIF 2.1.0 log.
pub fn render(violations: &[Violation]) -> String {
    let rules = catalogue();
    let rule_entries: Vec<String> = rules
        .iter()
        .map(|r| {
            let level = match r.severity() {
                Severity::Error => "error",
                Severity::Warn => "warning",
            };
            format!(
                r#"{{"id":"{}","shortDescription":{{"text":"{}"}},"help":{{"text":"{}"}},"defaultConfiguration":{{"level":"{level}"}}}}"#,
                r.as_str(),
                esc(r.describe()),
                esc(r.explain()),
            )
        })
        .collect();

    let results: Vec<String> = violations
        .iter()
        .map(|v| {
            let rule_index = rules
                .iter()
                .position(|r| *r == v.rule)
                .expect("catalogue covers every rule");
            let level = match v.rule.severity() {
                Severity::Error => "error",
                Severity::Warn => "warning",
            };
            let mut extra = String::new();
            if !v.related.is_empty() {
                let rel: Vec<String> = v
                    .related
                    .iter()
                    .map(|r| location(&r.path, r.line, Some(&r.note)))
                    .collect();
                extra.push_str(&format!(r#","relatedLocations":[{}]"#, rel.join(",")));
            }
            format!(
                r#"{{"ruleId":"{}","ruleIndex":{rule_index},"level":"{level}","message":{{"text":"{}"}},"locations":[{}]{extra}}}"#,
                v.rule.as_str(),
                esc(&v.message),
                location(&v.path, v.line, None),
            )
        })
        .collect();

    format!(
        "{{\"$schema\":\"https://json.schemastore.org/sarif-2.1.0.json\",\
         \"version\":\"2.1.0\",\
         \"runs\":[{{\"tool\":{{\"driver\":{{\
         \"name\":\"mrm-lint\",\
         \"version\":\"{}\",\
         \"informationUri\":\"https://example.invalid/mrm-lint\",\
         \"rules\":[{}]}}}},\
         \"results\":[{}]}}]}}\n",
        env!("CARGO_PKG_VERSION"),
        rule_entries.join(","),
        results.join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RelatedSite;

    fn v(rule: RuleId, related: Vec<RelatedSite>) -> Violation {
        Violation {
            rule,
            path: "crates/sim/src/lib.rs".into(),
            line: 7,
            message: "a \"quoted\" message\nwith a newline".into(),
            related,
        }
    }

    #[test]
    fn renders_schema_version_and_rules() {
        let s = render(&[]);
        assert!(s.contains("sarif-2.1.0.json"));
        assert!(s.contains(r#""version":"2.1.0""#));
        for r in RuleId::ALL {
            assert!(
                s.contains(&format!(r#""id":"{}""#, r.as_str())),
                "{}",
                r.as_str()
            );
        }
        assert!(s.contains(r#""id":"LINT""#));
    }

    #[test]
    fn escapes_messages_and_emits_locations() {
        let s = render(&[v(RuleId::U1, Vec::new())]);
        assert!(s.contains(r#"a \"quoted\" message\nwith a newline"#));
        assert!(s.contains(r#""uri":"crates/sim/src/lib.rs""#));
        assert!(s.contains(r#""startLine":7"#));
        assert!(!s.contains("relatedLocations"), "one site, no related list");
    }

    #[test]
    fn d5_is_warning_level() {
        let s = render(&[v(RuleId::D5, Vec::new())]);
        assert!(s.contains(r#""ruleId":"D5","ruleIndex":0,"level":"warning""#));
    }
}
