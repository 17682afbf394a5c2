//! `mrm-lint` CLI.
//!
//! ```text
//! cargo run -p mrm-lint                    # report, always exit 0
//! cargo run -p mrm-lint -- --deny          # CI gate: nonzero on violations
//! cargo run -p mrm-lint -- --format sarif  # SARIF 2.1.0 log on stdout
//! cargo run -p mrm-lint -- --explain D8
//! cargo run -p mrm-lint -- --rules
//! ```

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;

use mrm_lint::rules::{RuleId, Severity};
use mrm_lint::{analyze_workspace, sarif, walk};

const USAGE: &str = "\
mrm-lint: workspace determinism & unit-safety auditor

USAGE: mrm-lint [OPTIONS]

OPTIONS:
  --deny               Exit nonzero when violations remain
  --root <DIR>         Workspace root (default: nearest ancestor with [workspace])
  --format <FMT>       Output format: text (default) or sarif (SARIF 2.1.0)
  --explain <RULE>     Print the extended explanation for one rule and exit
  --rules              Print the rule catalogue and exit
  -h, --help           Show this help

Suppression: `// mrm-lint: allow(RULE, ...) reason` on the offending line or
the line above. A reason is mandatory.

Wall clock, unordered maps, ambient entropy and the per-crate SimRng,
event-queue and decision-API bans are clippy's (see the clippy.toml files).";

enum Format {
    Text,
    Sarif,
}

struct Args {
    deny: bool,
    root: Option<PathBuf>,
    rules: bool,
    format: Format,
    explain: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        deny: false,
        root: None,
        rules: false,
        format: Format::Text,
        explain: None,
    };
    let mut it = env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deny" => args.deny = true,
            "--rules" => args.rules = true,
            "--root" => {
                args.root = Some(PathBuf::from(
                    it.next().ok_or("--root needs a directory argument")?,
                ))
            }
            "--format" => {
                args.format = match it.next().as_deref() {
                    Some("text") => Format::Text,
                    Some("sarif") => Format::Sarif,
                    Some(other) => return Err(format!("unknown format `{other}` (text or sarif)")),
                    None => return Err("--format needs an argument (text or sarif)".to_string()),
                }
            }
            "--explain" => {
                args.explain = Some(it.next().ok_or("--explain needs a rule name (e.g. D8)")?)
            }
            "-h" | "--help" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mrm-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if args.rules {
        for r in RuleId::ALL {
            let sev = match r.severity() {
                Severity::Error => "error",
                Severity::Warn => "warn ",
            };
            println!("{:4} [{sev}] {}", r.as_str(), r.describe());
        }
        return ExitCode::SUCCESS;
    }

    if let Some(name) = &args.explain {
        let rule = if name == "LINT" {
            Some(RuleId::Meta)
        } else {
            RuleId::parse(name)
        };
        return match rule {
            Some(r) => {
                println!("{}", r.explain());
                ExitCode::SUCCESS
            }
            None => {
                eprintln!("mrm-lint: unknown rule `{name}` (see --rules)");
                ExitCode::from(2)
            }
        };
    }

    let root = match args.root.or_else(|| {
        env::current_dir()
            .ok()
            .and_then(|d| walk::find_workspace_root(&d))
    }) {
        Some(r) => r,
        None => {
            eprintln!("mrm-lint: no workspace root found (pass --root)");
            return ExitCode::from(2);
        }
    };

    // A root without a readable workspace manifest or an `mrm-tiering`
    // member fails here: linting it would report an empty sim path clean.
    let mut violations = match analyze_workspace(&root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("mrm-lint: cannot lint {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    violations.sort_by(|a, b| {
        (a.rule.severity(), &a.path, a.line, a.rule).cmp(&(
            b.rule.severity(),
            &b.path,
            b.line,
            b.rule,
        ))
    });

    match args.format {
        Format::Text => {
            for v in &violations {
                println!("{}", v.render());
            }
            let errors = violations
                .iter()
                .filter(|v| v.rule.severity() == Severity::Error)
                .count();
            let warns = violations.len() - errors;
            println!("mrm-lint: {errors} error(s), {warns} warning(s)");
        }
        Format::Sarif => {
            print!("{}", sarif::render(&violations));
        }
    }

    if args.deny && !violations.is_empty() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
