//! The explicit allowlist: `gk-analyze.allow` at the workspace root.
//!
//! One entry per line: `<rule> <path> <reason...>`. The rule is one of the
//! check ids (`unwrap`, `relaxed`, `host-clock`, `unsafe-safety`,
//! `kernel-twin`, `orphan-pub`), the path is workspace-relative with forward
//! slashes, and the reason is mandatory free text — an entry without a
//! written justification is itself a violation. Entries that match nothing are
//! reported as stale, so the list can only shrink as code is fixed.

use std::cell::Cell;
use std::path::Path;

use crate::checks::Violation;

pub struct Entry {
    pub rule: String,
    pub path: String,
    pub reason: String,
    pub line: usize,
    used: Cell<bool>,
}

#[derive(Default)]
pub struct Allowlist {
    entries: Vec<Entry>,
}

impl Allowlist {
    /// Parses `gk-analyze.allow` under `root`; a missing file is an empty
    /// list. Malformed lines become violations against the allowlist itself.
    pub fn load(root: &Path, violations: &mut Vec<Violation>) -> Allowlist {
        let file = root.join("gk-analyze.allow");
        let text = match std::fs::read_to_string(&file) {
            Ok(text) => text,
            Err(_) => return Allowlist::default(),
        };
        let mut entries = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, char::is_whitespace);
            let rule = parts.next().unwrap_or_default().to_string();
            let path = parts.next().unwrap_or_default().to_string();
            let reason = parts.next().unwrap_or_default().trim().to_string();
            if !crate::checks::RULES.contains(&rule.as_str()) {
                violations.push(Violation {
                    path: "gk-analyze.allow".into(),
                    line: idx + 1,
                    rule: "allowlist",
                    message: format!(
                        "unknown rule `{rule}` (expected one of: {})",
                        crate::checks::RULES.join(", ")
                    ),
                });
                continue;
            }
            if path.is_empty() || reason.is_empty() {
                violations.push(Violation {
                    path: "gk-analyze.allow".into(),
                    line: idx + 1,
                    rule: "allowlist",
                    message: "entry needs `<rule> <path> <reason>` — the reason is mandatory"
                        .into(),
                });
                continue;
            }
            entries.push(Entry {
                rule,
                path,
                reason,
                line: idx + 1,
                used: Cell::new(false),
            });
        }
        Allowlist { entries }
    }

    /// True when `rule` violations in `path` are allowlisted; marks the entry
    /// as used so stale entries can be reported afterwards.
    pub fn permits(&self, rule: &str, path: &str) -> bool {
        let mut hit = false;
        for entry in &self.entries {
            if entry.rule == rule && entry.path == path {
                entry.used.set(true);
                hit = true;
            }
        }
        hit
    }

    /// Reports entries that never matched a violation: the suppressed problem
    /// has been fixed, so the entry must be deleted.
    pub fn report_stale(&self, violations: &mut Vec<Violation>) {
        for entry in &self.entries {
            if !entry.used.get() {
                violations.push(Violation {
                    path: "gk-analyze.allow".into(),
                    line: entry.line,
                    rule: "allowlist",
                    message: format!(
                        "stale entry: no `{}` violation in `{}` — delete it (reason was: {})",
                        entry.rule, entry.path, entry.reason
                    ),
                });
            }
        }
    }
}
