//! The six workspace invariants, as per-file token scans plus two
//! workspace-level passes (kernel/reference twinning, orphaned `pub fn`s).
//!
//! | rule            | scope                              | requirement |
//! |-----------------|------------------------------------|-------------|
//! | `unsafe-safety` | every `.rs` file                   | each `unsafe` block carries a `// SAFETY:` comment; each `unsafe fn` documents `# Safety` |
//! | `kernel-twin`   | `crates/gk-filters`                | every `*_kernel_x4` has a `*_reference` twin referenced from the differential property suite |
//! | `host-clock`    | `crates/gk-gpusim/src`             | no `std::time::{Instant, SystemTime}` in simulated-time code |
//! | `unwrap`        | non-test library code              | no `.unwrap()` / `.expect()` outside the allowlist |
//! | `relaxed`       | non-test library code              | `Ordering::Relaxed` carries a justification comment |
//! | `orphan-pub`    | non-test library code              | every `pub fn` is named in the code of some other `.rs` file |
//!
//! "Non-test" excludes `#[cfg(test)]` regions (any `cfg` predicate naming
//! `test`, so `#[cfg(any(test, audit_layer))]` layers count as test code),
//! integration `tests/`, `benches/`, `examples/`, and `src/bin/` harness
//! binaries. Those files still count as *users* for `orphan-pub`: a `pub fn`
//! that only a test, bench, example or `bench/` workload names is kept.

use std::collections::{HashMap, HashSet};

use crate::lexer::{char_before, ident_positions, lex, FileView};

pub const RULES: [&str; 6] = [
    "unsafe-safety",
    "kernel-twin",
    "host-clock",
    "unwrap",
    "relaxed",
    "orphan-pub",
];

pub struct Violation {
    pub path: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// How a file participates in the rules, derived from its workspace path.
#[derive(Clone, Copy, PartialEq)]
pub enum Scope {
    /// `crates/*/src`, `shims/*/src`, or the root `src/` — full rule set.
    Library,
    /// `src/bin/`, `tests/`, `benches/`, `examples/` — `unsafe-safety` only
    /// (panicking on bad input is the job of harnesses and tests).
    HarnessOrTest,
}

pub fn scope_of(rel_path: &str) -> Scope {
    let in_src = rel_path.starts_with("src/")
        || ((rel_path.starts_with("crates/") || rel_path.starts_with("shims/"))
            && rel_path.contains("/src/"));
    if in_src && !rel_path.contains("/src/bin/") {
        Scope::Library
    } else {
        Scope::HarnessOrTest
    }
}

/// One `fn` definition found while scanning (for the twin check).
pub struct FnDef {
    pub name: String,
    pub path: String,
    pub line: usize,
}

/// Per-file analysis state shared by all rules.
pub struct SourceFile {
    pub rel_path: String,
    pub view: FileView,
    /// `test_lines[i]` — line `i+1` sits inside a `#[cfg(..test..)]` region.
    pub test_lines: Vec<bool>,
}

impl SourceFile {
    pub fn parse(rel_path: &str, text: &str) -> SourceFile {
        let view = lex(text);
        let test_lines = mark_test_regions(&view.code);
        SourceFile {
            rel_path: rel_path.to_string(),
            view,
            test_lines,
        }
    }

    fn is_test_line(&self, idx: usize) -> bool {
        self.test_lines.get(idx).copied().unwrap_or(false)
    }

    /// True when a comment containing `tag` sits on line `idx` or on the
    /// contiguous run of comment/attribute/blank lines directly above it.
    fn tagged_above(&self, idx: usize, tags: &[&str]) -> bool {
        let has_tag = |line: &str| -> bool { tags.iter().any(|tag| line.contains(tag)) };
        if has_tag(&self.view.comments[idx]) {
            return true;
        }
        let mut j = idx;
        while j > 0 {
            j -= 1;
            let code = self.view.code[j].trim();
            if !(code.is_empty() || code.starts_with("#[") || code.starts_with("#!")) {
                return false;
            }
            if has_tag(&self.view.comments[j]) {
                return true;
            }
        }
        false
    }

    /// The identifier token following byte column `col` on line `idx`
    /// (crossing line breaks), e.g. the `fn` after `unsafe`.
    fn next_word(&self, idx: usize, col: usize) -> Option<String> {
        let mut line = idx;
        let mut from = col;
        while line < self.view.code.len() {
            let text = &self.view.code[line][from.min(self.view.code[line].len())..];
            let trimmed = text.trim_start();
            if !trimmed.is_empty() {
                let word: String = trimmed
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                return Some(word);
            }
            line += 1;
            from = 0;
        }
        None
    }
}

/// Marks `#[cfg(..test..)]`-gated regions (attribute through the end of the
/// item it covers, brace-matched on the code view).
fn mark_test_regions(code: &[String]) -> Vec<bool> {
    let mut test = vec![false; code.len()];
    for start in 0..code.len() {
        let Some(attr_col) = find_test_cfg(&code[start]) else {
            continue;
        };
        // Walk from the end of the attribute to the item's closing `}` (or a
        // `;` for brace-less items), marking every line on the way.
        let mut depth = 0i32;
        let mut line = start;
        let mut col = attr_col;
        'scan: while line < code.len() {
            let bytes = code[line].as_bytes();
            while col < bytes.len() {
                match bytes[col] {
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            test[start..=line].iter_mut().for_each(|t| *t = true);
                            break 'scan;
                        }
                    }
                    b';' if depth == 0 => {
                        test[start..=line].iter_mut().for_each(|t| *t = true);
                        break 'scan;
                    }
                    _ => {}
                }
                col += 1;
            }
            line += 1;
            col = 0;
        }
    }
    test
}

/// If `line` carries a `#[cfg(...)]` attribute whose predicate names `test`,
/// returns the column just past the attribute's closing bracket.
fn find_test_cfg(line: &str) -> Option<usize> {
    let at = line.find("#[cfg(")?;
    let bytes = line.as_bytes();
    let mut depth = 0i32;
    for (i, &b) in bytes.iter().enumerate().skip(at + 1) {
        match b {
            b'[' => depth += 1,
            b']' => {
                depth -= 1;
                if depth == 0 {
                    let predicate = &line[at..=i];
                    return if ident_positions(predicate, "test").is_empty() {
                        None
                    } else {
                        Some(i + 1)
                    };
                }
            }
            _ => {}
        }
    }
    None
}

/// Rule `unsafe-safety`: every `unsafe` site carries a written contract.
pub fn check_unsafe_safety(file: &SourceFile, out: &mut Vec<Violation>) {
    for (idx, code) in file.view.code.iter().enumerate() {
        for (start, end) in ident_positions(code, "unsafe") {
            // `r#unsafe` or similar cannot occur; `unsafe` as a word in code
            // view is the keyword.
            let next = file.next_word(idx, end);
            let is_fn_decl = next.as_deref() == Some("fn");
            let _ = start;
            if is_fn_decl {
                if !file.tagged_above(idx, &["# Safety", "SAFETY:"]) {
                    out.push(Violation {
                        path: file.rel_path.clone(),
                        line: idx + 1,
                        rule: "unsafe-safety",
                        message: "`unsafe fn` without a `# Safety` doc section (or `// SAFETY:` \
                                  comment) stating the caller contract"
                            .into(),
                    });
                }
            } else if !file.tagged_above(idx, &["SAFETY:"]) {
                out.push(Violation {
                    path: file.rel_path.clone(),
                    line: idx + 1,
                    rule: "unsafe-safety",
                    message: "`unsafe` block without a `// SAFETY:` comment on or above it \
                              explaining why the contract holds"
                        .into(),
                });
            }
        }
    }
}

/// Rule `host-clock`: simulated device time must never read the host clock.
pub fn check_host_clock(file: &SourceFile, out: &mut Vec<Violation>) {
    if !file.rel_path.starts_with("crates/gk-gpusim/src/") {
        return;
    }
    for (idx, code) in file.view.code.iter().enumerate() {
        if file.is_test_line(idx) {
            continue;
        }
        for token in ["Instant", "SystemTime"] {
            if !ident_positions(code, token).is_empty() {
                out.push(Violation {
                    path: file.rel_path.clone(),
                    line: idx + 1,
                    rule: "host-clock",
                    message: format!(
                        "`{token}` in a simulated-time module: gk-gpusim models device time \
                         analytically and must stay independent of the host clock"
                    ),
                });
            }
        }
    }
}

/// Rule `unwrap`: no `.unwrap()` / `.expect()` in non-test library code.
pub fn check_unwrap(file: &SourceFile, out: &mut Vec<Violation>) {
    for (idx, code) in file.view.code.iter().enumerate() {
        if file.is_test_line(idx) {
            continue;
        }
        for method in ["unwrap", "expect"] {
            for (start, end) in ident_positions(code, method) {
                let is_method_call = char_before(code, start) == Some('.')
                    && code[end..].trim_start().starts_with('(');
                if is_method_call {
                    out.push(Violation {
                        path: file.rel_path.clone(),
                        line: idx + 1,
                        rule: "unwrap",
                        message: format!(
                            "`.{method}()` in non-test library code: handle the failure, \
                             restructure so it cannot occur, or add an allowlist entry with a \
                             written reason"
                        ),
                    });
                }
            }
        }
    }
}

/// Rule `relaxed`: `Ordering::Relaxed` outside `#[cfg(test)]` needs a written
/// justification (a comment mentioning `Relaxed` on or above the line).
pub fn check_relaxed(file: &SourceFile, out: &mut Vec<Violation>) {
    for (idx, code) in file.view.code.iter().enumerate() {
        if file.is_test_line(idx) {
            continue;
        }
        for (start, _) in ident_positions(code, "Relaxed") {
            if !code[..start].trim_end().ends_with("::") {
                continue;
            }
            if !file.tagged_above(idx, &["Relaxed"]) {
                out.push(Violation {
                    path: file.rel_path.clone(),
                    line: idx + 1,
                    rule: "relaxed",
                    message: "`Ordering::Relaxed` without a justification comment: state why \
                              relaxed ordering is sound here (`// Relaxed: ...`)"
                        .into(),
                });
            }
        }
    }
}

/// Collects non-test `fn` definitions for the twin check.
pub fn collect_fns(file: &SourceFile, out: &mut Vec<FnDef>) {
    for (idx, code) in file.view.code.iter().enumerate() {
        if file.is_test_line(idx) {
            continue;
        }
        for (_, end) in ident_positions(code, "fn") {
            if let Some(name) = file.next_word(idx, end) {
                if !name.is_empty() {
                    out.push(FnDef {
                        name,
                        path: file.rel_path.clone(),
                        line: idx + 1,
                    });
                }
            }
        }
    }
}

/// Collects non-test `pub fn` definitions (also `pub const fn`,
/// `pub async fn`, `pub unsafe fn`) for the orphan check. `pub(crate)` and
/// other restricted visibilities are not public API and are skipped.
pub fn collect_pub_fns(file: &SourceFile, out: &mut Vec<FnDef>) {
    for (idx, code) in file.view.code.iter().enumerate() {
        if file.is_test_line(idx) {
            continue;
        }
        for (_, end) in ident_positions(code, "pub") {
            let mut rest = &code[end..];
            for qualifier in ["const", "async", "unsafe"] {
                if let Some(after) = strip_word(rest, qualifier) {
                    rest = after;
                }
            }
            let Some(after_fn) = strip_word(rest, "fn") else {
                continue;
            };
            let name: String = after_fn
                .trim_start()
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                out.push(FnDef {
                    name,
                    path: file.rel_path.clone(),
                    line: idx + 1,
                });
            }
        }
    }
}

/// `text` past a leading whole-word `word` (after optional whitespace).
fn strip_word<'a>(text: &'a str, word: &str) -> Option<&'a str> {
    let after = text.trim_start().strip_prefix(word)?;
    after.starts_with(char::is_whitespace).then_some(after)
}

/// Adds each identifier in `file`'s code view to `files_naming`, counting
/// every file once per name. Comments and string contents are blanked in the
/// code view, so a mention there is not a use.
pub fn count_idents(file: &SourceFile, files_naming: &mut HashMap<String, usize>) {
    let mut seen = HashSet::new();
    for code in &file.view.code {
        for token in code.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
            if token.starts_with(|c: char| c.is_alphabetic() || c == '_') && seen.insert(token) {
                *files_naming.entry(token.to_string()).or_default() += 1;
            }
        }
    }
}

/// Rule `orphan-pub`, workspace level: a library `pub fn` whose name appears
/// in the code of no `.rs` file besides its own has no caller outside its
/// file, so it should be deleted or lose `pub`. Matching is by name, so a
/// name shared with any other item in another file counts as a use.
pub fn check_orphan_pub(
    pub_fns: &[FnDef],
    files_naming: &HashMap<String, usize>,
    out: &mut Vec<Violation>,
) {
    for def in pub_fns {
        if files_naming.get(&def.name).copied().unwrap_or(0) <= 1 {
            out.push(Violation {
                path: def.path.clone(),
                line: def.line,
                rule: "orphan-pub",
                message: format!(
                    "`pub fn {}` is named by no other file: delete it, make it private or \
                     `pub(crate)`, or add an allowlist entry with a written reason",
                    def.name
                ),
            });
        }
    }
}

/// Rule `kernel-twin`, workspace level: every `*_kernel_x4` lane kernel in
/// gk-filters has a scalar `*_reference` twin, and that twin is exercised by
/// the differential property suite.
pub fn check_kernel_twins(
    filter_fns: &[FnDef],
    property_suite: Option<&str>,
    out: &mut Vec<Violation>,
) {
    for def in filter_fns {
        let Some(stem) = def.name.strip_suffix("kernel_x4") else {
            continue;
        };
        let twins: Vec<&FnDef> = filter_fns
            .iter()
            .filter(|f| f.name.starts_with(stem) && f.name.ends_with("_reference"))
            .collect();
        if twins.is_empty() {
            out.push(Violation {
                path: def.path.clone(),
                line: def.line,
                rule: "kernel-twin",
                message: format!(
                    "lane kernel `{}` has no per-bit reference twin: define a `{}*_reference` \
                     scalar function computing the same decision",
                    def.name, stem
                ),
            });
            continue;
        }
        let Some(suite) = property_suite else {
            out.push(Violation {
                path: def.path.clone(),
                line: def.line,
                rule: "kernel-twin",
                message: "differential property suite (crates/gk-filters/tests/properties.rs) \
                          is missing"
                    .into(),
            });
            continue;
        };
        if !twins
            .iter()
            .any(|twin| !ident_positions(suite, &twin.name).is_empty())
        {
            out.push(Violation {
                path: def.path.clone(),
                line: def.line,
                rule: "kernel-twin",
                message: format!(
                    "reference twin of `{}` exists ({}) but the differential property suite \
                     never references it",
                    def.name,
                    twins
                        .iter()
                        .map(|t| t.name.as_str())
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, text: &str) -> SourceFile {
        SourceFile::parse(path, text)
    }

    #[test]
    fn cfg_test_regions_cover_the_whole_item() {
        let f = file(
            "crates/x/src/lib.rs",
            "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\nfn c() {}\n",
        );
        assert_eq!(f.test_lines, vec![false, true, true, true, true, false]);
    }

    #[test]
    fn cfg_any_with_test_counts_as_test_layer() {
        let f = file(
            "crates/x/src/lib.rs",
            "#[cfg(any(test, audit_layer))]\nfn x() { y.unwrap(); }\nfn z() {}\n",
        );
        let mut v = Vec::new();
        check_unwrap(&f, &mut v);
        assert!(v.is_empty());
        // `attest` must not match the `test` token.
        assert!(find_test_cfg("#[cfg(attest)]").is_none());
        assert!(find_test_cfg("#[cfg(not(feature = \"x\"))]").is_none());
    }

    #[test]
    fn unsafe_requires_safety_tag() {
        let mut v = Vec::new();
        check_unsafe_safety(&file("a.rs", "fn f() {\n    unsafe { g() }\n}\n"), &mut v);
        assert_eq!(v.len(), 1);
        v.clear();
        check_unsafe_safety(
            &file(
                "a.rs",
                "fn f() {\n    // SAFETY: g has no preconditions here.\n    unsafe { g() }\n}\n",
            ),
            &mut v,
        );
        assert!(v.is_empty());
        // `# Safety` doc section satisfies the fn form.
        check_unsafe_safety(
            &file(
                "a.rs",
                "/// Does things.\n///\n/// # Safety\n///\n/// Caller must hold X.\nunsafe fn f() {}\n",
            ),
            &mut v,
        );
        assert!(v.is_empty());
    }

    #[test]
    fn unwrap_flags_method_calls_only() {
        let mut v = Vec::new();
        let f = file(
            "crates/x/src/lib.rs",
            "fn f() {\n    a.unwrap();\n    b.unwrap_or_else(c);\n    d.expect(\"x\");\n}\n",
        );
        check_unwrap(&f, &mut v);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn relaxed_needs_justification() {
        let mut v = Vec::new();
        let good = file(
            "crates/x/src/lib.rs",
            "fn f() {\n    // Relaxed: counter is read only after the latch synchronizes.\n    \
             c.fetch_add(1, Ordering::Relaxed);\n}\n",
        );
        check_relaxed(&good, &mut v);
        assert!(v.is_empty());
        let bad = file(
            "crates/x/src/lib.rs",
            "fn f() {\n    c.fetch_add(1, Ordering::Relaxed);\n}\n",
        );
        check_relaxed(&bad, &mut v);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn kernel_twin_demands_reference_and_suite_use() {
        let defs = vec![
            FnDef {
                name: "demo_kernel_x4".into(),
                path: "crates/gk-filters/src/demo.rs".into(),
                line: 1,
            },
            FnDef {
                name: "demo_pair_decision_reference".into(),
                path: "crates/gk-filters/src/demo.rs".into(),
                line: 9,
            },
        ];
        let mut v = Vec::new();
        check_kernel_twins(
            &defs,
            Some("uses demo_pair_decision_reference here"),
            &mut v,
        );
        assert!(v.is_empty());
        check_kernel_twins(&defs, Some("suite without the twin"), &mut v);
        assert_eq!(v.len(), 1);
        check_kernel_twins(&defs[..1], Some(""), &mut v);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn orphan_pub_needs_a_caller_in_another_file() {
        let lib = file(
            "crates/x/src/lib.rs",
            "pub fn used() {}\npub const fn orphan() {}\npub(crate) fn inner() {}\n\
             fn private() {}\n#[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n",
        );
        let mut defs = Vec::new();
        collect_pub_fns(&lib, &mut defs);
        let names: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["used", "orphan"]);

        // The caller names `used` in code; `orphan` only in a comment and a
        // string, which do not count.
        let caller = file(
            "tests/t.rs",
            "// orphan\nfn t() { x::used(); let s = \"orphan\"; }\n",
        );
        let mut files_naming = HashMap::new();
        count_idents(&lib, &mut files_naming);
        count_idents(&caller, &mut files_naming);
        let mut v = Vec::new();
        check_orphan_pub(&defs, &files_naming, &mut v);
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("`pub fn orphan`"));
        assert_eq!(v[0].line, 2);
    }
}
