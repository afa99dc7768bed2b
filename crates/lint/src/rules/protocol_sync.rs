//! Rule `protocol-sync`: the wire contract in code and the contract in
//! the docs are the same set, in both directions.
//!
//! Three cross-checks:
//!
//! 1. every `WireErrorKind` wire name in `proto.rs` has a row in
//!    PROTOCOL.md's error-kind table, and every row names a real kind;
//! 2. every `"op"` the dispatcher accepts (`parse_request` arms in
//!    `proto.rs` plus the ops `server.rs` short-circuits before
//!    dispatch) has a `` ### `op` `` heading in PROTOCOL.md, and every
//!    heading names a real op;
//! 3. every `pops_*` metric family declared in the metric table of
//!    `metrics.rs` appears by full name in OPERATIONS.md's
//!    metric-families table, and every `pops_*` name in that table is a
//!    declared family; for each family in both, the table's `labels`
//!    column names exactly the labels its rows declare.
//!
//! Extraction failing outright (zero kinds / ops / families found) is
//! itself a finding: a refactor that blinds the lint must fail CI, not
//! silently stop guarding.

use std::collections::{BTreeMap, BTreeSet};

use crate::source::SourceFile;
use crate::Finding;

const RULE: &str = "protocol-sync";

/// Everything the rule reads. Fixtures construct this from miniature
/// files; the runner from the real tree.
pub struct ProtocolSources {
    /// Parsed `crates/service/src/proto.rs`.
    pub proto: SourceFile,
    /// Parsed `crates/service/src/server.rs`.
    pub server: SourceFile,
    /// Parsed `crates/service/src/metrics.rs` (the metric table).
    pub metrics: SourceFile,
    /// `docs/PROTOCOL.md` content.
    pub protocol_md: String,
    /// Path to report PROTOCOL.md findings against.
    pub protocol_md_path: String,
    /// `docs/OPERATIONS.md` content.
    pub operations_md: String,
    /// Path to report OPERATIONS.md findings against.
    pub operations_md_path: String,
}

/// Runs all three cross-checks.
pub fn check(sources: &ProtocolSources) -> Vec<Finding> {
    let mut findings = Vec::new();

    let code_kinds = error_kinds(&sources.proto);
    let doc_kinds = documented_kinds(&sources.protocol_md);
    cross(
        &mut findings,
        &code_kinds,
        &doc_kinds,
        "wire error kind",
        (&sources.proto.path, "proto.rs::WireErrorKind"),
        (
            &sources.protocol_md_path,
            "the `| kind | meaning |` table in PROTOCOL.md",
        ),
    );

    let mut code_ops = dispatch_ops(&sources.proto);
    code_ops.extend(short_circuit_ops(&sources.server));
    let doc_ops = documented_ops(&sources.protocol_md);
    cross(
        &mut findings,
        &code_ops,
        &doc_ops,
        "wire op",
        (&sources.proto.path, "the op dispatch in proto.rs/server.rs"),
        (
            &sources.protocol_md_path,
            "a `### `op`` heading in PROTOCOL.md",
        ),
    );

    let code_families = declared_families(&sources.metrics);
    let doc_families = documented_families(&sources.operations_md);
    let names = |families: &BTreeMap<String, BTreeSet<String>>| families.keys().cloned().collect();
    cross(
        &mut findings,
        &names(&code_families),
        &names(&doc_families),
        "metric family",
        (&sources.metrics.path, "the metric table in metrics.rs"),
        (
            &sources.operations_md_path,
            "the metric-families table in OPERATIONS.md",
        ),
    );
    for (family, declared) in &code_families {
        let Some(documented) = doc_families.get(family) else {
            continue;
        };
        if declared != documented {
            findings.push(Finding {
                rule: RULE,
                path: sources.operations_md_path.clone(),
                line: 1,
                message: format!(
                    "metric family `{family}` declares labels {declared:?} in metrics.rs but \
                     the OPERATIONS.md labels column lists {documented:?}"
                ),
            });
        }
    }

    findings
}

fn cross(
    findings: &mut Vec<Finding>,
    code: &BTreeSet<String>,
    docs: &BTreeSet<String>,
    what: &str,
    (code_path, code_desc): (&str, &str),
    (doc_path, doc_desc): (&str, &str),
) {
    if code.is_empty() {
        findings.push(Finding {
            rule: RULE,
            path: code_path.to_owned(),
            line: 1,
            message: format!(
                "extracted zero {what}s from {code_desc} — the lint's extraction no longer \
                 matches the code shape; fix the extractor, do not ignore this"
            ),
        });
        return;
    }
    if docs.is_empty() {
        findings.push(Finding {
            rule: RULE,
            path: doc_path.to_owned(),
            line: 1,
            message: format!(
                "found zero {what}s in {doc_desc} — table/heading markup changed or the \
                 section was removed"
            ),
        });
        return;
    }
    for missing in code.difference(docs) {
        findings.push(Finding {
            rule: RULE,
            path: doc_path.to_owned(),
            line: 1,
            message: format!("{what} `{missing}` exists in code but is missing from {doc_desc}"),
        });
    }
    for dead in docs.difference(code) {
        findings.push(Finding {
            rule: RULE,
            path: doc_path.to_owned(),
            line: 1,
            message: format!(
                "{what} `{dead}` is documented in {doc_desc} but does not exist in code \
                 (documented-but-dead)"
            ),
        });
    }
}

/// Wire names from `WireErrorKind` match arms: non-test lines holding
/// both `WireErrorKind::` and `=>` with a quoted token (`name()` and
/// `from_name()` agree, so either arm set yields the full set).
fn error_kinds(proto: &SourceFile) -> BTreeSet<String> {
    let mut kinds = BTreeSet::new();
    for (i, code) in proto.code.iter().enumerate() {
        if proto.test[i] || !code.contains("WireErrorKind::") || !code.contains("=>") {
            continue;
        }
        if let Some(token) = first_quoted(&proto.raw[i]) {
            kinds.insert(token);
        }
    }
    kinds
}

/// Ops from the direct arms of `match op` inside `parse_request`:
/// quoted-literal arms exactly one brace level below the match.
fn dispatch_ops(proto: &SourceFile) -> BTreeSet<String> {
    let mut ops = BTreeSet::new();
    let Some(fn_line) = proto
        .code
        .iter()
        .position(|l| l.contains("fn parse_request"))
    else {
        return ops;
    };
    let Some(match_line) =
        (fn_line..proto.code.len()).find(|&i| proto.code[i].contains("match op"))
    else {
        return ops;
    };
    let arm_depth = proto.depth[match_line] + 1;
    for i in match_line + 1..proto.code.len() {
        let trimmed = proto.code[i].trim_start();
        if proto.depth[i] == arm_depth && trimmed.starts_with('}') {
            break; // the match's own closing brace
        }
        if proto.depth[i] == arm_depth && trimmed.starts_with('"') && proto.code[i].contains("=>") {
            if let Some(op) = first_quoted(&proto.raw[i]) {
                ops.insert(op);
            }
        }
    }
    ops
}

/// Ops `server.rs` handles before generic dispatch: non-test lines
/// comparing `doc.get("op")` against a literal.
fn short_circuit_ops(server: &SourceFile) -> BTreeSet<String> {
    let mut ops = BTreeSet::new();
    for (i, raw) in server.raw.iter().enumerate() {
        if server.test[i] || !raw.contains(".get(\"op\")") || !server.code[i].contains(".get(") {
            continue;
        }
        for token in quoted_tokens(raw) {
            if token != "op" {
                ops.insert(token);
            }
        }
    }
    ops
}

/// Every `"pops_*"` string literal in non-test metrics.rs code, with the
/// label names its table row declares after it: a source label in
/// `(label)` and fixed labels in `{label: "value", ...}`. A family spread
/// over several rows gets the union. The stripped view keeps quote
/// delimiters, so a literal is recognized by a `"` at the same char
/// position in both views (comments blank out).
fn declared_families(metrics: &SourceFile) -> BTreeMap<String, BTreeSet<String>> {
    let mut families: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (i, raw) in metrics.raw.iter().enumerate() {
        if metrics.test[i] {
            continue;
        }
        let code_chars: Vec<char> = metrics.code[i].chars().collect();
        let mut char_at = 0;
        let mut byte_at = 0;
        while let Some(found) = raw[byte_at..].find("\"pops_") {
            let char_pos = char_at + raw[byte_at..byte_at + found].chars().count();
            let start = byte_at + found + 1;
            let token: String = raw[start..]
                .chars()
                .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '_')
                .collect();
            if code_chars.get(char_pos) == Some(&'"') && token.len() > "pops_".len() {
                let rest = raw[start + token.len()..].trim_start_matches('"');
                families
                    .entry(token)
                    .or_default()
                    .extend(declared_labels(rest));
            }
            char_at = char_pos + 1;
            byte_at += found + 1;
        }
    }
    families
}

/// Label names in a row's `(label)` and `{label: "value", ...}` groups
/// right after its family literal.
fn declared_labels(rest: &str) -> BTreeSet<String> {
    let mut labels = BTreeSet::new();
    let mut rest = rest.trim_start();
    if let Some((label, after)) = rest.strip_prefix('(').and_then(|r| r.split_once(')')) {
        labels.insert(label.trim().to_owned());
        rest = after.trim_start();
    }
    if let Some((pairs, _)) = rest.strip_prefix('{').and_then(|r| r.split_once('}')) {
        for pair in pairs.split(',') {
            if let Some((label, _)) = pair.split_once(':') {
                labels.insert(label.trim().to_owned());
            }
        }
    }
    labels
}

/// First-cell backticked tokens of the PROTOCOL.md table whose header
/// row starts `| `kind` |`.
fn documented_kinds(protocol_md: &str) -> BTreeSet<String> {
    let mut kinds = BTreeSet::new();
    let lines: Vec<&str> = protocol_md.lines().collect();
    let Some(header) = lines
        .iter()
        .position(|l| l.trim_start().starts_with("| `kind` |"))
    else {
        return kinds;
    };
    for line in &lines[header + 1..] {
        let trimmed = line.trim_start();
        if !trimmed.starts_with('|') {
            break;
        }
        let first_cell = trimmed.trim_start_matches('|');
        let Some(cell) = first_cell.split('|').next() else {
            continue;
        };
        if let Some(token) = backticked(cell) {
            kinds.insert(token);
        }
    }
    kinds
}

/// Ops documented as `` ### `name` `` headings in PROTOCOL.md.
fn documented_ops(protocol_md: &str) -> BTreeSet<String> {
    protocol_md
        .lines()
        .filter_map(|l| l.strip_prefix("### `"))
        .filter_map(|rest| rest.split('`').next())
        .map(str::to_owned)
        .collect()
}

/// Every backticked `pops_*` token in table rows of OPERATIONS.md's
/// "Metric families" section (up to the next heading), with the label
/// names of the row's `labels` column: backticked tokens outside
/// parentheses, cut at `=` (`` `topology="DxG"` `` names `topology`).
fn documented_families(operations_md: &str) -> BTreeMap<String, BTreeSet<String>> {
    let mut families = BTreeMap::new();
    let mut in_section = false;
    let mut labels_column = None;
    for line in operations_md.lines() {
        if line.starts_with("##") {
            in_section = line.contains("Metric families");
            labels_column = None;
            continue;
        }
        if !in_section || !line.trim_start().starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = line
            .trim()
            .trim_matches('|')
            .split('|')
            .map(str::trim)
            .collect();
        if labels_column.is_none() {
            labels_column = cells.iter().position(|c| *c == "labels");
        }
        let labels = labels_column
            .and_then(|at| cells.get(at))
            .map_or_else(BTreeSet::new, |cell| documented_labels(cell));
        for piece in line.split('`').skip(1).step_by(2) {
            if piece.starts_with("pops_")
                && piece
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
            {
                families.insert(piece.to_owned(), labels.clone());
            }
        }
    }
    families
}

/// Label names in one OPERATIONS.md labels cell.
fn documented_labels(cell: &str) -> BTreeSet<String> {
    let mut outside = String::new();
    let mut depth = 0usize;
    for c in cell.chars() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            _ if depth == 0 => outside.push(c),
            _ => {}
        }
    }
    outside
        .split('`')
        .skip(1)
        .step_by(2)
        .filter_map(|token| token.split('=').next())
        .map(|label| label.trim().to_owned())
        .filter(|label| !label.is_empty())
        .collect()
}

/// The token between the first pair of backticks in `cell`, if any.
fn backticked(cell: &str) -> Option<String> {
    let open = cell.find('`')?;
    let rest = &cell[open + 1..];
    let close = rest.find('`')?;
    let token = rest[..close].trim();
    (!token.is_empty()).then(|| token.to_owned())
}

/// The first `"..."`-quoted token on a raw line.
fn first_quoted(raw: &str) -> Option<String> {
    let open = raw.find('"')?;
    let rest = &raw[open + 1..];
    let close = rest.find('"')?;
    Some(rest[..close].to_owned())
}

/// All `"..."`-quoted tokens on a raw line.
fn quoted_tokens(raw: &str) -> Vec<String> {
    raw.split('"')
        .skip(1)
        .step_by(2)
        .map(str::to_owned)
        .collect()
}
