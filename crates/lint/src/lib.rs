//! `pops-lint` — repo-native static analysis for the POPS workspace.
//!
//! Four rule groups enforce the invariants the daemon maintains by
//! hand (see `docs/ARCHITECTURE.md` § Static analysis):
//!
//! - **panic-freedom** — no `unwrap()` / `expect()` / panic macros /
//!   slice indexing on connection-handling paths
//!   ([`rules::panic_freedom`]);
//! - **hot-path** — no per-call allocation inside `// lint: hot-path`
//!   regions ([`rules::hot_path`]);
//! - **protocol-sync** — wire error kinds, ops, and metric families
//!   match their doc tables, both directions
//!   ([`rules::protocol_sync`]);
//! - **lock-discipline** — nested mutex acquisitions must be declared
//!   in `crates/lint/lock-order.toml` ([`rules::lock_discipline`]).
//!
//! Any finding is suppressible in place with
//! `// lint: allow(<rule>) -- <reason>`; the reason is mandatory.
//! Std-only, line/token scanning — no syn, no proc macros.

use std::fmt;
use std::path::{Path, PathBuf};

pub mod manifest;
pub mod source;
pub mod rules {
    //! The four rule groups.
    pub mod hot_path;
    pub mod lock_discipline;
    pub mod panic_freedom;
    pub mod protocol_sync;
}

use manifest::Manifest;
use rules::protocol_sync::ProtocolSources;
use source::SourceFile;

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule group name (or `lint-directive` for malformed directives).
    pub rule: &'static str,
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based line.
    pub line: usize,
    /// What is wrong and what to do about it.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Runs every rule over the workspace rooted at `root`. Returns the
/// findings, sorted by path and line. IO or manifest errors are
/// reported as `Err` — a lint that cannot read its inputs must fail
/// loudly, not pass silently.
pub fn run_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let manifest_path = root.join("crates/lint/lock-order.toml");
    let manifest = if manifest_path.exists() {
        Manifest::parse(&read(&manifest_path)?)?
    } else {
        Manifest::default()
    };

    let mut findings = Vec::new();
    for path in rust_files(&root.join("crates"))? {
        let rel = relative(&path, root);
        let src = SourceFile::parse(&rel, &read(&path)?);
        findings.extend(src.directive_findings.iter().cloned());
        if rules::panic_freedom::in_scope(&rel) {
            findings.extend(rules::panic_freedom::check(&src));
        }
        findings.extend(rules::hot_path::check(&src));
        findings.extend(rules::lock_discipline::check(&src, &manifest));
    }

    let parse_rel =
        |p: &str| -> Result<SourceFile, String> { Ok(SourceFile::parse(p, &read(&root.join(p))?)) };
    let sources = ProtocolSources {
        proto: parse_rel("crates/service/src/proto.rs")?,
        server: parse_rel("crates/service/src/server.rs")?,
        metrics: parse_rel("crates/service/src/metrics.rs")?,
        protocol_md: read(&root.join("docs/PROTOCOL.md"))?,
        protocol_md_path: "docs/PROTOCOL.md".to_owned(),
        operations_md: read(&root.join("docs/OPERATIONS.md"))?,
        operations_md_path: "docs/OPERATIONS.md".to_owned(),
    };
    findings.extend(rules::protocol_sync::check(&sources));

    findings.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Ok(findings)
}

/// Locates the workspace root: walks up from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut at = start.to_path_buf();
    loop {
        let manifest = at.join("Cargo.toml");
        if manifest.exists() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(at);
                }
            }
        }
        if !at.pop() {
            return None;
        }
    }
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))
}

fn relative(path: &Path, root: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// All `.rs` files under `dir`, skipping build output and the lint's
/// own fixture corpus (whose files are violations on purpose).
fn rust_files(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(at) = stack.pop() {
        let entries =
            std::fs::read_dir(&at).map_err(|e| format!("walking {}: {e}", at.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("walking {}: {e}", at.display()))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if name == "target" || name == "fixtures" || name == ".git" {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}
