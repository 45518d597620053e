//! The h2lint driver: walk the workspace, parse every Rust source, run
//! the workspace-global analysis (rank inference, fn summaries, metric
//! vocabulary, derived cloud ops), then lint each file against those
//! facts and report findings in a deterministic global order.

use std::path::{Path, PathBuf};

use crate::config::{self, Config};
use crate::dataflow::{self, Globals, ParsedFile};
use crate::rules::{self, Finding};

/// Lint every workspace `.rs` file under `root`, using the config at
/// `root/h2lint.toml` unless `config_path` overrides it.
pub fn lint_tree(root: &Path, config_path: Option<&Path>) -> Result<Vec<Finding>, String> {
    analyze_tree(root, config_path).map(|(f, _)| f)
}

/// [`lint_tree`], also handing back the global facts (for the drift tests
/// that assert on the derived cloud-op set of the real tree).
pub fn analyze_tree(
    root: &Path,
    config_path: Option<&Path>,
) -> Result<(Vec<Finding>, Globals), String> {
    let cfg_file = config_path
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join("h2lint.toml"));
    let text = std::fs::read_to_string(&cfg_file)
        .map_err(|e| format!("can't read {}: {e}", cfg_file.display()))?;
    let cfg = config::parse(&text)?;

    let mut files = Vec::new();
    walk(root, root, &cfg, &mut files)?;
    files.sort();

    let mut sources = Vec::with_capacity(files.len());
    for rel in files {
        let src = std::fs::read_to_string(root.join(&rel))
            .map_err(|e| format!("can't read {rel}: {e}"))?;
        sources.push((rel, src));
    }
    Ok(analyze_sources(&sources, &cfg))
}

/// Two-pass lint over a set of (workspace-relative path, source) pairs:
/// pass 1 parses everything and computes the global facts, pass 2 lints
/// each file against them. Findings come back sorted by
/// (file, line, rule, message) — the canonical report/baseline/SARIF
/// order.
pub fn lint_sources(sources: &[(String, String)], cfg: &Config) -> Vec<Finding> {
    analyze_sources(sources, cfg).0
}

/// [`lint_sources`], also handing back the global facts (for tests that
/// assert on the inferred rank table or the derived cloud-op set).
pub fn analyze_sources(sources: &[(String, String)], cfg: &Config) -> (Vec<Finding>, Globals) {
    let parsed: Vec<ParsedFile> = sources
        .iter()
        .map(|(path, src)| ParsedFile::new(path, src))
        .collect();
    let globals = dataflow::analyze(&parsed, cfg);
    let mut findings = Vec::new();
    for pf in &parsed {
        findings.extend(rules::lint_file(pf, cfg, &globals));
    }
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    (findings, globals)
}

/// Lint a single source text under a given workspace-relative path (its
/// own one-file workspace). The fixture tests drive this directly.
pub fn lint_source(rel_path: &str, src: &str, cfg: &Config) -> Vec<Finding> {
    lint_sources(&[(rel_path.to_string(), src.to_string())], cfg)
}

fn walk(root: &Path, dir: &Path, cfg: &Config, out: &mut Vec<String>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("can't read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') || is_own_workspace(&path) {
                continue;
            }
            let rel = rel_str(root, &path);
            if cfg
                .skip
                .iter()
                .any(|s| format!("{rel}/").contains(s.as_str()))
            {
                continue;
            }
            walk(root, &path, cfg, out)?;
        } else if name.ends_with(".rs") {
            let rel = rel_str(root, &path);
            if cfg.skip.iter().any(|s| rel.contains(s.as_str())) {
                continue;
            }
            out.push(rel);
        }
    }
    Ok(())
}

/// True when `dir/Cargo.toml` declares its own `[workspace]`: a separate
/// cargo workspace nested in the tree is not part of this one, so the lint
/// does not descend into it.
fn is_own_workspace(dir: &Path) -> bool {
    std::fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|toml| {
        toml.lines()
            .any(|l| l.split('#').next().unwrap_or("").trim() == "[workspace]")
    })
}

fn rel_str(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// The canonical one-line form of a finding: `file:line: [rule] message`.
pub fn format_line(f: &Finding) -> String {
    format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.message)
}

/// Render findings and per-rule totals. Returns the process exit code:
/// non-zero iff there is any finding.
pub fn report(findings: &[Finding]) -> i32 {
    for f in findings {
        println!("{}", format_line(f));
    }
    if findings.is_empty() {
        println!("h2lint: clean — 0 findings");
        return 0;
    }
    let mut by_rule: Vec<(&str, usize)> = Vec::new();
    for f in findings {
        match by_rule.iter_mut().find(|(r, _)| *r == f.rule) {
            Some((_, n)) => *n += 1,
            None => by_rule.push((f.rule, 1)),
        }
    }
    let breakdown: Vec<String> = by_rule.iter().map(|(r, n)| format!("{r}: {n}")).collect();
    println!(
        "h2lint: {} finding(s) ({})",
        findings.len(),
        breakdown.join(", ")
    );
    1
}
