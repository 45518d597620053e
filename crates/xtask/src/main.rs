use std::path::{Path, PathBuf};
use std::process::ExitCode;

use xtask::{lint, sarif};

fn usage() -> ExitCode {
    eprintln!(
        "usage: cargo run -p xtask -- lint [--config <h2lint.toml>] [--sarif <out.sarif>]\n\
         \x20                                [--max-seconds N] [<workspace-root>]"
    );
    ExitCode::from(2)
}

fn run_lint(args: &[String]) -> ExitCode {
    let mut config_path: Option<PathBuf> = None;
    let mut sarif_path: Option<PathBuf> = None;
    let mut max_seconds: Option<u64> = None;
    let mut root: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--config" => match it.next() {
                Some(p) => config_path = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--sarif" => match it.next() {
                Some(p) => sarif_path = Some(PathBuf::from(p)),
                None => return usage(),
            },
            "--max-seconds" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) => max_seconds = Some(n),
                None => return usage(),
            },
            p if root.is_none() => root = Some(PathBuf::from(p)),
            _ => return usage(),
        }
    }
    // Default to the workspace root: xtask lives at <root>/crates/xtask.
    let root = root.unwrap_or_else(|| {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("xtask sits two levels below the workspace root")
            .to_path_buf()
    });
    // h2lint: allow(determinism): the lint wall-time budget measures the tool itself, not simulated code.
    let started = std::time::Instant::now();

    let findings = match lint::lint_tree(&root, config_path.as_deref()) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("h2lint: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(out) = &sarif_path {
        let doc = sarif::render(&findings);
        if let Err(e) = std::fs::write(out, doc) {
            eprintln!("h2lint: cannot write {}: {e}", out.display());
            return ExitCode::from(2);
        }
    }
    // Publish the per-rule findings table to the CI job summary when
    // available.
    if let Ok(summary) = std::env::var("GITHUB_STEP_SUMMARY") {
        if !summary.is_empty() {
            let table = markdown_summary(&findings);
            if let Err(e) = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&summary)
                .and_then(|mut f| std::io::Write::write_all(&mut f, table.as_bytes()))
            {
                eprintln!("h2lint: cannot write job summary {summary}: {e}");
            }
        }
    }

    let code = lint::report(&findings);

    if let Some(budget) = max_seconds {
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed > budget as f64 {
            eprintln!(
                "h2lint: wall time {elapsed:.1}s exceeded the {budget}s budget — \
                 the lint must stay fast enough to run on every push"
            );
            return ExitCode::from(2);
        }
        println!("h2lint: wall time {elapsed:.1}s (budget {budget}s)");
    }
    ExitCode::from(code as u8)
}

/// A markdown table for `$GITHUB_STEP_SUMMARY`: findings per rule.
fn markdown_summary(findings: &[xtask::rules::Finding]) -> String {
    let mut out = String::from("### h2lint findings\n\n| rule | findings |\n|---|---:|\n");
    for (rule, _) in sarif::RULE_CATALOGUE {
        let n = findings.iter().filter(|f| f.rule == rule).count();
        let marker = if n > 0 { " ❌" } else { "" };
        out.push_str(&format!("| `{rule}` | {n}{marker} |\n"));
    }
    out.push_str(&format!("\n**{} finding(s)**\n", findings.len()));
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        _ => usage(),
    }
}
