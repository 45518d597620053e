//! `h2perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!        [--chrome-trace <file>] [--out <file>]`
//! runs one workload and ends its output with one JSON result line;
//! `h2perf compare <a> <b>` compares two results saved with `--out`.
//! (`h2perf sub-run …` is the child process an untraced run starts.)

use std::process::{Command, ExitCode, Stdio};

use h2perf::probe::Stamp;
use h2perf::report::{self, Metric};
use h2perf::runner::{self, Config};
use h2perf::workload::Workload;
use h2util::rng::derive_seed;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    chrome_trace: Option<String>,
    out: Option<String>,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut chrome_trace, mut out) = (None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    format!("unknown workload {value:?}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("seconds must be in (0, 120], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            "--chrome-trace" => chrome_trace = Some(value),
            "--out" => out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        chrome_trace,
        out,
    })
}

/// Independent processes an untraced run is split into, each measuring
/// `--seconds / SUB_RUNS` on a seed derived from `--seed`. Speed varies
/// from one process to the next on a shared VM (a fixed CPU loop took
/// 0.40–0.47 s across processes), so one process per result would carry
/// that noise whole; the result is the median over sub-runs.
const SUB_RUNS: usize = 4;

/// What a run reports: its metrics, whether its outputs were correct, and
/// how many measured ops it issued and how many of those failed.
struct Measured {
    metrics: Vec<Metric>,
    correct: bool,
    attempted: u64,
    failed: u64,
}

fn print(metrics: &[Metric]) {
    for x in metrics {
        println!("  {:<40} {:>16.6} {}", x.name, x.value, x.unit);
    }
}

fn summarize(o: &runner::Outcome) {
    println!(
        "run: {} ops in {:.3} s, {} failed, latency samples {}, {} set-ups, drain {:?}",
        o.attempted,
        o.window.as_secs_f64(),
        o.failed,
        o.lat.count(),
        o.setup.len(),
        o.drain
    );
    if let Err(e) = &o.gate {
        eprintln!("correctness gate failed: {e}");
    }
}

/// [`SUB_RUNS`] untraced runs, each in a child process of its own.
fn split(args: &Args) -> Result<Measured, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let seconds = (args.seconds / SUB_RUNS as f64).to_string();
    let mut runs = Vec::new();
    for k in 0..SUB_RUNS {
        let seed = derive_seed(args.seed, &format!("sub-run {k}")).to_string();
        let out = Command::new(&exe)
            .args(["sub-run", args.workload.name(), &seed, &seconds])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("starting sub-run {k}: {e}"))?;
        if !out.status.success() {
            return Err(format!("sub-run {k} (seed {seed}) failed: {}", out.status));
        }
        let run = report::parse_sub_run(&String::from_utf8_lossy(&out.stdout))?;
        let head: Vec<String> = run
            .metrics
            .iter()
            .take(3)
            .map(|x| format!("{}={:.3}", x.name, x.value))
            .collect();
        println!(
            "sub-run {k} seed {seed}: {} ops, {} failed, {}",
            run.attempted,
            run.failed,
            head.join(" ")
        );
        runs.push(run);
    }
    Ok(Measured {
        metrics: report::combine(&runs)?,
        correct: runs.iter().all(|r| r.correct),
        attempted: runs.iter().map(|r| r.attempted).sum(),
        failed: runs.iter().map(|r| r.failed).sum(),
    })
}

/// The untraced and the traced run of the same inputs, `--seconds / 2`
/// each; the untraced one is the base of the tracing overhead.
fn traced(args: &Args, cfg: Config) -> Result<Measured, String> {
    let half = args.seconds / 2.0;
    let base = runner::run(&Config {
        seconds: half,
        ..cfg.clone()
    });
    let traced = runner::run(&Config {
        seconds: half,
        traced: true,
        keep_spans: args.chrome_trace.is_some(),
        ..cfg
    });
    summarize(&base);
    summarize(&traced);
    if let Some(path) = &args.chrome_trace {
        std::fs::write(path, h2util::trace::chrome_trace_json(&traced.traces))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(Measured {
        metrics: report::per_layer(&base, &traced),
        correct: base.correct() && traced.correct(),
        attempted: base.attempted + traced.attempted,
        failed: base.failed + traced.failed,
    })
}

fn bench(args: &Args) -> Result<ExitCode, String> {
    let stamp = Stamp::current(args.seed);
    let cfg = Config::new(args.workload, args.seed, args.seconds);
    println!(
        "h2perf {} clients={} maint_every={} chunk_ms={} ring_cache={}",
        args.workload.name(),
        cfg.clients,
        runner::MAINT_EVERY,
        runner::CHUNK.as_millis(),
        runner::CACHE_RINGS
    );
    let fields: Vec<String> = stamp
        .fields()
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("stamp {}", fields.join(" "));
    let run = if args.trace {
        traced(args, cfg)?
    } else {
        split(args)?
    };
    if let Some(bad) = run.metrics.iter().find(|x| !x.value.is_finite()) {
        return Err(format!("{} is not a number", bad.name));
    }
    print(&run.metrics);
    if let Some(path) = &args.out {
        std::fs::write(
            path,
            report::record(&stamp, args.workload.name(), args.trace, &run.metrics),
        )
        .map_err(|e| format!("writing {path}: {e}"))?;
    }
    println!(
        "{}",
        report::json_line(run.correct, run.attempted, run.failed, &run.metrics)
    );
    Ok(ExitCode::SUCCESS)
}

/// `sub-run <workload> <seed> <seconds>`: one untraced run, reported as
/// [`report::sub_run_lines`] for the parent process.
fn sub_run(mut argv: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    let usage = "usage: h2perf sub-run <workload> <seed> <seconds>";
    let (Some(w), Some(seed), Some(seconds)) = (argv.next(), argv.next(), argv.next()) else {
        return Err(usage.into());
    };
    let args = parse(
        ["--workload", &w, "--seed", &seed, "--seconds", &seconds]
            .into_iter()
            .map(String::from),
    )?;
    let o = runner::run(&Config::new(args.workload, args.seed, args.seconds));
    summarize(&o);
    let run = report::SubRun {
        correct: o.correct(),
        attempted: o.attempted,
        failed: o.failed,
        metrics: report::end_to_end(&o)?,
        vlat: o.vlat,
    };
    print!("{}", report::sub_run_lines(&run));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    h2perf::probe::steady_allocator();
    let mut argv = std::env::args().skip(1).peekable();
    let result = if argv.peek().map(String::as_str) == Some("sub-run") {
        argv.next();
        sub_run(argv)
    } else if argv.peek().map(String::as_str) == Some("compare") {
        argv.next();
        match (argv.next(), argv.next()) {
            (Some(a), Some(b)) => std::fs::read_to_string(&a)
                .and_then(|x| Ok((x, std::fs::read_to_string(&b)?)))
                .map_err(|e| e.to_string())
                .and_then(|(x, y)| report::compare(&x, &y))
                .map(|table| {
                    print!("{table}");
                    ExitCode::SUCCESS
                }),
            _ => Err("usage: h2perf compare <result-a> <result-b>".into()),
        }
    } else {
        parse(argv).and_then(|args| bench(&args))
    };
    result.unwrap_or_else(|e| {
        eprintln!("h2perf: {e}");
        ExitCode::FAILURE
    })
}
