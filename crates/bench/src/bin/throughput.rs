//! Multi-client throughput benchmark: H2 vs the Swift baseline.
//!
//! Sweeps client-thread counts, replaying identical closed-loop workloads
//! (see [`h2bench::loadgen`]) against both systems, and writes the results
//! as `BENCH_throughput.json`.
//!
//! ```bash
//! cargo run --release -p h2bench --bin throughput            # full sweep
//! cargo run --release -p h2bench --bin throughput -- --quick # CI smoke
//! ```
//!
//! Flags: `--quick` (T=1,2 and fewer ops), `--threads 1,2,4,8`,
//! `--pace F` (real seconds slept per virtual second; 0 disables),
//! `--out PATH` (default `BENCH_throughput.json`),
//! `--trace-out PATH` (after the measured sweep, replay one extra H2 run
//! with every op traced and write the spans as chrome://tracing /
//! Perfetto-openable JSON — the measured numbers stay trace-free).

use std::fmt::Write as _;
use std::time::Duration;

use h2bench::loadgen::{
    run_h2, run_h2_capture, run_h2_migrating, run_swift, LoadResult, LoadgenConfig, WorkloadPattern,
};

struct Args {
    threads: Vec<usize>,
    pace: f64,
    ops_per_client: usize,
    out: String,
    trace_out: Option<String>,
    quick: bool,
    read_opt: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        threads: vec![1, 2, 4, 8],
        pace: 0.05,
        ops_per_client: 250,
        out: "BENCH_throughput.json".to_string(),
        trace_out: None,
        quick: false,
        read_opt: true,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => {
                args.quick = true;
                args.threads = vec![1, 2];
                args.ops_per_client = 60;
            }
            "--threads" => {
                let v = it.next().expect("--threads needs a comma-separated list");
                args.threads = v
                    .split(',')
                    .map(|s| s.trim().parse().expect("thread count"))
                    .collect();
            }
            "--pace" => {
                args.pace = it
                    .next()
                    .expect("--pace needs a value")
                    .parse()
                    .expect("pace");
            }
            "--ops" => {
                args.ops_per_client = it
                    .next()
                    .expect("--ops needs a value")
                    .parse()
                    .expect("ops");
            }
            "--out" => {
                args.out = it.next().expect("--out needs a path");
            }
            "--trace-out" => {
                args.trace_out = Some(it.next().expect("--trace-out needs a path"));
            }
            // A/B switch: rerun the same legs with the read-path caches and
            // hedged reads off, to record the pre-optimisation baseline.
            "--no-read-opt" => {
                args.read_opt = false;
            }
            other => {
                eprintln!("unknown flag {other}");
                eprintln!("usage: throughput [--quick] [--threads 1,2,4,8] [--pace F] [--ops N] [--out PATH] [--trace-out PATH] [--no-read-opt]");
                std::process::exit(2);
            }
        }
    }
    args
}

fn ms_f(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn result_json(r: &LoadResult) -> String {
    format!(
        concat!(
            "    {{\"system\": \"{}\", \"mix\": \"{}\", \"threads\": {}, \"ops\": {}, ",
            "\"errors\": {}, ",
            "\"wall_s\": {:.3}, \"ops_per_sec\": {:.1}, \"latency_ms\": ",
            "{{\"mean\": {:.2}, \"p50\": {:.2}, \"p95\": {:.2}, \"p99\": {:.2}}}}}"
        ),
        r.system,
        r.mix,
        r.clients,
        r.ops,
        r.errors,
        r.wall.as_secs_f64(),
        r.ops_per_sec(),
        ms_f(r.latency.mean),
        ms_f(r.latency.p50),
        ms_f(r.latency.p95),
        ms_f(r.latency.p99),
    )
}

fn main() {
    let args = parse_args();
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());

    println!(
        "throughput sweep: T={:?} pace={} ops/client={} ({} cores, {}/{})",
        args.threads,
        args.pace,
        args.ops_per_client,
        cores,
        std::env::consts::OS,
        std::env::consts::ARCH,
    );

    let mut results: Vec<LoadResult> = Vec::new();
    for &t in &args.threads {
        let cfg = LoadgenConfig {
            clients: t,
            ops_per_client: args.ops_per_client,
            pace: args.pace,
            read_opt: args.read_opt,
            ..Default::default()
        };
        let h2 = run_h2(&cfg);
        println!("{}", h2.render());
        let swift = run_swift(&cfg);
        println!("{}", swift.render());
        results.push(h2);
        results.push(swift);
    }

    // Read-heavy leg: same thread sweep, 98/2 deep-path hot-set mix,
    // H2 only (it isolates the resolve hot path the caches target). Half
    // an ops-budget of warm-up per client brings the hot set to steady
    // state before measurement — this leg is about serving a warm corpus,
    // not about cold-start behaviour.
    for &t in &args.threads {
        let cfg = LoadgenConfig {
            clients: t,
            ops_per_client: args.ops_per_client,
            pace: args.pace,
            warmup_ops: args.ops_per_client / 2,
            pattern: WorkloadPattern::ReadHeavy,
            read_opt: args.read_opt,
            ..Default::default()
        };
        let h2 = run_h2(&cfg);
        println!("{}", h2.render());
        results.push(h2);
    }

    // Streaming leg: sequential whole-file reads of a 24 MiB-file corpus,
    // H2 only — every read reassembles multipart parts (or, with the CAS
    // plane on, walks the manifest → branch → leaf block tree),
    // so this leg prices content reassembly rather than resolve time.
    for &t in &args.threads {
        let cfg = LoadgenConfig {
            clients: t,
            ops_per_client: args.ops_per_client,
            pace: args.pace,
            warmup_ops: args.ops_per_client / 4,
            pattern: WorkloadPattern::Streaming,
            read_opt: args.read_opt,
            ..Default::default()
        };
        let h2 = run_h2(&cfg);
        println!("{}", h2.render());
        results.push(h2);
    }

    // Migrating leg: same default mix with a live rebalance churning under
    // the measured window (an operator thread adds a device, migrates onto
    // it a few partitions at a time, drains it, repeats). The delta to the
    // plain "H2Cloud" rows is the rebalance tax clients pay.
    for &t in &args.threads {
        let cfg = LoadgenConfig {
            clients: t,
            ops_per_client: args.ops_per_client,
            pace: args.pace,
            read_opt: args.read_opt,
            ..Default::default()
        };
        let h2 = run_h2_migrating(&cfg);
        println!("{}", h2.render());
        results.push(h2);
    }

    // Scaling headline: H2 aggregate ops/sec at max T vs T=1.
    let h2_at = |t: usize| {
        results
            .iter()
            .find(|r| r.system == "H2Cloud" && r.clients == t)
            .map(LoadResult::ops_per_sec)
    };
    if let (Some(base), Some(&tmax)) = (h2_at(args.threads[0]), args.threads.iter().max()) {
        if let Some(top) = h2_at(tmax) {
            println!(
                "H2 scaling {}→{} threads: {:.2}x",
                args.threads[0],
                tmax,
                top / base
            );
        }
    }

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"throughput\",");
    let _ = writeln!(
        json,
        "  \"machine\": {{\"cores\": {}, \"os\": \"{}\", \"arch\": \"{}\"}},",
        cores,
        std::env::consts::OS,
        std::env::consts::ARCH
    );
    let _ = writeln!(
        json,
        "  \"config\": {{\"quick\": {}, \"pace\": {}, \"ops_per_client\": {}, \"read_opt\": {}, \"threads\": [{}]}},",
        args.quick,
        args.pace,
        args.ops_per_client,
        args.read_opt,
        args.threads
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(json, "  \"results\": [");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(json, "{}{}", result_json(r), comma);
    }
    let _ = writeln!(json, "  ]");
    let _ = writeln!(json, "}}");

    std::fs::write(&args.out, &json).expect("write results file");
    println!("wrote {}", args.out);

    // Optional timeline export. This is a *separate* fully-traced replay —
    // the sweep above always runs with tracing off so the measured numbers
    // never include collector overhead.
    if let Some(path) = &args.trace_out {
        let cfg = LoadgenConfig {
            clients: *args.threads.iter().max().unwrap_or(&2),
            ops_per_client: args.ops_per_client.min(60),
            pace: args.pace,
            trace_sample: 1.0,
            ..Default::default()
        };
        let (_, traces) = run_h2_capture(&cfg);
        std::fs::write(path, h2util::trace::chrome_trace_json(&traces)).expect("write trace file");
        println!(
            "wrote {} ({} root spans; open in chrome://tracing or ui.perfetto.dev)",
            path,
            traces.len()
        );
    }
}
