//! Metrics derived from run outcomes, and their output formats.

use crate::hist::Hist;
use crate::probe::Stamp;
use crate::runner::{Outcome, Window, CHUNKS_PER_WINDOW, COUNTERS, STAGES};
use crate::workload::{KINDS, KIND_NAMES};

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

fn m(name: impl Into<String>, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit: unit.to_string(),
    }
}

/// `a / b`, 0 when there is no base.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The windows real-time figures are read from: the complete ones, or
/// every window when the run was too short to complete one.
fn windows(o: &Outcome) -> Vec<&Window> {
    let full: Vec<&Window> = o
        .windows
        .iter()
        .filter(|w| w.chunks == CHUNKS_PER_WINDOW)
        .collect();
    if full.is_empty() {
        o.windows.iter().collect()
    } else {
        full
    }
}

/// Median throughput over the run's windows.
pub fn ops_per_s(o: &Outcome) -> f64 {
    let rates: Vec<f64> = windows(o)
        .iter()
        .map(|w| ratio(w.ops as f64, w.wall.as_secs_f64()))
        .collect();
    median(&rates)
}

/// Median over windows of the latency `q`-quantile, in ns; the whole run's
/// quantile when no window holds enough samples for it.
fn window_quantile(o: &Outcome, q: f64) -> Option<f64> {
    let per_window: Vec<f64> = windows(o)
        .iter()
        .filter_map(|w| w.lat.quantile(q))
        .collect();
    if per_window.is_empty() {
        o.lat.quantile(q)
    } else {
        Some(median(&per_window))
    }
}

/// What a user of the system sees, from an untraced run. `Err` names a
/// percentile the sample cannot support.
pub fn end_to_end(o: &Outcome) -> Result<Vec<Metric>, String> {
    let tail = |v: Option<f64>, p: f64| {
        v.ok_or_else(|| format!("lat: too few samples ({}) for p{p}", o.lat.count()))
    };
    let ops = o.attempted as f64;
    let reqs = (o.fg.total() + o.delta.bg.total()) as f64;
    let setup: Vec<f64> = o.setup.iter().map(|d| d.as_secs_f64()).collect();
    Ok(vec![
        m("ops_per_s", ops_per_s(o), "1/s"),
        m(
            "lat_p50_us",
            tail(window_quantile(o, 0.50), 50.0)? / 1e3,
            "us",
        ),
        // The tail is p95, not p99: on a shared 2-vCPU machine the slowest
        // 1 % of ops is set by host preemption, which moved p99 by 0.7 of
        // its median across runs; p99 is a per-layer figure instead.
        m(
            "lat_p95_us",
            tail(window_quantile(o, 0.95), 95.0)? / 1e3,
            "us",
        ),
        vlat_ms(&o.vlat, 0.50)?,
        vlat_ms(&o.vlat, 0.99)?,
        m("cloud_reqs_per_op", ratio(reqs, ops), "1/op"),
        // Both relative to what the store is entitled to hold: live data
        // plus what RMDIR left for lazy reclamation. Otherwise they would
        // mostly count which subtrees a given op stream happened to remove.
        m(
            "space_amp",
            ratio(
                o.storage.bytes as f64,
                (o.live_bytes + o.deferred_bytes) as f64,
            ),
            "ratio",
        ),
        m(
            "objects_per_entry",
            ratio(
                o.storage.objects as f64,
                (o.live_files + o.live_dirs + o.deferred_entries) as f64,
            ),
            "ratio",
        ),
        m("ok_frac", ratio(ops - o.failed as f64, ops), "ratio"),
        m("setup_s", median(&setup), "s"),
        m("peak_rss_mb", o.peak_rss_mb, "MiB"),
    ])
}

/// `vlat_p50_ms` or `vlat_p99_ms` from a histogram of modeled latency.
fn vlat_ms(h: &Hist, q: f64) -> Result<Metric, String> {
    let p = (q * 100.0).round();
    let v = h
        .quantile(q)
        .ok_or_else(|| format!("vlat: too few samples ({}) for p{p}", h.count()))?;
    Ok(m(format!("vlat_p{p}_ms"), v / 1e6, "ms"))
}

/// Names and units of every per-layer metric, in output order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    for k in KIND_NAMES {
        names.push((format!("fs.{k}.ops"), "count"));
        names.push((format!("fs.{k}.cpu_us"), "us"));
        names.push((format!("fs.{k}.vms"), "ms"));
        names.push((format!("fs.{k}.reqs"), "1/op"));
    }
    for (n, u) in [
        ("middleware.ring_cache.hit_ratio", "ratio"),
        ("middleware.path_cache.hit_ratio", "ratio"),
        ("middleware.neg_cache.hits_per_op", "1/op"),
        ("middleware.ring_fetches_per_op", "1/op"),
        ("middleware.gets_saved_per_op", "1/op"),
        ("middleware.stage.ring_vms", "ms"),
        ("middleware.stage.content_vms", "ms"),
        ("middleware.stage.backoff_vms", "ms"),
        ("cluster.stage.quorum_vms", "ms"),
        ("middleware.merge.busy_frac", "ratio"),
        ("middleware.merge.cpu_us_per_ring", "us"),
        ("middleware.merge.idle_call_ratio", "ratio"),
        ("middleware.merge.vms_per_op", "ms"),
        ("middleware.merge.reqs_per_op", "1/op"),
        ("middleware.merge.failures", "count"),
        ("middleware.gossip.busy_frac", "ratio"),
        ("middleware.gossip.cpu_us_per_msg", "us"),
        ("middleware.gossip.msgs_per_op", "1/op"),
        ("middleware.gossip.news_ratio", "ratio"),
        ("middleware.gossip.apply_failures", "count"),
        ("middleware.backlog.max_pending", "count"),
        ("layer.drain_ms", "ms"),
        ("cluster.gets_per_op", "1/op"),
        ("cluster.puts_per_op", "1/op"),
        ("cluster.heads_per_op", "1/op"),
        ("cluster.deletes_per_op", "1/op"),
        ("cluster.lists_per_op", "1/op"),
        ("cluster.copies_per_op", "1/op"),
        ("cluster.hedged_reads_per_op", "1/op"),
        ("cluster.handoff_skips_per_op", "1/op"),
        ("cluster.objects", "count"),
        ("cluster.bytes", "B"),
        ("cluster.cas.blocks_written", "count"),
        ("cluster.cas.blocks_shared", "count"),
        ("cluster.cas.dedup_bytes_saved", "B"),
        ("bench.trace_overhead_frac", "ratio"),
        ("bench.lat_p99_us", "us"),
    ] {
        names.push((n.to_string(), u));
    }
    names
}

/// Layer-by-layer figures from a traced run `t`, with the untraced run `u`
/// of the same inputs as the base of the tracing overhead.
pub fn per_layer(u: &Outcome, t: &Outcome) -> Vec<Metric> {
    let ops = t.attempted as f64;
    let per_op = |x: f64| ratio(x, ops);
    let counter = |name: &str| {
        let i = COUNTERS
            .iter()
            .position(|c| *c == name)
            .expect("a sampled counter");
        t.delta.counters[i] as f64
    };
    let stage = |i: usize| per_op(t.delta.stage_us[i]) / 1e3;
    let busy = |ns: u64| ratio(ns as f64 / 1e9, t.window.as_secs_f64() * t.clients as f64);
    let mt = &t.maint;
    let mut reqs = t.fg;
    reqs.add(&t.delta.bg);
    let mut values = Vec::new();
    for k in t.kinds.iter().take(KINDS) {
        let n = k.ops as f64;
        values.extend([
            n,
            ratio(k.cpu_ns as f64, n) / 1e3,
            ratio(k.vns as f64, n) / 1e6,
            ratio(k.reqs as f64, n),
        ]);
    }
    let (rh, rm) = (
        counter(h2cloud::middleware::RING_CACHE_HITS),
        counter(h2cloud::middleware::RING_CACHE_MISSES),
    );
    let (ph, pm) = (
        counter(h2cloud::middleware::PATH_CACHE_HITS),
        counter(h2cloud::middleware::PATH_CACHE_MISSES),
    );
    values.extend([
        ratio(rh, rh + rm),
        ratio(ph, ph + pm),
        per_op(counter(h2cloud::middleware::NEG_CACHE_HITS)),
        per_op(counter(h2cloud::middleware::RING_FETCHES)),
        per_op(counter(h2cloud::middleware::GETS_SAVED)),
    ]);
    values.extend((0..STAGES.len()).map(stage));
    values.extend([
        busy(mt.merge_wall_ns),
        ratio(mt.merge_cpu_ns as f64, mt.merge_rings as f64) / 1e3,
        ratio(mt.merge_idle_calls as f64, mt.merge_calls as f64),
        per_op(mt.merge_vns as f64) / 1e6,
        per_op(mt.merge_reqs as f64),
        mt.merge_failed as f64,
        busy(mt.gossip_wall_ns),
        ratio(mt.gossip_cpu_ns as f64, mt.gossip_msgs as f64) / 1e3,
        per_op(mt.gossip_msgs as f64),
        ratio(mt.gossip_news as f64, mt.gossip_msgs as f64),
        mt.gossip_failed as f64,
        mt.max_pending as f64,
        t.drain.as_secs_f64() * 1e3,
        per_op(reqs.gets as f64),
        per_op(reqs.puts as f64),
        per_op(reqs.heads as f64),
        per_op(reqs.deletes as f64),
        // Container listings are the store's index queries.
        per_op(reqs.db_queries as f64),
        per_op(reqs.copies as f64),
        per_op(t.delta.hedged_reads as f64),
        per_op(t.delta.handoff_skips as f64),
        t.storage.objects as f64,
        t.storage.bytes as f64,
        t.cas_blocks_written as f64,
        t.cas_blocks_shared as f64,
        t.dedup_bytes_saved as f64,
        1.0 - ratio(ops_per_s(t), ops_per_s(u)),
        window_quantile(u, 0.99).unwrap_or(0.0) / 1e3,
    ]);
    per_layer_names()
        .into_iter()
        .zip(values)
        .map(|((name, unit), value)| m(name, value, unit))
        .collect()
}

/// One sub-run, as a child process reports it to its parent.
#[derive(Clone, Default)]
pub struct SubRun {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Modeled latency. The parent pools these instead of taking the
    /// median of per-sub-run percentiles: the modeled tail is set by a few
    /// rare, costly ops (listing a large directory), and a short sub-run
    /// holds too few of them for its own p99 to be steady.
    pub vlat: Hist,
}

/// [`SubRun`] as tab-separated lines: `result`, then `metric` and `vlat`
/// bucket lines.
pub fn sub_run_lines(run: &SubRun) -> String {
    let mut out = format!(
        "result\t{}\t{}\t{}\n",
        run.correct, run.attempted, run.failed
    );
    for x in &run.metrics {
        out.push_str(&format!("metric\t{}\t{}\t{}\n", x.name, x.value, x.unit));
    }
    for (i, c) in run.vlat.buckets() {
        out.push_str(&format!("vlat\t{i}\t{c}\n"));
    }
    out
}

/// Parse [`sub_run_lines`] output; other lines are ignored.
pub fn parse_sub_run(text: &str) -> Result<SubRun, String> {
    let bad = |line: &str| format!("malformed sub-run line {line:?}");
    let mut run = SubRun::default();
    let mut seen_result = false;
    for line in text.lines() {
        let parts: Vec<&str> = line.split('\t').collect();
        match parts[..] {
            ["result", correct, attempted, failed] => {
                run.correct = correct == "true";
                run.attempted = attempted.parse().map_err(|_| bad(line))?;
                run.failed = failed.parse().map_err(|_| bad(line))?;
                seen_result = true;
            }
            ["metric", name, value, unit] => {
                let value = value.parse().map_err(|_| bad(line))?;
                run.metrics.push(m(name, value, unit));
            }
            ["vlat", i, c] => {
                let (i, c) = (
                    i.parse().map_err(|_| bad(line))?,
                    c.parse().map_err(|_| bad(line))?,
                );
                run.vlat.add_bucket(i, c).ok_or_else(|| bad(line))?;
            }
            _ => {}
        }
    }
    if !seen_result {
        return Err("sub-run printed no result".into());
    }
    Ok(run)
}

/// The result of several sub-runs: per metric the median over them, except
/// modeled latency, read off their pooled histogram.
pub fn combine(runs: &[SubRun]) -> Result<Vec<Metric>, String> {
    let mut pooled = Hist::default();
    for r in runs {
        pooled.merge(&r.vlat);
    }
    let (p50, p99) = (vlat_ms(&pooled, 0.50)?, vlat_ms(&pooled, 0.99)?);
    let first = runs.first().map_or(&[][..], |r| &r.metrics[..]);
    Ok(first
        .iter()
        .enumerate()
        .map(|(i, x)| match x.name.as_str() {
            "vlat_p50_ms" => p50.clone(),
            "vlat_p99_ms" => p99.clone(),
            _ => {
                let values: Vec<f64> = runs.iter().map(|r| r.metrics[i].value).collect();
                m(x.name.clone(), median(&values), &x.unit)
            }
        })
        .collect())
}

/// The one-line result object the benchmark ends with.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A saved result: `key<TAB>value[<TAB>unit]` lines, stamp first.
pub fn record(stamp: &Stamp, workload: &str, traced: bool, metrics: &[Metric]) -> String {
    let mut out = String::new();
    for (k, v) in stamp.fields() {
        out.push_str(&format!("stamp.{k}\t{v}\n"));
    }
    out.push_str(&format!(
        "run.workload\t{workload}\nrun.trace\t{}\n",
        u8::from(traced)
    ));
    for x in metrics {
        out.push_str(&format!("metric.{}\t{}\t{}\n", x.name, x.value, x.unit));
    }
    out
}

fn field<'a>(record: &'a str, key: &str) -> Option<&'a str> {
    record
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix('\t'))
}

/// Compare two saved results metric by metric. The machine shapes must
/// match: numbers from different core counts or architectures are flagged
/// instead of compared.
pub fn compare(a: &str, b: &str) -> Result<String, String> {
    let mut mismatch = Vec::new();
    for key in ["stamp.nproc", "stamp.arch", "run.workload", "run.trace"] {
        let (x, y) = (field(a, key), field(b, key));
        if x != y {
            mismatch.push(format!(
                "{key}: {} vs {}",
                x.unwrap_or("?"),
                y.unwrap_or("?")
            ));
        }
    }
    if !mismatch.is_empty() {
        return Err(format!("not comparable, {}", mismatch.join(", ")));
    }
    let mut out = String::new();
    if field(a, "stamp.rustc") != field(b, "stamp.rustc") {
        out.push_str("note: built by different compilers\n");
    }
    for line in a.lines().filter(|l| l.starts_with("metric.")) {
        let mut parts = line.split('\t');
        let (Some(key), Some(x)) = (parts.next(), parts.next()) else {
            continue;
        };
        let Some(y) = field(b, key).and_then(|r| r.split('\t').next()) else {
            continue;
        };
        let (x, y): (f64, f64) = (
            x.parse().map_err(|_| format!("bad value in {line}"))?,
            y.parse().map_err(|_| format!("bad value for {key}"))?,
        );
        let change = if x == 0.0 { 0.0 } else { (y - x) / x * 100.0 };
        out.push_str(&format!(
            "{:<40} {x:>14.4} {y:>14.4} {change:>+8.2}%\n",
            &key["metric.".len()..]
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_refuses_mismatched_machines() {
        let stamp = |nproc| Stamp {
            nproc,
            arch: "x86_64".into(),
            rustc: "rustc 1".into(),
            commit: "abc".into(),
            seed: 1,
        };
        let ms = [m("ops_per_s", 100.0, "1/s")];
        let a = record(&stamp(2), "deep-read", false, &ms);
        let b = record(
            &stamp(2),
            "deep-read",
            false,
            &[m("ops_per_s", 110.0, "1/s")],
        );
        let c = record(&stamp(4), "deep-read", false, &ms);
        assert!(compare(&a, &b).expect("same shape").contains("+10.00%"));
        assert!(compare(&a, &c)
            .expect_err("2 vs 4 cores")
            .contains("stamp.nproc"));
    }

    #[test]
    fn sub_runs_round_trip_and_combine() {
        let run = |v: f64| {
            let mut vlat = Hist::default();
            for ns in [1_000_000u64, 2_000_000] {
                vlat.record(ns * v as u64);
            }
            SubRun {
                correct: true,
                attempted: 7,
                failed: 0,
                metrics: vec![
                    m("ops_per_s", v, "1/s"),
                    m("vlat_p50_ms", 0.0, "ms"),
                    m("vlat_p99_ms", 0.0, "ms"),
                ],
                vlat,
            }
        };
        let text = format!("noise\n{}", sub_run_lines(&run(300.0)));
        let parsed = parse_sub_run(&text).expect("well formed");
        assert_eq!(
            (parsed.correct, parsed.attempted, parsed.failed),
            (true, 7, 0)
        );
        assert_eq!(parsed.metrics, run(300.0).metrics);
        assert_eq!(parsed.vlat.count(), 2);
        assert!(
            parse_sub_run("metric\tx\t1\ts\n").is_err(),
            "no result line"
        );
        assert!(parse_sub_run("result\ttrue\t1\t0\nvlat\t99999\t1\n").is_err());
        // Too few pooled samples for a modeled p99.
        assert!(combine(&[run(1.0), run(2.0)]).is_err());
        let many: Vec<SubRun> = (1..=8).map(|k| run(k as f64 * 100.0)).collect();
        let runs: Vec<SubRun> = many.iter().cycle().take(800).cloned().collect();
        let combined = combine(&runs).expect("1600 pooled samples");
        assert_eq!(combined[0], m("ops_per_s", 450.0, "1/s"));
        assert_eq!(combined[1].name, "vlat_p50_ms");
    }

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let line = json_line(true, 10, 0, &[m("setup_s", 0.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
