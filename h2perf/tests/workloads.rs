//! The benchmark's own checks: every workload runs clean, modeled costs
//! repeat exactly at one client, and `BENCHMARK.json` names what the
//! benchmark prints.

use h2perf::report;
use h2perf::runner::{self, Config};
use h2perf::workload::Workload;

fn short(workload: Workload) -> Config {
    Config {
        clients: 2,
        warmup_ops: 50,
        ..Config::new(workload, 11, 0.3)
    }
}

#[test]
fn every_workload_runs_without_failures() {
    for w in Workload::ALL {
        let untraced = runner::run(&short(w));
        assert_eq!(untraced.gate, Ok(()), "{}", w.name());
        assert!(
            untraced.attempted > 0 && untraced.failed == 0,
            "{}",
            w.name()
        );
        let e2e = report::end_to_end(&untraced).expect("enough samples");
        assert!(
            e2e.iter().all(|m| m.value.is_finite() && m.value > 0.0),
            "{}: {e2e:?}",
            w.name()
        );

        let traced = runner::run(&Config {
            traced: true,
            ..short(w)
        });
        assert!(traced.correct(), "{}: {:?}", w.name(), traced.gate);
        let layers = report::per_layer(&untraced, &traced);
        assert_eq!(layers.len(), report::per_layer_names().len());
        assert!(layers.iter().all(|m| m.value.is_finite()), "{}", w.name());
    }
}

/// With one client there is no interleaving, so every modeled figure must
/// repeat bit for bit. At the time of writing `meta-churn` does not: the
/// middleware walks its pending rings in `HashMap` order, and with the ring
/// cache over-full that order decides which rings stay cached.
#[test]
fn modeled_costs_repeat_exactly_at_one_client() {
    let modeled = [
        "vlat_p50_ms",
        "vlat_p99_ms",
        "cloud_reqs_per_op",
        "space_amp",
        "objects_per_entry",
    ];
    let mut differing = Vec::new();
    for w in Workload::ALL {
        let cfg = Config {
            clients: 1,
            warmup_ops: 50,
            ops_per_client: Some(1200),
            ..Config::new(w, 5, 60.0)
        };
        let pick = || {
            let o = runner::run(&cfg);
            assert!(o.correct(), "{}: {:?}", w.name(), o.gate);
            assert_eq!(o.attempted, 1200);
            report::end_to_end(&o)
                .expect("enough samples")
                .into_iter()
                .filter(|m| modeled.contains(&m.name.as_str()))
                .collect::<Vec<_>>()
        };
        let (first, second) = (pick(), pick());
        assert_eq!(first.len(), modeled.len());
        if first != second {
            differing.push(format!("{}: {first:?} vs {second:?}", w.name()));
        }
    }
    assert!(
        differing.is_empty(),
        "modeled costs differ between identical runs:\n{}",
        differing.join("\n")
    );
}

#[test]
fn benchmark_json_names_every_metric_and_workload() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let named = |name: &str| json.contains(&format!("\"name\": \"{name}\""));
    for w in Workload::ALL {
        assert!(named(w.name()), "workload {} missing", w.name());
    }
    for (name, _) in report::per_layer_names() {
        assert!(named(&name), "per-layer metric {name} missing");
    }
    for name in [
        "ops_per_s",
        "lat_p50_us",
        "lat_p95_us",
        "vlat_p50_ms",
        "vlat_p99_ms",
        "cloud_reqs_per_op",
        "space_amp",
        "objects_per_entry",
        "ok_frac",
        "setup_s",
        "peak_rss_mb",
    ] {
        assert!(named(name), "end-to-end metric {name} missing");
    }
}
