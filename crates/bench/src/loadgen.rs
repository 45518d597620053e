//! Closed-loop multi-client load generator.
//!
//! The figure harness replays workloads one operation at a time; this
//! module measures what the ROADMAP actually cares about — aggregate
//! throughput under *concurrent* clients. T client threads, each bound to
//! its own account, replay independent mixed [`h2workload`] operation
//! streams against a shared filesystem, closed-loop (a client issues its
//! next operation as soon as the previous one completes).
//!
//! # Pacing: replaying virtual service time in real time
//!
//! Operations in this simulation are pure CPU in real time — all I/O
//! latency is *charged* to the [`OpCtx`] as virtual time. A closed loop of
//! pure-CPU operations measures nothing but core count. To make the
//! benchmark reflect the system it models, each client accumulates
//! `pace × charged_virtual_time` as *pacing debt* and sleeps it off in
//! quanta of at least [`PACE_QUANTUM`]: the cost model's service time is
//! replayed (scaled) in real time, so clients genuinely overlap their
//! simulated I/O waits the way real clients overlap real disk/network
//! waits. Lock contention, gossip threads and the striped store are
//! exercised for real; only the device/network wait is scaled. With the
//! default `pace`, a ~20 ms virtual op costs ~1 ms of wall sleep.
//!
//! The debt is batched rather than slept per operation because
//! `thread::sleep` costs a timer wake-up (~100 µs of latency on a busy
//! box) regardless of the requested duration — a fixed tax that would
//! swamp the few-µs charge of a cache-hit resolve and flatten exactly the
//! cost differences the sweep exists to expose. Expensive operations
//! (≥ [`PACE_QUANTUM`] of scaled charge) still pay their debt on the spot;
//! cheap ones pool theirs until the sleep is long enough that the wake-up
//! latency is noise. Oversleep is credited back: when the OS wakes a
//! client late (milliseconds of scheduler queueing once client threads
//! oversubscribe the core), the excess draws down subsequent charges, so
//! each client's total pacing wall time converges on `pace × total
//! charge` instead of inflating by `wake-up latency × sleep count`.
//! Recorded per-op latency is *service time only* (the pacing gap is
//! rate shaping, not part of the operation), and any residual debt is
//! slept before the client exits so aggregate wall time stays faithful
//! to the charged total.
//!
//! Clients map to middlewares by account stickiness
//! ([`H2Layer::mw_for_account`]): account names are chosen so T clients
//! spread round-robin across the layer (client *c* lands on middleware
//! `c % m`), mirroring a session-affine load balancer.
//!
//! [`H2Layer::mw_for_account`]: h2cloud::H2Layer::mw_for_account

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use h2util::clock::{wall_now, wall_sleep};

use h2baselines::SwiftFs;
use h2cloud::{H2Cloud, H2Config, MaintenanceMode};
use h2fsapi::CloudFs;
use h2util::metrics::{Histogram, Summary};
use h2util::rng::{derive_seed, rng};
use h2util::{CostModel, OpCtx};
use h2workload::{FsSpec, Trace, TraceMix, UserProfile};
use swiftsim::{Cluster, ClusterConfig};

/// Which workload shape a run replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadPattern {
    /// The default [`TraceMix`] over a Light-profile pre-population.
    Mixed,
    /// The read-heavy leg: a 98/2 [`TraceMix::read_heavy`] mix over a
    /// depth-12 deep-path hot corpus ([`FsSpec::deep_hot`]), writes landing
    /// in disjoint ingest directories.
    ReadHeavy,
    /// The streaming leg: sequential whole-file READs
    /// ([`TraceMix::streaming_read`]) over a corpus of
    /// [`STREAM_FILE_BYTES`]-sized files — every read walks the full
    /// content path (multipart parts, or with `cas` on the manifest →
    /// branch → leaf tree), so this leg prices content reassembly rather
    /// than resolve time.
    Streaming,
}

/// Deep-path hot-corpus shape of the [`WorkloadPattern::ReadHeavy`] leg.
/// Per client: `HOT_CHAINS` chains of depth [`HOT_DEPTH`] with
/// `HOT_FILES_PER_LEAF` files each — enough namespaces that the parsed-
/// ring LRU alone cannot hold the working set, which is precisely the
/// regime a full-path cache (O(1) memory per *path*) is built for.
pub const HOT_DEPTH: usize = 12;
const HOT_CHAINS: usize = 24;
const HOT_FILES_PER_LEAF: usize = 4;
const HOT_WRITE_DIRS: usize = 4;
const HOT_FILE_BYTES: u64 = 4096;
/// Zipf exponent over the hot files (rank = creation order), concentrating
/// most traffic on the first few chains.
const HOT_ZIPF: f64 = 1.1;

/// Per-file size of the [`WorkloadPattern::Streaming`] corpus: large
/// enough that every file is multipart (6 × 4 MiB parts) and, with `cas`
/// on, a ~24-leaf chunk tree — so the leg measures content reassembly.
pub const STREAM_FILE_BYTES: u64 = 24 << 20;
/// Shallow, small corpus for the streaming leg (per client:
/// `STREAM_CHAINS` × `STREAM_FILES_PER_LEAF` files): the population cost
/// is dominated by bytes, not file count.
const STREAM_CHAINS: usize = 4;
const STREAM_DEPTH: usize = 3;
const STREAM_FILES_PER_LEAF: usize = 4;
const STREAM_WRITE_DIRS: usize = 2;
/// Gentler popularity skew than the metadata leg: streaming clients cycle
/// through a library rather than hammering one object.
const STREAM_ZIPF: f64 = 0.7;

/// Minimum pacing sleep. Scaled charges below this pool up as debt across
/// operations (see the module docs on pacing); 1 ms keeps the OS timer's
/// wake-up latency under ~10 % of every sleep actually issued.
pub const PACE_QUANTUM: Duration = Duration::from_millis(1);

/// Shape of one load-generator run.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Concurrent client threads (one account each).
    pub clients: usize,
    /// Operations each client replays.
    pub ops_per_client: usize,
    /// Real seconds slept per virtual second charged (see module docs).
    /// 0 disables pacing and degenerates into a pure CPU benchmark.
    pub pace: f64,
    /// Workload seed: traces are deterministic given the seed.
    pub seed: u64,
    /// H2 layer width (ignored by the Swift baseline).
    pub middlewares: usize,
    /// Pre-population size multiplier for each client's Light-profile
    /// filesystem (files the trace then reads, moves, lists, …).
    pub prepop_scale: f64,
    /// Fraction of filesystem ops traced end-to-end (see
    /// [`H2Config::trace_sample`]). 0 — the benchmarking default — keeps
    /// the collector disabled so measured runs pay no tracing cost.
    /// Ignored by the Swift baseline.
    pub trace_sample: f64,
    /// Leading operations per client replayed unpaced and untimed before
    /// the measured window opens (see [`ClientPlan::warmup`]). 0 — the
    /// default — measures from a cold start.
    pub warmup_ops: usize,
    /// Workload shape (see [`WorkloadPattern`]).
    pub pattern: WorkloadPattern,
    /// Read-path optimisations (full-path cache, negative entries, hedged
    /// replica reads) for the H2 runs. On by default so sweeps measure the
    /// optimised system; the throughput bin's `--no-read-opt` flips it to
    /// record a pre-optimisation baseline of the same leg.
    pub read_opt: bool,
    /// Content-addressed content plane for the H2 runs (see
    /// [`H2Config::cas`]). Defaults to [`H2Config::default`]'s setting
    /// (off); the dedup ablation flips it on.
    pub cas: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            clients: 4,
            ops_per_client: 250,
            pace: 0.05,
            seed: 42,
            middlewares: 4,
            prepop_scale: 0.25,
            trace_sample: 0.0,
            warmup_ops: 0,
            pattern: WorkloadPattern::Mixed,
            read_opt: true,
            cas: H2Config::default().cas,
        }
    }
}

impl LoadgenConfig {
    /// Small shape for CI smoke runs: finishes in a few seconds.
    pub fn quick() -> Self {
        LoadgenConfig {
            clients: 2,
            ops_per_client: 60,
            ..Default::default()
        }
    }

    pub fn with_clients(mut self, clients: usize) -> Self {
        self.clients = clients;
        self
    }

    /// The mix identifier emitted into the bench JSON.
    pub fn mix_label(&self) -> &'static str {
        match self.pattern {
            WorkloadPattern::Mixed => "default",
            WorkloadPattern::ReadHeavy => "read-heavy-98/2-depth12",
            WorkloadPattern::Streaming => "streaming-read-24MiB",
        }
    }

    /// System label for the H2 run of this shape. The read-heavy leg gets
    /// its own label so benchcmp gates it as a separate row.
    pub fn h2_label(&self) -> &'static str {
        match self.pattern {
            WorkloadPattern::Mixed => "H2Cloud",
            WorkloadPattern::ReadHeavy => "H2Cloud-readheavy",
            WorkloadPattern::Streaming => "H2Cloud-streaming",
        }
    }
}

/// Outcome of one run: totals plus the wall-clock latency distribution.
#[derive(Debug, Clone)]
pub struct LoadResult {
    pub system: String,
    /// Mix identifier of the replayed workload (see
    /// [`LoadgenConfig::mix_label`]).
    pub mix: String,
    pub clients: usize,
    /// Operations completed (successes + failures).
    pub ops: u64,
    /// Operations that returned an error (0 on a healthy run — every
    /// trace is validated against its model at generation time).
    pub errors: u64,
    pub wall: Duration,
    /// Per-operation wall-clock latency (pacing sleep included — it is
    /// the simulated service time).
    pub latency: Summary,
}

impl LoadResult {
    pub fn ops_per_sec(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.ops as f64 / self.wall.as_secs_f64()
        }
    }

    /// One human-readable summary line.
    pub fn render(&self) -> String {
        format!(
            "{:<10} T={} ops={} errs={} wall={:.2}s {:>8.1} ops/s p50={} p95={} p99={}",
            self.system,
            self.clients,
            self.ops,
            self.errors,
            self.wall.as_secs_f64(),
            self.ops_per_sec(),
            h2util::fmt::millis(self.latency.p50),
            h2util::fmt::millis(self.latency.p95),
            h2util::fmt::millis(self.latency.p99),
        )
    }
}

/// Account name for client `c` chosen so sticky routing lands it on
/// middleware `c % width` — clients spread round-robin across the layer.
pub fn account_for(width: usize, c: usize) -> String {
    if width <= 1 {
        return format!("user{c}");
    }
    let want = c % width;
    for k in 0u32.. {
        let name = if k == 0 {
            format!("user{c}")
        } else {
            format!("user{c}-{k}")
        };
        if h2util::hash64(name.as_bytes()) as usize % width == want {
            return name;
        }
    }
    unreachable!("some suffix always hashes to the wanted middleware")
}

/// One client's prepared workload: its account (already populated on the
/// target system) and the operation stream to replay.
pub struct ClientPlan {
    pub account: String,
    pub trace: Trace,
    /// How many leading trace operations are warm-up: replayed unpaced and
    /// untimed before the measured window opens, so the measurement sees
    /// the steady state (caches populated, epoch churn from pre-population
    /// settled) rather than a cold start. The warm-up ops are a distinct
    /// prefix of the trace — nothing is replayed twice.
    pub warmup: usize,
}

/// Create + populate one account per client on `fs` and generate each
/// client's trace. Deterministic given `cfg.seed`.
pub fn prepare<F: CloudFs>(fs: &F, cost: &Arc<CostModel>, cfg: &LoadgenConfig) -> Vec<ClientPlan> {
    (0..cfg.clients)
        .map(|c| {
            let account = account_for(cfg.middlewares, c);
            let mut r = rng(derive_seed(cfg.seed, &account));
            let mut ctx = OpCtx::new(cost.clone());
            fs.create_account(&mut ctx, &account)
                .expect("fresh account"); // h2lint: allow(panic-safety): bench harness fails fast; the cluster is healthy by construction
            let trace = match cfg.pattern {
                WorkloadPattern::Mixed => {
                    let spec = FsSpec::generate(&mut r, UserProfile::Light, cfg.prepop_scale);
                    spec.populate(fs, &mut ctx, &account).expect("bulk import");
                    let mut model = spec.to_model();
                    Trace::generate(
                        &mut r,
                        &mut model,
                        cfg.warmup_ops + cfg.ops_per_client,
                        &TraceMix::default(),
                    )
                }
                WorkloadPattern::ReadHeavy => {
                    let spec = FsSpec::deep_hot(
                        HOT_CHAINS,
                        HOT_DEPTH,
                        HOT_FILES_PER_LEAF,
                        HOT_WRITE_DIRS,
                        HOT_FILE_BYTES,
                    );
                    spec.populate(fs, &mut ctx, &account).expect("bulk import");
                    let mut model = spec.to_model();
                    let hot = spec.hot_set(HOT_ZIPF);
                    Trace::generate_hot(
                        &mut r,
                        &mut model,
                        cfg.warmup_ops + cfg.ops_per_client,
                        &TraceMix::read_heavy(),
                        &hot,
                    )
                }
                WorkloadPattern::Streaming => {
                    let spec = FsSpec::deep_hot(
                        STREAM_CHAINS,
                        STREAM_DEPTH,
                        STREAM_FILES_PER_LEAF,
                        STREAM_WRITE_DIRS,
                        STREAM_FILE_BYTES,
                    );
                    spec.populate(fs, &mut ctx, &account).expect("bulk import");
                    let mut model = spec.to_model();
                    let hot = spec.hot_set(STREAM_ZIPF);
                    Trace::generate_hot(
                        &mut r,
                        &mut model,
                        cfg.warmup_ops + cfg.ops_per_client,
                        &TraceMix::streaming_read(),
                        &hot,
                    )
                }
            };
            ClientPlan {
                account,
                trace,
                warmup: cfg.warmup_ops,
            }
        })
        .collect()
}

/// Replay the plans against `fs`, one thread per client, closed-loop with
/// pacing. Returns aggregate throughput and the latency distribution.
pub fn drive<F: CloudFs + Sync>(
    system: &str,
    fs: &F,
    cost: &Arc<CostModel>,
    plans: &[ClientPlan],
    pace: f64,
) -> LoadResult {
    let hist = Histogram::new();
    let errors = AtomicU64::new(0);
    // Warm-up pass: replay each client's warm-up prefix unpaced and
    // untimed, so the measured window below observes the steady state
    // instead of cold caches and the epoch churn left by pre-population.
    if plans.iter().any(|p| p.warmup > 0) {
        std::thread::scope(|s| {
            for plan in plans {
                let cost = cost.clone();
                s.spawn(move || {
                    for op in &plan.trace.ops[..plan.warmup] {
                        let mut ctx = OpCtx::new(cost.clone());
                        let _ = Trace::apply_fs(fs, &mut ctx, &plan.account, op);
                    }
                });
            }
        });
    }
    let started = wall_now();
    std::thread::scope(|s| {
        for plan in plans {
            let (hist, errors) = (&hist, &errors);
            let cost = cost.clone();
            s.spawn(move || {
                // Pacing state: `debt` is scaled virtual time not yet
                // slept; `credit` is wall time already overslept (the OS
                // wakes a paced thread late under load) that future
                // charges draw down first. Together they keep each
                // client's total pacing wall time pinned to
                // `pace × total_charge` regardless of timer latency.
                let mut debt = Duration::ZERO;
                let mut credit = Duration::ZERO;
                for op in &plan.trace.ops[plan.warmup..] {
                    let t0 = wall_now();
                    let mut ctx = OpCtx::new(cost.clone());
                    if Trace::apply_fs(fs, &mut ctx, &plan.account, op).is_err() {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                    hist.record(t0.elapsed());
                    if pace > 0.0 {
                        let charge = ctx.elapsed().mul_f64(pace);
                        if let Some(rest) = credit.checked_sub(charge) {
                            credit = rest;
                            continue;
                        }
                        debt += charge - credit;
                        credit = Duration::ZERO;
                        if debt >= PACE_QUANTUM {
                            let slept = wall_now();
                            wall_sleep(debt);
                            credit = slept.elapsed().saturating_sub(debt);
                            debt = Duration::ZERO;
                        }
                    }
                }
                if let Some(rest) = debt.checked_sub(credit) {
                    if rest > Duration::ZERO {
                        wall_sleep(rest);
                    }
                }
            });
        }
    });
    let wall = started.elapsed();
    LoadResult {
        system: system.to_string(),
        mix: "default".to_string(),
        clients: plans.len(),
        ops: hist.count(),
        errors: errors.load(Ordering::Relaxed),
        wall,
        latency: hist.summary(),
    }
}

/// Full H2 run: Deferred maintenance, threaded gossip underneath, clients
/// spread across `cfg.middlewares` middlewares by sticky routing.
pub fn run_h2(cfg: &LoadgenConfig) -> LoadResult {
    run_h2_capture(cfg).0
}

/// Like [`run_h2`], but also drains the sampled root traces collected
/// during the run (newest first; empty when `cfg.trace_sample` is 0).
/// Feed them to [`h2util::trace::chrome_trace_json`] for a
/// chrome://tracing / Perfetto-openable timeline.
pub fn run_h2_capture(cfg: &LoadgenConfig) -> (LoadResult, Vec<h2util::RootTrace>) {
    let fs = H2Cloud::new(H2Config {
        middlewares: cfg.middlewares,
        mode: MaintenanceMode::Deferred,
        cluster: ClusterConfig::default(),
        cache_capacity: 1024,
        trace_sample: cfg.trace_sample,
        group_commit: true,
        path_cache: cfg.read_opt,
        neg_cache: cfg.read_opt,
        hedged_reads: cfg.read_opt,
        cas: cfg.cas,
    });
    let cost = fs.cost_model();
    let plans = prepare(&fs, &cost, cfg);
    // Drain pre-population's deferred maintenance (pending merges + the
    // gossip backlog) before the measured window opens: populate runs with
    // the threaded fabric not yet started, and letting its backlog drain
    // concurrently with the clients would bill setup cost to the workload.
    fs.layer().pump().expect("populate backlog drains"); // h2lint: allow(panic-safety): bench harness fails fast; the cluster is healthy by construction
    let gossip = fs.layer().run_threaded();
    let mut result = drive(cfg.h2_label(), &fs, &cost, &plans, cfg.pace);
    result.mix = cfg.mix_label().to_string();
    gossip.stop();
    let traces = fs.recent_traces(h2util::trace::DEFAULT_TRACE_CAP * cfg.middlewares.max(1));
    (result, traces)
}

/// Full H2 run with a live rebalance churning underneath the measured
/// window: an operator thread repeatedly adds a device, migrates onto it a
/// few partitions at a time, then drains it again — so clients spend most
/// of the run against a ring with pending partitions (dual-apply writes,
/// old-assignment read rescues, cache resyncs). The row this emits
/// ("H2Cloud-migrating") quantifies the rebalance tax against the plain
/// "H2Cloud" row of the same shape.
pub fn run_h2_migrating(cfg: &LoadgenConfig) -> LoadResult {
    /// Partitions moved per migrator step; small enough that a migration
    /// spans many client ops.
    const MIGRATE_STRIDE: usize = 8;
    let fs = H2Cloud::new(H2Config {
        middlewares: cfg.middlewares,
        mode: MaintenanceMode::Deferred,
        cluster: ClusterConfig::default(),
        cache_capacity: 1024,
        trace_sample: 0.0,
        group_commit: true,
        path_cache: cfg.read_opt,
        neg_cache: cfg.read_opt,
        hedged_reads: cfg.read_opt,
        cas: cfg.cas,
    });
    let cost = fs.cost_model();
    let plans = prepare(&fs, &cost, cfg);
    fs.layer().pump().expect("populate backlog drains"); // h2lint: allow(panic-safety): bench harness fails fast; the cluster is healthy by construction
    let gossip = fs.layer().run_threaded();
    let stop = std::sync::atomic::AtomicBool::new(false);
    let mut result = std::thread::scope(|s| {
        let operator = s.spawn(|| {
            let mut cycles = 0u32;
            while !stop.load(Ordering::Relaxed) {
                // Add-then-drain keeps the device count stable across
                // cycles while the ring never stops moving.
                let id = fs
                    .layer()
                    .add_node(0, 1.0, MIGRATE_STRIDE)
                    .expect("add under healthy cluster"); // h2lint: allow(panic-safety): bench harness fails fast; the cluster is healthy by construction
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                fs.layer()
                    .drain_node(id, MIGRATE_STRIDE)
                    .expect("drain under healthy cluster"); // h2lint: allow(panic-safety): bench harness fails fast; the cluster is healthy by construction
                cycles += 1;
            }
            cycles
        });
        let r = drive("H2Cloud-migrating", &fs, &cost, &plans, cfg.pace);
        stop.store(true, Ordering::Relaxed);
        let cycles = operator.join().expect("operator thread"); // h2lint: allow(panic-safety): bench harness fails fast; the cluster is healthy by construction
        assert!(
            cycles > 0 || fs.cluster().migration_parts_moved_count() > 0,
            "rebalance never overlapped the measured window"
        );
        r
    });
    result.mix = cfg.mix_label().to_string();
    gossip.stop();
    result
}

/// Swift (CH + file-path DB) baseline under the identical workload.
pub fn run_swift(cfg: &LoadgenConfig) -> LoadResult {
    let fs = SwiftFs::new(Cluster::new(ClusterConfig::default()), true);
    let cost = Arc::new(CostModel::rack_default());
    let plans = prepare(&fs, &cost, cfg);
    let mut result = drive("SwiftFs", &fs, &cost, &plans, cfg.pace);
    result.mix = cfg.mix_label().to_string();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounts_spread_round_robin_across_middlewares() {
        for width in [1usize, 2, 4] {
            for c in 0..8 {
                let name = account_for(width, c);
                if width > 1 {
                    assert_eq!(
                        h2util::hash64(name.as_bytes()) as usize % width,
                        c % width,
                        "client {c} ({name}) landed on the wrong middleware"
                    );
                }
            }
        }
        // Deterministic.
        assert_eq!(account_for(4, 3), account_for(4, 3));
    }

    #[test]
    fn h2_run_completes_every_op_without_errors() {
        let cfg = LoadgenConfig {
            clients: 2,
            ops_per_client: 40,
            pace: 0.0, // no pacing: keep the test fast
            ..Default::default()
        };
        let r = run_h2(&cfg);
        assert_eq!(r.ops, 80);
        assert_eq!(r.errors, 0, "trace ops are pre-validated; none may fail");
        assert_eq!(r.clients, 2);
        assert_eq!(r.latency.count, 80);
    }

    #[test]
    fn read_heavy_run_completes_every_op_without_errors() {
        let cfg = LoadgenConfig {
            clients: 2,
            ops_per_client: 40,
            pace: 0.0,
            pattern: WorkloadPattern::ReadHeavy,
            ..Default::default()
        };
        let r = run_h2(&cfg);
        assert_eq!(r.system, "H2Cloud-readheavy");
        assert_eq!(r.mix, "read-heavy-98/2-depth12");
        assert_eq!(r.ops, 80);
        assert_eq!(r.errors, 0, "read-heavy trace ops are pre-validated");
    }

    #[test]
    fn migrating_run_completes_every_op_without_errors() {
        let cfg = LoadgenConfig {
            clients: 2,
            ops_per_client: 40,
            pace: 0.0,
            ..Default::default()
        };
        let r = run_h2_migrating(&cfg);
        assert_eq!(r.system, "H2Cloud-migrating");
        assert_eq!(r.ops, 80);
        assert_eq!(r.errors, 0, "live rebalance must not surface client errors");
    }

    #[test]
    fn swift_run_completes_every_op_without_errors() {
        let cfg = LoadgenConfig {
            clients: 2,
            ops_per_client: 40,
            pace: 0.0,
            ..Default::default()
        };
        let r = run_swift(&cfg);
        assert_eq!(r.ops, 80);
        assert_eq!(r.errors, 0);
    }

    #[test]
    fn pacing_slows_a_run_down() {
        // Same workload, paced vs unpaced: the paced run must take at
        // least the summed scaled virtual time of its slowest client.
        let base = LoadgenConfig {
            clients: 1,
            ops_per_client: 20,
            pace: 0.0,
            ..Default::default()
        };
        let unpaced = run_swift(&base);
        let paced = run_swift(&LoadgenConfig { pace: 0.05, ..base });
        assert!(
            paced.wall > unpaced.wall,
            "pacing added no time: {:?} vs {:?}",
            paced.wall,
            unpaced.wall
        );
    }
}
