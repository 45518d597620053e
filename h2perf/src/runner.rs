//! One benchmark run against an `H2Cloud`: set-up, closed-loop clients
//! with inline maintenance, the measured window, drain, and the
//! correctness gate.
//!
//! One client thread per core, each bound to its own account and, by
//! sticky routing, its own middleware. A client sends its next op only
//! after the previous one returns (closed loop, no pacing). The layer's
//! polling threads (`H2Layer::run_threaded`) are not started: every
//! [`MAINT_EVERY`] ops a client runs its middleware's maintenance itself —
//! `step_merges`, `take_outbox` into every peer's inbox, then
//! `on_gossip_batch` over its own inbox — so maintenance is timed from
//! outside and its CPU counts against throughput. As in the threaded
//! fabric, each middleware's maintenance runs on one thread, its own
//! client's; the middlewares form a full mesh (every outbox goes to every
//! peer directly), so news never needs forwarding.
//!
//! Op streams are generated in bounded chunks between measured slices of
//! [`CHUNK`] wall time, with all clients paused, so generation stays out of
//! the timed window.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

use h2cloud::middleware::{
    GossipMsg, GETS_SAVED, NEG_CACHE_HITS, PATH_CACHE_HITS, PATH_CACHE_MISSES, RING_CACHE_HITS,
    RING_CACHE_MISSES, RING_FETCHES,
};
use h2cloud::{H2Cloud, H2Config, H2Middleware, MaintenanceMode};
use h2fsapi::{CloudFs, EntryKind, FileContent, FsPath, StoreStats};
use h2util::rng::derive_seed;
use h2util::trace::{
    RootTrace, Span, DEFAULT_TRACE_CAP, STAGE_BACKOFF_MS, STAGE_CONTENT_MS, STAGE_QUORUM_MS,
    STAGE_RING_MS,
};
use h2util::{BackendCounts, CostModel, H2Error, OpCtx};
use h2workload::{FsSpec, ModelFs};

use crate::hist::Hist;
use crate::probe;
use crate::workload::{Generator, Op, Workload, KINDS, KIND_NAMES};

/// Client ops between two inline maintenance steps.
pub const MAINT_EVERY: u64 = 16;
/// Wall time of one measured slice between generation pauses.
pub const CHUNK: Duration = Duration::from_millis(250);
/// Slices per reporting window. Real-time figures are medians over ~1 s
/// windows, so a burst of interference from outside the benchmark moves
/// a window, not the result.
pub const CHUNKS_PER_WINDOW: usize = 4;
/// Ops queued per slice, relative to the rate the client last ran at.
const HEADROOM: f64 = 1.5;
/// Parsed NameRings each middleware caches (the serving configuration
/// `loadgen` measures).
pub const CACHE_RINGS: usize = 1024;
/// Delivery attempts before a gossip message counts as lost.
const GOSSIP_ATTEMPTS: u32 = 8;
/// Set-ups are timed back to back, at least [`SETUP_MIN`] times and until
/// [`SETUP_MIN_TOTAL`] has passed (at most [`SETUP_MAX`] times), so the
/// median of a short set-up is not one noisy sample. The last one is
/// measured.
pub const SETUP_MIN: usize = 3;
pub const SETUP_MIN_TOTAL: Duration = Duration::from_secs(1);
pub const SETUP_MAX: usize = 101;
/// Benchmark spans kept per client for a chrome trace.
const SPAN_CAP: usize = 20_000;

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Client threads (and middlewares).
    pub clients: usize,
    /// Run exactly this many measured ops per client instead of a timed
    /// window, so modeled costs repeat exactly.
    pub ops_per_client: Option<u64>,
    pub warmup_ops: usize,
    /// Sample every op into the program's traces and time every call into
    /// the layers from outside.
    pub traced: bool,
    /// Keep spans for a chrome trace (traced runs only).
    pub keep_spans: bool,
}

impl Config {
    pub fn new(workload: Workload, seed: u64, seconds: f64) -> Config {
        Config {
            workload,
            seed,
            seconds,
            clients: probe::nproc(),
            ops_per_client: None,
            warmup_ops: workload.warmup_ops(),
            traced: false,
            keep_spans: false,
        }
    }
}

/// Per-op-kind totals over the measured window.
#[derive(Debug, Clone, Copy, Default)]
pub struct KindStat {
    pub ops: u64,
    pub cpu_ns: u64,
    pub vns: u64,
    pub reqs: u64,
}

/// Maintenance work timed from outside (traced runs only).
#[derive(Debug, Clone, Copy, Default)]
pub struct MaintStats {
    pub merge_calls: u64,
    pub merge_idle_calls: u64,
    pub merge_rings: u64,
    pub merge_failed: u64,
    pub merge_wall_ns: u64,
    pub merge_cpu_ns: u64,
    pub merge_vns: u64,
    pub merge_reqs: u64,
    pub gossip_msgs: u64,
    pub gossip_news: u64,
    pub gossip_failed: u64,
    pub gossip_wall_ns: u64,
    pub gossip_cpu_ns: u64,
    pub max_pending: u64,
}

impl MaintStats {
    fn add(&mut self, o: &MaintStats) {
        self.merge_calls += o.merge_calls;
        self.merge_idle_calls += o.merge_idle_calls;
        self.merge_rings += o.merge_rings;
        self.merge_failed += o.merge_failed;
        self.merge_wall_ns += o.merge_wall_ns;
        self.merge_cpu_ns += o.merge_cpu_ns;
        self.merge_vns += o.merge_vns;
        self.merge_reqs += o.merge_reqs;
        self.gossip_msgs += o.gossip_msgs;
        self.gossip_news += o.gossip_news;
        self.gossip_failed += o.gossip_failed;
        self.gossip_wall_ns += o.gossip_wall_ns;
        self.gossip_cpu_ns += o.gossip_cpu_ns;
        self.max_pending = self.max_pending.max(o.max_pending);
    }
}

/// A benchmark-side span around one call into a layer (wall and thread
/// CPU time, relative to the run's start).
#[derive(Debug, Clone, Copy)]
struct BenchSpan {
    name: &'static str,
    client: usize,
    start: Duration,
    wall: Duration,
    cpu: Duration,
}

/// Program counters read before and after the measured window.
#[derive(Debug, Clone, Default)]
pub struct Snap {
    /// Values of [`COUNTERS`], in order.
    pub counters: Vec<u64>,
    /// Summed virtual µs of the `stage_*` histograms, in [`STAGES`] order.
    pub stage_us: Vec<f64>,
    pub bg: BackendCounts,
    pub hedged_reads: u64,
    pub handoff_skips: u64,
}

pub const COUNTERS: [&str; 7] = [
    RING_CACHE_HITS,
    RING_CACHE_MISSES,
    PATH_CACHE_HITS,
    PATH_CACHE_MISSES,
    NEG_CACHE_HITS,
    RING_FETCHES,
    GETS_SAVED,
];

pub const STAGES: [&str; 4] = [
    STAGE_RING_MS,
    STAGE_CONTENT_MS,
    STAGE_BACKOFF_MS,
    STAGE_QUORUM_MS,
];

impl Snap {
    fn take(fs: &H2Cloud) -> Snap {
        let mut snap = Snap {
            counters: COUNTERS
                .iter()
                .map(|c| fs.metrics().counter_value(c))
                .collect(),
            stage_us: STAGES
                .iter()
                .map(|s| {
                    let h = fs.metrics().histogram(s);
                    h.mean().as_secs_f64() * 1e6 * h.count() as f64
                })
                .collect(),
            hedged_reads: fs.cluster().hedged_read_count(),
            handoff_skips: fs.cluster().handoff_scan_skips(),
            ..Snap::default()
        };
        for mw in fs.layer().middlewares() {
            snap.bg.add(&mw.background_spend().1);
        }
        snap
    }

    /// `self - before`, field by field.
    fn since(&self, before: &Snap) -> Snap {
        let sub = |a: &[u64], b: &[u64]| a.iter().zip(b).map(|(x, y)| x - y).collect();
        let (a, b) = (&self.bg, &before.bg);
        let bg = BackendCounts {
            gets: a.gets - b.gets,
            puts: a.puts - b.puts,
            deletes: a.deletes - b.deletes,
            heads: a.heads - b.heads,
            copies: a.copies - b.copies,
            db_queries: a.db_queries - b.db_queries,
            db_updates: a.db_updates - b.db_updates,
            index_rpcs: a.index_rpcs - b.index_rpcs,
        };
        Snap {
            counters: sub(&self.counters, &before.counters),
            stage_us: self
                .stage_us
                .iter()
                .zip(&before.stage_us)
                .map(|(a, b)| a - b)
                .collect(),
            bg,
            hedged_reads: self.hedged_reads - before.hedged_reads,
            handoff_skips: self.handoff_skips - before.handoff_skips,
        }
    }
}

/// One reporting window (up to [`CHUNKS_PER_WINDOW`] slices).
#[derive(Clone, Default)]
pub struct Window {
    pub chunks: usize,
    pub wall: Duration,
    pub ops: u64,
    pub lat: Hist,
}

/// Everything one run measured.
pub struct Outcome {
    pub clients: usize,
    /// Measured ops issued and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Summed wall time of the measured slices.
    pub window: Duration,
    /// Real per-op latency and throughput per window.
    pub windows: Vec<Window>,
    /// Real and modeled (`OpCtx::elapsed`) per-op latency over the whole
    /// window, in ns.
    pub lat: Hist,
    pub vlat: Hist,
    /// Foreground object-store primitives of the measured ops.
    pub fg: BackendCounts,
    pub kinds: [KindStat; KINDS],
    pub maint: MaintStats,
    /// Program counters over the measured window.
    pub delta: Snap,
    /// Storage after the drain, and the live user data it holds.
    pub storage: StoreStats,
    pub live_files: u64,
    pub live_dirs: u64,
    pub live_bytes: u64,
    /// Entries and file bytes RMDIR left for lazy reclamation (no
    /// garbage-collection pass runs during a benchmark).
    pub deferred_entries: u64,
    pub deferred_bytes: u64,
    pub cas_blocks_written: u64,
    pub cas_blocks_shared: u64,
    pub dedup_bytes_saved: u64,
    pub setup: Vec<Duration>,
    pub drain: Duration,
    /// The process's resident high-water mark at the end of the warm-up:
    /// the populated system with warm caches, plus the program and the
    /// generator state. (Growth during the timed window scales with how
    /// many ops the window fits, so it would penalise a faster program.)
    pub peak_rss_mb: f64,
    /// `Err` describes the first correctness violation found.
    pub gate: Result<(), String>,
    /// Program traces plus benchmark spans (when spans were kept).
    pub traces: Vec<RootTrace>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.gate.is_ok() && self.failed == 0
    }
}

/// Account name for client `c` chosen so sticky routing lands it on
/// middleware `c % width` (as `h2bench::loadgen::account_for` does).
pub fn account_for(width: usize, c: usize) -> String {
    (0u32..)
        .map(|k| {
            if k == 0 {
                format!("user{c}")
            } else {
                format!("user{c}-{k}")
            }
        })
        .find(|name| width <= 1 || h2util::hash64(name.as_bytes()) as usize % width == c % width)
        .expect("some suffix hashes to every middleware")
}

/// The serving configuration under test.
fn build(cfg: &Config) -> H2Cloud {
    H2Cloud::new(H2Config {
        middlewares: cfg.clients,
        mode: MaintenanceMode::Deferred,
        cache_capacity: CACHE_RINGS,
        trace_sample: if cfg.traced { 1.0 } else { 0.0 },
        group_commit: true,
        path_cache: true,
        neg_cache: true,
        hedged_reads: true,
        ..H2Config::default()
    })
}

/// Issue one op and check its reply against what the model expects.
fn apply(fs: &H2Cloud, ctx: &mut OpCtx, account: &str, op: &Op) -> Result<(), String> {
    let want = |ok: bool, what: String| if ok { Ok(()) } else { Err(what) };
    let e = |e: H2Error| e.to_string();
    match op {
        Op::Mkdir(p) => fs.mkdir(ctx, account, p).map_err(e),
        Op::Rmdir(p) => fs.rmdir(ctx, account, p).map_err(e),
        Op::Write(p, s) | Op::Overwrite(p, s) | Op::Append(p, s) => fs
            .write(ctx, account, p, FileContent::Simulated(*s))
            .map_err(e),
        Op::Read(p, s) => {
            let got = fs.read(ctx, account, p).map_err(e)?.len();
            want(got == *s, format!("read {got} bytes, model holds {s}"))
        }
        Op::Delete(p) => fs.delete_file(ctx, account, p).map_err(e),
        Op::Mv(a, b) => fs.mv(ctx, account, a, b).map_err(e),
        Op::Copy(a, b) => fs.copy(ctx, account, a, b).map_err(e),
        Op::List(p, n) => {
            let got = fs.list(ctx, account, p).map_err(e)?.len();
            want(got == *n, format!("listed {got} names, model holds {n}"))
        }
        Op::ListDetailed(p, n) => {
            let got = fs.list_detailed(ctx, account, p).map_err(e)?.len();
            want(got == *n, format!("listed {got} entries, model holds {n}"))
        }
        Op::Stat(p, s) => {
            let got = fs.stat(ctx, account, p).map_err(e)?;
            want(
                got.kind == EntryKind::File && got.size == *s,
                format!(
                    "stat {:?} of {} bytes, model holds a {s}-byte file",
                    got.kind, got.size
                ),
            )
        }
        Op::StatAbsent(p) => match fs.stat(ctx, account, p) {
            Err(H2Error::NotFound(_)) => Ok(()),
            Ok(_) => Err("stat found a path the model lacks".into()),
            Err(other) => Err(other.to_string()),
        },
    }
}

/// Gossip posted to one middleware, with the delivery attempts each
/// message has had.
#[derive(Default)]
struct Inbox(Mutex<Vec<(GossipMsg, u32)>>);

impl Inbox {
    fn post(&self, msgs: impl IntoIterator<Item = (GossipMsg, u32)>) {
        self.0
            .lock()
            .expect("no client panics holding it")
            .extend(msgs);
    }

    fn take(&self) -> Vec<(GossipMsg, u32)> {
        std::mem::take(&mut *self.0.lock().expect("no client panics holding it"))
    }
}

/// Apply `batch` to `mw` in one `on_gossip_batch` call. Failed messages go
/// back to `inbox` for another attempt. Returns `(news, failed, lost)`.
fn apply_gossip(mw: &H2Middleware, inbox: &Inbox, batch: Vec<(GossipMsg, u32)>) -> (u64, u64, u64) {
    let msgs: Vec<GossipMsg> = batch.iter().map(|(m, _)| m.clone()).collect();
    let (mut news, mut failed, mut lost) = (0, 0, 0);
    let mut retry = Vec::new();
    for ((msg, attempts), res) in batch.into_iter().zip(mw.on_gossip_batch(&msgs)) {
        match res {
            Ok(fresh) => news += u64::from(fresh),
            Err(_) => {
                failed += 1;
                if attempts + 1 < GOSSIP_ATTEMPTS {
                    retry.push((msg, attempts + 1));
                } else {
                    lost += 1;
                }
            }
        }
    }
    inbox.post(retry);
    (news, failed, lost)
}

/// State shared by the coordinator and the clients.
struct Shared {
    barrier: Barrier,
    stop: AtomicBool,
    /// Clients that have spent their op budget.
    done: AtomicUsize,
    /// `(start, end)` of each client's part of the current slice.
    slices: Mutex<Vec<(Instant, Instant)>>,
}

struct Client<'a> {
    idx: usize,
    account: String,
    fs: &'a H2Cloud,
    cost: Arc<CostModel>,
    mws: &'a [Arc<H2Middleware>],
    /// Gossip addressed to each middleware, with delivery attempts so far.
    inboxes: &'a [Inbox],
    traced: bool,
    keep_spans: bool,
    origin: Instant,
    gen: Generator,
    queue: VecDeque<Op>,
    since_maint: u64,
    measuring: bool,
    /// Reporting window the current slice belongs to.
    window: usize,
    stats: ClientStats,
}

#[derive(Default)]
struct ClientStats {
    /// Ops and latency per window, indexed by window.
    windows: Vec<(u64, Hist)>,
    lat: Hist,
    vlat: Hist,
    ops: u64,
    failed: u64,
    /// Ops outside the measured window (warm-up, leftovers) that failed.
    failed_unmeasured: u64,
    lost_gossip: u64,
    first_error: Option<String>,
    fg: BackendCounts,
    kinds: [KindStat; KINDS],
    maint: MaintStats,
    spans: Vec<BenchSpan>,
}

impl Client<'_> {
    /// Run one op; returns when it finished.
    fn exec(&mut self, op: &Op) -> Instant {
        let mut ctx = OpCtx::new(self.cost.clone());
        let cpu0 = if self.traced {
            probe::thread_cpu()
        } else {
            Duration::ZERO
        };
        let t0 = Instant::now();
        let res = apply(self.fs, &mut ctx, &self.account, op);
        let t1 = Instant::now();
        let s = &mut self.stats;
        if let Err(e) = &res {
            s.first_error
                .get_or_insert_with(|| format!("{} {op:?}: {e}", KIND_NAMES[op.kind()]));
            if self.measuring {
                s.failed += 1;
            } else {
                s.failed_unmeasured += 1;
            }
        }
        if self.measuring {
            let wall = t1 - t0;
            let cpu = if self.traced {
                probe::thread_cpu() - cpu0
            } else {
                Duration::ZERO
            };
            let vns = ctx.elapsed().as_nanos() as u64;
            let reqs = ctx.counts();
            s.ops += 1;
            s.lat.record(wall.as_nanos() as u64);
            if s.windows.len() <= self.window {
                s.windows.resize_with(self.window + 1, Default::default);
            }
            let w = &mut s.windows[self.window];
            w.0 += 1;
            w.1.record(wall.as_nanos() as u64);
            s.vlat.record(vns);
            s.fg.add(&reqs);
            let k = &mut s.kinds[op.kind()];
            k.ops += 1;
            k.cpu_ns += cpu.as_nanos() as u64;
            k.vns += vns;
            k.reqs += reqs.total();
            self.span(KIND_NAMES[op.kind()], t0, wall, cpu);
        }
        self.since_maint += 1;
        if self.since_maint == MAINT_EVERY {
            self.since_maint = 0;
            self.maintain();
        }
        t1
    }

    fn span(&mut self, name: &'static str, start: Instant, wall: Duration, cpu: Duration) {
        if self.keep_spans && self.stats.spans.len() < SPAN_CAP {
            self.stats.spans.push(BenchSpan {
                name,
                client: self.idx,
                start: start - self.origin,
                wall,
                cpu,
            });
        }
    }

    /// Merge this middleware's pending patches, post its outbox to every
    /// peer, then apply the gossip posted to it.
    fn maintain(&mut self) {
        let me = &self.mws[self.idx];
        let timed = self.traced && self.measuring;
        let msgs = if !timed {
            me.step_merges();
            me.take_outbox()
        } else {
            let pending = me.pending_descriptors() as u64;
            let bg0 = me.background_spend();
            let cpu0 = probe::thread_cpu();
            let t0 = Instant::now();
            let out = me.step_merges();
            let wall = t0.elapsed();
            let cpu = probe::thread_cpu() - cpu0;
            let bg1 = me.background_spend();
            let m = &mut self.stats.maint;
            m.max_pending = m.max_pending.max(pending);
            m.merge_calls += 1;
            m.merge_idle_calls += u64::from(out.attempted() == 0);
            m.merge_rings += out.attempted() as u64;
            m.merge_failed += out.failed as u64;
            m.merge_wall_ns += wall.as_nanos() as u64;
            m.merge_cpu_ns += cpu.as_nanos() as u64;
            m.merge_vns += (bg1.0 - bg0.0).as_nanos() as u64;
            m.merge_reqs += bg1.1.total() - bg0.1.total();
            self.span("step_merges", t0, wall, cpu);
            me.take_outbox()
        };
        if !msgs.is_empty() {
            for (peer, inbox) in self.inboxes.iter().enumerate() {
                if peer != self.idx {
                    inbox.post(msgs.iter().map(|m| (m.clone(), 0)));
                }
            }
        }
        let batch = self.inboxes[self.idx].take();
        if batch.is_empty() {
            return;
        }
        let cpu0 = if timed {
            probe::thread_cpu()
        } else {
            Duration::ZERO
        };
        let t0 = Instant::now();
        let (news, failed, lost) = apply_gossip(me, &self.inboxes[self.idx], batch.clone());
        self.stats.lost_gossip += lost;
        if timed {
            let wall = t0.elapsed();
            let cpu = probe::thread_cpu() - cpu0;
            let m = &mut self.stats.maint;
            m.gossip_msgs += batch.len() as u64;
            m.gossip_news += news;
            m.gossip_failed += failed;
            m.gossip_wall_ns += wall.as_nanos() as u64;
            m.gossip_cpu_ns += cpu.as_nanos() as u64;
            self.span("on_gossip_batch", t0, wall, cpu);
        }
    }

    fn run(&mut self, sh: &Shared, warmup: usize, budget: Option<u64>) {
        for _ in 0..warmup {
            let op = self.gen.next_op();
            self.queue.push_back(op);
        }
        sh.barrier.wait();
        let t0 = Instant::now();
        while let Some(op) = self.queue.pop_front() {
            self.exec(&op);
        }
        let mut rate = warmup as f64 / t0.elapsed().as_secs_f64().max(1e-6);
        sh.barrier.wait();
        self.measuring = true;
        let mut executed = 0u64;
        for chunk in 0.. {
            self.window = chunk / CHUNKS_PER_WINDOW;
            let target = match budget {
                Some(b) => (b - executed) as usize,
                None => (rate * CHUNK.as_secs_f64() * HEADROOM) as usize + 16,
            };
            while self.queue.len() < target {
                let op = self.gen.next_op();
                self.queue.push_back(op);
            }
            sh.barrier.wait();
            let start = Instant::now();
            let deadline = budget.is_none().then(|| start + CHUNK);
            let mut n = 0u64;
            while budget.is_none_or(|b| executed < b) {
                let Some(op) = self.queue.pop_front() else {
                    break;
                };
                let end = self.exec(&op);
                n += 1;
                executed += 1;
                if deadline.is_some_and(|d| end >= d) {
                    break;
                }
            }
            let end = Instant::now();
            if n > 0 {
                rate = n as f64 / (end - start).as_secs_f64().max(1e-6);
            }
            if budget.is_some_and(|b| executed == b) && n > 0 {
                sh.done.fetch_add(1, Ordering::SeqCst);
            }
            sh.slices
                .lock()
                .expect("no client panics holding it")
                .push((start, end));
            sh.barrier.wait();
            sh.barrier.wait();
            if sh.stop.load(Ordering::SeqCst) {
                break;
            }
        }
        self.measuring = false;
        // Run what was generated but not measured, so the system reaches
        // the state the model is in.
        while let Some(op) = self.queue.pop_front() {
            self.exec(&op);
        }
    }
}

/// Compare an account's tree as one middleware serves it with the model.
fn compare_tree(fs: &H2Cloud, mw: usize, account: &str, model: &ModelFs) -> Result<(), String> {
    let view = fs.via(mw);
    let mut ctx = OpCtx::new(fs.cost_model());
    let mut stack = vec![FsPath::root()];
    while let Some(dir) = stack.pop() {
        let mut want = model.list_detailed(&dir).map_err(|e| e.to_string())?;
        let mut got = view
            .list_detailed(&mut ctx, account, &dir)
            .map_err(|e| format!("middleware {mw} lists {account}:{dir}: {e}"))?;
        want.sort_by(|a, b| a.name.cmp(&b.name));
        got.sort_by(|a, b| a.name.cmp(&b.name));
        let key = |e: &h2fsapi::DirEntry| (e.name.clone(), e.kind, e.size);
        let (w, g): (Vec<_>, Vec<_>) = (
            want.iter().map(key).collect(),
            got.iter().map(key).collect(),
        );
        if w != g {
            return Err(format!(
                "middleware {mw} serves {account}:{dir} as {} entries, model holds {}",
                g.len(),
                w.len()
            ));
        }
        for e in want {
            if e.kind == EntryKind::Directory {
                stack.push(dir.child(&e.name).expect("listed names are valid"));
            }
        }
    }
    Ok(())
}

/// Drained system vs. model, on every middleware, plus fsck.
fn gate(fs: &H2Cloud, accounts: &[String], gens: &[Generator]) -> Result<(), String> {
    for (account, gen) in accounts.iter().zip(gens) {
        if let Some(e) = gen.mix_error() {
            return Err(format!("{account} stream off its mix: {e}"));
        }
        for mw in 0..fs.layer().len() {
            compare_tree(fs, mw, account, gen.model())?;
        }
        let mut ctx = OpCtx::new(fs.cost_model());
        let report = h2cloud::check::fsck(fs, &mut ctx, account)
            .map_err(|e| format!("fsck {account}: {e}"))?;
        if !report.is_clean() {
            return Err(format!("fsck {account}: {}", report.violations.join("; ")));
        }
    }
    Ok(())
}

fn bench_traces(spans: &[BenchSpan]) -> Vec<RootTrace> {
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| RootTrace {
            seq: i as u64,
            node: 1000 + s.client as u16,
            spans: vec![Span {
                id: 1,
                parent: 0,
                stage: "bench",
                name: s.name.to_string(),
                start: s.start,
                dur: s.wall,
                err: None,
                notes: vec![("cpu_us", format!("{:.3}", s.cpu.as_secs_f64() * 1e6))],
            }],
        })
        .collect()
}

/// Run `cfg` once.
pub fn run(cfg: &Config) -> Outcome {
    assert!(cfg.clients >= 1, "need a client");
    // Inputs: corpora and generators. None of this is timed.
    let accounts: Vec<String> = (0..cfg.clients)
        .map(|c| account_for(cfg.clients, c))
        .collect();
    let specs: Vec<FsSpec> = accounts.iter().map(|a| cfg.workload.corpus(a)).collect();
    let gens: Vec<Generator> = accounts
        .iter()
        .zip(&specs)
        .map(|(a, spec)| {
            Generator::new(
                cfg.workload,
                spec,
                derive_seed(cfg.seed, &format!("{a}/ops")),
            )
        })
        .collect();

    let mut setup: Vec<Duration> = Vec::new();
    let mut fs = None;
    while setup.len() < SETUP_MIN
        || (setup.len() < SETUP_MAX && setup.iter().sum::<Duration>() < SETUP_MIN_TOTAL)
    {
        drop(fs.take());
        let t0 = Instant::now();
        let f = build(cfg);
        let mut ctx = OpCtx::new(f.cost_model());
        for (account, spec) in accounts.iter().zip(&specs) {
            f.create_account(&mut ctx, account).expect("fresh account");
            spec.populate(&f, &mut ctx, account)
                .expect("bulk import into a healthy cluster");
        }
        f.layer().pump().expect("set-up backlog drains");
        setup.push(t0.elapsed());
        fs = Some(f);
    }
    let fs = fs.expect("at least one set-up");

    let mws = fs.layer().middlewares().to_vec();
    for (c, account) in accounts.iter().enumerate() {
        assert!(
            Arc::ptr_eq(fs.layer().mw_for_account(account), &mws[c]),
            "client {c} must land on middleware {c}"
        );
    }
    let inboxes: Vec<Inbox> = mws.iter().map(|_| Inbox::default()).collect();
    let sh = Shared {
        barrier: Barrier::new(cfg.clients + 1),
        stop: AtomicBool::new(false),
        done: AtomicUsize::new(0),
        slices: Mutex::new(Vec::new()),
    };
    let origin = Instant::now();
    let mut window = Duration::ZERO;
    let mut chunk_walls = Vec::new();
    let mut delta = Snap::default();
    let mut peak_rss_mb = 0.0;
    let finished: Vec<(ClientStats, Generator)> = std::thread::scope(|s| {
        let handles: Vec<_> = gens
            .into_iter()
            .enumerate()
            .map(|(idx, gen)| {
                let mut client = Client {
                    idx,
                    account: accounts[idx].clone(),
                    fs: &fs,
                    // A private copy: a shared Arc's refcount would be one
                    // more cache line every client writes per op.
                    cost: Arc::new(CostModel::clone(&fs.cost_model())),
                    mws: &mws,
                    inboxes: &inboxes,
                    traced: cfg.traced,
                    keep_spans: cfg.keep_spans,
                    origin,
                    gen,
                    queue: VecDeque::new(),
                    since_maint: 0,
                    measuring: false,
                    window: 0,
                    stats: ClientStats::default(),
                };
                let sh = &sh;
                s.spawn(move || {
                    client.run(sh, cfg.warmup_ops, cfg.ops_per_client);
                    (client.stats, client.gen)
                })
            })
            .collect();
        sh.barrier.wait();
        sh.barrier.wait();
        peak_rss_mb = probe::peak_rss_mb();
        let before = Snap::take(&fs);
        loop {
            sh.barrier.wait();
            sh.barrier.wait();
            {
                let mut slices = sh.slices.lock().expect("no client panics holding it");
                let start = slices
                    .iter()
                    .map(|s| s.0)
                    .min()
                    .expect("every client reports");
                let end = slices
                    .iter()
                    .map(|s| s.1)
                    .max()
                    .expect("every client reports");
                window += end - start;
                chunk_walls.push(end - start);
                slices.clear();
            }
            let stop = match cfg.ops_per_client {
                Some(_) => sh.done.load(Ordering::SeqCst) == cfg.clients,
                None => window.as_secs_f64() >= cfg.seconds,
            };
            if stop {
                delta = Snap::take(&fs).since(&before);
                sh.stop.store(true, Ordering::SeqCst);
            }
            sh.barrier.wait();
            if stop {
                break;
            }
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    // Gossip still in the inboxes, then the layer's own pump.
    let t0 = Instant::now();
    let mut lost = 0;
    while inboxes
        .iter()
        .any(|i| !i.0.lock().expect("clients have exited").is_empty())
    {
        for (mw, inbox) in mws.iter().zip(&inboxes) {
            lost += apply_gossip(mw, inbox, inbox.take()).2;
        }
    }
    let drained = fs.layer().pump();
    let drain = t0.elapsed();

    let mut o = Outcome {
        clients: cfg.clients,
        attempted: 0,
        failed: 0,
        window,
        windows: chunk_walls
            .chunks(CHUNKS_PER_WINDOW)
            .map(|walls| Window {
                chunks: walls.len(),
                wall: walls.iter().sum(),
                ..Window::default()
            })
            .collect(),
        lat: Hist::default(),
        vlat: Hist::default(),
        fg: BackendCounts::default(),
        kinds: [KindStat::default(); KINDS],
        maint: MaintStats::default(),
        delta,
        storage: fs.storage_stats(),
        live_files: 0,
        live_dirs: 0,
        live_bytes: 0,
        deferred_entries: 0,
        deferred_bytes: 0,
        cas_blocks_written: fs.cluster().cas_blocks_written_count(),
        cas_blocks_shared: fs.cluster().cas_blocks_shared_count(),
        dedup_bytes_saved: fs.cluster().dedup_bytes_saved_count(),
        setup,
        drain,
        peak_rss_mb,
        gate: Ok(()),
        traces: Vec::new(),
    };
    let mut spans = Vec::new();
    let mut problems = Vec::new();
    if let Err(e) = drained {
        problems.push(format!("drain failed: {e}"));
    }
    if lost > 0 {
        problems.push(format!("{lost} gossip messages lost in the drain"));
    }
    let mut gens = Vec::new();
    for (s, gen) in finished {
        o.attempted += s.ops;
        o.failed += s.failed;
        o.lat.merge(&s.lat);
        for (w, (ops, lat)) in o.windows.iter_mut().zip(&s.windows) {
            w.ops += ops;
            w.lat.merge(lat);
        }
        o.vlat.merge(&s.vlat);
        o.fg.add(&s.fg);
        for (k, ks) in o.kinds.iter_mut().zip(&s.kinds) {
            k.ops += ks.ops;
            k.cpu_ns += ks.cpu_ns;
            k.vns += ks.vns;
            k.reqs += ks.reqs;
        }
        o.maint.add(&s.maint);
        if s.failed + s.failed_unmeasured > 0 {
            problems.push(format!(
                "{} ops failed, first: {}",
                s.failed + s.failed_unmeasured,
                s.first_error.unwrap_or_default()
            ));
        }
        if s.lost_gossip > 0 {
            problems.push(format!("{} gossip messages lost", s.lost_gossip));
        }
        let (files, dirs, bytes) = gen.live();
        o.live_files += files;
        o.live_dirs += dirs;
        o.live_bytes += bytes;
        let (entries, bytes) = gen.deferred();
        o.deferred_entries += entries;
        o.deferred_bytes += bytes;
        spans.extend(s.spans);
        gens.push(gen);
    }
    o.gate = match problems.into_iter().next() {
        Some(p) => Err(p),
        None => gate(&fs, &accounts, &gens),
    };
    if cfg.keep_spans {
        o.traces = fs.recent_traces(DEFAULT_TRACE_CAP * mws.len());
        o.traces.extend(bench_traces(&spans));
    }
    o
}
