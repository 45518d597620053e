//! POSIX-operation traces and the replayer.
//!
//! "The users' manipulations cover most of the POSIX-like file and
//! directory operations" (§5.1); experiments replay those workloads against
//! each system. The generator invents operations against a [`ModelFs`]
//! mirror so every generated operation is valid at generation time; the
//! replayer drives any [`CloudFs`] and reports per-operation timing and
//! backend counts.

use rand::Rng;

use h2fsapi::{CloudFs, FileContent, FsPath, OpReport};
use h2util::rng::{weighted_pick, Zipf};
use h2util::{H2Error, OpCtx, Result};

use crate::gen::SizeMixture;
use crate::model::ModelFs;

/// One operation of a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    Mkdir(FsPath),
    Rmdir(FsPath),
    Write(FsPath, u64),
    Read(FsPath),
    Delete(FsPath),
    Mv(FsPath, FsPath),
    Copy(FsPath, FsPath),
    List(FsPath),
    ListDetailed(FsPath),
    Stat(FsPath),
    /// STAT of a path known to be absent — the stat-before-create
    /// anti-pattern every sync client hammers metadata services with. The
    /// operation *succeeds* when the backend answers `NotFound`.
    StatAbsent(FsPath),
    /// Rewrite an *existing* file with fresh content of the given size.
    /// Same replay mechanics as [`Op::Write`], but targeted at live files
    /// so content-plane generation turnover (block release, manifest
    /// displacement) is exercised rather than pure ingest.
    Overwrite(FsPath, u64),
    /// Grow an existing file to the given *total* size (computed against
    /// the model at generation time). Simulated content identity is seeded
    /// by the path, so the grown content shares its prefix with the old
    /// generation — content-defined chunking re-chunks only the tail.
    Append(FsPath, u64),
    /// Write a new file whose content identity is the `seed`, not the
    /// path: every file written with the same seed carries *the same
    /// bytes*, so content-addressed stores deduplicate them across files
    /// and accounts.
    WriteShared(FsPath, u64, u64),
}

/// Operation class, for aggregating results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    Mkdir,
    Rmdir,
    Write,
    Read,
    Delete,
    Mv,
    Copy,
    List,
    ListDetailed,
    Stat,
    StatAbsent,
    Overwrite,
    Append,
    WriteShared,
}

impl Op {
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Mkdir(_) => OpKind::Mkdir,
            Op::Rmdir(_) => OpKind::Rmdir,
            Op::Write(_, _) => OpKind::Write,
            Op::Read(_) => OpKind::Read,
            Op::Delete(_) => OpKind::Delete,
            Op::Mv(_, _) => OpKind::Mv,
            Op::Copy(_, _) => OpKind::Copy,
            Op::List(_) => OpKind::List,
            Op::ListDetailed(_) => OpKind::ListDetailed,
            Op::Stat(_) => OpKind::Stat,
            Op::StatAbsent(_) => OpKind::StatAbsent,
            Op::Overwrite(_, _) => OpKind::Overwrite,
            Op::Append(_, _) => OpKind::Append,
            Op::WriteShared(_, _, _) => OpKind::WriteShared,
        }
    }
}

/// Relative frequencies of operation classes. The default mix is
/// read-heavy with occasional structural churn, like real sync clients.
#[derive(Debug, Clone)]
pub struct TraceMix {
    /// Weights indexed as [mkdir, rmdir, write, read, delete, mv, copy,
    /// list, list_detailed, stat, stat_absent, overwrite, append,
    /// write_shared].
    pub weights: [f64; 14],
}

impl Default for TraceMix {
    fn default() -> Self {
        TraceMix {
            weights: [
                4.0, 1.0, 18.0, 30.0, 3.0, 2.0, 1.0, 14.0, 7.0, 20.0, 0.0, 0.0, 0.0, 0.0,
            ],
        }
    }
}

impl TraceMix {
    /// Directory-operation-heavy mix (stresses the paper's headline ops).
    pub fn dir_heavy() -> Self {
        TraceMix {
            weights: [
                12.0, 6.0, 8.0, 8.0, 3.0, 10.0, 6.0, 20.0, 12.0, 15.0, 0.0, 0.0, 0.0, 0.0,
            ],
        }
    }

    /// Content-churn mix: in-place overwrites and appends dominate, with
    /// enough reads to observe the rewritten content. The access shape of
    /// log shippers and sync clients editing large files in place — the
    /// regime where content-defined chunking pays (an append re-chunks the
    /// tail, not the file).
    pub fn content_churn() -> Self {
        TraceMix {
            weights: [
                1.0, 0.0, 6.0, 20.0, 1.0, 0.0, 0.0, 2.0, 0.0, 5.0, 0.0, 20.0, 25.0, 0.0,
            ],
        }
    }

    /// Shared-content mix: most ingest writes content drawn from a small
    /// pool of shared identities (the same release tarball uploaded by
    /// every user), plus reads and the occasional delete. On a
    /// content-addressed store the repeated uploads collapse to refcount
    /// bumps — see the `dedup_bytes_saved` counter.
    pub fn shared_content() -> Self {
        TraceMix {
            weights: [
                2.0, 0.0, 5.0, 18.0, 3.0, 0.0, 0.0, 2.0, 0.0, 5.0, 0.0, 0.0, 0.0, 35.0,
            ],
        }
    }

    /// Metadata-read-heavy 98/2 mix: 98% resolve-dominated reads (STAT of
    /// hot files, STAT of known-absent names, LIST, READ) against 2%
    /// writes (WRITE + MKDIR). The shape sync clients and container
    /// schedulers present to a filesystem-over-object-store: overwhelmingly
    /// stat/list probes of an existing corpus, with a trickle of ingest.
    pub fn read_heavy() -> Self {
        TraceMix {
            weights: [
                0.2, 0.0, 1.8, 6.0, 0.0, 0.0, 0.0, 9.0, 0.0, 68.0, 15.0, 0.0, 0.0, 0.0,
            ],
        }
    }
}

/// Distinct absent names probed per directory. Small on purpose: the
/// stat-before-create anti-pattern re-probes the *same* few names (lock
/// files, sentinel markers), which is what negative-entry caches absorb.
const ABSENT_POOL: usize = 4;

/// Distinct shared content identities [`Op::WriteShared`] draws from.
/// Small on purpose: dedup pays when many uploads carry the *same* bytes.
const SHARED_POOL: u64 = 4;

/// A deep-path hot set for [`Trace::generate_hot`]: reads hammer a fixed
/// population of deep files while writes land in disjoint ingest
/// directories — the access shape of a mostly-read corpus fed through a
/// separate ingest front door.
#[derive(Debug, Clone)]
pub struct HotSet {
    /// Files READ/STAT target, hottest first (Zipf-ranked by position).
    pub hot_files: Vec<FsPath>,
    /// Directories LIST targets.
    pub list_dirs: Vec<FsPath>,
    /// Directories WRITE/MKDIR land in (disjoint from the hot subtrees, so
    /// ingest churn does not invalidate the hot paths).
    pub write_dirs: Vec<FsPath>,
    /// Zipf exponent ranking `hot_files` popularity.
    pub zipf: f64,
}

/// A generated trace plus the model state it leaves behind.
#[derive(Debug, Clone)]
pub struct Trace {
    pub ops: Vec<Op>,
}

impl Trace {
    /// Generate `len` valid operations starting from `model` (which is
    /// advanced in place, staying the post-trace state).
    pub fn generate<R: Rng>(rng: &mut R, model: &mut ModelFs, len: usize, mix: &TraceMix) -> Trace {
        let sizes = SizeMixture::default();
        let mut ops = Vec::with_capacity(len);
        let mut seq = 0usize;
        while ops.len() < len {
            let dirs = model.all_dirs();
            let files = model.all_files();
            let kind = weighted_pick(rng, &mix.weights);
            let dir_zipf = Zipf::new(dirs.len(), 0.9);
            let pick_dir = |rng: &mut R| dirs[dir_zipf.sample(rng)].clone();
            let op = match kind {
                0 => {
                    seq += 1;
                    let parent = pick_dir(rng);
                    if parent.depth() >= 20 {
                        continue;
                    }
                    let p = parent.child(&format!("tdir{seq:05}")).expect("valid");
                    Op::Mkdir(p)
                }
                1 => {
                    // Remove a non-root directory if any exists.
                    let candidates: Vec<_> = dirs.iter().filter(|d| !d.is_root()).collect();
                    if candidates.is_empty() {
                        continue;
                    }
                    Op::Rmdir(candidates[rng.gen_range(0..candidates.len())].clone())
                }
                2 => {
                    seq += 1;
                    let parent = pick_dir(rng);
                    let p = parent.child(&format!("tfile{seq:05}.dat")).expect("valid");
                    Op::Write(p, sizes.sample(rng))
                }
                3 | 9 => {
                    if files.is_empty() {
                        continue;
                    }
                    let (p, _) = &files[rng.gen_range(0..files.len())];
                    if kind == 3 {
                        Op::Read(p.clone())
                    } else {
                        Op::Stat(p.clone())
                    }
                }
                4 => {
                    if files.is_empty() {
                        continue;
                    }
                    Op::Delete(files[rng.gen_range(0..files.len())].0.clone())
                }
                5 | 6 => {
                    seq += 1;
                    // Move/copy a file or a directory to a fresh name.
                    let dst_parent = pick_dir(rng);
                    let dst = dst_parent
                        .child(&format!("t{}{seq:05}", if kind == 5 { "mv" } else { "cp" }))
                        .expect("valid");
                    let src = if !files.is_empty() && rng.gen_bool(0.7) {
                        files[rng.gen_range(0..files.len())].0.clone()
                    } else {
                        let cands: Vec<_> = dirs.iter().filter(|d| !d.is_root()).collect();
                        if cands.is_empty() {
                            continue;
                        }
                        cands[rng.gen_range(0..cands.len())].clone()
                    };
                    if src == dst || src.is_ancestor_of(&dst) {
                        continue;
                    }
                    if kind == 5 {
                        Op::Mv(src, dst)
                    } else {
                        Op::Copy(src, dst)
                    }
                }
                7 => Op::List(pick_dir(rng)),
                8 => Op::ListDetailed(pick_dir(rng)),
                11 => {
                    // In-place rewrite of a live file with a fresh size.
                    if files.is_empty() {
                        continue;
                    }
                    let (p, _) = &files[rng.gen_range(0..files.len())];
                    Op::Overwrite(p.clone(), sizes.sample(rng))
                }
                12 => {
                    // Grow a live file: the op records the *total* size so
                    // replay needs no state. Deltas stay in the small-edit
                    // regime (≤ 256 KiB) — a log line, not a new file.
                    if files.is_empty() {
                        continue;
                    }
                    let (p, size) = &files[rng.gen_range(0..files.len())];
                    let delta = rng.gen_range(1..=256 * 1024u64);
                    Op::Append(p.clone(), size + delta)
                }
                13 => {
                    // Upload from a small pool of shared content
                    // identities; the size is a function of the seed, so
                    // equal seeds mean byte-identical files.
                    seq += 1;
                    let parent = pick_dir(rng);
                    let p = parent.child(&format!("tshare{seq:05}.dat")).expect("valid");
                    let seed = rng.gen_range(0..SHARED_POOL);
                    Op::WriteShared(p, (seed + 1) * 192 * 1024, seed)
                }
                _ => {
                    // Stat-before-create: probe a name that never exists
                    // (generated names use tdir/tfile/tmv/tcp prefixes, so
                    // `.probe*` can't collide; the model validates anyway).
                    let parent = pick_dir(rng);
                    let j = rng.gen_range(0..ABSENT_POOL);
                    Op::StatAbsent(parent.child(&format!(".probe{j}")).expect("valid"))
                }
            };
            // Validate against the model; ops that have become invalid
            // (e.g. rmdir of an ancestor of a chosen dst) are skipped.
            if Self::apply_model(model, &op).is_ok() {
                ops.push(op);
            }
        }
        Trace { ops }
    }

    /// Generate `len` valid operations against a fixed [`HotSet`] instead
    /// of the whole model: reads/stats Zipf-pick hot files, stat-absent
    /// probes the hot files' directories, lists hit `list_dirs`, and
    /// writes/mkdirs land in `write_dirs`. Destructive structural ops
    /// (rmdir/delete/mv/copy) are unsupported — their mix weights must be
    /// zero — so the hot set stays valid for the whole trace.
    pub fn generate_hot<R: Rng>(
        rng: &mut R,
        model: &mut ModelFs,
        len: usize,
        mix: &TraceMix,
        hot: &HotSet,
    ) -> Trace {
        assert!(
            !hot.hot_files.is_empty() && !hot.list_dirs.is_empty() && !hot.write_dirs.is_empty(),
            "hot set must name files, list dirs and write dirs"
        );
        assert!(
            [1, 4, 5, 6].iter().all(|&i| mix.weights[i] == 0.0),
            "hot-set traces support no destructive structural ops"
        );
        let sizes = SizeMixture::default();
        let file_zipf = Zipf::new(hot.hot_files.len(), hot.zipf);
        let pick_file = |rng: &mut R| hot.hot_files[file_zipf.sample(rng)].clone();
        let mut ops = Vec::with_capacity(len);
        let mut seq = 0usize;
        while ops.len() < len {
            let kind = weighted_pick(rng, &mix.weights);
            let op = match kind {
                0 => {
                    seq += 1;
                    let parent = &hot.write_dirs[rng.gen_range(0..hot.write_dirs.len())];
                    Op::Mkdir(parent.child(&format!("tdir{seq:05}")).expect("valid"))
                }
                2 => {
                    seq += 1;
                    let parent = &hot.write_dirs[rng.gen_range(0..hot.write_dirs.len())];
                    let p = parent.child(&format!("tfile{seq:05}.dat")).expect("valid");
                    // Metadata-focused leg: keep payloads in the small-file
                    // regime so transfer time doesn't drown resolve time.
                    Op::Write(p, sizes.sample(rng).min(128 * 1024))
                }
                3 => Op::Read(pick_file(rng)),
                7 => Op::List(hot.list_dirs[rng.gen_range(0..hot.list_dirs.len())].clone()),
                8 => Op::ListDetailed(hot.list_dirs[rng.gen_range(0..hot.list_dirs.len())].clone()),
                9 => Op::Stat(pick_file(rng)),
                _ => {
                    let f = pick_file(rng);
                    let parent = f.parent().expect("hot files are below root");
                    let j = rng.gen_range(0..ABSENT_POOL);
                    Op::StatAbsent(parent.child(&format!(".probe{j}")).expect("valid"))
                }
            };
            if Self::apply_model(model, &op).is_ok() {
                ops.push(op);
            }
        }
        Trace { ops }
    }

    /// Apply one op to the model (the semantics oracle).
    pub fn apply_model(model: &mut ModelFs, op: &Op) -> Result<()> {
        match op {
            Op::Mkdir(p) => model.mkdir(p),
            Op::Rmdir(p) => model.rmdir(p),
            Op::Write(p, size) => model.write(p, *size),
            Op::Read(p) => model.read(p).map(|_| ()),
            Op::Delete(p) => model.delete_file(p),
            Op::Mv(a, b) => model.mv(a, b),
            Op::Copy(a, b) => model.copy(a, b),
            Op::List(p) => model.list(p).map(|_| ()),
            Op::ListDetailed(p) => model.list_detailed(p).map(|_| ()),
            Op::Stat(p) => model.stat(p).map(|_| ()),
            Op::StatAbsent(p) => match model.stat(p) {
                Err(_) => Ok(()),
                Ok(_) => Err(H2Error::AlreadyExists(format!(
                    "stat-absent target {p} exists"
                ))),
            },
            Op::Overwrite(p, size) => match model.stat(p) {
                Ok(_) => model.write(p, *size),
                Err(e) => Err(e),
            },
            Op::Append(p, total) => match model.read(p) {
                Ok(old) if old < *total => model.write(p, *total),
                Ok(old) => Err(H2Error::Conflict(format!(
                    "append to {p} would shrink it ({old} -> {total})"
                ))),
                Err(e) => Err(e),
            },
            Op::WriteShared(p, size, _) => model.write(p, *size),
        }
    }

    /// Apply one op to a real backend.
    pub fn apply_fs(fs: &dyn CloudFs, ctx: &mut OpCtx, account: &str, op: &Op) -> Result<()> {
        match op {
            Op::Mkdir(p) => fs.mkdir(ctx, account, p),
            Op::Rmdir(p) => fs.rmdir(ctx, account, p),
            Op::Write(p, size) => fs.write(ctx, account, p, FileContent::Simulated(*size)),
            Op::Read(p) => fs.read(ctx, account, p).map(|_| ()),
            Op::Delete(p) => fs.delete_file(ctx, account, p),
            Op::Mv(a, b) => fs.mv(ctx, account, a, b),
            Op::Copy(a, b) => fs.copy(ctx, account, a, b),
            Op::List(p) => fs.list(ctx, account, p).map(|_| ()),
            Op::ListDetailed(p) => fs.list_detailed(ctx, account, p).map(|_| ()),
            Op::Stat(p) => fs.stat(ctx, account, p).map(|_| ()),
            Op::StatAbsent(p) => match fs.stat(ctx, account, p) {
                Err(H2Error::NotFound(_)) => Ok(()),
                Ok(_) => Err(H2Error::AlreadyExists(format!(
                    "stat-absent target {p} exists"
                ))),
                Err(e) => Err(e),
            },
            // Overwrite and append replay as plain writes: simulated
            // content identity is path-seeded, so the appended file shares
            // its prefix with the old generation by construction.
            Op::Overwrite(p, size) => fs.write(ctx, account, p, FileContent::Simulated(*size)),
            Op::Append(p, total) => fs.write(ctx, account, p, FileContent::Simulated(*total)),
            Op::WriteShared(p, size, seed) => fs.write(
                ctx,
                account,
                p,
                FileContent::SimulatedShared {
                    size: *size,
                    seed: *seed,
                },
            ),
        }
    }

    /// Replay the trace against a backend, one fresh context per op.
    /// Returns per-op reports (same order as `ops`).
    pub fn replay(
        &self,
        fs: &dyn CloudFs,
        account: &str,
        model: std::sync::Arc<h2util::CostModel>,
    ) -> Result<Vec<(OpKind, OpReport)>> {
        let mut out = Vec::with_capacity(self.ops.len());
        for op in &self.ops {
            let mut ctx = OpCtx::new(model.clone());
            Self::apply_fs(fs, &mut ctx, account, op)?;
            out.push((op.kind(), OpReport::from_ctx(&ctx)));
        }
        Ok(out)
    }
}

/// Aggregate mean virtual time per op kind, in milliseconds.
pub fn mean_ms_by_kind(results: &[(OpKind, OpReport)]) -> Vec<(OpKind, f64, usize)> {
    use std::collections::HashMap;
    let mut acc: HashMap<OpKind, (f64, usize)> = HashMap::new();
    for (kind, rep) in results {
        let e = acc.entry(*kind).or_default();
        e.0 += rep.time.as_secs_f64() * 1e3;
        e.1 += 1;
    }
    let mut out: Vec<_> = acc
        .into_iter()
        .map(|(k, (total, n))| (k, total / n as f64, n))
        .collect();
    out.sort_by_key(|(k, _, _)| format!("{k:?}"));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2util::rng::rng;

    #[test]
    fn generated_traces_are_valid_against_a_fresh_model() {
        let mut r = rng(11);
        let mut model = ModelFs::new();
        let trace = Trace::generate(&mut r, &mut model, 300, &TraceMix::default());
        assert_eq!(trace.ops.len(), 300);
        // Replaying the same trace on a fresh model must succeed for every
        // op (generation validated each against the evolving state).
        let mut fresh = ModelFs::new();
        for op in &trace.ops {
            Trace::apply_model(&mut fresh, op)
                .unwrap_or_else(|e| panic!("invalid generated op {op:?}: {e}"));
        }
    }

    #[test]
    fn trace_generation_is_deterministic() {
        let t1 = Trace::generate(&mut rng(5), &mut ModelFs::new(), 100, &TraceMix::default());
        let t2 = Trace::generate(&mut rng(5), &mut ModelFs::new(), 100, &TraceMix::default());
        assert_eq!(t1.ops, t2.ops);
    }

    #[test]
    fn dir_heavy_mix_produces_more_dir_ops() {
        let count_dir_ops = |mix: &TraceMix| {
            let t = Trace::generate(&mut rng(9), &mut ModelFs::new(), 400, mix);
            t.ops
                .iter()
                .filter(|o| {
                    matches!(
                        o.kind(),
                        OpKind::Mkdir | OpKind::Rmdir | OpKind::Mv | OpKind::List
                    )
                })
                .count()
        };
        assert!(count_dir_ops(&TraceMix::dir_heavy()) > count_dir_ops(&TraceMix::default()));
    }

    #[test]
    fn read_heavy_hot_trace_is_valid_and_98_2() {
        use crate::gen::FsSpec;
        let spec = FsSpec::deep_hot(8, 8, 4, 4, 1024);
        let mut model = spec.to_model();
        let hot = spec.hot_set(1.1);
        let mut r = rng(21);
        let t = Trace::generate_hot(&mut r, &mut model, 500, &TraceMix::read_heavy(), &hot);
        assert_eq!(t.ops.len(), 500);
        // Replays cleanly on a fresh model (StatAbsent targets stay absent).
        let mut fresh = spec.to_model();
        for op in &t.ops {
            Trace::apply_model(&mut fresh, op)
                .unwrap_or_else(|e| panic!("invalid generated op {op:?}: {e}"));
        }
        // Read-class ops ≈ 98% of the mix.
        let reads = t
            .ops
            .iter()
            .filter(|o| {
                matches!(
                    o.kind(),
                    OpKind::Read | OpKind::Stat | OpKind::StatAbsent | OpKind::List
                )
            })
            .count();
        let frac = reads as f64 / t.ops.len() as f64;
        assert!((0.93..=1.0).contains(&frac), "read fraction {frac}");
        // Stat targets really are depth-8 paths.
        let deep_stat = t
            .ops
            .iter()
            .find_map(|o| match o {
                Op::Stat(p) => Some(p.depth()),
                _ => None,
            })
            .expect("mix contains stats");
        assert_eq!(deep_stat, 8);
        // Deterministic.
        let t2 = Trace::generate_hot(
            &mut rng(21),
            &mut spec.to_model(),
            500,
            &TraceMix::read_heavy(),
            &hot,
        );
        assert_eq!(t.ops, t2.ops);
    }

    #[test]
    fn content_churn_mix_replays_cleanly_and_appends_grow() {
        let mut r = rng(33);
        let mut model = ModelFs::new();
        let t = Trace::generate(&mut r, &mut model, 400, &TraceMix::content_churn());
        assert_eq!(t.ops.len(), 400);
        let mut fresh = ModelFs::new();
        for op in &t.ops {
            Trace::apply_model(&mut fresh, op)
                .unwrap_or_else(|e| panic!("invalid generated op {op:?}: {e}"));
        }
        // The mix actually exercises both in-place shapes.
        let overwrites = t
            .ops
            .iter()
            .filter(|o| o.kind() == OpKind::Overwrite)
            .count();
        let appends = t.ops.iter().filter(|o| o.kind() == OpKind::Append).count();
        assert!(overwrites > 0, "no overwrites generated");
        assert!(appends > 0, "no appends generated");
    }

    #[test]
    fn shared_content_mix_repeats_seeds_across_files() {
        let mut r = rng(34);
        let mut model = ModelFs::new();
        let t = Trace::generate(&mut r, &mut model, 400, &TraceMix::shared_content());
        let mut fresh = ModelFs::new();
        for op in &t.ops {
            Trace::apply_model(&mut fresh, op)
                .unwrap_or_else(|e| panic!("invalid generated op {op:?}: {e}"));
        }
        // Many distinct files draw from few shared identities, and equal
        // seeds always mean equal sizes (byte-identical content).
        use std::collections::HashMap;
        let mut by_seed: HashMap<u64, (u64, usize)> = HashMap::new();
        for op in &t.ops {
            if let Op::WriteShared(_, size, seed) = op {
                let e = by_seed.entry(*seed).or_insert((*size, 0));
                assert_eq!(e.0, *size, "seed {seed} used with two sizes");
                e.1 += 1;
            }
        }
        assert!(!by_seed.is_empty(), "no shared writes generated");
        assert!(
            by_seed.values().any(|(_, n)| *n > 1),
            "no shared identity was reused"
        );
    }

    #[test]
    fn stat_absent_succeeds_only_on_missing_paths() {
        let mut model = ModelFs::new();
        let p = h2fsapi::FsPath::parse("/a").unwrap();
        assert!(Trace::apply_model(&mut model, &Op::StatAbsent(p.clone())).is_ok());
        model.mkdir(&p).unwrap();
        assert!(Trace::apply_model(&mut model, &Op::StatAbsent(p)).is_err());
    }

    #[test]
    fn mean_aggregation() {
        use std::time::Duration;
        let reports = vec![
            (
                OpKind::Read,
                OpReport {
                    time: Duration::from_millis(10),
                    backend: Default::default(),
                },
            ),
            (
                OpKind::Read,
                OpReport {
                    time: Duration::from_millis(30),
                    backend: Default::default(),
                },
            ),
            (
                OpKind::Mkdir,
                OpReport {
                    time: Duration::from_millis(5),
                    backend: Default::default(),
                },
            ),
        ];
        let means = mean_ms_by_kind(&reports);
        let read = means.iter().find(|(k, _, _)| *k == OpKind::Read).unwrap();
        assert!((read.1 - 20.0).abs() < 1e-9);
        assert_eq!(read.2, 2);
    }
}
