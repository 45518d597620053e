//! The benchmark's three workloads: corpus shapes, op mixes, and the
//! generator that turns a seed into each client's op stream.
//!
//! Streams are produced incrementally, a bounded chunk at a time, against a
//! [`ModelFs`] that every op is validated on ([`Trace::apply_model`]) before
//! it is handed out. The generator keeps its own path indexes, updated op by
//! op, instead of re-enumerating the model per op the way
//! `Trace::generate` does; that keeps generation cost per op independent
//! of corpus size. Generation runs outside every timed window.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use h2fsapi::FsPath;
use h2util::rng::{derive_seed, rng, weighted_pick, Zipf};
use h2workload::{FsSpec, ModelFs, SizeMixture, Trace, TraceMix};
use rand::rngs::SmallRng;
use rand::Rng;

/// Paths are shared between the generator's indexes and queued ops.
pub type P = Arc<FsPath>;

/// Op kinds, in `TraceMix::weights` order (the mix's `write_shared` slot is
/// unused by every workload here).
pub const KINDS: usize = 13;
pub const KIND_NAMES: [&str; KINDS] = [
    "mkdir",
    "rmdir",
    "write",
    "read",
    "delete",
    "mv",
    "copy",
    "list",
    "list_detailed",
    "stat",
    "stat_absent",
    "overwrite",
    "append",
];

/// One client operation. Reads carry what the model says they must return
/// (a file's size, a listing's length), so replies are checked as they
/// arrive.
#[derive(Debug, Clone)]
pub enum Op {
    Mkdir(P),
    Rmdir(P),
    Write(P, u64),
    Read(P, u64),
    Delete(P),
    Mv(P, P),
    Copy(P, P),
    List(P, usize),
    ListDetailed(P, usize),
    Stat(P, u64),
    StatAbsent(P),
    Overwrite(P, u64),
    /// Grow a file to the given total size.
    Append(P, u64),
}

impl Op {
    /// Index into [`KIND_NAMES`] and the mix weights.
    pub fn kind(&self) -> usize {
        match self {
            Op::Mkdir(_) => 0,
            Op::Rmdir(_) => 1,
            Op::Write(..) => 2,
            Op::Read(..) => 3,
            Op::Delete(_) => 4,
            Op::Mv(..) => 5,
            Op::Copy(..) => 6,
            Op::List(..) => 7,
            Op::ListDetailed(..) => 8,
            Op::Stat(..) => 9,
            Op::StatAbsent(_) => 10,
            Op::Overwrite(..) => 11,
            Op::Append(..) => 12,
        }
    }

    fn to_trace_op(&self) -> h2workload::Op {
        use h2workload::Op as T;
        let p = |p: &P| FsPath::clone(p);
        match self {
            Op::Mkdir(a) => T::Mkdir(p(a)),
            Op::Rmdir(a) => T::Rmdir(p(a)),
            Op::Write(a, s) => T::Write(p(a), *s),
            Op::Read(a, _) => T::Read(p(a)),
            Op::Delete(a) => T::Delete(p(a)),
            Op::Mv(a, b) => T::Mv(p(a), p(b)),
            Op::Copy(a, b) => T::Copy(p(a), p(b)),
            Op::List(a, _) => T::List(p(a)),
            Op::ListDetailed(a, _) => T::ListDetailed(p(a)),
            Op::Stat(a, _) => T::Stat(p(a)),
            Op::StatAbsent(a) => T::StatAbsent(p(a)),
            Op::Overwrite(a, s) => T::Overwrite(p(a), *s),
            Op::Append(a, s) => T::Append(p(a), *s),
        }
    }
}

/// Per-client Heavy-profile corpus of `meta-churn` (§5.1's "thousands of
/// directories in different depths"). 1536 directories is 1.5× the
/// middleware's 1024-ring cache, so resolves and merges mostly miss it.
/// Every corpus is fixed (drawn from [`CORPUS_SEED`]); the benchmark seed
/// varies the op streams. A seed-drawn tree would make run-to-run spread
/// mostly a matter of which tree was drawn.
const META_DIRS: usize = 1536;
const META_FILES: usize = 12_288;
/// Depth limit and popularity skews of `FsSpec::generate`'s Heavy profile.
const META_MAX_DEPTH: usize = 22;
const META_PARENT_ZIPF: f64 = 0.8;
const META_FILE_ZIPF: f64 = 1.1;
/// Directory popularity of generated ops, as in `Trace::generate`.
const META_OP_ZIPF: f64 = 0.9;
const CORPUS_SEED: u64 = 0x4832_636f_7270;

/// `deep-read` corpus per client: 24 chains of depth 12, 4 files per leaf
/// (264 chain directories, 96 files) and 64 ingest directories. Both
/// clients' chains fit the 1024-ring cache, and the hot paths fit the path
/// cache (8× the ring cache).
///
/// New directories go under the ingest directories, and new files into the
/// most recently made ones (as many as there are ingest directories), so
/// every ring that writes touch stays small and the load does not drift as
/// a run goes on.
const DEEP_CHAINS: usize = 24;
const DEEP_DEPTH: usize = 12;
const DEEP_FILES_PER_LEAF: usize = 4;
const DEEP_WRITE_DIRS: usize = 64;
const DEEP_FILE_BYTES: u64 = 4096;
const DEEP_ZIPF: f64 = 1.1;
/// Writes of `deep-read` stay small so transfer time never drowns resolve
/// time (as in `Trace::generate_hot`).
const DEEP_WRITE_MAX: u64 = 128 * 1024;
/// Absent names probed per directory (`Trace::generate_hot`'s pool).
const ABSENT_POOL: usize = 4;

/// `large-content` corpus per client: 16 files of 24 MiB under 4 shallow
/// chains, plus 8 ingest directories used as in `deep-read`. Every file is
/// multipart (6 × 4 MiB parts), or a ~24-leaf block tree with the CAS
/// plane.
const LARGE_CHAINS: usize = 4;
const LARGE_DEPTH: usize = 3;
const LARGE_FILES_PER_LEAF: usize = 4;
const LARGE_WRITE_DIRS: usize = 8;
const LARGE_FILE_BYTES: u64 = 24 << 20;
/// Overwrites replace a file with fresh content of 20–28 MiB.
const LARGE_REWRITE_MIN: u64 = 20 << 20;
const LARGE_REWRITE_MAX: u64 = 28 << 20;
/// Appends add a log-line-sized tail, as in `Trace::generate`.
const APPEND_MAX: u64 = 256 * 1024;
const LARGE_ZIPF: f64 = 0.7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MetaChurn,
    DeepRead,
    LargeContent,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::MetaChurn,
        Workload::DeepRead,
        Workload::LargeContent,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MetaChurn => "meta-churn",
            Workload::DeepRead => "deep-read",
            Workload::LargeContent => "large-content",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn mix(self) -> TraceMix {
        match self {
            Workload::MetaChurn => TraceMix::default(),
            Workload::DeepRead => TraceMix::read_heavy(),
            Workload::LargeContent => TraceMix::content_churn(),
        }
    }

    /// Untimed ops each client runs before measuring, so caches are warm
    /// and the rate estimate that sizes generation chunks is known.
    pub fn warmup_ops(self) -> usize {
        match self {
            Workload::MetaChurn => 400,
            Workload::DeepRead => 20_000,
            Workload::LargeContent => 400,
        }
    }

    /// The corpus the account `account` is populated with.
    pub fn corpus(self, account: &str) -> FsSpec {
        match self {
            Workload::MetaChurn => heavy_corpus(&mut rng(derive_seed(CORPUS_SEED, account))),
            Workload::DeepRead => FsSpec::deep_hot(
                DEEP_CHAINS,
                DEEP_DEPTH,
                DEEP_FILES_PER_LEAF,
                DEEP_WRITE_DIRS,
                DEEP_FILE_BYTES,
            ),
            Workload::LargeContent => FsSpec::deep_hot(
                LARGE_CHAINS,
                LARGE_DEPTH,
                LARGE_FILES_PER_LEAF,
                LARGE_WRITE_DIRS,
                LARGE_FILE_BYTES,
            ),
        }
    }
}

/// `FsSpec::generate`'s Heavy-profile shape with fixed counts: each new
/// directory hangs off a Zipf-popular existing one (shallow parents
/// favoured, depth capped), and files land Zipf-skewed over directories.
fn heavy_corpus(r: &mut SmallRng) -> FsSpec {
    let mut dirs = vec![FsPath::root()];
    let mut spec = FsSpec::default();
    for i in 0..META_DIRS {
        let zipf = Zipf::new(dirs.len(), META_PARENT_ZIPF);
        let parent = loop {
            let cand = &dirs[zipf.sample(r)];
            if cand.depth() < META_MAX_DEPTH {
                break cand.clone();
            }
        };
        let p = parent.child(&format!("dir{i:05}")).expect("valid name");
        dirs.push(p.clone());
        spec.dirs.push(p);
    }
    let sizes = SizeMixture::default();
    let zipf = Zipf::new(dirs.len(), META_FILE_ZIPF);
    for i in 0..META_FILES {
        let p = dirs[zipf.sample(r)]
            .child(&format!("file{i:06}.dat"))
            .expect("valid name");
        spec.files.push((p, sizes.sample(r)));
    }
    spec
}

/// Paths with a value, supporting O(1) insert, removal and uniform or
/// ranked picks. Removal swaps the last entry into the hole.
struct Index<V> {
    items: Vec<(P, V)>,
    pos: HashMap<P, usize>,
}

impl<V: Copy> Index<V> {
    fn new() -> Self {
        Index {
            items: Vec::new(),
            pos: HashMap::new(),
        }
    }

    fn insert(&mut self, p: P, v: V) {
        match self.pos.get(&*p) {
            Some(&i) => self.items[i].1 = v,
            None => {
                self.pos.insert(p.clone(), self.items.len());
                self.items.push((p, v));
            }
        }
    }

    fn remove(&mut self, p: &FsPath) -> Option<V> {
        let i = self.pos.remove(p)?;
        let (_, v) = self.items.swap_remove(i);
        if let Some((moved, _)) = self.items.get(i) {
            self.pos.insert(moved.clone(), i);
        }
        Some(v)
    }

    fn len(&self) -> usize {
        self.items.len()
    }
}

/// Zipf ranks over a population whose size changes op by op: sampling from
/// a larger table and rejecting ranks past `n` is exactly Zipf over `n`
/// ranks, so the table is rebuilt only when `n` outgrows it (or shrinks far
/// below it).
struct RankPicker {
    s: f64,
    table: Option<Zipf>,
}

impl RankPicker {
    fn new(s: f64) -> Self {
        RankPicker { s, table: None }
    }

    fn pick(&mut self, r: &mut SmallRng, n: usize) -> usize {
        let cap = self.table.as_ref().map_or(0, Zipf::len);
        if cap < n || cap > 4 * n.max(64) {
            self.table = Some(Zipf::new(n.next_power_of_two().max(64), self.s));
        }
        let table = self.table.as_ref().expect("table built above");
        loop {
            let k = table.sample(r);
            if k < n {
                return k;
            }
        }
    }
}

/// One client's op stream.
pub struct Generator {
    workload: Workload,
    rng: SmallRng,
    mix: TraceMix,
    sizes: SizeMixture,
    model: ModelFs,
    /// Live directories, root first (root is never removed, so it stays
    /// at index 0).
    dirs: Index<()>,
    files: Index<u64>,
    dir_rank: RankPicker,
    file_rank: RankPicker,
    /// `deep-read`: the fixed hot files (Zipf rank = position), the absent
    /// names probed next to each, and the chain roots lists target.
    hot: Vec<(P, u64)>,
    probes: Vec<Arc<[P]>>,
    list_dirs: Vec<P>,
    /// `deep-read`, `large-content`: where new directories go, and the
    /// most recently made directories, where new files go.
    ingest: Vec<P>,
    write_dirs: VecDeque<P>,
    seq: u64,
    generated: [u64; KINDS],
    /// Entries and file bytes under removed directories: RMDIR only
    /// tombstones the directory, and its subtree stays stored until a
    /// garbage-collection pass.
    deferred: (u64, u64),
}

impl Generator {
    pub fn new(workload: Workload, spec: &FsSpec, seed: u64) -> Generator {
        let model = spec.to_model();
        let mut dirs = Index::new();
        dirs.insert(Arc::new(FsPath::root()), ());
        for d in &spec.dirs {
            dirs.insert(Arc::new(d.clone()), ());
        }
        let mut files = Index::new();
        for (f, size) in &spec.files {
            files.insert(Arc::new(f.clone()), *size);
        }
        let (zipf_dirs, zipf_files) = match workload {
            Workload::MetaChurn => (META_OP_ZIPF, 0.0),
            Workload::DeepRead => (0.0, DEEP_ZIPF),
            Workload::LargeContent => (0.0, LARGE_ZIPF),
        };
        let mut g = Generator {
            workload,
            rng: rng(seed),
            mix: workload.mix(),
            sizes: SizeMixture::default(),
            model,
            dirs,
            files,
            dir_rank: RankPicker::new(zipf_dirs),
            file_rank: RankPicker::new(zipf_files),
            hot: Vec::new(),
            probes: Vec::new(),
            list_dirs: Vec::new(),
            ingest: Vec::new(),
            write_dirs: VecDeque::new(),
            seq: 0,
            generated: [0; KINDS],
            deferred: (0, 0),
        };
        if workload != Workload::MetaChurn {
            let hot = spec.hot_set(0.0);
            g.ingest = hot.write_dirs.into_iter().map(Arc::new).collect();
            g.write_dirs = g.ingest.iter().cloned().collect();
            if workload == Workload::DeepRead {
                g.list_dirs = hot.list_dirs.into_iter().map(Arc::new).collect();
            }
        }
        if workload == Workload::DeepRead {
            g.hot = g.files.items.clone();
            let mut by_parent: HashMap<FsPath, Arc<[P]>> = HashMap::new();
            for (f, _) in &g.hot {
                let parent = f.parent().expect("hot files are below root");
                let probes = by_parent.entry(parent.clone()).or_insert_with(|| {
                    (0..ABSENT_POOL)
                        .map(|j| Arc::new(parent.child(&format!(".probe{j}")).expect("valid")))
                        .collect()
                });
                g.probes.push(probes.clone());
            }
        }
        g
    }

    /// The model state after every op handed out so far.
    pub fn model(&self) -> &ModelFs {
        &self.model
    }

    /// `(live files, live directories excluding the root, live bytes)`.
    pub fn live(&self) -> (u64, u64, u64) {
        let bytes = self.files.items.iter().map(|(_, s)| s).sum();
        (self.files.len() as u64, self.dirs.len() as u64 - 1, bytes)
    }

    /// `(entries, file bytes)` removed by RMDIR and left for lazy
    /// reclamation.
    pub fn deferred(&self) -> (u64, u64) {
        self.deferred
    }

    /// Every live `(directory, file)` path the indexes hold, sorted (for
    /// checking the indexes against the model).
    #[cfg(test)]
    fn indexed_paths(&self) -> (Vec<FsPath>, Vec<(FsPath, u64)>) {
        let mut dirs: Vec<FsPath> = self
            .dirs
            .items
            .iter()
            .map(|(p, _)| FsPath::clone(p))
            .collect();
        let mut files: Vec<(FsPath, u64)> = self
            .files
            .items
            .iter()
            .map(|(p, s)| (FsPath::clone(p), *s))
            .collect();
        dirs.sort();
        files.sort();
        (dirs, files)
    }

    /// The next valid op; the model and indexes advance past it.
    pub fn next_op(&mut self) -> Op {
        loop {
            let kind = weighted_pick(&mut self.rng, &self.mix.weights);
            self.seq += 1;
            let candidate = match self.workload {
                Workload::MetaChurn => self.meta_op(kind),
                Workload::DeepRead => self.deep_op(kind),
                Workload::LargeContent => self.large_op(kind),
            };
            let Some(op) = candidate else { continue };
            // A directory's subtree must be read before the op changes it.
            let subtree = match &op {
                Op::Rmdir(p) | Op::Mv(p, _) | Op::Copy(p, _) if self.model.is_dir(p) => {
                    Some(self.subtree(p))
                }
                _ => None,
            };
            if Trace::apply_model(&mut self.model, &op.to_trace_op()).is_err() {
                continue;
            }
            self.index(&op, subtree);
            self.generated[op.kind()] += 1;
            return op;
        }
    }

    /// If the op-kind shares of the stream so far stray from the mix
    /// weights by more than sampling noise, say which. A generator that
    /// silently substitutes one kind for another is caught here.
    pub fn mix_error(&self) -> Option<String> {
        let n: u64 = self.generated.iter().sum();
        let total: f64 = self.mix.weights.iter().sum();
        if n == 0 {
            return Some("no ops generated".into());
        }
        if self.mix.weights[KINDS..].iter().any(|w| *w > 0.0) {
            return Some("mix weights kinds no workload generates".into());
        }
        for (k, name) in KIND_NAMES.iter().enumerate() {
            let want = self.mix.weights[k] / total;
            let got = self.generated[k] as f64 / n as f64;
            let tol = 4.0 * (want * (1.0 - want) / n as f64).sqrt() + 0.01;
            if (got - want).abs() > tol {
                return Some(format!(
                    "{name}: {:.2}% of {n} ops, mix weight is {:.2}%",
                    got * 100.0,
                    want * 100.0
                ));
            }
        }
        None
    }

    fn fresh(&self, parent: &FsPath, prefix: &str, suffix: &str) -> P {
        Arc::new(
            parent
                .child(&format!("{prefix}{:05}{suffix}", self.seq))
                .expect("valid name"),
        )
    }

    fn pick_dir(&mut self) -> P {
        let i = self.dir_rank.pick(&mut self.rng, self.dirs.len());
        self.dirs.items[i].0.clone()
    }

    fn pick_non_root_dir(&mut self) -> Option<P> {
        let n = self.dirs.len();
        (n > 1).then(|| self.dirs.items[self.rng.gen_range(1..n)].0.clone())
    }

    fn pick_file_uniform(&mut self) -> Option<(P, u64)> {
        let n = self.files.len();
        (n > 0).then(|| self.files.items[self.rng.gen_range(0..n)].clone())
    }

    fn pick_file_ranked(&mut self) -> Option<(P, u64)> {
        let n = self.files.len();
        (n > 0).then(|| {
            let i = self.file_rank.pick(&mut self.rng, n);
            self.files.items[i].clone()
        })
    }

    fn pick_ingest_dir(&mut self) -> P {
        self.ingest[self.rng.gen_range(0..self.ingest.len())].clone()
    }

    fn pick_write_dir(&mut self) -> P {
        self.write_dirs[self.rng.gen_range(0..self.write_dirs.len())].clone()
    }

    fn listing(&self, dir: P, detailed: bool) -> Op {
        let n = self.model.list(&dir).expect("listed dirs are live").len();
        if detailed {
            Op::ListDetailed(dir, n)
        } else {
            Op::List(dir, n)
        }
    }

    /// `Trace::generate`'s default-mix logic over the incremental indexes.
    fn meta_op(&mut self, kind: usize) -> Option<Op> {
        Some(match kind {
            0 => {
                let parent = self.pick_dir();
                if parent.depth() >= 20 {
                    return None;
                }
                Op::Mkdir(self.fresh(&parent, "tdir", ""))
            }
            1 => Op::Rmdir(self.pick_non_root_dir()?),
            2 => {
                let parent = self.pick_dir();
                let size = self.sizes.sample(&mut self.rng);
                Op::Write(self.fresh(&parent, "tfile", ".dat"), size)
            }
            3 => {
                let (p, size) = self.pick_file_uniform()?;
                Op::Read(p, size)
            }
            9 => {
                let (p, size) = self.pick_file_uniform()?;
                Op::Stat(p, size)
            }
            4 => Op::Delete(self.pick_file_uniform()?.0),
            5 | 6 => {
                let parent = self.pick_dir();
                let dst = self.fresh(&parent, if kind == 5 { "tmv" } else { "tcp" }, "");
                let src = if !self.files.items.is_empty() && self.rng.gen_bool(0.7) {
                    self.pick_file_uniform()?.0
                } else {
                    self.pick_non_root_dir()?
                };
                if src == dst || src.is_ancestor_of(&dst) {
                    return None;
                }
                if kind == 5 {
                    Op::Mv(src, dst)
                } else {
                    Op::Copy(src, dst)
                }
            }
            7 | 8 => {
                let dir = self.pick_dir();
                self.listing(dir, kind == 8)
            }
            _ => return None,
        })
    }

    /// `Trace::generate_hot`'s logic: reads hit the fixed hot set, writes
    /// land in the ingest directories. Kinds the shape has no rule for are
    /// never produced (so a mix that weights them fails [`mix_error`]).
    ///
    /// [`mix_error`]: Generator::mix_error
    fn deep_op(&mut self, kind: usize) -> Option<Op> {
        let hot_file = |g: &mut Generator| {
            let i = g.file_rank.pick(&mut g.rng, g.hot.len());
            (i, g.hot[i].clone())
        };
        Some(match kind {
            0 => {
                let parent = self.pick_ingest_dir();
                Op::Mkdir(self.fresh(&parent, "tdir", ""))
            }
            2 => {
                let parent = self.pick_write_dir();
                let size = self.sizes.sample(&mut self.rng).min(DEEP_WRITE_MAX);
                Op::Write(self.fresh(&parent, "tfile", ".dat"), size)
            }
            3 => {
                let (_, (p, size)) = hot_file(self);
                Op::Read(p, size)
            }
            9 => {
                let (_, (p, size)) = hot_file(self);
                Op::Stat(p, size)
            }
            10 => {
                let (i, _) = hot_file(self);
                let j = self.rng.gen_range(0..ABSENT_POOL);
                Op::StatAbsent(self.probes[i][j].clone())
            }
            7 | 8 => {
                let dir = self.list_dirs[self.rng.gen_range(0..self.list_dirs.len())].clone();
                self.listing(dir, kind == 8)
            }
            _ => return None,
        })
    }

    /// Content churn over large files: rewrites and appends of live files
    /// (popularity-ranked), new 24 MiB files in the ingest directories.
    fn large_op(&mut self, kind: usize) -> Option<Op> {
        Some(match kind {
            0 => {
                let parent = self.pick_ingest_dir();
                Op::Mkdir(self.fresh(&parent, "tdir", ""))
            }
            2 => {
                let parent = self.pick_write_dir();
                Op::Write(self.fresh(&parent, "tfile", ".dat"), LARGE_FILE_BYTES)
            }
            3 => {
                let (p, size) = self.pick_file_ranked()?;
                Op::Read(p, size)
            }
            9 => {
                let (p, size) = self.pick_file_ranked()?;
                Op::Stat(p, size)
            }
            4 => Op::Delete(self.pick_file_uniform()?.0),
            7 => {
                let i = self.rng.gen_range(0..self.dirs.len());
                let dir = self.dirs.items[i].0.clone();
                self.listing(dir, false)
            }
            11 => {
                let (p, _) = self.pick_file_ranked()?;
                let size = self.rng.gen_range(LARGE_REWRITE_MIN..=LARGE_REWRITE_MAX);
                Op::Overwrite(p, size)
            }
            12 => {
                let (p, size) = self.pick_file_ranked()?;
                Op::Append(p, size + self.rng.gen_range(1..=APPEND_MAX))
            }
            _ => return None,
        })
    }

    /// `(directories, files)` at or below `dir` in the model.
    fn subtree(&self, dir: &FsPath) -> (Vec<FsPath>, Vec<FsPath>) {
        let (mut dirs, mut files) = (Vec::new(), Vec::new());
        let mut stack = vec![dir.clone()];
        while let Some(d) = stack.pop() {
            for e in self.model.list_detailed(&d).expect("subtree dirs are live") {
                let p = d.child(&e.name).expect("listed names are valid");
                match e.kind {
                    h2fsapi::EntryKind::Directory => stack.push(p),
                    h2fsapi::EntryKind::File => files.push(p),
                }
            }
            dirs.push(d);
        }
        (dirs, files)
    }

    /// Mirror an applied op in the indexes.
    fn index(&mut self, op: &Op, subtree: Option<(Vec<FsPath>, Vec<FsPath>)>) {
        match op {
            Op::Mkdir(p) => {
                self.dirs.insert(p.clone(), ());
                if !self.ingest.is_empty() {
                    self.write_dirs.push_back(p.clone());
                    if self.write_dirs.len() > self.ingest.len() {
                        self.write_dirs.pop_front();
                    }
                }
            }
            Op::Write(p, s) | Op::Overwrite(p, s) | Op::Append(p, s) => {
                self.files.insert(p.clone(), *s);
            }
            Op::Delete(p) => {
                self.files.remove(p);
            }
            Op::Rmdir(_) => {
                let (dirs, files) = subtree.expect("rmdir targets a directory");
                self.deferred.0 += (dirs.len() + files.len()) as u64;
                for d in dirs {
                    self.dirs.remove(&d);
                }
                for f in files {
                    self.deferred.1 += self.files.remove(&f).expect("subtree file is indexed");
                }
            }
            Op::Mv(from, to) | Op::Copy(from, to) => {
                let moving = matches!(op, Op::Mv(..));
                let Some((dirs, files)) = subtree else {
                    let size = if moving {
                        self.files.remove(from)
                    } else {
                        self.files.pos.get(&**from).map(|&i| self.files.items[i].1)
                    };
                    self.files
                        .insert(to.clone(), size.expect("source file is indexed"));
                    return;
                };
                let rebase = |p: &FsPath| Arc::new(p.rebase(from, to).expect("inside the subtree"));
                for d in dirs {
                    if moving {
                        self.dirs.remove(&d);
                    }
                    self.dirs.insert(rebase(&d), ());
                }
                for f in files {
                    let size = if moving {
                        self.files.remove(&f)
                    } else {
                        self.files.pos.get(&f).map(|&i| self.files.items[i].1)
                    };
                    self.files
                        .insert(rebase(&f), size.expect("subtree file is indexed"));
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexes_track_the_model_and_shares_match_the_mix() {
        for w in Workload::ALL {
            let spec = w.corpus("user3");
            let mut g = Generator::new(w, &spec, 4);
            for _ in 0..3000 {
                g.next_op();
            }
            let (dirs, files) = g.indexed_paths();
            assert_eq!(dirs, g.model().all_dirs(), "{}", w.name());
            assert_eq!(files, g.model().all_files(), "{}", w.name());
            assert_eq!(g.mix_error(), None, "{}", w.name());
        }
    }

    #[test]
    fn streams_repeat_per_seed() {
        let spec = Workload::MetaChurn.corpus("user1");
        let run = |seed| {
            let mut g = Generator::new(Workload::MetaChurn, &spec, seed);
            (0..500)
                .map(|_| format!("{:?}", g.next_op()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn mix_check_catches_a_substituted_kind() {
        let spec = Workload::DeepRead.corpus("user0");
        let mut g = Generator::new(Workload::DeepRead, &spec, 1);
        // An overwrite weight on the hot-set shape, which has no overwrite
        // rule: the stream cannot honour it.
        g.mix.weights[11] = 20.0;
        for _ in 0..2000 {
            g.next_op();
        }
        assert!(g.mix_error().is_some());
    }
}
