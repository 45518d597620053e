//! Content-defined chunking for the CAS content plane.
//!
//! Files entering the content-addressed store are split into leaf blocks
//! whose boundaries depend on the *content*, not on offsets, so an insert
//! or append only reshapes the chunks it touches (FastCDC; cubist uses the
//! same scheme with a `[N/2, N*4]` block range around a 1 MiB default).
//! Two cutters live here:
//!
//! * [`chunk_bytes`] — real bytes: a gear rolling hash with FastCDC-style
//!   normalized chunking (a harder mask before the target size, an easier
//!   one after, a hard ceiling at `max`).
//! * [`chunk_simulated`] — size-only stand-ins (`Payload::Simulated`
//!   content has no bytes to roll over): chunk lengths are a deterministic
//!   schedule seeded by the file's content digest. The schedule depends
//!   only on the digest — not on the file size — so it is an infinite
//!   sequence that any size merely truncates: growing a file re-chunks
//!   nothing but its tail, exactly the prefix-stability property the real
//!   cutter has.
//!
//! Leaf digests are 128-bit ([`hash128`]): real chunks hash their bytes;
//! simulated chunks hash a domain-tagged `(file digest, offset, len)`
//! string, which is collision-free across files with different content and
//! identical across files with the same content — the basis for dedup.
//!
//! `Payload::Simulated` is defined in `swiftsim`; this module only ever
//! sees digests and sizes, so it lives in `h2util` below every other crate.

use crate::hash::{hash128, hash64_seeded, Digest128};
use std::sync::OnceLock;

/// Chunk-size bounds. FastCDC's recommended shape around a target `N` is
/// `[N/4, N*4]`; the default target is 1 MiB (ROADMAP item 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkParams {
    /// No cut before this many bytes (also the floor of the simulated
    /// schedule).
    pub min: u64,
    /// The expected chunk size the masks are tuned for.
    pub target: u64,
    /// Hard ceiling: a cut is forced at this length.
    pub max: u64,
}

impl ChunkParams {
    /// Bounds derived from a target size: `[target/4, target*4]`.
    pub const fn with_target(target: u64) -> Self {
        ChunkParams {
            min: target / 4,
            target,
            max: target * 4,
        }
    }
}

impl Default for ChunkParams {
    fn default() -> Self {
        ChunkParams::with_target(1 << 20)
    }
}

/// One leaf block: its span in the file and its content address.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunk {
    pub offset: u64,
    pub len: u64,
    pub digest: Digest128,
}

/// The 256-entry gear table, derived deterministically from XXH64 so the
/// cutter needs no embedded random constants.
fn gear() -> &'static [u64; 256] {
    static GEAR: OnceLock<[u64; 256]> = OnceLock::new();
    GEAR.get_or_init(|| {
        let mut t = [0u64; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            *slot = hash64_seeded(&[i as u8], 0x4745_4152); // "GEAR"
        }
        t
    })
}

/// A mask keeping the top `bits` bits: the gear fingerprint accumulates
/// history into its high bits, so testing them gives a per-byte cut
/// probability of `2^-bits` over a genuine content window.
fn top_mask(bits: u32) -> u64 {
    if bits == 0 {
        0
    } else {
        !0u64 << (64 - bits.min(63))
    }
}

/// Find the next cut point in `data` (length from the start), honouring
/// `params`. Returns `data.len()` when no boundary fires before the end.
fn next_cut(params: &ChunkParams, data: &[u8]) -> usize {
    let n = data.len();
    let min = params.min as usize;
    let max = params.max as usize;
    if n <= min {
        return n;
    }
    let bits = params.target.max(2).ilog2();
    // Normalized chunking: harder mask (more bits) before the target size
    // pushes cuts toward it; easier mask after pulls stragglers back.
    let mask_hard = top_mask(bits + 2);
    let mask_easy = top_mask(bits.saturating_sub(2).max(1));
    let normal = (params.target as usize).min(n);
    let g = gear();
    let mut fp: u64 = 0;
    // The window warms up over the skipped `min` prefix's tail so the
    // fingerprint at `min` already reflects real content.
    let warm = min.saturating_sub(64);
    for &b in &data[warm..min] {
        fp = (fp << 1).wrapping_add(g[b as usize]);
    }
    for (i, &b) in data.iter().enumerate().take(n.min(max)).skip(min) {
        fp = (fp << 1).wrapping_add(g[b as usize]);
        let mask = if i < normal { mask_hard } else { mask_easy };
        if fp & mask == 0 {
            return i + 1;
        }
    }
    n.min(max)
}

/// Split real bytes into content-defined chunks. Empty input yields no
/// chunks. Every chunk is at most `params.max` long; all but the last are
/// at least `params.min`.
pub fn chunk_bytes(params: &ChunkParams, data: &[u8]) -> Vec<Chunk> {
    let mut out = Vec::new();
    let mut off = 0usize;
    while off < data.len() {
        let cut = next_cut(params, &data[off..]);
        out.push(Chunk {
            offset: off as u64,
            len: cut as u64,
            digest: hash128(&data[off..off + cut]),
        });
        off += cut;
    }
    out
}

/// The content address of a simulated chunk: a domain-tagged digest of the
/// file digest and the chunk's span. Files with identical content digests
/// produce identical leaf addresses (dedup); any other file cannot collide.
pub fn simulated_leaf_digest(file: Digest128, offset: u64, len: u64) -> Digest128 {
    hash128(format!("cas:leaf:{}:{offset}:{len}", file.to_hex()).as_bytes())
}

/// The length of the `k`-th chunk in the infinite schedule for a file with
/// this content digest, in `[min, max]`.
fn schedule_len(params: &ChunkParams, file: Digest128, k: u64) -> u64 {
    let span = params.max.saturating_sub(params.min).saturating_add(1);
    let h = hash64_seeded(&k.to_le_bytes(), file.hi ^ file.lo.rotate_left(32));
    params.min.max(1) + h % span.max(1)
}

/// Chunk a simulated file of `size` bytes whose content is identified by
/// `file`. Boundaries come from the digest-seeded schedule truncated at
/// `size`, so a larger file with the same digest shares every complete
/// chunk — only the previously-truncated tail re-chunks.
pub fn chunk_simulated(params: &ChunkParams, file: Digest128, size: u64) -> Vec<Chunk> {
    let mut out = Vec::new();
    let mut off = 0u64;
    let mut k = 0u64;
    while off < size {
        let len = schedule_len(params, file, k).min(size - off);
        out.push(Chunk {
            offset: off,
            len,
            digest: simulated_leaf_digest(file, off, len),
        });
        off += len;
        k += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ChunkParams {
        ChunkParams::with_target(1 << 10) // 1 KiB target → [256, 4096]
    }

    fn pseudo_bytes(n: usize, seed: u64) -> Vec<u8> {
        (0..n)
            .map(|i| (hash64_seeded(&(i as u64).to_le_bytes(), seed) & 0xff) as u8)
            .collect()
    }

    #[test]
    fn empty_input_yields_no_chunks() {
        assert!(chunk_bytes(&small(), &[]).is_empty());
        let d = hash128(b"f");
        assert!(chunk_simulated(&small(), d, 0).is_empty());
    }

    #[test]
    fn chunks_partition_the_input_within_bounds() {
        let p = small();
        for size in [1usize, 255, 256, 1024, 4096, 4097, 50_000] {
            let data = pseudo_bytes(size, 7);
            let chunks = chunk_bytes(&p, &data);
            assert!(!chunks.is_empty());
            let mut off = 0u64;
            for (i, c) in chunks.iter().enumerate() {
                assert_eq!(c.offset, off, "size {size} chunk {i} not contiguous");
                assert!(c.len <= p.max, "size {size}: chunk over max");
                if i + 1 < chunks.len() {
                    assert!(c.len >= p.min, "size {size}: non-final chunk under min");
                }
                assert_eq!(
                    c.digest,
                    hash128(&data[off as usize..(off + c.len) as usize])
                );
                off += c.len;
            }
            assert_eq!(off, size as u64, "chunks must cover the input exactly");
        }
    }

    #[test]
    fn exact_min_target_max_sizes() {
        let p = small();
        // Exactly `min` bytes: below any cut point — one chunk.
        assert_eq!(chunk_bytes(&p, &pseudo_bytes(p.min as usize, 1)).len(), 1);
        // Exactly `max` bytes: every chunk but the last is ≥ `min`, so at
        // most `max / min` chunks (the easy mask past `target` cuts about
        // every `target` bytes, so several chunks are the norm).
        let at_max = chunk_bytes(&p, &pseudo_bytes(p.max as usize, 2));
        let most = (p.max / p.min) as usize;
        assert!((1..=most).contains(&at_max.len()), "{}", at_max.len());
        // The simulated schedule at exact sizes: `min` is always one chunk
        // (every schedule entry is ≥ min).
        let d = hash128(b"exact");
        assert_eq!(chunk_simulated(&p, d, p.min).len(), 1);
        let at_target = chunk_simulated(&p, d, p.target);
        assert!((1..=4).contains(&at_target.len()));
        let at_max = chunk_simulated(&p, d, p.max);
        assert!((1..=16).contains(&at_max.len()));
        for cs in [&at_target, &at_max] {
            let total: u64 = cs.iter().map(|c| c.len).sum();
            assert!(total == p.target || total == p.max);
        }
    }

    #[test]
    fn append_is_prefix_stable_for_bytes() {
        let p = small();
        let mut data = pseudo_bytes(20_000, 3);
        let before = chunk_bytes(&p, &data);
        data.extend_from_slice(&pseudo_bytes(5_000, 4));
        let after = chunk_bytes(&p, &data);
        // Every complete chunk before the old tail survives byte-identically.
        let shared = before.len() - 1;
        assert!(after.len() >= shared);
        assert_eq!(
            &after[..shared],
            &before[..shared],
            "append reshaped a settled chunk"
        );
    }

    #[test]
    fn append_is_prefix_stable_for_simulated() {
        let p = small();
        let d = hash128(b"/home/u/video.mp4");
        let before = chunk_simulated(&p, d, 20_000);
        let after = chunk_simulated(&p, d, 20_001);
        let shared = before.len() - 1;
        assert_eq!(&after[..shared], &before[..shared]);
        // Only the truncated tail differs — and only it.
        assert_ne!(before.last(), after.get(shared));
        // The schedule is deterministic: same digest + size → same chunks.
        assert_eq!(before, chunk_simulated(&p, d, 20_000));
    }

    #[test]
    fn identical_content_digests_share_leaf_addresses() {
        let p = small();
        let d = hash128(b"shared:42");
        let a = chunk_simulated(&p, d, 10_000);
        let b = chunk_simulated(&p, d, 10_000);
        assert_eq!(a, b);
        // A different file digest shares nothing.
        let c = chunk_simulated(&p, hash128(b"shared:43"), 10_000);
        assert!(a.iter().zip(&c).all(|(x, y)| x.digest != y.digest));
    }

    #[test]
    fn real_chunk_sizes_track_the_target() {
        let p = ChunkParams::with_target(1 << 12); // 4 KiB
        let data = pseudo_bytes(1 << 20, 9);
        let chunks = chunk_bytes(&p, &data);
        let avg = (data.len() / chunks.len()) as u64;
        assert!(
            avg >= p.target / 4 && avg <= p.max,
            "average chunk {avg} far from target {}",
            p.target
        );
    }
}
