//! Multipart content striping: files above `PART_BYTES` are stored as a
//! manifest plus fixed-size part objects, moved with bounded parallel
//! fan-out. These tests pin the observable contract — logical round-trips,
//! reclamation of replaced/deleted generations, O(1) stat, fsck cleanliness
//! — and the virtual-time win over a serial whole-object transfer.

use h2cloud::check::fsck;
use h2cloud::gc;
use h2cloud::middleware::PART_BYTES;
use h2cloud::{H2Cloud, H2Config};
use h2fsapi::{CloudFs, FileContent, FsPath};
use h2util::{NodeId, OpCtx, Timestamp};

fn p(s: &str) -> FsPath {
    FsPath::parse(s).unwrap()
}

fn setup() -> (H2Cloud, OpCtx) {
    setup_plane(false)
}

/// `for_test()` with the CAS content plane on or off, for the tests whose
/// object and GET counts depend on the content format.
fn setup_plane(cas: bool) -> (H2Cloud, OpCtx) {
    let fs = H2Cloud::new(H2Config {
        cas,
        ..H2Config::for_test()
    });
    let mut ctx = OpCtx::for_test();
    fs.create_account(&mut ctx, "alice").unwrap();
    (fs, ctx)
}

/// Patterned inline content so any part mis-ordering or slicing error
/// changes the bytes.
fn patterned(len: usize) -> FileContent {
    let bytes: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
    FileContent::Inline(h2util::SharedBuf::from_slice(&bytes))
}

fn far_future() -> Timestamp {
    Timestamp::new(u64::MAX, 0, NodeId(0))
}

const BIG: u64 = 2 * PART_BYTES + 4097; // 3 parts, short tail

#[test]
fn big_inline_content_round_trips() {
    let (fs, mut ctx) = setup();
    let content = patterned(BIG as usize);
    fs.write(&mut ctx, "alice", &p("/blob"), content.clone())
        .unwrap();
    let back = fs.read(&mut ctx, "alice", &p("/blob")).unwrap();
    assert_eq!(back, content);
    // Striped: the store holds a manifest plus one object per part.
    let parts = BIG.div_ceil(PART_BYTES);
    // root ring + manifest + parts
    assert_eq!(fs.storage_stats().objects, 1 + 1 + parts);
    assert!(fsck(&fs, &mut ctx, "alice").unwrap().is_clean());
}

#[test]
fn big_simulated_content_round_trips_and_stats() {
    let (fs, mut ctx) = setup();
    let size = 40 * PART_BYTES + 5;
    fs.write(&mut ctx, "alice", &p("/big"), FileContent::Simulated(size))
        .unwrap();
    assert_eq!(
        fs.read(&mut ctx, "alice", &p("/big")).unwrap(),
        FileContent::Simulated(size)
    );
    // STAT reports the logical size (the manifest object itself is tiny).
    let st = fs.stat(&mut ctx, "alice", &p("/big")).unwrap();
    assert_eq!(st.size, size);
    // The store's logical bytes equal the parts' sum, not the manifest's.
    assert!(fs.storage_stats().bytes >= size);
    assert!(fsck(&fs, &mut ctx, "alice").unwrap().is_clean());
}

#[test]
fn boundary_sizes_stay_single_object() {
    for cas in [false, true] {
        let (fs, mut ctx) = setup_plane(cas);
        fs.write(
            &mut ctx,
            "alice",
            &p("/edge"),
            FileContent::Simulated(PART_BYTES),
        )
        .unwrap();
        if cas {
            // The CAS plane chunks every file regardless of the multipart
            // boundary: root ring + manifest + at least one leaf block.
            assert!(fs.storage_stats().objects >= 3);
        } else {
            // Exactly PART_BYTES is NOT striped: root ring + one content object.
            assert_eq!(fs.storage_stats().objects, 2);
        }
        // One byte more is.
        let before = fs.storage_stats().objects;
        fs.write(
            &mut ctx,
            "alice",
            &p("/over"),
            FileContent::Simulated(PART_BYTES + 1),
        )
        .unwrap();
        if cas {
            // A second distinct file adds its own manifest plus fresh blocks.
            assert!(fs.storage_stats().objects >= before + 2);
        } else {
            assert_eq!(fs.storage_stats().objects, 2 + 1 + 2); // + manifest + 2 parts
        }
        assert_eq!(
            fs.stat(&mut ctx, "alice", &p("/over")).unwrap().size,
            PART_BYTES + 1
        );
    }
}

#[test]
fn overwrite_reclaims_the_old_generation() {
    for cas in [false, true] {
        let (fs, mut ctx) = setup_plane(cas);
        fs.write(&mut ctx, "alice", &p("/f"), FileContent::Simulated(BIG))
            .unwrap();
        let striped = fs.storage_stats().objects;
        // big → big: fresh generation replaces the old one object-for-object.
        fs.write(&mut ctx, "alice", &p("/f"), FileContent::Simulated(BIG + 1))
            .unwrap();
        assert_eq!(fs.storage_stats().objects, striped);
        assert_eq!(
            fs.read(&mut ctx, "alice", &p("/f")).unwrap(),
            FileContent::Simulated(BIG + 1)
        );
        // big → small: parts and manifest collapse back to one object (under
        // CAS: root ring + manifest + one leaf block).
        fs.write(&mut ctx, "alice", &p("/f"), FileContent::from_str("tiny"))
            .unwrap();
        let small = if cas { 3 } else { 2 };
        assert_eq!(fs.storage_stats().objects, small);
        assert_eq!(
            fs.read(&mut ctx, "alice", &p("/f")).unwrap(),
            FileContent::from_str("tiny")
        );
        // small → big again still works.
        fs.write(&mut ctx, "alice", &p("/f"), FileContent::Simulated(BIG))
            .unwrap();
        assert_eq!(fs.storage_stats().objects, striped);
        assert!(fsck(&fs, &mut ctx, "alice").unwrap().is_clean());
    }
}

#[test]
fn delete_and_gc_reclaim_parts() {
    let (fs, mut ctx) = setup();
    let baseline = fs.storage_stats().objects; // root ring
    fs.write(&mut ctx, "alice", &p("/f"), FileContent::Simulated(BIG))
        .unwrap();
    fs.delete_file(&mut ctx, "alice", &p("/f")).unwrap();
    // Eager reclaim drops manifest + parts immediately.
    assert_eq!(fs.storage_stats().objects, baseline);
    // A big file removed only via RMDIR is reclaimed by GC.
    fs.mkdir(&mut ctx, "alice", &p("/d")).unwrap();
    fs.write(&mut ctx, "alice", &p("/d/g"), FileContent::Simulated(BIG))
        .unwrap();
    fs.rmdir(&mut ctx, "alice", &p("/d")).unwrap();
    gc::collect(&fs, &mut ctx, "alice", far_future()).unwrap();
    assert_eq!(fs.storage_stats().objects, baseline);
}

#[test]
fn copy_and_move_big_files() {
    let (fs, mut ctx) = setup();
    let content = patterned(BIG as usize);
    fs.mkdir(&mut ctx, "alice", &p("/src")).unwrap();
    fs.mkdir(&mut ctx, "alice", &p("/dst")).unwrap();
    fs.write(&mut ctx, "alice", &p("/src/a"), content.clone())
        .unwrap();
    fs.copy(&mut ctx, "alice", &p("/src/a"), &p("/dst/b"))
        .unwrap();
    assert_eq!(fs.read(&mut ctx, "alice", &p("/src/a")).unwrap(), content);
    assert_eq!(fs.read(&mut ctx, "alice", &p("/dst/b")).unwrap(), content);
    fs.mv(&mut ctx, "alice", &p("/src/a"), &p("/dst/c"))
        .unwrap();
    assert_eq!(
        fs.read(&mut ctx, "alice", &p("/src/a")).unwrap_err().code(),
        "not-found"
    );
    assert_eq!(fs.read(&mut ctx, "alice", &p("/dst/c")).unwrap(), content);
    // Directory copy drags striped children along.
    fs.copy(&mut ctx, "alice", &p("/dst"), &p("/dup")).unwrap();
    assert_eq!(fs.read(&mut ctx, "alice", &p("/dup/b")).unwrap(), content);
    assert!(fsck(&fs, &mut ctx, "alice").unwrap().is_clean());
}

/// The point of striping: a big transfer is bounded by the slowest *part*
/// (plus the manifest), not the whole object's serial transfer time.
#[test]
fn parallel_fanout_beats_serial_transfer() {
    for cas in [false, true] {
        let fs = H2Cloud::new(H2Config {
            cas,
            ..H2Config::default()
        });
        let model = fs.cost_model();
        let mut ctx = OpCtx::new(model.clone());
        fs.create_account(&mut ctx, "alice").unwrap();
        let size = 12 * 1024 * 1024u64; // 3 parts
        fs.write(&mut ctx, "alice", &p("/big"), FileContent::Simulated(size))
            .unwrap();
        let mut read_ctx = OpCtx::new(model.clone());
        fs.read(&mut read_ctx, "alice", &p("/big")).unwrap();
        let serial = model.get_cost(size as usize);
        assert!(
            read_ctx.elapsed() < serial,
            "striped read {:?} should beat the serial transfer {:?}",
            read_ctx.elapsed(),
            serial
        );
        // A file wider than one fan-out wave still reads in ~one part-time:
        // 32 × 4 MiB parts land together under the cost model's parallelism.
        let wide = 128 * 1024 * 1024u64;
        fs.write(&mut ctx, "alice", &p("/wide"), FileContent::Simulated(wide))
            .unwrap();
        let mut wide_ctx = OpCtx::new(model.clone());
        fs.read(&mut wide_ctx, "alice", &p("/wide")).unwrap();
        let wide_serial = model.get_cost(wide as usize);
        assert!(
            wide_ctx.elapsed() < wide_serial / 4,
            "striped read {:?} should beat a quarter of the serial transfer {:?}",
            wide_ctx.elapsed(),
            wide_serial
        );
        // Small files still pay exactly the single-GET path: resolve + 1 GET
        // (the CAS plane adds one more for the manifest → leaf hop).
        fs.write(
            &mut ctx,
            "alice",
            &p("/small"),
            FileContent::Simulated(1024),
        )
        .unwrap();
        let mut small_ctx = OpCtx::new(model.clone());
        fs.read(&mut small_ctx, "alice", &p("/small")).unwrap();
        let expected = if cas { 3 } else { 2 };
        assert_eq!(small_ctx.counts().gets, expected); // ring + (manifest +) content
    }
}

/// A resolve level served from the parsed-ring cache charges the in-memory
/// `cached_lookup_cpu`, not the full uncached `lookup_cpu` + ring GET.
#[test]
fn cached_resolve_is_cheaper_than_uncached() {
    let stat_cost = |cache_capacity: usize| {
        let fs = H2Cloud::new(H2Config {
            cache_capacity,
            ..H2Config::default()
        });
        let model = fs.cost_model();
        let mut ctx = OpCtx::new(model.clone());
        fs.create_account(&mut ctx, "alice").unwrap();
        fs.mkdir(&mut ctx, "alice", &p("/a")).unwrap();
        fs.write(&mut ctx, "alice", &p("/a/f"), FileContent::Simulated(64))
            .unwrap();
        let mut stat_ctx = OpCtx::new(model.clone());
        fs.stat(&mut stat_ctx, "alice", &p("/a/f")).unwrap();
        (stat_ctx.elapsed(), stat_ctx.counts().gets, model)
    };
    let (warm, warm_gets, model) = stat_cost(64);
    let (cold, cold_gets, _) = stat_cost(0);
    // Both levels come out of the cache (write-through keeps it fresh): no
    // ring GETs, and only the cheap per-level in-memory charge.
    assert_eq!(warm_gets, 0);
    assert_eq!(warm, model.cached_lookup_cpu * 2);
    assert_eq!(cold_gets, 2);
    assert!(warm < cold, "{warm:?} !< {cold:?}");
}
