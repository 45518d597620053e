//! End-to-end semantics of the H2Cloud filesystem (single middleware,
//! eager maintenance, zero-latency cost model).

use h2cloud::{H2Cloud, H2Config};
use h2fsapi::{CloudFs, EntryKind, FileContent, FsPath};
use h2util::OpCtx;

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

#[test]
fn fresh_account_has_empty_root() {
    let (fs, mut ctx) = setup();
    assert!(fs.list(&mut ctx, "alice", &p("/")).unwrap().is_empty());
    let st = fs.stat(&mut ctx, "alice", &p("/")).unwrap();
    assert_eq!(st.kind, EntryKind::Directory);
}

#[test]
fn unknown_account_is_rejected() {
    let (fs, mut ctx) = setup();
    assert_eq!(
        fs.list(&mut ctx, "bob", &p("/")).unwrap_err().code(),
        "no-such-account"
    );
}

#[test]
fn mkdir_then_list_shows_child() {
    let (fs, mut ctx) = setup();
    fs.mkdir(&mut ctx, "alice", &p("/home")).unwrap();
    fs.mkdir(&mut ctx, "alice", &p("/home/ubuntu")).unwrap();
    assert_eq!(fs.list(&mut ctx, "alice", &p("/")).unwrap(), ["home"]);
    assert_eq!(fs.list(&mut ctx, "alice", &p("/home")).unwrap(), ["ubuntu"]);
}

#[test]
fn mkdir_requires_parent_and_uniqueness() {
    let (fs, mut ctx) = setup();
    assert_eq!(
        fs.mkdir(&mut ctx, "alice", &p("/a/b")).unwrap_err().code(),
        "not-found"
    );
    fs.mkdir(&mut ctx, "alice", &p("/a")).unwrap();
    assert_eq!(
        fs.mkdir(&mut ctx, "alice", &p("/a")).unwrap_err().code(),
        "already-exists"
    );
    assert_eq!(
        fs.mkdir(&mut ctx, "alice", &p("/")).unwrap_err().code(),
        "already-exists"
    );
}

#[test]
fn write_read_roundtrip() {
    let (fs, mut ctx) = setup();
    fs.mkdir(&mut ctx, "alice", &p("/docs")).unwrap();
    fs.write(
        &mut ctx,
        "alice",
        &p("/docs/report.txt"),
        FileContent::from_str("quarterly numbers"),
    )
    .unwrap();
    let back = fs.read(&mut ctx, "alice", &p("/docs/report.txt")).unwrap();
    assert_eq!(back, FileContent::from_str("quarterly numbers"));
    let st = fs.stat(&mut ctx, "alice", &p("/docs/report.txt")).unwrap();
    assert_eq!(st.kind, EntryKind::File);
    assert_eq!(st.size, 17);
}

#[test]
fn write_overwrites_and_updates_size() {
    let (fs, mut ctx) = setup();
    fs.write(&mut ctx, "alice", &p("/f"), FileContent::from_str("aa"))
        .unwrap();
    fs.write(&mut ctx, "alice", &p("/f"), FileContent::from_str("aaaa"))
        .unwrap();
    assert_eq!(fs.stat(&mut ctx, "alice", &p("/f")).unwrap().size, 4);
    assert_eq!(fs.list(&mut ctx, "alice", &p("/")).unwrap().len(), 1);
}

#[test]
fn simulated_large_files_roundtrip_by_size() {
    let (fs, mut ctx) = setup();
    fs.write(
        &mut ctx,
        "alice",
        &p("/video.mkv"),
        FileContent::Simulated(5 << 30),
    )
    .unwrap();
    match fs.read(&mut ctx, "alice", &p("/video.mkv")).unwrap() {
        FileContent::Simulated(n) => assert_eq!(n, 5 << 30),
        other => panic!("expected simulated content, got {other:?}"),
    }
}

#[test]
fn write_to_dir_path_fails() {
    let (fs, mut ctx) = setup();
    fs.mkdir(&mut ctx, "alice", &p("/d")).unwrap();
    assert_eq!(
        fs.write(&mut ctx, "alice", &p("/d"), FileContent::from_str("x"))
            .unwrap_err()
            .code(),
        "is-a-directory"
    );
    assert_eq!(
        fs.read(&mut ctx, "alice", &p("/d")).unwrap_err().code(),
        "is-a-directory"
    );
}

#[test]
fn path_through_file_is_not_a_directory() {
    let (fs, mut ctx) = setup();
    fs.write(&mut ctx, "alice", &p("/f"), FileContent::from_str("x"))
        .unwrap();
    assert_eq!(
        fs.write(
            &mut ctx,
            "alice",
            &p("/f/child"),
            FileContent::from_str("y")
        )
        .unwrap_err()
        .code(),
        "not-a-directory"
    );
    assert_eq!(
        fs.list(&mut ctx, "alice", &p("/f")).unwrap_err().code(),
        "not-a-directory"
    );
}

#[test]
fn delete_file_then_gone() {
    let (fs, mut ctx) = setup();
    fs.write(&mut ctx, "alice", &p("/f"), FileContent::from_str("x"))
        .unwrap();
    fs.delete_file(&mut ctx, "alice", &p("/f")).unwrap();
    assert_eq!(
        fs.read(&mut ctx, "alice", &p("/f")).unwrap_err().code(),
        "not-found"
    );
    assert!(fs.list(&mut ctx, "alice", &p("/")).unwrap().is_empty());
    // Recreate with the same name works (tombstone overridden).
    fs.write(&mut ctx, "alice", &p("/f"), FileContent::from_str("new"))
        .unwrap();
    assert_eq!(
        fs.read(&mut ctx, "alice", &p("/f")).unwrap(),
        FileContent::from_str("new")
    );
}

#[test]
fn rename_is_move_within_parent() {
    let (fs, mut ctx) = setup();
    fs.mkdir(&mut ctx, "alice", &p("/dir")).unwrap();
    fs.write(
        &mut ctx,
        "alice",
        &p("/dir/old"),
        FileContent::from_str("x"),
    )
    .unwrap();
    fs.mv(&mut ctx, "alice", &p("/dir/old"), &p("/dir/new"))
        .unwrap();
    assert_eq!(fs.list(&mut ctx, "alice", &p("/dir")).unwrap(), ["new"]);
    assert_eq!(
        fs.read(&mut ctx, "alice", &p("/dir/new")).unwrap(),
        FileContent::from_str("x")
    );
}

#[test]
fn move_directory_preserves_subtree() {
    let (fs, mut ctx) = setup();
    fs.mkdir(&mut ctx, "alice", &p("/src")).unwrap();
    fs.mkdir(&mut ctx, "alice", &p("/src/sub")).unwrap();
    fs.write(
        &mut ctx,
        "alice",
        &p("/src/sub/deep.txt"),
        FileContent::from_str("payload"),
    )
    .unwrap();
    fs.mkdir(&mut ctx, "alice", &p("/dst")).unwrap();
    fs.mv(&mut ctx, "alice", &p("/src"), &p("/dst/moved"))
        .unwrap();
    assert_eq!(fs.list(&mut ctx, "alice", &p("/")).unwrap(), ["dst"]);
    assert_eq!(
        fs.read(&mut ctx, "alice", &p("/dst/moved/sub/deep.txt"))
            .unwrap(),
        FileContent::from_str("payload")
    );
    assert!(fs.stat(&mut ctx, "alice", &p("/src")).is_err());
}

#[test]
fn move_rejects_cycles_and_conflicts() {
    let (fs, mut ctx) = setup();
    fs.mkdir(&mut ctx, "alice", &p("/a")).unwrap();
    fs.mkdir(&mut ctx, "alice", &p("/a/b")).unwrap();
    assert_eq!(
        fs.mv(&mut ctx, "alice", &p("/a"), &p("/a/b/inside"))
            .unwrap_err()
            .code(),
        "invalid-path"
    );
    fs.mkdir(&mut ctx, "alice", &p("/c")).unwrap();
    assert_eq!(
        fs.mv(&mut ctx, "alice", &p("/a"), &p("/c"))
            .unwrap_err()
            .code(),
        "already-exists"
    );
    // Moving to itself is a no-op.
    fs.mv(&mut ctx, "alice", &p("/a"), &p("/a")).unwrap();
    assert!(fs.stat(&mut ctx, "alice", &p("/a")).is_ok());
}

#[test]
fn copy_file_duplicates_content() {
    let (fs, mut ctx) = setup();
    fs.write(
        &mut ctx,
        "alice",
        &p("/orig"),
        FileContent::from_str("body"),
    )
    .unwrap();
    fs.copy(&mut ctx, "alice", &p("/orig"), &p("/dup")).unwrap();
    assert_eq!(
        fs.read(&mut ctx, "alice", &p("/dup")).unwrap(),
        FileContent::from_str("body")
    );
    // Independent copies: deleting one keeps the other.
    fs.delete_file(&mut ctx, "alice", &p("/orig")).unwrap();
    assert!(fs.read(&mut ctx, "alice", &p("/dup")).is_ok());
}

#[test]
fn copy_directory_is_deep_and_independent() {
    let (fs, mut ctx) = setup();
    fs.mkdir(&mut ctx, "alice", &p("/tree")).unwrap();
    fs.mkdir(&mut ctx, "alice", &p("/tree/nested")).unwrap();
    for i in 0..5 {
        fs.write(
            &mut ctx,
            "alice",
            &p(&format!("/tree/nested/f{i}")),
            FileContent::from_str(&format!("data{i}")),
        )
        .unwrap();
    }
    fs.copy(&mut ctx, "alice", &p("/tree"), &p("/clone"))
        .unwrap();
    for i in 0..5 {
        assert_eq!(
            fs.read(&mut ctx, "alice", &p(&format!("/clone/nested/f{i}")))
                .unwrap(),
            FileContent::from_str(&format!("data{i}"))
        );
    }
    // Mutating the clone leaves the original intact.
    fs.delete_file(&mut ctx, "alice", &p("/clone/nested/f0"))
        .unwrap();
    assert!(fs.read(&mut ctx, "alice", &p("/tree/nested/f0")).is_ok());
}

#[test]
fn list_detailed_reports_kinds_and_sizes() {
    let (fs, mut ctx) = setup();
    fs.mkdir(&mut ctx, "alice", &p("/d")).unwrap();
    fs.write(&mut ctx, "alice", &p("/big"), FileContent::Simulated(1000))
        .unwrap();
    let entries = fs.list_detailed(&mut ctx, "alice", &p("/")).unwrap();
    assert_eq!(entries.len(), 2);
    let big = entries.iter().find(|e| e.name == "big").unwrap();
    assert_eq!(big.kind, EntryKind::File);
    assert_eq!(big.size, 1000);
    let d = entries.iter().find(|e| e.name == "d").unwrap();
    assert_eq!(d.kind, EntryKind::Directory);
}

#[test]
fn rmdir_removes_whole_populated_directory() {
    let (fs, mut ctx) = setup();
    fs.mkdir(&mut ctx, "alice", &p("/full")).unwrap();
    for i in 0..20 {
        fs.write(
            &mut ctx,
            "alice",
            &p(&format!("/full/f{i}")),
            FileContent::from_str("x"),
        )
        .unwrap();
    }
    fs.rmdir(&mut ctx, "alice", &p("/full")).unwrap();
    assert!(fs.list(&mut ctx, "alice", &p("/")).unwrap().is_empty());
    assert!(fs.list(&mut ctx, "alice", &p("/full")).is_err());
    assert_eq!(
        fs.rmdir(&mut ctx, "alice", &p("/")).unwrap_err().code(),
        "invalid-path"
    );
}

#[test]
fn rmdir_on_file_fails() {
    let (fs, mut ctx) = setup();
    fs.write(&mut ctx, "alice", &p("/f"), FileContent::from_str("x"))
        .unwrap();
    assert_eq!(
        fs.rmdir(&mut ctx, "alice", &p("/f")).unwrap_err().code(),
        "not-a-directory"
    );
    assert_eq!(
        fs.delete_file(&mut ctx, "alice", &p("/"))
            .unwrap_err()
            .code(),
        "is-a-directory"
    );
}

#[test]
fn file_access_cost_grows_with_depth() {
    // The O(d) regular lookup: deeper files take more ring GETs.
    let fs = H2Cloud::new(H2Config {
        cluster: swiftsim::ClusterConfig {
            cost: std::sync::Arc::new(h2util::CostModel::rack_default()),
            ..swiftsim::ClusterConfig::default()
        },
        ..H2Config::default()
    });
    let mut ctx = OpCtx::new(fs.cost_model());
    fs.create_account(&mut ctx, "a").unwrap();
    let mut path = String::new();
    for i in 0..8 {
        path.push_str(&format!("/d{i}"));
        fs.mkdir(&mut ctx, "a", &p(&path)).unwrap();
    }
    fs.write(
        &mut ctx,
        "a",
        &p(&format!("{path}/leaf")),
        FileContent::from_str("x"),
    )
    .unwrap();

    let mut shallow_ctx = OpCtx::new(fs.cost_model());
    fs.stat(&mut shallow_ctx, "a", &p("/d0")).unwrap();
    let mut deep_ctx = OpCtx::new(fs.cost_model());
    fs.stat(&mut deep_ctx, "a", &p(&format!("{path}/leaf")))
        .unwrap();
    assert!(
        deep_ctx.elapsed() > shallow_ctx.elapsed() * 5,
        "depth-9 lookup ({:?}) should dwarf depth-1 ({:?})",
        deep_ctx.elapsed(),
        shallow_ctx.elapsed()
    );
    // GET count scales with depth: d rings.
    assert_eq!(deep_ctx.counts().gets, 9);
}

#[test]
fn quick_relative_access_is_one_get() {
    for cas in [false, true] {
        let (fs, mut ctx) = setup_plane(cas);
        fs.mkdir(&mut ctx, "alice", &p("/deep")).unwrap();
        fs.mkdir(&mut ctx, "alice", &p("/deep/deeper")).unwrap();
        fs.write(
            &mut ctx,
            "alice",
            &p("/deep/deeper/target"),
            FileContent::from_str("found"),
        )
        .unwrap();
        // Discover the parent namespace once via the regular method…
        let mw = fs.layer().mw_for_account("alice");
        let keys = h2cloud::H2Keys::new("alice");
        let mut walk = OpCtx::for_test();
        let root = mw
            .read_ring(&mut walk, &keys, h2util::NamespaceId::ROOT)
            .unwrap();
        let deep_ns = match root.get("deep").unwrap().child {
            h2cloud::ChildRef::Dir { ns } => ns,
            _ => unreachable!(),
        };
        let deep = mw.read_ring(&mut walk, &keys, deep_ns).unwrap();
        let deeper_ns = match deep.get("deeper").unwrap().child {
            h2cloud::ChildRef::Dir { ns } => ns,
            _ => unreachable!(),
        };
        // …then the quick method is exactly one GET.
        let mut quick = OpCtx::for_test();
        let content = fs
            .read_relative(&mut quick, "alice", deeper_ns, "target")
            .unwrap();
        assert_eq!(content, FileContent::from_str("found"));
        // Still depth-independent with the CAS plane on — but a content read
        // is then manifest + leaf instead of a single whole object.
        let expected = if cas { 2 } else { 1 };
        assert_eq!(quick.counts().gets, expected);
        assert_eq!(quick.counts().total(), expected);
    }
}

#[test]
fn rmdir_is_o1_in_backend_ops() {
    let (fs, mut ctx) = setup();
    for &n in &[10usize, 100] {
        let dir = format!("/dir{n}");
        fs.mkdir(&mut ctx, "alice", &p(&dir)).unwrap();
        for i in 0..n {
            fs.write(
                &mut ctx,
                "alice",
                &p(&format!("{dir}/f{i}")),
                FileContent::from_str("x"),
            )
            .unwrap();
        }
    }
    let mut small = OpCtx::for_test();
    fs.rmdir(&mut small, "alice", &p("/dir10")).unwrap();
    let mut large = OpCtx::for_test();
    fs.rmdir(&mut large, "alice", &p("/dir100")).unwrap();
    assert_eq!(
        small.counts().total(),
        large.counts().total(),
        "RMDIR backend ops must not depend on n"
    );
}

#[test]
fn storage_stats_count_h2_overhead_objects() {
    for cas in [false, true] {
        let (fs, mut ctx) = setup_plane(cas);
        let base = fs.storage_stats().objects; // root ring
        fs.mkdir(&mut ctx, "alice", &p("/d")).unwrap();
        // +2: descriptor + the new directory's NameRing.
        assert_eq!(fs.storage_stats().objects, base + 2);
        fs.write(&mut ctx, "alice", &p("/d/f"), FileContent::from_str("x"))
            .unwrap();
        // +1 content object — or, on the CAS plane, a manifest plus one leaf
        // block (the tiny file fits a single chunk).
        let content_objects = if cas { 2 } else { 1 };
        assert_eq!(fs.storage_stats().objects, base + 2 + content_objects);
        assert!(!fs.uses_separate_index());
        assert_eq!(fs.storage_stats().index_records, 0);
    }
}
