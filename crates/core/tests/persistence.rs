//! Deployment-level persistence: WAL recovery, snapshots, and the
//! determinism guarantees the store inherits from the runtime.
//!
//! The recovery oracle throughout is [`Deployment::state_digest`] — the SHA-1
//! of the canonical snapshot encoding, a pure function of logical state that
//! is independent of shard count and execution history.

use exspan_core::{Annotation, Deployment, Exspan, ProvenanceMode};
use exspan_ndlog::ast::Program;
use exspan_ndlog::programs;
use exspan_netsim::{LinkClass, LinkProps, Topology};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

/// A fresh scratch directory (no `tempfile` dependency in this workspace).
/// Removed on drop; leaks only if the test panics, in which case the path
/// aids debugging.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "exspan-core-persist-{tag}-{}-{}",
            std::process::id(),
            DIR_COUNTER.fetch_add(1, Ordering::SeqCst)
        ));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self) -> &PathBuf {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn builder() -> exspan_core::DeploymentBuilder {
    Exspan::builder()
        .program(programs::mincost())
        .topology(Topology::testbed_ring(16, 7))
        .mode(ProvenanceMode::Reference)
}

fn churn(d: &mut Deployment) {
    d.remove_link(0, 1);
    d.run_to_fixpoint();
    d.add_link(
        0,
        1,
        LinkProps {
            latency: 0.013,
            bandwidth: 80.0,
            cost: 2,
            class: LinkClass::Custom,
        },
    );
    d.run_to_fixpoint();
    d.remove_link(8, 9);
    d.run_to_fixpoint();
}

#[test]
fn reopen_recovers_identical_state_from_wal_only() {
    let scratch = Scratch::new("wal-only");
    let digest = {
        let mut d = builder().data_dir(scratch.path()).build().unwrap();
        assert!(!d.recovered_from_store());
        d.run_to_fixpoint();
        churn(&mut d);
        let stats = d.storage_stats();
        assert!(stats.committed_batches > 0, "runs must commit WAL batches");
        assert!(stats.wal_bytes > 0);
        d.state_digest()
        // Dropped without checkpoint: recovery must come from the log alone.
    };
    let mut d = builder().data_dir(scratch.path()).build().unwrap();
    assert!(d.recovered_from_store());
    assert!(d.storage_stats().recovered_batches > 0);
    assert_eq!(d.state_digest(), digest, "WAL replay diverged");
    // The recovered state is a quiescent fixpoint; running must not move it.
    d.run_to_fixpoint();
    assert_eq!(d.state_digest(), digest);
}

#[test]
fn checkpoint_makes_recovery_snapshot_only() {
    let scratch = Scratch::new("checkpoint");
    let digest = {
        let mut d = builder().data_dir(scratch.path()).build().unwrap();
        d.run_to_fixpoint();
        churn(&mut d);
        d.checkpoint();
        assert!(d.storage_stats().snapshots_written >= 1);
        d.state_digest()
    };
    // After a checkpoint the log is truncated at the snapshot watermark, so
    // a reopen replays zero batches.
    let d = builder().data_dir(scratch.path()).build().unwrap();
    assert!(d.recovered_from_store());
    assert_eq!(d.storage_stats().recovered_batches, 0);
    assert_eq!(d.state_digest(), digest);
}

#[test]
fn value_mode_refuses_to_resume_a_store_with_committed_state() {
    // The policy's annotations are not persisted; resumed, every recovered
    // tuple would pass for a fresh base variable and `derivable_under` would
    // answer wrongly without an error.  A fresh directory stays legal.
    let scratch = Scratch::new("value-resume");
    let value = || {
        builder()
            .mode(ProvenanceMode::ValueBdd)
            .data_dir(scratch.path())
            .build()
    };
    let mut d = value().expect("a fresh store opens in value mode");
    d.run_to_fixpoint();
    assert!(d.storage_stats().committed_batches > 0);
    drop(d);
    match value() {
        Err(exspan_core::BuildError::Storage(msg)) => assert!(msg.contains("value-based")),
        other => panic!("expected a storage error, got {other:?}"),
    }
}

#[test]
fn recovered_deployment_continues_identically_to_uninterrupted_run() {
    // Oracle: one uninterrupted run.  Subject: same run split by a restart
    // in the middle.  Both must land on the same digest.
    let oracle = {
        let mut d = builder().build().unwrap();
        d.run_to_fixpoint();
        churn(&mut d);
        d.remove_link(4, 5);
        d.run_to_fixpoint();
        d.state_digest()
    };
    let scratch = Scratch::new("resume");
    {
        let mut d = builder().data_dir(scratch.path()).build().unwrap();
        d.run_to_fixpoint();
        churn(&mut d);
    }
    let mut d = builder().data_dir(scratch.path()).build().unwrap();
    assert!(d.recovered_from_store());
    d.remove_link(4, 5);
    d.run_to_fixpoint();
    assert_eq!(d.state_digest(), oracle);
}

#[test]
fn checkpoint_twice_writes_one_snapshot() {
    // An empty log after the flush means the snapshot on disk is current.
    let scratch = Scratch::new("checkpoint-twice");
    let mut d = builder().data_dir(scratch.path()).build().unwrap();
    d.run_to_fixpoint();
    d.checkpoint();
    let written = d.storage_stats().snapshots_written;
    assert!(written >= 1);
    d.checkpoint();
    assert_eq!(d.storage_stats().snapshots_written, written);
}

#[test]
fn checkpoint_before_any_run_leaves_a_store_that_boots_fresh() {
    // A snapshot of the bare topology would make the reopen skip seeding and
    // run to a fixpoint with no `link` tuples at all.
    let oracle = {
        let mut d = builder().build().unwrap();
        d.run_to_fixpoint();
        d.state_digest()
    };
    let scratch = Scratch::new("checkpoint-early");
    builder()
        .data_dir(scratch.path())
        .build()
        .unwrap()
        .checkpoint();
    let mut d = builder().data_dir(scratch.path()).build().unwrap();
    assert!(!d.recovered_from_store());
    d.run_to_fixpoint();
    assert_eq!(d.state_digest(), oracle);
}

#[test]
fn a_store_with_a_leftover_spill_directory_opens_and_recovers() {
    // Stores written before cold-table spill was removed hold a `spill/`
    // cache beside the log; the snapshot + WAL were always authoritative.
    let scratch = Scratch::new("leftover-spill");
    let digest = {
        let mut d = builder().data_dir(scratch.path()).build().unwrap();
        d.run_to_fixpoint();
        churn(&mut d);
        d.state_digest()
    };
    let spill = scratch.path().join("spill");
    std::fs::create_dir_all(&spill).unwrap();
    std::fs::write(spill.join("n0_link.tbl"), b"not a table").unwrap();
    let d = builder().data_dir(scratch.path()).build().unwrap();
    assert!(d.recovered_from_store());
    assert_eq!(d.state_digest(), digest);
    assert!(!spill.exists());
}

#[test]
fn node_count_mismatch_is_a_build_error() {
    let scratch = Scratch::new("mismatch");
    {
        let mut d = builder().data_dir(scratch.path()).build().unwrap();
        d.run_to_fixpoint();
        d.checkpoint();
    }
    let err = Exspan::builder()
        .program(programs::mincost())
        .topology(Topology::testbed_ring(8, 3))
        .mode(ProvenanceMode::Reference)
        .data_dir(scratch.path())
        .build()
        .unwrap_err();
    let msg = format!("{err}");
    assert!(msg.contains("topology"), "unexpected error: {msg}");
}

#[test]
fn a_wal_only_store_is_refused_by_a_smaller_topology() {
    // A log carries no node count; the nodes its operations name are what a
    // smaller topology cannot hold.
    let stores = [
        (Topology::paper_example(), Topology::line(2), 256 * 1024),
        (
            Topology::testbed_ring(5, 7),
            Topology::testbed_ring(3, 7),
            u64::MAX,
        ),
    ];
    for (written, reopened, floor) in stores {
        let scratch = Scratch::new("wal-only-smaller");
        let with = |topology: Topology| {
            Exspan::builder()
                .program(programs::mincost())
                .topology(topology)
                .mode(ProvenanceMode::Reference)
                .snapshot_every_bytes(floor)
                .data_dir(scratch.path())
                .build()
        };
        let mut d = with(written.clone()).unwrap();
        d.run_to_fixpoint();
        assert_eq!(d.storage_stats().snapshots_written, 0);
        drop(d);
        assert!(!scratch.path().join("snapshot.bin").exists());
        match with(reopened) {
            Err(exspan_core::BuildError::Storage(msg)) => {
                assert!(msg.contains("topology"), "unexpected error: {msg}");
            }
            other => panic!("expected a storage error, got {:?}", other.map(|_| ())),
        }
        // The topology it was written for still reopens it.
        assert!(with(written).unwrap().recovered_from_store());
    }
}

#[test]
fn each_run_that_journaled_commits_one_batch_and_nothing_else_commits() {
    let scratch = Scratch::new("cadence");
    let mut d = builder()
        .snapshot_every_bytes(u64::MAX)
        .data_dir(scratch.path())
        .build()
        .unwrap();
    let batches = |d: &Deployment| d.storage_stats().committed_batches;
    d.run_to_fixpoint();
    assert_eq!(batches(&d), 1);

    // An idle run journals nothing and commits nothing.
    d.run_to_fixpoint();
    let now = d.now();
    d.run_until(now + 5.0);
    assert_eq!(batches(&d), 1);

    // A link change is journaled at once but committed with the next run.
    let before = d.storage_stats();
    d.remove_link(0, 1);
    assert_eq!(d.storage_stats(), before);
    d.run_to_fixpoint();
    let after = d.storage_stats();
    assert_eq!(after.committed_batches, 2);
    assert!(after.committed_ops > before.committed_ops + 1);

    // ... or with the next checkpoint, which commits it alone: its link
    // tuples' deltas are still scheduled, and commit with the run after.
    let props = LinkProps::from_class(LinkClass::Custom);
    d.add_link(0, 1, props);
    assert_eq!(d.storage_stats(), after);
    d.checkpoint();
    let stats = d.storage_stats();
    assert_eq!(stats.committed_batches, 3);
    assert_eq!(stats.committed_ops, after.committed_ops + 1);
    assert_eq!(stats.snapshots_written, 1);
    d.run_to_fixpoint();
    assert_eq!(batches(&d), 4);
    d.run_to_fixpoint();
    assert_eq!(batches(&d), 4);
}

#[test]
fn in_memory_default_reports_zero_storage_activity() {
    let mut d = builder().build().unwrap();
    d.run_to_fixpoint();
    let stats = d.storage_stats();
    assert_eq!(stats.committed_batches, 0);
    assert_eq!(stats.wal_bytes, 0);
    assert_eq!(stats.snapshots_written, 0);
}

/// What the figures and the query layer read off a finished run.
#[derive(Debug, PartialEq)]
struct Observed {
    total_bytes: u64,
    bandwidth: Vec<(f64, f64)>,
    /// `SessionStats` in its `Debug` form (the type has no `PartialEq`).
    query_traffic: String,
    annotations: Vec<Option<Annotation>>,
    digest: String,
}

/// Fixpoint, one churn batch, and in reference mode one cached and one
/// uncached query.
fn observe(program: &Program, mode: ProvenanceMode, data_dir: Option<&Path>) -> Observed {
    let mut b = builder().program(program.clone()).mode(mode);
    if let Some(dir) = data_dir {
        b = b.data_dir(dir);
    }
    let mut d = b.build().unwrap();
    d.run_to_fixpoint();
    churn(&mut d);
    if mode == ProvenanceMode::Reference {
        let targets = d.tuples_shared(0, "bestPathCost");
        d.query(&targets[0]).issuer(3).cached(true).execute();
        d.query(targets.last().unwrap()).cached(false).execute();
    }
    Observed {
        total_bytes: d.total_bytes(),
        bandwidth: d.avg_bandwidth_mbps(),
        query_traffic: format!("{:?}", d.query_traffic_stats()),
        annotations: d.outcomes().iter().map(|o| o.annotation.clone()).collect(),
        digest: d.state_digest(),
    }
}

#[test]
fn a_store_never_changes_what_a_deployment_observes() {
    let programs = [
        programs::mincost(),
        programs::path_vector(),
        programs::packet_forward(),
    ];
    let modes = [
        ProvenanceMode::ValueBdd,
        ProvenanceMode::Reference,
        ProvenanceMode::None,
    ];
    for program in &programs {
        for mode in modes {
            let memory = observe(program, mode, None);
            assert!(memory.annotations.iter().all(Option::is_some));
            let scratch = Scratch::new("observe");
            let durable = observe(program, mode, Some(scratch.path()));
            assert_eq!(memory, durable, "{} under {mode:?}", program.name);
        }
    }
}

// ---------------------------------------------------------------------------
// Every crash point
// ---------------------------------------------------------------------------

/// Churn batches in the crash workload, and the one after which the writer
/// dies.  On the 5-node ring the amortised rule (floor 1) snapshots at the
/// initial fixpoint and again at batch [`TAIL_FROM`], so the crashed store is
/// a snapshot plus the tail of batches 7..=10 — and batch 12 of a resumed run
/// takes the next snapshot.
const BATCHES: usize = 12;
const CRASH_AFTER: usize = 10;
const TAIL_FROM: usize = 6;

/// The crash workload's deployment, snapshotting at `floor` (`u64::MAX`:
/// never).
fn ring(floor: u64) -> exspan_core::DeploymentBuilder {
    Exspan::builder()
        .program(programs::mincost())
        .topology(Topology::testbed_ring(5, 7))
        .mode(ProvenanceMode::Reference)
        .snapshot_every_bytes(floor)
}

/// Churn batch `index` (0 is the initial fixpoint): toggles one chord and
/// runs to fixpoint.  A function of the index and the topology it meets, so
/// a recovered deployment resumes at any batch boundary.
fn apply_batch(d: &mut Deployment, index: usize) {
    if index > 0 {
        let (a, b) = [(0, 2), (1, 3), (2, 4), (0, 3)][index % 4];
        if d.topology().link(a, b).is_some() {
            d.remove_link(a, b);
        } else {
            let cost = 1 + (index % 3) as i64;
            let props = LinkProps::from_class(LinkClass::StubStub);
            d.add_link(a, b, LinkProps { cost, ..props });
        }
    }
    d.run_to_fixpoint();
}

fn copy_store(from: &std::path::Path, to: &std::path::Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for name in ["wal.log", "snapshot.bin"] {
        if from.join(name).exists() {
            std::fs::copy(from.join(name), to.join(name)).unwrap();
        }
    }
}

#[derive(Debug)]
enum Damage {
    /// The log ends here: a crash mid-append, or none at the final boundary.
    Cut(usize),
    /// One bit of this byte is wrong.
    Flip(usize),
    /// A half-written frame follows the last commit.
    Garbage,
}

/// Kills a writer snapshotting at `floor` after batch [`CRASH_AFTER`], then
/// damages a copy of its store at every record boundary of the tail and four
/// ways inside every record, and in the two windows of a snapshot write; every reopen must
/// land on the digest of the last commit wholly before the damage, and
/// resumed runs must end where the uninterrupted run does.
fn every_crash_point(floor: u64) {
    let oracle: Vec<String> = {
        let mut d = ring(1).build().unwrap();
        let digests = (0..=BATCHES).map(|i| {
            apply_batch(&mut d, i);
            d.state_digest()
        });
        digests.collect()
    };

    let scratch = Scratch::new("crash-points");
    let (live, crashed, point) = (
        scratch.path().join("live"),
        scratch.path().join("crashed"),
        scratch.path().join("point"),
    );
    // `commits[k]`: the length of `wal.log` once batch `k` was committed.
    let mut commits = Vec::new();
    {
        let mut d = ring(floor).data_dir(&live).build().unwrap();
        for (k, digest) in oracle.iter().enumerate().take(CRASH_AFTER + 1) {
            apply_batch(&mut d, k);
            assert_eq!(&d.state_digest(), digest, "writer diverged at batch {k}");
            commits.push(std::fs::metadata(live.join("wal.log")).unwrap().len() as usize);
        }
        // Death: what is in the files now is all there is.
        copy_store(&live, &crashed);
        // Had it lived to snapshot once more and died between the rename and
        // the truncation: the new snapshot beside the log it supersedes.
        d.checkpoint();
        copy_store(&crashed, &point);
        std::fs::copy(live.join("snapshot.bin"), point.join("snapshot.bin")).unwrap();
        let mut d = ring(floor).data_dir(&point).build().unwrap();
        assert_eq!(d.state_digest(), oracle[CRASH_AFTER], "stale log replayed");
        (CRASH_AFTER + 1..=BATCHES).for_each(|k| apply_batch(&mut d, k));
        assert_eq!(d.state_digest(), oracle[BATCHES]);
    }
    let wal = std::fs::read(crashed.join("wal.log")).unwrap();
    let snapshotting = floor != u64::MAX;
    assert_eq!(crashed.join("snapshot.bin").exists(), snapshotting);
    if snapshotting {
        assert_eq!(commits[TAIL_FROM], 0, "batch {TAIL_FROM} should snapshot");
    }
    assert_eq!(commits[CRASH_AFTER], wal.len());

    // The last commit wholly before byte `offset` of the log.
    let landed = |offset: usize| {
        let mut tail = (TAIL_FROM..=CRASH_AFTER).rev();
        tail.find(|&k| commits[k] <= offset).unwrap()
    };
    let mut points = Vec::new();
    let mut pos = commits[TAIL_FROM];
    while pos < wal.len() {
        let len = u32::from_be_bytes(wal[pos..pos + 4].try_into().unwrap()) as usize;
        let (payload, end) = (pos + 8, pos + 8 + len);
        let before = landed(pos);
        points.push((Damage::Cut(pos), before));
        points.push((Damage::Cut(pos + 1), before));
        points.push((Damage::Cut(payload + len / 2), before));
        points.push((Damage::Cut(end - 1), before));
        points.push((Damage::Flip(payload + len / 2), before));
        pos = end;
    }
    assert_eq!(pos, wal.len(), "the committed log is whole frames");
    points.push((Damage::Cut(wal.len()), CRASH_AFTER));
    points.push((Damage::Garbage, CRASH_AFTER));
    assert!(points.len() >= 100, "only {} damage points", points.len());

    let resumed = [0, points.len() / 2, points.len() - 1];
    for (i, (damage, k)) in points.iter().enumerate() {
        copy_store(&crashed, &point);
        let mut log = wal.clone();
        match *damage {
            Damage::Cut(at) => log.truncate(at),
            Damage::Flip(at) => log[at] ^= 0x04,
            Damage::Garbage => log.extend_from_slice(&[0, 0, 1, 0, 0xba, 0xad, 0xf0, 0x0d]),
        }
        std::fs::write(point.join("wal.log"), &log).unwrap();
        // A temp file from a snapshot that never reached its rename.
        std::fs::write(point.join("snapshot.tmp"), &log[..log.len() / 3]).unwrap();

        let mut d = ring(floor).data_dir(&point).build().unwrap();
        assert!(d.recovered_from_store());
        assert!(!point.join("snapshot.tmp").exists());
        assert_eq!(
            d.state_digest(),
            oracle[*k],
            "{damage:?} of a {}-byte log: expected the state of batch {k}",
            wal.len()
        );
        if resumed.contains(&i) {
            (k + 1..=BATCHES).for_each(|k| apply_batch(&mut d, k));
            assert_eq!(d.state_digest(), oracle[BATCHES], "resumed from {damage:?}");
        }
    }
}

#[test]
fn every_crash_point_of_a_snapshot_plus_tail_store() {
    every_crash_point(1);
}

#[test]
fn every_crash_point_of_a_wal_only_store() {
    every_crash_point(u64::MAX);
}
