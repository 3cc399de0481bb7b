//! The durable store: the log-structured [`DiskBackend`] a deployment with a
//! data directory owns and commits its engine's journal to.

use crate::snapshot::{self, SnapshotData};
use crate::wal::{self, Durability, WalBatch, WalOp, WalWriter};
use crate::StoreError;
use std::path::{Path, PathBuf};

/// Counters surfaced through `Deployment::storage_stats()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Committed barrier batches appended to the WAL.
    pub committed_batches: u64,
    /// Logical operations inside those batches.
    pub committed_ops: u64,
    /// Current WAL length in bytes.
    pub wal_bytes: u64,
    /// Snapshots written (each truncates the log).
    pub snapshots_written: u64,
    /// Batches replayed during recovery.
    pub recovered_batches: u64,
}

/// State reconstructed from disk by [`DiskBackend::open`]: the latest valid
/// snapshot (if any) plus every committed WAL batch past its watermark.
#[derive(Debug)]
pub struct RecoveredState {
    pub snapshot: Option<SnapshotData>,
    pub batches: Vec<WalBatch>,
}

impl RecoveredState {
    /// The commit watermark `(seq, time bits)`: the store numbers its next
    /// batch past `seq`, and the engine's clock resumes at the time.
    pub fn watermark(&self) -> (u64, u64) {
        let mut seq = 0;
        let mut time_bits = 0;
        if let Some(snap) = &self.snapshot {
            seq = snap.seq;
            time_bits = snap.time_bits;
        }
        if let Some(last) = self.batches.last() {
            seq = seq.max(last.seq);
            time_bits = last.time_bits;
        }
        (seq, time_bits)
    }
}

/// Log-structured persistence in a data directory:
///
/// ```text
/// <dir>/wal.log       append-only delta log (committed batches)
/// <dir>/snapshot.bin  latest canonical snapshot
/// ```
pub struct DiskBackend {
    dir: PathBuf,
    wal: WalWriter,
    /// The floor of the snapshot trigger, in bytes of log; `u64::MAX` means
    /// never.
    snapshot_floor: u64,
    /// Length of the `snapshot.bin` the next snapshot would replace (0 while
    /// there is none).  The log since that snapshot is all of `wal.log`:
    /// every snapshot truncates it.
    snapshot_bytes: u64,
    /// Sequence number of the last committed batch: the recovered watermark
    /// until this store commits one of its own.
    seq: u64,
    /// Everything but `wal_bytes`, which is the writer's length.
    stats: StorageStats,
}

impl DiskBackend {
    /// Opens (creating if needed) the store at `dir`, snapshotting once the
    /// log is at least `snapshot_floor` bytes long (see
    /// [`DiskBackend::snapshot_due`]), and recovers whatever committed state
    /// it holds.  The log is fsynced once per committed batch
    /// ([`Durability::Barrier`]).
    ///
    /// Recovery loads the latest valid snapshot, then replays the WAL's
    /// committed batches *newer than the snapshot watermark* (a crash
    /// between snapshot rename and log truncation can leave already-
    /// snapshotted batches in the log; the `seq` filter makes replay
    /// idempotent), stopping cleanly at the first torn or invalid record.
    /// The log is physically truncated back to its valid committed prefix.
    ///
    /// Returns `None` for the recovered state when the directory holds no
    /// committed state at all (a fresh deployment).
    ///
    /// A `snapshot.tmp` left by a crash before its rename is deleted, and so
    /// is the `spill/` directory a store written by an earlier version holds
    /// (a cache of evicted tables; the snapshot + WAL were always the
    /// authoritative copy).
    pub fn open(
        dir: &Path,
        snapshot_floor: u64,
    ) -> Result<(Self, Option<RecoveredState>), StoreError> {
        std::fs::create_dir_all(dir)?;
        for removed in [
            std::fs::remove_dir_all(dir.join("spill")),
            std::fs::remove_file(dir.join("snapshot.tmp")),
        ] {
            match removed {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
                _ => {}
            }
        }

        let snapshot_path = dir.join("snapshot.bin");
        let (snapshot, snapshot_bytes) = match std::fs::metadata(&snapshot_path) {
            Ok(meta) => (Some(snapshot::load_snapshot(&snapshot_path)?), meta.len()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => (None, 0),
            Err(e) => return Err(e.into()),
        };
        let wal_path = dir.join("wal.log");
        let (mut batches, valid) = wal::read_wal(&wal_path)?;
        if let Some(snap) = &snapshot {
            let watermark = snap.seq;
            batches.retain(|b| b.seq > watermark);
        }
        let wal = WalWriter::open(&wal_path, valid, Durability::Barrier)?;

        let recovered = if snapshot.is_some() || !batches.is_empty() {
            Some(RecoveredState { snapshot, batches })
        } else {
            None
        };
        let mut stats = StorageStats::default();
        let mut seq = 0;
        if let Some(rec) = &recovered {
            stats.recovered_batches = rec.batches.len() as u64;
            seq = rec.watermark().0;
        }
        Ok((
            DiskBackend {
                dir: dir.to_path_buf(),
                wal,
                snapshot_floor,
                snapshot_bytes,
                seq,
                stats,
            },
            recovered,
        ))
    }

    /// The data directory this backend persists into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends `ops` as the next committed batch, stamped with `time_bits`
    /// (the clock at the commit) and numbered one past the last.
    pub fn commit_batch(&mut self, ops: &[WalOp], time_bits: u64) -> Result<(), StoreError> {
        self.wal.append_batch(ops, self.seq + 1, time_bits)?;
        self.seq += 1;
        self.stats.committed_batches += 1;
        self.stats.committed_ops += ops.len() as u64;
        Ok(())
    }

    /// Due when the log has outgrown the snapshot it would replace (and the
    /// floor): writes stay within twice the bytes logged plus one snapshot,
    /// and recovery reads at most one snapshot plus a log of that length and
    /// one barrier batch.
    pub fn snapshot_due(&self) -> bool {
        self.wal.len >= self.snapshot_floor.max(self.snapshot_bytes)
    }

    /// Writes `snap`, stamped with the last committed sequence number as its
    /// watermark, and truncates the log it supersedes.
    pub fn write_snapshot(&mut self, mut snap: SnapshotData) -> Result<(), StoreError> {
        snap.seq = self.seq;
        self.snapshot_bytes = snapshot::write_snapshot(&self.dir.join("snapshot.bin"), &snap)?;
        // The rename must be on disk before the truncation can be: after a
        // power cut, the old snapshot beside an empty log would have lost
        // every batch in between.
        std::fs::File::open(&self.dir)?.sync_all()?;
        self.wal.truncate()?;
        self.stats.snapshots_written += 1;
        Ok(())
    }

    /// Log/snapshot counters.
    pub fn stats(&self) -> StorageStats {
        StorageStats {
            wal_bytes: self.wal.len,
            ..self.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exspan_types::tuple::Tuple;
    use exspan_types::value::Value;
    use std::sync::Arc;

    /// A floor no test's log reaches.
    const FLOOR: u64 = 256 * 1024;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "exspan-store-backend-{}-{name}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn op(node: u32, cost: i64) -> WalOp {
        WalOp::Tuple {
            node,
            insert: true,
            tuple: Arc::new(Tuple::new(
                "pathCost",
                node,
                vec![Value::Node(node + 1), Value::Int(cost)],
            )),
        }
    }

    #[test]
    fn fresh_open_recovers_nothing() {
        let dir = tmp("fresh");
        let (backend, recovered) = DiskBackend::open(&dir, FLOOR).unwrap();
        assert!(recovered.is_none());
        assert_eq!(backend.stats(), StorageStats::default());
    }

    #[test]
    fn commits_recover_across_reopen() {
        let dir = tmp("reopen");
        {
            let (mut b, rec) = DiskBackend::open(&dir, FLOOR).unwrap();
            assert!(rec.is_none());
            b.commit_batch(&[op(1, 5), op(2, 6)], 1.0f64.to_bits())
                .unwrap();
            b.commit_batch(&[op(3, 7)], 2.0f64.to_bits()).unwrap();
        }
        let (mut b, rec) = DiskBackend::open(&dir, FLOOR).unwrap();
        let rec = rec.expect("state recovered");
        assert!(rec.snapshot.is_none());
        assert_eq!(rec.batches.len(), 2);
        assert_eq!(rec.watermark(), (2, 2.0f64.to_bits()));
        // Numbering resumes from the recovered watermark.
        b.commit_batch(&[op(4, 8)], 3.0f64.to_bits()).unwrap();
        drop(b);
        let (_, rec) = DiskBackend::open(&dir, FLOOR).unwrap();
        assert_eq!(rec.unwrap().watermark(), (3, 3.0f64.to_bits()));
    }

    #[test]
    fn snapshot_truncates_log_and_filters_stale_batches() {
        let dir = tmp("snapshot");
        let (mut b, _) = DiskBackend::open(&dir, FLOOR).unwrap();
        b.commit_batch(&[op(1, 5)], 1.0f64.to_bits()).unwrap();
        let snap = SnapshotData {
            seq: 0,
            time_bits: 1.0f64.to_bits(),
            node_count: 4,
            links: vec![],
            tables: vec![],
            agg: vec![],
        };
        b.write_snapshot(snap).unwrap();
        assert_eq!(b.stats().wal_bytes, 0);
        b.commit_batch(&[op(2, 6)], 2.0f64.to_bits()).unwrap();
        drop(b);

        let (_, rec) = DiskBackend::open(&dir, FLOOR).unwrap();
        let rec = rec.unwrap();
        assert_eq!(
            rec.snapshot.as_ref().unwrap().seq,
            1,
            "stamped by the store"
        );
        // Only the post-snapshot batch replays.
        assert_eq!(rec.batches.len(), 1);
        assert_eq!(rec.batches[0].seq, 2);
        assert_eq!(rec.watermark(), (2, 2.0f64.to_bits()));

        // Simulate a crash between snapshot rename and log truncation: put
        // a batch 1 back into the log — recovery must filter it out.  The
        // store numbers its own commits, so the stale batch goes through the
        // log writer.
        drop(rec);
        let wal_path = dir.join("wal.log");
        let len = std::fs::metadata(&wal_path).unwrap().len();
        let mut w = WalWriter::open(&wal_path, len, Durability::Barrier).unwrap();
        w.append_batch(&[op(9, 1)], 1, 0.5f64.to_bits()).unwrap();
        drop(w);
        assert_eq!(wal::read_wal(&wal_path).unwrap().0.len(), 2);
        let (_, rec) = DiskBackend::open(&dir, FLOOR).unwrap();
        let seqs: Vec<u64> = rec.unwrap().batches.iter().map(|bt| bt.seq).collect();
        assert_eq!(seqs, [2]);
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated_on_open() {
        let dir = tmp("torn");
        {
            let (mut b, _) = DiskBackend::open(&dir, FLOOR).unwrap();
            b.commit_batch(&[op(1, 5)], 1.0f64.to_bits()).unwrap();
        }
        let wal = dir.join("wal.log");
        let committed = std::fs::metadata(&wal).unwrap().len();
        let mut data = std::fs::read(&wal).unwrap();
        data.extend_from_slice(&[0xAB; 23]);
        std::fs::write(&wal, &data).unwrap();
        let (b, rec) = DiskBackend::open(&dir, FLOOR).unwrap();
        assert_eq!(rec.unwrap().batches.len(), 1);
        drop(b);
        assert_eq!(std::fs::metadata(&wal).unwrap().len(), committed);
    }

    /// A store whose snapshot floor is `floor` bytes of log.
    fn open_with_floor(dir: &Path, floor: u64) -> DiskBackend {
        DiskBackend::open(dir, floor).unwrap().0
    }

    /// Commits one batch of `ops` fixed-width operations of cost `cost` and
    /// returns the bytes it appended (the same for every batch of that many).
    fn commit(b: &mut DiskBackend, cost: i64, ops: u32) -> u64 {
        let before = b.stats().wal_bytes;
        let ops: Vec<WalOp> = (0..ops).map(|i| op(i, cost)).collect();
        b.commit_batch(&ops, 0).unwrap();
        b.stats().wal_bytes - before
    }

    /// Writes a snapshot whose `snapshot.bin` is exactly `file_len` bytes
    /// long: one row carrying a string padded to fit.
    fn write_snapshot_of_len(b: &mut DiskBackend, file_len: u64) {
        let with_pad = |pad: u64| SnapshotData {
            seq: 0,
            time_bits: 0,
            node_count: 4,
            links: vec![],
            tables: vec![crate::TableDump {
                node: 0,
                relation: exspan_types::symbol::RelId::intern("pad"),
                rows: vec![(
                    Arc::new(Tuple::new(
                        "pad",
                        0,
                        vec![Value::from("x".repeat(pad as usize))],
                    )),
                    1,
                )],
            }],
            agg: vec![],
        };
        let mut body = Vec::new();
        snapshot::encode_snapshot(&with_pad(0), &mut body);
        let unpadded = body.len() as u64 + 4; // + the trailing CRC
        b.write_snapshot(with_pad(file_len - unpadded)).unwrap();
        let written = std::fs::metadata(b.dir().join("snapshot.bin")).unwrap();
        assert_eq!(written.len(), file_len);
    }

    #[test]
    fn nothing_is_due_below_the_floor_and_never_at_u64_max() {
        let batch = commit(&mut open_with_floor(&tmp("due-probe"), 1), 1, 4);
        let mut b = open_with_floor(&tmp("due-floor"), 3 * batch);
        assert!(!b.snapshot_due());
        commit(&mut b, 1, 4);
        commit(&mut b, 2, 4);
        assert!(!b.snapshot_due(), "two batches are under a floor of three");
        commit(&mut b, 3, 4);
        assert!(b.snapshot_due(), "the floor is inclusive");

        let mut never = open_with_floor(&tmp("due-never"), u64::MAX);
        commit(&mut never, 1, 4);
        assert!(!never.snapshot_due());
        // Not even with a snapshot shorter than the log since.
        write_snapshot_of_len(&mut never, batch);
        commit(&mut never, 2, 4);
        assert!(!never.snapshot_due());
    }

    #[test]
    fn due_exactly_when_the_log_is_as_long_as_the_snapshot_it_would_replace() {
        let batch = commit(&mut open_with_floor(&tmp("amortised-probe"), 1), 1, 4);
        for (snapshot_len, due_after_three) in [(3 * batch + 1, false), (3 * batch, true)] {
            let mut b = open_with_floor(&tmp("amortised"), 1);
            write_snapshot_of_len(&mut b, snapshot_len);
            commit(&mut b, 1, 4);
            commit(&mut b, 2, 4);
            assert!(!b.snapshot_due(), "the floor alone was passed long ago");
            commit(&mut b, 3, 4);
            assert_eq!(b.stats().wal_bytes, 3 * batch);
            assert_eq!(b.snapshot_due(), due_after_three);
            commit(&mut b, 4, 4);
            assert!(b.snapshot_due());
            // Each snapshot written moves the threshold to its own length.
            write_snapshot_of_len(&mut b, batch + 1);
            commit(&mut b, 5, 4);
            assert!(!b.snapshot_due());
            commit(&mut b, 6, 4);
            assert!(b.snapshot_due());
        }
    }

    #[test]
    fn reopen_takes_the_threshold_from_disk_and_counts_the_surviving_log() {
        let dir = tmp("amortised-reopen");
        let mut b = open_with_floor(&dir, 1);
        let batch = commit(&mut b, 1, 4);
        write_snapshot_of_len(&mut b, 3 * batch);
        commit(&mut b, 2, 4);
        commit(&mut b, 3, 4);
        drop(b);
        let mut b = open_with_floor(&dir, 1);
        assert_eq!(b.stats().wal_bytes, 2 * batch);
        assert!(!b.snapshot_due(), "threshold forgotten across the reopen");
        commit(&mut b, 4, 4);
        assert!(b.snapshot_due(), "the two surviving batches must count");
    }

    #[test]
    fn writes_stay_within_twice_the_log_plus_one_snapshot() {
        // Grow-then-churn, driven the way the engine drives a backend: one
        // large batch builds the state, then small batches replace rows in
        // place, so the state — modelled as a snapshot as long as the log
        // that built it — keeps its size.
        let mut b = open_with_floor(&tmp("amortised-bound"), 1024);
        let state = commit(&mut b, 1, 400);
        let (mut logged, mut batch, mut snapshots) = (state, 0, 0);
        for cost in 2..=400 {
            if b.snapshot_due() {
                write_snapshot_of_len(&mut b, state);
                snapshots += 1;
            }
            batch = commit(&mut b, cost, 20);
            logged += batch;
        }
        assert!(snapshots >= 5, "only {snapshots} checkpoint cycles");
        let written = logged + snapshots * state;
        assert!(
            written <= 2 * logged + state,
            "{written} B written for {logged} B logged and {snapshots} snapshots of {state} B"
        );
        // And not by never checkpointing: the log a recovery would replay
        // stays under one snapshot plus one batch.
        assert!(b.stats().wal_bytes < state + batch);
    }

    #[test]
    fn stale_spill_files_and_snapshot_tmp_are_cleared_on_open() {
        let dir = tmp("spill-clear");
        std::fs::create_dir_all(dir.join("spill")).unwrap();
        std::fs::write(dir.join("spill/n0_x.tbl"), b"stale").unwrap();
        std::fs::write(dir.join("snapshot.tmp"), b"half a snapshot").unwrap();
        let (_, rec) = DiskBackend::open(&dir, FLOOR).unwrap();
        assert!(!dir.join("spill").exists());
        assert!(rec.is_none(), "a temp file is not a snapshot");
        assert!(!dir.join("snapshot.tmp").exists());
    }
}
