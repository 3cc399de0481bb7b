//! # `exspan-store` — log-structured persistence for ExSPAN deployments
//!
//! Every engine table is an in-memory `BTreeMap`; this crate gives a
//! deployment a durable second copy of that state in [`DiskBackend`], which
//! the deployment owns: the engine only journals, and does no I/O.  Two
//! mechanisms compose:
//!
//! 1. **Append-only WAL** ([`wal`]).  During a run the engine journals
//!    every logical table operation (insert/delete intents, topology link
//!    changes, aggregate-provenance bookkeeping) in one list — a journaling
//!    engine runs one shard — and after each run that journaled something
//!    the deployment appends the list as one checksummed, length-prefixed
//!    batch closed by a commit record, fsynced before the run returns.
//! 2. **Canonical snapshots, amortised** ([`snapshot`]).  Once the log has
//!    outgrown the state — `wal.log` is at least as long as the
//!    `snapshot.bin` it would replace, and at least the floor
//!    [`DiskBackend::open`] was given — the deployment hands the store a
//!    full dump — tables in `(node, relation)` order with rows in `scan()`
//!    order, the link set, and the aggregate-provenance map, all sorted
//!    canonically — so snapshot bytes are a pure function of logical state,
//!    the same whichever order execution reached it in.  Every snapshot
//!    byte is paid for by a logged byte: a store writes at most twice what
//!    it logs plus one snapshot, recovery reads at most one snapshot plus a
//!    log of that length and one barrier batch (so replaying a tail is the
//!    normal recovery path), and the directory holds at most about two
//!    snapshots' worth of bytes.  The ratio is the constant 1, not an
//!    option.
//!
//! ## Recovery invariants
//!
//! A commit is one `write` of a whole batch to `wal.log` followed by an
//! fsync, before the deployment's `run_until` returns.  A snapshot is, in
//! this order: write `snapshot.tmp`, fsync it, rename it over
//! `snapshot.bin`, **fsync the directory**, truncate `wal.log`, fsync that.
//! The directory fsync is what makes the rename durable before the
//! truncation can be; without it a power cut could leave the old snapshot
//! beside an empty log, losing every batch in between.  A crash therefore
//! leaves one of: the old snapshot + the full log (a leftover
//! `snapshot.tmp` is deleted on open); the new snapshot + the full log,
//! whose batches it already contains; the new snapshot + an empty log.
//!
//! Opening a data directory ([`DiskBackend::open`]) loads the latest valid
//! snapshot, replays committed WAL batches newer than the snapshot's
//! watermark (the `seq` filter makes replay idempotent in the second case
//! above), and stops cleanly at the first torn or invalid record — a short
//! frame, checksum mismatch, undecodable payload, or trailing operations
//! without a commit are all treated as the crash tail, never a panic.
//! Because the journal records
//! logical intents and replay drives them through the identical table
//! code, the recovered tables are **byte-identical** to the state at the
//! last committed barrier: same rows, same duplicate counts, same keyed-
//! replacement outcomes.
//!
//! What recovery restores is the state as of the last committed barrier —
//! a quiescent point when commits happen at fixpoints.  In-flight
//! simulator events and traffic statistics are transient by design and are
//! not part of the durable state.
//!
//! ## On-disk layout
//!
//! ```text
//! <data_dir>/wal.log       committed delta batches (framed, CRC-32)
//! <data_dir>/snapshot.bin  latest canonical snapshot (atomic rename)
//! ```
//!
//! This crate depends only on `exspan-types`, and its value/tuple codec
//! ([`codec`]) *is* `exspan_types::codec`: records persist the canonical
//! hash encoding (the bytes that name a tuple in a provenance VID are the
//! bytes that store it).

pub mod backend;
pub mod codec;
pub mod crc32;
pub mod snapshot;
pub mod wal;

pub use backend::{DiskBackend, RecoveredState, StorageStats};
use codec::DecodeError;
pub use snapshot::{AggProvEntry, SnapshotData, TableDump};
pub use wal::{Durability, LinkRecord, WalBatch, WalOp};

/// A storage failure: I/O, codec, or a corruption the checksums caught.
#[derive(Debug)]
pub enum StoreError {
    Io(std::io::Error),
    Codec(DecodeError),
    Corrupt(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "storage I/O error: {e}"),
            StoreError::Codec(e) => write!(f, "storage codec error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "storage corruption: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Codec(e) => Some(e),
            StoreError::Corrupt(_) => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<DecodeError> for StoreError {
    fn from(e: DecodeError) -> Self {
        StoreError::Codec(e)
    }
}
