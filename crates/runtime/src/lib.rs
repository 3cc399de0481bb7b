//! # exspan-runtime
//!
//! The distributed declarative-networking engine (RapidNet substitute):
//! a pipelined semi-naïve (PSN) evaluator for NDlog programs running over the
//! discrete-event network simulator.
//!
//! Responsibilities:
//!
//! * [`table`] — per-node materialized tables with keyed-update semantics and
//!   derivation counting (the "additional bookkeeping to maintain multiple
//!   derivations of the same tuple" of paper §4.2).
//! * [`shard`] — one shard of the runtime: the delta-processing core
//!   (distributed rule evaluation with body joins at one location, head
//!   shipped to its location specifier, MIN/MAX/COUNT aggregate maintenance,
//!   incremental insertion *and* deletion with cascades) over the subset of
//!   nodes the shard owns.
//! * [`engine`] — the [`engine::Engine`]: partitions the topology's nodes
//!   over shards by rendezvous hashing (one shard when it keeps a journal
//!   for a durable store, which the engine's owner commits: the engine does
//!   no I/O).
//!   [`engine::Engine::run_until`] is the one way to advance simulated time:
//!   all a caller says is how far, and whether it listens for external
//!   tuples.  It has two event loops — deterministic barrier windows, one
//!   thread per shard, and a stepping loop in global event order for one
//!   shard or a listening caller, which it hands each external tuple back
//!   to as it arrives — with bit-identical results.
//! * [`value_policy`] — *value-based* provenance (paper §3: every
//!   transmitted tuple carries its BDD-condensed derivation history), which
//!   the shard maintains on every base change, rule firing and send of an
//!   engine built with it, in the annotation each table row carries; each
//!   shard owns a policy and the policy its BDD store, and a history
//!   crossing shards travels in the store's canonical encoding.
//!
//! The engine deliberately exposes low-level access (per-node tables, raw
//! message injection, a run that hands back the event tuples no rule
//! handles) so that the provenance query protocol of `exspan-core` can be
//! layered on top as plain message traffic.

pub mod engine;
pub mod shard;
pub mod table;
pub mod value_policy;

pub use engine::{Engine, EngineConfig, External, FixpointStats, Payload, MAX_STEPS};
pub use table::{DeleteEffect, InsertEffect, Table};
pub use value_policy::ValueBddPolicy;
