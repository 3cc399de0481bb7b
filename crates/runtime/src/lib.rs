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
//! * [`engine`] — the [`engine::Engine`] coordinator: partitions the
//!   topology's nodes over shards by rendezvous hashing (one shard when it
//!   carries an annotation policy).
//!   [`engine::Engine::run_until`] is the one way to advance simulated time:
//!   all a caller says is how far.  It has two event loops — deterministic
//!   barrier windows on worker threads, and a stepping loop in global event
//!   order for one shard or while an [`plugin::ExternalSink`] is listening —
//!   with bit-identical results.
//! * [`plugin`] — the [`plugin::AnnotationPolicy`] hook through which the
//!   provenance layer implements *value-based* provenance (annotations
//!   attached to every transmitted tuple) without the engine knowing anything
//!   about provenance; the engine's one shard owns it.
//!
//! The engine deliberately exposes low-level access (per-node tables, raw
//! message injection, an [`plugin::ExternalSink`] that receives unknown event
//! tuples) so that the provenance query protocol of `exspan-core` can be
//! layered on top as plain message traffic.

pub mod engine;
pub mod plugin;
pub mod shard;
pub mod table;

pub use engine::{Engine, EngineConfig, FixpointStats, Payload};
pub use plugin::{AnnotationPolicy, AnnotationToken, ExternalSink};
pub use table::{DeleteEffect, InsertEffect, Table};
