//! The benchmark's contract in one place: workload names, every metric's
//! name, unit, direction and bound.  `BENCHMARK.json` at the repository root
//! states the same thing for the driver; a unit test keeps the two equal.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ConvergeRef,
    ConvergeValue,
    ChurnDurable,
    QueryChurn,
    ServeQuery,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload::ConvergeRef,
    Workload::ConvergeValue,
    Workload::ChurnDurable,
    Workload::QueryChurn,
    Workload::ServeQuery,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::ConvergeRef => "converge-ref",
            Workload::ConvergeValue => "converge-value",
            Workload::ChurnDurable => "churn-durable",
            Workload::QueryChurn => "query-churn",
            Workload::ServeQuery => "serve-query",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        WORKLOADS.into_iter().find(|w| w.name() == name)
    }

    /// One line, as recorded in `BENCHMARK.json`.
    pub fn why(self) -> &'static str {
        match self {
            Workload::ConvergeRef => {
                "PATHVECTOR to fixpoint, reference provenance: runtime tables, ndlog joins and VID \
                 hashing busy; bdd, store and serve idle"
            }
            Workload::ConvergeValue => {
                "same program and topology, value (BDD) provenance: bdd apply and the shared store \
                 lock dominate, so 2 shards can lose to 1"
            }
            Workload::ChurnDurable => {
                "MINCOST under link churn on the default durable store: deletions, re-derivation, \
                 WAL append, fsync and snapshot rewrite per batch; then reopen a copy of the store"
            }
            Workload::QueryChurn => {
                "in-process provenance queries beside churn on one simulated clock: traversal, \
                 result cache with invalidations, no sockets"
            }
            Workload::ServeQuery => {
                "the same query mix over loopback TCP against exspan-serve: closed-loop windows, 32 \
                 in flight, for capacity and latency; open-loop Poisson windows when traced"
            }
        }
    }
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median an end-to-end metric may worsen by;
    /// unused (0) for per-layer metrics.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees.  Every workload reports every one of
/// these (the driver's contract), so each is defined per workload in the
/// README's table; none is ever 0.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("ops_per_s_2shard", "1/s", Higher, 0.25),
    e2e("lat_p50_ms", "ms", Lower, 0.25),
    e2e("bytes_per_op", "B", Lower, 0.1),
    e2e("peak_rss_mb", "MB", Lower, 0.1),
];

/// Single-layer measurements, taken from outside the crates by timing calls
/// into their public functions.  A metric of a layer that is idle on a
/// workload reads 0 there.
pub const PER_LAYER: [Metric; 75] = [
    layer("runtime.steps", "count", Lower),
    layer("runtime.us_per_step", "us", Lower),
    layer("runtime.table_insert_ns", "ns", Lower),
    layer("runtime.table_probe_ns", "ns", Lower),
    layer("runtime.table_delete_ns", "ns", Lower),
    layer("runtime.shard_speedup", "ratio", Higher),
    layer("runtime.tuples_stored", "count", Lower),
    layer("runtime.churn_batch_p50_ms", "ms", Lower),
    layer("runtime.churn_batch_max_ms", "ms", Lower),
    layer("runtime.interactive_us_per_step", "us", Lower),
    layer("netsim.messages", "count", Lower),
    layer("netsim.bytes", "B", Lower),
    layer("netsim.comm_mb_per_node", "MB", Lower),
    layer("netsim.queue_ns", "ns", Lower),
    layer("types.vid_ns", "ns", Lower),
    layer("types.wire_size_ns", "ns", Lower),
    layer("types.compress_mb_s", "MB/s", Higher),
    layer("types.decompress_mb_s", "MB/s", Higher),
    layer("types.compress_ratio", "ratio", Higher),
    layer("ndlog.parse_us", "us", Lower),
    layer("ndlog.plan_us", "us", Lower),
    layer("core.rewrite_us", "us", Lower),
    layer("core.build_ms", "ms", Lower),
    layer("bdd.apply_ns", "ns", Lower),
    layer("bdd.memo_hit_ratio", "ratio", Higher),
    layer("bdd.memo_clears", "count", Lower),
    layer("bdd.nodes", "count", Lower),
    layer("bdd.two_thread_scaling", "ratio", Higher),
    layer("core.value_annotation_bytes", "B", Lower),
    layer("store.committed_ops", "count", Lower),
    layer("store.committed_batches", "count", Lower),
    layer("store.snapshots_written", "count", Lower),
    layer("store.bytes_written", "B", Lower),
    layer("store.snapshot_bytes", "B", Lower),
    layer("store.snapshot_encode_mb_s", "MB/s", Higher),
    layer("store.tuple_codec_ns", "ns", Lower),
    layer("store.wal_append_us_per_op", "us", Lower),
    layer("store.fsync_ms_per_batch", "ms", Lower),
    layer("store.wal_replay_ops_per_s", "1/s", Higher),
    layer("store.recover_ms", "ms", Lower),
    layer("core.query_uncached_us", "us", Lower),
    layer("core.query_cached_us", "us", Lower),
    layer("core.query_uncached_p95_us", "us", Lower),
    layer("core.cache_hit_ratio", "ratio", Higher),
    layer("core.cache_invalidations", "count", Lower),
    layer("core.cache_stale_answers", "count", Lower),
    layer("core.query_msgs_per_query", "count", Lower),
    layer("core.query_bytes_per_query", "B", Lower),
    layer("core.render_us", "us", Lower),
    layer("core.digest_ms", "ms", Lower),
    layer("serve.encode_frame_ns", "ns", Lower),
    layer("serve.decode_frame_ns", "ns", Lower),
    layer("serve.connect_ms", "ms", Lower),
    layer("serve.submit_ack_p50_ms", "ms", Lower),
    layer("serve.submit_ack_p99_ms", "ms", Lower),
    layer("serve.complete_wait_p50_ms", "ms", Lower),
    layer("serve.body_stream_p50_ms", "ms", Lower),
    layer("serve.polls_per_query", "count", Lower),
    layer("serve.wire_bytes_per_query", "B", Lower),
    layer("serve.sim_latency_p50_ms", "ms", Lower),
    layer("serve.overhead_p50_ms", "ms", Lower),
    layer("serve.overhead_p99_ms", "ms", Lower),
    layer("serve.gen_lateness_p99_ms", "ms", Lower),
    layer("serve.drain_ms", "ms", Lower),
    layer("serve.lat_p50_ms_400qps", "ms", Lower),
    layer("serve.lat_p99_ms_400qps", "ms", Lower),
    layer("serve.lat_p50_ms_800qps", "ms", Lower),
    layer("serve.lat_p99_ms_800qps", "ms", Lower),
    layer("serve.timeouts", "count", Lower),
    layer("harness.trace_overhead_pct", "%", Lower),
    layer("harness.cpu_wait_ms", "ms", Lower),
    layer("harness.host_factor", "ratio", Lower),
    layer("harness.raw_ops_per_s", "1/s", Higher),
    layer("harness.children", "count", Higher),
    layer("harness.spans", "count", Lower),
];

/// Per-layer metrics that are pure functions of the seed: two runs of the
/// same code on the same seed must print identical values (`compare`
/// requires equality), which is what lets a later change be judged on a
/// count rather than a timing.
pub const EXACT: [&str; 9] = [
    "runtime.steps",
    "runtime.tuples_stored",
    "netsim.messages",
    "netsim.bytes",
    "netsim.comm_mb_per_node",
    "core.value_annotation_bytes",
    "store.committed_ops",
    "store.committed_batches",
    "store.snapshots_written",
];

pub fn end_to_end(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn valid_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        !s.is_empty()
            && s.len() <= 64
            && s.chars().all(ok)
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn valid_unit(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        !s.is_empty() && s.len() <= 16 && s.chars().all(ok)
    }

    #[test]
    fn names_units_and_bounds_are_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(valid_name(w.name()) && seen.insert(w.name()));
            assert!(w.why().len() <= 200 && !w.why().contains('\n'));
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(valid_unit(m.unit), "{}", m.unit);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        let setup = end_to_end("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128 && WORKLOADS.len() <= 8);
        for name in EXACT {
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
    }

    /// `BENCHMARK.json` is written by hand for the driver; this keeps it
    /// saying what the code does.
    #[test]
    fn benchmark_json_states_the_same_contract() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<String> {
            json::as_array(json::field(&doc, key).unwrap())
                .unwrap()
                .iter()
                .map(|m| {
                    json::as_str(json::field(m, "name").unwrap())
                        .unwrap()
                        .to_string()
                })
                .collect()
        };
        assert_eq!(
            names("workloads"),
            WORKLOADS.map(|w| w.name().to_string()).to_vec()
        );
        for (entry, w) in json::as_array(json::field(&doc, "workloads").unwrap())
            .unwrap()
            .iter()
            .zip(WORKLOADS)
        {
            assert_eq!(
                json::as_str(json::field(entry, "why").unwrap()).unwrap(),
                w.why()
            );
        }
        for (key, metrics, bounded) in [
            ("end_to_end", &END_TO_END[..], true),
            ("per_layer", &PER_LAYER[..], false),
        ] {
            let entries = json::as_array(json::field(&doc, key).unwrap()).unwrap();
            assert_eq!(entries.len(), metrics.len(), "{key}");
            for (entry, m) in entries.iter().zip(metrics) {
                let s = |k: &str| json::as_str(json::field(entry, k).unwrap()).unwrap();
                assert_eq!(s("name"), m.name);
                assert_eq!(s("unit"), m.unit, "{}", m.name);
                assert_eq!(s("better"), m.better.as_str(), "{}", m.name);
                if bounded {
                    let bound = json::as_f64(json::field(entry, "bound").unwrap()).unwrap();
                    assert_eq!(bound, m.bound, "{}", m.name);
                }
            }
        }
    }
}
