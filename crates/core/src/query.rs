//! Distributed provenance querying (§5) and its optimizations (§6).
//!
//! A provenance query for a tuple `VID` stored at node `X` traverses the
//! distributed provenance graph: the `prov` entries at `X` name the rule
//! executions (`RID @ RLoc`) that derived the tuple; an `eRuleQuery` message
//! is sent to each `RLoc`, where the `ruleExec` entry lists the input tuple
//! vertices, which are resolved recursively (locally at `RLoc`, possibly
//! fanning out to further remote rule executions) until base tuples are
//! reached.  Annotations are combined on the way back with the
//! representation's `f_pRULE` / `f_pIDB` functions and returned along the
//! reverse path.
//!
//! The implementation mirrors the NDlog query rules of §5.1 (`edb1`, `c0`,
//! `idb1`–`idb4`, `rv1`–`rv4`) as an explicit message-driven state machine:
//! `eProvQuery` / `eRuleQuery` / `eProvResults` / `eRuleResults` tuples are
//! exchanged through the engine (so their bandwidth and latency are accounted
//! exactly like protocol traffic), and the per-node buffering that
//! `pResultTmp` performs is held in the session's pending-query tables.
//!
//! The machinery lives in the private `SessionCore`, one instance per *query session*
//! (a representation + traversal + caching configuration).  Sessions are
//! owned and driven by [`crate::deployment::Deployment`], whose unified event
//! loop interleaves query messages with protocol maintenance and churn on one
//! simulated clock.
//!
//! Optimizations:
//!
//! * **Result caching** (§6.1) — completed sub-results are cached at the node
//!   that computed them (tuple results keyed by VID, rule results keyed by
//!   RID); later queries reaching that node reuse them.  Caches are
//!   invalidated transitively when a base tuple changes.
//! * **Traversal orders** (§6.2) — BFS explores all alternative derivations
//!   at once; DFS explores them sequentially; DFS-with-threshold stops as
//!   soon as the partial result satisfies the query's threshold; random
//!   moonwalk explores a random subset of derivations.

use crate::repr::{Annotation, ProvenanceRepr};
use crate::storage::{prov_entries, rule_exec_entry};
use exspan_runtime::Engine;
use exspan_types::wire::{message_size, BandwidthSeries};
use exspan_types::{sha1_digest, Digest, NodeId, Rid, Tuple, Value, Vid};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};

/// How the provenance graph is traversed (§6.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraversalOrder {
    /// Query all alternative derivations simultaneously.
    Bfs,
    /// Explore alternative derivations one at a time.
    Dfs,
    /// DFS that terminates as soon as the partial result exceeds the given
    /// threshold (e.g. "more than T derivations").
    DfsThreshold(i64),
    /// Explore at most `fanout` randomly chosen derivations per tuple.
    RandomMoonwalk {
        /// Number of derivations explored per tuple vertex.
        fanout: usize,
        /// PRNG seed.
        seed: u64,
    },
}

/// Short alias for [`TraversalOrder`], matching the builder-style query API
/// (`.traversal(Traversal::Bfs)`).
pub use TraversalOrder as Traversal;

/// The final state of one issued query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Node that issued the query.
    pub issuer: NodeId,
    /// Node at which the queried tuple resides.
    pub target_node: NodeId,
    /// Vertex identifier of the queried tuple.
    pub vid: Vid,
    /// Simulated time at which the query was issued.
    pub issued_at: f64,
    /// Simulated time at which the result reached the issuer (if completed).
    pub completed_at: Option<f64>,
    /// The resulting annotation (if completed).
    pub annotation: Option<Annotation>,
}

impl QueryOutcome {
    /// Query completion latency in seconds, if the query completed.
    pub fn latency(&self) -> Option<f64> {
        self.completed_at.map(|c| c - self.issued_at)
    }

    /// Whether the query has completed.
    pub fn is_complete(&self) -> bool {
        self.completed_at.is_some()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum CacheKey {
    Tuple(Vid),
    Rule(Rid),
}

#[derive(Debug, Clone)]
enum ReplyTo {
    /// The final requester of query `index`.
    Requester { node: NodeId, index: usize },
    /// A pending rule query waiting for one of its children.
    Rule { rqid: Digest },
}

#[derive(Debug)]
struct PendingTuple {
    vid: Vid,
    node: NodeId,
    reply: ReplyTo,
    /// Children (rule executions) not yet dispatched.
    remaining: Vec<(Rid, NodeId)>,
    /// Number of dispatched children whose results are still outstanding.
    outstanding: usize,
    results: Vec<Annotation>,
}

#[derive(Debug)]
struct PendingRule {
    rid: Rid,
    rule: String,
    rloc: NodeId,
    /// The tuple query waiting for this rule's result.
    parent_qid: Digest,
    /// Node at which the parent tuple query is buffering.
    parent_node: NodeId,
    /// Child tuple vertices not yet dispatched (resolved locally at rloc).
    remaining: Vec<Vid>,
    outstanding: usize,
    results: Vec<Annotation>,
}

/// Per-session statistics: query traffic plus cache behavior.
#[derive(Debug, Clone)]
pub struct SessionStats {
    /// Total bytes of query-protocol messages (requests + responses).
    pub bytes: u64,
    /// Total number of query-protocol messages.
    pub messages: u64,
    /// Number of cache hits.
    pub cache_hits: u64,
    /// Number of cache misses (sub-queries actually executed).
    pub cache_misses: u64,
    /// Number of cache entries invalidated.
    pub invalidations: u64,
}

impl SessionStats {
    pub(crate) fn zero() -> Self {
        SessionStats {
            bytes: 0,
            messages: 0,
            cache_hits: 0,
            cache_misses: 0,
            invalidations: 0,
        }
    }

    pub(crate) fn merge_from(&mut self, other: &SessionStats) {
        self.bytes += other.bytes;
        self.messages += other.messages;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.invalidations += other.invalidations;
    }
}

/// Mutable state shared by every session of one deployment, threaded through
/// the query machinery: the engine (message transport + clock), the global
/// outcome table, the digest→session routing map used to dispatch incoming
/// query messages, and the deployment-wide id counter that keeps message ids
/// unique across concurrent sessions.
pub(crate) struct Ctx<'a> {
    pub(crate) engine: &'a mut Engine,
    pub(crate) outcomes: &'a mut Vec<QueryOutcome>,
    pub(crate) route: &'a mut HashMap<Digest, usize>,
    pub(crate) next_id: &'a mut u64,
    /// Count of submitted-but-undelivered outcomes, decremented on delivery.
    pub(crate) incomplete: &'a mut usize,
}

/// The per-session state machine of the distributed query protocol: one
/// representation + traversal + caching configuration, its result cache, and
/// its pending-query tables.
pub(crate) struct SessionCore {
    session_id: usize,
    repr: Box<dyn ProvenanceRepr>,
    traversal: TraversalOrder,
    caching_enabled: bool,
    /// Cached results by vertex, so invalidation reaches the entry for a VID
    /// or RID by lookup.  The node is not part of the key: a VID or RID digest
    /// covers its location, and a vertex is only ever queried at that node.
    cache: HashMap<CacheKey, Annotation>,
    /// child digest -> vertices whose cached results were computed from it.
    dependents: HashMap<Digest, HashSet<Digest>>,
    pending_tuples: HashMap<Digest, PendingTuple>,
    pending_rules: HashMap<Digest, PendingRule>,
    /// Annotations travelling inside result messages, keyed by the message id.
    in_flight: HashMap<Digest, Annotation>,
    /// Scheduled query issuance (global outcome index -> issuer and target).
    scheduled: HashMap<i64, (NodeId, Tuple)>,
    series: BandwidthSeries,
    stats: SessionStats,
    rng: SmallRng,
}

impl SessionCore {
    pub(crate) fn new(
        session_id: usize,
        repr: Box<dyn ProvenanceRepr>,
        traversal: TraversalOrder,
        caching: bool,
    ) -> Self {
        // Only a moonwalk draws from the generator.
        let seed = match traversal {
            TraversalOrder::RandomMoonwalk { seed, .. } => seed,
            _ => 0,
        };
        SessionCore {
            session_id,
            repr,
            traversal,
            caching_enabled: caching,
            cache: HashMap::new(),
            dependents: HashMap::new(),
            pending_tuples: HashMap::new(),
            pending_rules: HashMap::new(),
            in_flight: HashMap::new(),
            scheduled: HashMap::new(),
            series: BandwidthSeries::new(0.1),
            stats: SessionStats::zero(),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    pub(crate) fn caching(&self) -> bool {
        self.caching_enabled
    }

    pub(crate) fn repr(&self) -> &dyn ProvenanceRepr {
        self.repr.as_ref()
    }

    pub(crate) fn stats(&self) -> &SessionStats {
        &self.stats
    }

    pub(crate) fn bandwidth_samples(&self) -> Vec<(f64, f64)> {
        self.series.samples()
    }

    pub(crate) fn cache_entries(&self) -> usize {
        self.cache.len()
    }

    /// Whether the session still has unresolved protocol state (queries
    /// waiting to be issued, buffered sub-queries, or results in flight).
    pub(crate) fn has_pending(&self) -> bool {
        !self.scheduled.is_empty()
            || !self.pending_tuples.is_empty()
            || !self.pending_rules.is_empty()
            || !self.in_flight.is_empty()
    }

    /// Drops all unresolved protocol state (used when the event queue has
    /// drained and the corresponding messages can never arrive).  The result
    /// cache is kept — completed results stay valid.
    pub(crate) fn clear_pending(&mut self) {
        self.scheduled.clear();
        self.pending_tuples.clear();
        self.pending_rules.clear();
        self.in_flight.clear();
    }

    fn fresh_id(&mut self, ctx: &mut Ctx, tag: &str) -> Digest {
        *ctx.next_id += 1;
        sha1_digest(format!("{tag}:{}", *ctx.next_id).as_bytes())
    }

    /// Registers a network-visible id in the dispatch route (idempotent);
    /// the entry lives until the id's terminal message is consumed.
    fn register(&self, ctx: &mut Ctx, id: Digest) {
        ctx.route.insert(id, self.session_id);
    }

    // ------------------------------------------------------------------
    // Query issuance
    // ------------------------------------------------------------------

    /// Issues a provenance query for `target` from `issuer` immediately.
    /// Returns the global outcome index.
    pub(crate) fn issue_now(&mut self, ctx: &mut Ctx, issuer: NodeId, target: &Tuple) -> usize {
        let index = ctx.outcomes.len();
        let issued_at = ctx.engine.now();
        ctx.outcomes.push(QueryOutcome {
            issuer,
            target_node: target.location,
            vid: target.vid(),
            issued_at,
            completed_at: None,
            annotation: None,
        });
        self.send_prov_query(ctx, issuer, target.location, target.vid(), index);
        index
    }

    /// Schedules a provenance query for `target` to be issued by `issuer` at
    /// simulated time `time`.  Returns the global outcome index.
    pub(crate) fn issue_at(
        &mut self,
        ctx: &mut Ctx,
        time: f64,
        issuer: NodeId,
        target: &Tuple,
    ) -> usize {
        let index = ctx.outcomes.len();
        ctx.outcomes.push(QueryOutcome {
            issuer,
            target_node: target.location,
            vid: target.vid(),
            issued_at: time,
            completed_at: None,
            annotation: None,
        });
        self.scheduled
            .insert(index as i64, (issuer, target.clone()));
        let issue = Tuple::new("eQueryIssue", issuer, vec![Value::Int(index as i64)]);
        ctx.engine.schedule_delta(time, issuer, issue, true);
        index
    }

    /// Handles one external (query-protocol) tuple addressed to this session.
    pub(crate) fn handle_external(
        &mut self,
        ctx: &mut Ctx,
        node: NodeId,
        tuple: &Tuple,
        time: f64,
    ) {
        match tuple.relation.as_str() {
            "eQueryIssue" => {
                let Ok(index) = tuple.values[0].as_int() else {
                    return;
                };
                if let Some((issuer, target)) = self.scheduled.remove(&index) {
                    ctx.outcomes[index as usize].issued_at = time;
                    self.send_prov_query(
                        ctx,
                        issuer,
                        target.location,
                        target.vid(),
                        index as usize,
                    );
                }
            }
            "eProvQuery" => {
                let (Ok(qid), Ok(vid), Ok(ret)) = (
                    tuple.values[0].as_digest(),
                    tuple.values[1].as_digest(),
                    tuple.values[2].as_node(),
                ) else {
                    return;
                };
                let index = tuple.values[3].as_int().unwrap_or(-1);
                let reply = ReplyTo::Requester {
                    node: ret,
                    index: index as usize,
                };
                self.start_tuple_query(ctx, node, qid, vid, reply, time);
            }
            "eRuleQuery" => {
                let (Ok(rqid), Ok(rid), Ok(origin)) = (
                    tuple.values[0].as_digest(),
                    tuple.values[1].as_digest(),
                    tuple.values[2].as_node(),
                ) else {
                    return;
                };
                let Ok(parent_qid) = tuple.values[3].as_digest() else {
                    return;
                };
                self.start_rule_query(ctx, node, rqid, rid, parent_qid, origin, time);
            }
            "eProvResults" => {
                let (Ok(qid), Ok(_vid)) =
                    (tuple.values[0].as_digest(), tuple.values[1].as_digest())
                else {
                    return;
                };
                let index = tuple.values[2].as_int().unwrap_or(-1);
                ctx.route.remove(&qid);
                if let Some(ann) = self.in_flight.remove(&qid) {
                    self.deliver_final(ctx, index as usize, ann, time);
                }
            }
            "eRuleResults" => {
                let Ok(rqid) = tuple.values[0].as_digest() else {
                    return;
                };
                ctx.route.remove(&rqid);
                if let Some(ann) = self.in_flight.remove(&rqid) {
                    let Ok(parent_qid) = tuple.values[1].as_digest() else {
                        return;
                    };
                    self.tuple_child_result(ctx, parent_qid, ann, time);
                }
            }
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // Message sending helpers (all traffic flows through the engine so it is
    // accounted in the simulator's byte counters as well as our own).
    // ------------------------------------------------------------------

    fn account(&mut self, engine: &Engine, tuple: &Tuple, extra: usize) {
        let bytes = message_size(std::slice::from_ref(tuple), extra) as u64;
        self.stats.bytes += bytes;
        self.stats.messages += 1;
        self.series.record(engine.now(), bytes as usize);
    }

    fn send_prov_query(
        &mut self,
        ctx: &mut Ctx,
        issuer: NodeId,
        target_node: NodeId,
        vid: Vid,
        index: usize,
    ) {
        let qid = self.fresh_id(ctx, "q");
        self.register(ctx, qid);
        let tuple = Tuple::new(
            "eProvQuery",
            target_node,
            vec![
                Value::from_digest(qid),
                Value::from_digest(vid),
                Value::Node(issuer),
                Value::Int(index as i64),
            ],
        );
        self.account(ctx.engine, &tuple, 0);
        ctx.engine.send_tuple(issuer, target_node, tuple, 0);
    }

    fn send_rule_query(
        &mut self,
        ctx: &mut Ctx,
        from: NodeId,
        rloc: NodeId,
        rqid: Digest,
        rid: Rid,
        parent_qid: Digest,
    ) {
        self.register(ctx, rqid);
        let tuple = Tuple::new(
            "eRuleQuery",
            rloc,
            vec![
                Value::from_digest(rqid),
                Value::from_digest(rid),
                Value::Node(from),
                Value::from_digest(parent_qid),
            ],
        );
        self.account(ctx.engine, &tuple, 0);
        ctx.engine.send_tuple(from, rloc, tuple, 0);
    }

    // ------------------------------------------------------------------
    // Tuple-vertex queries (the idb1–idb4 rules)
    // ------------------------------------------------------------------

    fn start_tuple_query(
        &mut self,
        ctx: &mut Ctx,
        node: NodeId,
        qid: Digest,
        vid: Vid,
        reply: ReplyTo,
        time: f64,
    ) {
        // Cache check.
        if self.caching_enabled {
            if let Some(ann) = self.cache.get(&CacheKey::Tuple(vid)).cloned() {
                self.stats.cache_hits += 1;
                self.reply_tuple(ctx, node, qid, vid, ann, reply, time);
                return;
            }
        }
        self.stats.cache_misses += 1;

        let entries = prov_entries(ctx.engine, node, vid);
        let mut results = Vec::new();
        let mut children: Vec<(Rid, NodeId)> = Vec::new();
        for e in &entries {
            match e.rid {
                None => results.push(self.repr.p_edb(vid, node)),
                Some(rid) => children.push((rid, e.rloc)),
            }
        }

        // Random moonwalk: keep a random subset of the alternative derivations.
        if let TraversalOrder::RandomMoonwalk { fanout, .. } = self.traversal {
            while children.len() > fanout {
                let idx = self.rng.gen_range(0..children.len());
                children.swap_remove(idx);
            }
        }

        let mut pending = PendingTuple {
            vid,
            node,
            reply,
            remaining: children,
            outstanding: 0,
            results,
        };

        match self.traversal {
            TraversalOrder::Bfs | TraversalOrder::RandomMoonwalk { .. } => {
                // Dispatch all children at once.
                let children = std::mem::take(&mut pending.remaining);
                pending.outstanding = children.len();
                self.pending_tuples.insert(qid, pending);
                for (rid, rloc) in children {
                    self.dispatch_rule_child(ctx, node, qid, rid, rloc, time);
                }
            }
            TraversalOrder::Dfs | TraversalOrder::DfsThreshold(_) => {
                if let Some((rid, rloc)) = pending.remaining.pop() {
                    pending.outstanding = 1;
                    self.pending_tuples.insert(qid, pending);
                    self.dispatch_rule_child(ctx, node, qid, rid, rloc, time);
                } else {
                    self.pending_tuples.insert(qid, pending);
                }
            }
        }

        self.try_complete_tuple(ctx, qid, time);
    }

    fn dispatch_rule_child(
        &mut self,
        ctx: &mut Ctx,
        node: NodeId,
        qid: Digest,
        rid: Rid,
        rloc: NodeId,
        time: f64,
    ) {
        let rqid = self.fresh_id(ctx, "rq");
        if rloc == node {
            // Local rule execution vertex: no message needed.
            self.start_rule_query(ctx, rloc, rqid, rid, qid, node, time);
        } else {
            self.send_rule_query(ctx, node, rloc, rqid, rid, qid);
        }
    }

    fn tuple_child_result(&mut self, ctx: &mut Ctx, qid: Digest, ann: Annotation, time: f64) {
        let Some(pending) = self.pending_tuples.get_mut(&qid) else {
            return;
        };
        pending.results.push(ann);
        pending.outstanding = pending.outstanding.saturating_sub(1);

        // DFS / DFS-threshold: decide whether to stop or explore the next
        // alternative derivation.
        let next = match self.traversal {
            TraversalOrder::Dfs => {
                if pending.outstanding == 0 {
                    pending.remaining.pop()
                } else {
                    None
                }
            }
            TraversalOrder::DfsThreshold(threshold) => {
                let partial = self.repr.p_idb(pending.node, &pending.results);
                if self.repr.exceeds_threshold(&partial, threshold) {
                    pending.remaining.clear();
                    None
                } else if pending.outstanding == 0 {
                    pending.remaining.pop()
                } else {
                    None
                }
            }
            _ => None,
        };
        if let Some((rid, rloc)) = next {
            let node = pending.node;
            pending.outstanding += 1;
            self.dispatch_rule_child(ctx, node, qid, rid, rloc, time);
            return;
        }
        self.try_complete_tuple(ctx, qid, time);
    }

    fn try_complete_tuple(&mut self, ctx: &mut Ctx, qid: Digest, time: f64) {
        let done = match self.pending_tuples.get(&qid) {
            Some(p) => p.outstanding == 0 && p.remaining.is_empty(),
            None => false,
        };
        if !done {
            return;
        }
        let pending = self.pending_tuples.remove(&qid).expect("checked above");
        let ann = self.repr.p_idb(pending.node, &pending.results);
        if self.caching_enabled {
            self.cache.insert(CacheKey::Tuple(pending.vid), ann.clone());
        }
        self.reply_tuple(
            ctx,
            pending.node,
            qid,
            pending.vid,
            ann,
            pending.reply,
            time,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn reply_tuple(
        &mut self,
        ctx: &mut Ctx,
        node: NodeId,
        qid: Digest,
        vid: Vid,
        ann: Annotation,
        reply: ReplyTo,
        time: f64,
    ) {
        match reply {
            ReplyTo::Requester { node: ret, index } => {
                if ret == node {
                    ctx.route.remove(&qid);
                    self.deliver_final(ctx, index, ann, time);
                } else {
                    self.register(ctx, qid);
                    let extra = self.repr.wire_size(&ann);
                    let tuple = Tuple::new(
                        "eProvResults",
                        ret,
                        vec![
                            Value::from_digest(qid),
                            Value::from_digest(vid),
                            Value::Int(index as i64),
                        ],
                    );
                    self.in_flight.insert(qid, ann);
                    self.account(ctx.engine, &tuple, extra);
                    ctx.engine.send_tuple(node, ret, tuple, extra);
                }
            }
            ReplyTo::Rule { rqid } => {
                // Children of a rule execution are resolved at the rule's own
                // node, so this reply never crosses the network.
                self.rule_child_result(ctx, rqid, ann, time);
            }
        }
    }

    fn deliver_final(&mut self, ctx: &mut Ctx, index: usize, ann: Annotation, time: f64) {
        if let Some(outcome) = ctx.outcomes.get_mut(index) {
            if outcome.completed_at.is_none() {
                *ctx.incomplete = ctx.incomplete.saturating_sub(1);
            }
            outcome.completed_at = Some(time);
            outcome.annotation = Some(ann);
        }
    }

    // ------------------------------------------------------------------
    // Rule-execution-vertex queries (the rv1–rv4 rules)
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn start_rule_query(
        &mut self,
        ctx: &mut Ctx,
        rloc: NodeId,
        rqid: Digest,
        rid: Rid,
        parent_qid: Digest,
        parent_node: NodeId,
        time: f64,
    ) {
        if self.caching_enabled {
            if let Some(ann) = self.cache.get(&CacheKey::Rule(rid)).cloned() {
                self.stats.cache_hits += 1;
                self.finish_rule_reply(ctx, rloc, rqid, rid, parent_qid, parent_node, ann, time);
                return;
            }
        }
        self.stats.cache_misses += 1;

        let Some(exec) = rule_exec_entry(ctx.engine, rloc, rid) else {
            // Dangling pointer (e.g. the entry was deleted concurrently):
            // answer with an empty combination.
            let ann = self.repr.p_rule("?", rloc, &[]);
            self.finish_rule_reply(ctx, rloc, rqid, rid, parent_qid, parent_node, ann, time);
            return;
        };

        let mut pending = PendingRule {
            rid,
            rule: exec.rule.clone(),
            rloc,
            parent_qid,
            parent_node,
            remaining: exec.vids.clone(),
            outstanding: 0,
            results: Vec::new(),
        };

        match self.traversal {
            TraversalOrder::Bfs | TraversalOrder::RandomMoonwalk { .. } => {
                let children = std::mem::take(&mut pending.remaining);
                pending.outstanding = children.len();
                self.pending_rules.insert(rqid, pending);
                for child_vid in children {
                    let sub_qid = self.fresh_id(ctx, "cq");
                    self.start_tuple_query(
                        ctx,
                        rloc,
                        sub_qid,
                        child_vid,
                        ReplyTo::Rule { rqid },
                        time,
                    );
                }
            }
            TraversalOrder::Dfs | TraversalOrder::DfsThreshold(_) => {
                if let Some(child_vid) = pending.remaining.pop() {
                    pending.outstanding = 1;
                    self.pending_rules.insert(rqid, pending);
                    let sub_qid = self.fresh_id(ctx, "cq");
                    self.start_tuple_query(
                        ctx,
                        rloc,
                        sub_qid,
                        child_vid,
                        ReplyTo::Rule { rqid },
                        time,
                    );
                } else {
                    self.pending_rules.insert(rqid, pending);
                }
            }
        }
        self.try_complete_rule(ctx, rqid, time);
    }

    fn rule_child_result(&mut self, ctx: &mut Ctx, rqid: Digest, ann: Annotation, time: f64) {
        let Some(pending) = self.pending_rules.get_mut(&rqid) else {
            return;
        };
        pending.results.push(ann);
        pending.outstanding = pending.outstanding.saturating_sub(1);
        if pending.outstanding == 0 {
            if let Some(child_vid) = pending.remaining.pop() {
                let rloc = pending.rloc;
                pending.outstanding = 1;
                let sub_qid = self.fresh_id(ctx, "cq");
                self.start_tuple_query(ctx, rloc, sub_qid, child_vid, ReplyTo::Rule { rqid }, time);
                return;
            }
        }
        self.try_complete_rule(ctx, rqid, time);
    }

    fn try_complete_rule(&mut self, ctx: &mut Ctx, rqid: Digest, time: f64) {
        let done = match self.pending_rules.get(&rqid) {
            Some(p) => p.outstanding == 0 && p.remaining.is_empty(),
            None => false,
        };
        if !done {
            return;
        }
        let pending = self.pending_rules.remove(&rqid).expect("checked above");
        let ann = self
            .repr
            .p_rule(&pending.rule, pending.rloc, &pending.results);
        if self.caching_enabled {
            self.cache.insert(CacheKey::Rule(pending.rid), ann.clone());
            // Record dependencies for invalidation: the rule result depends on
            // each of its children.
            let exec = rule_exec_entry(ctx.engine, pending.rloc, pending.rid);
            if let Some(exec) = exec {
                for child in exec.vids {
                    self.dependents
                        .entry(child)
                        .or_default()
                        .insert(pending.rid);
                }
            }
        }
        self.finish_rule_reply(
            ctx,
            pending.rloc,
            rqid,
            pending.rid,
            pending.parent_qid,
            pending.parent_node,
            ann,
            time,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn finish_rule_reply(
        &mut self,
        ctx: &mut Ctx,
        rloc: NodeId,
        rqid: Digest,
        rid: Rid,
        parent_qid: Digest,
        parent_node: NodeId,
        ann: Annotation,
        time: f64,
    ) {
        if self.caching_enabled {
            // The parent tuple's cached result (once it completes at
            // parent_node) depends on this rule execution.
            if let Some(parent) = self.pending_tuples.get(&parent_qid) {
                self.dependents.entry(rid).or_default().insert(parent.vid);
            }
        }
        if parent_node == rloc {
            ctx.route.remove(&rqid);
            self.tuple_child_result(ctx, parent_qid, ann, time);
        } else {
            self.register(ctx, rqid);
            let extra = self.repr.wire_size(&ann);
            let tuple = Tuple::new(
                "eRuleResults",
                parent_node,
                vec![Value::from_digest(rqid), Value::from_digest(parent_qid)],
            );
            self.in_flight.insert(rqid, ann);
            self.account(ctx.engine, &tuple, extra);
            ctx.engine.send_tuple(rloc, parent_node, tuple, extra);
        }
    }

    // ------------------------------------------------------------------
    // Cache invalidation (§6.1)
    // ------------------------------------------------------------------

    /// Invalidates every cached result that (transitively) depends on the
    /// tuple vertex `vid` — called when a base tuple is inserted or deleted.
    pub(crate) fn invalidate(&mut self, vid: Vid) {
        let mut frontier: Vec<Digest> = vec![vid];
        let mut seen: HashSet<Digest> = HashSet::new();
        while let Some(d) = frontier.pop() {
            if !seen.insert(d) {
                continue;
            }
            // Remove the cache entry for the digest itself.
            for key in [CacheKey::Tuple(d), CacheKey::Rule(d)] {
                if self.cache.remove(&key).is_some() {
                    self.stats.invalidations += 1;
                }
            }
            // Propagate to dependents: each loses its entries when popped.
            frontier.extend(self.dependents.remove(&d).into_iter().flatten());
        }
    }
}

impl std::fmt::Debug for SessionCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionCore")
            .field("traversal", &self.traversal)
            .field("caching_enabled", &self.caching_enabled)
            .field("cache_entries", &self.cache.len())
            .finish()
    }
}

/// Why polling a query result failed.
///
/// Returned by [`crate::deployment::Deployment::completed_outcome`] — the
/// fallible counterpart of the `Option`-returning
/// [`crate::deployment::Deployment::outcome`] — and wrapped by the top-level
/// `exspan::Error`.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum QueryError {
    /// The handle's index does not name a query of this deployment.
    UnknownHandle {
        /// The handle's global issue-order index.
        index: usize,
    },
    /// The query has not completed yet — advance the deployment's clock and
    /// poll again.  Queries whose protocol messages the simulator dropped
    /// (e.g. churn partitioned the issuer from the target) stay in this
    /// state permanently and honestly.
    NotComplete {
        /// The handle's global issue-order index.
        index: usize,
    },
    /// The query's session is not backed by the requested concrete
    /// representation (e.g. asking for BDD trust evaluation on a
    /// polynomial session).
    ReprMismatch {
        /// Name of the representation the session actually uses.
        actual: &'static str,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::UnknownHandle { index } => {
                write!(
                    f,
                    "query handle #{index} does not belong to this deployment"
                )
            }
            QueryError::NotComplete { index } => {
                write!(f, "query #{index} has not completed yet")
            }
            QueryError::ReprMismatch { actual } => {
                write!(f, "query session uses the {actual} representation")
            }
        }
    }
}

impl std::error::Error for QueryError {}
