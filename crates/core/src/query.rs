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
//! The paper states the protocol as NDlog rules (§5.1: `edb1`, `idb1`–`idb4`,
//! `rv1`–`rv4`) over one kind of state: a query id that is either travelling
//! in a message or waiting at a node for its children (`pResultTmp`,
//! `rResultTmp`).  `QueryFabric` mirrors exactly that with **one table of
//! protocol ids**, each id in exactly one `State` and tagged with the
//! *session* (a representation + traversal + caching configuration) it
//! belongs to:
//!
//! ```text
//! QuerySent ──► Pending(Tuple | Rule vertex) ──► ResultSent(annotation) ──► gone
//! ```
//!
//! A message names one id and is acted on only if that id is in the state the
//! message implies; anything else is dropped.  The table is empty exactly
//! when no query is in progress, which is how
//! [`crate::deployment::Deployment`] decides whether the engine must run
//! listening, handing each query message back to the fabric, at all.
//!
//! Ids are **derived**, as the paper derives them (`RQID = f_sha1(QID+RID)`),
//! not drawn from a counter — an id is a function of the path from the
//! query's root to the vertex, unique without any shared state:
//!
//! * query number *i* has `QID = sha1("q" ‖ i)`;
//! * the rule execution `RID` queried on behalf of `QID` gets
//!   `RQID = sha1(QID ‖ RID)`;
//! * the input tuple `VID` at body position *p* of that rule execution gets
//!   `QID' = sha1(RQID ‖ p ‖ VID)` — position-qualified, because a rule may
//!   join the same tuple twice.
//!
//! So no client can choose colliding ids, and the id table is hashed by Fx;
//! a caching session's vertex map keeps SipHash, as a client names the
//! target VIDs among its keys.  A vertex reads its `prov` or `ruleExec` rows
//! in place, through the join's probe, and builds its children from them.
//!
//! The five message relations (`eQueryIssue`, `eProvQuery`, `eRuleQuery`,
//! `eProvResults`, `eRuleResults`) travel through the engine, so their
//! bandwidth and latency are accounted exactly like protocol traffic; their
//! tuple layouts are known to `QueryMsg` alone.
//!
//! Optimizations:
//!
//! * **Result caching** (§6.1) — completed sub-results are cached at the node
//!   that computed them (tuple results keyed by VID, rule results keyed by
//!   RID); later queries reaching that node reuse them.  One rule keeps them
//!   exact: a cached result dies when the engine changes a `prov` or
//!   `ruleExec` row of its vertex, and so does every result computed from it.
//!   Once a caching session exists the engine records those vertices
//!   ([`Engine::record_vertex_changes`]); the fabric drains them before it
//!   handles each query message, the only time it reads a cache, and at the
//!   end of every run, so a deployment that churns with no query in flight
//!   holds no growing record.  It walks each one up the dependency edges
//!   registered when a parent dispatched a child.  A vertex such a walk
//!   reaches while it is being computed completes uncached.
//! * **Traversal orders** (§6.2) — BFS explores all alternative derivations
//!   at once; DFS explores them sequentially; DFS-with-threshold stops as
//!   soon as the partial result satisfies the query's threshold; random
//!   moonwalk explores a random subset of derivations.  Tuple vertices and
//!   rule-execution vertices share one children-dispatch routine, so the
//!   choice is made in one place.

use crate::deployment::reachable;
use crate::repr::{Annotation, Repr, Representation};
use crate::storage::{prov_rows, rule_exec_row, vertex_key};
use exspan_runtime::{Engine, External};
use exspan_types::fxhash::FxHashMap;
use exspan_types::sha1::Sha1;
use exspan_types::wire::BandwidthSeries;
use exspan_types::{Digest, NodeId, RelId, Rid, Symbol, Tuple, Value, Vid};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

/// Bucket width, in simulated seconds, of every session's bandwidth series.
pub(crate) const SERIES_BUCKET_S: f64 = 0.1;

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

/// Per-session statistics: query traffic plus cache behavior.
#[derive(Debug, Clone, Default)]
pub struct SessionStats {
    /// Total bytes of query-protocol messages (requests + responses).
    pub bytes: u64,
    /// Total number of query-protocol messages.
    pub messages: u64,
    /// Number of cache hits.
    pub cache_hits: u64,
    /// Number of cache misses (sub-queries actually executed).
    pub cache_misses: u64,
    /// Number of cached results dropped because the provenance graph beneath
    /// them changed; counted before the next query message is handled, or at
    /// the end of the run that made the change, whichever comes first.
    pub invalidations: u64,
}

impl SessionStats {
    pub(crate) fn merge_from(&mut self, other: &SessionStats) {
        self.bytes += other.bytes;
        self.messages += other.messages;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.invalidations += other.invalidations;
    }
}

/// Whom a tuple vertex's result goes to.
enum ReplyTo {
    /// The issuer of query `index`, at `node`.
    Requester { node: NodeId, index: usize },
    /// The rule execution pending under `rqid`, at the tuple's own node.
    Rule { rqid: Digest },
}

/// Which vertex of the provenance graph a pending id stands for.
enum Vertex {
    /// A tuple waiting for the rule executions that derived it
    /// (`pResultTmp`, rules `idb1`–`idb4`).
    Tuple { vid: Vid, reply: ReplyTo },
    /// A rule execution waiting for its input tuples (`rResultTmp`, rules
    /// `rv1`–`rv4`); its result goes to the tuple query `parent`: (its id,
    /// the node it buffers at).
    Rule {
        rid: Rid,
        rule: Symbol,
        parent: (Digest, NodeId),
    },
}

/// One child of a pending vertex, with the protocol id derived for it: a
/// rule execution `vertex` stored at `node` (under a tuple vertex), or an
/// input tuple `vertex` resolved at the rule's own node (under a rule vertex).
struct Child {
    id: Digest,
    vertex: Digest,
    node: NodeId,
}

/// A vertex buffering its children's results.
struct Pending {
    vertex: Vertex,
    /// Node at which the vertex is stored and its results are combined.
    node: NodeId,
    /// Children not yet dispatched.
    remaining: Vec<Child>,
    /// Number of dispatched children whose results are still outstanding.
    outstanding: usize,
    results: Vec<Annotation>,
}

/// The state of one protocol id.
enum State {
    /// Travelling in a request: an `eQueryIssue` timer, an `eProvQuery` or an
    /// `eRuleQuery`.
    QuerySent,
    /// Waiting at a node for children: a [`Vertex::Tuple`] or [`Vertex::Rule`].
    Pending(Pending),
    /// Travelling back in `eProvResults` / `eRuleResults` with this
    /// annotation.
    ResultSent(Annotation),
}

/// `f_sha1` over the concatenation of `parts`: how §5.1 derives every id.
fn derive_id(parts: &[&[u8]]) -> Digest {
    let mut h = Sha1::new();
    parts.iter().for_each(|part| h.update(part));
    h.finalize()
}

/// The id of query number `index`.
fn root_qid(index: usize) -> Digest {
    derive_id(&[b"q", &(index as u64).to_be_bytes()])
}

/// The five message relations, interned once, in [`QueryMsg`] variant order:
/// a message is parsed and built without the interner's lock.
fn message_relations() -> [RelId; 5] {
    static RELATIONS: OnceLock<[RelId; 5]> = OnceLock::new();
    let names = [
        "eQueryIssue",
        "eProvQuery",
        "eRuleQuery",
        "eProvResults",
        "eRuleResults",
    ];
    *RELATIONS.get_or_init(|| names.map(RelId::intern))
}

/// A query-protocol message, fields in the order of its tuple: the one place
/// that knows the layouts of the five event relations.
#[derive(Debug, PartialEq)]
enum QueryMsg {
    /// `eQueryIssue(@Issuer, Index)`: the timer of a query issued later.
    Issue(usize),
    /// `eProvQuery(@Loc, QID, VID, Ret, Index)`.
    ProvQuery(Digest, Vid, NodeId, usize),
    /// `eRuleQuery(@RLoc, RQID, RID, Ret, QID)`.
    RuleQuery(Digest, Rid, NodeId, Digest),
    /// `eProvResults(@Ret, QID, VID, Index)`, the annotation riding along.
    ProvResults(Digest, Vid, usize),
    /// `eRuleResults(@Ret, RQID, QID)`, the annotation riding along.
    RuleResults(Digest, Digest),
}

impl QueryMsg {
    /// Parses a query-protocol tuple; `None` on an unknown relation, a wrong
    /// arity or a wrong-typed value.
    fn from_tuple(tuple: &Tuple) -> Option<QueryMsg> {
        let digest = |i: usize| tuple.values.get(i)?.as_digest().ok();
        let node = |i: usize| tuple.values.get(i)?.as_node().ok();
        let index = |i: usize| usize::try_from(tuple.values.get(i)?.as_int().ok()?).ok();
        let [issue, prov_q, rule_q, prov_r, rule_r] = message_relations();
        let r = tuple.relation;
        Some(match tuple.values.len() {
            1 if r == issue => QueryMsg::Issue(index(0)?),
            4 if r == prov_q => QueryMsg::ProvQuery(digest(0)?, digest(1)?, node(2)?, index(3)?),
            4 if r == rule_q => QueryMsg::RuleQuery(digest(0)?, digest(1)?, node(2)?, digest(3)?),
            3 if r == prov_r => QueryMsg::ProvResults(digest(0)?, digest(1)?, index(2)?),
            2 if r == rule_r => QueryMsg::RuleResults(digest(0)?, digest(1)?),
            _ => return None,
        })
    }

    /// Renders this message as a tuple addressed to `to`.
    fn to_tuple(&self, to: NodeId) -> Tuple {
        let d = Value::from_digest;
        let int = |i: usize| Value::Int(i as i64);
        let [issue, prov_q, rule_q, prov_r, rule_r] = message_relations();
        let (relation, values) = match *self {
            QueryMsg::Issue(index) => (issue, vec![int(index)]),
            QueryMsg::ProvQuery(qid, vid, ret, index) => {
                (prov_q, vec![d(qid), d(vid), Value::Node(ret), int(index)])
            }
            QueryMsg::RuleQuery(rqid, rid, ret, qid) => {
                (rule_q, vec![d(rqid), d(rid), Value::Node(ret), d(qid)])
            }
            QueryMsg::ProvResults(qid, vid, index) => (prov_r, vec![d(qid), d(vid), int(index)]),
            QueryMsg::RuleResults(rqid, qid) => (rule_r, vec![d(rqid), d(qid)]),
        };
        Tuple::new(relation, to, values)
    }

    /// The protocol id this message carries.
    fn id(&self) -> Digest {
        match *self {
            QueryMsg::Issue(index) => root_qid(index),
            QueryMsg::ProvQuery(id, ..)
            | QueryMsg::RuleQuery(id, ..)
            | QueryMsg::ProvResults(id, ..)
            | QueryMsg::RuleResults(id, ..) => id,
        }
    }
}

/// What is per query *configuration*: one representation + traversal +
/// caching choice, its result cache and its traffic counters.  Queries with
/// equal configuration share a session.
pub(crate) struct Session {
    pub(crate) repr: Representation,
    pub(crate) traversal: TraversalOrder,
    pub(crate) caching: bool,
    /// What a caching session knows of each vertex, under its VID or RID
    /// (untouched in a session that does not cache).  The node is not part
    /// of the key: a VID or RID digest covers its location, and a vertex is
    /// only ever queried at that node.
    vertices: HashMap<Digest, CacheEntry>,
    pub(crate) series: BandwidthSeries,
    pub(crate) stats: SessionStats,
    rng: SmallRng,
}

/// One vertex in a caching session.
#[derive(Default)]
struct CacheEntry {
    /// The vertex's completed result (§6.1), negative and partial ones too.
    result: Option<Annotation>,
    /// Vertices that dispatched this one as a child: their results are, or
    /// will be, computed from it.
    dependents: HashSet<Digest>,
    /// Computations of the vertex pending right now.
    in_flight: usize,
    /// The graph changed beneath the vertex while it was in flight: what is
    /// pending now completes uncached.
    doomed: bool,
}

impl Session {
    /// Looks `vertex` up in the result cache (§6.1), counting the hit or miss.
    fn lookup(&mut self, vertex: Digest) -> Option<Annotation> {
        let cache = Some(&self.vertices).filter(|_| self.caching);
        let hit = cache.and_then(|v| v.get(&vertex)?.result.clone());
        match hit {
            Some(_) => self.stats.cache_hits += 1,
            None => self.stats.cache_misses += 1,
        }
        hit
    }

    /// Number of cached results.
    pub(crate) fn cache_entries(&self) -> usize {
        self.vertices
            .values()
            .filter(|e| e.result.is_some())
            .count()
    }

    /// Records that `parent` dispatched `child`, whose change must reach it.
    fn depend(&mut self, child: Digest, parent: Digest) {
        if self.caching {
            let entry = self.vertices.entry(child).or_default();
            entry.dependents.insert(parent);
        }
    }

    /// A computation of `vertex` starts.
    fn begin(&mut self, vertex: Digest) {
        if self.caching {
            self.vertices.entry(vertex).or_default().in_flight += 1;
        }
    }

    /// A computation of `vertex` completes with `ann`: cached unless a change
    /// reached the vertex while it was pending.
    fn finish(&mut self, vertex: Digest, ann: &Annotation) {
        let cache = Some(&mut self.vertices).filter(|_| self.caching);
        let Some(entry) = cache.and_then(|v| v.get_mut(&vertex)) else {
            return;
        };
        entry.in_flight -= 1;
        if !entry.doomed {
            entry.result = Some(ann.clone());
        }
        entry.doomed &= entry.in_flight > 0;
    }

    /// The `prov` or `ruleExec` rows of `vertex` changed: drops its cached
    /// result and every result computed from it, and dooms whatever of them
    /// is in flight.
    fn invalidate(&mut self, vertex: Digest) {
        let mut frontier = vec![vertex];
        while let Some(d) = frontier.pop() {
            let Some(entry) = self.vertices.get_mut(&d) else {
                continue;
            };
            if entry.result.take().is_some() {
                self.stats.invalidations += 1;
            }
            // A dependent reached a second time has none left to pass on.
            frontier.extend(entry.dependents.drain());
            if entry.in_flight > 0 {
                entry.doomed = true;
            } else {
                self.vertices.remove(&d);
            }
        }
    }
}

/// All query state of one deployment: the sessions, the outcome of every
/// query submitted so far, and the table of protocol ids that *is* the §5.1
/// state machine (see the module docs).
#[derive(Default)]
pub(crate) struct QueryFabric {
    pub(crate) sessions: Vec<Session>,
    pub(crate) outcomes: Vec<QueryOutcome>,
    /// Every live protocol id, the session it belongs to and its state.
    ids: FxHashMap<Digest, (usize, State)>,
    /// Number of accepted queries whose outcome has not been delivered.
    pub(crate) incomplete: usize,
}

impl QueryFabric {
    /// Finds the session matching the configuration, creating it on demand.
    /// A caching session's cache is only sound if it hears of every change to
    /// the provenance graph, so creating one starts the engine recording them.
    pub(crate) fn session_for(
        &mut self,
        engine: &mut Engine,
        repr: &Repr,
        traversal: TraversalOrder,
        caching: bool,
    ) -> usize {
        let found = self
            .sessions
            .iter()
            .position(|s| s.repr.repr == *repr && s.traversal == traversal && s.caching == caching);
        found.unwrap_or_else(|| {
            if caching {
                engine.record_vertex_changes();
            }
            // Only a moonwalk draws from the generator.
            let seed = match traversal {
                TraversalOrder::RandomMoonwalk { seed, .. } => seed,
                _ => 0,
            };
            self.sessions.push(Session {
                repr: Representation::new(repr.clone()),
                traversal,
                caching,
                vertices: HashMap::new(),
                series: BandwidthSeries::new(SERIES_BUCKET_S),
                stats: SessionStats::default(),
                rng: SmallRng::seed_from_u64(seed),
            });
            self.sessions.len() - 1
        })
    }

    /// Whether no query is in progress: no id is travelling or waiting.  An
    /// idle fabric need not be handed the engine's external tuples, which
    /// frees the engine to run its shards in parallel.
    pub(crate) fn is_idle(&self) -> bool {
        self.ids.is_empty()
    }

    /// Submits a provenance query for `target` from `issuer` in session
    /// `sid`, now or at simulated time `at`.  Returns the outcome index.  A
    /// query whose issuer or target node is outside the topology, or whose
    /// `at` the clock cannot reach, is refused: its outcome never completes,
    /// it is not counted as incomplete, and nothing is sent.
    pub(crate) fn submit(
        &mut self,
        engine: &mut Engine,
        sid: usize,
        issuer: NodeId,
        target: &Tuple,
        at: Option<f64>,
    ) -> usize {
        let index = self.outcomes.len();
        let now = engine.now();
        self.outcomes.push(QueryOutcome {
            issuer,
            target_node: target.location,
            vid: target.vid(),
            issued_at: at.unwrap_or(now),
            completed_at: None,
            annotation: None,
        });
        let outside = |node: NodeId| node as usize >= engine.topology().num_nodes();
        let past = at.is_some_and(|t| !reachable(now, t));
        if outside(issuer) || outside(target.location) || past {
            return index;
        }
        self.incomplete += 1;
        match at {
            None => self.send_prov_query(engine, sid, index),
            Some(time) => {
                self.enter(root_qid(index), sid, State::QuerySent);
                let issue = QueryMsg::Issue(index).to_tuple(issuer);
                engine.schedule_delta(time, issuer, issue, true);
            }
        }
        index
    }

    /// Puts `id` into the table.  Ids are derived from the path that leads to
    /// them, so a live id is never entered twice.
    fn enter(&mut self, id: Digest, sid: usize, state: State) {
        let previous = self.ids.insert(id, (sid, state));
        debug_assert!(previous.is_none(), "protocol id {id} entered twice");
    }

    /// Sends `msg` along `(from, to)` and records its id as travelling: with
    /// `ann` as a result carrying that annotation, without as a request.  All
    /// traffic flows through the engine, so it is accounted in the
    /// simulator's byte counters as well as the session's.
    fn send(
        &mut self,
        engine: &mut Engine,
        sid: usize,
        (from, to): (NodeId, NodeId),
        msg: &QueryMsg,
        ann: Option<Annotation>,
    ) {
        let session = &mut self.sessions[sid];
        let extra = ann.as_ref().map_or(0, |a| session.repr.wire_size(a));
        let bytes = engine.send_tuple(from, to, msg.to_tuple(to), extra);
        session.stats.bytes += bytes as u64;
        session.stats.messages += 1;
        session.series.record(engine.now(), bytes);
        let state = ann.map_or(State::QuerySent, State::ResultSent);
        self.enter(msg.id(), sid, state);
    }

    /// `edb1`: asks the target node of query `index` for the tuple's
    /// provenance.
    fn send_prov_query(&mut self, engine: &mut Engine, sid: usize, index: usize) {
        let q = &self.outcomes[index];
        let (issuer, target_node) = (q.issuer, q.target_node);
        let msg = QueryMsg::ProvQuery(root_qid(index), q.vid, issuer, index);
        self.send(engine, sid, (issuer, target_node), &msg, None);
    }

    /// Acts on one external tuple the engine handed back: a query-protocol
    /// message, if the id it names is in the state the message implies.
    /// Anything else is dropped.
    pub(crate) fn on_external(&mut self, engine: &mut Engine, external: &External) {
        let Some(msg) = QueryMsg::from_tuple(&external.tuple) else {
            return;
        };
        // A message is the only time a cache is read while the engine
        // advances: every provenance change applied so far reaches the
        // caches first.
        self.apply_vertex_changes(engine);
        let (node, time, id) = (external.node, external.time, msg.id());
        let Some((sid, state)) = self.ids.remove(&id) else {
            return;
        };
        match (msg, state) {
            (QueryMsg::Issue(index), State::QuerySent) => {
                self.outcomes[index].issued_at = time;
                self.send_prov_query(engine, sid, index);
            }
            (QueryMsg::ProvQuery(qid, vid, ret, index), State::QuerySent) => {
                let reply = ReplyTo::Requester { node: ret, index };
                self.start_tuple(engine, sid, node, qid, vid, reply, time);
            }
            (QueryMsg::RuleQuery(rqid, rid, ret, qid), State::QuerySent) => {
                self.start_rule(engine, sid, node, rqid, rid, (qid, ret), time);
            }
            (QueryMsg::ProvResults(_, _, index), State::ResultSent(ann)) => {
                self.deliver_final(index, ann, time);
            }
            (QueryMsg::RuleResults(_, qid), State::ResultSent(ann)) => {
                self.child_result(engine, qid, ann, time);
            }
            // A stale or foreign message: the id stays as it was.
            (_, state) => self.enter(id, sid, state),
        }
    }

    /// Starts resolving the tuple vertex `vid` stored at `node` under `qid`.
    #[allow(clippy::too_many_arguments)]
    fn start_tuple(
        &mut self,
        engine: &mut Engine,
        sid: usize,
        node: NodeId,
        qid: Digest,
        vid: Vid,
        reply: ReplyTo,
        time: f64,
    ) {
        let session = &mut self.sessions[sid];
        if let Some(ann) = session.lookup(vid) {
            return self.reply_tuple(engine, sid, node, qid, vid, ann, reply, time);
        }
        session.begin(vid);
        let mut results = Vec::new();
        let mut remaining = Vec::new();
        for e in prov_rows(engine, node, &vertex_key(node, vid)) {
            match e.rid {
                None => results.push(session.repr.p_edb(vid, node)),
                Some(rid) => remaining.push(Child {
                    id: derive_id(&[&qid.0, &rid.0]),
                    vertex: rid,
                    node: e.rloc,
                }),
            }
        }
        // Random moonwalk: keep a random subset of the alternative derivations.
        if let TraversalOrder::RandomMoonwalk { fanout, .. } = session.traversal {
            while remaining.len() > fanout {
                let idx = session.rng.gen_range(0..remaining.len());
                remaining.swap_remove(idx);
            }
        }
        let pending = Pending {
            vertex: Vertex::Tuple { vid, reply },
            node,
            remaining,
            outstanding: 0,
            results,
        };
        self.enter(qid, sid, State::Pending(pending));
        self.dispatch_children(engine, qid, time);
    }

    /// Starts resolving the rule execution `rid` stored at `rloc` under
    /// `rqid`, for the tuple query `parent`.
    #[allow(clippy::too_many_arguments)]
    fn start_rule(
        &mut self,
        engine: &mut Engine,
        sid: usize,
        rloc: NodeId,
        rqid: Digest,
        rid: Rid,
        parent: (Digest, NodeId),
        time: f64,
    ) {
        let session = &mut self.sessions[sid];
        if let Some(ann) = session.lookup(rid) {
            return self.reply_rule(engine, sid, rloc, rqid, parent, ann, time);
        }
        let key = vertex_key(rloc, rid);
        let Some((rule, inputs)) = rule_exec_row(engine, rloc, &key) else {
            // Dangling pointer (mid deletion cascade): it derives nothing, so
            // it answers the empty alternative, uncached.  The row's return
            // reaches the parent's cached result through its dependency edge.
            let ann = session.repr.p_idb(rloc, Vec::new());
            return self.reply_rule(engine, sid, rloc, rqid, parent, ann, time);
        };
        let children = inputs.enumerate().map(|(position, vid)| Child {
            id: derive_id(&[&rqid.0, &(position as u64).to_be_bytes(), &vid.0]),
            vertex: vid,
            node: rloc,
        });
        let remaining: Vec<Child> = children.collect();
        session.begin(rid);
        let pending = Pending {
            vertex: Vertex::Rule { rid, rule, parent },
            node: rloc,
            results: Vec::with_capacity(remaining.len()),
            remaining,
            outstanding: 0,
        };
        self.enter(rqid, sid, State::Pending(pending));
        self.dispatch_children(engine, rqid, time);
    }

    /// The children-dispatch routine both vertex kinds share, and the one
    /// place the traversal order (§6.2) is chosen: dispatches the next
    /// children of the vertex pending under `id` — all that remain under BFS
    /// and moonwalk, one (the last) under DFS — and completes the vertex once
    /// none is outstanding or left.
    fn dispatch_children(&mut self, engine: &mut Engine, id: Digest, time: f64) {
        let Some((sid, State::Pending(pending))) = self.ids.get_mut(&id) else {
            return;
        };
        let (sid, node) = (*sid, pending.node);
        let batch = match self.sessions[sid].traversal {
            TraversalOrder::Bfs | TraversalOrder::RandomMoonwalk { .. } => {
                std::mem::take(&mut pending.remaining)
            }
            TraversalOrder::Dfs | TraversalOrder::DfsThreshold(_) => {
                pending.remaining.pop().into_iter().collect()
            }
        };
        pending.outstanding += batch.len();
        let (of_rule, parent) = match pending.vertex {
            Vertex::Tuple { vid, .. } => (false, vid),
            Vertex::Rule { rid, .. } => (true, rid),
        };
        for child in batch {
            self.sessions[sid].depend(child.vertex, parent);
            if of_rule {
                // Inputs of a rule execution are resolved at its own node.
                let reply = ReplyTo::Rule { rqid: id };
                self.start_tuple(engine, sid, node, child.id, child.vertex, reply, time);
            } else if child.node == node {
                // Local rule execution vertex: no message needed.
                self.start_rule(engine, sid, node, child.id, child.vertex, (id, node), time);
            } else {
                let msg = QueryMsg::RuleQuery(child.id, child.vertex, node, id);
                self.send(engine, sid, (node, child.node), &msg, None);
            }
        }
        // Children resolved without a message have reported back by now, and
        // may have completed the vertex (and moved `id` on) already.
        let done = |p: &Pending| p.outstanding == 0 && p.remaining.is_empty();
        if matches!(self.ids.get(&id), Some((_, State::Pending(p))) if done(p)) {
            self.complete(engine, id, time);
        }
    }

    /// Combines the results of the vertex pending under `id`, caches the
    /// combination (§6.1) and sends it where the vertex replies to.
    fn complete(&mut self, engine: &mut Engine, id: Digest, time: f64) {
        let Some((sid, State::Pending(pending))) = self.ids.remove(&id) else {
            unreachable!("only a pending vertex is completed");
        };
        let session = &mut self.sessions[sid];
        let node = pending.node;
        match pending.vertex {
            Vertex::Tuple { vid, reply } => {
                let ann = session.repr.p_idb(node, pending.results);
                session.finish(vid, &ann);
                self.reply_tuple(engine, sid, node, id, vid, ann, reply, time);
            }
            Vertex::Rule { rid, rule, parent } => {
                let ann = session.repr.p_rule(rule, node, pending.results);
                session.finish(rid, &ann);
                self.reply_rule(engine, sid, node, id, parent, ann, time);
            }
        }
    }

    /// One child's annotation arrives at the vertex pending under `id`.
    fn child_result(&mut self, engine: &mut Engine, id: Digest, ann: Annotation, time: f64) {
        let Some((sid, State::Pending(pending))) = self.ids.get_mut(&id) else {
            return;
        };
        let session = &mut self.sessions[*sid];
        pending.results.push(ann);
        pending.outstanding = pending.outstanding.saturating_sub(1);
        // DFS-with-threshold: a tuple vertex stops exploring alternative
        // derivations once those found so far satisfy the threshold.
        if let (Vertex::Tuple { .. }, TraversalOrder::DfsThreshold(threshold)) =
            (&pending.vertex, session.traversal)
        {
            if session.repr.satisfies(&pending.results, threshold) {
                pending.remaining.clear();
            }
        }
        if pending.outstanding == 0 {
            self.dispatch_children(engine, id, time);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn reply_tuple(
        &mut self,
        engine: &mut Engine,
        sid: usize,
        node: NodeId,
        qid: Digest,
        vid: Vid,
        ann: Annotation,
        reply: ReplyTo,
        time: f64,
    ) {
        match reply {
            ReplyTo::Requester { node: ret, index } if ret == node => {
                self.deliver_final(index, ann, time);
            }
            ReplyTo::Requester { node: ret, index } => {
                let msg = QueryMsg::ProvResults(qid, vid, index);
                self.send(engine, sid, (node, ret), &msg, Some(ann));
            }
            // Children of a rule execution are resolved at the rule's own
            // node, so this reply never crosses the network.
            ReplyTo::Rule { rqid } => self.child_result(engine, rqid, ann, time),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn reply_rule(
        &mut self,
        engine: &mut Engine,
        sid: usize,
        rloc: NodeId,
        rqid: Digest,
        (parent_qid, parent_node): (Digest, NodeId),
        ann: Annotation,
        time: f64,
    ) {
        if parent_node == rloc {
            self.child_result(engine, parent_qid, ann, time);
        } else {
            let msg = QueryMsg::RuleResults(rqid, parent_qid);
            self.send(engine, sid, (rloc, parent_node), &msg, Some(ann));
        }
    }

    /// Drops every cached result whose `prov`/`ruleExec` rows the engine
    /// changed since the last call, in every caching session, and what was
    /// computed from it.  Run before each query message and at the end of
    /// every run, so the engine's record stays bounded by one run's changes.
    pub(crate) fn apply_vertex_changes(&mut self, engine: &mut Engine) {
        for vertex in engine.drain_vertex_changes() {
            for session in self.sessions.iter_mut().filter(|s| s.caching) {
                session.invalidate(vertex);
            }
        }
    }

    /// Completes accepted query `index`; its root id left the table on the
    /// way here, so this happens once per query.
    fn deliver_final(&mut self, index: usize, ann: Annotation, time: f64) {
        let outcome = &mut self.outcomes[index];
        outcome.completed_at = Some(time);
        outcome.annotation = Some(ann);
        self.incomplete -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Exspan;
    use exspan_ndlog::programs;
    use exspan_netsim::Topology;
    use exspan_types::sha1_digest;

    /// A query tuple from outside the module that is short, long or
    /// wrong-typed parses to `None` and is dropped, also when it names a live
    /// id (the handler used to index `values[1..=3]` unchecked).
    #[test]
    fn malformed_query_tuples_are_dropped() {
        let (a, b) = (sha1_digest(b"a"), sha1_digest(b"b"));
        for msg in [
            QueryMsg::Issue(7),
            QueryMsg::ProvQuery(a, b, 3, 7),
            QueryMsg::RuleQuery(a, b, 3, a),
            QueryMsg::ProvResults(a, b, 7),
            QueryMsg::RuleResults(a, b),
        ] {
            let tuple = msg.to_tuple(1);
            assert_eq!(QueryMsg::from_tuple(&tuple), Some(msg));
            let mut long = tuple.clone();
            long.values.push(Value::Int(0));
            assert_eq!(QueryMsg::from_tuple(&long), None, "{long:?}");
            for cut in 0..tuple.values.len() {
                let mut short = tuple.clone();
                short.values.truncate(cut);
                assert_eq!(QueryMsg::from_tuple(&short), None, "{short:?}");
                let mut mistyped = tuple.clone();
                mistyped.values[cut] = Value::Bool(true);
                assert_eq!(QueryMsg::from_tuple(&mistyped), None, "{mistyped:?}");
            }
        }
        let negative = Tuple::new("eQueryIssue", 1, vec![Value::Int(-1)]);
        assert_eq!(QueryMsg::from_tuple(&negative), None);

        // Through a deployment: the id of a deferred query is live from
        // submission on; truncated tuples naming it neither panic nor
        // disturb the query.
        let mut d = Exspan::builder()
            .program(programs::mincost())
            .topology(Topology::paper_example())
            .build()
            .expect("valid deployment");
        d.run_to_fixpoint();
        let target = Tuple::new("bestPathCost", 0, vec![Value::Node(2), Value::Int(5)]);
        let (now, later) = (d.now(), d.now() + 0.5);
        let handle = d.query(&target).issuer(3).at(later).submit();
        let live = Value::from_digest(root_qid(handle.index()));
        let event = "query events are not materialized relations";
        for relation in ["eProvQuery", "eRuleQuery", "eProvResults", "eRuleResults"] {
            let truncated = Tuple::new(relation, 0, vec![live.clone()]);
            d.schedule_delta(now, 0, truncated, true).expect(event);
        }
        let truncated = Tuple::new("eQueryIssue", 3, vec![]);
        d.schedule_delta(now, 3, truncated, true).expect(event);
        // Nor does a well-formed result arriving while the id is still a request.
        let early = QueryMsg::ProvResults(root_qid(handle.index()), target.vid(), handle.index());
        d.schedule_delta(now, 3, early.to_tuple(3), true)
            .expect(event);
        d.run_to_fixpoint();
        assert!(d.outcome(handle).expect("submitted").is_complete());
    }
}
