//! The first-class ExSPAN deployment API.
//!
//! ExSPAN's pitch (paper §1) is that provenance *maintenance* and on-demand
//! distributed *querying* are one system sharing one network.  This module is
//! the public surface that matches that claim, decomposed by user-visible
//! capability rather than by internal layer:
//!
//! * **Deploy** — [`Exspan::builder`] validates a program / topology /
//!   provenance-mode combination up front (returning a [`BuildError`] instead
//!   of panicking later) and produces a [`Deployment`].
//! * **Mutate** — base tuples and topology churn are injected through typed
//!   methods ([`Deployment::insert_base`], [`Deployment::schedule_churn_event`],
//!   …) and applied by the engine as the clock passes their time.
//! * **Query** — [`Deployment::query`] starts a builder-style query
//!   (`.issuer(n).repr(Repr::Polynomial).traversal(Traversal::Bfs)
//!   .cached(true).submit()`) returning a lightweight [`QueryHandle`].
//!   Queries with equal configuration share a typed *session* (one result
//!   cache, one representation instance) inspectable through
//!   [`Deployment::session`].  The protocol itself — §5.1's rules as one
//!   table of derived query ids — lives wholly in [`crate::query`]; this
//!   module only submits to it and reads outcomes back.
//! * **Measure / advance** — [`Deployment::run_until`] (and
//!   [`Deployment::run_to_fixpoint`], the same call with no limit) is the one
//!   way to advance time: protocol maintenance, churn deltas *and* in-flight
//!   queries share one simulated clock (while its id table is non-empty the
//!   engine runs listening, and hands each query message back for the query
//!   fabric), so query traffic overlaps ongoing maintenance exactly as
//!   Figures 9–12 of the paper intend.  A front-end — figures, tests, the
//!   benchmark, `exspan-serve` — says only how far simulated time may go.
//!
//! ```
//! use exspan_core::{Exspan, ProvenanceMode, Repr, Traversal};
//! use exspan_ndlog::programs;
//! use exspan_netsim::Topology;
//! use exspan_types::{Tuple, Value};
//!
//! let mut deployment = Exspan::builder()
//!     .program(programs::mincost())
//!     .topology(Topology::paper_example())
//!     .mode(ProvenanceMode::Reference)
//!     .shards(1)
//!     .build()
//!     .expect("valid deployment");
//! deployment.run_to_fixpoint();
//!
//! let target = Tuple::new("bestPathCost", 0, vec![Value::Node(2), Value::Int(5)]);
//! let outcome = deployment
//!     .query(&target)
//!     .issuer(3)
//!     .repr(Repr::Polynomial)
//!     .traversal(Traversal::Bfs)
//!     .execute();
//! assert_eq!(outcome.annotation.unwrap().as_expr().unwrap().num_derivations(), 2);
//! ```

use crate::mode::ProvenanceMode;
use crate::query::{
    QueryFabric, QueryOutcome, Session, SessionStats, TraversalOrder, SERIES_BUCKET_S,
};
use crate::repr::Repr;
use crate::rewrite::{provenance_rewrite, RewriteOptions};
use exspan_bdd::BddStore;
use exspan_ndlog::ast::Program;
use exspan_ndlog::diag::{Diagnostic, Severity};
use exspan_netsim::{ChurnEvent, LinkClass, LinkProps, Topology};
use exspan_runtime::{Engine, EngineConfig, FixpointStats, ValueBddPolicy, MAX_STEPS};
use exspan_store::{DiskBackend, StorageStats, WalOp};
use exspan_types::fxhash::FxHashMap;
use exspan_types::wire::BandwidthSeries;
use exspan_types::{NodeId, RelId, Tuple, Value, Vid};
use std::path::PathBuf;
use std::sync::Arc;

/// Entry point for building a [`Deployment`].
///
/// `Exspan::builder()` is the canonical spelling; [`Deployment::builder`] is
/// an alias.
#[derive(Debug, Clone, Copy)]
pub struct Exspan;

impl Exspan {
    /// Starts a [`DeploymentBuilder`] with default configuration
    /// (reference-based provenance, one shard, links auto-seeded).
    pub fn builder() -> DeploymentBuilder {
        DeploymentBuilder::default()
    }
}

/// Why a [`DeploymentBuilder`] refused to build.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// No NDlog program was supplied.
    MissingProgram,
    /// No topology was supplied.
    MissingTopology,
    /// The topology has no nodes.
    EmptyTopology,
    /// The program failed static validation; the payload lists every problem.
    InvalidProgram(Vec<String>),
    /// `shards(0)` was requested.
    ZeroShards,
    /// Opening or recovering the persistent store failed (I/O error,
    /// corruption past the committed prefix, or a store whose topology does
    /// not fit the configured one).  A snapshot records its node count, so a
    /// store with one is refused by any other topology size; a WAL-only store
    /// is refused when a logged operation names a node outside the topology,
    /// but a log carries no node count, so it cannot detect a *larger*
    /// topology.
    Storage(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::MissingProgram => write!(f, "no NDlog program supplied"),
            BuildError::MissingTopology => write!(f, "no topology supplied"),
            BuildError::EmptyTopology => write!(f, "the topology has no nodes"),
            BuildError::InvalidProgram(errors) => {
                write!(f, "invalid NDlog program: {}", errors.join("; "))
            }
            BuildError::ZeroShards => write!(f, "a deployment needs at least one shard"),
            BuildError::Storage(msg) => write!(f, "persistent store: {msg}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Why a deployment refused a base-tuple delta, before it could reach a
/// table.
#[derive(Debug, Clone, PartialEq)]
pub enum BaseTupleError {
    /// The node is outside the topology.
    NoSuchNode {
        /// The node the delta was addressed to.
        node: NodeId,
        /// The topology's node count.
        nodes: usize,
    },
    /// The tuple's location specifier names another node: no rule would
    /// ever fire on it where it was put.
    Misplaced {
        /// The node the delta was addressed to.
        node: NodeId,
        /// The tuple's location specifier.
        location: NodeId,
    },
    /// The tuple's arity is not the one its relation's
    /// `materialize(rel, arity, …)` declaration states.
    Arity {
        /// The tuple's relation.
        relation: RelId,
        /// The declared arity (including the location attribute).
        declared: usize,
        /// The tuple's arity.
        found: usize,
    },
    /// The delta was scheduled at a time the clock cannot reach: before
    /// the deployment's current simulated time, infinite, or not a number.
    Past {
        /// The time the delta was scheduled at.
        time: f64,
        /// The deployment's simulated time.
        now: f64,
    },
}

impl std::fmt::Display for BaseTupleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaseTupleError::NoSuchNode { node, nodes } => {
                write!(f, "n{node} is outside the {nodes}-node topology")
            }
            BaseTupleError::Misplaced { node, location } => {
                write!(f, "n{node} cannot store a tuple located at n{location}")
            }
            BaseTupleError::Arity {
                relation,
                declared,
                found,
            } => write!(
                f,
                "{relation} is declared with {declared} attributes, not {found}"
            ),
            BaseTupleError::Past { time, now } => {
                write!(f, "the clock at t={now} never reaches t={time}")
            }
        }
    }
}

impl std::error::Error for BaseTupleError {}

/// Whether a clock at `now` can reach time `t`: not before now, not
/// infinite, not NaN.  Every call that schedules at a time refuses the rest.
pub(crate) fn reachable(now: f64, t: f64) -> bool {
    (now..f64::INFINITY).contains(&t)
}

/// Builder for a [`Deployment`]; obtained from [`Exspan::builder`].
#[derive(Debug, Clone)]
pub struct DeploymentBuilder {
    program: Option<Program>,
    topology: Option<Topology>,
    mode: ProvenanceMode,
    shards: usize,
    data_dir: Option<PathBuf>,
    snapshot_every_bytes: u64,
    track_compressed: bool,
}

impl Default for DeploymentBuilder {
    fn default() -> Self {
        DeploymentBuilder {
            program: None,
            topology: None,
            mode: ProvenanceMode::Reference,
            shards: 1,
            data_dir: None,
            snapshot_every_bytes: 256 * 1024,
            track_compressed: false,
        }
    }
}

impl DeploymentBuilder {
    /// The NDlog protocol to execute (required).
    pub fn program(mut self, program: Program) -> Self {
        self.program = Some(program);
        self
    }

    /// The network topology to deploy on (required).
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology = Some(topology);
        self
    }

    /// Provenance mode (default: [`ProvenanceMode::Reference`]).
    pub fn mode(mut self, mode: ProvenanceMode) -> Self {
        self.mode = mode;
        self
    }

    /// At most how many worker shards execute the protocol (default 1).
    /// Results are bit-identical for every shard count, in every provenance
    /// mode: under [`ProvenanceMode::ValueBdd`] each shard keeps its own BDD
    /// store, and a history crossing shards travels in its canonical
    /// encoding.  An upper bound, not a promise: a deployment with a
    /// [`DeploymentBuilder::data_dir`] runs one shard, which keeps the
    /// journal ([`Deployment::num_shards`] reports what was built).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Enables log-structured persistence in `path`.  A fresh directory
    /// starts an empty durable store; an existing one is **recovered**: the
    /// latest snapshot is loaded, the committed WAL tail replayed, and the
    /// deployment resumes from the last committed barrier (link seeding is
    /// skipped — the recovered state already contains the links).  Check
    /// [`Deployment::recovered_from_store`] to distinguish the two.  The
    /// deployment owns the store: its engine journals, and every
    /// [`Deployment::run_until`] that journaled something commits one batch,
    /// fsynced, before it returns.  A durable deployment runs one shard,
    /// whatever [`DeploymentBuilder::shards`] asks for.
    pub fn data_dir(mut self, path: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(path.into());
        self
    }

    /// The floor of the snapshot trigger (default 256 KiB): a snapshot is
    /// taken and the log truncated at the first commit after which the WAL
    /// is at least `bytes` long *and* at least as long as the snapshot it
    /// would replace, so a store writes at most twice what it logs plus one
    /// snapshot and a reopen replays at most about one snapshot's length of
    /// log.  `u64::MAX` means never (only meaningful with
    /// [`DeploymentBuilder::data_dir`]).
    pub fn snapshot_every_bytes(mut self, bytes: u64) -> Self {
        self.snapshot_every_bytes = bytes;
        self
    }

    /// Additionally account every transmitted message under the dictionary
    /// size model (default `false`).  The flat byte model behind the
    /// existing figures is untouched; compressed totals surface through
    /// [`Deployment::avg_comm_mb_compressed`].
    pub fn track_compressed(mut self, on: bool) -> Self {
        self.track_compressed = on;
        self
    }

    /// Validates the configuration and builds the [`Deployment`].
    pub fn build(self) -> Result<Deployment, BuildError> {
        let program = self.program.ok_or(BuildError::MissingProgram)?;
        let topology = self.topology.ok_or(BuildError::MissingTopology)?;
        if topology.num_nodes() == 0 {
            return Err(BuildError::EmptyTopology);
        }
        if self.shards == 0 {
            return Err(BuildError::ZeroShards);
        }
        // Full static analysis (validation, type inference, safety,
        // liveness, distribution).  Errors refuse the deployment; warnings
        // and notes are retained on the deployment for inspection via
        // [`Deployment::build_warnings`].
        let analysis = exspan_ndlog::analyze(&program);
        if analysis.has_errors() {
            return Err(BuildError::InvalidProgram(
                analysis
                    .errors()
                    .map(std::string::ToString::to_string)
                    .collect(),
            ));
        }
        let warnings: Vec<Diagnostic> = analysis
            .diagnostics
            .iter()
            .filter(|d| d.severity < Severity::Error)
            .cloned()
            .collect();

        let engine_config = EngineConfig {
            shards: self.shards,
            track_compressed: self.track_compressed,
        };
        let executed = match self.mode {
            ProvenanceMode::None | ProvenanceMode::ValueBdd => program.clone(),
            ProvenanceMode::Reference => provenance_rewrite(&program, RewriteOptions::default()),
        };
        // The provenance rewrite must preserve the analysis verdict: a
        // program accepted above must stay error-free after rewriting.  This
        // is a rewrite invariant, but it is cheap to check and a violation
        // would otherwise surface as silent derivation loss at runtime.
        let rewritten = exspan_ndlog::analyze(&executed);
        if rewritten.has_errors() {
            return Err(BuildError::InvalidProgram(
                rewritten
                    .errors()
                    .map(|e| format!("provenance rewrite: {e}"))
                    .collect(),
            ));
        }

        // Open the persistent store, if configured.  The engine journals
        // from its first event; the committed state the store holds, if
        // any, is recovered into the fresh engine, which journals none of it.
        let mut store = None;
        let mut recovered_state = None;
        if let Some(dir) = &self.data_dir {
            let (disk, state) = DiskBackend::open(dir, self.snapshot_every_bytes)
                .map_err(|e| BuildError::Storage(e.to_string()))?;
            if let Some(state) = &state {
                // The policy's annotations are not persisted: resumed, every
                // recovered derived tuple would pass for a fresh base
                // variable and value-mode answers would be silently wrong.
                if self.mode == ProvenanceMode::ValueBdd {
                    return Err(BuildError::Storage(format!(
                        "store at {} holds committed state, which value-based \
                         provenance cannot resume (annotations are not persisted)",
                        dir.display()
                    )));
                }
                let nodes = topology.num_nodes() as u32;
                if let Some(snap) = &state.snapshot {
                    if snap.node_count != nodes {
                        return Err(BuildError::Storage(format!(
                            "store at {} was written for a {}-node topology, \
                             but the configured topology has {nodes} nodes",
                            dir.display(),
                            snap.node_count
                        )));
                    }
                }
                // A log carries no node count: the highest node its
                // operations name is all it says about the topology.
                let logged = state.batches.iter().flat_map(|batch| &batch.ops);
                let highest = logged
                    .map(|op| match op {
                        WalOp::Tuple { node, .. } | WalOp::AggProv { node, .. } => *node,
                        WalOp::Link { link, .. } => link.a.max(link.b),
                    })
                    .max();
                if let Some(node) = highest.filter(|&node| node >= nodes) {
                    return Err(BuildError::Storage(format!(
                        "store at {} logs an operation at n{node}, outside the \
                         configured {nodes}-node topology",
                        dir.display()
                    )));
                }
            }
            store = Some(disk);
            recovered_state = state;
        }
        let value = self.mode == ProvenanceMode::ValueBdd;
        let arities = executed
            .tables
            .iter()
            .map(|t| (t.relation, t.arity))
            .collect();
        let journal = store.is_some();
        let mut engine = Engine::with_parts(executed, topology, engine_config, value, journal);
        if let Some(state) = &recovered_state {
            engine
                .recover(state)
                .map_err(|e| BuildError::Storage(e.to_string()))?;
        }
        let recovered = recovered_state.is_some();

        let mut deployment = Deployment {
            engine,
            arities,
            mode: self.mode,
            program_name: program.name.clone(),
            warnings,
            fabric: QueryFabric::default(),
            recovered,
            store,
        };
        // A recovered store already contains the link tuples (and everything
        // derived from them); re-seeding would double their derivations.
        if !recovered {
            deployment.seed_links();
        }
        Ok(deployment)
    }
}

/// A running ExSPAN deployment: a protocol, a topology, a provenance mode,
/// and the query sessions issued against it — all advancing on one simulated
/// clock.  Built with [`Exspan::builder`].
pub struct Deployment {
    engine: Engine,
    /// Declared arity of every materialized relation of the executed program.
    arities: FxHashMap<RelId, usize>,
    mode: ProvenanceMode,
    program_name: String,
    warnings: Vec<Diagnostic>,
    fabric: QueryFabric,
    /// True when [`DeploymentBuilder::data_dir`] pointed at an existing store
    /// and the deployment booted from its recovered state instead of seeding.
    recovered: bool,
    /// The durable store of a deployment built with a
    /// [`DeploymentBuilder::data_dir`]: the engine journals, this commits.
    store: Option<DiskBackend>,
}

/// Lightweight, copyable reference to one submitted query.  Poll the result
/// with [`Deployment::outcome`]; inspect the owning session with
/// [`Deployment::session`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryHandle {
    index: usize,
    session: usize,
}

impl QueryHandle {
    /// Global issue-order index of this query within its deployment.
    pub fn index(&self) -> usize {
        self.index
    }
}

/// Read-only view of one typed query session (a representation + traversal +
/// caching configuration and its shared result cache).
pub struct QuerySession<'a>(&'a Session);

impl QuerySession<'_> {
    /// The representation queries of this session use.
    pub fn repr(&self) -> &Repr {
        &self.0.repr.repr
    }

    /// The traversal order queries of this session use.
    pub fn traversal(&self) -> TraversalOrder {
        self.0.traversal
    }

    /// Whether result caching (§6.1) is enabled.
    pub fn cached(&self) -> bool {
        self.0.caching
    }

    /// Traffic statistics of this session's query protocol messages.
    pub fn stats(&self) -> &SessionStats {
        &self.0.stats
    }

    /// Number of cache entries currently held across all nodes.
    pub fn cache_entries(&self) -> usize {
        self.0.cache_entries()
    }

    /// The session's own BDD store, which its [`Repr::Bdd`] answers are
    /// handles into (with its node and memo counts); `None` under any other
    /// representation.  It is dropped with the deployment.
    pub fn bdd(&self) -> Option<&BddStore> {
        self.0.repr.bdd()
    }
}

/// Builder for one provenance query; obtained from [`Deployment::query`].
#[must_use = "call .submit() (or .execute()) to issue the query"]
pub struct QueryBuilder<'a> {
    deployment: &'a mut Deployment,
    target: Tuple,
    issuer: NodeId,
    repr: Repr,
    traversal: TraversalOrder,
    cached: bool,
    at: Option<f64>,
}

impl<'a> QueryBuilder<'a> {
    /// Node issuing the query (default: the target tuple's own location).
    /// A query issued by or for a node outside the topology is refused: it
    /// sends nothing, is not counted in [`Deployment::incomplete_queries`],
    /// and its outcome keeps `completed_at: None`.
    pub fn issuer(mut self, issuer: NodeId) -> Self {
        self.issuer = issuer;
        self
    }

    /// Representation of the result (default: [`Repr::Polynomial`]).
    pub fn repr(mut self, repr: Repr) -> Self {
        self.repr = repr;
        self
    }

    /// Traversal order (default: [`TraversalOrder::Bfs`]).
    pub fn traversal(mut self, traversal: TraversalOrder) -> Self {
        self.traversal = traversal;
        self
    }

    /// Enables result caching (§6.1) for this query's session.
    pub fn cached(mut self, cached: bool) -> Self {
        self.cached = cached;
        self
    }

    /// Schedules issuance at an absolute simulated time instead of now.  A
    /// time before [`Deployment::now`], infinite or not a number is refused
    /// as an issuer outside the topology is (see [`Self::issuer`]).
    pub fn at(mut self, time: f64) -> Self {
        self.at = Some(time);
        self
    }

    /// Submits the query and returns its handle.  The query *progresses*
    /// whenever the deployment's clock advances ([`Deployment::run_until`] /
    /// [`Deployment::run_to_fixpoint`]); poll [`Deployment::outcome`] for the
    /// result.
    pub fn submit(self) -> QueryHandle {
        self.submit_on().1
    }

    /// Convenience: submits the query, runs the deployment to fixpoint, and
    /// returns the completed outcome.
    pub fn execute(self) -> QueryOutcome {
        let (deployment, handle) = self.submit_on();
        deployment.run_to_fixpoint();
        deployment
            .outcome(handle)
            .cloned()
            .expect("handle returned by submit is valid")
    }

    /// Submits the query; hands back the deployment with the handle.
    fn submit_on(self) -> (&'a mut Deployment, QueryHandle) {
        let deployment = self.deployment;
        let fabric = &mut deployment.fabric;
        let engine = &mut deployment.engine;
        let session = fabric.session_for(engine, &self.repr, self.traversal, self.cached);
        let index = fabric.submit(engine, session, self.issuer, &self.target, self.at);
        (deployment, QueryHandle { index, session })
    }
}

impl Deployment {
    /// Alias for [`Exspan::builder`].
    pub fn builder() -> DeploymentBuilder {
        Exspan::builder()
    }

    /// The provenance mode in use.
    pub fn mode(&self) -> ProvenanceMode {
        self.mode
    }

    /// The name of the protocol program being executed.
    pub fn program_name(&self) -> &str {
        &self.program_name
    }

    /// Warnings and notes the build-time static analysis produced for the
    /// program, warnings first (errors would have failed
    /// [`DeploymentBuilder::build`]).
    pub fn build_warnings(&self) -> &[Diagnostic] {
        &self.warnings
    }

    /// Read-only access to the underlying engine (tables, traffic counters),
    /// e.g. for the typed `prov`/`ruleExec` accessors of [`crate::storage`].
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The network topology.
    pub fn topology(&self) -> &Topology {
        self.engine.topology()
    }

    /// Current simulated time.
    pub fn now(&self) -> f64 {
        self.engine.now()
    }

    /// Simulated time of the earliest pending event, or `None` when nothing
    /// is scheduled — how long a wall-clock front-end may sleep before
    /// [`Self::run_until`] has work to do.
    pub fn next_event_time(&mut self) -> Option<f64> {
        self.engine.peek_time()
    }

    /// Number of shards executing this deployment.
    pub fn num_shards(&self) -> usize {
        self.engine.num_shards()
    }

    /// The shard owning `node`.
    pub fn shard_of(&self, node: NodeId) -> u16 {
        self.engine.shard_of(node)
    }

    /// Visible tuples of `relation` at `node`, as shared handles (no deep
    /// copy).
    pub fn tuples_shared(&self, node: NodeId, relation: &str) -> Vec<Arc<Tuple>> {
        self.engine.tuples_shared(node, relation)
    }

    /// Visible tuples of `relation` across all nodes in canonical order, as
    /// shared handles (no deep copy).
    pub fn tuples_everywhere_shared(&self, relation: &str) -> Vec<Arc<Tuple>> {
        self.engine.tuples_everywhere_shared(relation)
    }

    /// Derivation count of an exact tuple at its own location.
    pub fn derivation_count(&self, tuple: &Tuple) -> usize {
        self.engine.derivation_count(tuple)
    }

    // ------------------------------------------------------------------
    // Persistent storage
    // ------------------------------------------------------------------

    /// True when this deployment booted from an existing persistent store
    /// ([`DeploymentBuilder::data_dir`]) instead of seeding from scratch.
    pub fn recovered_from_store(&self) -> bool {
        self.recovered
    }

    /// Counters of the durable store (WAL batches/bytes, snapshots).
    /// All-zero for the in-memory default.
    pub fn storage_stats(&self) -> StorageStats {
        self.store
            .as_ref()
            .map(DiskBackend::stats)
            .unwrap_or_default()
    }

    /// Commits any pending journal entries and, unless the log is then empty,
    /// folds it into a snapshot (persistent deployments only; a no-op for the
    /// in-memory default).  Call before a graceful shutdown to make restart
    /// recovery snapshot-only.  An empty log after the commit means the
    /// snapshot on disk, if any, is current — and no snapshot beside an
    /// empty log is a fresh store, which a snapshot of the bare topology
    /// would turn into a recovered one.
    pub fn checkpoint(&mut self) {
        self.commit();
        if let Some(store) = &mut self.store {
            if store.stats().wal_bytes > 0 {
                store
                    .write_snapshot(self.engine.collect_snapshot())
                    .unwrap_or_else(|e| panic!("checkpoint snapshot failed: {e}"));
            }
        }
    }

    /// Commits the operations the engine journaled since the last commit as
    /// one WAL batch, stamped with the engine's last activity, and writes a
    /// snapshot if enough log accumulated.  Nothing is committed while the
    /// journal is empty.
    fn commit(&mut self) {
        let Some(store) = &mut self.store else {
            return;
        };
        let ops = self.engine.take_journal();
        if ops.is_empty() {
            return;
        }
        let time_bits = self.engine.last_activity().to_bits();
        store
            .commit_batch(&ops, time_bits)
            .unwrap_or_else(|e| panic!("WAL commit failed: {e}"));
        if store.snapshot_due() {
            store
                .write_snapshot(self.engine.collect_snapshot())
                .unwrap_or_else(|e| panic!("snapshot write failed: {e}"));
        }
    }

    /// Hex digest of the canonical snapshot encoding of the current logical
    /// state.  Equal digests mean byte-identical persistent state; the digest
    /// is independent of shard count and execution history.
    pub fn state_digest(&self) -> String {
        self.engine.state_digest().to_hex()
    }

    // ------------------------------------------------------------------
    // Topology and base-tuple management
    // ------------------------------------------------------------------

    /// Creates the `link(@a,b,cost)` tuple for one direction of a link.
    pub fn link_tuple(a: NodeId, b: NodeId, cost: i64) -> Tuple {
        Tuple::new("link", a, vec![Value::Node(b), Value::Int(cost)])
    }

    /// Inserts both directions of every topology link as `link` base tuples
    /// (the paper gives every node a priori knowledge of its local links).
    fn seed_links(&mut self) {
        let links: Vec<(NodeId, NodeId, i64)> = self
            .engine
            .topology()
            .links()
            .map(|(a, b, p)| (a, b, p.cost))
            .collect();
        for (a, b, cost) in links {
            self.engine.insert_base(a, Self::link_tuple(a, b, cost));
            self.engine.insert_base(b, Self::link_tuple(b, a, cost));
        }
    }

    /// Refuses a delta addressed to a node outside the topology or other than
    /// the tuple's location, and a tuple of a materialized relation whose
    /// arity is not the declared one, before it can reach a table.
    fn check_base(&self, node: NodeId, tuple: &Tuple) -> Result<(), BaseTupleError> {
        let nodes = self.engine.topology().num_nodes();
        if node as usize >= nodes {
            return Err(BaseTupleError::NoSuchNode { node, nodes });
        }
        if tuple.location != node {
            let location = tuple.location;
            return Err(BaseTupleError::Misplaced { node, location });
        }
        match self.arities.get(&tuple.relation) {
            Some(&declared) if declared != tuple.arity() => Err(BaseTupleError::Arity {
                relation: tuple.relation,
                declared,
                found: tuple.arity(),
            }),
            _ => Ok(()),
        }
    }

    /// Inserts a base tuple at `node` now (applied when the clock next
    /// advances).
    pub fn insert_base(&mut self, node: NodeId, tuple: Tuple) -> Result<(), BaseTupleError> {
        self.check_base(node, &tuple)?;
        self.engine.insert_base(node, tuple);
        Ok(())
    }

    /// Deletes a base tuple at `node` now (applied when the clock next
    /// advances).
    pub fn delete_base(&mut self, node: NodeId, tuple: Tuple) -> Result<(), BaseTupleError> {
        self.check_base(node, &tuple)?;
        self.engine.delete_base(node, tuple);
        Ok(())
    }

    /// Schedules a base-tuple delta at an absolute simulated time (churn
    /// schedules, data-plane workloads), applied when the clock passes
    /// `time`.  A `time` the clock cannot reach — before [`Self::now`],
    /// infinite or not a number — is refused ([`BaseTupleError::Past`]), as
    /// is what [`Self::insert_base`] refuses.
    pub fn schedule_delta(
        &mut self,
        time: f64,
        node: NodeId,
        tuple: Tuple,
        insert: bool,
    ) -> Result<(), BaseTupleError> {
        self.check_base(node, &tuple)?;
        let now = self.now();
        if !reachable(now, time) {
            return Err(BaseTupleError::Past { time, now });
        }
        self.engine.schedule_delta(time, node, tuple, insert);
        Ok(())
    }

    /// Adds a link to the topology and inserts its base tuples (both
    /// directions) at the current simulated time.  A link with an endpoint
    /// outside the topology, from a node to itself, or with a latency that
    /// is not a finite number ≥ 0, is refused: nothing changes.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, props: LinkProps) {
        self.change_link(true, a, b, props, self.now());
    }

    /// Removes a link from the topology and deletes its base tuples (of
    /// cost 1 when there is no such link).
    pub fn remove_link(&mut self, a: NodeId, b: NodeId) {
        let cost_one = LinkProps::from_class(LinkClass::Custom);
        self.change_link(false, a, b, cost_one, self.now());
    }

    /// Applies one churn event (link addition or deletion) now, refusing
    /// what [`Self::add_link`] refuses.
    pub fn apply_churn_event(&mut self, event: &ChurnEvent) {
        self.schedule_churn_event(event, self.now());
    }

    /// Schedules one churn event's base-tuple deltas at absolute simulated
    /// time `at`, so that maintenance traffic shows up at the schedule's
    /// time in the bandwidth time-series (Figures 9 and 10).  The topology
    /// change itself takes effect immediately — the simulator routes by
    /// current topology — which is at most one churn interval early.  For
    /// immediate application use [`Self::apply_churn_event`].
    ///
    /// An `at` before [`Self::now`], infinite or not a number is refused, as
    /// is what [`Self::add_link`] refuses (an added link's endpoint outside
    /// the topology, a self-link, a latency that is not a finite number
    /// ≥ 0): nothing changes.
    pub fn schedule_churn_event(&mut self, event: &ChurnEvent, at: f64) {
        self.change_link(event.add, event.a, event.b, event.props, at);
    }

    /// Adds (`add`) or removes the link `a`–`b` now, through the engine,
    /// which journals the change, and schedules the delta of its two `link`
    /// tuples at `at`, at each endpoint inside the topology.  The removed
    /// link's cost names the deleted tuples; with no such link, `props.cost`
    /// does.  An added link the topology cannot hold (a latency that is not
    /// a finite number ≥ 0 among them), or an `at` the clock cannot reach,
    /// is refused before anything changes.
    fn change_link(&mut self, add: bool, a: NodeId, b: NodeId, props: LinkProps, at: f64) {
        let nodes = self.engine.topology().num_nodes();
        let outside = |n: NodeId| n as usize >= nodes;
        let latency = (0.0..f64::INFINITY).contains(&props.latency);
        let unfit = a == b || outside(a) || outside(b) || !latency;
        if add && unfit || !reachable(self.now(), at) {
            return;
        }
        let cost = if add {
            self.engine.add_link(a, b, props);
            props.cost
        } else {
            self.engine.remove_link(a, b).unwrap_or(props).cost
        };
        for (from, to) in [(a, b), (b, a)] {
            if !outside(from) {
                let tuple = Self::link_tuple(from, to, cost);
                self.engine.schedule_delta(at, from, tuple, add);
            }
        }
    }

    // ------------------------------------------------------------------
    // The unified clock
    // ------------------------------------------------------------------

    /// Runs the deployment to a global fixpoint: protocol maintenance, churn
    /// deltas and in-flight queries all advance on one simulated clock until
    /// the event queue drains.
    pub fn run_to_fixpoint(&mut self) -> FixpointStats {
        self.run_until(f64::INFINITY)
    }

    /// Runs until the next event would occur after `time` — the one way to
    /// advance the deployment's clock.  Every front-end (figures, tests, the
    /// benchmark, `exspan-serve`) says only how far simulated time may go;
    /// what is computed below that time is the engine's deterministic event
    /// order, whoever asks and however often.
    ///
    /// While any query id is live the engine runs listening: it stops at
    /// each query-protocol message, in global event order, and the query
    /// fabric handles it before the engine goes on.  With an empty id table
    /// the engine is free to run its shards in parallel.  Either way, every
    /// provenance change the run applied reaches the caching sessions before
    /// it returns.
    ///
    /// A durable deployment commits what the run journaled — and any link
    /// change made since the last commit — as one WAL batch before
    /// returning; a run that journaled nothing commits nothing.
    pub fn run_until(&mut self, time: f64) -> FixpointStats {
        let mut steps = 0;
        let last = loop {
            let (run, external) = self.engine.run_until(time, !self.fabric.is_idle());
            steps += run.steps;
            match external.filter(|_| steps < MAX_STEPS) {
                Some(external) => self.fabric.on_external(&mut self.engine, &external),
                None => break run,
            }
        };
        self.fabric.apply_vertex_changes(&mut self.engine);
        self.commit();
        FixpointStats { steps, ..last }
    }

    // ------------------------------------------------------------------
    // Measurement
    // ------------------------------------------------------------------

    /// Total bytes transmitted so far across all nodes (protocol maintenance
    /// plus query traffic — everything shares the one network).
    pub fn total_bytes(&self) -> u64 {
        self.engine.total_bytes()
    }

    /// Average bytes transmitted per node, in megabytes (the metric of
    /// Figures 6 and 7).
    pub fn avg_comm_mb(&self) -> f64 {
        let nodes = self.engine.topology().num_nodes().max(1) as f64;
        self.engine.total_bytes() as f64 / nodes / 1e6
    }

    /// Average *compressed* bytes transmitted per node, in megabytes — the
    /// compressed counterpart of [`Deployment::avg_comm_mb`] charted by
    /// Figure 18.  Zero unless built with
    /// [`DeploymentBuilder::track_compressed`].
    pub fn avg_comm_mb_compressed(&self) -> f64 {
        let nodes = self.engine.topology().num_nodes().max(1) as f64;
        self.engine.compressed_bytes() as f64 / nodes / 1e6
    }

    /// Per-node average bandwidth samples in megabytes per second (the metric
    /// of Figures 8–10 and 16).
    pub fn avg_bandwidth_mbps(&self) -> Vec<(f64, f64)> {
        self.engine
            .stats()
            .avg_bandwidth_samples()
            .into_iter()
            .map(|(t, bps)| (t, bps / 1e6))
            .collect()
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Starts a builder-style provenance query for `target`.
    pub fn query(&mut self, target: &Tuple) -> QueryBuilder<'_> {
        let issuer = target.location;
        QueryBuilder {
            deployment: self,
            target: target.clone(),
            issuer,
            repr: Repr::Polynomial,
            traversal: TraversalOrder::Bfs,
            cached: false,
            at: None,
        }
    }

    /// The outcome of a submitted query (poll after advancing the clock).
    pub fn outcome(&self, handle: QueryHandle) -> Option<&QueryOutcome> {
        self.fabric.outcomes.get(handle.index)
    }

    /// Outcomes of all queries submitted so far, in issue order.
    pub fn outcomes(&self) -> &[QueryOutcome] {
        &self.fabric.outcomes
    }

    /// Number of submitted queries still in flight: accepted and not yet
    /// completed.  Service front-ends use this for admission control.
    pub fn incomplete_queries(&self) -> usize {
        self.fabric.incomplete
    }

    /// The typed session a query belongs to.
    pub fn session(&self, handle: QueryHandle) -> QuerySession<'_> {
        QuerySession(&self.fabric.sessions[handle.session])
    }

    /// Number of distinct query sessions created so far.
    pub fn session_count(&self) -> usize {
        self.fabric.sessions.len()
    }

    /// Query-traffic statistics summed over every session.
    pub fn query_traffic_stats(&self) -> SessionStats {
        let mut total = SessionStats::default();
        for s in &self.fabric.sessions {
            total.merge_from(&s.stats);
        }
        total
    }

    /// Bandwidth time-series of query traffic (bytes per second), merged
    /// across every session by sample bucket.
    pub fn query_bandwidth_samples(&self) -> Vec<(f64, f64)> {
        let mut merged = BandwidthSeries::new(SERIES_BUCKET_S);
        for s in &self.fabric.sessions {
            merged.merge_from(&s.series);
        }
        merged.samples()
    }

    /// For a [`Repr::Bdd`] query: evaluates the completed result under a
    /// trust assignment over base tuples (§6.3).  Returns `None` if the
    /// query has not completed or its session is not BDD-backed.
    pub fn derivable_under(
        &self,
        handle: QueryHandle,
        trusted: impl Fn(Vid) -> bool,
    ) -> Option<bool> {
        let annotation = self.outcome(handle)?.annotation.as_ref()?;
        let session = self.fabric.sessions.get(handle.session)?;
        session.repr.derivable_under(annotation, trusted)
    }

    // ------------------------------------------------------------------
    // Value-based provenance
    // ------------------------------------------------------------------

    /// Runs `f` against the first shard's value-based provenance policy
    /// only (in [`ProvenanceMode::ValueBdd`]): at two shards or more it sees
    /// that shard's store and charges alone.  Read every shard's through
    /// [`Engine::policies`] and the total through [`Engine::annotation_bytes`].
    pub fn with_value_provenance<T>(&self, f: impl FnOnce(&ValueBddPolicy) -> T) -> Option<T> {
        self.engine.policies().next().map(f)
    }
}

impl std::fmt::Debug for Deployment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deployment")
            .field("program", &self.program_name)
            .field("mode", &self.mode)
            .field("nodes", &self.engine.topology().num_nodes())
            .field("shards", &self.engine.num_shards())
            .field("queries", &self.fabric.outcomes.len())
            .field("sessions", &self.fabric.sessions.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exspan_ndlog::programs;

    fn mincost_deployment(mode: ProvenanceMode) -> Deployment {
        let mut d = Exspan::builder()
            .program(programs::mincost())
            .topology(Topology::paper_example())
            .mode(mode)
            .build()
            .expect("valid deployment");
        d.run_to_fixpoint();
        d
    }

    #[test]
    fn builder_validates_missing_pieces() {
        assert_eq!(
            Exspan::builder().build().unwrap_err(),
            BuildError::MissingProgram
        );
        assert_eq!(
            Exspan::builder()
                .program(programs::mincost())
                .build()
                .unwrap_err(),
            BuildError::MissingTopology
        );
        assert_eq!(
            Exspan::builder()
                .program(programs::mincost())
                .topology(Topology::empty(0))
                .build()
                .unwrap_err(),
            BuildError::EmptyTopology
        );
        assert_eq!(
            Exspan::builder()
                .program(programs::mincost())
                .topology(Topology::paper_example())
                .shards(0)
                .build()
                .unwrap_err(),
            BuildError::ZeroShards
        );
    }

    #[test]
    fn builder_rejects_invalid_programs() {
        // Duplicate rule labels fail static validation.
        let mut program = programs::mincost();
        let dup = program.rules[0].clone();
        program.rules.push(dup);
        match Exspan::builder()
            .program(program)
            .topology(Topology::paper_example())
            .build()
        {
            Err(BuildError::InvalidProgram(errors)) => {
                assert!(errors.iter().any(|e| e.contains("duplicate")));
            }
            other => panic!("expected InvalidProgram, got {other:?}"),
        }
    }

    #[test]
    fn builder_seeds_links_by_default() {
        let d = mincost_deployment(ProvenanceMode::Reference);
        assert!(!d.tuples_shared(0, "link").is_empty());
        assert!(!d.tuples_shared(0, "bestPathCost").is_empty());
    }

    #[test]
    fn equal_query_configs_share_a_session() {
        let mut d = mincost_deployment(ProvenanceMode::Reference);
        let target = (*d.tuples_shared(0, "bestPathCost").remove(0)).clone();
        let h1 = d.query(&target).repr(Repr::DerivationCount).submit();
        let h2 = d.query(&target).repr(Repr::DerivationCount).submit();
        let h3 = d.query(&target).repr(Repr::Polynomial).submit();
        d.run_to_fixpoint();
        assert_eq!(d.session_count(), 2);
        assert_eq!(h1.session, h2.session);
        assert_ne!(h1.session, h3.session);
        for h in [h1, h2, h3] {
            assert!(d.outcome(h).unwrap().is_complete());
        }
        assert_eq!(
            d.query_traffic_stats().bytes,
            d.session(h1).stats().bytes + d.session(h3).stats().bytes
        );
    }

    #[test]
    fn scheduled_queries_progress_with_run_until() {
        let mut d = mincost_deployment(ProvenanceMode::Reference);
        let target = (*d.tuples_shared(0, "bestPathCost").remove(0)).clone();
        let start = d.now();
        let h = d
            .query(&target)
            .issuer(3)
            .repr(Repr::NodeSet)
            .at(start + 0.5)
            .submit();
        // Before the issue time the query is untouched.
        d.run_until(start + 0.25);
        assert!(!d.outcome(h).unwrap().is_complete());
        // Advancing past it completes the query on the same clock.
        d.run_until(start + 5.0);
        let outcome = d.outcome(h).unwrap();
        assert!(outcome.is_complete());
        assert!(outcome.issued_at >= start + 0.5);
        assert!(!outcome
            .annotation
            .as_ref()
            .unwrap()
            .as_nodes()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn a_query_across_a_partition_completes_and_leaves_no_live_id() {
        // Partition the issuer from the target before a deferred query
        // issues: the simulator still delivers the query's messages (one
        // minimum-latency hop each), so the query completes, no id stays
        // live once the queue drains, and later queries still complete.
        let mut d = Exspan::builder()
            .program(programs::mincost())
            .topology(Topology::line(2))
            .build()
            .unwrap();
        d.run_to_fixpoint();
        let target = (*d.tuples_shared(0, "bestPathCost").remove(0)).clone();
        let start = d.now();
        let orphan = d
            .query(&target)
            .issuer(1)
            .repr(Repr::DerivationCount)
            .at(start + 0.5)
            .submit();
        d.remove_link(0, 1);
        d.run_to_fixpoint();
        assert!(d.outcome(orphan).unwrap().is_complete());
        assert_eq!(d.incomplete_queries(), 0);
        assert!(d.fabric.is_idle(), "a drained queue leaves no live id");

        // A later local query (issuer == target node) still completes.
        let gone = Tuple::new(
            "bestPathCost",
            1,
            vec![exspan_types::Value::Node(0), exspan_types::Value::Int(1)],
        );
        let local = d
            .query(&gone)
            .issuer(1)
            .repr(Repr::DerivationCount)
            .execute();
        assert!(local.is_complete());
        assert_eq!(local.annotation.unwrap().as_count(), Some(0));
    }

    #[test]
    fn value_provenance_closure_accessor() {
        let d = mincost_deployment(ProvenanceMode::ValueBdd);
        let target = (*d.tuples_shared(0, "bestPathCost").remove(0)).clone();
        let derivable = d
            .engine()
            .derivable_under(&target, |_| true)
            .expect("value mode keeps annotations");
        assert!(derivable);
        assert!(d.engine().annotation_of(&target).is_some());
        assert_eq!(
            d.with_value_provenance(|p| p.manager().node_count() > 2),
            Some(true)
        );
        // Reference mode has no value policy, and its rows no annotation.
        let r = mincost_deployment(ProvenanceMode::Reference);
        assert!(r.with_value_provenance(|_| ()).is_none());
        assert_eq!(r.engine().annotation_of(&target), None);
        assert_eq!(r.engine().derivable_under(&target, |_| true), None);
    }
}
