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
//!   query fabric listens as the engine's [`exspan_runtime::ExternalSink`]),
//!   so query traffic overlaps ongoing maintenance exactly as Figures 9–12
//!   of the paper intend.  A front-end — figures, tests, the benchmark,
//!   `exspan-serve` — says only how far simulated time may go.
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
use crate::value_policy::ValueBddPolicy;
use exspan_ndlog::ast::Program;
use exspan_ndlog::diag::{Diagnostic, Severity};
use exspan_netsim::{ChurnEvent, LinkClass, LinkProps, Topology};
use exspan_runtime::{AnnotationPolicy, Engine, EngineConfig, FixpointStats};
use exspan_store::{DiskBackend, MemoryBackend, StorageBackend, StorageStats, StoreConfig};
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
    /// [`ProvenanceMode::Centralized`] names a server outside the topology.
    CentralizedServerOutOfRange {
        /// The requested server node.
        server: NodeId,
        /// Number of nodes in the topology.
        nodes: usize,
    },
    /// Opening or recovering the persistent store failed (I/O error,
    /// corruption past the committed prefix, or a store whose topology does
    /// not fit the configured one).
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
            BuildError::CentralizedServerOutOfRange { server, nodes } => write!(
                f,
                "centralized provenance server n{server} is outside the {nodes}-node topology"
            ),
            BuildError::Storage(msg) => write!(f, "persistent store: {msg}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Why a deployment refused a base-tuple delta: the tuple's arity is not the
/// one its relation's `materialize(rel, arity, …)` declaration states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArityError {
    /// The tuple's relation.
    pub relation: RelId,
    /// The declared arity (including the location attribute).
    pub declared: usize,
    /// The tuple's arity.
    pub found: usize,
}

impl std::fmt::Display for ArityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (relation, declared, found) = (self.relation, self.declared, self.found);
        write!(
            f,
            "{relation} is declared with {declared} attributes, not {found}"
        )
    }
}

impl std::error::Error for ArityError {}

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
            snapshot_every_bytes: StoreConfig::default().snapshot_wal_bytes,
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
    /// Results are bit-identical for every shard count.  An upper bound, not
    /// a promise: [`ProvenanceMode::ValueBdd`] runs one shard whatever is
    /// asked for here, because one annotation policy has to see every
    /// arrival, derivation and send in event order, and so does a deployment
    /// with a [`DeploymentBuilder::data_dir`], whose one shard keeps the
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
    /// [`Deployment::recovered_from_store`] to distinguish the two.  A
    /// durable deployment runs one shard, whatever
    /// [`DeploymentBuilder::shards`] asks for.
    pub fn data_dir(mut self, path: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(path.into());
        self
    }

    /// The floor of the snapshot trigger: a snapshot is taken and the log
    /// truncated at the first barrier where the WAL is at least `bytes` long
    /// *and* at least as long as the snapshot it would replace, so a store
    /// writes at most twice what it logs plus one snapshot and a reopen
    /// replays at most about one snapshot's length of log.  `u64::MAX`
    /// means never (only meaningful with [`DeploymentBuilder::data_dir`]).
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
        if let ProvenanceMode::Centralized { server } = self.mode {
            if server as usize >= topology.num_nodes() {
                return Err(BuildError::CentralizedServerOutOfRange {
                    server,
                    nodes: topology.num_nodes(),
                });
            }
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
            ProvenanceMode::Centralized { server } => provenance_rewrite(
                &program,
                RewriteOptions {
                    centralize_at: Some(server),
                },
            ),
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
        // into it from its first event; the committed state it holds, if
        // any, is recovered into the fresh engine, which journals none of it.
        let mut backend: Box<dyn StorageBackend> = Box::new(MemoryBackend);
        let mut recovered_state = None;
        if let Some(dir) = &self.data_dir {
            let store_config = StoreConfig {
                snapshot_wal_bytes: self.snapshot_every_bytes,
                ..StoreConfig::default()
            };
            let (disk, state) = DiskBackend::open(dir, store_config)
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
                if let Some(snap) = &state.snapshot {
                    let nodes = topology.num_nodes() as u32;
                    if snap.node_count != nodes {
                        return Err(BuildError::Storage(format!(
                            "store at {} was written for a {}-node topology, \
                             but the configured topology has {nodes} nodes",
                            dir.display(),
                            snap.node_count
                        )));
                    }
                }
            }
            backend = Box::new(disk);
            recovered_state = state;
        }
        let policy: Option<Box<dyn AnnotationPolicy + Send>> = match self.mode {
            ProvenanceMode::ValueBdd => Some(Box::new(ValueBddPolicy::new())),
            _ => None,
        };
        let arities = executed
            .tables
            .iter()
            .map(|t| (t.relation, t.arity))
            .collect();
        let mut engine = Engine::with_parts(executed, topology, engine_config, policy, backend);
        if let Some(state) = &recovered_state {
            engine.recover(state);
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

    /// Schedules issuance at an absolute simulated time instead of now.
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

    /// Counters of the storage backend (WAL batches/bytes, snapshots).
    /// All-zero for the in-memory default.
    pub fn storage_stats(&self) -> StorageStats {
        self.engine.storage_stats()
    }

    /// Flushes any pending journal entries and, unless the log is then empty,
    /// folds it into a snapshot (persistent deployments only; a no-op for the
    /// in-memory default).  Call before a graceful shutdown to make restart
    /// recovery snapshot-only.
    pub fn checkpoint(&mut self) {
        self.engine.checkpoint();
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

    /// Refuses a tuple of a materialized relation whose arity is not the
    /// declared one, before it can reach a table.
    fn check_arity(&self, tuple: &Tuple) -> Result<(), ArityError> {
        match self.arities.get(&tuple.relation) {
            Some(&declared) if declared != tuple.arity() => Err(ArityError {
                relation: tuple.relation,
                declared,
                found: tuple.arity(),
            }),
            _ => Ok(()),
        }
    }

    /// Inserts a base tuple at `node` now (applied when the clock next
    /// advances).
    pub fn insert_base(&mut self, node: NodeId, tuple: Tuple) -> Result<(), ArityError> {
        self.check_arity(&tuple)?;
        self.engine.insert_base(node, tuple);
        Ok(())
    }

    /// Deletes a base tuple at `node` now (applied when the clock next
    /// advances).
    pub fn delete_base(&mut self, node: NodeId, tuple: Tuple) -> Result<(), ArityError> {
        self.check_arity(&tuple)?;
        self.engine.delete_base(node, tuple);
        Ok(())
    }

    /// Schedules a base-tuple delta at an absolute simulated time (churn
    /// schedules, data-plane workloads), applied when the clock passes
    /// `time`.
    pub fn schedule_delta(
        &mut self,
        time: f64,
        node: NodeId,
        tuple: Tuple,
        insert: bool,
    ) -> Result<(), ArityError> {
        self.check_arity(&tuple)?;
        self.engine.schedule_delta(time, node, tuple, insert);
        Ok(())
    }

    /// Adds a link to the topology and inserts its base tuples (both
    /// directions) at the current simulated time.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, props: LinkProps) {
        self.change_link(true, a, b, props, self.now());
    }

    /// Removes a link from the topology and deletes its base tuples (of
    /// cost 1 when there is no such link).
    pub fn remove_link(&mut self, a: NodeId, b: NodeId) {
        let cost_one = LinkProps::from_class(LinkClass::Custom);
        self.change_link(false, a, b, cost_one, self.now());
    }

    /// Applies one churn event (link addition or deletion) now.
    pub fn apply_churn_event(&mut self, event: &ChurnEvent) {
        let now = self.engine.now();
        self.schedule_churn_event(event, now);
    }

    /// Schedules one churn event's base-tuple deltas at absolute simulated
    /// time `at`, so that maintenance traffic shows up at the schedule's
    /// time in the bandwidth time-series (Figures 9 and 10).  The topology
    /// change itself takes effect immediately — the simulator routes by
    /// current topology — which is at most one churn interval early.  For
    /// immediate application use [`Self::apply_churn_event`].
    pub fn schedule_churn_event(&mut self, event: &ChurnEvent, at: f64) {
        self.change_link(event.add, event.a, event.b, event.props, at);
    }

    /// Adds (`add`) or removes the link `a`–`b` now, through the engine,
    /// which journals the change, and schedules the delta of its two `link`
    /// tuples at `at`.  The removed link's cost names the deleted tuples;
    /// with no such link, `props.cost` does.
    fn change_link(&mut self, add: bool, a: NodeId, b: NodeId, props: LinkProps, at: f64) {
        let cost = if add {
            self.engine.add_link(a, b, props);
            props.cost
        } else {
            self.engine.remove_link(a, b).unwrap_or(props).cost
        };
        self.engine
            .schedule_delta(at, a, Self::link_tuple(a, b, cost), add);
        self.engine
            .schedule_delta(at, b, Self::link_tuple(b, a, cost), add);
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
    /// While any query id is live the query fabric listens as the engine's
    /// [`exspan_runtime::ExternalSink`], so query-protocol messages are
    /// handled between maintenance deltas in global event order; with an
    /// empty id table the engine is free to run its shards in parallel.
    pub fn run_until(&mut self, time: f64) -> FixpointStats {
        let stats = if self.fabric.is_idle() {
            self.engine.run_until(time, None)
        } else {
            self.engine.run_until(time, Some(&mut self.fabric))
        };
        // A fully drained event queue means any still-unresolved query state
        // belongs to messages the simulator dropped; write it off so future
        // runs regain the parallel path.
        if !self.fabric.is_idle() && self.engine.peek_time().is_none() {
            self.fabric.clear();
        }
        stats
    }

    // ------------------------------------------------------------------
    // Measurement
    // ------------------------------------------------------------------

    /// Total bytes transmitted so far across all nodes (protocol maintenance
    /// plus query traffic — everything shares the one network).
    pub fn total_bytes(&self) -> u64 {
        self.engine.stats().total_bytes()
    }

    /// Average bytes transmitted per node, in megabytes (the metric of
    /// Figures 6 and 7).
    pub fn avg_comm_mb(&self) -> f64 {
        self.engine.stats().avg_bytes_per_node() / 1e6
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

    /// Number of submitted queries still in flight (not completed, not
    /// written off as orphaned).  Service front-ends use this for admission
    /// control.
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

    /// Runs `f` against the value-based provenance policy (only in
    /// [`ProvenanceMode::ValueBdd`]; the engine owns it).
    pub fn with_value_provenance<T>(&self, f: impl FnOnce(&ValueBddPolicy) -> T) -> Option<T> {
        let policy = self.engine.policy()?.as_any().downcast_ref()?;
        Some(f(policy))
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
        let err = Exspan::builder()
            .program(programs::mincost())
            .topology(Topology::paper_example())
            .mode(ProvenanceMode::Centralized { server: 9 })
            .build()
            .unwrap_err();
        assert_eq!(
            err,
            BuildError::CentralizedServerOutOfRange {
                server: 9,
                nodes: 4
            }
        );
        assert!(!err.to_string().is_empty());
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
    fn dropped_query_messages_leave_an_incomplete_outcome_and_a_working_deployment() {
        // Partition the issuer from the target before a deferred query
        // issues: the simulator drops the unroutable query message, the
        // outcome honestly stays incomplete, and the deployment keeps
        // serving later queries (orphaned protocol state is reaped once the
        // event queue drains).
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
        assert!(
            !d.outcome(orphan).unwrap().is_complete(),
            "a query whose message was dropped must not claim completion"
        );

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
            .with_value_provenance(|p| p.derivable_under(&target, |_| true))
            .expect("value mode exposes the policy");
        assert!(derivable);
        let annotation = d.with_value_provenance(|p| p.annotation_of(&target));
        assert!(annotation.flatten().is_some());
        // Reference mode has no value policy.
        let r = mincost_deployment(ProvenanceMode::Reference);
        assert!(r.with_value_provenance(|_| ()).is_none());
    }
}
