//! # exspan
//!
//! A Rust reproduction of **ExSPAN** — *"Efficient Querying and Maintenance
//! of Network Provenance at Internet-Scale"* (Zhou, Sherr, Tao, Li, Loo, Mao;
//! SIGMOD 2010).
//!
//! ExSPAN adds *network provenance* — the ability to explain how any piece of
//! distributed network state was derived, by whom, and from what — to
//! protocols written in NDlog (Network Datalog, the language of declarative
//! networking).  The system maintains a distributed provenance graph with
//! near-zero overhead by shipping only `(RID, RLoc)` pointers with
//! derivations (*reference-based provenance*) and resolves provenance on
//! demand with distributed recursive queries that can be customized to return
//! provenance polynomials, node sets, derivation counts, derivability tests
//! or BDD-condensed (absorption) provenance.
//!
//! This facade crate re-exports the workspace crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`types`] | `exspan-types` | values, tuples, VIDs/RIDs, SHA-1, wire-size model |
//! | [`bdd`] | `exspan-bdd` | reduced ordered BDDs (absorption provenance) |
//! | [`ndlog`] | `exspan-ndlog` | NDlog AST, parser, validation, built-in programs |
//! | [`netsim`] | `exspan-netsim` | discrete-event simulator, topologies, churn |
//! | [`runtime`] | `exspan-runtime` | distributed pipelined semi-naïve NDlog engine |
//! | [`core`] | `exspan-core` | the `Deployment` API, provenance rewrite, modes, queries |
//! | [`serve`] | `exspan-serve` | wall-clock TCP service front-end, wire protocol |
//!
//! ## Quick start
//!
//! A deployment is built with `Exspan::builder()` (the program / topology /
//! mode combination is validated up front), queries are composed with the
//! builder-style `query(..)` API, and one `run_until` / `run_to_fixpoint`
//! clock advances protocol maintenance, churn and in-flight queries together:
//!
//! ```
//! use exspan::core::{Exspan, ProvenanceMode, Repr, Traversal};
//! use exspan::ndlog::programs;
//! use exspan::netsim::Topology;
//! use exspan::types::{Tuple, Value};
//!
//! // The 4-node example network of the paper's Figure 3, running MINCOST
//! // with reference-based provenance (links are seeded automatically).
//! let mut deployment = Exspan::builder()
//!     .program(programs::mincost())
//!     .topology(Topology::paper_example())
//!     .mode(ProvenanceMode::Reference)
//!     .shards(1)
//!     .build()
//!     .expect("valid deployment");
//! deployment.run_to_fixpoint();
//!
//! // Query the provenance of bestPathCost(@a, c, 5) as a polynomial,
//! // issued from node d.
//! let target = Tuple::new("bestPathCost", 0, vec![Value::Node(2), Value::Int(5)]);
//! let outcome = deployment
//!     .query(&target)
//!     .issuer(3)
//!     .repr(Repr::Polynomial)
//!     .traversal(Traversal::Bfs)
//!     .execute();
//! let polynomial = outcome.annotation.expect("query completes");
//! assert_eq!(polynomial.as_expr().unwrap().num_derivations(), 2);
//! ```
//!
//! Long-lived deployments submit queries with `.submit()` (returning a
//! `QueryHandle`) and poll results while the clock advances, so queries
//! overlap ongoing maintenance and churn:
//!
//! ```
//! use exspan::core::{Exspan, ProvenanceMode, Repr};
//! use exspan::ndlog::programs;
//! use exspan::netsim::Topology;
//!
//! let mut deployment = Exspan::builder()
//!     .program(programs::mincost())
//!     .topology(Topology::paper_example())
//!     .mode(ProvenanceMode::Reference)
//!     .build()
//!     .unwrap();
//! deployment.run_to_fixpoint();
//!
//! let target = deployment.tuples_shared(0, "bestPathCost").remove(0);
//! let start = deployment.now();
//! let handle = deployment
//!     .query(&target)
//!     .issuer(1)
//!     .repr(Repr::DerivationCount)
//!     .cached(true)
//!     .at(start + 0.1)
//!     .submit();
//! let neighbor = deployment.topology().neighbors(0)[0];
//! deployment.remove_link(0, neighbor); // churn
//! deployment.run_to_fixpoint(); // maintenance + query on one clock
//! assert!(deployment.outcome(handle).unwrap().is_complete());
//! ```

pub use exspan_bdd as bdd;
pub use exspan_core as core;
pub use exspan_ndlog as ndlog;
pub use exspan_netsim as netsim;
pub use exspan_runtime as runtime;
pub use exspan_serve as serve;
pub use exspan_types as types;

pub use exspan_serve::ServeConfig;

/// Shared deployment prologues used by the `examples/` binaries and the
/// integration tests — one builder-based helper instead of each call site
/// re-implementing the same wiring.
pub mod setup {
    use crate::core::{Deployment, Exspan, ProvenanceMode};
    use crate::ndlog::ast::Program;
    use crate::ndlog::programs;
    use crate::netsim::Topology;

    /// Builds a deployment for `program` over `topology` with `mode` on
    /// `shards` worker shards (links auto-seeded) and runs the protocol to a
    /// global fixpoint.
    pub fn converged(
        program: Program,
        topology: Topology,
        mode: ProvenanceMode,
        shards: usize,
    ) -> Deployment {
        let mut deployment = Exspan::builder()
            .program(program)
            .topology(topology)
            .mode(mode)
            .shards(shards)
            .build()
            .expect("deployment configuration is valid");
        deployment.run_to_fixpoint();
        deployment
    }

    /// The most common prologue: MINCOST with reference-based provenance.
    pub fn mincost_reference(topology: Topology, shards: usize) -> Deployment {
        converged(
            programs::mincost(),
            topology,
            ProvenanceMode::Reference,
            shards,
        )
    }
}
