//! # exspan-core
//!
//! ExSPAN — *EXtenSible Provenance Aware Networked systems*: the network
//! provenance layer of the paper "Efficient Querying and Maintenance of
//! Network Provenance at Internet-Scale" (SIGMOD 2010).
//!
//! Given any NDlog program executed by the distributed engine of
//! `exspan-runtime`, this crate provides:
//!
//! * [`rewrite`] — the automatic program rewrite of §4.2 (Algorithm 1) that
//!   augments a protocol with rules maintaining the distributed provenance
//!   graph in the `prov` and `ruleExec` tables, shipping only a
//!   `(RID, RLoc)` pointer with each derivation (reference-based
//!   provenance).
//! * [`storage`] — typed access to the distributed `prov`/`ruleExec` tables
//!   (the storage model of §4.1, Tables 1 and 2).
//! * [`mode`] + [`deployment`] — the provenance distribution modes of §3
//!   (no provenance, reference-based, value-based with BDDs, centralized)
//!   behind the first-class [`deployment::Deployment`] API: validated builder
//!   construction ([`deployment::Exspan::builder`]), typed builder-style
//!   queries returning [`deployment::QueryHandle`]s, and one unified
//!   simulated clock advancing maintenance, churn and in-flight queries
//!   together.
//! * [`repr`] — the customizable representations of §5.2, one [`Repr`]
//!   variant each: provenance polynomials, node sets, derivation counts,
//!   derivability tests, BDD (absorption) provenance and trust-domain
//!   granularity.  The module's table gives each variant's `f_pEDB` /
//!   `f_pRULE` / `f_pIDB` user-defined-function triple.
//! * [`query`] — the distributed recursive query protocol of §5.1 as one
//!   table of query ids, derived as the paper derives them
//!   (`RQID = f_sha1(QID+RID)`), and typed messages; with the optimizations
//!   of §6: result caching along the reverse path with transitive
//!   invalidation, BFS / DFS / DFS-with-threshold / random moonwalk orders.
//! * [`value_policy`] — value-based provenance as an engine annotation
//!   policy: every transmitted tuple carries its full (BDD-condensed)
//!   derivation history.

pub mod deployment;
pub mod mode;
pub mod query;
pub mod repr;
pub mod rewrite;
pub mod storage;
pub mod value_policy;

pub use deployment::{
    ArityError, BuildError, Deployment, DeploymentBuilder, Exspan, QueryBuilder, QueryHandle,
    QuerySession,
};
pub use mode::ProvenanceMode;
pub use query::{QueryOutcome, SessionStats, Traversal, TraversalOrder};
pub use repr::{Annotation, ProvExpr, Repr};
pub use rewrite::{provenance_rewrite, RewriteOptions};
pub use storage::{ProvEntry, RuleExecEntry};
pub use value_policy::ValueBddPolicy;
