//! Customizable provenance representations (§5.2).
//!
//! The distributed query protocol is parameterized by three user-defined
//! functions operating on *annotations*:
//!
//! * `f_pEDB` — the annotation of a base (EDB) tuple leaf,
//! * `f_pRULE` — combines the annotations of a rule execution's inputs,
//! * `f_pIDB` — combines the annotations of a tuple's alternative derivations.
//!
//! Each implementation of [`ProvenanceRepr`] supplies that triple plus a wire
//! size for its annotations (charged when the annotation travels back along
//! the query's reverse path).  Implemented representations:
//!
//! | Representation | `f_pEDB` | `f_pRULE` | `f_pIDB` | paper |
//! |---|---|---|---|---|
//! | [`PolynomialRepr`] | base tuple literal | `·` (join)  | `+` (union) | §5.2.1 |
//! | [`NodeSetRepr`] | `{node}` | set union | set union | Table 3 |
//! | [`DerivationCountRepr`] | `1` | product | sum | Table 3 |
//! | [`DerivabilityRepr`] | `true` | AND | OR | Table 3 |
//! | [`BddRepr`] | BDD variable | BDD AND | BDD OR | §6.3 |
//! | [`TrustDomainRepr`] | `{domain(node)}` | set union | set union | §3 (granularity) |

use exspan_bdd::{Bdd, BddManager};
use exspan_types::{NodeId, Vid};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// Typed selector for a provenance representation, used by the builder-style
/// query API (`deployment.query(..).repr(Repr::Polynomial)`).
///
/// Each variant names one [`ProvenanceRepr`] implementation; the deployment
/// instantiates (and owns) the concrete representation per query *session*,
/// so callers never handle `Box<dyn ProvenanceRepr>` themselves.  Queries
/// submitted with equal `Repr` values (and equal traversal/caching settings)
/// share one session — and therefore one result cache and, for
/// [`Repr::Bdd`], one BDD manager.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Repr {
    /// Full provenance polynomials ([`PolynomialRepr`], §5.2.1).
    #[default]
    Polynomial,
    /// The set of participating nodes ([`NodeSetRepr`], Table 3).
    NodeSet,
    /// Number of alternative derivations ([`DerivationCountRepr`], Table 3).
    DerivationCount,
    /// Derivability with every base tuple trusted ([`DerivabilityRepr`],
    /// Table 3).  For custom trust policies prefer [`Repr::Bdd`] plus
    /// [`crate::deployment::Deployment::derivable_under`], which evaluates
    /// arbitrary trust assignments on the condensed result without
    /// re-querying.
    Derivability,
    /// Condensed (absorption) provenance as a BDD ([`BddRepr`], §6.3).
    Bdd,
    /// Trust-domain granularity with an explicit node→domain map
    /// ([`TrustDomainRepr`], §3).
    TrustDomain(BTreeMap<NodeId, u32>),
    /// Trust-domain granularity with contiguous domains of the given size
    /// ([`TrustDomainRepr::contiguous`]).
    ContiguousTrustDomains(u32),
}

impl Repr {
    /// Instantiates the concrete representation this selector names.
    pub(crate) fn instantiate(&self) -> Box<dyn ProvenanceRepr> {
        match self {
            Repr::Polynomial => Box::new(PolynomialRepr),
            Repr::NodeSet => Box::new(NodeSetRepr),
            Repr::DerivationCount => Box::new(DerivationCountRepr),
            Repr::Derivability => Box::new(DerivabilityRepr::default()),
            Repr::Bdd => Box::new(BddRepr::new()),
            Repr::TrustDomain(map) => Box::new(TrustDomainRepr::new(
                map.iter().map(|(n, d)| (*n, *d)).collect(),
            )),
            Repr::ContiguousTrustDomains(size) => Box::new(TrustDomainRepr::contiguous(*size)),
        }
    }

    /// The representation's name, matching [`ProvenanceRepr::name`].
    pub fn name(&self) -> &'static str {
        match self {
            Repr::Polynomial => "POLYNOMIAL",
            Repr::NodeSet => "NODESET",
            Repr::DerivationCount => "#DERIVATION",
            Repr::Derivability => "DERIVABILITY",
            Repr::Bdd => "BDD",
            Repr::TrustDomain(_) | Repr::ContiguousTrustDomains(_) => "TRUSTDOMAIN",
        }
    }
}

/// A provenance expression tree — the "provenance polynomial" of §5.2.1.
///
/// `+` (alternative derivations) is represented by [`ProvExpr::Sum`] and `·`
/// (joined inputs of one rule execution) by [`ProvExpr::Product`]; products
/// are labelled with `rule@location` as in the paper's
/// `〈R@RLoc〉(P1 · P2 · …)` notation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ProvExpr {
    /// A base-tuple literal (identified by its VID).
    Base(Vid),
    /// Alternative derivations combined with `+`, annotated with the location
    /// of the derived tuple.
    Sum {
        /// Location of the derived tuple.
        loc: NodeId,
        /// The alternative derivations.
        terms: Vec<ProvExpr>,
    },
    /// Joined rule inputs combined with `·`, annotated with `rule@loc`.
    Product {
        /// Rule label.
        rule: String,
        /// Location at which the rule executed.
        loc: NodeId,
        /// Input annotations.
        factors: Vec<ProvExpr>,
    },
}

impl ProvExpr {
    /// All base-tuple VIDs mentioned in the expression.
    pub fn base_tuples(&self) -> BTreeSet<Vid> {
        let mut out = BTreeSet::new();
        self.collect_bases(&mut out);
        out
    }

    fn collect_bases(&self, out: &mut BTreeSet<Vid>) {
        match self {
            ProvExpr::Base(v) => {
                out.insert(*v);
            }
            ProvExpr::Sum { terms, .. } => terms.iter().for_each(|t| t.collect_bases(out)),
            ProvExpr::Product { factors, .. } => factors.iter().for_each(|f| f.collect_bases(out)),
        }
    }

    /// Number of monomials (distinct derivations) in the expanded polynomial.
    pub fn num_derivations(&self) -> u64 {
        match self {
            ProvExpr::Base(_) => 1,
            ProvExpr::Sum { terms, .. } => terms.iter().map(ProvExpr::num_derivations).sum(),
            ProvExpr::Product { factors, .. } => {
                factors.iter().map(ProvExpr::num_derivations).product()
            }
        }
    }

    /// Serialized size in bytes: 20 per base literal plus 6 per operator node
    /// (tag, location and child count).
    pub fn wire_size(&self) -> usize {
        match self {
            ProvExpr::Base(_) => 20,
            ProvExpr::Sum { terms, .. } => 6 + terms.iter().map(ProvExpr::wire_size).sum::<usize>(),
            ProvExpr::Product { factors, rule, .. } => {
                6 + rule.len() + factors.iter().map(ProvExpr::wire_size).sum::<usize>()
            }
        }
    }
}

impl fmt::Display for ProvExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProvExpr::Base(v) => write!(f, "{v:.8}"),
            ProvExpr::Sum { loc, terms } => {
                write!(f, "(")?;
                for (i, t) in terms.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ")@n{loc}")
            }
            ProvExpr::Product { rule, loc, factors } => {
                write!(f, "<{rule}@n{loc}>(")?;
                for (i, t) in factors.iter().enumerate() {
                    if i > 0 {
                        write!(f, "*")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// An annotation value computed by a representation.
#[derive(Debug, Clone, PartialEq)]
pub enum Annotation {
    /// A provenance polynomial.
    Expr(ProvExpr),
    /// A set of node identifiers (node-level granularity).
    Nodes(BTreeSet<NodeId>),
    /// A set of trust-domain identifiers.
    Domains(BTreeSet<u32>),
    /// A derivation count.
    Count(u64),
    /// A derivability flag.
    Bool(bool),
    /// A handle into the representation's BDD manager.
    Bdd(Bdd),
}

impl Annotation {
    /// Interprets the annotation as a count if it is one.
    pub fn as_count(&self) -> Option<u64> {
        match self {
            Annotation::Count(c) => Some(*c),
            _ => None,
        }
    }

    /// Interprets the annotation as a boolean if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Annotation::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Interprets the annotation as a polynomial if it is one.
    pub fn as_expr(&self) -> Option<&ProvExpr> {
        match self {
            Annotation::Expr(e) => Some(e),
            _ => None,
        }
    }

    /// Interprets the annotation as a node set if it is one.
    pub fn as_nodes(&self) -> Option<&BTreeSet<NodeId>> {
        match self {
            Annotation::Nodes(n) => Some(n),
            _ => None,
        }
    }
}

/// The `(f_pEDB, f_pIDB, f_pRULE)` customization triple plus sizing.
///
/// `Send` is a supertrait so whole deployments (which own one boxed
/// representation per query session) can move onto the `exspan-serve`
/// server thread.
pub trait ProvenanceRepr: Send {
    /// Human-readable name (used in experiment output).
    fn name(&self) -> &'static str;

    /// Downcasting support, so callers holding a `Box<dyn ProvenanceRepr>`
    /// can recover the concrete representation (e.g. to evaluate a BDD
    /// annotation under a trust assignment).
    fn as_any(&self) -> &dyn std::any::Any;

    /// Annotation of a base (EDB) tuple identified by `vid` stored at `loc`.
    fn p_edb(&mut self, vid: Vid, loc: NodeId) -> Annotation;

    /// Combines the annotations of the inputs of one rule execution.  The
    /// children are moved in, so a representation that nests them (the
    /// polynomial) builds its result without copying a subtree.
    fn p_rule(&mut self, rule: &str, rloc: NodeId, children: Vec<Annotation>) -> Annotation;

    /// Combines the annotations of a tuple's alternative derivations, moved
    /// in as in [`ProvenanceRepr::p_rule`].
    fn p_idb(&mut self, loc: NodeId, derivations: Vec<Annotation>) -> Annotation;

    /// Number of bytes the annotation occupies when shipped in a query
    /// response message.
    fn wire_size(&self, annotation: &Annotation) -> usize;

    /// Threshold check used by DFS-with-threshold traversal: returns `true`
    /// if a *partial* result already satisfies the query's threshold so the
    /// traversal can stop early (e.g. "more than T derivations").  The
    /// default never stops early.
    fn exceeds_threshold(&self, annotation: &Annotation, threshold: i64) -> bool {
        let _ = (annotation, threshold);
        false
    }
}

// ---------------------------------------------------------------------------
// Polynomial
// ---------------------------------------------------------------------------

/// Provenance polynomials (§5.2.1): the full algebraic representation.
#[derive(Debug, Default, Clone)]
pub struct PolynomialRepr;

/// The polynomials among `annotations`, moved out in order into a vector of
/// their own length: collecting would reuse the larger buffer of
/// `annotations`, and a cached polynomial would keep its slack.
fn exprs(annotations: Vec<Annotation>) -> Vec<ProvExpr> {
    let mut out = Vec::with_capacity(annotations.len());
    out.extend(annotations.into_iter().filter_map(|a| match a {
        Annotation::Expr(e) => Some(e),
        _ => None,
    }));
    out
}

impl ProvenanceRepr for PolynomialRepr {
    fn name(&self) -> &'static str {
        "POLYNOMIAL"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn p_edb(&mut self, vid: Vid, _loc: NodeId) -> Annotation {
        Annotation::Expr(ProvExpr::Base(vid))
    }

    fn p_rule(&mut self, rule: &str, rloc: NodeId, children: Vec<Annotation>) -> Annotation {
        Annotation::Expr(ProvExpr::Product {
            rule: rule.to_string(),
            loc: rloc,
            factors: exprs(children),
        })
    }

    fn p_idb(&mut self, loc: NodeId, derivations: Vec<Annotation>) -> Annotation {
        let mut terms = exprs(derivations);
        if terms.len() == 1 {
            Annotation::Expr(terms.pop().expect("one term"))
        } else {
            Annotation::Expr(ProvExpr::Sum { loc, terms })
        }
    }

    fn wire_size(&self, annotation: &Annotation) -> usize {
        match annotation {
            Annotation::Expr(e) => e.wire_size(),
            _ => 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Node set
// ---------------------------------------------------------------------------

/// The set of nodes participating in a derivation (Table 3, "Node Set").
#[derive(Debug, Default, Clone)]
pub struct NodeSetRepr;

fn union_sets<'a, I: IntoIterator<Item = &'a Annotation>>(items: I) -> BTreeSet<NodeId> {
    let mut out = BTreeSet::new();
    for a in items {
        if let Annotation::Nodes(s) = a {
            out.extend(s.iter().copied());
        }
    }
    out
}

impl ProvenanceRepr for NodeSetRepr {
    fn name(&self) -> &'static str {
        "NODESET"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn p_edb(&mut self, _vid: Vid, loc: NodeId) -> Annotation {
        Annotation::Nodes(std::iter::once(loc).collect())
    }

    fn p_rule(&mut self, _rule: &str, rloc: NodeId, children: Vec<Annotation>) -> Annotation {
        let mut s = union_sets(&children);
        s.insert(rloc);
        Annotation::Nodes(s)
    }

    fn p_idb(&mut self, _loc: NodeId, derivations: Vec<Annotation>) -> Annotation {
        Annotation::Nodes(union_sets(&derivations))
    }

    fn wire_size(&self, annotation: &Annotation) -> usize {
        match annotation {
            Annotation::Nodes(s) => 2 + 4 * s.len(),
            _ => 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Trust domains
// ---------------------------------------------------------------------------

/// Trust-domain granularity (§3): like [`NodeSetRepr`] but nodes are first
/// mapped to the identifier of the administrative domain they belong to, so
/// the annotation only reveals which domains participated.
#[derive(Debug, Clone)]
pub struct TrustDomainRepr {
    domain_of: HashMap<NodeId, u32>,
    /// Domain assigned to nodes not present in the map.
    default_domain: u32,
}

impl TrustDomainRepr {
    /// Creates the representation from an explicit node→domain map.
    pub fn new(domain_of: HashMap<NodeId, u32>) -> Self {
        TrustDomainRepr {
            domain_of,
            default_domain: 0,
        }
    }

    /// Convenience constructor: nodes are partitioned into equally sized
    /// contiguous domains of `domain_size` nodes (mirroring the transit-stub
    /// generator where each domain holds 100 consecutive node ids).
    pub fn contiguous(domain_size: u32) -> Self {
        TrustDomainRepr {
            domain_of: HashMap::new(),
            default_domain: domain_size.max(1),
        }
    }

    fn domain(&self, node: NodeId) -> u32 {
        match self.domain_of.get(&node) {
            Some(d) => *d,
            None => node / self.default_domain.max(1),
        }
    }
}

impl ProvenanceRepr for TrustDomainRepr {
    fn name(&self) -> &'static str {
        "TRUSTDOMAIN"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn p_edb(&mut self, _vid: Vid, loc: NodeId) -> Annotation {
        Annotation::Domains(std::iter::once(self.domain(loc)).collect())
    }

    fn p_rule(&mut self, _rule: &str, rloc: NodeId, children: Vec<Annotation>) -> Annotation {
        let mut out: BTreeSet<u32> = BTreeSet::new();
        for a in children {
            if let Annotation::Domains(s) = a {
                out.extend(s.iter().copied());
            }
        }
        out.insert(self.domain(rloc));
        Annotation::Domains(out)
    }

    fn p_idb(&mut self, _loc: NodeId, derivations: Vec<Annotation>) -> Annotation {
        let mut out: BTreeSet<u32> = BTreeSet::new();
        for a in derivations {
            if let Annotation::Domains(s) = a {
                out.extend(s.iter().copied());
            }
        }
        Annotation::Domains(out)
    }

    fn wire_size(&self, annotation: &Annotation) -> usize {
        match annotation {
            Annotation::Domains(s) => 2 + 4 * s.len(),
            _ => 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Derivation count
// ---------------------------------------------------------------------------

/// Number of alternative derivations (Table 3, "# of Derivations").
#[derive(Debug, Default, Clone)]
pub struct DerivationCountRepr;

impl ProvenanceRepr for DerivationCountRepr {
    fn name(&self) -> &'static str {
        "#DERIVATION"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn p_edb(&mut self, _vid: Vid, _loc: NodeId) -> Annotation {
        Annotation::Count(1)
    }

    fn p_rule(&mut self, _rule: &str, _rloc: NodeId, children: Vec<Annotation>) -> Annotation {
        Annotation::Count(children.iter().map(|a| a.as_count().unwrap_or(0)).product())
    }

    fn p_idb(&mut self, _loc: NodeId, derivations: Vec<Annotation>) -> Annotation {
        Annotation::Count(derivations.iter().map(|a| a.as_count().unwrap_or(0)).sum())
    }

    fn wire_size(&self, _annotation: &Annotation) -> usize {
        4
    }

    fn exceeds_threshold(&self, annotation: &Annotation, threshold: i64) -> bool {
        annotation.as_count().is_some_and(|c| c as i64 > threshold)
    }
}

// ---------------------------------------------------------------------------
// Derivability test
// ---------------------------------------------------------------------------

/// Derivability test (Table 3): is the tuple derivable at all from the base
/// tuples the querier is willing to trust?
pub struct DerivabilityRepr {
    /// Predicate deciding whether a base tuple (by VID, at a location) is
    /// trusted.  Untrusted base tuples evaluate to `false`.  `Send` because
    /// the representation travels with its deployment onto the server thread.
    pub trust: Box<dyn Fn(Vid, NodeId) -> bool + Send>,
}

impl Default for DerivabilityRepr {
    fn default() -> Self {
        DerivabilityRepr {
            trust: Box::new(|_, _| true),
        }
    }
}

impl std::fmt::Debug for DerivabilityRepr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DerivabilityRepr").finish_non_exhaustive()
    }
}

impl ProvenanceRepr for DerivabilityRepr {
    fn name(&self) -> &'static str {
        "DERIVABILITY"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn p_edb(&mut self, vid: Vid, loc: NodeId) -> Annotation {
        Annotation::Bool((self.trust)(vid, loc))
    }

    fn p_rule(&mut self, _rule: &str, _rloc: NodeId, children: Vec<Annotation>) -> Annotation {
        Annotation::Bool(children.iter().all(|a| a.as_bool().unwrap_or(false)))
    }

    fn p_idb(&mut self, _loc: NodeId, derivations: Vec<Annotation>) -> Annotation {
        Annotation::Bool(derivations.iter().any(|a| a.as_bool().unwrap_or(false)))
    }

    fn wire_size(&self, _annotation: &Annotation) -> usize {
        1
    }

    fn exceeds_threshold(&self, annotation: &Annotation, _threshold: i64) -> bool {
        // A derivability query can stop as soon as one derivation succeeds.
        annotation.as_bool().unwrap_or(false)
    }
}

// ---------------------------------------------------------------------------
// BDD (absorption provenance)
// ---------------------------------------------------------------------------

/// Condensed provenance (§6.3): the polynomial is encoded as a boolean
/// expression over base tuples and stored as a BDD, which applies absorption
/// (`a + a·b = a`) automatically.
#[derive(Debug, Default)]
pub struct BddRepr {
    manager: BddManager,
    vars: HashMap<Vid, u32>,
}

impl BddRepr {
    /// Creates an empty BDD representation.
    pub fn new() -> Self {
        Self::default()
    }

    /// The BDD manager (for inspection in tests and trust evaluation).
    pub fn manager(&self) -> &BddManager {
        &self.manager
    }

    fn var(&mut self, vid: Vid) -> Bdd {
        let next = self.vars.len() as u32;
        let id = *self.vars.entry(vid).or_insert(next);
        self.manager.var(id)
    }

    /// Evaluates the annotation under a trust assignment over base tuples.
    pub fn derivable_under<F: Fn(Vid) -> bool>(&self, annotation: &Annotation, trusted: F) -> bool {
        let Annotation::Bdd(b) = annotation else {
            return false;
        };
        let by_var: HashMap<u32, bool> = self
            .vars
            .iter()
            .map(|(vid, var)| (*var, trusted(*vid)))
            .collect();
        self.manager
            .evaluate(*b, |v| by_var.get(&v).copied().unwrap_or(false))
    }
}

impl ProvenanceRepr for BddRepr {
    fn name(&self) -> &'static str {
        "BDD"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn p_edb(&mut self, vid: Vid, _loc: NodeId) -> Annotation {
        let b = self.var(vid);
        Annotation::Bdd(b)
    }

    fn p_rule(&mut self, _rule: &str, _rloc: NodeId, children: Vec<Annotation>) -> Annotation {
        let handles: Vec<Bdd> = children
            .iter()
            .filter_map(|a| match a {
                Annotation::Bdd(b) => Some(*b),
                _ => None,
            })
            .collect();
        Annotation::Bdd(self.manager.and_all(handles))
    }

    fn p_idb(&mut self, _loc: NodeId, derivations: Vec<Annotation>) -> Annotation {
        let handles: Vec<Bdd> = derivations
            .iter()
            .filter_map(|a| match a {
                Annotation::Bdd(b) => Some(*b),
                _ => None,
            })
            .collect();
        Annotation::Bdd(self.manager.or_all(handles))
    }

    fn wire_size(&self, annotation: &Annotation) -> usize {
        match annotation {
            Annotation::Bdd(b) => self.manager.serialized_size(*b),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exspan_types::{Tuple, Value};

    fn vid(name: &str, loc: NodeId) -> Vid {
        Tuple::new(name, loc, vec![Value::Int(1)]).vid()
    }

    /// Builds the paper's running example by hand:
    /// bestPathCost(@a,c,5) = sp3@a( pathCost(@a,c,5) ) where pathCost has two
    /// derivations: sp1@a(link(@a,c,5)) and sp2@b(link(@b,a,3), bestPathCost(@b,c,2)
    /// = sp3@b(sp1@b(link(@b,c,2)))).
    fn build_example<R: ProvenanceRepr>(repr: &mut R) -> (Annotation, [Vid; 3]) {
        let a = 0;
        let b = 1;
        let link_ac = vid("link_ac", a);
        let link_ba = vid("link_ba", b);
        let link_bc = vid("link_bc", b);

        // bestPathCost(@b,c,2) <- sp3@b <- pathCost(@b,c,2) <- sp1@b <- link(@b,c,2)
        let e_bc = repr.p_edb(link_bc, b);
        let r_sp1b = repr.p_rule("sp1", b, vec![e_bc]);
        let pc_b = repr.p_idb(b, vec![r_sp1b]);
        let r_sp3b = repr.p_rule("sp3", b, vec![pc_b]);
        let bpc_b = repr.p_idb(b, vec![r_sp3b]);

        // pathCost(@a,c,5): two derivations.
        let e_ac = repr.p_edb(link_ac, a);
        let d1 = repr.p_rule("sp1", a, vec![e_ac]);
        let e_ba = repr.p_edb(link_ba, b);
        let d2 = repr.p_rule("sp2", b, vec![e_ba, bpc_b]);
        let pc_a = repr.p_idb(a, vec![d1, d2]);

        // bestPathCost(@a,c,5).
        let r_sp3a = repr.p_rule("sp3", a, vec![pc_a]);
        let bpc_a = repr.p_idb(a, vec![r_sp3a]);
        (bpc_a, [link_ac, link_ba, link_bc])
    }

    #[test]
    fn polynomial_encodes_alternative_derivations() {
        let mut repr = PolynomialRepr;
        let (ann, [link_ac, link_ba, link_bc]) = build_example(&mut repr);
        let expr = ann.as_expr().unwrap();
        assert_eq!(expr.num_derivations(), 2);
        let bases = expr.base_tuples();
        assert!(bases.contains(&link_ac));
        assert!(bases.contains(&link_ba));
        assert!(bases.contains(&link_bc));
        // Printable form mentions the rules involved.
        let s = expr.to_string();
        assert!(s.contains("sp2@n1"));
        assert!(s.contains("sp3@n0"));
        assert!(s.contains(&format!("<sp1@n0>({})", link_ac.short())));
        assert!(expr.wire_size() > 60, "three base literals plus operators");
    }

    #[test]
    fn node_set_matches_paper_example() {
        // Paper §3: node-level provenance of bestPathCost(@a,c,5) is {a, b}.
        let mut repr = NodeSetRepr;
        let (ann, _) = build_example(&mut repr);
        let nodes = ann.as_nodes().unwrap();
        assert_eq!(nodes.iter().copied().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(repr.wire_size(&ann), 2 + 8);
    }

    #[test]
    fn derivation_count_matches_example() {
        let mut repr = DerivationCountRepr;
        let (ann, _) = build_example(&mut repr);
        assert_eq!(ann.as_count(), Some(2));
        assert!(repr.exceeds_threshold(&ann, 1));
        assert!(!repr.exceeds_threshold(&ann, 2));
    }

    #[test]
    fn derivability_depends_on_trusted_base_tuples() {
        // Trusting everything: derivable.
        let mut repr = DerivabilityRepr::default();
        let (ann, _) = build_example(&mut repr);
        assert_eq!(ann.as_bool(), Some(true));

        // Trusting nothing: not derivable.
        let mut repr = DerivabilityRepr {
            trust: Box::new(|_, _| false),
        };
        let (ann, _) = build_example(&mut repr);
        assert_eq!(ann.as_bool(), Some(false));

        // Trusting only node a's tuples: still derivable via the direct link.
        let mut repr = DerivabilityRepr {
            trust: Box::new(|_, loc| loc == 0),
        };
        let (ann, _) = build_example(&mut repr);
        assert_eq!(ann.as_bool(), Some(true));
        assert!(
            repr.exceeds_threshold(&ann, 0),
            "derivability can stop early"
        );
    }

    #[test]
    fn bdd_applies_absorption_and_supports_trust_queries() {
        let mut repr = BddRepr::new();
        let (ann, [link_ac, link_ba, link_bc]) = build_example(&mut repr);
        // Derivable when everything is trusted.
        assert!(repr.derivable_under(&ann, |_| true));
        // Not derivable when nothing is trusted.
        assert!(!repr.derivable_under(&ann, |_| false));
        // Trusting only link(@a,c,5) suffices (the direct derivation).
        assert!(repr.derivable_under(&ann, |v| v == link_ac));
        // Trusting only one of the two b-side links is not enough.
        assert!(!repr.derivable_under(&ann, |v| v == link_ba));
        assert!(repr.derivable_under(&ann, |v| v == link_ba || v == link_bc));
        assert!(repr.wire_size(&ann) > 4);
    }

    #[test]
    fn bdd_absorption_shrinks_redundant_provenance() {
        // a + a·b condenses to a: the wire size with absorption is no larger
        // than the single-variable BDD.
        let mut repr = BddRepr::new();
        let va = vid("a", 0);
        let vb = vid("b", 1);
        let ea = repr.p_edb(va, 0);
        let eb = repr.p_edb(vb, 1);
        let prod = repr.p_rule("r", 0, vec![ea.clone(), eb]);
        let sum = repr.p_idb(0, vec![ea.clone(), prod]);
        assert_eq!(sum, ea, "BDD canonicity applies absorption");

        // The equivalent polynomial keeps both derivations (no information
        // loss but larger size) — exactly the trade-off of §6.3.
        let mut poly = PolynomialRepr;
        let pa = poly.p_edb(va, 0);
        let pb = poly.p_edb(vb, 1);
        let pprod = poly.p_rule("r", 0, vec![pa.clone(), pb]);
        let psum = poly.p_idb(0, vec![pa, pprod]);
        assert_eq!(psum.as_expr().unwrap().num_derivations(), 2);
        assert!(poly.wire_size(&psum) > repr.wire_size(&sum));
    }

    #[test]
    fn trust_domain_collapses_nodes_into_domains() {
        // Nodes 0..99 -> domain 0, 100..199 -> domain 1 (contiguous blocks).
        let mut repr = TrustDomainRepr::contiguous(100);
        let e1 = repr.p_edb(vid("x", 5), 5);
        let e2 = repr.p_edb(vid("y", 150), 150);
        let r = repr.p_rule("sp2", 7, vec![e1, e2]);
        let ann = repr.p_idb(5, vec![r]);
        match &ann {
            Annotation::Domains(d) => {
                assert_eq!(d.iter().copied().collect::<Vec<_>>(), vec![0, 1]);
            }
            other => panic!("unexpected annotation {other:?}"),
        }
        assert_eq!(repr.wire_size(&ann), 2 + 8);

        // Explicit map.
        let mut map = HashMap::new();
        map.insert(5u32, 7u32);
        let mut repr = TrustDomainRepr::new(map);
        let e = repr.p_edb(vid("x", 5), 5);
        assert_eq!(e, Annotation::Domains(std::iter::once(7).collect()));
    }

    #[test]
    fn polynomial_single_derivation_is_not_wrapped_in_sum() {
        let mut repr = PolynomialRepr;
        let e = repr.p_edb(vid("a", 0), 0);
        let r = repr.p_rule("sp1", 0, vec![e]);
        let idb = repr.p_idb(0, vec![r.clone()]);
        assert_eq!(idb, r);
    }

    #[test]
    fn annotation_accessors() {
        assert_eq!(Annotation::Count(3).as_count(), Some(3));
        assert_eq!(Annotation::Bool(true).as_bool(), Some(true));
        assert!(Annotation::Count(3).as_bool().is_none());
        assert!(Annotation::Bool(true).as_count().is_none());
        assert!(Annotation::Count(3).as_expr().is_none());
        assert!(Annotation::Count(3).as_nodes().is_none());
    }
}
