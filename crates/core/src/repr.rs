//! Customizable provenance representations (§5.2).
//!
//! The distributed query protocol is parameterized by three user-defined
//! functions operating on *annotations*:
//!
//! * `f_pEDB` — the annotation of a base (EDB) tuple leaf,
//! * `f_pRULE` — combines the annotations of a rule execution's inputs,
//! * `f_pIDB` — combines the annotations of a tuple's alternative derivations.
//!
//! Each [`Repr`] variant selects one triple, plus a wire size for its
//! annotations (charged when the annotation travels back along the query's
//! reverse path):
//!
//! | [`Repr`] | `f_pEDB` | `f_pRULE` | `f_pIDB` | paper |
//! |---|---|---|---|---|
//! | `Polynomial` | base tuple literal | `·` (join)  | `+` (union) | §5.2.1 |
//! | `NodeSet` | `{node}` | set union | set union | Table 3 |
//! | `DerivationCount` | `1` | product | sum | Table 3 |
//! | `Derivability` | `true` | AND | OR | Table 3 |
//! | `Bdd` | BDD variable | BDD AND | BDD OR | §6.3 |
//! | `TrustDomain`, `ContiguousTrustDomains` | `{domain(node)}` | set union | set union | §3 (granularity) |

use exspan_bdd::{Bdd, BddStore, Variables};
use exspan_types::{NodeId, Symbol, Vid};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Typed selector for a provenance representation, used by the builder-style
/// query API (`deployment.query(..).repr(Repr::Polynomial)`).
///
/// The deployment computes the selected representation per query *session*:
/// queries submitted with equal `Repr` values (and equal traversal/caching
/// settings) share one session — and therefore one result cache and, for
/// [`Repr::Bdd`], one BDD store with one numbering of base tuples as its
/// variables.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Repr {
    /// Full provenance polynomials (§5.2.1).
    #[default]
    Polynomial,
    /// The set of participating nodes (Table 3).
    NodeSet,
    /// Number of alternative derivations (Table 3).
    DerivationCount,
    /// Derivability with every base tuple trusted (Table 3).  For custom
    /// trust policies use [`Repr::Bdd`] plus
    /// [`crate::deployment::Deployment::derivable_under`], which evaluates
    /// arbitrary trust assignments on the condensed result without
    /// re-querying.
    Derivability,
    /// Condensed (absorption) provenance as a BDD (§6.3).
    Bdd,
    /// Trust-domain granularity (§3) with an explicit node→domain map.  A
    /// node the map leaves out is a domain of its own whose id is its node
    /// id — which may equal the id the map gives other nodes.
    TrustDomain(BTreeMap<NodeId, u32>),
    /// Trust-domain granularity (§3) with contiguous domains of the given
    /// size: node `n` is in domain `n / size` (a size of 0 counts as 1).
    ContiguousTrustDomains(u32),
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
        /// Rule label: the `ruleExec` row's own interned string.
        rule: Symbol,
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
    /// A handle into its query session's own BDD store
    /// ([`crate::deployment::QuerySession::bdd`]), meaningful in no other.
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

/// The `(f_pEDB, f_pRULE, f_pIDB)` triple of one query session's [`Repr`],
/// plus the wire size of its annotations.  A session only combines
/// annotations it produced itself, so every function may take an annotation
/// to be of the kind its `Repr` produces.
pub(crate) struct Representation {
    pub(crate) repr: Repr,
    /// The session's own BDD store, and the variable of each base tuple
    /// ([`Repr::Bdd`]); dropped with the session.
    bdd: BddStore,
    vars: Variables<Vid>,
}

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

/// The BDD handles among `annotations`, in order.
fn bdds(annotations: Vec<Annotation>) -> impl Iterator<Item = Bdd> {
    annotations.into_iter().filter_map(|a| match a {
        Annotation::Bdd(b) => Some(b),
        _ => None,
    })
}

impl Representation {
    pub(crate) fn new(repr: Repr) -> Self {
        Representation {
            repr,
            bdd: BddStore::new(),
            vars: Variables::default(),
        }
    }

    /// The session's BDD store under [`Repr::Bdd`].
    pub(crate) fn bdd(&self) -> Option<&BddStore> {
        matches!(self.repr, Repr::Bdd).then_some(&self.bdd)
    }

    /// `f_pEDB`: the annotation of the base tuple `vid` stored at `loc`.
    pub(crate) fn p_edb(&mut self, vid: Vid, loc: NodeId) -> Annotation {
        match self.repr {
            Repr::Polynomial => Annotation::Expr(ProvExpr::Base(vid)),
            Repr::DerivationCount => Annotation::Count(1),
            Repr::Derivability => Annotation::Bool(true),
            Repr::Bdd => Annotation::Bdd(self.bdd.var(self.vars.id(vid, |v| *v))),
            Repr::NodeSet | Repr::TrustDomain(_) | Repr::ContiguousTrustDomains(_) => {
                self.union(Vec::new(), Some(loc))
            }
        }
    }

    /// `f_pRULE`: combines the annotations of the inputs of one rule
    /// execution.  The children are moved in, so the polynomial nests them
    /// without copying a subtree.
    pub(crate) fn p_rule(
        &mut self,
        rule: Symbol,
        rloc: NodeId,
        children: Vec<Annotation>,
    ) -> Annotation {
        match self.repr {
            Repr::Polynomial => Annotation::Expr(ProvExpr::Product {
                rule,
                loc: rloc,
                factors: exprs(children),
            }),
            Repr::DerivationCount => {
                Annotation::Count(children.iter().map(|a| a.as_count().unwrap_or(0)).product())
            }
            Repr::Derivability => {
                Annotation::Bool(children.iter().all(|a| a.as_bool().unwrap_or(false)))
            }
            Repr::Bdd => Annotation::Bdd(self.bdd.and_all(bdds(children))),
            Repr::NodeSet | Repr::TrustDomain(_) | Repr::ContiguousTrustDomains(_) => {
                self.union(children, Some(rloc))
            }
        }
    }

    /// `f_pIDB`: combines the annotations of a tuple's alternative
    /// derivations, moved in as in [`Representation::p_rule`].
    pub(crate) fn p_idb(&mut self, loc: NodeId, derivations: Vec<Annotation>) -> Annotation {
        match self.repr {
            Repr::Polynomial => {
                let mut terms = exprs(derivations);
                if terms.len() == 1 {
                    Annotation::Expr(terms.pop().expect("one term"))
                } else {
                    Annotation::Expr(ProvExpr::Sum { loc, terms })
                }
            }
            Repr::DerivationCount => {
                Annotation::Count(derivations.iter().map(|a| a.as_count().unwrap_or(0)).sum())
            }
            Repr::Derivability => {
                Annotation::Bool(derivations.iter().any(|a| a.as_bool().unwrap_or(false)))
            }
            Repr::Bdd => Annotation::Bdd(self.bdd.or_all(bdds(derivations))),
            Repr::NodeSet | Repr::TrustDomain(_) | Repr::ContiguousTrustDomains(_) => {
                self.union(derivations, None)
            }
        }
    }

    /// Whether the alternative derivations of a tuple found so far satisfy
    /// a DFS-with-threshold query (§6.2), so it can stop exploring: more
    /// than `threshold` derivations in all, or any derivable one.  Read in
    /// place, without combining them; nothing else ever satisfies it.
    pub(crate) fn satisfies(&self, derivations: &[Annotation], threshold: i64) -> bool {
        match self.repr {
            Repr::DerivationCount => {
                let count: u64 = derivations.iter().filter_map(Annotation::as_count).sum();
                count as i64 > threshold
            }
            Repr::Derivability => derivations.iter().any(|a| a.as_bool() == Some(true)),
            _ => false,
        }
    }

    /// The set union the node-set and trust-domain representations share:
    /// the members of every set in `sets`, plus the domain of `node` if one
    /// is given.  Under [`Repr::NodeSet`] a node is its own domain.
    fn union(&self, sets: Vec<Annotation>, node: Option<NodeId>) -> Annotation {
        let mut out = BTreeSet::new();
        for a in sets {
            if let Annotation::Nodes(s) | Annotation::Domains(s) = a {
                out.extend(s);
            }
        }
        out.extend(node.map(|n| match &self.repr {
            Repr::TrustDomain(map) => map.get(&n).copied().unwrap_or(n),
            Repr::ContiguousTrustDomains(size) => n / (*size).max(1),
            _ => n,
        }));
        match self.repr {
            Repr::NodeSet => Annotation::Nodes(out),
            _ => Annotation::Domains(out),
        }
    }

    /// Number of bytes `annotation` occupies in a query response message
    /// (a BDD's size walk marks the nodes it reaches, hence `&mut`).
    pub(crate) fn wire_size(&mut self, annotation: &Annotation) -> usize {
        match annotation {
            Annotation::Expr(e) => e.wire_size(),
            Annotation::Nodes(s) | Annotation::Domains(s) => 2 + 4 * s.len(),
            Annotation::Count(_) => 4,
            Annotation::Bool(_) => 1,
            Annotation::Bdd(b) => self.bdd.serialized_size(*b),
        }
    }

    /// Evaluates `annotation` under a trust assignment over base tuples
    /// (§6.3); `None` unless the session's representation is [`Repr::Bdd`].
    pub(crate) fn derivable_under(
        &self,
        annotation: &Annotation,
        trusted: impl Fn(Vid) -> bool,
    ) -> Option<bool> {
        let (Repr::Bdd, Annotation::Bdd(b)) = (&self.repr, annotation) else {
            return None;
        };
        Some(self.vars.derivable_under(&self.bdd, *b, trusted))
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
    fn build_example(repr: &mut Representation) -> (Annotation, [Vid; 3]) {
        let a = 0;
        let b = 1;
        let link_ac = vid("link_ac", a);
        let link_ba = vid("link_ba", b);
        let link_bc = vid("link_bc", b);

        // bestPathCost(@b,c,2) <- sp3@b <- pathCost(@b,c,2) <- sp1@b <- link(@b,c,2)
        let e_bc = repr.p_edb(link_bc, b);
        let r_sp1b = repr.p_rule("sp1".into(), b, vec![e_bc]);
        let pc_b = repr.p_idb(b, vec![r_sp1b]);
        let r_sp3b = repr.p_rule("sp3".into(), b, vec![pc_b]);
        let bpc_b = repr.p_idb(b, vec![r_sp3b]);

        // pathCost(@a,c,5): two derivations.
        let e_ac = repr.p_edb(link_ac, a);
        let d1 = repr.p_rule("sp1".into(), a, vec![e_ac]);
        let e_ba = repr.p_edb(link_ba, b);
        let d2 = repr.p_rule("sp2".into(), b, vec![e_ba, bpc_b]);
        let pc_a = repr.p_idb(a, vec![d1, d2]);

        // bestPathCost(@a,c,5).
        let r_sp3a = repr.p_rule("sp3".into(), a, vec![pc_a]);
        let bpc_a = repr.p_idb(a, vec![r_sp3a]);
        (bpc_a, [link_ac, link_ba, link_bc])
    }

    #[test]
    fn polynomial_encodes_alternative_derivations() {
        let mut repr = Representation::new(Repr::Polynomial);
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
        assert_eq!(repr.wire_size(&ann), expr.wire_size());
    }

    #[test]
    fn node_set_matches_paper_example() {
        // Paper §3: node-level provenance of bestPathCost(@a,c,5) is {a, b}.
        let mut repr = Representation::new(Repr::NodeSet);
        let (ann, _) = build_example(&mut repr);
        let nodes = ann.as_nodes().unwrap();
        assert_eq!(nodes.iter().copied().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(repr.wire_size(&ann), 2 + 8);
    }

    #[test]
    fn derivation_count_matches_example() {
        let mut repr = Representation::new(Repr::DerivationCount);
        let (ann, _) = build_example(&mut repr);
        assert_eq!(ann.as_count(), Some(2));
        assert_eq!(repr.wire_size(&ann), 4);
        assert!(repr.satisfies(std::slice::from_ref(&ann), 1));
        assert!(!repr.satisfies(&[ann.clone(), Annotation::Count(0)], 2));
        assert!(repr.satisfies(&[ann, Annotation::Count(1)], 2));
    }

    #[test]
    fn derivability_trusts_every_base_tuple() {
        let mut repr = Representation::new(Repr::Derivability);
        let (ann, [link_ac, ..]) = build_example(&mut repr);
        assert_eq!(ann.as_bool(), Some(true));
        assert_eq!(repr.wire_size(&ann), 1);
        assert!(repr.satisfies(&[Annotation::Bool(false), ann.clone()], 0));
        assert!(!repr.satisfies(&[Annotation::Bool(false)], 0));
        // A trust assignment is evaluated on a BDD session's result only.
        assert_eq!(repr.derivable_under(&ann, |v| v == link_ac), None);
    }

    #[test]
    fn bdd_applies_absorption_and_supports_trust_queries() {
        let mut repr = Representation::new(Repr::Bdd);
        let (ann, [link_ac, link_ba, link_bc]) = build_example(&mut repr);
        let derivable = |trusted: &dyn Fn(Vid) -> bool| repr.derivable_under(&ann, trusted);
        // Derivable when everything is trusted.
        assert_eq!(derivable(&|_| true), Some(true));
        // Not derivable when nothing is trusted.
        assert_eq!(derivable(&|_| false), Some(false));
        // Trusting only link(@a,c,5) suffices (the direct derivation).
        assert_eq!(derivable(&|v| v == link_ac), Some(true));
        // Trusting only one of the two b-side links is not enough.
        assert_eq!(derivable(&|v| v == link_ba), Some(false));
        assert_eq!(derivable(&|v| v == link_ba || v == link_bc), Some(true));
        assert!(repr.wire_size(&ann) > 4);
    }

    #[test]
    fn bdd_absorption_shrinks_redundant_provenance() {
        // a + a·b condenses to a: the wire size with absorption is no larger
        // than the single-variable BDD.
        let mut repr = Representation::new(Repr::Bdd);
        let va = vid("a", 0);
        let vb = vid("b", 1);
        let ea = repr.p_edb(va, 0);
        let eb = repr.p_edb(vb, 1);
        let prod = repr.p_rule("r".into(), 0, vec![ea.clone(), eb]);
        let sum = repr.p_idb(0, vec![ea.clone(), prod]);
        assert_eq!(sum, ea, "BDD canonicity applies absorption");

        // The equivalent polynomial keeps both derivations (no information
        // loss but larger size) — exactly the trade-off of §6.3.
        let mut poly = Representation::new(Repr::Polynomial);
        let pa = poly.p_edb(va, 0);
        let pb = poly.p_edb(vb, 1);
        let pprod = poly.p_rule("r".into(), 0, vec![pa.clone(), pb]);
        let psum = poly.p_idb(0, vec![pa, pprod]);
        assert_eq!(psum.as_expr().unwrap().num_derivations(), 2);
        assert!(poly.wire_size(&psum) > repr.wire_size(&sum));
    }

    #[test]
    fn trust_domain_collapses_nodes_into_domains() {
        // Nodes 0..99 -> domain 0, 100..199 -> domain 1 (contiguous blocks).
        let mut repr = Representation::new(Repr::ContiguousTrustDomains(100));
        let e1 = repr.p_edb(vid("x", 5), 5);
        let e2 = repr.p_edb(vid("y", 150), 150);
        let r = repr.p_rule("sp2".into(), 7, vec![e1, e2]);
        let ann = repr.p_idb(5, vec![r]);
        let domains = |ids: &[u32]| Annotation::Domains(ids.iter().copied().collect());
        assert_eq!(ann, domains(&[0, 1]));
        assert_eq!(repr.wire_size(&ann), 2 + 8);

        // Explicit map: a node it leaves out is its own domain.
        let mut repr = Representation::new(Repr::TrustDomain([(5, 7)].into()));
        assert_eq!(repr.p_edb(vid("x", 5), 5), domains(&[7]));
        assert_eq!(repr.p_edb(vid("y", 7), 7), domains(&[7]));
        assert_eq!(repr.p_edb(vid("z", 9), 9), domains(&[9]));
    }

    #[test]
    fn polynomial_single_derivation_is_not_wrapped_in_sum() {
        let mut repr = Representation::new(Repr::Polynomial);
        let e = repr.p_edb(vid("a", 0), 0);
        let r = repr.p_rule("sp1".into(), 0, vec![e]);
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
