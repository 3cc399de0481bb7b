//! Abstract syntax for NDlog programs.
//!
//! Every identifier the evaluator touches per rule firing — relation names,
//! rule labels, variable names, built-in function names — is an interned
//! [`Symbol`] (see [`exspan_types::symbol`]): `Copy`, pointer-equality, and
//! content ordering.  Construction sites still accept plain string literals
//! (`Term::var("S")`, `Atom::new("link", …)`) and intern transparently.

use exspan_types::{RelId, Symbol, Value};
use std::collections::BTreeSet;
use std::fmt;

/// A term: either a variable (names start with an uppercase letter) or a
/// constant value.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Term {
    /// A variable, e.g. `S`, `Cost`.
    Var(Symbol),
    /// A constant, e.g. `5`, `"sp2"`.
    Const(Value),
}

impl Term {
    /// Shorthand for a variable term.
    pub fn var(name: impl Into<Symbol>) -> Term {
        Term::Var(name.into())
    }

    /// Shorthand for a constant term.
    pub fn constant(v: impl Into<Value>) -> Term {
        Term::Const(v.into())
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

/// Binary comparison operators usable in rule-body constraints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        };
        write!(f, "{s}")
    }
}

/// An expression appearing in assignments, constraints, or (before
/// normalization) head arguments.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// A term (variable or constant).
    Term(Term),
    /// Binary arithmetic.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// A call to a built-in function, e.g. `f_sha1("link", X, Y)`.
    Call(Symbol, Vec<Expr>),
}

impl Expr {
    /// Shorthand for a variable expression.
    pub fn var(name: impl Into<Symbol>) -> Expr {
        Expr::Term(Term::Var(name.into()))
    }

    /// Shorthand for a constant expression.
    pub fn constant(v: impl Into<Value>) -> Expr {
        Expr::Term(Term::Const(v.into()))
    }

    /// Shorthand for a function call.
    pub fn call(name: impl Into<Symbol>, args: Vec<Expr>) -> Expr {
        Expr::Call(name.into(), args)
    }

    /// Collects the names of all variables referenced by this expression.
    pub fn variables(&self, out: &mut BTreeSet<Symbol>) {
        match self {
            Expr::Term(Term::Var(v)) => {
                out.insert(*v);
            }
            Expr::Term(Term::Const(_)) => {}
            Expr::Arith(_, a, b) => {
                a.variables(out);
                b.variables(out);
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.variables(out);
                }
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Term(t) => write!(f, "{t}"),
            Expr::Arith(op, a, b) => write!(f, "({a}{op}{b})"),
            Expr::Call(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// An atom: a predicate with a location specifier and argument terms,
/// appearing in rule bodies, e.g. `link(@Z,S,C1)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// Interned relation (predicate) identifier.
    pub relation: RelId,
    /// The location specifier term (the `@` attribute).
    pub location: Term,
    /// Remaining argument terms.
    pub args: Vec<Term>,
}

impl Atom {
    /// Creates an atom.
    pub fn new(relation: impl Into<RelId>, location: Term, args: Vec<Term>) -> Self {
        Atom {
            relation: relation.into(),
            location,
            args,
        }
    }

    /// All variables appearing in the atom (location included).
    pub fn variables(&self) -> BTreeSet<Symbol> {
        let mut out = BTreeSet::new();
        if let Term::Var(v) = &self.location {
            out.insert(*v);
        }
        for t in &self.args {
            if let Term::Var(v) = t {
                out.insert(*v);
            }
        }
        out
    }

    /// Total arity including the location attribute.
    pub fn arity(&self) -> usize {
        self.args.len() + 1
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(@{}", self.relation, self.location)?;
        for a in &self.args {
            write!(f, ",{a}")?;
        }
        write!(f, ")")
    }
}

/// Aggregate functions supported in rule heads.
///
/// The paper restricts the provenance rewrite to MIN and MAX (§4.2.2); COUNT
/// is additionally supported by the engine because the provenance *query*
/// rules use `COUNT<*>` (rule `c0` of §5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `min<X>`
    Min,
    /// `max<X>`
    Max,
    /// `count<*>` or `count<X>`
    Count,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Count => "count",
        };
        write!(f, "{s}")
    }
}

/// A single head argument: a plain term, an expression to be computed, or an
/// aggregate over a variable.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum HeadArg {
    /// A term copied from the body bindings.
    Term(Term),
    /// An expression computed from body bindings (normalized away by
    /// [`Program::normalize`]).
    Expr(Expr),
    /// An aggregate, e.g. `min<C>`.  `None` means `count<*>`.
    Aggregate(AggFunc, Option<Symbol>),
}

impl fmt::Display for HeadArg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeadArg::Term(t) => write!(f, "{t}"),
            HeadArg::Expr(e) => write!(f, "{e}"),
            HeadArg::Aggregate(func, Some(v)) => write!(f, "{func}<{v}>"),
            HeadArg::Aggregate(func, None) => write!(f, "{func}<*>"),
        }
    }
}

/// The head of a rule.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RuleHead {
    /// Interned relation derived by the rule.
    pub relation: RelId,
    /// Location specifier of the derived tuple.
    pub location: Term,
    /// Head arguments.
    pub args: Vec<HeadArg>,
}

impl RuleHead {
    /// Creates a head whose arguments are all plain terms.
    pub fn new(relation: impl Into<RelId>, location: Term, args: Vec<HeadArg>) -> Self {
        RuleHead {
            relation: relation.into(),
            location,
            args,
        }
    }

    /// Returns the aggregate (function, grouped variable, argument index) if
    /// this head contains one.
    pub fn aggregate(&self) -> Option<(AggFunc, Option<Symbol>, usize)> {
        self.args.iter().enumerate().find_map(|(i, a)| match a {
            HeadArg::Aggregate(f, v) => Some((*f, *v, i)),
            _ => None,
        })
    }
}

impl fmt::Display for RuleHead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(@{}", self.relation, self.location)?;
        for a in &self.args {
            write!(f, ",{a}")?;
        }
        write!(f, ")")
    }
}

/// A single element of a rule body.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BodyItem {
    /// A predicate atom.
    Atom(Atom),
    /// A constraint, e.g. `Z != Y` or `C <= Threshold`.
    Constraint(CmpOp, Expr, Expr),
    /// An assignment binding a fresh variable, e.g. `C = C1 + C2`.
    Assign(Symbol, Expr),
}

impl fmt::Display for BodyItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BodyItem::Atom(a) => write!(f, "{a}"),
            BodyItem::Constraint(op, a, b) => write!(f, "{a}{op}{b}"),
            BodyItem::Assign(v, e) => write!(f, "{v}={e}"),
        }
    }
}

/// An NDlog rule: `label head :- body.`
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Rule {
    /// Interned rule label, e.g. `sp2`.  Used in provenance RIDs.
    pub label: Symbol,
    /// Rule head.
    pub head: RuleHead,
    /// Rule body items.
    pub body: Vec<BodyItem>,
}

impl Rule {
    /// Creates a rule.
    pub fn new(label: impl Into<Symbol>, head: RuleHead, body: Vec<BodyItem>) -> Self {
        Rule {
            label: label.into(),
            head,
            body,
        }
    }

    /// Body atoms only, in order.
    pub fn body_atoms(&self) -> impl Iterator<Item = &Atom> {
        self.body.iter().filter_map(|b| match b {
            BodyItem::Atom(a) => Some(a),
            _ => None,
        })
    }

    /// Returns `true` if this rule's head contains an aggregate.
    pub fn is_aggregate(&self) -> bool {
        self.head.aggregate().is_some()
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} :- ", self.label, self.head)?;
        for (i, b) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{b}")?;
        }
        write!(f, ".")
    }
}

/// A materialized-table declaration: relation name, arity (including the
/// location attribute) and primary-key attribute positions (0 = location).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDecl {
    /// Interned relation name.
    pub relation: RelId,
    /// Arity including the location attribute.
    pub arity: usize,
    /// Primary-key positions (0-based over the full attribute list, position
    /// 0 being the location).  Empty means the whole tuple is the key.
    pub keys: Vec<usize>,
}

impl TableDecl {
    /// Creates a declaration with whole-tuple key.
    pub fn new(relation: impl Into<RelId>, arity: usize) -> Self {
        TableDecl {
            relation: relation.into(),
            arity,
            keys: Vec::new(),
        }
    }

    /// Creates a declaration with an explicit key.
    pub fn with_keys(relation: impl Into<RelId>, arity: usize, keys: Vec<usize>) -> Self {
        TableDecl {
            relation: relation.into(),
            arity,
            keys,
        }
    }
}

/// A complete NDlog program: table declarations plus rules.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// Human-readable name (e.g. `"MINCOST"`).
    pub name: String,
    /// Materialized table declarations.
    pub tables: Vec<TableDecl>,
    /// Rules in declaration order.
    pub rules: Vec<Rule>,
}

impl Program {
    /// Creates an empty program.
    pub fn new(name: impl Into<String>) -> Self {
        Program {
            name: name.into(),
            tables: Vec::new(),
            rules: Vec::new(),
        }
    }

    /// Adds a table declaration (builder style).
    pub fn with_table(mut self, decl: TableDecl) -> Self {
        self.tables.push(decl);
        self
    }

    /// Adds a rule (builder style).
    pub fn with_rule(mut self, rule: Rule) -> Self {
        self.rules.push(rule);
        self
    }

    /// Looks up a table declaration by relation name.
    pub fn table(&self, relation: &str) -> Option<&TableDecl> {
        self.tables.iter().find(|t| t.relation == relation)
    }

    /// Returns the rule with the given label, if any.
    pub fn rule(&self, label: &str) -> Option<&Rule> {
        self.rules.iter().find(|r| r.label == label)
    }

    /// The set of relations that appear in some rule head (derived relations).
    pub fn derived_relations(&self) -> BTreeSet<RelId> {
        self.rules.iter().map(|r| r.head.relation).collect()
    }

    /// The set of relations that only appear in rule bodies (base relations).
    pub fn base_relations(&self) -> BTreeSet<RelId> {
        let derived = self.derived_relations();
        self.rules
            .iter()
            .flat_map(Rule::body_atoms)
            .map(|a| a.relation)
            .filter(|r| !derived.contains(r))
            .collect()
    }

    /// Rewrites head-argument expressions into explicit body assignments with
    /// fresh variables, producing the *localized canonical form* assumed by
    /// the provenance rewrite (paper §4.2.2 writes `C = C1 + C2` explicitly).
    ///
    /// For example `pathCost(@S,D,C1+C2) :- …` becomes
    /// `pathCost(@S,D,Gen0) :- …, Gen0 = C1+C2`.
    pub fn normalize(&self) -> Program {
        let mut fresh = 0usize;
        let rules = self
            .rules
            .iter()
            .map(|r| {
                let mut body = r.body.clone();
                let args = r
                    .head
                    .args
                    .iter()
                    .map(|a| match a {
                        HeadArg::Expr(Expr::Term(t)) => HeadArg::Term(t.clone()),
                        HeadArg::Expr(e) => {
                            let name = Symbol::intern(&format!("NormGen{fresh}"));
                            fresh += 1;
                            body.push(BodyItem::Assign(name, e.clone()));
                            HeadArg::Term(Term::Var(name))
                        }
                        other => other.clone(),
                    })
                    .collect();
                Rule {
                    label: r.label,
                    head: RuleHead {
                        relation: r.head.relation,
                        location: r.head.location.clone(),
                        args,
                    },
                    body,
                }
            })
            .collect();
        Program {
            name: self.name.clone(),
            tables: self.tables.clone(),
            rules,
        }
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "// program {}", self.name)?;
        for r in &self.rules {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rule() -> Rule {
        // sp2 pathCost(@S,D,C) :- link(@Z,S,C1), bestPathCost(@Z,D,C2), C=C1+C2.
        Rule::new(
            "sp2",
            RuleHead::new(
                "pathCost",
                Term::var("S"),
                vec![HeadArg::Term(Term::var("D")), HeadArg::Term(Term::var("C"))],
            ),
            vec![
                BodyItem::Atom(Atom::new(
                    "link",
                    Term::var("Z"),
                    vec![Term::var("S"), Term::var("C1")],
                )),
                BodyItem::Atom(Atom::new(
                    "bestPathCost",
                    Term::var("Z"),
                    vec![Term::var("D"), Term::var("C2")],
                )),
                BodyItem::Assign(
                    "C".into(),
                    Expr::Arith(
                        ArithOp::Add,
                        Box::new(Expr::var("C1")),
                        Box::new(Expr::var("C2")),
                    ),
                ),
            ],
        )
    }

    #[test]
    fn display_round_trips_shape() {
        let r = sample_rule();
        let s = r.to_string();
        assert!(s.starts_with("sp2 pathCost(@S,D,C) :- link(@Z,S,C1)"));
        assert!(s.ends_with("."));
        assert!(s.contains("C=(C1+C2)"));
    }

    #[test]
    fn atom_variables_and_arity() {
        let r = sample_rule();
        let atoms: Vec<&Atom> = r.body_atoms().collect();
        assert_eq!(atoms.len(), 2);
        assert_eq!(atoms[0].arity(), 3);
        let vars = atoms[0].variables();
        assert!(vars.contains("Z") && vars.contains("S") && vars.contains("C1"));
    }

    #[test]
    fn derived_and_base_relations() {
        let p = Program::new("test")
            .with_rule(sample_rule())
            .with_rule(Rule::new(
                "sp3",
                RuleHead::new(
                    "bestPathCost",
                    Term::var("S"),
                    vec![
                        HeadArg::Term(Term::var("D")),
                        HeadArg::Aggregate(AggFunc::Min, Some("C".into())),
                    ],
                ),
                vec![BodyItem::Atom(Atom::new(
                    "pathCost",
                    Term::var("S"),
                    vec![Term::var("D"), Term::var("C")],
                ))],
            ));
        let derived = p.derived_relations();
        assert!(derived.contains("pathCost") && derived.contains("bestPathCost"));
        let base = p.base_relations();
        assert_eq!(base.into_iter().collect::<Vec<_>>(), vec!["link"]);
    }

    #[test]
    fn aggregate_detection() {
        let head = RuleHead::new(
            "bestPathCost",
            Term::var("S"),
            vec![
                HeadArg::Term(Term::var("D")),
                HeadArg::Aggregate(AggFunc::Min, Some("C".into())),
            ],
        );
        let (func, var, idx) = head.aggregate().unwrap();
        assert_eq!(func, AggFunc::Min);
        assert_eq!(var.map(Symbol::as_str), Some("C"));
        assert_eq!(idx, 1);
    }

    #[test]
    fn normalize_extracts_head_expressions() {
        // pathCost(@S,D,C1+C2) :- link(@Z,S,C1), bestPathCost(@Z,D,C2).
        let rule = Rule::new(
            "sp2",
            RuleHead::new(
                "pathCost",
                Term::var("S"),
                vec![
                    HeadArg::Term(Term::var("D")),
                    HeadArg::Expr(Expr::Arith(
                        ArithOp::Add,
                        Box::new(Expr::var("C1")),
                        Box::new(Expr::var("C2")),
                    )),
                ],
            ),
            vec![
                BodyItem::Atom(Atom::new(
                    "link",
                    Term::var("Z"),
                    vec![Term::var("S"), Term::var("C1")],
                )),
                BodyItem::Atom(Atom::new(
                    "bestPathCost",
                    Term::var("Z"),
                    vec![Term::var("D"), Term::var("C2")],
                )),
            ],
        );
        let p = Program::new("t").with_rule(rule).normalize();
        let r = &p.rules[0];
        // Head arg became a fresh variable and the body gained an assignment.
        assert!(
            matches!(&r.head.args[1], HeadArg::Term(Term::Var(v)) if v.as_str().starts_with("NormGen"))
        );
        assert!(r
            .body
            .iter()
            .any(|b| matches!(b, BodyItem::Assign(v, _) if v.as_str().starts_with("NormGen"))));
        // Trivial Expr::Term head args become plain terms.
        let rule2 = Rule::new(
            "x",
            RuleHead::new("out", Term::var("S"), vec![HeadArg::Expr(Expr::var("D"))]),
            vec![BodyItem::Atom(Atom::new(
                "in",
                Term::var("S"),
                vec![Term::var("D")],
            ))],
        );
        let p2 = Program::new("t2").with_rule(rule2).normalize();
        assert!(matches!(
            &p2.rules[0].head.args[0],
            HeadArg::Term(Term::Var(v)) if v == "D"
        ));
    }

    #[test]
    fn program_lookup_helpers() {
        let p = Program::new("t")
            .with_table(TableDecl::with_keys("bestPathCost", 3, vec![0, 1]))
            .with_rule(sample_rule());
        assert!(p.table("bestPathCost").is_some());
        assert!(p.table("nope").is_none());
        assert!(p.rule("sp2").is_some());
        assert!(p.rule("sp9").is_none());
    }
}
