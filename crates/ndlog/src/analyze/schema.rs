//! Pass 1 — schema and type inference.
//!
//! Infers a per-column type for every relation from the evidence a program
//! carries statically: location positions are node ids, constants have
//! manifest types, arithmetic produces integers, and every built-in function
//! has a known signature (`f_sha1 → digest`, `f_inPath → bool`, …).  Types
//! flow through rule variables in both directions — from stored columns into
//! head derivations and back — until a fixpoint, then every atom is checked
//! against the result.
//!
//! The engine-provided base relation `link` (seeded from the topology as
//! `link(@src, dst, cost)`) contributes its runtime schema
//! `(node, node, int)` whenever the program uses it at arity 3; all other
//! base tables start untyped and concretize only through use.
//!
//! Codes: `E008` (arity mismatch), `E009` (type mismatch), `E010` (unknown
//! built-in), `E011` (built-in arity), and `E013` for equality constraints
//! between provably different types (the constraint can never hold).

use crate::ast::{BodyItem, CmpOp, Expr, HeadArg, Program, Rule, Term};
use crate::diag::{Diagnostic, Diagnostics, Severity, SourceMap, Span};
use crate::eval::Builtin;
use exspan_types::{RelId, Symbol, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// The inferred type of one relation column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ColType {
    /// No evidence either way (compatible with everything).
    Unknown,
    /// A node address (every location column, `@X`).
    Node,
    /// A signed integer (costs, counts, sizes).
    Int,
    /// A string (rule names, symbolic constants).
    Str,
    /// A boolean.
    Bool,
    /// A list (path vectors, VID lists).
    List,
    /// A 20-byte digest (VIDs, RIDs).
    Digest,
    /// An opaque packet payload.
    Payload,
}

impl ColType {
    /// Whether evidence has pinned this column to a concrete type.
    pub fn is_concrete(self) -> bool {
        self != ColType::Unknown
    }

    fn of_value(v: &Value) -> ColType {
        match v {
            Value::Node(_) => ColType::Node,
            Value::Int(_) => ColType::Int,
            Value::Str(_) => ColType::Str,
            Value::Bool(_) => ColType::Bool,
            Value::List(_) => ColType::List,
            Value::Digest(_) => ColType::Digest,
            Value::Payload(_) => ColType::Payload,
        }
    }
}

impl fmt::Display for ColType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ColType::Unknown => "unknown",
            ColType::Node => "node",
            ColType::Int => "int",
            ColType::Str => "string",
            ColType::Bool => "bool",
            ColType::List => "list",
            ColType::Digest => "digest",
            ColType::Payload => "payload",
        };
        write!(f, "{s}")
    }
}

/// The inferred schema of one relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelSchema {
    /// Attribute count including the location (column 0).
    pub arity: usize,
    /// Whether a `materialize` declaration exists for the relation.
    pub declared: bool,
    /// Column types, index 0 being the location (always [`ColType::Node`]).
    pub cols: Vec<ColType>,
    /// Where the arity was first established (a declaration or a rule).
    arity_origin: String,
    /// Where each column's concrete type was first established.
    origins: Vec<Option<String>>,
}

impl RelSchema {
    fn new(arity: usize, declared: bool, arity_origin: String) -> RelSchema {
        let mut cols = vec![ColType::Unknown; arity];
        let mut origins = vec![None; arity];
        if arity > 0 {
            cols[0] = ColType::Node;
            origins[0] = Some("the location attribute".to_string());
        }
        RelSchema {
            arity,
            declared,
            cols,
            arity_origin,
            origins,
        }
    }
}

/// Inferred schemas for every relation a program mentions, keyed by relation.
pub type Schema = BTreeMap<RelId, RelSchema>;

/// Runs the pass, pushing diagnostics into `out` and returning the inferred
/// schema.
pub(crate) fn infer(
    program: &Program,
    source: Option<&SourceMap>,
    out: &mut Diagnostics,
) -> Schema {
    let mut infer = Infer {
        source,
        schema: Schema::new(),
        reported: BTreeSet::new(),
        out,
        changed: false,
    };
    infer.arities(program);
    infer.seed_link();
    // Monotone fixpoint: columns only move Unknown → concrete (conflicts
    // keep the first type), so this terminates; diagnostics deduplicate via
    // `reported`, making re-running each rule idempotent.
    loop {
        infer.changed = false;
        for (ri, rule) in program.rules.iter().enumerate() {
            infer.rule(ri, rule);
        }
        if !infer.changed {
            break;
        }
    }
    infer.schema
}

/// Signature of a built-in function: exact arity (None = variadic), expected
/// argument types ([`ColType::Unknown`] = any), and return type.
struct FuncSig {
    exact_arity: Option<usize>,
    args: &'static [ColType],
    ret: ColType,
}

fn func_sig(name: &str) -> Option<FuncSig> {
    use ColType::*;
    let builtin = Builtin::resolve(name)?;
    let (args, ret): (&'static [ColType], _) = match builtin {
        Builtin::Sha1 => (&[], Digest),
        Builtin::Append | Builtin::Empty => (&[], List),
        Builtin::Size => (&[List], Int),
        Builtin::Init => (&[Unknown, Unknown], List),
        Builtin::Prepend => (&[Unknown, List], List),
        Builtin::InPath => (&[List, Unknown], Bool),
        Builtin::First | Builtin::Last | Builtin::NextHop => (&[List], Unknown),
        Builtin::Item => (&[List, Int], Unknown),
    };
    Some(FuncSig {
        exact_arity: builtin.arity(),
        args,
        ret,
    })
}

/// A variable's inferred type and the evidence that established it.
type VarTypes = BTreeMap<Symbol, (ColType, String)>;

struct Infer<'a> {
    source: Option<&'a SourceMap>,
    schema: Schema,
    reported: BTreeSet<(&'static str, String)>,
    out: &'a mut Diagnostics,
    changed: bool,
}

impl Infer<'_> {
    fn emit(
        &mut self,
        code: &'static str,
        severity: Severity,
        rule: Option<Symbol>,
        span: Option<Span>,
        message: String,
    ) {
        let key = (
            code,
            format!(
                "{}:{message}",
                rule.map_or("", exspan_types::Symbol::as_str)
            ),
        );
        if self.reported.insert(key) {
            self.out
                .push(Diagnostic::new(code, severity, rule, message).with_span(span));
        }
    }

    /// Establishes or checks the arity of every relation occurrence.
    fn arities(&mut self, program: &Program) {
        for (ti, decl) in program.tables.iter().enumerate() {
            let span = self.source.and_then(|m| m.tables.get(ti).copied());
            match self.schema.get(&decl.relation) {
                None => {
                    self.schema.insert(
                        decl.relation,
                        RelSchema::new(decl.arity, true, "its materialize declaration".into()),
                    );
                }
                Some(existing) if existing.arity != decl.arity => {
                    let msg = format!(
                        "table {} is declared with arity {} but an earlier declaration gives arity {}",
                        decl.relation, decl.arity, existing.arity
                    );
                    self.emit("E008", Severity::Error, None, span, msg);
                }
                Some(_) => {
                    if let Some(s) = self.schema.get_mut(&decl.relation) {
                        s.declared = true;
                    }
                }
            }
        }
        for (ri, rule) in program.rules.iter().enumerate() {
            let head_span = self.source.and_then(|m| m.rule(ri).map(|r| r.head));
            self.occurrence(
                rule.head.relation,
                rule.head.args.len() + 1,
                format!("the head of rule {}", rule.label),
                Some(rule.label),
                head_span,
            );
            for (bi, item) in rule.body.iter().enumerate() {
                if let BodyItem::Atom(a) = item {
                    let span = self.source.and_then(|m| m.body_item(ri, bi));
                    self.occurrence(
                        a.relation,
                        a.arity(),
                        format!("rule {}", rule.label),
                        Some(rule.label),
                        span,
                    );
                }
            }
        }
    }

    fn occurrence(
        &mut self,
        relation: RelId,
        arity: usize,
        where_str: String,
        rule: Option<Symbol>,
        span: Option<Span>,
    ) {
        match self.schema.get(&relation) {
            None => {
                self.schema
                    .insert(relation, RelSchema::new(arity, false, where_str));
            }
            Some(existing) if existing.arity != arity => {
                let msg = format!(
                    "{relation} is used with arity {arity} here but {} {} arity {}",
                    existing.arity_origin,
                    if existing.declared {
                        "declares"
                    } else {
                        "uses"
                    },
                    existing.arity
                );
                self.emit("E008", Severity::Error, rule, span, msg);
            }
            Some(_) => {}
        }
    }

    /// The engine seeds `link(@src, dst, cost)` from the topology; give the
    /// relation its runtime schema when the program uses it compatibly.
    fn seed_link(&mut self) {
        let link = RelId::intern("link");
        if let Some(s) = self.schema.get_mut(&link) {
            if s.arity == 3 {
                for (col, ty) in [(1, ColType::Node), (2, ColType::Int)] {
                    s.cols[col] = ty;
                    s.origins[col] = Some("the topology's link seeds".to_string());
                }
            }
        }
    }

    fn col_type(&self, relation: RelId, col: usize) -> ColType {
        self.schema
            .get(&relation)
            .and_then(|s| s.cols.get(col))
            .copied()
            .unwrap_or(ColType::Unknown)
    }

    /// Merges `ty` into `relation`'s column `col`, reporting a conflict if a
    /// different concrete type was already established.
    fn merge_col(
        &mut self,
        relation: RelId,
        col: usize,
        ty: ColType,
        origin: String,
        rule: Option<Symbol>,
        span: Option<Span>,
    ) {
        if !ty.is_concrete() {
            return;
        }
        let Some(s) = self.schema.get_mut(&relation) else {
            return;
        };
        let Some(slot) = s.cols.get_mut(col) else {
            return; // arity mismatch, already reported
        };
        if !slot.is_concrete() {
            *slot = ty;
            s.origins[col] = Some(origin);
            self.changed = true;
        } else if *slot != ty {
            let existing = *slot;
            let prior = s.origins[col]
                .clone()
                .unwrap_or_else(|| "earlier use".into());
            let msg = format!(
                "column {col} of {relation} is {existing} (from {prior}) but {ty} (from {origin})"
            );
            self.emit("E009", Severity::Error, rule, span, msg);
        }
    }

    /// Merges `ty` into a rule-local variable, reporting a conflict if the
    /// variable already has a different concrete type.
    fn set_var(
        &mut self,
        vars: &mut VarTypes,
        label: Symbol,
        span: Option<Span>,
        v: Symbol,
        ty: ColType,
        origin: String,
    ) {
        if !ty.is_concrete() {
            vars.entry(v).or_insert((ColType::Unknown, origin));
            return;
        }
        match vars.get(&v) {
            Some((existing, prior)) if existing.is_concrete() => {
                if *existing != ty {
                    let msg = format!(
                        "variable {v} is {existing} (from {prior}) but {ty} (from {origin})"
                    );
                    self.emit("E009", Severity::Error, Some(label), span, msg);
                }
            }
            _ => {
                vars.insert(v, (ty, origin));
            }
        }
    }

    fn var_type(vars: &VarTypes, v: Symbol) -> ColType {
        vars.get(&v).map_or(ColType::Unknown, |(t, _)| *t)
    }

    /// Infers the type of an expression, checking built-in calls and
    /// arithmetic, and back-inferring operand variable types where the
    /// context pins them (arith operands are ints, `f_size`'s argument is a
    /// list, …).
    fn expr(
        &mut self,
        e: &Expr,
        vars: &mut VarTypes,
        label: Symbol,
        span: Option<Span>,
    ) -> ColType {
        match e {
            Expr::Term(Term::Var(v)) => Self::var_type(vars, *v),
            Expr::Term(Term::Const(c)) => ColType::of_value(c),
            Expr::Arith(op, a, b) => {
                for operand in [a, b] {
                    let ty = self.expr(operand, vars, label, span);
                    if ty.is_concrete() && ty != ColType::Int {
                        let msg = format!("arithmetic ({op}) on a {ty} value");
                        self.emit("E009", Severity::Error, Some(label), span, msg);
                    } else if let Expr::Term(Term::Var(v)) = operand.as_ref() {
                        self.set_var(
                            vars,
                            label,
                            span,
                            *v,
                            ColType::Int,
                            format!("arithmetic in rule {label}"),
                        );
                    }
                }
                ColType::Int
            }
            Expr::Call(name, args) => {
                let Some(sig) = func_sig(name.as_str()) else {
                    let msg = format!("unknown built-in function {name}");
                    self.emit("E010", Severity::Error, Some(label), span, msg);
                    for a in args {
                        self.expr(a, vars, label, span);
                    }
                    return ColType::Unknown;
                };
                if let Some(exact) = sig.exact_arity {
                    if args.len() != exact {
                        let msg = format!("{name} expects {exact} argument(s), got {}", args.len());
                        self.emit("E011", Severity::Error, Some(label), span, msg);
                    }
                }
                for (i, a) in args.iter().enumerate() {
                    let ty = self.expr(a, vars, label, span);
                    let expected = sig.args.get(i).copied().unwrap_or(ColType::Unknown);
                    if !expected.is_concrete() {
                        continue;
                    }
                    if !ty.is_concrete() {
                        if let Expr::Term(Term::Var(v)) = a {
                            self.set_var(
                                vars,
                                label,
                                span,
                                *v,
                                expected,
                                format!("argument {} of {name}", i + 1),
                            );
                        }
                    } else if ty != expected {
                        let msg = format!(
                            "argument {} of {name} must be a {expected}, got a {ty} value",
                            i + 1
                        );
                        self.emit("E009", Severity::Error, Some(label), span, msg);
                    }
                }
                sig.ret
            }
        }
    }

    fn rule(&mut self, ri: usize, rule: &Rule) {
        let label = rule.label;
        let mut vars = VarTypes::new();
        let head_span = self.source.and_then(|m| m.rule(ri).map(|r| r.head));

        // Seed variable types from stored columns and location positions.
        for (bi, item) in rule.body.iter().enumerate() {
            let BodyItem::Atom(a) = item else { continue };
            let span = self.source.and_then(|m| m.body_item(ri, bi));
            if let Term::Var(v) = &a.location {
                self.set_var(
                    &mut vars,
                    label,
                    span,
                    *v,
                    ColType::Node,
                    format!("the @ location of {}", a.relation),
                );
            }
            for (i, t) in a.args.iter().enumerate() {
                let col = i + 1;
                match t {
                    Term::Var(v) => {
                        let ty = self.col_type(a.relation, col);
                        self.set_var(
                            &mut vars,
                            label,
                            span,
                            *v,
                            ty,
                            format!("column {col} of {}", a.relation),
                        );
                    }
                    Term::Const(c) => {
                        self.merge_col(
                            a.relation,
                            col,
                            ColType::of_value(c),
                            format!("a constant in rule {label}"),
                            Some(label),
                            span,
                        );
                    }
                }
            }
        }
        match &rule.head.location {
            Term::Var(v) => {
                let origin = "the head location".to_string();
                self.set_var(&mut vars, label, head_span, *v, ColType::Node, origin);
            }
            // A constant names no node (there is no node literal): column 0
            // refuses it here, in every provenance mode.
            Term::Const(c) => {
                let (relation, ty) = (rule.head.relation, ColType::of_value(c));
                let origin = format!("the head location of rule {label}");
                self.merge_col(relation, 0, ty, origin, Some(label), head_span);
            }
        }

        // Assignments (binding order) and constraint typing.
        for (bi, item) in rule.body.iter().enumerate() {
            let span = self.source.and_then(|m| m.body_item(ri, bi));
            match item {
                BodyItem::Assign(v, e) => {
                    let ty = self.expr(e, &mut vars, label, span);
                    self.set_var(
                        &mut vars,
                        label,
                        span,
                        *v,
                        ty,
                        format!("an assignment in rule {label}"),
                    );
                }
                BodyItem::Constraint(op, a, b) => {
                    let ta = self.expr(a, &mut vars, label, span);
                    let tb = self.expr(b, &mut vars, label, span);
                    if !ta.is_concrete() || !tb.is_concrete() {
                        continue;
                    }
                    match op {
                        CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                            let ordered = (ta == ColType::Int && tb == ColType::Int)
                                || (ta == ColType::Node && tb == ColType::Node);
                            if !ordered {
                                let msg = format!(
                                    "ordering comparison between {ta} and {tb} values can never succeed"
                                );
                                self.emit("E009", Severity::Error, Some(label), span, msg);
                            }
                        }
                        CmpOp::Eq => {
                            if ta != tb {
                                let msg = format!(
                                    "equality between {ta} and {tb} values is always false"
                                );
                                self.emit("E013", Severity::Error, Some(label), span, msg);
                            }
                        }
                        CmpOp::Ne => {}
                    }
                }
                BodyItem::Atom(_) => {}
            }
        }

        // Write variable types back into stored columns.
        for (bi, item) in rule.body.iter().enumerate() {
            let BodyItem::Atom(a) = item else { continue };
            let span = self.source.and_then(|m| m.body_item(ri, bi));
            for (i, t) in a.args.iter().enumerate() {
                if let Term::Var(v) = t {
                    let ty = Self::var_type(&vars, *v);
                    self.merge_col(
                        a.relation,
                        i + 1,
                        ty,
                        format!("rule {label}"),
                        Some(label),
                        span,
                    );
                }
            }
        }

        // Head derivation types.
        for (ai, arg) in rule.head.args.iter().enumerate() {
            let span = self.source.and_then(|m| m.head_arg(ri, ai));
            let ty = match arg {
                HeadArg::Term(Term::Var(v)) => Self::var_type(&vars, *v),
                HeadArg::Term(Term::Const(c)) => ColType::of_value(c),
                HeadArg::Expr(e) => self.expr(e, &mut vars, label, span),
                HeadArg::Aggregate(crate::ast::AggFunc::Count, _) => ColType::Int,
                HeadArg::Aggregate(_, Some(v)) => Self::var_type(&vars, *v),
                HeadArg::Aggregate(_, None) => ColType::Unknown,
            };
            self.merge_col(
                rule.head.relation,
                ai + 1,
                ty,
                format!("the head of rule {label}"),
                Some(label),
                span,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::analyze;
    use crate::parser::parse_program;

    fn errors_of(src: &str) -> Vec<String> {
        let p = parse_program("t", src).unwrap();
        analyze(&p)
            .errors()
            .map(|d| format!("{}: {}", d.code, d.message))
            .collect()
    }

    #[test]
    fn arity_mismatch_against_declaration_is_an_error() {
        // The pre-analysis validator only checked key positions; this is the
        // regression test for the closed hole.
        let errs = errors_of(
            "materialize(out, 2, keys(0)).\n\
             r1 out(@X,Y,Z) :- a(@X,Y,Z).\n",
        );
        assert!(
            errs.iter()
                .any(|e| e.starts_with("E008") && e.contains("out")),
            "{errs:?}"
        );
    }

    #[test]
    fn arity_mismatch_across_rules_is_an_error() {
        let errs = errors_of(
            "r1 out(@X,Y) :- a(@X,Y).\n\
             r2 out(@X,Y,Y) :- a(@X,Y).\n",
        );
        assert!(errs.iter().any(|e| e.starts_with("E008")), "{errs:?}");
    }

    #[test]
    fn swapped_columns_are_a_type_conflict() {
        // r1 derives out(loc, node, int); r2 swaps the columns.
        let errs = errors_of(
            "r1 out(@S,D,C) :- link(@S,D,C).\n\
             r2 out(@S,C,D) :- link(@S,D,C).\n",
        );
        assert!(errs.iter().any(|e| e.starts_with("E009")), "{errs:?}");
    }

    #[test]
    fn unknown_function_and_bad_function_arity() {
        let errs = errors_of("r1 out(@X,V) :- a(@X,Y), V=f_bogus(Y).\n");
        assert!(errs.iter().any(|e| e.starts_with("E010")), "{errs:?}");
        let errs = errors_of("r1 out(@X,V) :- a(@X,Y), V=f_size(Y,Y).\n");
        assert!(errs.iter().any(|e| e.starts_with("E011")), "{errs:?}");
    }

    #[test]
    fn arithmetic_on_lists_is_an_error() {
        let errs = errors_of("r1 out(@X,V) :- a(@X,Y), P=f_init(X,Y), V=P+1.\n");
        assert!(errs.iter().any(|e| e.starts_with("E009")), "{errs:?}");
    }

    #[test]
    fn cross_type_equality_is_statically_false() {
        // X is a location (node); comparing it with a string can never hold.
        let errs = errors_of("r1 out(@X,Y) :- a(@X,Y), X==\"name\".\n");
        assert!(errs.iter().any(|e| e.starts_with("E013")), "{errs:?}");
    }

    #[test]
    fn link_seed_types_flow_through_mincost() {
        let p = crate::programs::mincost();
        let a = analyze(&p);
        assert!(!a.has_errors(), "{}", a.diagnostics.render(None));
        let path_cost = a.schema.get(&RelId::intern("pathCost")).unwrap();
        assert_eq!(
            path_cost.cols,
            vec![ColType::Node, ColType::Node, ColType::Int]
        );
    }

    #[test]
    fn clean_programs_stay_clean() {
        let errs = errors_of(
            "pv1 path(@S,D,P,C) :- link(@S,D,C), P=f_init(S,D).\n\
             pv3 bestPathCost(@S,D,min<C>) :- path(@S,D,P,C).\n",
        );
        assert!(errs.is_empty(), "{errs:?}");
    }
}
