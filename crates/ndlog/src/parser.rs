//! Recursive-descent parser for the NDlog concrete syntax.
//!
//! The grammar matches the paper's notation:
//!
//! ```text
//! program    := (table_decl | rule)*
//! table_decl := "materialize" "(" ident "," int "," "keys" "(" int ("," int)* ")" ")" "."
//! rule       := label head ":-" body "."
//! head       := ident "(" "@" term ("," head_arg)* ")"
//! head_arg   := agg | expr
//! agg        := ("min"|"max"|"count") "<" (var | "*") ">"
//! body       := body_item ("," body_item)*
//! body_item  := atom | var "=" expr | expr cmp expr | var ":=" expr
//! atom       := ident "(" "@" term ("," term)* ")"
//! ```
//!
//! Identifiers beginning with an uppercase letter are variables; everything
//! else is a predicate/function name or constant.  String literals use
//! double quotes.  Comments run from `//` to end of line.

use crate::ast::{
    AggFunc, ArithOp, Atom, BodyItem, CmpOp, Expr, HeadArg, Program, Rule, RuleHead, TableDecl,
    Term,
};
use crate::diag::{RuleSpans, SourceMap, Span};
use exspan_types::{Symbol, Value};

/// A parse failure, with a byte offset and message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the source where the error occurred.
    pub offset: usize,
    /// Human-readable message.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// The largest arity (and key position) a `materialize` declaration may
/// give.  No program comes near it; it keeps a typo from sizing a schema.
const MAX_ARITY: usize = 255;

/// Parses a complete NDlog program.
///
/// ```
/// use exspan_ndlog::parse_program;
/// let p = parse_program("MINCOST", r#"
///     sp1 pathCost(@S,D,C) :- link(@S,D,C).
///     sp3 bestPathCost(@S,D,min<C>) :- pathCost(@S,D,C).
/// "#).unwrap();
/// assert_eq!(p.rules.len(), 2);
/// ```
pub fn parse_program(name: &str, source: &str) -> Result<Program, ParseError> {
    parse_program_spanned(name, source).map(|(p, _)| p)
}

/// Parses a complete NDlog program, additionally returning a [`SourceMap`]
/// recording the byte span of every table declaration, rule, head argument
/// and body item — index-aligned with the returned [`Program`] — so
/// diagnostics can render `program:line:col` locations with caret snippets.
pub fn parse_program_spanned(name: &str, source: &str) -> Result<(Program, SourceMap), ParseError> {
    let mut parser = Parser::new(source);
    let mut program = Program::new(name);
    let mut map = SourceMap {
        file: name.to_string(),
        source: source.to_string(),
        rules: Vec::new(),
        tables: Vec::new(),
    };
    loop {
        parser.skip_ws();
        if parser.at_end() {
            break;
        }
        if parser.peek_keyword("materialize") {
            let start = parser.pos;
            program.tables.push(parser.table_decl()?);
            map.tables.push(Span::new(start, parser.pos));
        } else {
            let (rule, spans) = parser.rule()?;
            program.rules.push(rule);
            map.rules.push(spans);
        }
    }
    Ok((program, map))
}

struct Parser<'a> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser {
            src,
            bytes: src.as_bytes(),
            pos: 0,
        }
    }

    fn err<T>(&self, msg: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            offset: self.pos,
            message: msg.into(),
        })
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        loop {
            while let Some(c) = self.peek() {
                if c.is_ascii_whitespace() {
                    self.pos += 1;
                } else {
                    break;
                }
            }
            // Line comments.
            if self.src[self.pos..].starts_with("//") {
                while let Some(c) = self.peek() {
                    self.pos += 1;
                    if c == b'\n' {
                        break;
                    }
                }
            } else {
                break;
            }
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        let rest = &self.src[self.pos..];
        rest.starts_with(kw)
            && rest[kw.len()..]
                .chars()
                .next()
                .map_or(true, |c| !c.is_alphanumeric() && c != '_')
    }

    fn expect(&mut self, token: &str) -> Result<(), ParseError> {
        self.skip_ws();
        if self.src[self.pos..].starts_with(token) {
            self.pos += token.len();
            Ok(())
        } else {
            self.err(format!(
                "expected '{token}', found '{}'",
                &self.src[self.pos..self.src.len().min(self.pos + 12)]
            ))
        }
    }

    fn try_consume(&mut self, token: &str) -> bool {
        self.skip_ws();
        if self.src[self.pos..].starts_with(token) {
            self.pos += token.len();
            true
        } else {
            false
        }
    }

    fn identifier(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || c == b'_' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return self.err("expected identifier");
        }
        Ok(self.src[start..self.pos].to_string())
    }

    fn number(&mut self) -> Result<i64, ParseError> {
        self.skip_ws();
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start || (self.pos == start + 1 && self.bytes[start] == b'-') {
            return self.err("expected number");
        }
        self.src[start..self.pos].parse().map_err(|e| ParseError {
            offset: start,
            message: format!("invalid number: {e}"),
        })
    }

    /// A table's arity or one of its key positions: a number from 0 to
    /// [`MAX_ARITY`].  A negative or larger one is refused here, before the
    /// analyzer sizes a schema by it.
    fn column_count(&mut self, what: &str) -> Result<usize, ParseError> {
        self.skip_ws();
        let offset = self.pos;
        let n = self.number()?;
        usize::try_from(n)
            .ok()
            .filter(|&n| n <= MAX_ARITY)
            .ok_or_else(|| ParseError {
                offset,
                message: format!("{what} must be from 0 to {MAX_ARITY}, found {n}"),
            })
    }

    fn string_literal(&mut self) -> Result<String, ParseError> {
        self.expect("\"")?;
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == b'"' {
                let s = self.src[start..self.pos].to_string();
                self.pos += 1;
                return Ok(s);
            }
            self.pos += 1;
        }
        self.err("unterminated string literal")
    }

    fn is_variable(name: &str) -> bool {
        name.chars().next().is_some_and(|c| c.is_ascii_uppercase())
    }

    fn table_decl(&mut self) -> Result<TableDecl, ParseError> {
        self.expect("materialize")?;
        self.expect("(")?;
        let relation = self.identifier()?;
        self.expect(",")?;
        let arity = self.column_count("arity")?;
        self.expect(",")?;
        self.expect("keys")?;
        self.expect("(")?;
        let mut keys = Vec::new();
        loop {
            keys.push(self.column_count("key position")?);
            if !self.try_consume(",") {
                break;
            }
        }
        self.expect(")")?;
        self.expect(")")?;
        self.expect(".")?;
        Ok(TableDecl {
            relation: Symbol::intern(&relation),
            arity,
            keys,
        })
    }

    fn rule(&mut self) -> Result<(Rule, RuleSpans), ParseError> {
        self.skip_ws();
        let start = self.pos;
        let label = self.identifier()?;
        let label_span = Span::new(start, self.pos);
        let (head, head_span, head_args) = self.head()?;
        self.expect(":-")?;
        let mut body = Vec::new();
        let mut body_spans = Vec::new();
        loop {
            self.skip_ws();
            let item_start = self.pos;
            body.push(self.body_item()?);
            body_spans.push(Span::new(item_start, self.pos));
            if !self.try_consume(",") {
                break;
            }
        }
        self.expect(".")?;
        let rule = Rule {
            label: Symbol::intern(&label),
            head,
            body,
        };
        let spans = RuleSpans {
            full: Span::new(start, self.pos),
            label: label_span,
            head: head_span,
            head_args,
            body: body_spans,
        };
        Ok((rule, spans))
    }

    fn head(&mut self) -> Result<(RuleHead, Span, Vec<Span>), ParseError> {
        self.skip_ws();
        let start = self.pos;
        let relation = self.identifier()?;
        self.expect("(")?;
        self.expect("@")?;
        let location = self.term()?;
        let mut args = Vec::new();
        let mut arg_spans = Vec::new();
        while self.try_consume(",") {
            self.skip_ws();
            let arg_start = self.pos;
            args.push(self.head_arg()?);
            arg_spans.push(Span::new(arg_start, self.pos));
        }
        self.expect(")")?;
        let head = RuleHead {
            relation: Symbol::intern(&relation),
            location,
            args,
        };
        Ok((head, Span::new(start, self.pos), arg_spans))
    }

    fn head_arg(&mut self) -> Result<HeadArg, ParseError> {
        self.skip_ws();
        // Aggregate?  min<C> / max<C> / count<*>
        for (kw, func) in [
            ("min", AggFunc::Min),
            ("max", AggFunc::Max),
            ("count", AggFunc::Count),
            ("MIN", AggFunc::Min),
            ("MAX", AggFunc::Max),
            ("COUNT", AggFunc::Count),
        ] {
            if self.peek_keyword(kw) {
                let save = self.pos;
                self.pos += kw.len();
                if self.try_consume("<") {
                    let var = if self.try_consume("*") {
                        None
                    } else {
                        Some(Symbol::intern(&self.identifier()?))
                    };
                    self.expect(">")?;
                    return Ok(HeadArg::Aggregate(func, var));
                }
                self.pos = save;
            }
        }
        let e = self.expr()?;
        Ok(match e {
            Expr::Term(t) => HeadArg::Term(t),
            other => HeadArg::Expr(other),
        })
    }

    fn body_item(&mut self) -> Result<BodyItem, ParseError> {
        self.skip_ws();
        let save = self.pos;
        // Try an atom: ident '(' '@' ...
        if let Ok(ident) = self.identifier() {
            if !Self::is_variable(&ident) && self.try_consume("(") && self.try_consume("@") {
                let location = self.term()?;
                let mut args = Vec::new();
                while self.try_consume(",") {
                    args.push(self.term()?);
                }
                self.expect(")")?;
                return Ok(BodyItem::Atom(Atom {
                    relation: Symbol::intern(&ident),
                    location,
                    args,
                }));
            }
        }
        self.pos = save;
        // Otherwise: assignment (Var = expr, where Var is currently unbound —
        // syntactically we accept Var = expr and distinguish `==` from `=`)
        // or a constraint expr CMP expr.
        let lhs = self.expr()?;
        self.skip_ws();
        let ops = [
            ("==", CmpOp::Eq),
            ("!=", CmpOp::Ne),
            ("<=", CmpOp::Le),
            (">=", CmpOp::Ge),
            ("<", CmpOp::Lt),
            (">", CmpOp::Gt),
        ];
        for (tok, op) in ops {
            if self.try_consume(tok) {
                let rhs = self.expr()?;
                return Ok(BodyItem::Constraint(op, lhs, rhs));
            }
        }
        if self.try_consume(":=") || self.try_consume("=") {
            let rhs = self.expr()?;
            return match lhs {
                Expr::Term(Term::Var(v)) => Ok(BodyItem::Assign(v, rhs)),
                // `f(X) = value` is a constraint in the paper's style
                // (e.g. `f_inPath(P2,S) = false`): treat as equality.
                other => Ok(BodyItem::Constraint(CmpOp::Eq, other, rhs)),
            };
        }
        self.err("expected atom, assignment or constraint")
    }

    fn term(&mut self) -> Result<Term, ParseError> {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Ok(Term::Const(Value::from(self.string_literal()?))),
            Some(c) if c.is_ascii_digit() || c == b'-' => {
                Ok(Term::Const(Value::Int(self.number()?)))
            }
            _ => {
                let ident = self.identifier()?;
                if Self::is_variable(&ident) {
                    Ok(Term::Var(Symbol::intern(&ident)))
                } else if ident == "true" {
                    Ok(Term::Const(Value::Bool(true)))
                } else if ident == "false" {
                    Ok(Term::Const(Value::Bool(false)))
                } else if ident == "null" {
                    Ok(Term::Const(Value::Digest([0u8; 20])))
                } else {
                    // Lowercase bare identifier: a symbolic constant (string).
                    Ok(Term::Const(Value::from(ident)))
                }
            }
        }
    }

    fn expr(&mut self) -> Result<Expr, ParseError> {
        // expr := factor (('+'|'-') factor)*
        let mut lhs = self.expr_factor()?;
        loop {
            self.skip_ws();
            // Careful not to swallow the ":-" of a following rule; '-' is only
            // an operator when not followed by a digit-starting negative
            // literal already consumed by `number`.
            if self.try_consume("+") {
                let rhs = self.expr_factor()?;
                lhs = Expr::Arith(ArithOp::Add, Box::new(lhs), Box::new(rhs));
            } else if self.peek() == Some(b'-') && !self.src[self.pos..].starts_with("->") {
                self.pos += 1;
                let rhs = self.expr_factor()?;
                lhs = Expr::Arith(ArithOp::Sub, Box::new(lhs), Box::new(rhs));
            } else {
                break;
            }
        }
        Ok(lhs)
    }

    fn expr_factor(&mut self) -> Result<Expr, ParseError> {
        let mut lhs = self.expr_atom()?;
        loop {
            if self.try_consume("*") {
                let rhs = self.expr_atom()?;
                lhs = Expr::Arith(ArithOp::Mul, Box::new(lhs), Box::new(rhs));
            } else if self.try_consume("/") {
                let rhs = self.expr_atom()?;
                lhs = Expr::Arith(ArithOp::Div, Box::new(lhs), Box::new(rhs));
            } else {
                break;
            }
        }
        Ok(lhs)
    }

    fn expr_atom(&mut self) -> Result<Expr, ParseError> {
        self.skip_ws();
        if self.try_consume("(") {
            let e = self.expr()?;
            self.expect(")")?;
            return Ok(e);
        }
        match self.peek() {
            Some(b'"') => Ok(Expr::Term(Term::Const(Value::from(self.string_literal()?)))),
            Some(c) if c.is_ascii_digit() => {
                Ok(Expr::Term(Term::Const(Value::Int(self.number()?))))
            }
            _ => {
                let save = self.pos;
                let ident = self.identifier()?;
                // Function call?
                if !Self::is_variable(&ident) && self.try_consume("(") {
                    let mut args = Vec::new();
                    if !self.try_consume(")") {
                        loop {
                            args.push(self.expr()?);
                            if !self.try_consume(",") {
                                break;
                            }
                        }
                        self.expect(")")?;
                    }
                    return Ok(Expr::Call(Symbol::intern(&ident), args));
                }
                self.pos = save;
                let t = self.term()?;
                Ok(Expr::Term(t))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_mincost_from_paper() {
        let src = r#"
            // Figure 1: the MINCOST program.
            sp1 pathCost(@S,D,C) :- link(@S,D,C).
            sp2 pathCost(@S,D,C1+C2) :- link(@Z,S,C1), bestPathCost(@Z,D,C2).
            sp3 bestPathCost(@S,D,min<C>) :- pathCost(@S,D,C).
        "#;
        let p = parse_program("MINCOST", src).unwrap();
        assert_eq!(p.rules.len(), 3);
        assert_eq!(p.rules[0].label, "sp1");
        assert_eq!(p.rules[1].head.relation, "pathCost");
        // sp2's head third argument is the expression C1+C2.
        assert!(matches!(p.rules[1].head.args[1], HeadArg::Expr(_)));
        // sp3 carries a min aggregate.
        assert!(p.rules[2].is_aggregate());
        let (f, v, _) = p.rules[2].head.aggregate().unwrap();
        assert_eq!(f, AggFunc::Min);
        assert_eq!(v.map(Symbol::as_str), Some("C"));
    }

    #[test]
    fn parses_packet_forward_event_rule() {
        let src = r#"
            f1 ePacket(@Next,Src,Dst,Payload) :- ePacket(@N,Src,Dst,Payload),
               bestHop(@N,Dst,Next).
        "#;
        let p = parse_program("PACKETFORWARD", src).unwrap();
        assert_eq!(p.rules.len(), 1);
        let r = &p.rules[0];
        assert_eq!(r.head.relation, "ePacket");
        assert_eq!(r.body_atoms().count(), 2);
        assert_eq!(r.head.location, Term::var("Next"));
    }

    #[test]
    fn parses_materialize_declaration() {
        let src = r#"
            materialize(bestPathCost, 3, keys(0,1)).
            sp1 pathCost(@S,D,C) :- link(@S,D,C).
        "#;
        let p = parse_program("t", src).unwrap();
        assert_eq!(p.tables.len(), 1);
        assert_eq!(p.tables[0].relation, "bestPathCost");
        assert_eq!(p.tables[0].arity, 3);
        assert_eq!(p.tables[0].keys, vec![0, 1]);
    }

    #[test]
    fn parses_assignments_constraints_and_calls() {
        let src = r#"
            r20 ePathCostTemp(@RLoc,S,D,C,RID,R,List) :- link(@Z,S,C1),
                bestPathCost(@Z,D,C2), C=C1+C2, Z!=Y,
                RLoc=Z, R="sp2", PID1=f_sha1("link",Z,S,C1),
                PID2=f_sha1("bestPathCost",Z,D,C2),
                List=f_append(PID1,PID2), RID=f_sha1(R,RLoc,List).
        "#;
        let p = parse_program("rewritten", src).unwrap();
        let r = &p.rules[0];
        assert_eq!(r.body_atoms().count(), 2);
        let assigns = r
            .body
            .iter()
            .filter(|b| matches!(b, BodyItem::Assign(_, _)))
            .count();
        assert_eq!(assigns, 7);
        let constraints = r
            .body
            .iter()
            .filter(|b| matches!(b, BodyItem::Constraint(_, _, _)))
            .count();
        assert_eq!(constraints, 1);
        // The f_sha1 call parsed as a Call expression.
        assert!(r.body.iter().any(|b| matches!(
            b,
            BodyItem::Assign(v, Expr::Call(f, args)) if v == "PID1" && f == "f_sha1" && args.len() == 4
        )));
    }

    #[test]
    fn parses_function_equality_constraint() {
        let src = r#"
            pv2 path(@S,D,P,C) :- link(@S,Z,C1), bestPath(@Z,D,P2,C2),
                C=C1+C2, f_inPath(P2,S)==false, P=f_prepend(S,P2).
        "#;
        let p = parse_program("pv", src).unwrap();
        let r = &p.rules[0];
        assert!(r.body.iter().any(|b| matches!(
            b,
            BodyItem::Constraint(CmpOp::Eq, Expr::Call(f, _), Expr::Term(Term::Const(Value::Bool(false)))) if f == "f_inPath"
        )));
    }

    #[test]
    fn symbolic_constants_strings_numbers() {
        let src = r#"r1 out(@X,Y) :- in(@X,Y), Y!=5, X!="hello", Y!=abc."#;
        let p = parse_program("t", src).unwrap();
        let constraint_rhs: Vec<_> = p.rules[0]
            .body
            .iter()
            .filter_map(|b| match b {
                BodyItem::Constraint(_, _, Expr::Term(Term::Const(c))) => Some(c.clone()),
                _ => None,
            })
            .collect();
        assert!(constraint_rhs.contains(&Value::Int(5)));
        assert!(constraint_rhs.contains(&Value::Str("hello".into())));
        assert!(constraint_rhs.contains(&Value::Str("abc".into())));
    }

    #[test]
    fn operator_precedence() {
        let src = r#"r1 out(@X,V) :- in(@X,A,B,C), V=A+B*C."#;
        let p = parse_program("t", src).unwrap();
        let assign = p.rules[0]
            .body
            .iter()
            .find_map(|b| match b {
                BodyItem::Assign(v, e) if v == "V" => Some(e.clone()),
                _ => None,
            })
            .unwrap();
        // Should parse as A + (B*C).
        assert!(matches!(
            assign,
            Expr::Arith(ArithOp::Add, _, ref rhs) if matches!(**rhs, Expr::Arith(ArithOp::Mul, _, _))
        ));
    }

    #[test]
    fn count_star_aggregate() {
        let src = r#"c0 numChild(@X,VID,count<*>) :- prov(@X,VID,RID,RLoc)."#;
        let p = parse_program("q", src).unwrap();
        let (f, v, idx) = p.rules[0].head.aggregate().unwrap();
        assert_eq!(f, AggFunc::Count);
        assert_eq!(v, None);
        assert_eq!(idx, 1);
    }

    #[test]
    fn reports_errors_with_offsets() {
        let err = parse_program("bad", "r1 foo(@X :- bar(@X).").unwrap_err();
        assert!(err.to_string().contains("parse error"));
        assert!(parse_program("bad", "r1 foo(@X,Y) :- bar(@X,Y)").is_err()); // missing dot
        assert!(parse_program("bad", "r1 foo(@X,Y) bar(@X,Y).").is_err()); // missing :-
        assert!(parse_program("bad", r#"r1 foo(@X) :- bar(@X), Y="unterminated."#).is_err());
    }

    #[test]
    fn source_map_records_rule_and_body_spans() {
        let src = "materialize(link, 3, keys(0,1)).\n\
                   sp1 pathCost(@S,D,C) :- link(@S,D,C), C<10.\n";
        let (p, map) = parse_program_spanned("MINCOST", src).unwrap();
        assert_eq!(map.tables.len(), p.tables.len());
        assert_eq!(map.rules.len(), p.rules.len());
        let r = &map.rules[0];
        assert_eq!(&src[r.label.start..r.label.end], "sp1");
        assert_eq!(&src[r.head.start..r.head.end], "pathCost(@S,D,C)");
        assert_eq!(r.body.len(), 2);
        assert_eq!(&src[r.body[0].start..r.body[0].end], "link(@S,D,C)");
        assert_eq!(&src[r.body[1].start..r.body[1].end], "C<10");
        assert_eq!(r.head_args.len(), 2);
        assert_eq!(&src[r.head_args[1].start..r.head_args[1].end], "C");
        // The rule span starts on line 2.
        assert_eq!(map.line_col(r.full.start), (2, 1));
        // Out-of-range body lookups (normalization appendices) fall back to
        // the head span.
        assert_eq!(map.body_item(0, 7), Some(r.head));
        assert_eq!(map.head_arg(0, 9), Some(r.head));
    }

    #[test]
    fn round_trip_display_reparse() {
        let src = r#"
            sp1 pathCost(@S,D,C) :- link(@S,D,C).
            sp3 bestPathCost(@S,D,min<C>) :- pathCost(@S,D,C), C<100, D!=S.
        "#;
        let p = parse_program("t", src).unwrap();
        let printed = p.to_string();
        let reparsed = parse_program("t", &printed).unwrap();
        assert_eq!(p.rules, reparsed.rules);
    }
}
