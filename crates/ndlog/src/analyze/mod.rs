//! Static analysis of NDlog programs: everything that can be checked at
//! load time, before a program reaches the provenance rewrite or the
//! distributed engine.
//!
//! [`analyze`] runs four passes over the shared [`Diagnostics`]
//! infrastructure of [`crate::diag`], after the structural checks of
//! the `validate` module:
//!
//! 1. [`schema`] — per-column type inference and arity checking: every
//!    relation's column types are inferred from constants, arithmetic,
//!    built-in function signatures and location positions, then unified
//!    across all rules and [`crate::ast::TableDecl`]s.  Catches swapped
//!    columns, arity mismatches, unknown built-ins and impossible
//!    comparisons.
//! 2. [`safety`] — aggregate stratification and constraint satisfiability:
//!    recursion through an aggregate must be the sanctioned monotone
//!    pattern (`min`/`max` with a bounding constraint somewhere on every
//!    cycle, like MINCOST's `C < ∞` bound); constraints that can never hold
//!    are rejected.
//! 3. [`reachability`] — liveness warnings: relations never derivable from
//!    base tables or events, rules that can never fire, and declared tables
//!    no rule reads or writes.
//! 4. [`distribution`] — deployment-shape notes: rules that ship every
//!    derivation across the network into an aggregate group, plus a report
//!    of the join planner's ([`crate::plan`]) probes that no primary-key
//!    prefix serves and of the join levels with no probe key: both fall
//!    back to scans.
//!
//! Severities gate differently: [`Severity::Error`] fails
//! `Exspan::builder().build()`; [`Severity::Warning`] additionally fails
//! `ndlog-lint --deny-warnings`; [`Severity::Note`] is purely informational
//! and never fails anything.  The full code catalog is documented at the
//! crate root.

pub mod distribution;
pub mod reachability;
pub mod safety;
pub mod schema;

use crate::ast::Program;
use crate::diag::{Diagnostic, Diagnostics, Severity, SourceMap};
use crate::validate::validate_into;

pub use schema::{ColType, RelSchema, Schema};

/// The result of analyzing a program: all diagnostics (stably ordered) plus
/// the inferred relation schemas.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// Every finding, sorted errors-first (see [`Diagnostics::sort`]).
    pub diagnostics: Diagnostics,
    /// Inferred per-relation column types (index 0 is the location).
    pub schema: Schema,
}

impl Analysis {
    /// Whether any [`Severity::Error`] diagnostic was produced; such
    /// programs must not be deployed.
    pub fn has_errors(&self) -> bool {
        self.diagnostics.has_errors()
    }

    /// Error diagnostics only.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.of_severity(Severity::Error)
    }

    /// Warning diagnostics only.
    pub fn warnings(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.of_severity(Severity::Warning)
    }

    /// Note diagnostics only.
    pub fn notes(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics.of_severity(Severity::Note)
    }
}

/// Analyzes `program` without source spans (for programs built directly from
/// the AST).  Equivalent to [`analyze_with_source`]`(program, None)`.
pub fn analyze(program: &Program) -> Analysis {
    analyze_with_source(program, None)
}

/// Analyzes `program`, attaching source spans from `source` (as produced by
/// [`crate::parser::parse_program_spanned`]) so diagnostics render
/// `program:line:col` locations with caret snippets.
pub fn analyze_with_source(program: &Program, source: Option<&SourceMap>) -> Analysis {
    let mut out = Diagnostics::new();
    validate_into(program, source, &mut out);
    let schema = schema::infer(program, source, &mut out);
    safety::check(program, source, &mut out);
    reachability::check(program, source, &mut out);
    distribution::check(program, source, &mut out);
    out.sort();
    Analysis {
        diagnostics: out,
        schema,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program_spanned;
    use crate::programs;

    #[test]
    fn builtin_programs_analyze_without_errors_or_warnings() {
        for p in [
            programs::mincost(),
            programs::path_vector(),
            programs::packet_forward(),
        ] {
            let a = analyze(&p);
            assert!(
                !a.diagnostics.has_warnings(),
                "program {} produced errors/warnings:\n{}",
                p.name,
                a.diagnostics.render(None)
            );
        }
    }

    #[test]
    fn analysis_verdict_is_stable_under_normalization() {
        // The deployment path analyzes the program it was handed but executes
        // the normalized form: both must agree on acceptance.
        let (p, map) =
            parse_program_spanned("t", "r1 out(@S,C1+C2) :- a(@S,C1), b(@S,C2).\n").unwrap();
        assert!(!analyze_with_source(&p, Some(&map)).has_errors());
        assert!(!analyze(&p.normalize()).has_errors());
    }

    #[test]
    fn mincost_schema_is_inferred() {
        let a = analyze(&programs::mincost());
        let link = a.schema.get(&exspan_types::RelId::intern("link")).unwrap();
        assert_eq!(link.cols[0], ColType::Node);
        assert_eq!(link.cols[1], ColType::Node);
        assert_eq!(link.cols[2], ColType::Int);
        let best = a
            .schema
            .get(&exspan_types::RelId::intern("bestPathCost"))
            .unwrap();
        assert_eq!(best.cols, vec![ColType::Node, ColType::Node, ColType::Int]);
    }
}
