//! Span-carrying diagnostics shared by the validator, the static-analysis
//! passes of [`mod@crate::analyze`] and the `ndlog-lint` driver.
//!
//! A [`Diagnostic`] records a lint code (see the crate-level *Diagnostics
//! catalog*), a [`Severity`], the offending rule label and an optional byte
//! [`Span`] into the program source.  When the program was produced by
//! [`crate::parser::parse_program_spanned`], the accompanying [`SourceMap`]
//! turns spans into `program:line:col` locations with a caret snippet, in the
//! style of rustc:
//!
//! ```text
//! error[E001]: rule r1: atom bar(...) has arity 3 but table bar declares arity 2
//!   --> bad.ndl:2:18
//!    |
//!  2 | r1 out(@X,Y) :- bar(@X,Y,Z).
//!    |                 ^^^^^^^^^^^
//! ```
//!
//! Programs built directly from the AST (no source text) still get fully
//! descriptive diagnostics — only the location trailer is omitted.

use exspan_types::Symbol;
use std::fmt;

/// A half-open byte range `[start, end)` into a program's source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Span {
    /// Byte offset of the first byte covered.
    pub start: usize,
    /// Byte offset one past the last byte covered.
    pub end: usize,
}

impl Span {
    /// Creates a span covering `[start, end)`.
    pub fn new(start: usize, end: usize) -> Span {
        Span {
            start,
            end: end.max(start),
        }
    }

    /// A zero-width span at `offset`.
    pub fn point(offset: usize) -> Span {
        Span::new(offset, offset)
    }

    /// The smallest span covering both `self` and `other`.
    pub fn merge(self, other: Span) -> Span {
        Span::new(self.start.min(other.start), self.end.max(other.end))
    }
}

/// How serious a diagnostic is.
///
/// The ordering is by increasing severity (`Note < Warning < Error`), so the
/// maximum severity of a collection is meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational output (e.g. index-demand reports).  Never fails a
    /// build, even under `--deny-warnings`.
    Note,
    /// Suspicious but executable (e.g. a rule that can never fire).  Fails
    /// `ndlog-lint --deny-warnings` but not [`crate::analyze::analyze`]-gated
    /// builds.
    Warning,
    /// The program cannot execute faithfully; deployment builds fail.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Severity::Note => "note",
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        write!(f, "{s}")
    }
}

/// One finding of the validator or an analysis pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable lint code (`E…`/`W…`/`N…`), listed in the crate-level
    /// *Diagnostics catalog*.
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Label of the offending rule, if the finding is rule-scoped.
    pub rule: Option<Symbol>,
    /// Source span, when the program came from
    /// [`crate::parser::parse_program_spanned`].
    pub span: Option<Span>,
    /// Human-readable description of the problem.
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic without a span (attachable later via
    /// [`Diagnostic::with_span`]).
    pub fn new(
        code: &'static str,
        severity: Severity,
        rule: Option<Symbol>,
        message: impl Into<String>,
    ) -> Diagnostic {
        Diagnostic {
            code,
            severity,
            rule,
            span: None,
            message: message.into(),
        }
    }

    /// Attaches a source span (builder style).  `None` leaves the diagnostic
    /// unchanged, so call sites can pass through an optional lookup.
    pub fn with_span(mut self, span: Option<Span>) -> Diagnostic {
        if span.is_some() {
            self.span = span;
        }
        self
    }

    /// Renders the one-line header, e.g. `error[E001]: rule sp2: …`.
    fn header(&self) -> String {
        match self.rule {
            Some(r) => format!(
                "{}[{}]: rule {}: {}",
                self.severity, self.code, r, self.message
            ),
            None => format!("{}[{}]: {}", self.severity, self.code, self.message),
        }
    }

    /// Renders the diagnostic against an optional source map: the header
    /// plus, when a span and source are available, a `file:line:col` trailer
    /// and a caret snippet.
    pub fn render(&self, source: Option<&SourceMap>) -> String {
        let mut out = self.header();
        if let (Some(span), Some(map)) = (self.span, source) {
            let (line, col) = map.line_col(span.start);
            out.push_str(&format!("\n  --> {}:{line}:{col}", map.file));
            if let Some(snippet) = map.snippet(span) {
                out.push('\n');
                out.push_str(&snippet);
            }
        }
        out
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.header())
    }
}

impl std::error::Error for Diagnostic {}

/// An ordered collection of diagnostics with stable rendering order:
/// severity (errors first), then span start, then code, then message —
/// independent of the order the passes ran in.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Diagnostics {
    items: Vec<Diagnostic>,
}

impl Diagnostics {
    /// Creates an empty collection.
    pub fn new() -> Diagnostics {
        Diagnostics::default()
    }

    /// Adds a diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.items.push(d);
    }

    /// Number of diagnostics.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates in stable order (call [`Diagnostics::sort`] first if items
    /// were pushed out of order; `analyze` returns pre-sorted collections).
    pub fn iter(&self) -> impl Iterator<Item = &Diagnostic> {
        self.items.iter()
    }

    /// Whether any diagnostic is an [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.items.iter().any(|d| d.severity == Severity::Error)
    }

    /// Whether any diagnostic is a [`Severity::Warning`] or worse.
    pub fn has_warnings(&self) -> bool {
        self.items.iter().any(|d| d.severity >= Severity::Warning)
    }

    /// All diagnostics of exactly `severity`.
    pub fn of_severity(&self, severity: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.items.iter().filter(move |d| d.severity == severity)
    }

    /// Sorts into the stable rendering order: errors before warnings before
    /// notes; within a severity by span start (spanless last), then code,
    /// then rule, then message.
    pub fn sort(&mut self) {
        self.items.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| {
                    let ka = a.span.map_or(usize::MAX, |s| s.start);
                    let kb = b.span.map_or(usize::MAX, |s| s.start);
                    ka.cmp(&kb)
                })
                .then_with(|| a.code.cmp(b.code))
                .then_with(|| {
                    let ra = a.rule.map_or("", exspan_types::Symbol::as_str);
                    let rb = b.rule.map_or("", exspan_types::Symbol::as_str);
                    ra.cmp(rb)
                })
                .then_with(|| a.message.cmp(&b.message))
        });
    }

    /// Renders every diagnostic (one blank line between entries) against an
    /// optional source map.
    pub fn render(&self, source: Option<&SourceMap>) -> String {
        self.items
            .iter()
            .map(|d| d.render(source))
            .collect::<Vec<_>>()
            .join("\n\n")
    }
}

/// Source spans recorded by the parser for one rule, index-aligned with the
/// [`crate::ast::Rule`] it produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleSpans {
    /// The whole rule, label through final `.`.
    pub full: Span,
    /// The rule label.
    pub label: Span,
    /// The head (relation name through closing `)`).
    pub head: Span,
    /// One span per head argument (the location specifier excluded).
    pub head_args: Vec<Span>,
    /// One span per body item, in body order.  [`crate::ast::Program::normalize`]
    /// may append body items beyond this list; lookups past the end fall back
    /// to the head span (the appended assignments originate there).
    pub body: Vec<Span>,
}

/// Maps a parsed [`crate::ast::Program`] back to its source text.
///
/// `rules` and `tables` are index-aligned with `Program::rules` /
/// `Program::tables` as returned by the parser, so diagnostics can be keyed
/// by rule *index* (robust to duplicate labels).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SourceMap {
    /// Display name used in rendered locations (the program name).
    pub file: String,
    /// The full source text.
    pub source: String,
    /// Per-rule spans, in parse order.
    pub rules: Vec<RuleSpans>,
    /// Per-table-declaration spans, in parse order.
    pub tables: Vec<Span>,
}

impl SourceMap {
    /// 1-based `(line, col)` of a byte offset.  Columns count bytes (NDlog
    /// sources are ASCII in practice).
    pub fn line_col(&self, offset: usize) -> (usize, usize) {
        line_col_of(&self.source, offset)
    }

    /// Renders the source line containing `span.start` with a caret marker
    /// under the spanned bytes (clamped to that line), gutter included.
    pub fn snippet(&self, span: Span) -> Option<String> {
        let start = span.start.min(self.source.len());
        let line_start = self.source[..start].rfind('\n').map_or(0, |i| i + 1);
        let line_end = self.source[line_start..]
            .find('\n')
            .map_or(self.source.len(), |i| line_start + i);
        let line_text = &self.source[line_start..line_end];
        let (line_no, _) = self.line_col(start);
        let col = start - line_start;
        let width = (span.end.min(line_end)).saturating_sub(start).max(1);
        let gutter = line_no.to_string();
        let pad = " ".repeat(gutter.len());
        Some(format!(
            "{pad} |\n{gutter} | {line_text}\n{pad} | {}{}",
            " ".repeat(col),
            "^".repeat(width),
        ))
    }

    /// The spans of rule `idx`, if recorded.
    pub fn rule(&self, idx: usize) -> Option<&RuleSpans> {
        self.rules.get(idx)
    }

    /// Span of body item `item` of rule `idx`, falling back to the rule head
    /// (normalization appends head-expression assignments) and then to
    /// nothing.
    pub fn body_item(&self, idx: usize, item: usize) -> Option<Span> {
        let r = self.rules.get(idx)?;
        Some(r.body.get(item).copied().unwrap_or(r.head))
    }

    /// Span of head argument `arg` of rule `idx`, falling back to the head.
    pub fn head_arg(&self, idx: usize, arg: usize) -> Option<Span> {
        let r = self.rules.get(idx)?;
        Some(r.head_args.get(arg).copied().unwrap_or(r.head))
    }
}

/// 1-based `(line, col)` of a byte offset in `source` (col counts bytes).
pub fn line_col_of(source: &str, offset: usize) -> (usize, usize) {
    let offset = offset.min(source.len());
    let before = &source[..offset];
    let line = before.bytes().filter(|&b| b == b'\n').count() + 1;
    let col = offset - before.rfind('\n').map_or(0, |i| i + 1) + 1;
    (line, col)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(src: &str) -> SourceMap {
        SourceMap {
            file: "test".into(),
            source: src.into(),
            rules: Vec::new(),
            tables: Vec::new(),
        }
    }

    #[test]
    fn line_col_counts_from_one() {
        let src = "abc\ndef\n";
        assert_eq!(line_col_of(src, 0), (1, 1));
        assert_eq!(line_col_of(src, 2), (1, 3));
        assert_eq!(line_col_of(src, 4), (2, 1));
        assert_eq!(line_col_of(src, 6), (2, 3));
        // Past-the-end offsets clamp.
        assert_eq!(line_col_of(src, 99), (3, 1));
    }

    #[test]
    fn snippet_renders_caret_under_span() {
        let m = map("r1 out(@X) :- a(@X).\nr2 bad(@Y) :- b(@Y).\n");
        let span = Span::new(24, 27); // "bad" on line 2
        let s = m.snippet(span).unwrap();
        assert!(s.contains("2 | r2 bad(@Y) :- b(@Y)."), "snippet: {s}");
        assert!(s.contains("   ^^^"), "snippet: {s}");
    }

    #[test]
    fn diagnostics_sort_is_stable_and_severity_first() {
        let mut d = Diagnostics::new();
        d.push(
            Diagnostic::new("W101", Severity::Warning, None, "later")
                .with_span(Some(Span::new(5, 6))),
        );
        d.push(
            Diagnostic::new("E001", Severity::Error, None, "early")
                .with_span(Some(Span::new(50, 51))),
        );
        d.push(Diagnostic::new("N201", Severity::Note, None, "note"));
        d.sort();
        let codes: Vec<_> = d.iter().map(|x| x.code).collect();
        assert_eq!(codes, vec!["E001", "W101", "N201"]);
        assert!(d.has_errors());
        assert!(d.has_warnings());
    }

    #[test]
    fn render_includes_location_when_mapped() {
        let m = map("r1 out(@X,Z) :- a(@X,Y).\n");
        let d = Diagnostic::new(
            "E003",
            Severity::Error,
            Some(Symbol::intern("r1")),
            "head variable Z is not bound by the body",
        )
        .with_span(Some(Span::new(10, 11)));
        let rendered = d.render(Some(&m));
        assert!(rendered.contains("error[E003]: rule r1:"), "{rendered}");
        assert!(rendered.contains("--> test:1:11"), "{rendered}");
        assert!(rendered.contains('^'), "{rendered}");
        // Without a map, only the header renders.
        assert_eq!(d.render(None), d.to_string());
    }

    #[test]
    fn span_merge_and_point() {
        let a = Span::new(3, 7);
        let b = Span::new(5, 12);
        assert_eq!(a.merge(b), Span::new(3, 12));
        assert_eq!(Span::point(4), Span::new(4, 4));
        // Inverted construction clamps rather than panics.
        assert_eq!(Span::new(9, 2), Span::new(9, 9));
    }
}
