//! What one child process (one measured phase) tells the harness on its
//! standard output: one tab-separated `span` line per recorded span, then
//! the report as one line of JSON.  Spans do not travel as JSON because the
//! vendored `serde_json` shim re-validates the whole remaining input for
//! every string character it reads: a traced `serve-query` child's 56,000
//! spans took it minutes to parse.

use crate::json::{self, JsonValue, Obj};
use crate::trace::Span;
use std::collections::BTreeMap;

#[derive(Debug, Default, Clone, PartialEq)]
pub struct ChildReport {
    /// Scalars: `bytes_per_op`, `peak_rss_mb` and per-layer values under
    /// their final names.
    pub values: BTreeMap<String, f64>,
    /// Timing samples, already divided by the host factor around them
    /// (`setup_s`, `ops_per_s`, `lat_ms`); the harness pools them across the
    /// run's children before it takes a quartile.
    pub pools: BTreeMap<String, Vec<f64>>,
    /// Exact facts that must agree between children of one run (state
    /// digest, step and byte counts).
    pub facts: BTreeMap<String, String>,
    /// Operations attempted and failed; a failed correctness check counts.
    pub attempted: u64,
    pub failed: u64,
    /// One line per failure, for the human.
    pub errors: Vec<String>,
    pub spans: Vec<Span>,
}

impl ChildReport {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn sample(&mut self, pool: &str, value: f64) {
        self.pools.entry(pool.to_string()).or_default().push(value);
    }

    pub fn fact(&mut self, name: &str, value: impl ToString) {
        self.facts.insert(name.to_string(), value.to_string());
    }

    /// Counts one correctness check; records `what` when it does not hold.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(what());
            }
        }
    }

    pub fn to_json(&self) -> JsonValue {
        let map_nums = |m: &BTreeMap<String, f64>| {
            JsonValue::Object(
                m.iter()
                    .map(|(k, v)| (k.clone(), JsonValue::Number(*v)))
                    .collect(),
            )
        };
        Obj::new()
            .val("values", map_nums(&self.values))
            .val(
                "pools",
                JsonValue::Object(
                    self.pools
                        .iter()
                        .map(|(k, v)| (k.clone(), json::nums(v)))
                        .collect(),
                ),
            )
            .val(
                "facts",
                JsonValue::Object(
                    self.facts
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::String(v.clone())))
                        .collect(),
                ),
            )
            .num("attempted", self.attempted as f64)
            .num("failed", self.failed as f64)
            .val("errors", json::strs(&self.errors))
            .build()
    }

    /// Everything the child prints: span lines, then the report line.
    pub fn to_stdout(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "span\t{}\t{}\t{}\t{}\t{}\n",
                s.id, s.parent, s.start_ns, s.end_ns, s.name
            ));
        }
        out.push_str(&json::compact(&self.to_json()));
        out.push('\n');
        out
    }

    /// Parses what [`ChildReport::to_stdout`] printed.
    pub fn from_stdout(text: &str) -> Result<ChildReport, String> {
        let mut spans = Vec::new();
        let mut last = None;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            match line.strip_prefix("span\t") {
                Some(rest) => spans.push(parse_span(rest)?),
                None => last = Some(line),
            }
        }
        let mut report = ChildReport::from_json(&json::parse(last.ok_or("printed nothing")?)?)?;
        report.spans = spans;
        Ok(report)
    }

    pub fn from_json(v: &JsonValue) -> Result<ChildReport, String> {
        let mut out = ChildReport::default();
        for (k, x) in json::as_object(json::field(v, "values")?)? {
            out.values.insert(k.clone(), json::as_f64(x)?);
        }
        for (k, x) in json::as_object(json::field(v, "pools")?)? {
            let pool = json::as_array(x)?
                .iter()
                .map(json::as_f64)
                .collect::<Result<_, _>>()?;
            out.pools.insert(k.clone(), pool);
        }
        for (k, x) in json::as_object(json::field(v, "facts")?)? {
            out.facts.insert(k.clone(), json::as_str(x)?.to_string());
        }
        out.attempted = json::as_f64(json::field(v, "attempted")?)? as u64;
        out.failed = json::as_f64(json::field(v, "failed")?)? as u64;
        for e in json::as_array(json::field(v, "errors")?)? {
            out.errors.push(json::as_str(e)?.to_string());
        }
        Ok(out)
    }
}

fn parse_span(fields: &str) -> Result<Span, String> {
    let mut it = fields.splitn(5, '\t');
    let mut num = || {
        it.next()
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or(format!("malformed span line {fields:?}"))
    };
    let (id, parent, start_ns, end_ns) = (num()?, num()?, num()?, num()?);
    Ok(Span {
        id,
        parent,
        start_ns,
        end_ns,
        name: it.next().ok_or("span line without a name")?.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_and_counts_failed_checks() {
        let mut r = ChildReport::default();
        r.set("ops_per_s", 1234.5);
        r.pools.insert("lat_ms".into(), vec![1.0, 2.0]);
        r.fact("digest", "abc");
        r.check(true, || unreachable!());
        r.check(false, || "bestPathCost(@1,2) = 3, oracle says 2".into());
        r.spans.push(Span {
            id: 1,
            parent: 0,
            name: "core.build".into(),
            start_ns: 5,
            end_ns: 9,
        });
        assert_eq!((r.attempted, r.failed), (2, 1));
        assert_eq!(ChildReport::from_stdout(&r.to_stdout()).unwrap(), r);
        assert!(ChildReport::from_stdout("span\t1\t0\tx\n{}").is_err());
    }
}
