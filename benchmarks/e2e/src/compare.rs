//! `exspan-e2e compare A.json B.json`: is B worse than A?  Applies each
//! end-to-end metric's bound per workload, requires the exact per-layer
//! counts to be equal, and says `unresolved` rather than `worse` when the
//! runs themselves were too noisy to tell.

use crate::json::{self, JsonValue};
use crate::spec::{Better, END_TO_END, EXACT};

/// More than this many milliseconds of run-queue wait summed over a run's
/// children means the host was busy with something else.
const NOISY_CPU_WAIT_MS: f64 = 2_000.0;
/// The two sides' `harness.host_factor` further apart than this share: the
/// host ran at speeds so different that dividing by the factor (which
/// corrects most of it, not all) may not have been enough.
const HOST_SPEED_DRIFT: f64 = 0.2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    /// Worse by more than the bound, but the spread of either side (or the
    /// CPU wait) says the host was too noisy for the difference to count.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `a` is the reference; `spread` is the larger run-to-run spread of the
/// two sides, as a share of the median.
pub fn judge(better: Better, bound: f64, a: f64, b: f64, spread: f64, noisy: bool) -> Verdict {
    let worse_by = match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    };
    if worse_by <= bound {
        Verdict::Ok
    } else if noisy || spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Worse
    }
}

fn workload<'a>(doc: &'a JsonValue, name: &str) -> Option<&'a JsonValue> {
    json::field(json::field(doc, "workloads").ok()?, name).ok()
}

/// `doc.workloads[workload][group][name][key]` as a number, if all there.
fn number(doc: &JsonValue, workload_name: &str, group: &str, name: &str, key: &str) -> Option<f64> {
    let metric = json::field(
        json::field(workload(doc, workload_name)?, group).ok()?,
        name,
    )
    .ok()?;
    json::as_f64(json::field(metric, key).ok()?).ok()
}

/// Prints one row per metric × workload; returns how many rows are `worse`.
pub fn compare(a: &JsonValue, b: &JsonValue) -> Result<usize, String> {
    let mut worse = 0;
    println!(
        "{:<16} {:<30} {:>16} {:>16} {:>8}  verdict",
        "workload", "metric", "A", "B", "change"
    );
    for name in json::as_object(json::field(a, "workloads")?)?.keys() {
        if workload(b, name).is_none() {
            println!("{name:<16} (absent from B)");
            continue;
        }
        let both = |group: &str, metric: &str, key: &str| {
            number(a, name, group, metric, key).zip(number(b, name, group, metric, key))
        };
        let noisy = both("per_layer", "harness.cpu_wait_ms", "value")
            .is_some_and(|(wa, wb)| wa.max(wb) > NOISY_CPU_WAIT_MS)
            || both("per_layer", "harness.host_factor", "value")
                .is_some_and(|(sa, sb)| (sa - sb).abs() > HOST_SPEED_DRIFT * sa.min(sb));
        for m in &END_TO_END {
            let Some((va, vb)) = both("end_to_end", m.name, "value") else {
                continue;
            };
            let spread = both("end_to_end", m.name, "spread").map_or(0.0, |(sa, sb)| sa.max(sb));
            let verdict = judge(m.better, m.bound, va, vb, spread, noisy);
            worse += usize::from(verdict == Verdict::Worse);
            println!(
                "{name:<16} {:<30} {va:>16.4} {vb:>16.4} {:>+7.1}%  {}",
                m.name,
                (vb - va) / va * 100.0,
                verdict.as_str()
            );
        }
        for exact in EXACT {
            let Some((va, vb)) = both("per_layer", exact, "value") else {
                continue;
            };
            let verdict = if va == vb {
                Verdict::Ok
            } else {
                Verdict::Worse
            };
            worse += usize::from(verdict == Verdict::Worse);
            println!(
                "{name:<16} {exact:<30} {va:>16} {vb:>16} {:>8}  {}",
                if va == vb { "equal" } else { "DIFFERS" },
                verdict.as_str()
            );
        }
    }
    Ok(worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        use Better::{Higher, Lower};
        // Within the bound, either direction.
        assert_eq!(judge(Lower, 0.10, 100.0, 109.0, 0.0, false), Verdict::Ok);
        assert_eq!(judge(Higher, 0.10, 100.0, 91.0, 0.0, false), Verdict::Ok);
        // Better is never worse.
        assert_eq!(judge(Lower, 0.10, 100.0, 50.0, 0.0, false), Verdict::Ok);
        assert_eq!(judge(Higher, 0.10, 100.0, 500.0, 0.0, false), Verdict::Ok);
        // Past the bound on a quiet host.
        assert_eq!(
            judge(Lower, 0.10, 100.0, 111.0, 0.02, false),
            Verdict::Worse
        );
        assert_eq!(
            judge(Higher, 0.10, 100.0, 89.0, 0.02, false),
            Verdict::Worse
        );
        // Past the bound, but the runs' own spread exceeds it, or the host
        // was busy: no verdict.
        assert_eq!(
            judge(Lower, 0.10, 100.0, 130.0, 0.15, false),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(Lower, 0.10, 100.0, 130.0, 0.0, true),
            Verdict::Unresolved
        );
    }

    #[test]
    fn compare_counts_worse_rows_and_requires_exact_counts_equal() {
        let doc = |ops: f64, steps: f64| {
            json::parse(&format!(
                r#"{{"workloads":{{"converge-ref":{{
                    "end_to_end":{{"ops_per_s":{{"value":{ops},"unit":"1/s","n":3,"spread":0.01}}}},
                    "per_layer":{{"runtime.steps":{{"value":{steps},"unit":"count"}}}}}}}}}}"#
            ))
            .unwrap()
        };
        assert_eq!(compare(&doc(1000.0, 5.0), &doc(990.0, 5.0)), Ok(0));
        assert_eq!(compare(&doc(1000.0, 5.0), &doc(700.0, 5.0)), Ok(1));
        assert_eq!(compare(&doc(1000.0, 5.0), &doc(1000.0, 6.0)), Ok(1));
    }
}
