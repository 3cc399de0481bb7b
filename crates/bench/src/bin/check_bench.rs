//! The byte-identity gate over the machine-readable figure records.
//!
//! ```text
//! check_bench <dir-a> <dir-b>
//! ```
//!
//! Compares two directories of `BENCH_*.json` files — a fresh `figures` run
//! against the committed `benchmarks/baseline`, or a sharded run against a
//! sequential one — and fails (exit 1) if
//!
//! * the two are **not identical** once wall-clock time and shard count are
//!   set aside: a figure or series present on one side only, or any series
//!   statistic that is not bit-equal, or
//! * the **value ≥ reference ≥ none provenance-mode ordering of the paper
//!   inverts** on any bandwidth figure of `<dir-a>`, or
//! * Figure 18's **dictionary codec stops paying for itself** in `<dir-a>`:
//!   the compressed mean exceeds the flat mean on any program, or the
//!   MINCOST / PATHVECTOR savings fall below 25%.
//!
//! The series statistics are functions of the *simulated* protocol run, which
//! is deterministic at every shard count, so nothing here depends on the
//! runner.  Timing is not this tool's business:
//! `benchmarks/e2e` measures it.

use exspan_bench::BenchReport;
use std::collections::BTreeMap;

/// Figures on which the paper's provenance-mode ordering must hold.
/// Figure 18 deliberately stays out of this list: it charts one provenance
/// mode under two wire accountings, so the mode-ordering labels don't exist
/// there — it has its own gate ([`check_compression`]) instead.
const ORDERED_FIGURES: &[&str] = &["fig6", "fig7", "fig8", "fig9", "fig10", "fig16"];
const VALUE_LABEL: &str = "Value-based Prov. (BDD)";
const REF_LABEL: &str = "Ref-based Prov.";
const NONE_LABEL: &str = "No Prov.";

fn load_dir(dir: &str) -> BTreeMap<String, BenchReport> {
    let mut out = BTreeMap::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("check_bench: cannot read {dir}: {e}");
            std::process::exit(2);
        }
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name().to_string_lossy().to_string();
        if !name.starts_with("BENCH_") || !name.ends_with(".json") {
            continue;
        }
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("check_bench: cannot read {}: {e}", path.display());
                std::process::exit(2);
            }
        };
        match serde_json::from_str::<BenchReport>(&text) {
            Ok(report) => {
                out.insert(report.figure.clone(), report);
            }
            Err(e) => {
                eprintln!("check_bench: cannot parse {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }
    if out.is_empty() {
        eprintln!("check_bench: no BENCH_*.json files in {dir}");
        std::process::exit(2);
    }
    out
}

fn check_ordering(fresh: &BTreeMap<String, BenchReport>) -> Vec<String> {
    let mut failures = Vec::new();
    for figure in ORDERED_FIGURES {
        let Some(report) = fresh.get(*figure) else {
            continue;
        };
        let (Some(value), Some(reference), Some(none)) = (
            report.series(VALUE_LABEL),
            report.series(REF_LABEL),
            report.series(NONE_LABEL),
        ) else {
            continue;
        };
        if value.mean < reference.mean {
            failures.push(format!(
                "{figure}: value-based mean {} fell below reference-based mean {} — the paper's \
                 ordering inverted",
                value.mean, reference.mean
            ));
        }
        if reference.mean < none.mean {
            failures.push(format!(
                "{figure}: reference-based mean {} fell below no-provenance mean {} — the paper's \
                 ordering inverted",
                reference.mean, none.mean
            ));
        }
    }
    failures
}

/// The figure gated by [`check_compression`] and the per-program floor on
/// the dictionary codec's savings over the flat wire model.  MINCOST and
/// PATHVECTOR ship highly redundant provenance polynomials, so the codec
/// must cut at least a quarter of their bytes; PACKETFORWARD's opaque
/// payloads only need to never cost *more* than the flat model.
const COMPRESSION_FIGURE: &str = "fig18";
const COMPRESSION_FLOORS: &[(&str, f64)] = &[
    ("MINCOST", 0.25),
    ("PATHVECTOR", 0.25),
    ("PACKETFORWARD", 0.0),
];

/// Gates Figure 18's compressed-vs-flat series: the compressed mean must
/// never exceed the flat mean, and MINCOST / PATHVECTOR must clear the 25%
/// savings floor.  Skipped silently when the fresh output has no fig18
/// record (e.g. a `--only` run of other figures).
fn check_compression(fresh: &BTreeMap<String, BenchReport>) -> Vec<String> {
    let mut failures = Vec::new();
    let Some(report) = fresh.get(COMPRESSION_FIGURE) else {
        return failures;
    };
    for &(program, floor) in COMPRESSION_FLOORS {
        let flat_label = format!("{program} uncompressed");
        let packed_label = format!("{program} compressed");
        let (Some(flat), Some(packed)) = (report.series(&flat_label), report.series(&packed_label))
        else {
            failures.push(format!(
                "{COMPRESSION_FIGURE}: series pair {flat_label:?} / {packed_label:?} is missing"
            ));
            continue;
        };
        if flat.mean <= 0.0 || flat.mean.is_nan() {
            failures.push(format!(
                "{COMPRESSION_FIGURE} [{program}]: flat comm cost is {} MB — nothing was measured",
                flat.mean
            ));
            continue;
        }
        let savings = 1.0 - packed.mean / flat.mean;
        println!(
            "  fig18: {program} codec saves {:.1}% ({:.4} MB vs {:.4} MB, floor {:.0}%)",
            savings * 100.0,
            packed.mean,
            flat.mean,
            floor * 100.0
        );
        if packed.mean > flat.mean {
            failures.push(format!(
                "{COMPRESSION_FIGURE} [{program}]: compressed mean {} exceeds flat mean {} — the \
                 codec made the wire *bigger*",
                packed.mean, flat.mean
            ));
        } else if savings < floor {
            failures.push(format!(
                "{COMPRESSION_FIGURE} [{program}]: codec saves only {:.1}%, below the {:.0}% floor",
                savings * 100.0,
                floor * 100.0
            ));
        }
    }
    failures
}

fn check_exact(
    a: &BTreeMap<String, BenchReport>,
    b: &BTreeMap<String, BenchReport>,
) -> Vec<String> {
    let mut failures = Vec::new();
    for key in a.keys().chain(b.keys().filter(|k| !a.contains_key(*k))) {
        match (a.get(key), b.get(key)) {
            (Some(ra), Some(rb)) => {
                if ra.series.len() != rb.series.len() {
                    failures.push(format!("{key}: series count differs"));
                    continue;
                }
                for (sa, sb) in ra.series.iter().zip(&rb.series) {
                    // Bit-exact comparison: the sharded runtime promises
                    // identical floating-point statistics, not just close ones.
                    if sa.label != sb.label
                        || sa.mean != sb.mean
                        || sa.max != sb.max
                        || sa.last != sb.last
                        || sa.points != sb.points
                    {
                        failures.push(format!(
                            "{key} [{}]: {:?} != {:?}",
                            sa.label,
                            (sa.mean, sa.max, sa.last, sa.points),
                            (sb.mean, sb.max, sb.last, sb.points)
                        ));
                    }
                }
            }
            (None, _) | (_, None) => failures.push(format!("{key}: present in only one directory")),
        }
    }
    failures
}

fn main() {
    let dirs: Vec<String> = std::env::args().skip(1).collect();
    if dirs.len() != 2 {
        eprintln!("usage: check_bench <dir-a> <dir-b>");
        std::process::exit(2);
    }
    let fresh = load_dir(&dirs[0]);
    let base = load_dir(&dirs[1]);

    let mut failures = check_exact(&fresh, &base);
    failures.extend(check_ordering(&fresh));
    failures.extend(check_compression(&fresh));

    if failures.is_empty() {
        println!(
            "check_bench: {} figure(s) identical, ordering and fig18 floors hold",
            base.len()
        );
    } else {
        eprintln!("check_bench: {} failure(s):", failures.len());
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}
