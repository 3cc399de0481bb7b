//! CI perf gate over the machine-readable benchmark records.
//!
//! ```text
//! check_bench <fresh-dir> <baseline-dir>          # regression + ordering gate
//! check_bench --time-budget 50 <fresh> <base>     # … plus a wall-clock budget
//! check_bench --exact <dir-a> <dir-b>             # determinism diff (ignores wall clock)
//! check_bench --exact --speedup-summary <sharded> <sequential>
//! ```
//!
//! Default mode compares freshly generated `BENCH_*.json` files against the
//! committed baselines and fails (exit 1) if
//!
//! * any figure's per-series **mean regresses by more than 25%** (the metric
//!   is traffic or latency, so larger = worse), or
//! * the **value ≥ reference ≥ none provenance-mode ordering of the paper
//!   inverts** on any bandwidth figure, or
//! * Figure 18's **dictionary codec stops paying for itself**: the compressed
//!   mean exceeds the flat mean on any program, or the MINCOST / PATHVECTOR
//!   savings fall below 25%, or
//! * a baseline figure is missing from the fresh output, or
//! * (with `--time-budget <pct>`) the suite's **total wall clock** exceeds the
//!   baseline total by more than `pct` percent.
//!
//! The series statistics are functions of the *simulated* protocol run, which
//! is deterministic — so those gates are immune to runner noise.  The wall
//! clock is real time and does vary with the runner, which is why the budget
//! is opt-in, applies to the suite total (not per figure), and ships with a
//! generous default headroom in CI (50%); it exists to catch order-of-magnitude
//! slowdowns on the hot path, not single-digit jitter.  Per-figure
//! `wall_secs` deltas are always printed for the record.
//!
//! `--exact` mode asserts two output directories are identical except for
//! wall-clock time and shard count: CI runs the tiny scale sequentially and
//! with four shards and diffs the results, pinning the sharded runtime's
//! bit-identical guarantee.  With `--speedup-summary`, a markdown
//! sequential-vs-sharded wall-clock table is appended to the file named by
//! `$GITHUB_STEP_SUMMARY` (or printed to stdout when the variable is unset),
//! so every CI run documents what the extra shards bought.

use exspan_bench::BenchReport;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// Allowed relative regression of a series mean before the gate fails.
const MEAN_REGRESSION_TOLERANCE: f64 = 0.25;

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

fn check_regressions(
    fresh: &BTreeMap<String, BenchReport>,
    base: &BTreeMap<String, BenchReport>,
) -> Vec<String> {
    let mut failures = Vec::new();
    for (figure, baseline) in base {
        let Some(current) = fresh.get(figure) else {
            failures.push(format!("{figure}: missing from fresh results"));
            continue;
        };
        for bs in &baseline.series {
            let Some(cs) = current.series(&bs.label) else {
                failures.push(format!("{figure}: series '{}' disappeared", bs.label));
                continue;
            };
            let allowed = bs.mean * (1.0 + MEAN_REGRESSION_TOLERANCE);
            if cs.mean > allowed {
                failures.push(format!(
                    "{figure} [{}]: mean {} regressed {:.1}% over baseline {} (allowed {:.0}%)",
                    bs.label,
                    cs.mean,
                    (cs.mean / bs.mean - 1.0) * 100.0,
                    bs.mean,
                    MEAN_REGRESSION_TOLERANCE * 100.0
                ));
            }
        }
    }
    failures
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

/// Prints the per-figure wall-clock deltas and enforces the optional suite
/// budget.  Returns a failure line when the budget is exceeded.
fn check_time_budget(
    fresh: &BTreeMap<String, BenchReport>,
    base: &BTreeMap<String, BenchReport>,
    budget_pct: Option<f64>,
) -> Vec<String> {
    let mut total_fresh = 0.0;
    let mut total_base = 0.0;
    println!("wall-clock per figure (fresh vs baseline):");
    for (figure, baseline) in base {
        let Some(current) = fresh.get(figure) else {
            continue;
        };
        total_fresh += current.wall_clock_seconds;
        total_base += baseline.wall_clock_seconds;
        let delta = if baseline.wall_clock_seconds > 0.0 {
            (current.wall_clock_seconds / baseline.wall_clock_seconds - 1.0) * 100.0
        } else {
            0.0
        };
        println!(
            "  {figure:>6}: {:>7.2}s vs {:>7.2}s  ({delta:+.1}%)",
            current.wall_clock_seconds, baseline.wall_clock_seconds
        );
    }
    let total_delta = if total_base > 0.0 {
        (total_fresh / total_base - 1.0) * 100.0
    } else {
        0.0
    };
    println!(
        "  {:>6}: {total_fresh:>7.2}s vs {total_base:>7.2}s  ({total_delta:+.1}%)",
        "total"
    );
    let mut failures = Vec::new();
    if let Some(pct) = budget_pct {
        let allowed = total_base * (1.0 + pct / 100.0);
        if total_fresh > allowed {
            failures.push(format!(
                "suite wall clock {total_fresh:.2}s exceeds the {pct:.0}% budget over baseline \
                 {total_base:.2}s (allowed {allowed:.2}s)"
            ));
        }
    }
    failures
}

/// Renders the sequential-vs-sharded speedup table and appends it to
/// `$GITHUB_STEP_SUMMARY` (falling back to stdout).
fn write_speedup_summary(
    sharded: &BTreeMap<String, BenchReport>,
    sequential: &BTreeMap<String, BenchReport>,
) {
    let shards = sharded
        .values()
        .next()
        .map(|r| r.shards)
        .unwrap_or_default();
    let mut out = String::new();
    out.push_str(&format!(
        "### Sequential vs {shards}-shard wall clock (tiny scale)\n\n\
         | figure | sequential (s) | {shards} shards (s) | speedup |\n\
         |---|---:|---:|---:|\n"
    ));
    let mut total_seq = 0.0;
    let mut total_shard = 0.0;
    for (figure, seq) in sequential {
        let Some(sh) = sharded.get(figure) else {
            continue;
        };
        total_seq += seq.wall_clock_seconds;
        total_shard += sh.wall_clock_seconds;
        out.push_str(&format!(
            "| {figure} | {:.2} | {:.2} | {:.2}× |\n",
            seq.wall_clock_seconds,
            sh.wall_clock_seconds,
            seq.wall_clock_seconds / sh.wall_clock_seconds.max(1e-9)
        ));
    }
    out.push_str(&format!(
        "| **total** | **{total_seq:.2}** | **{total_shard:.2}** | **{:.2}×** |\n",
        total_seq / total_shard.max(1e-9)
    ));
    match std::env::var("GITHUB_STEP_SUMMARY") {
        Ok(path) if !path.is_empty() => {
            let appended = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .and_then(|mut f| f.write_all(out.as_bytes()));
            if let Err(e) = appended {
                eprintln!("check_bench: cannot append step summary to {path}: {e}");
                println!("{out}");
            }
        }
        _ => println!("{out}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut exact = false;
    let mut speedup_summary = false;
    let mut time_budget: Option<f64> = None;
    let mut dirs: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--exact" => exact = true,
            "--speedup-summary" => speedup_summary = true,
            "--time-budget" => {
                i += 1;
                time_budget = match args.get(i).and_then(|s| s.parse::<f64>().ok()) {
                    Some(pct) if pct >= 0.0 => Some(pct),
                    _ => {
                        eprintln!("check_bench: --time-budget needs a non-negative percentage");
                        std::process::exit(2);
                    }
                };
            }
            other if other.starts_with("--") => {
                eprintln!("check_bench: unknown flag {other}");
                std::process::exit(2);
            }
            dir => dirs.push(dir.to_string()),
        }
        i += 1;
    }
    if dirs.len() != 2 {
        eprintln!(
            "usage: check_bench [--exact] [--speedup-summary] [--time-budget <pct>] \
             <fresh-dir> <baseline-dir>"
        );
        std::process::exit(2);
    }
    // Reject flag combinations that would otherwise be silently ignored — a
    // perf gate that looks enabled but never runs is worse than a usage error.
    if exact && time_budget.is_some() {
        eprintln!("check_bench: --time-budget applies to the perf gate, not --exact mode");
        std::process::exit(2);
    }
    if speedup_summary && !exact {
        eprintln!("check_bench: --speedup-summary requires --exact (sharded vs sequential dirs)");
        std::process::exit(2);
    }
    let (fresh_dir, base_dir) = (&dirs[0], &dirs[1]);
    if !Path::new(base_dir).is_dir() {
        eprintln!("check_bench: baseline directory {base_dir} does not exist");
        std::process::exit(2);
    }
    let fresh = load_dir(fresh_dir);
    let base = load_dir(base_dir);

    let failures = if exact {
        let f = check_exact(&fresh, &base);
        if speedup_summary && f.is_empty() {
            write_speedup_summary(&fresh, &base);
        }
        f
    } else {
        let mut f = check_regressions(&fresh, &base);
        f.extend(check_ordering(&fresh));
        f.extend(check_compression(&fresh));
        f.extend(check_time_budget(&fresh, &base, time_budget));
        f
    };

    if failures.is_empty() {
        let mode = if exact {
            "determinism diff"
        } else {
            "perf gate"
        };
        println!(
            "check_bench: {mode} passed over {} figure(s)",
            base.len().max(fresh.len())
        );
    } else {
        eprintln!("check_bench: {} failure(s):", failures.len());
        for f in &failures {
            eprintln!("  - {f}");
        }
        std::process::exit(1);
    }
}
