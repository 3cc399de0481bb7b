//! The parent side: runs a workload as a sequence of fresh child processes,
//! 1 shard and 2 shards by turns, until the time budget is spent; checks that
//! the children agree; and reduces their samples to the named metrics.
//!
//! A timing metric is the quartile on the fast side of the run's samples —
//! the 75th percentile of rates, the 25th of times — each sample already
//! divided by the host factor measured around it (`proc::Host`).  What is
//! left after that division is mostly slow outliers (a neighbour that hit
//! the work but missed the calibrations), and the fast quartile does not
//! see them; in the sizing runs it was twice as steady as the median.
//!
//! Why a fresh process per measured phase: `BddManager::new()` hands out the
//! process-global `SharedBddStore` and `Symbol`s are interned (leaked)
//! process-wide, so a second run in one process starts warm and is not
//! comparable with the first; a child per phase also makes `VmHWM` a
//! per-phase peak.

use crate::json::{self, JsonValue, Obj};
use crate::report::ChildReport;
use crate::spec::{self, Workload, END_TO_END, PER_LAYER};
use crate::stats;
use crate::trace::{self, Span};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where data dirs, traces and result files go (inside the checkout).
    pub out_dir: PathBuf,
}

/// One reduced metric: the value, how many samples it was reduced from, and
/// their quartile spread (0 when there were too few to say).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stat {
    pub value: f64,
    pub n: usize,
    pub spread: f64,
}

pub struct RunResult {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    pub end_to_end: BTreeMap<&'static str, Stat>,
    pub per_layer: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Median host factor over the children: how slow the host was.
    pub host_factor: f64,
    /// `(child index, span)`.
    pub spans: Vec<(usize, Span)>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

struct Child {
    shards: usize,
    report: ChildReport,
}

/// Spawns this executable as a child phase and parses what it prints.  A
/// child that dies or prints nonsense is a failed operation, not a harness
/// crash.
fn spawn(args: &[String]) -> ChildReport {
    let exe = std::env::current_exe().expect("own executable path");
    let failed = |why: String| {
        let mut r = ChildReport::default();
        r.check(false, || format!("child {args:?}: {why}"));
        r
    };
    let output = match Command::new(exe)
        .arg("child")
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
    {
        Ok(output) => output,
        Err(e) => return failed(format!("spawn failed: {e}")),
    };
    if !output.status.success() {
        return failed(format!("exited with {}", output.status));
    }
    ChildReport::from_stdout(&String::from_utf8_lossy(&output.stdout)).unwrap_or_else(failed)
}

fn child_args(
    kind: &str,
    shards: usize,
    cfg: &RunConfig,
    probes: bool,
    data_dir: &Path,
) -> Vec<String> {
    vec![
        kind.to_string(),
        "--shards".into(),
        shards.to_string(),
        "--seed".into(),
        cfg.seed.to_string(),
        "--trace".into(),
        u8::from(cfg.trace).to_string(),
        "--probes".into(),
        u8::from(probes).to_string(),
        "--dir".into(),
        data_dir.display().to_string(),
    ]
}

fn pooled(children: &[&Child], pool: &str) -> Vec<f64> {
    children
        .iter()
        .filter_map(|c| c.report.pools.get(pool))
        .flatten()
        .copied()
        .collect()
}

fn values(children: &[&Child], name: &str) -> Vec<f64> {
    children
        .iter()
        .filter_map(|c| c.report.values.get(name).copied())
        .collect()
}

fn stat(samples: &[f64], value: f64) -> Stat {
    Stat {
        value,
        n: samples.len(),
        spread: stats::spread(samples),
    }
}

/// Children by turns with 1 shard and 2, each as long as it takes, until the
/// next one — at the pace of the slowest so far — would end past
/// `cfg.seconds`.  Never fewer than one of each.  Probes ride on the first
/// child of a traced run.
pub fn run(cfg: &RunConfig) -> RunResult {
    let tmp = cfg.out_dir.join("tmp").join(std::process::id().to_string());
    std::fs::create_dir_all(&tmp).expect("create scratch dir inside the checkout");
    let kind = cfg.workload.name();
    let mut children: Vec<Child> = Vec::new();
    let started = Instant::now();
    let mut slowest = 0.0f64;
    while children.len() < 2 || started.elapsed().as_secs_f64() + slowest <= cfg.seconds {
        let shards = 1 + children.len() % 2;
        let probes = cfg.trace && children.is_empty();
        let data_dir = tmp.join(format!("{kind}-{}", children.len()));
        let t = Instant::now();
        let report = spawn(&child_args(kind, shards, cfg, probes, &data_dir));
        slowest = slowest.max(t.elapsed().as_secs_f64());
        children.push(Child { shards, report });
        let _ = std::fs::remove_dir_all(&data_dir);
    }
    let _ = std::fs::remove_dir_all(&tmp);
    reduce(cfg, &children)
}

fn reduce(cfg: &RunConfig, children: &[Child]) -> RunResult {
    let all: Vec<&Child> = children.iter().collect();
    let one: Vec<&Child> = children.iter().filter(|c| c.shards == 1).collect();
    let two: Vec<&Child> = children.iter().filter(|c| c.shards == 2).collect();

    let mut attempted = 0;
    let mut failed = 0;
    let mut errors = Vec::new();
    for c in children {
        attempted += c.report.attempted;
        failed += c.report.failed;
        errors.extend(c.report.errors.iter().cloned());
    }
    // Children of one run saw the same inputs: whatever exact fact two of
    // them report (state digest, step/byte/message counts) must be equal,
    // whatever their shard count.
    let mut facts: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for c in children {
        for (k, v) in &c.report.facts {
            facts.entry(k).or_default().push(v);
        }
    }
    for (name, seen) in facts {
        attempted += 1;
        if seen.iter().any(|v| *v != seen[0]) {
            failed += 1;
            errors.push(format!("children disagree on {name}: {seen:?}"));
        }
    }

    let mut end_to_end = BTreeMap::new();
    let setup = pooled(&all, "setup_s");
    end_to_end.insert("setup_s", stat(&setup, stats::median(&setup)));
    let ops1 = pooled(&one, "ops_per_s");
    end_to_end.insert("ops_per_s", stat(&ops1, stats::quantile(&ops1, 0.75)));
    let ops2 = pooled(&two, "ops_per_s");
    end_to_end.insert(
        "ops_per_s_2shard",
        stat(&ops2, stats::quantile(&ops2, 0.75)),
    );
    let lat = pooled(&one, "lat_ms");
    end_to_end.insert("lat_p50_ms", stat(&lat, stats::quantile(&lat, 0.25)));
    for name in ["bytes_per_op", "peak_rss_mb"] {
        let v = values(&one, name);
        end_to_end.insert(name, stat(&v, stats::median(&v)));
    }
    for m in &END_TO_END {
        let s = end_to_end[m.name];
        attempted += 1;
        if !(s.value.is_finite() && s.value > 0.0) {
            failed += 1;
            errors.push(format!(
                "{} came out as {} from {} samples",
                m.name, s.value, s.n
            ));
        }
    }

    let mut per_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut spans = Vec::new();
    if cfg.trace {
        for m in &PER_LAYER {
            let mut v = values(&one, m.name);
            if v.is_empty() {
                v = values(&all, m.name);
            }
            per_layer.insert(m.name, stats::median(&v));
        }
        let ops = |k: &str| end_to_end[k].value;
        per_layer.insert(
            "runtime.shard_speedup",
            ops("ops_per_s_2shard") / ops("ops_per_s"),
        );
        per_layer.insert(
            "harness.cpu_wait_ms",
            values(&all, "harness.cpu_wait_ms").iter().sum(),
        );
        per_layer.insert("harness.children", children.len() as f64);
        for (i, c) in children.iter().enumerate() {
            spans.extend(c.report.spans.iter().cloned().map(|s| (i, s)));
        }
        per_layer.insert("harness.spans", spans.len() as f64);
        per_layer.insert(
            "harness.trace_overhead_pct",
            trace_overhead_pct(cfg, ops("ops_per_s")),
        );
    }

    RunResult {
        workload: cfg.workload,
        seed: cfg.seed,
        traced: cfg.trace,
        end_to_end,
        per_layer,
        attempted,
        failed,
        errors,
        host_factor: stats::median(&values(&all, "harness.host_factor")),
        spans,
    }
}

fn untraced_path(cfg: &RunConfig) -> PathBuf {
    cfg.out_dir.join(format!(
        "untraced-{}-{}.json",
        cfg.workload.name(),
        cfg.seed
    ))
}

/// How much slower the headline rate is with spans and probes on, against
/// the last untraced run of the same workload and seed in this checkout
/// (0 when there is none to compare with).
fn trace_overhead_pct(cfg: &RunConfig, traced_ops: f64) -> f64 {
    let untraced = std::fs::read_to_string(untraced_path(cfg))
        .ok()
        .and_then(|text| json::parse(&text).ok())
        .and_then(|v| json::as_f64(json::field(&v, "ops_per_s").ok()?).ok());
    match untraced {
        Some(untraced) if traced_ops > 0.0 => (untraced / traced_ops - 1.0) * 100.0,
        _ => 0.0,
    }
}

/// Leaves the untraced headline where a later traced run finds it, and a
/// traced run's spans in `trace.json`.
pub fn persist(cfg: &RunConfig, result: &RunResult) {
    let _ = std::fs::create_dir_all(&cfg.out_dir);
    if cfg.trace {
        write_trace(&cfg.out_dir.join("trace.json"), &[result]);
    } else {
        let doc = Obj::new()
            .num("ops_per_s", result.end_to_end["ops_per_s"].value)
            .build();
        let _ = std::fs::write(untraced_path(cfg), json::compact(&doc));
    }
}

pub fn write_trace(path: &Path, results: &[&RunResult]) {
    let spans: Vec<JsonValue> = results
        .iter()
        .flat_map(|r| {
            r.spans
                .iter()
                .map(|(child, s)| trace::span_to_json(s, r.workload.name(), *child))
        })
        .collect();
    let doc = Obj::new().val("spans", JsonValue::Array(spans)).build();
    let _ = std::fs::write(path, json::compact(&doc));
}

/// The line the driver reads: `correct`, `attempted`, `failed`, and every
/// end-to-end metric (untraced) or every per-layer metric (traced).
pub fn driver_line(result: &RunResult) -> String {
    let mut metrics = Obj::new();
    let entry = |value: f64, unit: &str| Obj::new().num("value", value).str("unit", unit).build();
    if result.traced {
        for m in &PER_LAYER {
            metrics = metrics.val(m.name, entry(result.per_layer[m.name], m.unit));
        }
    } else {
        for m in &END_TO_END {
            metrics = metrics.val(m.name, entry(result.end_to_end[m.name].value, m.unit));
        }
    }
    json::compact(
        &Obj::new()
            .bool("correct", result.correct())
            .num("attempted", result.attempted.max(1) as f64)
            .num("failed", result.failed as f64)
            .val("metrics", metrics.build())
            .build(),
    )
}

/// Every metric by name, with unit and sample count, for the human.
pub fn print_table(result: &RunResult) {
    let mode = if result.traced { "traced" } else { "untraced" };
    println!(
        "== {} (seed {}, {mode}) — {} operations attempted, {} failed; host factor {:.2}",
        result.workload.name(),
        result.seed,
        result.attempted,
        result.failed,
        result.host_factor
    );
    for m in &END_TO_END {
        let s = result.end_to_end[m.name];
        println!(
            "  {:<28} {:>16.4} {:<6} n={:<6} spread={:.1}%  ({} is better, bound {:.0}%)",
            m.name,
            s.value,
            m.unit,
            s.n,
            s.spread * 100.0,
            m.better.as_str(),
            m.bound * 100.0
        );
    }
    if result.traced {
        for m in &PER_LAYER {
            let v = result.per_layer[m.name];
            if v != 0.0 {
                println!("  {:<36} {:>16.4} {}", m.name, v, m.unit);
            }
        }
        let idle: Vec<&str> = PER_LAYER
            .iter()
            .filter(|m| result.per_layer[m.name] == 0.0)
            .map(|m| m.name)
            .collect();
        println!("  idle on this workload (0): {}", idle.join(" "));
        println!("  spans: name, count, total ms, self ms");
        for (name, (count, total, own)) in trace::self_times(&result.spans) {
            println!(
                "    {name:<30} {count:>7} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
    }
    for e in result.errors.iter().take(10) {
        println!("  FAILED: {e}");
    }
}

/// A traced run's per-layer table as stored in `results/*.json`.
pub fn per_layer_json(result: &RunResult) -> JsonValue {
    let mut layers = Obj::new();
    for m in &PER_LAYER {
        let value = result.per_layer.get(m.name).copied().unwrap_or(0.0);
        layers = layers.val(
            m.name,
            Obj::new().num("value", value).str("unit", m.unit).build(),
        );
    }
    layers.build()
}

/// Keeps the spec module's per-layer names honest: a child may only report
/// names the contract lists (plus end-to-end samples and harness inputs).
pub fn unknown_names(report: &ChildReport) -> Vec<String> {
    report
        .values
        .keys()
        .filter(|k| {
            !PER_LAYER.iter().any(|m| m.name == k.as_str()) && spec::end_to_end(k).is_none()
        })
        .cloned()
        .collect()
}
