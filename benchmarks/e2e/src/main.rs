//! `exspan-e2e`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! exspan-e2e bench --workload W --seed N --seconds S --trace 0|1   one workload; last line is the driver's JSON
//! exspan-e2e bench [--seed N] [--trace] [--passes K] [--save F]   every workload, every metric by name
//! exspan-e2e compare A.json B.json                                 is B worse than A, by the benchmark's own bounds
//! exspan-e2e benchmark-json                                        the contract, as BENCHMARK.json states it
//! ```
//!
//! (`child …` is the harness re-executing itself, one process per measured
//! phase; see `harness`.)  See README.md beside this package for what each
//! workload and metric is for.

mod compare;
mod harness;
mod json;
mod loadgen;
mod mix;
mod oracle;
mod probes;
mod proc;
mod report;
mod serve;
mod spec;
mod stats;
mod trace;
mod workloads;

use exspan_core::ProvenanceMode;
use exspan_ndlog::programs;
use harness::{RunConfig, RunResult};
use json::{JsonValue, Obj};
use proc::Host;
use spec::{Workload, END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

/// What `BENCHMARK.json` promises the driver: one run measures for this
/// long (a run is whole children; it starts another only if that one, at
/// the pace of the slowest so far, ends in time).  With five workloads the
/// driver's 114 runs and two builds then take about 50 of its 57 minutes.
const RUN_SECONDS: u32 = 24;
const DEFAULT_SEED: u64 = 42;

/// `--flag value` pairs (a bare `--flag` reads as 1) and positional words
/// after the subcommand.
struct Args {
    flags: BTreeMap<String, String>,
    words: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut flags = BTreeMap::new();
        let mut words = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            match raw[i].strip_prefix("--") {
                Some(name) => {
                    let value = raw.get(i + 1).filter(|v| !v.starts_with("--"));
                    i += 1 + usize::from(value.is_some());
                    flags.insert(
                        name.to_string(),
                        value.cloned().unwrap_or_else(|| "1".into()),
                    );
                }
                None => {
                    words.push(raw[i].clone());
                    i += 1;
                }
            }
        }
        Args { flags, words }
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} {v}: not understood")),
        }
    }

    fn path(&self, name: &str) -> Option<PathBuf> {
        self.flags.get(name).map(PathBuf::from)
    }
}

fn main() -> ExitCode {
    let born = Instant::now();
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match raw.split_first() {
        Some((c, rest)) => (c.as_str(), rest),
        None => ("bench", &[][..]),
    };
    let args = Args::parse(rest);
    let outcome = match command {
        "bench" => bench(&args),
        "child" => child(&args, born),
        "compare" => compare_files(&args),
        "benchmark-json" => {
            println!("{}", json::pretty(&benchmark_json()));
            Ok(true)
        }
        other => Err(format!("unknown command {other}; see src/main.rs")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("exspan-e2e: {e}");
            ExitCode::from(2)
        }
    }
}

fn out_dir(args: &Args) -> PathBuf {
    args.path("out-dir")
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("out"))
}

fn bench(args: &Args) -> Result<bool, String> {
    let seed = args.get("seed", DEFAULT_SEED)?;
    let seconds = args.get("seconds", f64::from(RUN_SECONDS))?;
    let trace = args.get("trace", 0u8)? != 0;
    let out_dir = out_dir(args);
    let config = |workload, trace| RunConfig {
        workload,
        seed,
        seconds,
        trace,
        out_dir: out_dir.clone(),
    };

    // The driver's form: one workload, one mode, JSON on the last line.
    if let Some(name) = args.flags.get("workload") {
        let workload = Workload::parse(name).ok_or(format!("unknown workload {name}"))?;
        let cfg = config(workload, trace);
        let result = harness::run(&cfg);
        harness::persist(&cfg, &result);
        harness::print_table(&result);
        println!("{}", harness::driver_line(&result));
        return Ok(result.correct());
    }

    // The human's form: every workload untraced (`--passes` times, keeping
    // each metric's min/median/max), then once more traced if asked.
    let passes: usize = args.get("passes", 1)?;
    let mut all_correct = true;
    let mut untraced: Vec<Vec<RunResult>> = Vec::new();
    for workload in WORKLOADS {
        let mut runs = Vec::new();
        for _ in 0..passes.max(1) {
            let cfg = config(workload, false);
            let result = harness::run(&cfg);
            harness::persist(&cfg, &result);
            harness::print_table(&result);
            all_correct &= result.correct();
            runs.push(result);
        }
        untraced.push(runs);
    }
    let mut traced: Vec<RunResult> = Vec::new();
    if trace {
        for workload in WORKLOADS {
            let result = harness::run(&config(workload, true));
            harness::print_table(&result);
            all_correct &= result.correct();
            traced.push(result);
        }
        harness::write_trace(
            &out_dir.join("trace.json"),
            &traced.iter().collect::<Vec<_>>(),
        );
    }
    let save = args
        .path("save")
        .unwrap_or_else(|| out_dir.join("results.json"));
    let write = |path: &Path, doc: &JsonValue| {
        std::fs::write(path, json::pretty(doc) + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))
    };
    write(&save, &results_json(seed, &untraced, &traced))?;
    println!("results written to {}", save.display());
    if trace {
        // The traced pass alone: per-layer table and span self times (the
        // raw spans stay in out/trace.json).
        let summary = save.with_file_name("trace-summary.json");
        write(&summary, &trace_summary_json(seed, &traced))?;
        println!("trace summary written to {}", summary.display());
    }
    Ok(all_correct)
}

/// Where and on what a result file was measured.
fn meta_json(seed: u64) -> JsonValue {
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Obj::new()
        .str("commit", &commit)
        .num("nproc", nproc as f64)
        .num("seed", seed as f64)
        .num("run_seconds", f64::from(RUN_SECONDS))
        .build()
}

fn trace_summary_json(seed: u64, traced: &[RunResult]) -> JsonValue {
    let mut workloads = Obj::new();
    for result in traced {
        let mut spans = Obj::new();
        for (name, (count, total, own)) in trace::self_times(&result.spans) {
            spans = spans.val(
                &name,
                Obj::new()
                    .num("count", count as f64)
                    .num("total_ms", total as f64 / 1e6)
                    .num("self_ms", own as f64 / 1e6)
                    .build(),
            );
        }
        workloads = workloads.val(
            result.workload.name(),
            Obj::new()
                .val("per_layer", harness::per_layer_json(result))
                .val("spans", spans.build())
                .build(),
        );
    }
    Obj::new()
        .val("meta", meta_json(seed))
        .val("workloads", workloads.build())
        .build()
}

/// Results of one or several untraced passes (and a traced one, if any) in
/// the form `compare` reads and `results/baseline.json` is committed in.  A
/// metric's value is its median over the passes; with several passes its
/// spread is their quartile spread, otherwise that of the run's own samples.
fn results_json(seed: u64, untraced: &[Vec<RunResult>], traced: &[RunResult]) -> JsonValue {
    let mut workloads = Obj::new();
    for runs in untraced {
        let workload = runs[0].workload;
        let mut e2e = Obj::new();
        for m in &END_TO_END {
            let values: Vec<f64> = runs.iter().map(|r| r.end_to_end[m.name].value).collect();
            let sorted = stats::sorted(&values);
            let one_run = runs[0].end_to_end[m.name];
            let spread = if runs.len() > 1 {
                stats::spread(&values)
            } else {
                one_run.spread
            };
            e2e = e2e.val(
                m.name,
                Obj::new()
                    .num("value", stats::median(&values))
                    .str("unit", m.unit)
                    .num("n", one_run.n as f64)
                    .num("passes", runs.len() as f64)
                    .num("min", sorted[0])
                    .num("max", sorted[sorted.len() - 1])
                    .num("spread", spread)
                    .build(),
            );
        }
        let mut doc = Obj::new()
            .num(
                "attempted",
                runs.iter().map(|r| r.attempted).sum::<u64>() as f64,
            )
            .num("failed", runs.iter().map(|r| r.failed).sum::<u64>() as f64)
            .val("end_to_end", e2e.build());
        if let Some(t) = traced.iter().find(|t| t.workload == workload) {
            doc = doc.val("per_layer", harness::per_layer_json(t));
        }
        workloads = workloads.val(workload.name(), doc.build());
    }
    Obj::new()
        .val("meta", meta_json(seed))
        .val("workloads", workloads.build())
        .build()
}

fn compare_files(args: &Args) -> Result<bool, String> {
    let [a, b] = args.words.as_slice() else {
        return Err("usage: exspan-e2e compare A.json B.json".into());
    };
    let load = |path: &String| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let worse = compare::compare(&load(a)?, &load(b)?)?;
    println!("{worse} rows worse");
    Ok(worse == 0)
}

fn benchmark_json() -> JsonValue {
    let metric = |m: &spec::Metric, bounded: bool| {
        let o = Obj::new()
            .str("name", m.name)
            .str("unit", m.unit)
            .str("better", m.better.as_str());
        if bounded { o.num("bound", m.bound) } else { o }.build()
    };
    Obj::new()
        .val(
            "command",
            json::strs(&["bash".to_string(), "benchmarks/e2e/run.sh".to_string()]),
        )
        .val("paths", json::strs(&["benchmarks/e2e".to_string()]))
        .num("run_seconds", f64::from(RUN_SECONDS))
        .val(
            "workloads",
            JsonValue::Array(
                WORKLOADS
                    .iter()
                    .map(|w| Obj::new().str("name", w.name()).str("why", w.why()).build())
                    .collect(),
            ),
        )
        .val(
            "end_to_end",
            JsonValue::Array(END_TO_END.iter().map(|m| metric(m, true)).collect()),
        )
        .val(
            "per_layer",
            JsonValue::Array(PER_LAYER.iter().map(|m| metric(m, false)).collect()),
        )
        .build()
}

/// One measured phase, in this fresh process.
fn child(args: &Args, born: Instant) -> Result<bool, String> {
    let kind = args.words.first().ok_or("child: which phase?")?.as_str();
    let shards: usize = args.get("shards", 1)?;
    let seed: u64 = args.get("seed", DEFAULT_SEED)?;
    let probe = args.get("probes", 0u8)? != 0;
    let dir = args.path("dir").ok_or("child: --dir is required")?;
    let mut tracer = Tracer::new(args.get("trace", 0u8)? != 0);
    let mut host = Host::new(born);

    let mut report = match kind {
        "converge-ref" | "converge-value" => {
            let mode = if kind == "converge-ref" {
                ProvenanceMode::Reference
            } else {
                ProvenanceMode::ValueBdd
            };
            let (mut report, deployment) =
                workloads::converge(mode, shards, &mut host, &mut tracer);
            if probe {
                let executed = match mode {
                    ProvenanceMode::Reference => probes::rewritten(&programs::path_vector()),
                    _ => programs::path_vector(),
                };
                let rows = deployment.tuples_everywhere_shared("path");
                probes::table(&mut report, &executed, "path", &rows);
                probes::types(&mut report, &rows);
                probes::netsim(&mut report, deployment.topology());
                probes::front_end(&mut report, "PATHVECTOR", &programs::path_vector_source());
                if mode == ProvenanceMode::ValueBdd {
                    probes::bdd(&mut report);
                }
            }
            report
        }
        "churn-durable" => {
            let (mut report, deployment) =
                workloads::churn_durable(shards, &dir, &mut host, &mut tracer);
            if probe {
                let executed = probes::rewritten(&programs::mincost());
                let rows = deployment.tuples_everywhere_shared("pathCost");
                probes::table(&mut report, &executed, "pathCost", &rows);
                probes::store(&mut report, &deployment, &rows, &dir);
                probes::wal_replay(&mut report, &dir.with_extension("replay"));
            }
            report
        }
        "query-churn" => {
            let (mut report, deployment) =
                workloads::query_churn(shards, seed, &mut host, &mut tracer);
            if probe {
                let annotations: Vec<_> = deployment
                    .outcomes()
                    .iter()
                    .rev()
                    .take(200)
                    .filter_map(|o| o.annotation.clone())
                    .collect();
                probes::render(&mut report, &annotations);
            }
            report
        }
        "serve-query" => serve::serve_query(shards, seed, &mut host, &mut tracer),
        other => return Err(format!("child: unknown phase {other}")),
    };
    report.set("harness.cpu_wait_ms", proc::cpu_wait_ms());
    report.set("harness.host_factor", host.median_factor());
    let unknown = harness::unknown_names(&report);
    report.check(unknown.is_empty(), || {
        format!("metrics outside the contract: {unknown:?}")
    });
    report.spans = tracer.into_spans();
    print!("{}", report.to_stdout());
    Ok(true)
}
