//! Regenerates the figures of the ExSPAN evaluation (§7).
//!
//! ```text
//! cargo run -p exspan-bench --release --bin figures            # all figures, reduced scale
//! cargo run -p exspan-bench --release --bin figures -- --only fig6 fig7
//! cargo run -p exspan-bench --release --bin figures -- --scale paper
//! cargo run -p exspan-bench --release --bin figures -- --shards 4
//! cargo run -p exspan-bench --release --bin figures -- --json out/   # one BENCH_figN.json per figure
//! ```
//!
//! `--json DIR` writes one machine-readable `BENCH_<figure>.json` record per
//! figure (series means/maxes, wall clock, shard count) — the format the CI
//! perf gate (`scripts/check_bench.sh`) compares against the committed
//! `benchmarks/baseline` files.

use exspan_bench::{all_figure_ids, run_figure, BenchReport, Scale};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale_name = String::from("small");
    let mut only: Vec<String> = Vec::new();
    let mut json_dir: Option<String> = None;
    let mut shards: usize = 1;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some(name @ ("tiny" | "small" | "paper")) => scale_name = name.to_string(),
                    None => {}
                    Some(other) => {
                        eprintln!("unknown scale '{other}' (expected 'tiny', 'small' or 'paper')");
                        std::process::exit(2);
                    }
                }
            }
            "--shards" => {
                i += 1;
                shards = match args.get(i).and_then(|s| s.parse::<usize>().ok()) {
                    Some(n) if n >= 1 => n,
                    _ => {
                        eprintln!("--shards needs a positive integer");
                        std::process::exit(2);
                    }
                };
            }
            "--only" => {
                i += 1;
                while i < args.len() && !args[i].starts_with("--") {
                    only.push(args[i].clone());
                    i += 1;
                }
                continue;
            }
            "--json" => {
                i += 1;
                json_dir = args.get(i).cloned();
            }
            "--help" | "-h" => {
                println!(
                    "usage: figures [--scale tiny|small|paper] [--shards N] [--only figN...] \
                     [--json DIR]\n\
                     figures: {}",
                    all_figure_ids().join(", ")
                );
                return;
            }
            other => {
                eprintln!("unknown argument '{other}', try --help");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let scale = match scale_name.as_str() {
        "tiny" => Scale::tiny(),
        "paper" => Scale::paper(),
        _ => Scale::small(),
    }
    .with_shards(shards);

    let ids: Vec<String> = if only.is_empty() {
        all_figure_ids()
            .iter()
            .map(std::string::ToString::to_string)
            .collect()
    } else {
        only
    };

    if let Some(dir) = &json_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("failed to create {dir}: {e}");
            std::process::exit(1);
        }
    }

    let total = Instant::now();
    for id in &ids {
        let start = Instant::now();
        match run_figure(id, &scale) {
            Some(report) => {
                let elapsed = start.elapsed().as_secs_f64();
                println!("{}", report.to_text());
                println!("   (regenerated in {elapsed:.1}s)\n");
                let bench = BenchReport::from_figure(&report, &scale_name, shards, elapsed);
                if let Some(dir) = &json_dir {
                    let json = match serde_json::to_string_pretty(&bench) {
                        Ok(json) => json,
                        Err(e) => {
                            eprintln!("failed to serialize {id}: {e}");
                            std::process::exit(1);
                        }
                    };
                    let path = format!("{dir}/{}", bench.file_name());
                    if let Err(e) = std::fs::write(&path, json) {
                        eprintln!("failed to write {path}: {e}");
                        std::process::exit(1);
                    }
                }
            }
            None => {
                eprintln!(
                    "unknown figure id '{id}', known ids: {:?}",
                    all_figure_ids()
                );
                std::process::exit(2);
            }
        }
    }
    println!(
        "regenerated {} figure(s) in {:.1}s with {} shard(s)",
        ids.len(),
        total.elapsed().as_secs_f64(),
        shards
    );
    if let Some(dir) = &json_dir {
        println!("wrote {} BENCH_*.json record(s) to {dir}", ids.len());
    }
}
