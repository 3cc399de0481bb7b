//! `exspan-serve` — boot a deployment and serve it over TCP.
//!
//! ```text
//! exspan-serve [--addr 127.0.0.1:0] [--domains 1] [--seed 42]
//!              [--clock-rate 50] [--rate 500] [--burst 64]
//!              [--max-sessions 256] [--max-inflight 4096]
//!              [--write-queue-kib 1024] [--churn-duration 30] [--no-churn]
//!              [--data-dir DIR]
//! ```
//!
//! Prints the bound address on stdout, serves until stdin reaches EOF
//! (Ctrl-D, or the parent process closing the pipe), then shuts down.  One
//! server thread runs the deployment and every session: it advances
//! simulated time at `--clock-rate` simulated seconds per wall second, and
//! answers each request in the loop turn that reads it.
//!
//! With `--data-dir` the deployment state is persisted (write-ahead log +
//! snapshots): an empty directory boots fresh, an existing store boots from
//! its recovered state without re-running the protocol, and a graceful
//! shutdown checkpoints so the next boot recovers from the snapshot alone.

use exspan_core::{Exspan, ProvenanceMode};
use exspan_netsim::{ChurnModel, Topology};
use exspan_serve::{ServeConfig, Server};
use std::io::BufRead;
use std::process::ExitCode;

struct Args {
    addr: String,
    domains: usize,
    seed: u64,
    clock_rate: f64,
    rate: f64,
    burst: u32,
    max_sessions: usize,
    max_inflight: usize,
    write_queue_kib: usize,
    churn_duration: f64,
    churn: bool,
    data_dir: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:0".into(),
        domains: 1,
        seed: 42,
        clock_rate: 50.0,
        rate: 500.0,
        burst: 64,
        max_sessions: 256,
        max_inflight: 4096,
        write_queue_kib: 1024,
        churn_duration: 30.0,
        churn: true,
        data_dir: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--domains" => args.domains = parse(&value("--domains")?, "--domains")?,
            "--seed" => args.seed = parse(&value("--seed")?, "--seed")?,
            "--clock-rate" => args.clock_rate = parse(&value("--clock-rate")?, "--clock-rate")?,
            "--rate" => args.rate = parse(&value("--rate")?, "--rate")?,
            "--burst" => args.burst = parse(&value("--burst")?, "--burst")?,
            "--max-sessions" => {
                args.max_sessions = parse(&value("--max-sessions")?, "--max-sessions")?;
            }
            "--max-inflight" => {
                args.max_inflight = parse(&value("--max-inflight")?, "--max-inflight")?;
            }
            "--write-queue-kib" => {
                args.write_queue_kib = parse(&value("--write-queue-kib")?, "--write-queue-kib")?;
            }
            "--churn-duration" => {
                args.churn_duration = parse(&value("--churn-duration")?, "--churn-duration")?;
            }
            "--no-churn" => args.churn = false,
            "--data-dir" => args.data_dir = Some(value("--data-dir")?.into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{flag}: cannot parse {s:?}"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("exspan-serve: {e}");
            return ExitCode::FAILURE;
        }
    };

    let topology = Topology::transit_stub(args.domains, args.seed);
    let mut builder = Exspan::builder()
        .program(exspan_ndlog::programs::mincost())
        .topology(topology)
        .mode(ProvenanceMode::Reference);
    if let Some(dir) = &args.data_dir {
        builder = builder.data_dir(dir);
    }
    let mut deployment = match builder.build() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("exspan-serve: cannot build deployment: {e}");
            return ExitCode::FAILURE;
        }
    };
    if deployment.recovered_from_store() {
        // The store holds a quiescent fixpoint; no need to recompute it.
        eprintln!(
            "exspan-serve: recovered state from {}",
            args.data_dir.as_ref().unwrap().display()
        );
    } else {
        eprintln!("exspan-serve: running protocol to fixpoint…");
        deployment.run_to_fixpoint();
    }

    if args.churn {
        let churn = ChurnModel {
            interval: 0.5,
            changes_per_batch: 3,
            seed: args.seed ^ 0xC0FFEE,
        };
        let schedule = churn.schedule(deployment.topology(), args.churn_duration);
        let start = deployment.now();
        let events = schedule.len();
        for event in &schedule {
            deployment.schedule_churn_event(event, start + event.time);
        }
        eprintln!(
            "exspan-serve: {events} churn events scheduled over {} simulated seconds",
            args.churn_duration
        );
    }

    let config = ServeConfig::default()
        .addr(args.addr)
        .max_sessions(args.max_sessions)
        .max_inflight(args.max_inflight)
        .rate_limit(args.rate, args.burst)
        .clock_rate(args.clock_rate)
        .write_queue_bytes(args.write_queue_kib * 1024);
    let server = match Server::bind(deployment, config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("exspan-serve: cannot bind: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The bound address is the one line of stdout, so scripts can do
    // `ADDR=$(exspan-serve ... &)`-style capture.
    println!("{}", server.addr());
    eprintln!("exspan-serve: serving (EOF on stdin shuts down)");

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        if line.is_err() {
            break;
        }
    }
    eprintln!("exspan-serve: shutting down");
    // shutdown() checkpoints the deployment's store, if it has one.
    let deployment = server.shutdown();
    if args.data_dir.is_some() {
        eprintln!("exspan-serve: state checkpointed");
    }
    eprintln!(
        "exspan-serve: done — {} queries issued, {} still in flight",
        deployment.outcomes().len(),
        deployment.incomplete_queries()
    );
    ExitCode::SUCCESS
}
