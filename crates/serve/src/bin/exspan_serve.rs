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
    write_queue_bytes: usize,
    churn_duration: f64,
    churn: bool,
    data_dir: Option<std::path::PathBuf>,
}

/// Parses the flags that follow the program name, refusing a value the
/// server cannot run on.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:0".into(),
        domains: 1,
        seed: 42,
        clock_rate: 50.0,
        rate: 500.0,
        burst: 64,
        max_sessions: 256,
        max_inflight: 4096,
        write_queue_bytes: 1024 * 1024,
        churn_duration: 30.0,
        churn: true,
        data_dir: None,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} expects a value"));
        match flag.as_str() {
            "--addr" => args.addr = value()?,
            "--domains" => args.domains = parse(&flag, value()?)?,
            "--seed" => args.seed = parse(&flag, value()?)?,
            "--clock-rate" => args.clock_rate = parse(&flag, value()?)?,
            "--rate" => args.rate = parse(&flag, value()?)?,
            "--burst" => args.burst = parse(&flag, value()?)?,
            "--max-sessions" => args.max_sessions = parse(&flag, value()?)?,
            "--max-inflight" => args.max_inflight = parse(&flag, value()?)?,
            "--write-queue-kib" => {
                let kib: usize = parse(&flag, value()?)?;
                let bytes = kib.checked_mul(1024);
                args.write_queue_bytes = bytes.ok_or(format!("{flag}: {kib} KiB overflows"))?;
            }
            "--churn-duration" => args.churn_duration = parse(&flag, value()?)?,
            "--no-churn" => args.churn = false,
            "--data-dir" => args.data_dir = Some(value()?.into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    // The churn schedule is generated up front, every step of it.
    let duration = args.churn_duration;
    if !(duration.is_finite() && duration >= 0.0) {
        return Err(format!(
            "--churn-duration must be finite and >= 0, got {duration}"
        ));
    }
    Ok(args)
}

fn parse<T: std::str::FromStr>(flag: &str, s: String) -> Result<T, String> {
    s.parse().map_err(|_| format!("{flag}: cannot parse {s:?}"))
}

fn main() -> ExitCode {
    if let Err(e) = serve() {
        eprintln!("exspan-serve: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn serve() -> Result<(), String> {
    let args = parse_args(std::env::args().skip(1))?;

    let topology = Topology::transit_stub(args.domains, args.seed);
    let mut builder = Exspan::builder()
        .program(exspan_ndlog::programs::mincost())
        .topology(topology)
        .mode(ProvenanceMode::Reference);
    if let Some(dir) = &args.data_dir {
        builder = builder.data_dir(dir);
    }
    let mut deployment = builder
        .build()
        .map_err(|e| format!("cannot build deployment: {e}"))?;
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
        .write_queue_bytes(args.write_queue_bytes);
    let server = Server::bind(deployment, config).map_err(|e| format!("cannot bind: {e}"))?;
    // The bound address is the one line of stdout, so scripts can do
    // `ADDR=$(exspan-serve ... &)`-style capture.
    println!("{}", server.addr());
    eprintln!("exspan-serve: serving (EOF on stdin shuts down)");

    let _ = std::io::copy(&mut std::io::stdin(), &mut std::io::sink());
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
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::parse_args;

    fn parse(argv: &[&str]) -> Result<super::Args, String> {
        parse_args(argv.iter().map(ToString::to_string))
    }

    #[test]
    fn values_the_server_cannot_run_on_are_refused() {
        for duration in ["inf", "NaN", "-1"] {
            let err = parse(&["--churn-duration", duration]).err();
            assert!(
                err.is_some_and(|e| e.contains("--churn-duration")),
                "{duration}"
            );
        }
        let overflowing = (usize::MAX / 1024 + 1).to_string();
        let err = parse(&["--write-queue-kib", &overflowing]).err();
        assert!(err.is_some_and(|e| e.contains("overflows")));
        let args = parse(&["--churn-duration", "0", "--write-queue-kib", "4"]).expect("sound");
        assert_eq!((args.churn_duration, args.write_queue_bytes), (0.0, 4096));
    }
}
