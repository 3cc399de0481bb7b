//! Regression: the interned/`Arc`-shared runtime reproduces the committed
//! figure baselines bit-for-bit, at 1 and 4 shards.
//!
//! `check_bench` pins this in CI over the full tiny-scale suite; this
//! test pins it in `cargo test` over the fast figures (fig16/fig17 complete
//! in well under a second each at tiny scale even in debug builds), so a
//! representation change that alters any series statistic — wire sizes,
//! event ordering, annotation sizes — fails the ordinary test run without
//! waiting for the bench pipeline.

use exspan_bench::{run_figure, BenchReport, Scale};
use std::path::PathBuf;

fn baseline_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../benchmarks/baseline")
}

fn load_baseline(figure: &str) -> BenchReport {
    let path = baseline_dir().join(format!("BENCH_{figure}.json"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("cannot parse {}: {e}", path.display()))
}

fn assert_matches_baseline(figure: &str, shards: usize) {
    let baseline = load_baseline(figure);
    assert_eq!(baseline.scale, "tiny", "committed baselines are tiny-scale");
    let scale = Scale::tiny().with_shards(shards);
    let report = run_figure(figure, &scale).expect("known figure id");
    let fresh = BenchReport::from_figure(&report, "tiny", shards, 0.0);
    assert_eq!(
        fresh.series.len(),
        baseline.series.len(),
        "{figure} series count changed vs committed baseline"
    );
    for (fs, bs) in fresh.series.iter().zip(&baseline.series) {
        assert_eq!(fs.label, bs.label, "{figure}: series label changed");
        // Bit-exact: the baselines promise identical floating-point
        // statistics, not merely close ones.
        assert_eq!(
            (fs.mean, fs.max, fs.last, fs.points),
            (bs.mean, bs.max, bs.last, bs.points),
            "{figure} [{}] diverged from the committed baseline at {shards} shard(s)",
            fs.label
        );
    }
}

#[test]
fn fig16_matches_committed_baseline_sequential() {
    assert_matches_baseline("fig16", 1);
}

#[test]
fn fig16_matches_committed_baseline_four_shards() {
    assert_matches_baseline("fig16", 4);
}

#[test]
fn fig17_matches_committed_baseline_sequential() {
    assert_matches_baseline("fig17", 1);
}

#[test]
fn fig17_matches_committed_baseline_four_shards() {
    assert_matches_baseline("fig17", 4);
}
