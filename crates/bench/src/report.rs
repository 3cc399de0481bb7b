//! Reporting types for experiment output.

use serde::{Deserialize, JsonError, JsonValue, Serialize};

/// Writes and reads each struct as a JSON object with one member per field —
/// the encoding of the `BENCH_<figure>.json` files.
macro_rules! json_records {
    ($($name:ident: $($field:ident),+;)+) => {$(
        impl Serialize for $name {
            fn json_into(&self, out: &mut String) {
                let fields: &[(&str, &dyn Serialize)] =
                    &[$((stringify!($field), &self.$field)),+];
                for (i, (name, value)) in fields.iter().enumerate() {
                    out.push(if i == 0 { '{' } else { ',' });
                    serde::write_json_string(name, out);
                    out.push(':');
                    value.json_into(out);
                }
                out.push('}');
            }
        }

        impl Deserialize for $name {
            fn from_json_value(v: &JsonValue) -> Result<Self, JsonError> {
                Ok($name {
                    $($field: Deserialize::from_json_value(v.get_field(stringify!($field))?)?),+
                })
            }
        }
    )+};
}

json_records! {
    Series: label, points;
    FigureReport: id, title, x_label, y_label, series, expected_shape;
    BenchSeries: label, mean, max, last, points;
    BenchReport: figure, title, scale, shards, wall_clock_seconds, y_label, series;
}

/// One named data series of a figure, e.g. the "Ref-based Prov." curve.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label (matching the paper's figure legends where applicable).
    pub label: String,
    /// `(x, y)` samples.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Creates a series.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Series {
            label: label.into(),
            points,
        }
    }

    /// Maximum y value (0 if empty).
    pub fn max_y(&self) -> f64 {
        self.points.iter().fold(0.0, |m, &(_, y)| m.max(y))
    }

    /// Mean y value (0 if empty).
    pub fn mean_y(&self) -> f64 {
        if self.points.is_empty() {
            0.0
        } else {
            self.points.iter().map(|&(_, y)| y).sum::<f64>() / self.points.len() as f64
        }
    }

    /// y value at the largest x (0 if empty).
    pub fn last_y(&self) -> f64 {
        self.points.last().map_or(0.0, |&(_, y)| y)
    }
}

/// The regenerated data of one figure of the paper.
#[derive(Debug, Clone)]
pub struct FigureReport {
    /// Figure identifier, e.g. `"fig6"`.
    pub id: String,
    /// Human-readable title of the figure.
    pub title: String,
    /// x-axis label.
    pub x_label: String,
    /// y-axis label.
    pub y_label: String,
    /// The data series.
    pub series: Vec<Series>,
    /// The qualitative shape the paper reports, for comparison.
    pub expected_shape: String,
}

/// Per-series summary statistics inside a [`BenchReport`].
#[derive(Debug, Clone)]
pub struct BenchSeries {
    /// Legend label.
    pub label: String,
    /// Mean of the series' y values (the bandwidth / comm-cost metric).
    pub mean: f64,
    /// Maximum y value.
    pub max: f64,
    /// y value at the largest x.
    pub last: f64,
    /// Number of samples.
    pub points: usize,
}

/// The machine-readable benchmark record written as `BENCH_<figure>.json`.
///
/// Everything except `wall_clock_seconds` is a function of the simulated
/// protocol run and therefore deterministic: CI regenerates these files and
/// diffs them against the committed baselines (`scripts/check_bench.sh`).
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Figure identifier, e.g. `"fig6"`.
    pub figure: String,
    /// Human-readable title of the figure.
    pub title: String,
    /// Scale preset the run used (`"tiny"`, `"small"`, `"paper"`).
    pub scale: String,
    /// Shard count of the runtime that produced the numbers.
    pub shards: usize,
    /// Wall-clock seconds spent regenerating the figure (informational; CI
    /// gates only on the deterministic series statistics).
    pub wall_clock_seconds: f64,
    /// y-axis unit of the series statistics.
    pub y_label: String,
    /// Summary statistics per data series.
    pub series: Vec<BenchSeries>,
}

impl BenchReport {
    /// Builds the benchmark record of one regenerated figure.
    pub fn from_figure(
        report: &FigureReport,
        scale: &str,
        shards: usize,
        wall_clock_seconds: f64,
    ) -> Self {
        BenchReport {
            figure: report.id.clone(),
            title: report.title.clone(),
            scale: scale.to_string(),
            shards,
            wall_clock_seconds,
            y_label: report.y_label.clone(),
            series: report
                .series
                .iter()
                .map(|s| BenchSeries {
                    label: s.label.clone(),
                    mean: s.mean_y(),
                    max: s.max_y(),
                    last: s.last_y(),
                    points: s.points.len(),
                })
                .collect(),
        }
    }

    /// Finds a series summary by label.
    pub fn series(&self, label: &str) -> Option<&BenchSeries> {
        self.series.iter().find(|s| s.label == label)
    }

    /// The file name this record is stored under (`BENCH_<figure>.json`).
    pub fn file_name(&self) -> String {
        format!("BENCH_{}.json", self.figure)
    }
}

impl FigureReport {
    /// Renders the report as a readable text table.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {}\n", self.id, self.title));
        out.push_str(&format!("   x: {}, y: {}\n", self.x_label, self.y_label));
        for s in &self.series {
            out.push_str(&format!("   [{}]\n", s.label));
            for (x, y) in &s.points {
                out.push_str(&format!("     {x:>10.3}  {y:>12.4}\n"));
            }
        }
        out.push_str(&format!("   paper shape: {}\n", self.expected_shape));
        out
    }

    /// Finds a series by label.
    pub fn series(&self, label: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.label == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_statistics() {
        let s = Series::new("x", vec![(0.0, 1.0), (1.0, 3.0), (2.0, 2.0)]);
        assert_eq!(s.max_y(), 3.0);
        assert_eq!(s.mean_y(), 2.0);
        assert_eq!(s.last_y(), 2.0);
        let empty = Series::new("e", vec![]);
        assert_eq!(empty.max_y(), 0.0);
        assert_eq!(empty.mean_y(), 0.0);
        assert_eq!(empty.last_y(), 0.0);
    }

    #[test]
    fn report_renders_and_looks_up() {
        let r = FigureReport {
            id: "fig0".into(),
            title: "test".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            series: vec![Series::new("A", vec![(1.0, 2.0)])],
            expected_shape: "flat".into(),
        };
        let text = r.to_text();
        assert!(text.contains("fig0"));
        assert!(text.contains("[A]"));
        assert!(r.series("A").is_some());
        assert!(r.series("B").is_none());
        // JSON round trip
        let json = serde_json::to_string(&r).unwrap();
        let back: FigureReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.series.len(), 1);
    }
}
