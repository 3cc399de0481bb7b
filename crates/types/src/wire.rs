//! Wire-size accounting.
//!
//! Every bandwidth number in the evaluation (Figures 6–11, 13, 15, 16) is the
//! count of bytes handed to the network layer.  This module centralizes the
//! byte model so that the runtime, the provenance layer and the query engine
//! all account identically.

use crate::tuple::Tuple;

/// Fixed per-message header: source, destination, message type and length.
pub const MESSAGE_HEADER_BYTES: usize = 12;

/// UDP/IP overhead added to every message sent between distinct nodes
/// (the paper's deployment communicates via UDP packets).
pub const UDP_IP_HEADER_BYTES: usize = 28;

/// The reference-based provenance annotation shipped with every derived
/// tuple: the 20-byte `RID` plus the 4-byte `RLoc` (paper §4.1.2 quotes
/// "only the 20-byte RLoc and RID attributes").
pub const REFERENCE_ANNOTATION_BYTES: usize = 20 + 4;

/// Returns the number of bytes of a message that carries `tuples` plus an
/// opaque provenance annotation of `annotation_bytes` bytes.
pub fn message_size(tuples: &[Tuple], annotation_bytes: usize) -> usize {
    MESSAGE_HEADER_BYTES
        + UDP_IP_HEADER_BYTES
        + tuples.iter().map(Tuple::wire_size).sum::<usize>()
        + annotation_bytes
}

/// A running bandwidth accumulator that buckets bytes into fixed-width time
/// windows, producing the "average bandwidth over time" series used by
/// Figures 8–11, 13, 15 and 16.
#[derive(Debug, Clone)]
pub struct BandwidthSeries {
    bucket_width: f64,
    buckets: Vec<u64>,
}

impl BandwidthSeries {
    /// Creates a series with buckets of `bucket_width` (simulated seconds).
    pub fn new(bucket_width: f64) -> Self {
        assert!(bucket_width > 0.0, "bucket width must be positive");
        BandwidthSeries {
            bucket_width,
            buckets: Vec::new(),
        }
    }

    /// Records `bytes` transmitted at simulated time `time`.
    pub fn record(&mut self, time: f64, bytes: usize) {
        let idx = (time / self.bucket_width).floor() as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += bytes as u64;
    }

    /// Returns `(bucket_start_time, bytes_per_second)` samples.
    pub fn samples(&self) -> Vec<(f64, f64)> {
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, &b)| (i as f64 * self.bucket_width, b as f64 / self.bucket_width))
            .collect()
    }

    /// Total bytes recorded.
    pub fn total_bytes(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Adds another series into this one, bucket by bucket.  Buckets hold
    /// integral byte counts, so the merge is exact regardless of merge order
    /// — the property the sharded runtime relies on for bit-identical
    /// bandwidth figures.
    pub fn merge_from(&mut self, other: &BandwidthSeries) {
        assert_eq!(
            self.bucket_width, other.bucket_width,
            "cannot merge series with different bucket widths"
        );
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

    #[test]
    fn message_size_includes_headers_and_annotation() {
        let t = Tuple::new("link", 1, vec![Value::Node(2), Value::Int(3)]);
        let sz = message_size(std::slice::from_ref(&t), 24);
        assert_eq!(
            sz,
            MESSAGE_HEADER_BYTES + UDP_IP_HEADER_BYTES + t.wire_size() + 24
        );
    }

    #[test]
    fn bandwidth_series_buckets_by_time() {
        let mut s = BandwidthSeries::new(0.5);
        s.record(0.1, 100);
        s.record(0.4, 100);
        s.record(0.6, 50);
        s.record(2.2, 10);
        let samples = s.samples();
        assert_eq!(samples.len(), 5);
        assert_eq!(samples[0], (0.0, 400.0)); // 200 bytes / 0.5 s
        assert_eq!(samples[1], (0.5, 100.0));
        assert_eq!(samples[2].1, 0.0);
        assert_eq!(samples[4].1, 20.0);
        assert_eq!(s.total_bytes(), 260);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bucket_width_rejected() {
        BandwidthSeries::new(0.0);
    }

    #[test]
    fn series_merge_is_bucketwise_and_exact() {
        let mut a = BandwidthSeries::new(0.5);
        a.record(0.1, 100);
        let mut b = BandwidthSeries::new(0.5);
        b.record(0.2, 50);
        b.record(1.7, 25);
        a.merge_from(&b);
        assert_eq!(a.total_bytes(), 175);
        let samples = a.samples();
        assert_eq!(samples[0].1, 300.0); // 150 B / 0.5 s
        assert_eq!(samples[3].1, 50.0); // 25 B / 0.5 s
    }

    #[test]
    #[should_panic(expected = "bucket widths")]
    fn series_merge_rejects_mismatched_widths() {
        let mut a = BandwidthSeries::new(0.5);
        a.merge_from(&BandwidthSeries::new(1.0));
    }
}
