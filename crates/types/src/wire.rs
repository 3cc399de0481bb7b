//! Wire-size accounting.
//!
//! Every bandwidth number in the evaluation (Figures 6–11, 13, 15, 16) is the
//! count of bytes handed to the network layer.  This module centralizes the
//! byte model so that the runtime, the provenance layer and the query engine
//! all account identically.
//!
//! The byte model is the paper's, not the bytes [`crate::codec`] writes, and
//! cannot be derived from them.  A tuple costs a 7-byte header (2-byte
//! relation id, 4-byte location, 1-byte attribute count); an int or a node
//! costs 4 bytes; a string or a list has a 2-byte header
//! ([`crate::tuple::Tuple::wire_size`], [`crate::value::Value::wire_size`]).
//! The codec writes a tag before every value, ints as 8 bytes, string and
//! list lengths as 4 bytes and the relation by name.  Deriving either from
//! the other would move every figure.

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
/// Figures 8–11, 13, 15 and 16.  It holds only the buckets something was
/// recorded in, so its memory follows the traffic, not the clock.
#[derive(Debug, Clone)]
pub struct BandwidthSeries {
    bucket_width: f64,
    /// The recorded buckets, as `(index, bytes)` pairs in index order.
    buckets: Vec<(u64, u64)>,
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
        self.add((time / self.bucket_width).floor() as u64, bytes as u64);
    }

    /// Adds `bytes` to bucket `idx`: an append while time moves forward, a
    /// binary-search insert otherwise.
    fn add(&mut self, idx: u64, bytes: u64) {
        let at = match self.buckets.last() {
            Some(&(last, _)) if last == idx => Ok(self.buckets.len() - 1),
            Some(&(last, _)) if last > idx => self.buckets.binary_search_by_key(&idx, |b| b.0),
            _ => Err(self.buckets.len()),
        };
        match at {
            Ok(at) => self.buckets[at].1 += bytes,
            Err(at) => self.buckets.insert(at, (idx, bytes)),
        }
    }

    /// Returns `(bucket_start_time, bytes_per_second)` samples, every bucket
    /// up to the last recorded one, zeros included.
    pub fn samples(&self) -> Vec<(f64, f64)> {
        let w = self.bucket_width;
        let len = self.buckets.last().map_or(0, |b| b.0 + 1);
        let mut samples: Vec<_> = (0..len).map(|i| (i as f64 * w, 0.0)).collect();
        for &(i, b) in &self.buckets {
            samples[i as usize].1 = b as f64 / w;
        }
        samples
    }

    /// Total bytes recorded.
    pub fn total_bytes(&self) -> u64 {
        self.buckets.iter().map(|b| b.1).sum()
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
        for &(idx, bytes) in &other.buckets {
            self.add(idx, bytes);
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
