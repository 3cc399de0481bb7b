//! A bandwidth series holds the buckets traffic fell in, not every bucket
//! up to the clock: a record far in simulated time costs one bucket.

use exspan_types::wire::BandwidthSeries;

#[test]
fn a_record_far_in_time_costs_one_bucket() {
    let mut s = BandwidthSeries::new(0.1);
    s.record(0.05, 100);
    s.record(1e12, 7);
    // A dense series would hold 1e13 buckets here; only the totals are read.
    assert_eq!(s.total_bytes(), 107);
    let mut merged = BandwidthSeries::new(0.1);
    merged.record(5e11, 3);
    merged.merge_from(&s);
    assert_eq!(merged.total_bytes(), 110);
}

#[test]
fn records_out_of_time_order_sample_as_in_order() {
    let records: [(f64, usize); 6] = [
        (0.31, 13),
        (0.05, 11),
        (0.9, 15),
        (0.32, 14),
        (0.06, 12),
        (0.0, 10),
    ];
    let mut in_order = records;
    in_order.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut forward, mut shuffled) = (BandwidthSeries::new(0.1), BandwidthSeries::new(0.1));
    for (t, bytes) in in_order {
        forward.record(t, bytes);
    }
    for (t, bytes) in records {
        shuffled.record(t, bytes);
    }
    assert_eq!(forward.samples(), shuffled.samples());
    let samples = forward.samples();
    assert_eq!(samples.len(), 10);
    assert_eq!(samples[0].1, (10 + 11 + 12) as f64 / 0.1);
    assert_eq!(samples[1].1, 0.0);
    assert_eq!(samples[3].1, (13 + 14) as f64 / 0.1);
}
