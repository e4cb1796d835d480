//! The summary statistics the benchmark reports.

use polyframe_perfbench::stats::{
    geomean, highest_supported_percentile, median, percentile, quartiles, samples_beyond,
};

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(median(&[]), None);
    assert_eq!(median(&[4.0]), Some(4.0));
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Reference values from `statistics.quantiles(values, n=4)`.
    let cases: [(&[f64], f64, f64); 3] = [
        (
            &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0],
            2.75,
            8.25,
        ),
        (&[1.0, 2.0], 0.75, 2.25),
        (&[3.0, 1.0, 2.0, 10.0, 7.0], 1.5, 8.5),
    ];
    for (values, q1, q3) in cases {
        let (got1, got3) = quartiles(values).expect("two or more values");
        assert!(
            close(got1, q1) && close(got3, q3),
            "{values:?}: {got1} {got3}"
        );
    }
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn geomean_of_positive_values_only() {
    assert!(close(geomean(&[1.0, 100.0]).unwrap(), 10.0));
    assert!(close(geomean(&[2.0, 8.0, 4.0]).unwrap(), 4.0));
    assert_eq!(geomean(&[]), None);
    assert_eq!(geomean(&[1.0, 0.0]), None);
}

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), Some(50.0));
    assert_eq!(percentile(&v, 99.0), Some(99.0));
    assert_eq!(percentile(&v, 100.0), Some(100.0));
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
fn tail_rule_needs_ten_samples_beyond() {
    assert_eq!(samples_beyond(1000, 99.0), 10);
    assert_eq!(samples_beyond(999, 99.0), 9);
    assert_eq!(highest_supported_percentile(19), None);
    assert_eq!(highest_supported_percentile(20), Some(50.0));
    assert_eq!(highest_supported_percentile(100), Some(90.0));
    assert_eq!(highest_supported_percentile(200), Some(95.0));
    assert_eq!(highest_supported_percentile(999), Some(95.0));
    assert_eq!(highest_supported_percentile(1000), Some(99.0));
    assert_eq!(highest_supported_percentile(10_000), Some(99.9));
}
