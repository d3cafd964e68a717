//! Percentile rules and the run-set statistics `compare` relies on.

use mnc_benchmark::compare::{judge, Bound, Verdict};
use mnc_benchmark::stats::{nearest_rank, quartiles, samples_beyond, supported_quantile, tail};

fn ramp(n: usize) -> Vec<f64> {
    (1..=n).map(|i| i as f64).collect()
}

#[test]
fn nearest_rank_quantiles() {
    let v = ramp(100);
    assert_eq!(nearest_rank(&v, 0.5), Some(50.0));
    assert_eq!(nearest_rank(&v, 0.99), Some(99.0));
    assert_eq!(nearest_rank(&v, 1.0), Some(100.0));
    assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
    assert_eq!(nearest_rank(&ramp(3), 0.5), Some(2.0));
    assert_eq!(nearest_rank(&ramp(4), 0.5), Some(2.0));
    assert_eq!(nearest_rank(&[], 0.5), None);
}

#[test]
fn a_p99_needs_ten_samples_beyond_it() {
    assert_eq!(samples_beyond(1000, 0.99), 10);
    assert_eq!(samples_beyond(999, 0.99), 9);
    let thousand = ramp(1000);
    assert_eq!(supported_quantile(&thousand, 0.99), Some(990.0));
    assert_eq!(supported_quantile(&ramp(999), 0.99), None);
    // Too few samples: the tail falls back to the rank that leaves ten.
    let (q, v) = tail(&ramp(500), 0.99).unwrap();
    assert_eq!(v, 490.0);
    assert!((q - 0.98).abs() < 1e-12);
    assert_eq!(tail(&thousand, 0.99), Some((0.99, 990.0)));
    assert_eq!(tail(&ramp(5), 0.99).map(|t| t.1), Some(1.0));
}

#[test]
fn quartiles_match_python_statistics() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    assert_eq!(quartiles(&ramp(10)), Some((2.75, 8.25)));
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
    assert_eq!(quartiles(&[1.0]), None);
}

#[test]
fn compare_verdicts() {
    let lower = Bound {
        name: "latency_p50_ms".into(),
        unit: "ms".into(),
        higher_is_better: false,
        bound: 0.1,
    };
    let tight = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0];
    let slower: Vec<f64> = tight.iter().map(|x| x * 1.2).collect();
    let faster: Vec<f64> = tight.iter().map(|x| x * 0.8).collect();
    assert_eq!(judge(&lower, &tight, &tight).0, Verdict::Ok);
    assert_eq!(judge(&lower, &tight, &slower).0, Verdict::Regressed);
    assert_eq!(judge(&lower, &tight, &faster).0, Verdict::Ok);
    let noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.9, 1.1, 1.0];
    assert_eq!(judge(&lower, &tight, &noisy).0, Verdict::Unresolved);
    // A head that beats every base run is a clear answer despite noise.
    let clearly_faster: Vec<f64> = noisy.iter().map(|x| x * 0.3).collect();
    assert_eq!(judge(&lower, &noisy, &clearly_faster).0, Verdict::Ok);

    let higher = Bound {
        higher_is_better: true,
        ..lower
    };
    assert_eq!(judge(&higher, &tight, &faster).0, Verdict::Regressed);
    assert_eq!(judge(&higher, &tight, &slower).0, Verdict::Ok);
}
