//! The percentile helper reports a percentile only with at least ten
//! samples beyond it.

use rbcd_perf::stats::{percentile, PercentileError, MIN_BEYOND};

fn samples(n: usize) -> Vec<f64> {
    (1..=n).map(|k| k as f64).collect()
}

#[test]
fn refuses_a_percentile_with_fewer_than_ten_samples_beyond_it() {
    assert_eq!(MIN_BEYOND, 10);
    // p90 of 100 samples is the 90th; ten lie beyond it.
    assert_eq!(percentile(&samples(100), 0.9), Ok(90.0));
    // p90 of 99 samples is the 90th (nearest rank); only nine lie beyond.
    assert_eq!(
        percentile(&samples(99), 0.9),
        Err(PercentileError::TooFewBeyond {
            q: 0.9,
            samples: 99,
            beyond: 9
        })
    );
    // The median needs 20 samples: the 10th, with ten beyond.
    assert_eq!(percentile(&samples(20), 0.5), Ok(10.0));
    assert!(percentile(&samples(19), 0.5).is_err());
    assert_eq!(percentile(&[], 0.5), Err(PercentileError::Empty));
    // The maximum never has anything beyond it.
    assert!(percentile(&samples(1000), 1.0).is_err());
}

#[test]
fn ignores_sample_order() {
    let mut v = samples(200);
    v.reverse();
    assert_eq!(percentile(&v, 0.9), Ok(180.0));
}
