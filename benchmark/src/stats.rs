//! Order statistics and effective-sample-size estimators.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks; NaN on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Sample variance (divisor `n - 1`); 0 below two values.
pub fn variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    values.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (values.len() - 1) as f64
}

/// Effective sample size of an autocorrelated chain by **batch means**:
/// `n · Var(x) / (b · Var(batch means))` with batches of `b = ⌊n^(2/3)⌋`
/// states, capped at `n`. Batches this long still hold a sticky chain's
/// long excursions, which `√n`-state batches split and so overcount. A
/// chain that never left its first state shows nothing about its mixing
/// and counts as one sample.
pub fn batch_means_ess(chain: &[f64]) -> f64 {
    let n = chain.len();
    if n < 8 {
        return n as f64;
    }
    let b = ((n as f64).powf(2.0 / 3.0).floor() as usize).min(n / 2);
    let batches = n / b;
    let means: Vec<f64> = (0..batches)
        .map(|k| mean(&chain[k * b..(k + 1) * b]))
        .collect();
    let var_x = variance(&chain[..batches * b]);
    let var_bm = b as f64 * variance(&means);
    if var_x == 0.0 {
        return 1.0;
    }
    if var_bm == 0.0 {
        return n as f64;
    }
    (n as f64 * var_x / var_bm).min(n as f64)
}

/// Effective sample size of a 0/1 indicator chain: the batch-means ESS,
/// capped at one more than the number of times the chain changed value.
/// A rare state visited once or twice leaves batch means nothing to see,
/// and the batch-means figure then counts every state as independent;
/// the chain has carried at most one fresh sample per visit.
pub fn indicator_ess(chain: &[f64]) -> f64 {
    let changes = chain.windows(2).filter(|w| w[0] != w[1]).count();
    batch_means_ess(chain).min(changes as f64 + 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn batch_means_ess_sees_independence_and_stickiness() {
        let mut rng = SplitMix::new(5);
        let iid: Vec<f64> = (0..10_000).map(|_| rng.next_f64()).collect();
        let ess = batch_means_ess(&iid);
        assert!(ess > 5_000.0, "independent draws keep most of n: {ess}");
        // A chain that repeats each state 50 times carries ~n/50 samples.
        let sticky: Vec<f64> = iid.iter().step_by(50).flat_map(|&x| [x; 50]).collect();
        let ess = batch_means_ess(&sticky);
        assert!(ess < 600.0, "a sticky chain's ESS collapses: {ess}");
        // One long excursion in a 0/1 chain is worth a handful of samples.
        let mut excursion = vec![1.0; 1_000];
        excursion[300..800].iter_mut().for_each(|x| *x = 0.0);
        let ess = batch_means_ess(&excursion);
        assert!(ess < 10.0, "one excursion is a few samples: {ess}");
        assert_eq!(
            batch_means_ess(&[1.0; 5_000]),
            1.0,
            "a stuck chain is one sample"
        );
    }

    #[test]
    fn indicator_ess_counts_at_most_one_sample_per_visit() {
        // One short visit to a rare state: batch means count every state.
        let mut rare = vec![1.0; 1_000];
        rare[500] = 0.0;
        assert!(batch_means_ess(&rare) > 900.0);
        assert_eq!(indicator_ess(&rare), 3.0);
        // A chain that changes often keeps its batch-means ESS.
        let flips: Vec<f64> = (0..1_000).map(|i| f64::from(i % 2)).collect();
        assert_eq!(indicator_ess(&flips), batch_means_ess(&flips));
    }
}
