//! Order statistics over measured samples.

/// Quantile `q` (0..=1) of ascending `sorted` values, interpolating
/// linearly between the two closest ranks (numpy's default). `None` for an
/// empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// Median of unsorted values (`None` when empty).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The `share` of `items` (at least one, when there are any) during which
/// the host stole the least CPU time, in their original order. Ties keep
/// the earlier item.
pub fn quietest<T>(items: &[T], share: f64, steal: impl Fn(&T) -> f64) -> Vec<&T> {
    let keep =
        ((items.len() as f64 * share).ceil() as usize).clamp(1.min(items.len()), items.len());
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_by(|&a, &b| {
        steal(&items[a])
            .total_cmp(&steal(&items[b]))
            .then(a.cmp(&b))
    });
    order.truncate(keep);
    order.sort_unstable();
    order.into_iter().map(|i| &items[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(10.0));
        assert_eq!(quantile(&v, 0.5), Some(5.5));
        let p90 = quantile(&v, 0.9).unwrap();
        assert!((p90 - 9.1).abs() < 1e-12, "{p90}");
    }

    #[test]
    fn quantile_edge_cases() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
        // Out-of-range q clamps to the extremes.
        assert_eq!(quantile(&[1.0, 2.0], 1.5), Some(2.0));
        assert_eq!(quantile(&[1.0, 2.0], -1.0), Some(1.0));
    }

    #[test]
    fn median_sorts_its_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quietest_keeps_the_least_stolen_share_in_order() {
        let steal = [0.3, 0.0, 0.2, 0.05, 0.0, 0.4, 0.1, 0.25];
        let picked: Vec<f64> = quietest(&steal, 0.25, |s| *s)
            .into_iter()
            .copied()
            .collect();
        assert_eq!(picked, vec![0.0, 0.0]);
        let picked: Vec<f64> = quietest(&steal, 0.5, |s| *s).into_iter().copied().collect();
        assert_eq!(picked, vec![0.0, 0.05, 0.0, 0.1]);
        // A share rounds up, and never drops below one item.
        assert_eq!(quietest(&steal, 0.01, |s| *s).len(), 1);
        assert_eq!(quietest(&[1.0, 2.0, 3.0], 0.5, |s| *s).len(), 2);
        assert!(quietest(&[] as &[f64], 0.5, |s| *s).is_empty());
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }
}
