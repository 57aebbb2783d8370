//! Order statistics used by every reported timing.

/// The value at quantile `q` (0..=1) of `sorted`, nearest-rank.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile not above `want` that has at least ten
/// samples beyond it, and its value: with `n` samples, percentile `p`
/// leaves `n * (1 - p)` samples above it. Returns `None` when fewer
/// than ten samples exist at all.
pub fn tail_percentile(sorted: &[f64], want: f64) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n <= 10 {
        return None;
    }
    // Largest p with n * (1 - p) >= 10, i.e. p <= 1 - 10/n.
    let p = want.min(1.0 - 10.0 / n as f64);
    // Nearest rank leaves exactly n - ceil(p n) samples above.
    let rank = (p * n as f64 + 1e-9).floor() as usize;
    let rank = rank.min(n - 10).max(1);
    Some((rank as f64 / n as f64, sorted[rank - 1]))
}

/// Which direction of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times).
    Lower,
    /// Larger is better (rates).
    Higher,
}

/// The quartile of `values` on the better side: the lower quartile of
/// a time, the upper quartile of a rate (nearest rank).
pub fn better_quartile(values: &[f64], better: Better) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match better {
        Better::Lower => quantile(&v, 0.25),
        Better::Higher => quantile(&v, 0.75),
    }
}

/// The set-up time a run reports: the sum over set-up phases of each
/// phase's better (lower) quartile across repetitions. Each phase is
/// short, so a disturbance of a few seconds spoils only the phases it
/// overlaps, in the repetition it hits. Falls back to the better
/// quartile of the `totals` unless every repetition completed the
/// same phases.
pub fn setup_time(totals: &[f64], parts: &[Vec<f64>]) -> f64 {
    let phases = parts.first().map_or(0, Vec::len);
    if parts.len() != totals.len() || phases == 0 || parts.iter().any(|p| p.len() != phases) {
        return better_quartile(totals, Better::Lower);
    }
    (0..phases)
        .map(|j| {
            better_quartile(
                &parts.iter().map(|p| p[j]).collect::<Vec<_>>(),
                Better::Lower,
            )
        })
        .sum()
}

/// Splits `(time_ns, value)` samples into `parts` equal sub-windows of
/// each `(start_ns, len_ns)` span, each sorted. A sample belongs to the
/// last span starting at or before it, clamped into that span's first
/// or last sub-window.
pub fn windows(samples: &[(u64, f64)], spans: &[(u64, u64)], parts: usize) -> Vec<Vec<f64>> {
    let mut out = vec![Vec::new(); parts * spans.len()];
    if spans.is_empty() {
        return out;
    }
    for &(t, v) in samples {
        let s = spans.partition_point(|sp| sp.0 <= t).saturating_sub(1);
        let (start, len) = spans[s];
        let part = (len / parts as u64).max(1);
        let i = (t.saturating_sub(start) / part) as usize;
        out[s * parts + i.min(parts - 1)].push(v);
    }
    for w in &mut out {
        w.sort_by(f64::total_cmp);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        // 1000 samples: p99 leaves exactly ten above it.
        let (p, v) = tail_percentile(&ramp(1000), 0.99).expect("enough samples");
        assert!((p - 0.99).abs() < 1e-12);
        assert_eq!(v, 990.0);
        assert_eq!(ramp(1000).iter().filter(|x| **x > v).count(), 10);
    }

    #[test]
    fn fewer_samples_fall_back_to_a_lower_percentile() {
        // 200 samples: at most p95 keeps ten beyond it.
        let s = ramp(200);
        let (p, v) = tail_percentile(&s, 0.99).expect("enough samples");
        assert!((p - 0.95).abs() < 1e-12, "got p{}", p * 100.0);
        assert_eq!(s.iter().filter(|x| **x > v).count(), 10);
        // Always at least ten beyond, for any size.
        for n in 11..2000 {
            let s = ramp(n);
            let (_, v) = tail_percentile(&s, 0.99).expect("enough samples");
            assert!(s.iter().filter(|x| **x > v).count() >= 10, "n={n}");
        }
    }

    #[test]
    fn too_few_samples_report_nothing() {
        assert_eq!(tail_percentile(&ramp(10), 0.99), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn windows_split_by_time() {
        let samples: Vec<(u64, f64)> = (0..100).map(|i| (1000 + i * 10, (99 - i) as f64)).collect();
        let w = windows(&samples, &[(1000, 1000)], 4);
        assert_eq!(w.len(), 4);
        assert!(w.iter().all(|x| x.len() == 25));
        assert_eq!(w[0][0], 75.0);
        assert!(w[0].windows(2).all(|p| p[0] <= p[1]));
    }

    #[test]
    fn windows_follow_each_span() {
        // Two spans of 100 ns with a gap; samples past a span's end fall
        // into its last window, not the next span's first.
        let spans = [(0, 100), (500, 100)];
        let samples = [(10, 1.0), (60, 2.0), (130, 3.0), (510, 4.0), (599, 5.0)];
        let w = windows(&samples, &spans, 2);
        assert_eq!(w, vec![vec![1.0], vec![2.0, 3.0], vec![4.0], vec![5.0]]);
        assert!(windows(&samples, &[], 2).is_empty());
    }

    #[test]
    fn setup_time_sums_each_phases_better_quartile() {
        // A disturbance hits phase 0 of the first repetition and phase 1
        // of the second; neither reaches the reported time.
        let parts = vec![
            vec![9.0, 1.0],
            vec![1.0, 9.0],
            vec![1.0, 1.0],
            vec![2.0, 2.0],
        ];
        let totals: Vec<f64> = parts.iter().map(|p| p.iter().sum()).collect();
        assert_eq!(setup_time(&totals, &parts), 2.0);
        // A repetition past its deadline has no phases: totals decide.
        assert_eq!(setup_time(&[10.0, 40.0], &[vec![4.0, 6.0]]), 10.0);
        assert_eq!(setup_time(&[], &[]), 0.0);
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&ramp(100), 0.5), 50.0);
        assert_eq!(quantile(&ramp(100), 1.0), 100.0);
        // Eight windows: the second best either way.
        let w = [5.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0];
        assert_eq!(better_quartile(&w, Better::Lower), 2.0);
        assert_eq!(better_quartile(&w, Better::Higher), 6.0);
    }
}
