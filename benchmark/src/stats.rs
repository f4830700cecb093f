//! Order statistics over measured samples.
//!
//! Quantiles use the nearest-rank definition: the `q`-quantile of `n`
//! sorted samples is the sample at 1-based rank `ceil(q · n)` (clamped to
//! `1..=n`). It never interpolates, so every reported percentile is a
//! latency some request actually saw.

/// Nearest-rank `q`-quantile of `sorted` (ascending); 0 when empty.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Nearest-rank `q`-quantile of unsorted samples; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    quantile_sorted(&v, q)
}

/// Median (nearest-rank 0.5-quantile); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Largest sample; 0 when empty.
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

/// Samples that lie strictly above the nearest-rank `q`-quantile — how
/// well a tail percentile is supported by data.
pub fn samples_beyond(samples: usize, q: f64) -> usize {
    if samples == 0 {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * samples as f64).ceil() as usize).clamp(1, samples);
    samples - rank
}

/// The values of `(at, value)` points split into consecutive
/// `width`-second windows covering `[0, span)`; empty windows and points
/// outside the span are dropped.
pub fn windows(points: &[(f64, f64)], width: f64, span: f64) -> Vec<Vec<f64>> {
    let n = (span / width).floor().max(1.0) as usize;
    let mut out: Vec<Vec<f64>> = vec![Vec::new(); n];
    for &(at, v) in points {
        let w = (at / width).floor();
        if w >= 0.0 && (w as usize) < n {
            out[w as usize].push(v);
        }
    }
    out.retain(|w| !w.is_empty());
    out
}

/// Median over `windows` of each window's nearest-rank `q`-quantile.
pub fn median_of_windows(windows: &[Vec<f64>], q: f64) -> f64 {
    median(&windows.iter().map(|w| quantile(w, q)).collect::<Vec<_>>())
}

/// Total length of the union of half-open intervals `[start, end)`.
pub fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        // Order of the input does not matter.
        let rev: Vec<f64> = v.iter().rev().copied().collect();
        assert_eq!(quantile(&rev, 0.9), 90.0);
        // Never interpolates: the answer is always one of the samples.
        assert_eq!(quantile(&[1.0, 10.0], 0.5), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_support_counts() {
        // p99 of 10 000 samples has exactly 100 samples past it.
        assert_eq!(samples_beyond(10_000, 0.99), 100);
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(0, 0.99), 0);
    }

    #[test]
    fn windowed_figures_ignore_a_stalled_window() {
        // Three 1-second windows; the middle one stalls.
        let mut pts: Vec<(f64, f64)> = (0..300)
            .map(|i| {
                let at = f64::from(i) / 100.0;
                let v = if (1.0..2.0).contains(&at) {
                    1000.0
                } else {
                    f64::from(i % 100)
                };
                (at, v)
            })
            .collect();
        pts.push((3.5, 1e9)); // past the span: ignored
        let w = windows(&pts, 1.0, 3.0);
        assert_eq!(w.len(), 3);
        assert!(w.iter().all(|w| w.len() == 100));
        assert_eq!(median_of_windows(&w, 0.99), 98.0);
        assert_eq!(median_of_windows(&w, 0.5), 49.0);
    }

    #[test]
    fn mean_max_and_unions() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(max(&[1.0, 5.0, 3.0]), 5.0);
        assert_eq!(union_len(&mut [(0, 10), (5, 15), (20, 25)]), 20);
        assert_eq!(union_len(&mut [(3, 4)]), 1);
        assert_eq!(union_len(&mut []), 0);
    }
}
