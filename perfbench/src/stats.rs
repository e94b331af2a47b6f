//! The one percentile definition every metric uses: nearest rank.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// such that at least `p` percent of the samples are at or below it
/// (rank `ceil(p/100 * n)`, 1-based). `None` on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// A bag of measurements of one quantity.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: Samples) {
        self.values.extend(other.values);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Nearest-rank percentile; 0.0 when there are no samples (the
    /// report prints the sample count beside it, so an empty bag shows).
    pub fn pct(&mut self, p: f64) -> f64 {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        percentile(&self.values, p).unwrap_or(0.0)
    }

    pub fn median(&mut self) -> f64 {
        self.pct(50.0)
    }
}

/// Samples needed beyond a percentile before the report uses it as a
/// tail: the highest percentile with at least this many samples above it.
const TAIL_MIN_BEYOND: usize = 10;

/// Whether `n` samples support percentile `p` as a tail.
pub fn supports_tail(n: usize, p: f64) -> bool {
    n as f64 * (1.0 - p / 100.0) >= TAIL_MIN_BEYOND as f64 - 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_inputs() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        let h: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&h, 99.0), Some(990.0));
        assert_eq!(percentile(&h, 50.0), Some(500.0));
    }

    #[test]
    fn samples_sort_lazily_and_accept_any_order() {
        let mut s = Samples::default();
        for v in [3.0, 1.0, 2.0, 5.0, 4.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 3.0);
        s.push(0.5);
        assert_eq!(s.pct(100.0), 5.0);
        assert_eq!(s.pct(1.0), 0.5);
        assert_eq!(s.len(), 6);
        assert_eq!(Samples::default().median(), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(supports_tail(1000, 99.0));
        assert!(!supports_tail(999, 99.0));
        assert!(supports_tail(40, 75.0));
        assert!(!supports_tail(39, 75.0));
    }
}
