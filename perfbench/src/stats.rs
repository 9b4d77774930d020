//! Exact order statistics over raw samples the benchmark holds itself.
//!
//! No histogram is involved: every quantile is one of the recorded
//! values, so a reported number carries no bucket rounding.

/// Raw samples of one quantity, in recording order until sorted.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
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

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Nearest-rank quantile: the smallest recorded value with at least a
    /// `q` share of the samples at or below it. `None` when empty.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        self.sort();
        Some(self.values[rank(q, self.values.len())])
    }

    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// How many samples lie strictly beyond the `q` quantile's rank. A
    /// percentile is trustworthy only when at least ten do.
    pub fn beyond(&self, q: f64) -> usize {
        let n = self.values.len();
        if n == 0 {
            return 0;
        }
        n - 1 - rank(q, n)
    }
}

fn rank(q: f64, n: usize) -> usize {
    let r = (q.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(xs: &[f64]) -> Samples {
        let mut s = Samples::new();
        for &x in xs {
            s.push(x);
        }
        s
    }

    #[test]
    fn quantiles_are_recorded_values() {
        let mut s = of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.median(), Some(3.0));
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(5.0));
        assert_eq!(s.quantile(0.8), Some(4.0));
    }

    #[test]
    fn p99_of_a_thousand_has_ten_beyond() {
        let mut s = Samples::new();
        for i in 0..1000 {
            s.push(i as f64);
        }
        assert_eq!(s.quantile(0.99), Some(989.0));
        assert_eq!(s.beyond(0.99), 10);
        assert_eq!(s.beyond(0.5), 500);
    }

    #[test]
    fn empty_has_no_quantile() {
        let mut s = Samples::new();
        assert_eq!(s.median(), None);
        assert_eq!(s.beyond(0.99), 0);
    }
}
