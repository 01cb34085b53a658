//! Raw timing samples and exact percentiles.
//!
//! Every reported timing is computed here from the raw samples — never
//! from the program's log₂-bucketed `obs::Histogram`, whose quantiles
//! are bucket bounds and cannot show a change smaller than 2×.

/// A growable list of raw measurements in one unit.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// The exact `q`-quantile, interpolating linearly between the two
    /// closest ranks (`statistics.quantiles(..., method="inclusive")`).
    /// `None` without samples.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let v = self.sorted();
        if v.is_empty() {
            return None;
        }
        let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
    }

    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// The `q`-quantile only when at least ten samples lie beyond it,
    /// the smallest tail a sample of this size supports.
    pub fn tail(&self, q: f64) -> Option<f64> {
        let beyond = (self.values.len() as f64 * (1.0 - q)).floor();
        if beyond >= 10.0 {
            self.quantile(q)
        } else {
            None
        }
    }

    pub fn max(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::max)
    }

    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    pub fn mean(&self) -> Option<f64> {
        (!self.values.is_empty()).then(|| self.sum() / self.values.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn of(values: &[f64]) -> Samples {
        let mut s = Samples::default();
        for &v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median(), Some(2.5));
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(4.0));
        assert_eq!(of(&[]).median(), None);
    }

    #[test]
    fn tails_need_ten_samples_beyond() {
        let small = of(&(0..999).map(f64::from).collect::<Vec<_>>());
        assert_eq!(small.tail(0.99), None);
        let big = of(&(0..1000).map(f64::from).collect::<Vec<_>>());
        assert!(big.tail(0.99).is_some());
    }
}
