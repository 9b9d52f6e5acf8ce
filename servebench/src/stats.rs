//! Order statistics and the result line.

use std::collections::BTreeMap;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples` by linear interpolation
/// between closest ranks; `0.0` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The mean; `0.0` for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or `0.0` when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Named metrics with units and sample counts, in name order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: BTreeMap<String, (f64, &'static str, usize)>,
}

impl Metrics {
    /// Records `name = value unit` over `samples` samples.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str, samples: usize) {
        self.entries.insert(name.into(), (value, unit, samples));
    }

    /// Multiplies every time (units `s`, `ms`, `us`) by `k` and divides
    /// every rate (`1/s`) by it; other units are left alone.
    pub fn scale_times(&mut self, k: f64) {
        for (v, unit, _) in self.entries.values_mut() {
            match *unit {
                "s" | "ms" | "us" => *v *= k,
                "1/s" => *v /= k,
                _ => {}
            }
        }
    }

    /// One `name value unit (n=samples)` line per metric.
    pub fn report(&self) -> String {
        self.entries
            .iter()
            .map(|(k, (v, u, n))| format!("#   {k:<40} {v:>14.4} {u:<6} (n={n})\n"))
            .collect()
    }

    /// The result line's `metrics` object.
    pub fn to_json(&self) -> String {
        let parts: Vec<String> = self
            .entries
            .iter()
            .map(|(k, (v, u, _))| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{k}\":{{\"value\":{v},\"unit\":\"{u}\"}}")
            })
            .collect();
        format!("{{{}}}", parts.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn scaling_touches_times_and_rates_only() {
        let mut m = Metrics::default();
        m.put("t", 3.0, "ms", 1);
        m.put("r", 10.0, "1/s", 1);
        m.put("n", 7.0, "count", 1);
        m.scale_times(0.5);
        assert_eq!(
            m.to_json(),
            "{\"n\":{\"value\":7,\"unit\":\"count\"},\"r\":{\"value\":20,\"unit\":\"1/s\"},\
             \"t\":{\"value\":1.5,\"unit\":\"ms\"}}"
        );
    }

    #[test]
    fn metrics_render_in_name_order() {
        let mut m = Metrics::default();
        m.put("b", 2.5, "ms", 3);
        m.put("a", 1.0, "s", 1);
        assert_eq!(
            m.to_json(),
            "{\"a\":{\"value\":1,\"unit\":\"s\"},\"b\":{\"value\":2.5,\"unit\":\"ms\"}}"
        );
    }
}
