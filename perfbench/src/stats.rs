//! Exact order statistics over raw samples, and the metric report the
//! benchmark prints.

use std::fmt::Write as _;

/// Raw samples of one quantity, in the unit they are reported in.
#[derive(Default, Clone)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(f64::NAN, f64::max)
    }

    /// The nearest-rank `q`-quantile and the number of samples above
    /// it, or `None` when there are no samples.
    pub fn quantile(&self, q: f64) -> Option<(f64, usize)> {
        if self.0.is_empty() {
            return None;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some((sorted[rank - 1], n - rank))
    }

    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5).map(|(v, _)| v)
    }
}

pub fn secs_us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    n: usize,
}

/// Every metric of one run, in the order measured.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    /// Percentiles that lacked ten samples beyond them.
    pub unsupported: Vec<String>,
}

impl Report {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            n,
        });
    }

    /// Reports the `q`-quantile of `samples`, which is only valid with
    /// at least ten samples beyond it; otherwise the name is recorded
    /// as unsupported and nothing is reported.
    pub fn pct(&mut self, name: &str, samples: &Samples, q: f64, unit: &'static str) {
        match samples.quantile(q) {
            Some((v, beyond)) if beyond >= 10 => self.put(name, v, unit, samples.len()),
            _ => self
                .unsupported
                .push(format!("{name} (n={})", samples.len())),
        }
    }

    /// Reports the median and the maximum of `samples` under the two
    /// names (per-layer timings with few calls, such as checkpoints).
    pub fn median_max(&mut self, p50: &str, max: &str, samples: &Samples, unit: &'static str) {
        if let Some(v) = samples.median() {
            self.put(p50, v, unit, samples.len());
            self.put(max, samples.max(), unit, samples.len());
        } else {
            self.unsupported.push(format!("{p50} (n=0)"));
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// One human-readable line per metric: name, value, unit, samples.
    pub fn print(&self, workload: &str) {
        for m in &self.metrics {
            println!("{workload} {} = {} {} (n={})", m.name, m.value, m.unit, m.n);
        }
    }

    /// The result object: `names` selects the metrics it carries.
    pub fn result_json(
        &self,
        correct: bool,
        attempted: u64,
        failed: u64,
        names: &[&str],
    ) -> String {
        let mut out = format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
        );
        let mut first = true;
        for name in names {
            let Some(m) = self.metrics.iter().find(|m| m.name == *name) else {
                continue;
            };
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::default();
        for v in 1..=100 {
            s.push(v as f64);
        }
        assert_eq!(s.quantile(0.5), Some((50.0, 50)));
        assert_eq!(s.quantile(0.99), Some((99.0, 1)));
        assert_eq!(s.quantile(1.0), Some((100.0, 0)));
    }

    #[test]
    fn percentile_needs_ten_beyond() {
        let mut s = Samples::default();
        for v in 0..999 {
            s.push(v as f64);
        }
        let mut r = Report::default();
        r.pct("p99", &s, 0.99, "us");
        assert!(r.get("p99").is_none());
        s.push(1000.0);
        r.pct("p99", &s, 0.99, "us");
        assert_eq!(r.get("p99"), Some(989.0));
    }
}
