//! Order statistics and process measurements.

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 for an empty slice).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest percentile of `values` that still has at least ten
/// samples beyond it: `(percentile, value)`. With fewer than eleven
/// samples no such percentile exists and the maximum is returned as the
/// 100th percentile.
pub fn tail(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 11 {
        return (100.0, sorted[n - 1]);
    }
    let i = n - 11;
    (100.0 * (i + 1) as f64 / n as f64, sorted[i])
}

/// Peak resident memory of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A measurement window of `seconds`: repetitions continue while one
/// more, as long as the last, would end nearer the window's end than
/// stopping now (always at least one).
#[derive(Debug)]
pub struct Budget {
    started: std::time::Instant,
    seconds: f64,
    mark: f64,
    reps: usize,
}

impl Budget {
    /// A window starting now.
    pub fn new(seconds: f64) -> Self {
        Budget {
            started: std::time::Instant::now(),
            seconds,
            mark: 0.0,
            reps: 0,
        }
    }

    /// Whether to run another repetition.
    pub fn more(&mut self) -> bool {
        let now = self.started.elapsed().as_secs_f64();
        let last = now - self.mark;
        self.mark = now;
        let go = self.reps == 0 || now + last / 2.0 < self.seconds;
        self.reps += usize::from(go);
        go
    }
}

/// `num / den`, or 0 when the layer did no work (`den == 0`).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let (pct, value) = tail(&values);
        assert_eq!(value, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(values.iter().filter(|&&v| v > value).count(), 10);
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
