//! Order statistics for repeated measurements.

/// The values sorted ascending (NaN sorts last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median; 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points, computed as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// `exclusive` method). With one value every cut is that value; with
/// none they are 0.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values);
    let ld = v.len();
    match ld {
        0 => return [0.0; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    // Python's integer arithmetic, where `delta` may be negative.
    let (n, m, ld) = (4i64, ld as i64 + 1, ld as i64);
    let mut out = [0.0; 3];
    for (i, cut) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m - j * n) as f64;
        let (lo, hi) = (v[(j - 1) as usize], v[j as usize]);
        *cut = (lo * (n as f64 - delta) + hi * delta) / n as f64;
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median; 0 when the median is 0.
pub fn spread(values: &[f64]) -> f64 {
    let med = median(values);
    if med == 0.0 {
        return 0.0;
    }
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / med.abs()
}

/// The highest percentile with at least ten samples beyond it, as
/// `(percentile, value)` by nearest rank; `None` when no percentile
/// above the median qualifies (20 samples or fewer).
pub fn tail(values: &[f64]) -> Option<(u32, f64)> {
    let n = values.len();
    // Largest whole percentile p with n·(1 − p/100) ≥ 10.
    let p = (100 * n.saturating_sub(10) / n.max(1)) as u32;
    if p <= 50 {
        return None;
    }
    let v = sorted(values);
    let rank = (p as usize * n).div_ceil(100).max(1);
    Some((p, v[rank - 1]))
}

/// Summary of one metric's samples within a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// `(q3 − q1) / median`.
    pub spread: f64,
    /// See [`tail`].
    pub tail: Option<(u32, f64)>,
}

impl Summary {
    /// Summarises `values`.
    pub fn of(values: &[f64]) -> Summary {
        let [q1, _, q3] = quartiles(values);
        let v = sorted(values);
        Summary {
            n: values.len(),
            median: median(values),
            q1,
            q3,
            min: v.first().copied().unwrap_or(0.0),
            max: v.last().copied().unwrap_or(0.0),
            spread: spread(values),
            tail: tail(values),
        }
    }
}
