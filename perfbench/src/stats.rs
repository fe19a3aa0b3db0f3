//! Estimators. Every pass of a run does identical work, and interference
//! from other tenants of the machine only ever slows a pass down, so the
//! throughput estimators read the fast end of the samples; see NOTES.md
//! for the spreads that motivated each choice.

/// Median of `v` (mean of the two middle values for an even count).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linearly interpolated quantile `q` of `v` (unsorted input).
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Mean of `v`.
pub fn mean(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |a, b| a + b) / v.len().max(1) as f64
}

/// Mean of the fastest `share` of `times` (at least one sample).
pub fn fastest_mean(times: &[f64], share: f64) -> f64 {
    let fast: Vec<f64> = fastest_indices(times, share, 1)
        .into_iter()
        .map(|i| times[i])
        .collect();
    mean(&fast)
}

/// Indices of the fastest `share` of passes by `times`, but at least
/// `min` of them (or all there are).
pub fn fastest_indices(times: &[f64], share: f64, min: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..times.len()).collect();
    idx.sort_by(|&a, &b| times[a].total_cmp(&times[b]));
    let k = ((times.len() as f64 * share).ceil() as usize).max(min);
    idx.truncate(k);
    idx
}

/// FNV-1a over byte strings; used for answer digests.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(mut self, b: &[u8]) -> Fnv {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Length-terminate so adjacent fields cannot run together.
        self.0 ^= b.len() as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        self
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}
