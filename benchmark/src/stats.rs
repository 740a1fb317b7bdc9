//! Order statistics with the benchmark's sample-count rule, and the
//! output digest.

/// Fewest samples a reported percentile must have strictly above it.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of quantile `q` in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly beyond the nearest-rank `q` quantile of `n`.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, q)
    }
}

/// Smallest sample count for which quantile `q` has [`MIN_BEYOND`]
/// samples beyond it.
pub fn min_samples(q: f64) -> usize {
    (1..)
        .find(|&n| beyond(n, q) >= MIN_BEYOND)
        .expect("some count satisfies the rule")
}

/// The nearest-rank `q` quantile of `samples`, or an error naming the
/// shortfall when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, String> {
    if beyond(samples.len(), q) < MIN_BEYOND {
        return Err(format!(
            "p{} needs at least {} samples, got {}",
            q * 100.0,
            min_samples(q),
            samples.len()
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank(sorted.len(), q)])
}

/// Median of a small set of repeats (the middle value, or the mean of
/// the two middle values). Not a percentile of a latency distribution:
/// it summarises repeated whole measurements, so the tail rule does
/// not apply.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// FNV-1a over everything fed in: a stable 64-bit digest of outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Feeds an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feeds a float by its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Feeds a selection vector, one bit per row.
    pub fn bits(&mut self, selected: &[bool]) {
        self.u64(selected.len() as u64);
        for chunk in selected.chunks(64) {
            let word = chunk
                .iter()
                .enumerate()
                .fold(0u64, |w, (i, &on)| w | (u64::from(on) << i));
            self.u64(word);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}
