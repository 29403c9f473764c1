//! Small statistics helpers: quantiles, geometric means, rank correlation,
//! checksums and the process's peak resident set.

/// Linear-interpolated quantile `q` in `[0, 1]` of `xs` (NaN when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of `xs` (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Geometric mean of positive values (NaN when empty).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Kendall's τ-b between two paired samples: +1 when both rank the items
/// identically, −1 when reversed. Ties in either sample are corrected for,
/// so a model that predicts many equal speedups is not rewarded for them.
/// Returns NaN for fewer than two pairs or when one side is all ties.
pub fn kendall_tau_b(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len().min(ys.len());
    let (mut concordant, mut discordant) = (0i64, 0i64);
    let (mut ties_x, mut ties_y) = (0i64, 0i64);
    for i in 0..n {
        for j in i + 1..n {
            let dx = xs[i].total_cmp(&xs[j]) as i64;
            let dy = ys[i].total_cmp(&ys[j]) as i64;
            match (dx, dy) {
                (0, 0) => {}
                (0, _) => ties_x += 1,
                (_, 0) => ties_y += 1,
                _ if dx == dy => concordant += 1,
                _ => discordant += 1,
            }
        }
    }
    let nx = (concordant + discordant + ties_x) as f64;
    let ny = (concordant + discordant + ties_y) as f64;
    if nx == 0.0 || ny == 0.0 {
        return f64::NAN;
    }
    (concordant - discordant) as f64 / (nx * ny).sqrt()
}

/// FNV-1a over the bit patterns of `xs`: equal only for bit-identical data.
pub fn fnv1a(xs: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in xs {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// SplitMix64: a well-mixed 64-bit hash, used to draw seeded choices.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Top-1 predictions of a `[rows, classes]` output tensor.
pub fn top1(data: &[f32], classes: usize) -> Vec<usize> {
    data.chunks(classes)
        .map(|row| {
            row.iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .map_or(0, |(i, _)| i)
        })
        .collect()
}

/// Peak resident set size of this process in MiB, from `/proc/self/status`
/// (NaN where that file does not exist).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9) - 4.6).abs() < 1e-12);
    }

    #[test]
    fn tau_b_ranks() {
        assert_eq!(kendall_tau_b(&[1.0, 2.0, 3.0], &[10.0, 20.0, 30.0]), 1.0);
        assert_eq!(kendall_tau_b(&[1.0, 2.0, 3.0], &[3.0, 2.0, 1.0]), -1.0);
        assert!(kendall_tau_b(&[1.0, 1.0], &[1.0, 2.0]).is_nan());
        // One tie in x: (C − D) / sqrt((C+D+Tx)(C+D+Ty)) = 2 / sqrt(3 · 2).
        let t = kendall_tau_b(&[1.0, 1.0, 2.0], &[1.0, 2.0, 3.0]);
        assert!((t - 2.0 / 6f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn geomean_and_top1() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(top1(&[0.1, 0.9, 0.8, 0.2], 2), vec![1, 0]);
        assert_ne!(fnv1a(&[0.0]), fnv1a(&[-0.0]));
    }
}
