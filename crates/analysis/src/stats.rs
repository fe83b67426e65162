//! Statistics used across the figures: ECDFs (Figs. 9, 13, 14), Gaussian
//! kernel density estimates (Fig. 10), quantiles, and the least-squares
//! line fits of Fig. 8.

/// Empirical cumulative distribution function of a sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build from a sample (non-finite values are dropped).
    pub fn new(mut sample: Vec<f64>) -> Ecdf {
        sample.retain(|x| x.is_finite());
        sample.sort_by(|a, b| a.partial_cmp(b).expect("finite after retain"));
        Ecdf { sorted: sample }
    }

    /// Number of retained points.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when the sample was empty.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X <= x)`.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Quantile `q` in `[0, 1]` (nearest-rank).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        let q = q.clamp(0.0, 1.0);
        let idx = ((self.sorted.len() as f64 * q).ceil() as usize)
            .saturating_sub(1)
            .min(self.sorted.len() - 1);
        self.sorted[idx]
    }

    /// Median shortcut.
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// `(x, F(x))` points for plotting/printing the curve at every sample.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &x)| (x, (i + 1) as f64 / n))
            .collect()
    }
}

/// Mean of a sample (0 when empty).
pub fn mean(sample: &[f64]) -> f64 {
    if sample.is_empty() {
        0.0
    } else {
        sample.iter().sum::<f64>() / sample.len() as f64
    }
}

/// Population standard deviation.
pub fn stddev(sample: &[f64]) -> f64 {
    if sample.len() < 2 {
        return 0.0;
    }
    let m = mean(sample);
    (sample.iter().map(|x| (x - m).powi(2)).sum::<f64>() / sample.len() as f64).sqrt()
}

/// Gaussian kernel density estimate (the smooth lines of Fig. 10).
#[derive(Debug, Clone)]
pub struct Kde {
    sample: Vec<f64>,
    bandwidth: f64,
}

impl Kde {
    /// Build with Silverman's rule-of-thumb bandwidth.
    pub fn new(sample: Vec<f64>) -> Kde {
        let mut s: Vec<f64> = sample.into_iter().filter(|x| x.is_finite()).collect();
        s.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let n = s.len().max(1) as f64;
        let sd = stddev(&s).max(1e-9);
        let bandwidth = 1.06 * sd * n.powf(-0.2);
        Kde {
            sample: s,
            bandwidth,
        }
    }

    /// Density estimate at `x`.
    pub fn eval(&self, x: f64) -> f64 {
        if self.sample.is_empty() {
            return 0.0;
        }
        let h = self.bandwidth;
        let norm = 1.0 / ((2.0 * std::f64::consts::PI).sqrt() * h * self.sample.len() as f64);
        self.sample
            .iter()
            .map(|&xi| (-0.5 * ((x - xi) / h).powi(2)).exp())
            .sum::<f64>()
            * norm
    }

    /// Evaluate on `n` evenly spaced points across the sample range
    /// (padded by one bandwidth), for printing a curve.
    pub fn curve(&self, n: usize) -> Vec<(f64, f64)> {
        if self.sample.is_empty() || n == 0 {
            return vec![];
        }
        let lo = self.sample[0] - self.bandwidth;
        let hi = self.sample[self.sample.len() - 1] + self.bandwidth;
        (0..n)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (n - 1).max(1) as f64;
                (x, self.eval(x))
            })
            .collect()
    }
}

/// Least-squares line fit `y = slope * x + intercept` with Pearson r².
/// Fig. 8 fits latency against FLOPs to show how weak the proxy is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LineFit {
    /// Slope.
    pub slope: f64,
    /// Intercept.
    pub intercept: f64,
    /// Coefficient of determination.
    pub r2: f64,
}

/// Fit a line through `(x, y)` pairs. Returns `None` with fewer than two
/// points or zero x-variance.
pub fn line_fit(points: &[(f64, f64)]) -> Option<LineFit> {
    if points.len() < 2 {
        return None;
    }
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = points.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let syy: f64 = points.iter().map(|p| (p.1 - my).powi(2)).sum();
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx <= 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let r2 = if syy <= 0.0 { 1.0 } else { (sxy * sxy) / (sxx * syy) };
    Some(LineFit {
        slope,
        intercept,
        r2,
    })
}

/// Order-0 Shannon entropy of a byte stream, in bits per byte.
///
/// The §6.1 what-if experiment uses this as its compressibility proxy:
/// weight clustering collapses the value distribution, dropping entropy
/// (and hence compressed size) while leaving dense compute untouched.
pub fn byte_entropy(bytes: &[u8]) -> f64 {
    if bytes.is_empty() {
        return 0.0;
    }
    let mut counts = [0u64; 256];
    for &b in bytes {
        counts[b as usize] += 1;
    }
    let n = bytes.len() as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / n;
            -p * p.log2()
        })
        .sum()
}

/// Shannon entropy over 32-bit words, in bits per word.
///
/// A sharper compressibility proxy than byte entropy for f32 weight
/// payloads: clustering to k centroids caps this near `log2(k)` while the
/// byte-level figure barely moves (the four byte lanes mix).
pub fn word_entropy(bytes: &[u8]) -> f64 {
    let mut words: Vec<u32> = bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    if words.is_empty() {
        return 0.0;
    }
    // Counted as runs of the sorted words: the counts come out in
    // ascending word order, so the float sum below adds its terms in an
    // order fixed by the input alone.
    words.sort_unstable();
    let n = words.len() as f64;
    words
        .chunk_by(|a, b| a == b)
        .map(|run| {
            let p = run.len() as f64 / n;
            -p * p.log2()
        })
        .sum()
}

/// Histogram with `bins` equal-width buckets over `[lo, hi]`.
pub fn histogram(sample: &[f64], lo: f64, hi: f64, bins: usize) -> Vec<u64> {
    let mut out = vec![0u64; bins];
    if bins == 0 || hi <= lo {
        return out;
    }
    let width = (hi - lo) / bins as f64;
    for &x in sample {
        if !x.is_finite() || x < lo || x > hi {
            continue;
        }
        let idx = (((x - lo) / width) as usize).min(bins - 1);
        out[idx] += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecdf_basics() {
        let e = Ecdf::new(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(e.len(), 4);
        assert_eq!(e.eval(0.5), 0.0);
        assert_eq!(e.eval(2.0), 0.5);
        assert_eq!(e.eval(10.0), 1.0);
        assert_eq!(e.median(), 2.0);
        assert_eq!(e.quantile(1.0), 4.0);
        assert_eq!(e.quantile(0.25), 1.0);

        // Nearest rank: quantile q is the ceil(n*q)-th smallest sample.
        let e = Ecdf::new((0..1000).map(f64::from).collect());
        assert_eq!(e.quantile(0.0), 0.0);
        assert_eq!(e.quantile(0.5), 499.0);
        assert_eq!(e.quantile(0.99), 989.0);
        assert_eq!(e.quantile(1.0), 999.0);

        let one = Ecdf::new(vec![42.0]);
        assert_eq!(one.len(), 1);
        assert_eq!(one.median(), 42.0);
        assert_eq!(one.quantile(0.99), 42.0);
    }

    #[test]
    fn ecdf_drops_non_finite() {
        let e = Ecdf::new(vec![1.0, f64::NAN, f64::INFINITY, 2.0]);
        assert_eq!(e.len(), 2);
    }

    #[test]
    fn ecdf_points_monotonic() {
        let e = Ecdf::new(vec![5.0, 1.0, 3.0]);
        let pts = e.points();
        assert_eq!(pts.len(), 3);
        assert!(pts.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 < w[1].1));
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_ecdf() {
        let e = Ecdf::new(vec![]);
        assert!(e.is_empty());
        assert_eq!(e.eval(1.0), 0.0);
        assert!(e.median().is_nan());
    }

    #[test]
    fn kde_integrates_to_one_roughly() {
        let k = Kde::new(vec![0.0, 1.0, 2.0, 3.0, 10.0]);
        // Trapezoid integral over a wide range.
        let (lo, hi, n) = (-20.0, 30.0, 5000);
        let dx = (hi - lo) / n as f64;
        let integral: f64 = (0..n)
            .map(|i| k.eval(lo + dx * (i as f64 + 0.5)) * dx)
            .sum();
        assert!((integral - 1.0).abs() < 0.02, "integral {integral}");
    }

    #[test]
    fn kde_peaks_at_mass() {
        let k = Kde::new(vec![5.0; 50]);
        assert!(k.eval(5.0) > k.eval(7.0));
        let curve = k.curve(11);
        assert_eq!(curve.len(), 11);
    }

    #[test]
    fn line_fit_exact() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 2.0 * i as f64 + 1.0)).collect();
        let f = line_fit(&pts).unwrap();
        assert!((f.slope - 2.0).abs() < 1e-9);
        assert!((f.intercept - 1.0).abs() < 1e-9);
        assert!((f.r2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn line_fit_weak_correlation() {
        let pts = vec![(0.0, 0.0), (1.0, 5.0), (2.0, 1.0), (3.0, 4.0), (4.0, 2.0)];
        let f = line_fit(&pts).unwrap();
        assert!(f.r2 < 0.5);
    }

    #[test]
    fn line_fit_degenerate() {
        assert!(line_fit(&[(1.0, 1.0)]).is_none());
        assert!(line_fit(&[(1.0, 1.0), (1.0, 2.0)]).is_none());
    }

    #[test]
    fn histogram_buckets() {
        let h = histogram(&[0.1, 0.9, 1.5, 2.5, 9.9, 100.0], 0.0, 10.0, 10);
        assert_eq!(h[0], 2);
        assert_eq!(h[1], 1);
        assert_eq!(h[2], 1);
        assert_eq!(h[9], 1);
        assert_eq!(h.iter().sum::<u64>(), 5, "out-of-range dropped");
    }

    #[test]
    fn byte_entropy_bounds() {
        assert_eq!(byte_entropy(&[]), 0.0);
        assert_eq!(byte_entropy(&[7u8; 100]), 0.0, "constant stream has zero entropy");
        let uniform: Vec<u8> = (0..=255).collect();
        assert!((byte_entropy(&uniform) - 8.0).abs() < 1e-9, "uniform bytes = 8 bits");
        let biased = [0u8, 0, 0, 1];
        let h = byte_entropy(&biased);
        assert!(h > 0.0 && h < 1.0);
    }

    #[test]
    fn word_entropy_collapses_under_clustering_like_streams() {
        // 1000 random-ish distinct words vs 1000 words from a 4-value set.
        let distinct: Vec<u8> = (0..1000u32)
            .flat_map(|i| (i.wrapping_mul(2654435761)).to_le_bytes())
            .collect();
        let clustered: Vec<u8> = (0..1000u32)
            .flat_map(|i| ((i % 4) * 0x11111111).to_le_bytes())
            .collect();
        assert!(word_entropy(&distinct) > 9.0);
        assert!(word_entropy(&clustered) < 2.1);
        assert_eq!(word_entropy(&[]), 0.0);
    }

    /// The tree-counting `word_entropy` the sorted runs replaced, kept as
    /// the reference they must match bit for bit.
    fn word_entropy_reference(bytes: &[u8]) -> f64 {
        let words: Vec<u32> = bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        if words.is_empty() {
            return 0.0;
        }
        let mut counts: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
        for w in &words {
            *counts.entry(*w).or_default() += 1;
        }
        let n = words.len() as f64;
        counts
            .values()
            .map(|&c| {
                let p = c as f64 / n;
                -p * p.log2()
            })
            .sum()
    }

    #[test]
    fn word_entropy_matches_the_tree_count_bit_for_bit() {
        use gaugenn_dnn::quant::cluster_graph;
        use gaugenn_dnn::task::Task;
        use gaugenn_dnn::tensor::WeightData;
        use gaugenn_dnn::zoo::{build_for_task, SizeClass};
        use rand::{RngCore, SeedableRng};

        let mut inputs: Vec<Vec<u8>> = vec![
            vec![],
            vec![7],
            vec![7, 8],
            vec![7, 8, 9],
            (0..4099u32).map(|i| (i * 7 % 251) as u8).collect(),
            vec![0xAB; 4096],
            (0..4096u32).flat_map(|i| i.to_le_bytes()).collect(),
        ];
        // A weight tensor clustered to 32 centroids, the §6.1 what-if's
        // input shape.
        let g = build_for_task(Task::ImageClassification, 4000, SizeClass::Small, true).graph;
        let clustered = cluster_graph(&g, 32);
        let weights = clustered
            .nodes
            .iter()
            .filter_map(|n| match &n.weights {
                Some(WeightData::F32(w)) if w.len() > 32 => Some(w),
                _ => None,
            })
            .max_by_key(|w| w.len())
            .expect("a clustered f32 weight tensor");
        let weight_bytes: Vec<u8> = weights.iter().flat_map(|x| x.to_le_bytes()).collect();
        assert!(
            word_entropy(&weight_bytes) <= 5.0 + 1e-9,
            "32 centroids cap at 5 bits"
        );
        inputs.push(weight_bytes);
        for seed in [1u64, 2, 1402] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut bytes = vec![0u8; (1 << 14) + seed as usize % 4];
            rng.fill_bytes(&mut bytes);
            inputs.push(bytes);
            // Repeated words with uneven counts: 97 values, 5000 draws.
            let few: Vec<u8> = (0..5000)
                .flat_map(|_| {
                    (rng.next_u32() % 97)
                        .wrapping_mul(0x9E37_79B9)
                        .to_le_bytes()
                })
                .collect();
            inputs.push(few);
        }
        for bytes in &inputs {
            assert_eq!(
                word_entropy(bytes).to_bits(),
                word_entropy_reference(bytes).to_bits(),
                "{} bytes",
                bytes.len()
            );
        }
    }

    #[test]
    fn mean_and_stddev() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert!((stddev(&[2.0, 4.0]) - 1.0).abs() < 1e-12);
        assert_eq!(stddev(&[5.0]), 0.0);
    }
}
