//! Sampling power monitor (Monsoon AAA10F substitute).
//!
//! The real instrument samples the device's main rail at 5 kHz; energy is
//! the integral of those samples. Here the waveform is an analytic function
//! of time supplied by the caller, plus small deterministic "measurement
//! noise" so downstream statistics see realistic sample scatter. Each
//! sample is folded into the trace's running sum and peak as it is drawn;
//! no sample is stored.

/// Default sampling rate of the AAA10F, in hertz.
pub const DEFAULT_SAMPLE_HZ: u32 = 5000;

/// A captured power trace: the count, sum and peak of its samples.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerTrace {
    /// Sampling rate in hertz.
    pub sample_hz: u32,
    samples: usize,
    /// Sum of the `f32` samples widened to `f64`, in capture order from
    /// `-0.0`: what `Iterator::sum` over the stored samples gave.
    sum_w: f64,
    peak_w: f64,
}

impl PowerTrace {
    /// Total energy in joules (rectangle-rule integral).
    pub fn energy_j(&self) -> f64 {
        self.sum_w / self.sample_hz as f64
    }

    /// Mean power in watts.
    pub fn avg_power_w(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum_w / self.samples as f64
        }
    }

    /// Peak sample in watts.
    pub fn peak_power_w(&self) -> f64 {
        self.peak_w
    }

    /// Capture duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.samples as f64 / self.sample_hz as f64
    }
}

/// The monitor itself.
#[derive(Debug, Clone)]
pub struct PowerMonitor {
    sample_hz: u32,
    noise_fraction: f64,
    seed: u64,
}

impl PowerMonitor {
    /// A monitor at the default 5 kHz with 1 % sample noise.
    pub fn new(seed: u64) -> Self {
        PowerMonitor {
            sample_hz: DEFAULT_SAMPLE_HZ,
            noise_fraction: 0.01,
            seed,
        }
    }

    /// Override the sampling rate (testing shorter captures).
    pub fn with_sample_hz(mut self, hz: u32) -> Self {
        self.sample_hz = hz.max(1);
        self
    }

    /// Ideal noiseless monitor.
    pub fn noiseless(seed: u64) -> Self {
        PowerMonitor {
            sample_hz: DEFAULT_SAMPLE_HZ,
            noise_fraction: 0.0,
            seed,
        }
    }

    /// Capture `duration_s` seconds of `power_at(t_seconds) -> watts`.
    pub fn record(&self, duration_s: f64, power_at: impl Fn(f64) -> f64) -> PowerTrace {
        let n = (duration_s * self.sample_hz as f64).round().max(1.0) as usize;
        let dt = 1.0 / self.sample_hz as f64;
        let mut state = self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let (mut sum_w, mut peak_w) = (-0.0f64, 0.0f64);
        for i in 0..n {
            let t = i as f64 * dt;
            let ideal = power_at(t).max(0.0);
            // xorshift64* measurement noise, zero-mean uniform.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let r = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            let unit = (r >> 11) as f64 / (1u64 << 53) as f64; // [0,1)
            let noisy = ideal * (1.0 + self.noise_fraction * (unit * 2.0 - 1.0));
            // The instrument's f32 sample, widened back for the sums.
            let sample = noisy as f32 as f64;
            sum_w += sample;
            peak_w = peak_w.max(sample);
        }
        PowerTrace {
            sample_hz: self.sample_hz,
            samples: n,
            sum_w,
            peak_w,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_power_integrates_exactly() {
        let m = PowerMonitor::noiseless(1);
        let trace = m.record(2.0, |_| 3.0);
        assert!((trace.energy_j() - 6.0).abs() < 1e-6);
        assert!((trace.avg_power_w() - 3.0).abs() < 1e-6);
        assert!((trace.duration_s() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn noise_is_small_and_deterministic() {
        let m = PowerMonitor::new(7);
        let a = m.record(0.5, |_| 2.0);
        let b = m.record(0.5, |_| 2.0);
        assert_eq!(a, b, "same seed, same trace");
        assert!((a.avg_power_w() - 2.0).abs() < 0.01);
        assert!(a.peak_power_w() > 2.0, "noise present");
        let c = PowerMonitor::new(8).record(0.5, |_| 2.0);
        assert_ne!(a, c, "different seed, different noise");
    }

    #[test]
    fn time_varying_waveform() {
        let m = PowerMonitor::noiseless(1).with_sample_hz(1000);
        // 1 W for the first half, 3 W for the second: 2 J over 1 s.
        let trace = m.record(1.0, |t| if t < 0.5 { 1.0 } else { 3.0 });
        assert!((trace.energy_j() - 2.0).abs() < 0.01);
        assert!((trace.peak_power_w() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn negative_power_clamped() {
        let m = PowerMonitor::noiseless(1).with_sample_hz(100);
        let trace = m.record(0.1, |_| -5.0);
        assert_eq!(trace.energy_j(), 0.0);
    }

    #[test]
    fn tiny_duration_still_samples() {
        let m = PowerMonitor::noiseless(1);
        let trace = m.record(1e-6, |_| 1.0);
        assert!(trace.duration_s() > 0.0);
    }

    /// The capture the fold replaced: every sample stored, then averaged.
    fn stored_samples_avg(m: &PowerMonitor, duration_s: f64, power_at: impl Fn(f64) -> f64) -> f64 {
        let n = (duration_s * m.sample_hz as f64).round().max(1.0) as usize;
        let dt = 1.0 / m.sample_hz as f64;
        let mut state = m.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut samples: Vec<f32> = Vec::with_capacity(n);
        for i in 0..n {
            let ideal = power_at(i as f64 * dt).max(0.0);
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let r = state.wrapping_mul(0x2545_F491_4F6C_DD1D);
            let unit = (r >> 11) as f64 / (1u64 << 53) as f64;
            samples.push((ideal * (1.0 + m.noise_fraction * (unit * 2.0 - 1.0))) as f32);
        }
        samples.iter().map(|&p| p as f64).sum::<f64>() / samples.len() as f64
    }

    #[test]
    fn folded_average_is_bit_identical_to_stored_samples() {
        type Waveform = fn(f64) -> f64;
        let waveforms: [(&str, Waveform); 5] = [
            ("constant", |_| 2.37),
            ("step", |t| if t < 0.004 { 0.9 } else { 3.1 }),
            ("ramp", |t| 0.5 + 40.0 * t),
            ("all zero", |_| 0.0),
            ("negative", |_| -1.5),
        ];
        let mut draw = 0x5EED_u64;
        let mut next = || {
            draw ^= draw << 13;
            draw ^= draw >> 7;
            draw ^= draw << 17;
            draw
        };
        let mut checked = 0;
        for noise in [0.0, 0.01, 0.2] {
            for _ in 0..12 {
                let seed = next();
                // 1 µs to ~20 ms: one sample up to about a hundred.
                let duration_s = 1e-6 + (next() % 20_000) as f64 * 1e-6;
                let m = PowerMonitor {
                    noise_fraction: noise,
                    ..PowerMonitor::new(seed)
                };
                for (name, wave) in waveforms {
                    let want = stored_samples_avg(&m, duration_s, wave);
                    let got = m.record(duration_s, wave).avg_power_w();
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{name} noise {noise} seed {seed:#x} duration {duration_s}: {got} vs {want}"
                    );
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, 3 * 12 * 5);
    }
}
