//! Runtime experiments: Table 1, Figs. 8–10 and Table 4.
//!
//! These drive the analytic SoC/power models over the unique models the
//! pipeline extracted — the same measurements the physical harness makes,
//! minus the wall-clock (see `gaugenn-harness` for the real TCP workflow,
//! which the integration tests and examples exercise on corpus subsets).

use crate::pipeline::PipelineReport;
use crate::report::TextTable;
use crate::Result;
use gaugenn_analysis::stats::{self, Ecdf, Kde, LineFit};
use gaugenn_dnn::task::Task;
use gaugenn_power::monsoon::PowerMonitor;
use gaugenn_power::{measure_inference, sustained_run};
use gaugenn_soc::sched::ThreadConfig;
use gaugenn_soc::spec::{all_devices, hdks, DeviceSpec};
use gaugenn_soc::thermal::ThermalState;
use gaugenn_soc::Backend;

fn cpu4() -> Backend {
    Backend::Cpu(ThreadConfig::unpinned(4))
}

/// Table 1: the device roster.
pub fn tab1() -> String {
    let mut t = TextTable::new(["Model", "SoC", "RAM", "Battery", "Form"]);
    for d in all_devices() {
        t.row([
            d.name.to_string(),
            d.soc.name.to_string(),
            format!("{}GB", d.ram_gb),
            d.battery_mah
                .map(|b| format!("{b}mAh"))
                .unwrap_or_else(|| "N/A".into()),
            format!("{:?}", d.form),
        ]);
    }
    format!("Table 1: device specifications\n{}", t.render())
}

/// Per-(device, model) latency measurements backing Figs. 8 and 9.
#[derive(Debug, Clone)]
pub struct LatencySweep {
    /// Device names, in Table 1 order.
    pub devices: Vec<String>,
    /// `(device, model_checksum, flops, latency_ms)` rows; incompatible
    /// models are skipped per device (none on CPU, but kept general).
    pub rows: Vec<(String, String, u64, f64)>,
}

/// Benchmark every unique model on every device (CPU, 4 threads).
pub fn latency_sweep(report: &PipelineReport, devices: &[DeviceSpec]) -> LatencySweep {
    let cool = ThermalState::cool();
    let mut rows = Vec::new();
    for d in devices {
        for m in &report.models {
            if let Ok(lat) = gaugenn_soc::estimate_latency(d, cpu4(), &m.trace, &cool) {
                rows.push((
                    d.name.to_string(),
                    m.checksum.clone(),
                    m.trace.total_flops,
                    lat.total_ms,
                ));
            }
        }
    }
    LatencySweep {
        devices: devices.iter().map(|d| d.name.to_string()).collect(),
        rows,
    }
}

/// Fig. 8: latency vs FLOPs with per-device line fits.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// Per device: sample count and the least-squares fit.
    pub fits: Vec<(String, usize, Option<LineFit>)>,
}

/// Run Fig. 8 from a latency sweep.
pub fn fig8(sweep: &LatencySweep) -> Fig8 {
    let fits = sweep
        .devices
        .iter()
        .map(|dev| {
            let pts: Vec<(f64, f64)> = sweep
                .rows
                .iter()
                .filter(|(d, ..)| d == dev)
                .map(|(_, _, flops, ms)| (*flops as f64 / 1e9, *ms))
                .collect();
            let fit = stats::line_fit(&pts);
            (dev.clone(), pts.len(), fit)
        })
        .collect();
    Fig8 { fits }
}

impl Fig8 {
    /// Worst (lowest) r² across devices — the paper's point is that FLOPs
    /// is a weak predictor everywhere.
    pub fn min_r2(&self) -> f64 {
        self.fits
            .iter()
            .filter_map(|(_, _, f)| f.map(|f| f.r2))
            .fold(1.0, f64::min)
    }

    /// Max/min spread of latency-per-GFLOP across models, per device.
    /// A wide spread is the figure's point: knowing a model's FLOPs alone
    /// leaves a multi-x uncertainty in its latency.
    pub fn per_flop_spread(&self, sweep: &LatencySweep, device: &str) -> f64 {
        let per_flop: Vec<f64> = sweep
            .rows
            .iter()
            .filter(|(d, _, flops, _)| d == device && *flops > 0)
            .map(|(_, _, flops, ms)| ms / (*flops as f64 / 1e9))
            .collect();
        if per_flop.is_empty() {
            return 1.0;
        }
        let max = per_flop.iter().cloned().fold(f64::MIN, f64::max);
        let min = per_flop.iter().cloned().fold(f64::MAX, f64::min);
        max / min
    }

    /// Paper-style table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["Device", "n", "slope ms/GFLOP", "intercept ms", "r^2"]);
        for (dev, n, fit) in &self.fits {
            match fit {
                Some(f) => t.row([
                    dev.clone(),
                    n.to_string(),
                    format!("{:.2}", f.slope),
                    format!("{:.2}", f.intercept),
                    format!("{:.3}", f.r2),
                ]),
                None => t.row([dev.clone(), n.to_string(), "-".into(), "-".into(), "-".into()]),
            };
        }
        format!(
            "Fig 8: latency vs FLOPs (line fits; non-linearity = low r^2)\n{}",
            t.render()
        )
    }
}

/// Fig. 9: latency ECDF per device plus the headline ratios.
#[derive(Debug, Clone)]
pub struct Fig9 {
    /// Per device: `(name, ecdf)` over model latencies.
    pub ecdfs: Vec<(String, Ecdf)>,
    /// Mean latency per device.
    pub means: Vec<(String, f64)>,
}

/// Run Fig. 9 from a latency sweep.
pub fn fig9(sweep: &LatencySweep) -> Fig9 {
    let mut ecdfs = Vec::new();
    let mut means = Vec::new();
    for dev in &sweep.devices {
        let lats: Vec<f64> = sweep
            .rows
            .iter()
            .filter(|(d, ..)| d == dev)
            .map(|(_, _, _, ms)| *ms)
            .collect();
        means.push((dev.clone(), stats::mean(&lats)));
        ecdfs.push((dev.clone(), Ecdf::new(lats)));
    }
    Fig9 { ecdfs, means }
}

impl Fig9 {
    /// Mean latency of a device.
    pub fn mean_of(&self, device: &str) -> Option<f64> {
        self.means.iter().find(|(d, _)| d == device).map(|(_, m)| *m)
    }

    /// Slowdown of `a` relative to `b` on mean latency.
    pub fn slowdown(&self, a: &str, b: &str) -> Option<f64> {
        Some(self.mean_of(a)? / self.mean_of(b)?)
    }

    /// Paper-style summary with ECDF quartiles.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["Device", "mean ms", "p25", "median", "p75", "p95"]);
        for (dev, e) in &self.ecdfs {
            let mean = self.mean_of(dev).unwrap_or(f64::NAN);
            t.row([
                dev.clone(),
                format!("{mean:.1}"),
                format!("{:.1}", e.quantile(0.25)),
                format!("{:.1}", e.median()),
                format!("{:.1}", e.quantile(0.75)),
                format!("{:.1}", e.quantile(0.95)),
            ]);
        }
        let mut s = format!("Fig 9: latency per device (ECDF summary)\n{}", t.render());
        if let (Some(a20), Some(a70)) = (self.slowdown("A20", "S21"), self.slowdown("A70", "S21")) {
            s.push_str(&format!(
                "tier gaps vs S21: A20 {a20:.2}x slower, A70 {a70:.2}x slower (paper: 3.4x / 1.51x)\n"
            ));
        }
        s
    }
}

/// Fig. 10: energy / power / efficiency distributions on the HDKs.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// Per device: `(name, energy_mj, power_w, efficiency MFLOP/s/W)` rows.
    pub rows: Vec<(String, f64, f64, f64)>,
}

/// Run Fig. 10 over the HDK boards.
pub fn fig10(report: &PipelineReport) -> Result<Fig10> {
    let cool = ThermalState::cool();
    let monitor = PowerMonitor::new(0x00F1_6010);
    let mut rows = Vec::new();
    for d in hdks() {
        for m in &report.models {
            let rep = match measure_inference(&d, cpu4(), &m.trace, &cool, &monitor) {
                Ok(r) => r,
                Err(_) => continue,
            };
            rows.push((
                d.name.to_string(),
                rep.energy_mj,
                rep.avg_power_w,
                rep.efficiency_mflops_per_sw,
            ));
        }
    }
    Ok(Fig10 { rows })
}

impl Fig10 {
    /// Median of one metric per device. `metric`: 0 energy, 1 power, 2
    /// efficiency.
    pub fn median(&self, device: &str, metric: usize) -> f64 {
        let vals: Vec<f64> = self
            .rows
            .iter()
            .filter(|(d, ..)| d == device)
            .map(|(_, e, p, eff)| match metric {
                0 => *e,
                1 => *p,
                _ => *eff,
            })
            .collect();
        Ecdf::new(vals).median()
    }

    /// KDE curve of one metric for a device (for plotting, Fig. 10's
    /// smooth lines).
    pub fn kde(&self, device: &str, metric: usize, points: usize) -> Vec<(f64, f64)> {
        let vals: Vec<f64> = self
            .rows
            .iter()
            .filter(|(d, ..)| d == device)
            .map(|(_, e, p, eff)| match metric {
                0 => *e,
                1 => *p,
                _ => *eff,
            })
            .collect();
        Kde::new(vals).curve(points)
    }

    /// Paper-style summary.
    pub fn render(&self) -> String {
        let mut t = TextTable::new([
            "Device",
            "median energy mJ",
            "median power W",
            "median eff MFLOP/sW",
        ]);
        for dev in ["Q845", "Q855", "Q888"] {
            t.row([
                dev.to_string(),
                format!("{:.1}", self.median(dev, 0)),
                format!("{:.2}", self.median(dev, 1)),
                format!("{:.0}", self.median(dev, 2)),
            ]);
        }
        format!(
            "Fig 10: inference energy/power/efficiency across SoC generations\n{}\
             (paper medians: efficiency 730 / 765 / 873 MFLOP/sW)\n",
            t.render()
        )
    }
}

/// One Table 4 scenario row.
#[derive(Debug, Clone)]
pub struct ScenarioRow {
    /// Device.
    pub device: String,
    /// Scenario label.
    pub scenario: &'static str,
    /// Number of models that ran.
    pub models: usize,
    /// Battery-discharge stats in mAh: avg, median, min, max.
    pub mah: [f64; 4],
}

/// Table 4: scenario-driven energy consumption.
#[derive(Debug, Clone)]
pub struct Tab4 {
    /// All rows, grouped by device.
    pub rows: Vec<ScenarioRow>,
}

/// The §5.2.2 scenarios: `(label, tasks, inferences, duration_s)`.
///
/// * sound recognition — 1 h of audio; ambient recognisers classify a
///   ~10 s window per inference ("the most likely amount of audio input
///   per inference considering the model's input dimension and common
///   practices in speech ML");
/// * typing — 275 words, one inference per word [12, 54, 66];
/// * segmentation — 15 FPS for a 1 h video call (frames drop when a model
///   cannot hold the rate).
fn scenarios() -> [(&'static str, Vec<Task>, u64, f64); 3] {
    [
        (
            "Sound R.",
            vec![Task::SoundRecognition, Task::SpeechRecognition, Task::KeywordDetection],
            360, // one inference per ~10 s audio window
            3600.0,
        ),
        ("Typing", vec![Task::AutoComplete], 275, 3600.0),
        (
            "Segm.",
            vec![
                Task::SemanticSegmentation,
                Task::HairReconstruction,
                Task::PhotoBeauty,
            ],
            15 * 3600,
            3600.0,
        ),
    ]
}

/// Run Table 4 over the HDKs.
pub fn tab4(report: &PipelineReport) -> Result<Tab4> {
    let mut rows = Vec::new();
    for d in hdks() {
        for (label, tasks, inferences, duration) in scenarios() {
            let mut mah_values = Vec::new();
            for m in &report.models {
                let Some(c) = m.classification else { continue };
                if !tasks.contains(&c.task) {
                    continue;
                }
                let rep = sustained_run(&d, cpu4(), &m.trace, inferences, duration)?;
                mah_values.push(rep.battery_mah);
            }
            if mah_values.is_empty() {
                continue;
            }
            let e = Ecdf::new(mah_values.clone());
            rows.push(ScenarioRow {
                device: d.name.to_string(),
                scenario: label,
                models: mah_values.len(),
                mah: [
                    stats::mean(&mah_values),
                    e.median(),
                    e.quantile(0.0),
                    e.quantile(1.0),
                ],
            });
        }
    }
    Ok(Tab4 { rows })
}

impl Tab4 {
    /// Row lookup.
    pub fn row(&self, device: &str, scenario: &str) -> Option<&ScenarioRow> {
        self.rows
            .iter()
            .find(|r| r.device == device && r.scenario == scenario)
    }

    /// Paper-style table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(["Device", "Use-case", "n", "Avg mAh", "Median", "Min", "Max"]);
        for r in &self.rows {
            t.row([
                r.device.clone(),
                r.scenario.to_string(),
                r.models.to_string(),
                format!("{:.3}", r.mah[0]),
                format!("{:.3}", r.mah[1]),
                format!("{:.3}", r.mah[2]),
                format!("{:.3}", r.mah[3]),
            ]);
        }
        format!(
            "Table 4: scenario-driven energy (1h sound recognition / 275-word typing / 1h 15FPS segmentation)\n{}",
            t.render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, PipelineConfig};
    use gaugenn_playstore::corpus::Snapshot;
    use std::sync::OnceLock;

    fn report() -> &'static PipelineReport {
        static CELL: OnceLock<PipelineReport> = OnceLock::new();
        CELL.get_or_init(|| {
            Pipeline::new(PipelineConfig::tiny(Snapshot::Y2021, 7))
                .run()
                .unwrap()
        })
    }

    #[test]
    fn tab1_lists_six_devices() {
        let s = tab1();
        for d in ["A20", "A70", "S21", "Q845", "Q855", "Q888"] {
            assert!(s.contains(d), "{d} missing from Table 1");
        }
        assert!(s.contains("Snapdragon 888"));
        assert!(s.contains("N/A"), "Q855/Q888 have no battery");
    }

    #[test]
    fn fig8_flops_is_a_weak_predictor() {
        let sweep = latency_sweep(report(), &all_devices());
        let f = fig8(&sweep);
        assert_eq!(f.fits.len(), 6);
        assert!(f.min_r2() < 1.0);
        // The figure's point: FLOPs alone leaves a multi-x latency
        // uncertainty, and the fit differs from device to device.
        for dev in ["A20", "A70", "S21", "Q845"] {
            let spread = f.per_flop_spread(&sweep, dev);
            assert!(spread > 2.0, "{dev}: latency-per-GFLOP spread {spread}");
        }
        let slopes: Vec<f64> = f.fits.iter().filter_map(|(_, _, x)| x.map(|x| x.slope)).collect();
        let smax = slopes.iter().cloned().fold(f64::MIN, f64::max);
        let smin = slopes.iter().cloned().fold(f64::MAX, f64::min);
        assert!(smax / smin > 1.5, "fits must differ across devices: {slopes:?}");
        assert!(f.render().contains("r^2"));
    }

    #[test]
    fn fig9_tier_ordering() {
        let sweep = latency_sweep(report(), &all_devices());
        let f = fig9(&sweep);
        let a20 = f.slowdown("A20", "S21").unwrap();
        let a70 = f.slowdown("A70", "S21").unwrap();
        assert!(a20 > a70, "low tier slower than mid: {a20} vs {a70}");
        assert!(a70 > 1.0, "mid tier slower than flagship");
        // HDK generation ordering.
        assert!(f.mean_of("Q845").unwrap() > f.mean_of("Q855").unwrap());
        assert!(f.mean_of("Q855").unwrap() > f.mean_of("Q888").unwrap());
        // Same-SoC open deck faster than the phone.
        assert!(f.mean_of("Q888").unwrap() < f.mean_of("S21").unwrap());
        assert!(f.render().contains("tier gaps"));
    }

    #[test]
    fn fig10_power_rises_energy_similar() {
        let f = fig10(report()).unwrap();
        let p845 = f.median("Q845", 1);
        let p888 = f.median("Q888", 1);
        assert!(p888 > p845, "newer generations draw more power");
        let e845 = f.median("Q845", 0);
        let e888 = f.median("Q888", 0);
        let ratio = e888 / e845;
        assert!((0.3..=1.5).contains(&ratio), "energy similar, ratio {ratio}");
        let eff845 = f.median("Q845", 2);
        let eff888 = f.median("Q888", 2);
        assert!(eff888 > 0.8 * eff845, "efficiency should not regress much");
        assert!(!f.kde("Q845", 2, 16).is_empty());
    }

    #[test]
    fn tab4_scenario_ordering() {
        let t = tab4(report()).unwrap();
        assert!(!t.rows.is_empty());
        // Segmentation dwarfs typing wherever both exist.
        for dev in ["Q845", "Q855", "Q888"] {
            if let (Some(seg), Some(typ)) = (t.row(dev, "Segm."), t.row(dev, "Typing")) {
                assert!(
                    seg.mah[0] > 50.0 * typ.mah[0],
                    "{dev}: segmentation {} vs typing {}",
                    seg.mah[0],
                    typ.mah[0]
                );
            }
        }
        assert!(t.render().contains("Use-case"));
    }
}
