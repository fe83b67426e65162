//! System-level and hardware-specific optimisation experiments:
//! Figs. 11–14 (§6.2–§6.3).

use crate::pipeline::{ModelRecord, PipelineReport};
use crate::report::TextTable;
use crate::Result;
use gaugenn_analysis::stats::{self, Ecdf};
use gaugenn_dnn::trace::rebatch;
use gaugenn_modelfmt::Framework;
use gaugenn_power::monsoon::PowerMonitor;
use gaugenn_power::measure_inference;
use gaugenn_soc::sched::ThreadConfig;
use gaugenn_soc::spec::{device, phones, DeviceSpec};
use gaugenn_soc::thermal::ThermalState;
use gaugenn_soc::{Backend, SnpeTarget};

fn cpu4() -> Backend {
    Backend::Cpu(ThreadConfig::unpinned(4))
}

/// Fig. 11: inference throughput vs batch size on the three phones.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// Batch sizes swept.
    pub batches: Vec<usize>,
    /// `(device, batch) -> mean throughput (inferences/s)` over the common
    /// model subset.
    pub rows: Vec<(String, usize, f64)>,
    /// Number of models that ran every batch on every device (the paper's
    /// "149 in total").
    pub common_models: usize,
}

/// Run Fig. 11: batches {2, 5, 10, 25}, 4 threads, TFLite models only.
pub fn fig11(report: &PipelineReport) -> Fig11 {
    let batches = vec![2usize, 5, 10, 25];
    let cool = ThermalState::cool();
    let devices = phones();
    // A model's latency at one (device, batch); `None` when its trace
    // overflows at that batch or the device cannot run it.
    let estimate = |m: &ModelRecord, d: &DeviceSpec, b: usize| {
        let tr = rebatch(&m.trace, b).ok()?;
        gaugenn_soc::estimate_latency(d, cpu4(), &tr, &cool).ok()
    };
    // Common subset: models that succeed at every (device, batch).
    let tflite: Vec<_> = report
        .models
        .iter()
        .filter(|m| m.framework == Framework::TfLite)
        .collect();
    let mut common = Vec::new();
    'model: for m in &tflite {
        for d in &devices {
            for &b in &batches {
                if estimate(m, d, b).is_none() {
                    continue 'model;
                }
            }
        }
        common.push(*m);
    }
    let mut rows = Vec::new();
    for d in &devices {
        for &b in &batches {
            let mut tputs = Vec::new();
            for m in &common {
                if let Some(lat) = estimate(m, d, b) {
                    tputs.push(b as f64 / (lat.total_ms / 1e3));
                }
            }
            rows.push((d.name.to_string(), b, stats::mean(&tputs)));
        }
    }
    Fig11 {
        batches,
        rows,
        common_models: common.len(),
    }
}

impl Fig11 {
    /// Throughput lookup.
    pub fn throughput(&self, device: &str, batch: usize) -> Option<f64> {
        self.rows
            .iter()
            .find(|(d, b, _)| d == device && *b == batch)
            .map(|(_, _, t)| *t)
    }

    /// Paper-style table.
    pub fn render(&self) -> String {
        let mut header = vec!["Device".to_string()];
        header.extend(self.batches.iter().map(|b| format!("batch {b}")));
        let mut t = TextTable::new(header);
        for dev in ["A20", "A70", "S21"] {
            let mut cells = vec![dev.to_string()];
            for &b in &self.batches {
                cells.push(format!("{:.1}/s", self.throughput(dev, b).unwrap_or(0.0)));
            }
            t.row(cells);
        }
        let gap_a70 = self.throughput("S21", 25).unwrap_or(0.0)
            / self.throughput("A70", 25).unwrap_or(1.0);
        let gap_a20 = self.throughput("S21", 25).unwrap_or(0.0)
            / self.throughput("A20", 25).unwrap_or(1.0);
        format!(
            "Fig 11: throughput vs batch size ({} common models, 4 threads)\n{}\
             S21 at batch 25: {gap_a70:.2}x vs A70, {gap_a20:.2}x vs A20 (paper: 2.14x / 5.42x)\n",
            self.common_models,
            t.render()
        )
    }
}

/// Fig. 12: throughput vs thread count and affinity on the three phones.
#[derive(Debug, Clone)]
pub struct Fig12 {
    /// Configurations swept, in display order.
    pub configs: Vec<ThreadConfig>,
    /// `(device, config_label, mean throughput)`.
    pub rows: Vec<(String, String, f64)>,
}

/// Run Fig. 12: threads {2,4,8} and affinities {2a2, 4a2, 4a4, 8a4}.
pub fn fig12(report: &PipelineReport) -> Fig12 {
    let configs = vec![
        ThreadConfig::unpinned(2),
        ThreadConfig::unpinned(4),
        ThreadConfig::unpinned(8),
        ThreadConfig::pinned(2, 2),
        ThreadConfig::pinned(4, 2),
        ThreadConfig::pinned(4, 4),
        ThreadConfig::pinned(8, 4),
    ];
    let cool = ThermalState::cool();
    let mut rows = Vec::new();
    for d in phones() {
        for &cfg in &configs {
            let mut tputs = Vec::new();
            for m in report
                .models
                .iter()
                .filter(|m| m.framework == Framework::TfLite)
            {
                if let Ok(lat) =
                    gaugenn_soc::estimate_latency(&d, Backend::Cpu(cfg), &m.trace, &cool)
                {
                    tputs.push(1e3 / lat.total_ms);
                }
            }
            rows.push((d.name.to_string(), cfg.label(), stats::mean(&tputs)));
        }
    }
    Fig12 { configs, rows }
}

impl Fig12 {
    /// Throughput lookup by config label.
    pub fn throughput(&self, device: &str, label: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|(d, l, _)| d == device && l == label)
            .map(|(_, _, t)| *t)
    }

    /// Best unpinned thread count for a device.
    pub fn best_threads(&self, device: &str) -> Option<usize> {
        [2usize, 4, 8]
            .into_iter()
            .max_by(|&a, &b| {
                let ta = self.throughput(device, &a.to_string()).unwrap_or(0.0);
                let tb = self.throughput(device, &b.to_string()).unwrap_or(0.0);
                ta.partial_cmp(&tb).expect("finite throughputs")
            })
    }

    /// Paper-style table.
    pub fn render(&self) -> String {
        let labels: Vec<String> = self.configs.iter().map(|c| c.label()).collect();
        let mut header = vec!["Device".to_string()];
        header.extend(labels.iter().cloned());
        let mut t = TextTable::new(header);
        for dev in ["A20", "A70", "S21"] {
            let mut cells = vec![dev.to_string()];
            for l in &labels {
                cells.push(format!("{:.1}", self.throughput(dev, l).unwrap_or(0.0)));
            }
            t.row(cells);
        }
        let bests: Vec<String> = ["A20", "A70", "S21"]
            .iter()
            .map(|d| format!("{d}:{}", self.best_threads(d).unwrap_or(0)))
            .collect();
        format!(
            "Fig 12: TFLite throughput (inferences/s) per thread config\n{}\
             best thread counts: {} (paper: A20:4, A70:2, S21:4)\n",
            t.render(),
            bests.join(" ")
        )
    }
}

/// A backend-comparison experiment: latency + energy ECDFs per backend on
/// one device (Figs. 13 and 14 share this shape).
#[derive(Debug, Clone)]
pub struct BackendCompare {
    /// Device name.
    pub device: String,
    /// Per backend: name, models that ran, latency ECDF, energy ECDF,
    /// mean speedup vs baseline, mean efficiency gain vs baseline.
    pub rows: Vec<BackendRow>,
    /// Baseline backend name.
    pub baseline: String,
}

/// One backend's aggregate row.
#[derive(Debug, Clone)]
pub struct BackendRow {
    /// Backend display name.
    pub backend: String,
    /// Models that were compatible.
    pub models: usize,
    /// Latency ECDF (ms).
    pub latency: Ecdf,
    /// Energy ECDF (mJ).
    pub energy: Ecdf,
    /// Geometric-mean speedup vs the baseline over the common subset.
    pub speedup: f64,
    /// Geometric-mean efficiency gain vs the baseline.
    pub efficiency_gain: f64,
}

fn compare_backends(
    report: &PipelineReport,
    device_name: &str,
    frameworks: &[Framework],
    backends: &[Backend],
    baseline: Backend,
) -> Result<BackendCompare> {
    let d = device(device_name)
        .ok_or_else(|| crate::CoreError::Other(format!("unknown device {device_name}")))?;
    let cool = ThermalState::cool();
    let monitor = PowerMonitor::new(0xBAC4);
    let models: Vec<_> = report
        .models
        .iter()
        .filter(|m| frameworks.contains(&m.framework))
        .collect();
    // Baseline measurements per model checksum.
    let mut base: std::collections::BTreeMap<&str, (f64, f64)> = Default::default();
    for m in &models {
        if let Ok(rep) = measure_inference(&d, baseline, &m.trace, &cool, &monitor) {
            base.insert(
                m.checksum.as_str(),
                (rep.latency_ms, rep.efficiency_mflops_per_sw),
            );
        }
    }
    let mut rows = Vec::new();
    for &b in backends {
        let mut lats = Vec::new();
        let mut ens = Vec::new();
        let mut log_speedup = Vec::new();
        let mut log_eff = Vec::new();
        for m in &models {
            let Ok(rep) = measure_inference(&d, b, &m.trace, &cool, &monitor) else {
                continue;
            };
            lats.push(rep.latency_ms);
            ens.push(rep.energy_mj);
            if let Some(&(bl, beff)) = base.get(m.checksum.as_str()) {
                if rep.latency_ms > 0.0 && beff > 0.0 {
                    log_speedup.push((bl / rep.latency_ms).ln());
                    log_eff.push((rep.efficiency_mflops_per_sw / beff).ln());
                }
            }
        }
        rows.push(BackendRow {
            backend: b.name(),
            models: lats.len(),
            latency: Ecdf::new(lats),
            energy: Ecdf::new(ens),
            speedup: stats::mean(&log_speedup).exp(),
            efficiency_gain: stats::mean(&log_eff).exp(),
        });
    }
    Ok(BackendCompare {
        device: device_name.to_string(),
        rows,
        baseline: baseline.name(),
    })
}

impl BackendCompare {
    /// Row lookup by backend name.
    pub fn row(&self, backend: &str) -> Option<&BackendRow> {
        self.rows.iter().find(|r| r.backend == backend)
    }

    /// Paper-style table.
    pub fn render(&self, title: &str) -> String {
        let mut t = TextTable::new([
            "Backend",
            "n",
            "median ms",
            "median mJ",
            "speedup",
            "eff gain",
        ]);
        for r in &self.rows {
            t.row([
                r.backend.clone(),
                r.models.to_string(),
                format!("{:.2}", r.latency.median()),
                format!("{:.1}", r.energy.median()),
                format!("{:.2}x", r.speedup),
                format!("{:.2}x", r.efficiency_gain),
            ]);
        }
        format!(
            "{title} (device {}, baseline {})\n{}",
            self.device,
            self.baseline,
            t.render()
        )
    }
}

/// Fig. 13: TFLite CPU runtimes — baseline CPU vs XNNPACK vs NNAPI on Q845.
pub fn fig13(report: &PipelineReport) -> Result<BackendCompare> {
    compare_backends(
        report,
        "Q845",
        &[Framework::TfLite],
        &[
            cpu4(),
            Backend::Xnnpack(ThreadConfig::unpinned(4)),
            Backend::Nnapi,
        ],
        cpu4(),
    )
}

/// Fig. 14: SNPE targets vs CPU/GPU baselines over TFLite + caffe models
/// on Q845.
pub fn fig14(report: &PipelineReport) -> Result<BackendCompare> {
    compare_backends(
        report,
        "Q845",
        &[Framework::TfLite, Framework::Caffe],
        &[
            cpu4(),
            Backend::Gpu,
            Backend::Snpe(SnpeTarget::Cpu),
            Backend::Snpe(SnpeTarget::Gpu),
            Backend::Snpe(SnpeTarget::Dsp),
        ],
        cpu4(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pipeline, PipelineConfig, PipelineReport};
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
    fn fig11_throughput_scales_with_batch() {
        let f = fig11(report());
        assert!(f.common_models > 0);
        for dev in ["A20", "A70", "S21"] {
            let t2 = f.throughput(dev, 2).unwrap();
            let t25 = f.throughput(dev, 25).unwrap();
            assert!(t25 > t2, "{dev}: batch throughput must grow");
        }
        // S21 fastest at the largest batch.
        assert!(f.throughput("S21", 25).unwrap() > f.throughput("A70", 25).unwrap());
        assert!(f.throughput("A70", 25).unwrap() > f.throughput("A20", 25).unwrap());
        assert!(f.render().contains("batch 25"));
    }

    #[test]
    fn fig12_optima_match_paper() {
        let f = fig12(report());
        assert_eq!(f.best_threads("A20"), Some(4));
        assert_eq!(f.best_threads("A70"), Some(2));
        assert_eq!(f.best_threads("S21"), Some(4));
        // Oversubscribed affinity loses badly.
        for dev in ["A20", "A70", "S21"] {
            assert!(
                f.throughput(dev, "4a2").unwrap() < f.throughput(dev, "4").unwrap(),
                "{dev}: 4a2 must lose to 4"
            );
            assert!(
                f.throughput(dev, "8a4").unwrap() < f.throughput(dev, "4").unwrap(),
                "{dev}: 8a4 must lose to 4"
            );
        }
        assert!(f.render().contains("best thread counts"));
    }

    #[test]
    fn fig13_xnnpack_wins_nnapi_loses() {
        let f = fig13(report()).unwrap();
        let xnn = f.row("XNNPACK(4)").unwrap();
        assert!(xnn.speedup > 1.0, "xnnpack speedup {}", xnn.speedup);
        assert!(xnn.speedup < 1.3, "xnnpack is a modest win (paper 1.03x)");
        assert!(xnn.efficiency_gain > 1.0);
        let nnapi = f.row("NNAPI").unwrap();
        assert!(nnapi.speedup < 1.0, "nnapi slower than CPU (paper 0.49x)");
        assert!(nnapi.efficiency_gain < 1.0);
        // XNNPACK loses incompatible models (recurrent/quant layers).
        let cpu = f.row("CPU(4)").unwrap();
        assert!(xnn.models <= cpu.models);
        assert!(f.render("Fig 13").contains("Backend"));
    }

    #[test]
    fn fig14_dsp_dominates() {
        let f = fig14(report()).unwrap();
        let dsp = f.row("SNPE-DSP").unwrap();
        let gpu = f.row("SNPE-GPU").unwrap();
        assert!(dsp.speedup > gpu.speedup, "DSP beats GPU");
        assert!(gpu.speedup > 1.0, "SNPE-GPU beats CPU baseline");
        assert!(
            dsp.efficiency_gain > 3.0,
            "DSP efficiency gain {} (paper 20.3x)",
            dsp.efficiency_gain
        );
        let snpe_cpu = f.row("SNPE-CPU").unwrap();
        assert!(
            snpe_cpu.speedup < 1.0,
            "SNPE CPU lags the vanilla CPU path (§6.3)"
        );
        // Operator-support funnel: DSP runs fewer models than CPU.
        let cpu = f.row("CPU(4)").unwrap();
        assert!(dsp.models <= cpu.models);
    }
}
