//! Per-inference and sustained energy accounting.
//!
//! [`measure_inference`] reproduces the Fig. 10 pipeline: resolve the
//! roofline, estimate latency, synthesise the power waveform (idle floor +
//! screen + engine draw), "capture" it with the Monsoon substitute and
//! integrate. Efficiency is FLOPs per second per watt, the paper's
//! MFLOP/s/W metric (footnote 8: "effectively the same as FLOPs per
//! Joule"). [`measure_model`] is the same measurement of a roofline
//! resolved beforehand, for callers that run one model many times.
//!
//! [`sustained_run`] reproduces the Table 4 scenarios: many inferences at a
//! duty cycle, stepping the thermal model so phones throttle while
//! open-deck boards stay cool.

use crate::battery::Battery;
use crate::monsoon::PowerMonitor;
use crate::{PowerError, Result};
use gaugenn_dnn::trace::TraceReport;
use gaugenn_soc::latency::LatencyModel;
use gaugenn_soc::thermal::ThermalState;
use gaugenn_soc::{Backend, DeviceSpec};

/// Energy report for a single inference.
#[derive(Debug, Clone)]
pub struct EnergyReport {
    /// Inference latency, milliseconds.
    pub latency_ms: f64,
    /// Energy for the inference, millijoules (screen and idle included, as
    /// in the paper's accounting where screen power "is measured and
    /// accounted for").
    pub energy_mj: f64,
    /// Mean power during the inference, watts.
    pub avg_power_w: f64,
    /// Efficiency in MFLOP/s/W.
    pub efficiency_mflops_per_sw: f64,
}

/// Measure one inference of `trace` on `device`/`backend` at the given
/// thermal state.
pub fn measure_inference(
    device: &DeviceSpec,
    backend: Backend,
    trace: &TraceReport,
    thermal: &ThermalState,
    monitor: &PowerMonitor,
) -> Result<EnergyReport> {
    Ok(measure_model(
        &LatencyModel::new(device, backend, trace)?,
        thermal,
        monitor,
    ))
}

/// Measure one inference of an already-resolved `model` at the given
/// thermal state.
pub fn measure_model(
    model: &LatencyModel<'_>,
    thermal: &ThermalState,
    monitor: &PowerMonitor,
) -> EnergyReport {
    let lat = model.estimate(thermal);
    // Screen power is captured separately and subtracted (§3.3: "this is
    // measured and accounted for"), so the per-inference figure is the
    // SoC-active power: engine draw plus the awake-SoC floor.
    let active = model.device().soc.idle_power_w + model.engine().active_power_w;
    let duration_s = lat.total_ms / 1e3;
    let capture = monitor.record(duration_s.max(2e-4), |_| active);
    let avg_power_w = capture.avg_power_w();
    let energy_j = avg_power_w * duration_s;
    let eff = if energy_j > 0.0 {
        model.total_flops() as f64 / 1e6 / energy_j
    } else {
        0.0
    };
    EnergyReport {
        latency_ms: lat.total_ms,
        energy_mj: energy_j * 1e3,
        avg_power_w,
        efficiency_mflops_per_sw: eff,
    }
}

/// Report for a sustained, duty-cycled scenario run (Table 4).
#[derive(Debug, Clone)]
pub struct SustainedReport {
    /// Number of inferences executed.
    pub inferences: u64,
    /// Wall-clock duration of the scenario, seconds.
    pub duration_s: f64,
    /// Energy attributed to the DNN workload, joules: engine + SoC-active
    /// power during inference time only. Idle gaps and screen are the
    /// baseline the paper measures separately and subtracts.
    pub total_energy_j: f64,
    /// Battery discharge in mAh.
    pub battery_mah: f64,
    /// Final die temperature, °C.
    pub final_temp_c: f64,
    /// Mean per-inference latency over the run (throttling raises it).
    pub mean_latency_ms: f64,
}

/// Run `inferences` inferences spread evenly over `duration_s` seconds
/// (the scenario duty cycle), stepping the thermal model.
///
/// When the demanded rate exceeds what the device can sustain, the run
/// drops work instead of stretching the clock — a video call that cannot
/// hold 15 FPS skips frames; the hour is still an hour. The report's
/// `inferences` records what actually ran.
pub fn sustained_run(
    device: &DeviceSpec,
    backend: Backend,
    trace: &TraceReport,
    inferences: u64,
    duration_s: f64,
) -> Result<SustainedReport> {
    if inferences == 0 || duration_s <= 0.0 {
        return Err(PowerError::BadConfig(
            "need at least one inference and a positive duration".into(),
        ));
    }
    let model = LatencyModel::new(device, backend, trace)?;
    let engine = model.engine();
    // Physical power (drives heating) vs attributed power (the scenario's
    // marginal DNN cost — screen and deep-idle floor excluded).
    let idle_w = device.soc.idle_power_w * 0.35 + device.screen_power_w;
    let active_w = device.soc.idle_power_w + device.screen_power_w + engine.active_power_w;
    let attributed_w = device.soc.idle_power_w + engine.active_power_w;

    let period_s = duration_s / inferences as f64;
    let mut thermal = ThermalState::cool();
    let mut total_energy = 0.0f64;
    let mut total_latency_ms = 0.0f64;
    let mut elapsed = 0.0f64;

    // Chunked simulation: latency is re-estimated as the device heats, so
    // throttling feeds back into both energy and duration.
    let chunk = (inferences / 64).max(1);
    let mut done = 0u64;
    while done < inferences && elapsed < duration_s {
        let lat = model.estimate(&thermal);
        let infer_s = lat.total_ms / 1e3;
        // Frame dropping: within this chunk's wall-clock window, only as
        // many inferences run as fit back-to-back.
        let want = chunk.min(inferences - done);
        let window_s = (period_s * want as f64).min(duration_s - elapsed);
        let fit = ((window_s / infer_s).floor() as u64).min(want).max(
            // Always make at least one attempt per window if time remains.
            u64::from(window_s >= infer_s),
        );
        if fit == 0 {
            // The model cannot complete even one inference in the window:
            // it runs continuously, completing what it can.
            let n = (window_s / infer_s).max(0.0) as u64;
            let ran = n.max(1).min(inferences - done);
            let active = (infer_s * ran as f64).min(window_s.max(infer_s));
            total_energy += attributed_w * active;
            total_latency_ms += lat.total_ms * ran as f64;
            thermal.step(device, active_w, window_s.max(infer_s));
            elapsed += window_s.max(infer_s);
            done += ran;
            continue;
        }
        let chunk_active_s = infer_s * fit as f64;
        let chunk_idle_s = (window_s - chunk_active_s).max(0.0);
        total_energy += attributed_w * chunk_active_s;
        total_latency_ms += lat.total_ms * fit as f64;
        let span = chunk_active_s + chunk_idle_s;
        let avg_w = if span > 0.0 {
            (active_w * chunk_active_s + idle_w * chunk_idle_s) / span
        } else {
            idle_w
        };
        thermal.step(device, avg_w, span);
        elapsed += span;
        done += want; // the window's share of the schedule has passed
    }
    Ok(SustainedReport {
        inferences: done,
        duration_s: elapsed,
        total_energy_j: total_energy,
        battery_mah: Battery::joules_to_mah(total_energy),
        final_temp_c: thermal.temp_c,
        mean_latency_ms: total_latency_ms / done.max(1) as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaugenn_dnn::task::Task;
    use gaugenn_dnn::trace::trace_graph;
    use gaugenn_dnn::zoo::{build_for_task, SizeClass};
    use gaugenn_soc::sched::ThreadConfig;
    use gaugenn_soc::spec::device;
    use gaugenn_soc::SnpeTarget;

    fn cpu4() -> Backend {
        Backend::Cpu(ThreadConfig::unpinned(4))
    }

    fn tr(task: Task, seed: u64) -> TraceReport {
        trace_graph(&build_for_task(task, seed, SizeClass::Small, true).graph).unwrap()
    }

    fn mon() -> PowerMonitor {
        PowerMonitor::noiseless(1)
    }

    #[test]
    fn energy_similar_across_generations_power_rises() {
        // Fig. 10a/10b: newer devices draw more power but need similar
        // energy because they finish faster.
        let t = tr(Task::ObjectDetection, 1);
        let cool = ThermalState::cool();
        let q845 = measure_inference(&device("Q845").unwrap(), cpu4(), &t, &cool, &mon()).unwrap();
        let q888 = measure_inference(&device("Q888").unwrap(), cpu4(), &t, &cool, &mon()).unwrap();
        assert!(q888.avg_power_w > q845.avg_power_w, "newer gen draws more power");
        let ratio = q888.energy_mj / q845.energy_mj;
        assert!(
            (0.4..=1.4).contains(&ratio),
            "energy should be in the same ballpark, ratio {ratio}"
        );
        assert!(q888.latency_ms < q845.latency_ms);
    }

    #[test]
    fn efficiency_improves_with_generation() {
        // Fig. 10c: median efficiency 730 / 765 / 873 MFLOP/s/W. The gain
        // shows on compute-bound models; tiny overhead-dominated models can
        // invert it (part of the spread in the paper's distributions).
        let t = tr(Task::SemanticSegmentation, 2);
        let cool = ThermalState::cool();
        let e845 = measure_inference(&device("Q845").unwrap(), cpu4(), &t, &cool, &mon())
            .unwrap()
            .efficiency_mflops_per_sw;
        let e888 = measure_inference(&device("Q888").unwrap(), cpu4(), &t, &cool, &mon())
            .unwrap()
            .efficiency_mflops_per_sw;
        assert!(e888 > e845, "Q888 {e888} should beat Q845 {e845}");
    }

    #[test]
    fn dsp_vastly_more_efficient() {
        // §6.3: SNPE DSP 20.3× more efficient than CPU on average.
        let t = tr(Task::ImageClassification, 3);
        let cool = ThermalState::cool();
        let dev = device("Q845").unwrap();
        let cpu = measure_inference(&dev, cpu4(), &t, &cool, &mon()).unwrap();
        let dsp =
            measure_inference(&dev, Backend::Snpe(SnpeTarget::Dsp), &t, &cool, &mon()).unwrap();
        let gain = dsp.efficiency_mflops_per_sw / cpu.efficiency_mflops_per_sw;
        assert!(gain > 4.0, "dsp efficiency gain {gain}");
    }

    #[test]
    fn sustained_segmentation_drains_battery_hard() {
        // Table 4: one hour of 15 FPS segmentation averages ~1.2 Ah on
        // Q845 — a substantial chunk of a 4000 mAh battery. Use a
        // mid-sized segmenter (the corpus spans 272–3835 mAh).
        let t = trace_graph(
            &build_for_task(Task::SemanticSegmentation, 4, SizeClass::Medium, true).graph,
        )
        .unwrap();
        let dev = device("Q845").unwrap();
        let rep = sustained_run(&dev, cpu4(), &t, 15 * 3600, 3600.0).unwrap();
        let frac = rep.battery_mah / 4000.0;
        assert!(frac > 0.15, "segmentation should cost >15% of a 4 Ah pack, got {frac}");
        assert!(rep.final_temp_c > 40.0, "sustained load should heat the die");
    }

    #[test]
    fn sustained_typing_is_cheap() {
        // Table 4: a day's typing (275 words) costs well under 1 mAh.
        let t = tr(Task::AutoComplete, 5);
        let dev = device("Q845").unwrap();
        let rep = sustained_run(&dev, cpu4(), &t, 275, 3600.0).unwrap();
        assert!(rep.battery_mah < 5.0, "typing drained {} mAh", rep.battery_mah);
    }

    #[test]
    fn throttling_extends_mean_latency() {
        let t = tr(Task::SemanticSegmentation, 6);
        let dev = device("S21").unwrap(); // sealed phone throttles
        let cool_lat = gaugenn_soc::estimate_latency(&dev, cpu4(), &t, &ThermalState::cool())
            .unwrap()
            .total_ms;
        let rep = sustained_run(&dev, cpu4(), &t, 15 * 600, 600.0).unwrap();
        assert!(
            rep.mean_latency_ms >= cool_lat,
            "sustained mean {} should be >= cool {}",
            rep.mean_latency_ms,
            cool_lat
        );
    }

    #[test]
    fn bad_configs_rejected() {
        let t = tr(Task::AutoComplete, 7);
        let dev = device("Q845").unwrap();
        assert!(sustained_run(&dev, cpu4(), &t, 0, 10.0).is_err());
        assert!(sustained_run(&dev, cpu4(), &t, 10, 0.0).is_err());
    }
}
