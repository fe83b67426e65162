//! The device agent: the "unattended, headless script that runs on the
//! device upon disconnection of the USB power" (§3.3).
//!
//! Its lifecycle mirrors Fig. 3: ① start once USB power is off (the master
//! cuts it, then calls the agent); ② run warm-up inferences; ③ run the
//! measured inferences with sleeps in between; ④ turn WiFi on and return
//! the completion line the phone would netcat to the master.

use crate::adb::DeviceEndpoint;
use crate::job::{JobResult, JobSpec};
use crate::{HarnessError, Result};
use gaugenn_dnn::exec::Executor;
use gaugenn_dnn::trace::trace_graph_batched;
use gaugenn_dnn::{Graph, WeightBytes};
use gaugenn_power::monsoon::PowerMonitor;
use gaugenn_power::{measure_model, PowerError};
use gaugenn_soc::thermal::ThermalState;
use gaugenn_soc::{DeviceSpec, LatencyModel};

/// Conventional on-device paths.
pub const JOB_PATH: &str = "/data/local/tmp/gauge/job.cfg";
/// Result file the master pulls after completion.
pub const RESULT_PATH: &str = "/data/local/tmp/gauge/result.txt";
/// Directory models are pushed to.
pub const MODEL_DIR: &str = "/data/local/tmp/gauge/models";

/// A simulated device under test.
pub struct DeviceAgent {
    /// Hardware spec (Table 1 row).
    pub spec: DeviceSpec,
    /// Shared endpoint (file system + USB + state).
    pub endpoint: DeviceEndpoint,
    /// Thermal state carried across jobs.
    pub thermal: ThermalState,
    /// Seed for measurement noise.
    pub noise_seed: u64,
    /// Scripted-fault knob: for this many upcoming jobs the agent "hangs"
    /// — it returns without ever phoning the master back, so the master's
    /// watchdog must fire. Zero (the default) means behave normally.
    pub hang_jobs_remaining: u32,
}

impl DeviceAgent {
    /// A cool device plugged in over USB.
    pub fn new(spec: DeviceSpec) -> DeviceAgent {
        DeviceAgent {
            spec,
            endpoint: DeviceEndpoint::new(),
            thermal: ThermalState::cool(),
            noise_seed: 0xD17E,
            hang_jobs_remaining: 0,
        }
    }

    /// Run the headless benchmark once, as the phone does when its USB
    /// power goes dark: execute the pushed job, write the result file and
    /// return the netcat-style completion line, `DONE <id>` (or
    /// `FAIL <id>` when the job itself failed).
    ///
    /// An `Err` means the agent never phoned home; the master's watchdog
    /// charges the attempt its deadline.
    pub fn run_headless(&mut self) -> Result<String> {
        // Scripted hang: the agent dies silently — no completion message,
        // no result file — and the master's watchdog has to notice.
        if self.hang_jobs_remaining > 0 {
            self.hang_jobs_remaining = self.hang_jobs_remaining.saturating_sub(1);
            return Err(HarnessError::Device(
                "scripted hang: agent never phoned home".into(),
            ));
        }
        // ① The measurement gate: the USB channel must be dark, exactly
        // the physical constraint the YKUSH exists to enforce.
        self.endpoint
            .usb()
            .assert_measurable()
            .map_err(|e| HarnessError::Device(e.to_string()))?;

        let job_bytes = self
            .endpoint
            .open_local(JOB_PATH)
            .ok_or_else(|| HarnessError::Device("no job pushed".into()))?;
        let job = JobSpec::from_text(&String::from_utf8_lossy(&job_bytes))?;
        let result = self.execute(&job);

        // ④ Turn WiFi back on and phone home.
        self.endpoint.set_state(|s| s.wifi_on = true);
        let (text, status) = match &result {
            Ok(r) => (r.to_text(), "DONE"),
            Err(e) => (format!("error={e}\n"), "FAIL"),
        };
        self.endpoint.write_local(RESULT_PATH, text.into_bytes());
        Ok(format!("{status} {}", job.id))
    }

    /// Execute a job against the SoC/power model (②–③ of the workflow).
    pub fn execute(&mut self, job: &JobSpec) -> Result<JobResult> {
        let model_path = format!("{MODEL_DIR}/{}", job.model_file);
        let model_bytes = self
            .endpoint
            .open_local(&model_path)
            .ok_or_else(|| HarnessError::Device(format!("model not pushed: {model_path}")))?;
        // The device runs whatever bytes it was given — so it must parse
        // and validate them like a real interpreter would, in place: the
        // weights stay in the pushed bytes, and the trace reads only their
        // lengths and dtypes.
        let files = [(job.model_file.clone(), model_bytes.as_slice())];
        let graph = decode_model(&files)?;
        let trace = trace_graph_batched(&graph, job.batch)
            .map_err(|e| HarnessError::Device(e.to_string()))?;

        if job.verify_outputs {
            // Only a real forward pass reads weight values.
            let graph = graph.materialise();
            let ex = Executor::new(&graph).map_err(|e| HarnessError::Device(e.to_string()))?;
            let out = ex
                .run_random(job.batch, self.noise_seed)
                .map_err(|e| HarnessError::Device(e.to_string()))?;
            if out.iter().any(|t| t.data.iter().any(|v| !v.is_finite())) {
                return Err(HarnessError::Device("non-finite model output".into()));
            }
        }

        // The roofline of this (device, backend, trace) is resolved once;
        // every run below prices it at the die's current temperature.
        let model = LatencyModel::new(&self.spec, job.backend, &trace)
            .map_err(|e| HarnessError::Device(PowerError::from(e).to_string()))?;
        let mut latencies = Vec::with_capacity(job.runs as usize);
        let mut energies = Vec::with_capacity(job.runs as usize);
        let mut power_acc = 0.0;
        // ② Warm-ups: first runs are slower (cold caches); they heat the
        // die but are not recorded.
        for w in 0..job.warmups {
            let monitor = PowerMonitor::new(self.noise_seed ^ (job.id << 8) ^ w as u64);
            let rep = measure_model(&model, &self.thermal, &monitor);
            let cold_factor = 1.0 + 0.5 / (w as f64 + 1.0);
            self.thermal.step(
                &self.spec,
                rep.avg_power_w,
                rep.latency_ms * cold_factor / 1e3,
            );
        }
        // ③ Measured runs with inter-run sleeps.
        for r in 0..job.runs {
            let monitor =
                PowerMonitor::new(self.noise_seed ^ (job.id << 8) ^ (0x1000 + r) as u64);
            let rep = measure_model(&model, &self.thermal, &monitor);
            latencies.push(rep.latency_ms);
            energies.push(rep.energy_mj);
            power_acc += rep.avg_power_w;
            self.thermal
                .step(&self.spec, rep.avg_power_w, rep.latency_ms / 1e3);
            // Inter-run sleep cools the die (idle power only).
            self.thermal.step(
                &self.spec,
                self.spec.soc.idle_power_w,
                job.sleep_ms as f64 / 1e3,
            );
        }
        Ok(JobResult {
            job_id: job.id,
            device: self.spec.name.to_string(),
            latencies_ms: latencies,
            energies_mj: energies,
            avg_power_w: power_acc / job.runs.max(1) as f64,
            final_temp_c: self.thermal.temp_c,
        })
    }
}

/// Decode the pushed model file `(name, bytes)` in place, after signature
/// validation (the device-side interpreter rejects what it cannot load).
fn decode_model<'a>(file: &'a [(String, &[u8]); 1]) -> Result<Graph<WeightBytes<'a>>> {
    let [(file_name, bytes)] = file;
    let validated = gaugenn_modelfmt::validate(file_name, bytes)
        .ok_or_else(|| HarnessError::Device(format!("'{file_name}' failed validation")))?;
    gaugenn_modelfmt::decode_in_place(validated.framework, file)
        .map_err(|e| HarnessError::Device(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaugenn_dnn::task::Task;
    use gaugenn_dnn::zoo::{build_for_task, SizeClass};
    use gaugenn_modelfmt::Framework;
    use gaugenn_soc::sched::ThreadConfig;
    use gaugenn_soc::spec::device;
    use gaugenn_soc::Backend;

    fn push_model(agent: &DeviceAgent, task: Task, seed: u64) -> String {
        let g = build_for_task(task, seed, SizeClass::Small, true).graph;
        let art = gaugenn_modelfmt::encode(&g, Framework::TfLite).unwrap();
        let (name, bytes) = &art.files[0];
        agent
            .endpoint
            .write_local(&format!("{MODEL_DIR}/{name}"), bytes.clone());
        name.clone()
    }

    #[test]
    fn execute_produces_measurements() {
        let mut agent = DeviceAgent::new(device("Q845").unwrap());
        let model = push_model(&agent, Task::MovementTracking, 1);
        let job = JobSpec {
            verify_outputs: true,
            ..JobSpec::new(1, model, Backend::Cpu(ThreadConfig::unpinned(4)))
        };
        let r = agent.execute(&job).unwrap();
        assert_eq!(r.latencies_ms.len(), 10);
        assert_eq!(r.energies_mj.len(), 10);
        assert!(r.mean_latency_ms() > 0.0);
        assert!(r.avg_power_w > 0.0);
        assert!(r.final_temp_c >= 25.0);
    }

    #[test]
    fn missing_model_is_an_error() {
        let mut agent = DeviceAgent::new(device("A20").unwrap());
        let job = JobSpec::new(2, "ghost.tflite", Backend::Cpu(ThreadConfig::unpinned(4)));
        assert!(agent.execute(&job).is_err());
    }

    #[test]
    fn corrupted_model_rejected_by_device() {
        let agent0 = DeviceAgent::new(device("A20").unwrap());
        let model = push_model(&agent0, Task::MovementTracking, 3);
        // Corrupt the pushed bytes.
        let path = format!("{MODEL_DIR}/{model}");
        let mut bytes = agent0.endpoint.read_local(&path).unwrap();
        for b in bytes.iter_mut() {
            *b ^= 0x5A;
        }
        agent0.endpoint.write_local(&path, bytes);
        let mut agent = agent0;
        let job = JobSpec::new(3, model, Backend::Cpu(ThreadConfig::unpinned(4)));
        assert!(agent.execute(&job).is_err());
    }

    #[test]
    fn overflowing_batch_is_a_device_error() {
        let mut agent = DeviceAgent::new(device("Q845").unwrap());
        let model = push_model(&agent, Task::MovementTracking, 6);
        let batch = 1usize << 62;
        for verify_outputs in [false, true] {
            let job = JobSpec {
                batch,
                verify_outputs,
                ..JobSpec::new(6, model.clone(), Backend::Cpu(ThreadConfig::unpinned(4)))
            };
            let err = agent.execute(&job).unwrap_err();
            assert!(
                matches!(&err, HarnessError::Device(r) if r.contains("overflows")),
                "{err}"
            );
        }
        // The owned decode's trace fails the same way.
        let bytes = agent
            .endpoint
            .read_local(&format!("{MODEL_DIR}/{model}"))
            .unwrap();
        let owned = gaugenn_modelfmt::decode(Framework::TfLite, &[(model, bytes)]).unwrap();
        assert!(trace_graph_batched(&owned, batch).is_err());
    }

    #[test]
    fn incompatible_backend_fails_cleanly() {
        let mut agent = DeviceAgent::new(device("Q845").unwrap());
        let model = push_model(&agent, Task::AutoComplete, 4); // LSTM model
        let job = JobSpec::new(4, model, Backend::Snpe(gaugenn_soc::SnpeTarget::Dsp));
        let err = agent.execute(&job).unwrap_err();
        assert!(err.to_string().contains("does not support"), "{err}");
    }

    #[test]
    fn repeated_jobs_heat_the_device() {
        let mut agent = DeviceAgent::new(device("S21").unwrap());
        let g = build_for_task(Task::SemanticSegmentation, 5, SizeClass::Medium, true).graph;
        let art = gaugenn_modelfmt::encode(&g, Framework::TfLite).unwrap();
        let (name, bytes) = &art.files[0];
        agent
            .endpoint
            .write_local(&format!("{MODEL_DIR}/{name}"), bytes.clone());
        let job = JobSpec {
            runs: 50,
            sleep_ms: 0,
            ..JobSpec::new(5, name.clone(), Backend::Cpu(ThreadConfig::unpinned(4)))
        };
        let r = agent.execute(&job).unwrap();
        assert!(r.final_temp_c > 25.15, "temp {}", r.final_temp_c);
    }
}
