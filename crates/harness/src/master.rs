//! The master: single-device orchestration of the Fig. 3 workflow.
//!
//! For each job the master ① pushes the model and job file over adb and
//! asserts the device state, ② cuts USB power via the switch board, ③ runs
//! the headless agent in place, which returns the completion line the
//! phone would netcat back, ④ restores power, pulls the result file and
//! cleans up.
//!
//! Step ③ runs under a watchdog: an unattended rack cannot afford one hung
//! phone to stall a multi-day campaign. An agent that never phones home
//! costs the attempt `accept_timeout + 1` ms on the master's [`Clock`]
//! (the watchdog fires on the first millisecond past its deadline), and
//! the master then power-cycles the device through the USB switch, hard-reboots it,
//! re-asserts the benchmark state and retries the job up to
//! [`MasterConfig::attempts`] times before giving up with
//! [`HarnessError::Timeout`].

use crate::adb::Adb;
use crate::clock::{Clock, WallClock};
use crate::device::{DeviceAgent, JOB_PATH, MODEL_DIR, RESULT_PATH};
use crate::job::{JobResult, JobSpec};
use crate::{HarnessError, Result};
use std::sync::Arc;
use std::time::Duration;

/// Watchdog/retry knobs for one master.
#[derive(Debug, Clone)]
pub struct MasterConfig {
    /// Deadline for the device's completion message per attempt.
    pub accept_timeout: Duration,
    /// Total attempts per job (first try included). Must be ≥ 1.
    pub attempts: u32,
    /// Time source the watchdog deadline runs on. Production uses the
    /// default [`WallClock`]; tests inject a
    /// [`LogicalClock`](crate::clock::LogicalClock) for reproducible
    /// timeout behaviour.
    pub clock: Arc<dyn Clock>,
}

impl Default for MasterConfig {
    fn default() -> Self {
        MasterConfig {
            accept_timeout: Duration::from_secs(30),
            attempts: 3,
            clock: Arc::new(WallClock),
        }
    }
}

/// The benchmark master for one device.
pub struct Master {
    config: MasterConfig,
}

impl Master {
    /// A master with the default watchdog configuration. It cannot fail;
    /// the `Result` keeps the signature benchmark code calls.
    pub fn new() -> Result<Master> {
        Ok(Master::with_config(MasterConfig::default()))
    }

    /// A master with explicit watchdog/retry knobs.
    pub fn with_config(config: MasterConfig) -> Master {
        Master { config }
    }

    /// The watchdog/retry configuration.
    pub fn config(&self) -> &MasterConfig {
        &self.config
    }

    /// Run one job on one device agent, retrying through watchdog
    /// timeouts (power-cycle + reboot between attempts). Device-side
    /// failures are *not* retried — a model the device rejects once will
    /// be rejected every time.
    ///
    /// `model_files` are `(file_name, bytes)` pairs to push (split formats
    /// push several files).
    pub fn run_job(
        &self,
        agent: &mut DeviceAgent,
        job: &JobSpec,
        model_files: &[(String, Vec<u8>)],
    ) -> Result<JobResult> {
        let mut last = None;
        for _ in 0..self.config.attempts.max(1) {
            match self.run_job_once(agent, job, model_files) {
                Ok(r) => return Ok(r),
                Err(e @ HarnessError::Timeout(_)) => {
                    // Hung device: power-cycle and reboot it, then retry.
                    agent.endpoint.usb_power_restore();
                    agent.endpoint.hard_reboot();
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or_else(|| {
            HarnessError::Timeout(format!("job {} never completed", job.id))
        }))
    }

    /// One attempt of the Fig. 3 workflow. USB power is back on whenever
    /// it returns, so the caller can retry immediately.
    fn run_job_once(
        &self,
        agent: &mut DeviceAgent,
        job: &JobSpec,
        model_files: &[(String, Vec<u8>)],
    ) -> Result<JobResult> {
        let adb = Adb::connect(agent.endpoint.clone());

        // ① Push dependencies and assert device state (USB power is on).
        agent.endpoint.usb_power_restore();
        for (name, bytes) in model_files {
            adb.push(&format!("{MODEL_DIR}/{name}"), bytes.clone())?;
        }
        adb.push(JOB_PATH, job.to_text().into_bytes())?;
        adb.assert_benchmark_state()?;

        // ② Cut USB power, ③ run the headless agent, ④ restore power.
        agent.endpoint.usb_power_off();
        let completion = agent.run_headless();
        agent.endpoint.usb_power_restore();
        let Ok(line) = completion else {
            // The agent never phoned home: the watchdog fires on the first
            // millisecond past its deadline.
            let timeout = self.config.accept_timeout;
            self.config.clock.sleep_ms(timeout.as_millis() as u64 + 1);
            return Err(HarnessError::Timeout(format!(
                "no completion message within {timeout:?}"
            )));
        };

        // Pull results and clean up.
        let result_bytes = adb.pull(RESULT_PATH)?;
        adb.rm(RESULT_PATH)?;
        adb.rm(JOB_PATH)?;
        for (name, _) in model_files {
            adb.rm(&format!("{MODEL_DIR}/{name}"))?;
        }

        let text = String::from_utf8_lossy(&result_bytes);
        if let Some(err) = text.strip_prefix("error=") {
            return Err(HarnessError::Device(err.trim().to_string()));
        }
        let expected = format!("DONE {}", job.id);
        if line != expected {
            return Err(HarnessError::Device(format!(
                "unexpected completion message '{line}', wanted '{expected}'"
            )));
        }
        JobResult::from_text(&text)
    }
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

    fn model_files(task: Task, seed: u64) -> Vec<(String, Vec<u8>)> {
        let g = build_for_task(task, seed, SizeClass::Small, true).graph;
        gaugenn_modelfmt::encode(&g, Framework::TfLite).unwrap().files
    }

    #[test]
    fn full_workflow_roundtrip() {
        let master = Master::new().unwrap();
        let mut agent = DeviceAgent::new(device("Q845").unwrap());
        let files = model_files(Task::MovementTracking, 1);
        let job = JobSpec::new(
            42,
            files[0].0.clone(),
            Backend::Cpu(ThreadConfig::unpinned(4)),
        );
        let result = master.run_job(&mut agent, &job, &files).unwrap();
        assert_eq!(result.job_id, 42);
        assert_eq!(result.device, "Q845");
        assert_eq!(result.latencies_ms.len(), 10);
        // Device is back on USB power with WiFi restored.
        assert!(agent.endpoint.usb().power_on);
        assert!(agent.endpoint.state().wifi_on);
        // Files were cleaned up.
        assert!(agent.endpoint.read_local(RESULT_PATH).is_none());
    }

    #[test]
    fn sequential_jobs_share_thermal_history() {
        let master = Master::new().unwrap();
        let mut agent = DeviceAgent::new(device("S21").unwrap());
        let files = model_files(Task::SemanticSegmentation, 2);
        let mut temps = Vec::new();
        for id in 0..3 {
            let job = JobSpec {
                runs: 8,
                sleep_ms: 0,
                ..JobSpec::new(id, files[0].0.clone(), Backend::Cpu(ThreadConfig::unpinned(4)))
            };
            let r = master.run_job(&mut agent, &job, &files).unwrap();
            temps.push(r.final_temp_c);
        }
        assert!(
            temps[2] > temps[0],
            "continuous benchmarking should accumulate heat: {temps:?}"
        );
    }

    #[test]
    fn device_failure_is_reported() {
        let master = Master::new().unwrap();
        let mut agent = DeviceAgent::new(device("Q845").unwrap());
        let files = model_files(Task::AutoComplete, 3); // LSTM: DSP-incompatible
        let job = JobSpec::new(
            7,
            files[0].0.clone(),
            Backend::Snpe(gaugenn_soc::SnpeTarget::Dsp),
        );
        let err = master.run_job(&mut agent, &job, &files).unwrap_err();
        assert!(matches!(err, HarnessError::Device(_)), "{err}");
        // Device-side failures are deterministic, not watchdog events: no
        // power-cycle/reboot happened and the device is reachable again.
        assert_eq!(agent.endpoint.reboots(), 0);
        assert!(agent.endpoint.usb().power_on);
    }

    #[test]
    fn watchdog_recovers_a_hung_device() {
        let master = Master::with_config(MasterConfig {
            accept_timeout: Duration::from_millis(100),
            attempts: 3,
            ..MasterConfig::default()
        });
        let mut agent = DeviceAgent::new(device("Q845").unwrap());
        agent.hang_jobs_remaining = 1; // hang once, then behave
        let files = model_files(Task::MovementTracking, 6);
        let job = JobSpec::new(
            9,
            files[0].0.clone(),
            Backend::Cpu(ThreadConfig::unpinned(4)),
        );
        let result = master.run_job(&mut agent, &job, &files).unwrap();
        assert_eq!(result.job_id, 9);
        // The hang cost exactly one power-cycle + reboot.
        assert_eq!(agent.endpoint.reboots(), 1);
        assert!(agent.endpoint.usb().power_on);
    }

    #[test]
    fn watchdog_on_logical_clock_is_time_reproducible() {
        // On a LogicalClock a scripted hang consumes an exact number of
        // logical milliseconds: only the expired watchdog's accept poll
        // advances time, so each attempt burns deadline+1 ms.
        let run = || {
            let clock = Arc::new(crate::clock::LogicalClock::new());
            let master = Master::with_config(MasterConfig {
                accept_timeout: Duration::from_millis(250),
                attempts: 2,
                clock: clock.clone(),
            });
            let mut agent = DeviceAgent::new(device("Q855").unwrap());
            agent.hang_jobs_remaining = u32::MAX;
            let files = model_files(Task::KeywordDetection, 8);
            let job = JobSpec::new(
                13,
                files[0].0.clone(),
                Backend::Cpu(ThreadConfig::unpinned(4)),
            );
            let err = master.run_job(&mut agent, &job, &files).unwrap_err();
            assert!(matches!(err, HarnessError::Timeout(_)), "{err}");
            assert_eq!(agent.endpoint.reboots(), 2);
            clock.now_ms()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "watchdog must burn identical logical time");
        assert_eq!(a, 502, "two attempts × (250 ms deadline + 1 ms overrun)");
    }

    #[test]
    fn watchdog_gives_up_after_all_attempts() {
        let master = Master::with_config(MasterConfig {
            accept_timeout: Duration::from_millis(50),
            attempts: 2,
            ..MasterConfig::default()
        });
        let mut agent = DeviceAgent::new(device("Q855").unwrap());
        agent.hang_jobs_remaining = u32::MAX; // bricked for good
        let files = model_files(Task::KeywordDetection, 8);
        let job = JobSpec::new(
            11,
            files[0].0.clone(),
            Backend::Cpu(ThreadConfig::unpinned(4)),
        );
        let err = master.run_job(&mut agent, &job, &files).unwrap_err();
        assert!(matches!(err, HarnessError::Timeout(_)), "{err}");
        assert_eq!(agent.endpoint.reboots(), 2, "one reboot per attempt");
        // Even a permanently hung device is left powered for inspection.
        assert!(agent.endpoint.usb().power_on);
    }
}
