//! The master: single-device orchestration of the Fig. 3 workflow.
//!
//! For each job the master ① pushes the model and job file over adb and
//! asserts the device state, ② launches the headless agent (a thread),
//! ③ cuts USB power via the switch board, ④ waits for the device's TCP
//! completion message on its listener, ⑤ restores power, pulls the result
//! file and cleans up.
//!
//! Step ④ runs under a watchdog: an unattended rack cannot afford one hung
//! phone to stall a multi-day campaign, so the completion wait carries a
//! deadline. The master blocks until the agent thread signals that it has
//! exited, then accepts the completion connection the agent opened on its
//! way out; only an agent that exits without phoning home (or outlives
//! the wait) leaves the master polling the listener until the deadline.
//! When the deadline expires the master power-cycles the device through
//! the USB switch, hard-reboots it, re-asserts the benchmark state and
//! retries the job up to [`MasterConfig::attempts`] times before giving up
//! with [`HarnessError::Timeout`]. Stale completion messages from a
//! previous (timed-out) attempt are drained before each new attempt so the
//! listener can never hand an old "DONE" to a new job.

use crate::adb::Adb;
use crate::clock::{Clock, WallClock};
use crate::device::{DeviceAgent, JOB_PATH, MODEL_DIR, RESULT_PATH};
use crate::job::{JobResult, JobSpec};
use crate::{HarnessError, Result};
use crossbeam::channel;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
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
    listener: TcpListener,
    addr: SocketAddr,
    config: MasterConfig,
}

impl Master {
    /// Bind the completion listener on an ephemeral loopback port, with
    /// the default watchdog configuration.
    pub fn new() -> Result<Master> {
        Master::with_config(MasterConfig::default())
    }

    /// Bind with explicit watchdog/retry knobs.
    pub fn with_config(config: MasterConfig) -> Result<Master> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        // The watchdog polls the listener, so it stays nonblocking for life.
        listener.set_nonblocking(true)?;
        Ok(Master {
            listener,
            addr,
            config,
        })
    }

    /// Completion-listener address the device will netcat to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
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

    /// Eat completion messages left over from a previous timed-out
    /// attempt, so the next accept cannot pair an old "DONE" with a new
    /// job. The listener is nonblocking, so this returns immediately once
    /// the backlog is empty.
    fn drain_stale_completions(&self) {
        while let Ok((stream, _)) = self.listener.accept() {
            // Read and discard whatever the stale agent sent.
            let _ = stream.set_nonblocking(false);
            let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
            let mut sink = String::new();
            let _ = BufReader::new(stream).read_line(&mut sink);
        }
    }

    /// Accept the completion connection of an agent that has exited after
    /// phoning home. Its `connect` returned, so the handshake is complete
    /// and the kernel has queued the connection on this listener (or is
    /// about to): one blocking accept takes it without touching the clock.
    fn accept_phoned_home(&self) -> Result<TcpStream> {
        self.listener.set_nonblocking(false)?;
        let accepted = self.listener.accept();
        // The drain and the deadline poll both need a nonblocking listener.
        self.listener.set_nonblocking(true)?;
        Ok(accepted?.0)
    }

    /// The slow path: poll for the completion connection until the
    /// watchdog deadline (milliseconds on the configured clock), charging
    /// the clock 1 ms per empty poll. Only an agent that exited without
    /// phoning home, or outlived the wait for its exit, ends up here.
    fn accept_with_deadline(&self, deadline_ms: u64) -> Result<TcpStream> {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    return Ok(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if self.config.clock.now_ms() > deadline_ms {
                        return Err(HarnessError::Timeout(format!(
                            "no completion message within {:?}",
                            self.config.accept_timeout
                        )));
                    }
                    self.config.clock.sleep_ms(1);
                }
                Err(e) => return Err(HarnessError::Io(e)),
            }
        }
    }

    /// One attempt of the Fig. 3 workflow. On a watchdog timeout the
    /// agent is always recovered (joined) and USB power restored before
    /// the error propagates, so the caller can retry immediately.
    fn run_job_once(
        &self,
        agent: &mut DeviceAgent,
        job: &JobSpec,
        model_files: &[(String, Vec<u8>)],
    ) -> Result<JobResult> {
        let endpoint = agent.endpoint.clone();
        let adb = Adb::connect(endpoint.clone());
        self.drain_stale_completions();

        // ① Push dependencies and assert device state (USB power is on).
        endpoint.usb_power_restore();
        for (name, bytes) in model_files {
            adb.push(&format!("{MODEL_DIR}/{name}"), bytes.clone())?;
        }
        adb.push(JOB_PATH, job.to_text().into_bytes())?;
        adb.assert_benchmark_state()?;

        // ② Launch the headless agent thread, then ③ cut USB power.
        let master_addr = self.addr;
        let (done_tx, done_rx) = channel::unbounded_named::<bool>("harness.agent_done");
        let mut moved_agent = std::mem::replace(agent, DeviceAgent::new(agent.spec.clone()));
        let handle = std::thread::spawn(move || {
            let res = moved_agent.run_headless(master_addr, Duration::from_secs(10));
            // Whether the agent phoned home; a hang exits without doing so.
            let _ = done_tx.send(res.is_ok());
            (moved_agent, res)
        });
        endpoint.usb_power_off();

        // ④ Wait for the agent to exit, then for its completion message,
        // all under the watchdog.
        let clock = &self.config.clock;
        let timeout_ms = self.config.accept_timeout.as_millis() as u64;
        let deadline_ms = clock.now_ms() + timeout_ms;
        let phoned_home = match clock.wait_limit(timeout_ms) {
            Some(limit) => done_rx.recv_timeout(limit).ok(),
            None => done_rx.recv().ok(),
        };
        let accepted = if phoned_home == Some(true) {
            self.accept_phoned_home()
        } else {
            self.accept_with_deadline(deadline_ms)
        };
        let stream = match accepted {
            Ok(s) => s,
            Err(e) => {
                // Hung agent: restore power so the (possibly stuck) agent
                // thread can unblock, recover it, and report the timeout.
                endpoint.usb_power_restore();
                if let Ok((returned_agent, _)) = handle.join() {
                    *agent = returned_agent;
                }
                return Err(e);
            }
        };
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line)?;
        let line = line.trim_end();

        // ⑤ Restore power, join the agent (keeping its thermal state),
        // pull results, clean up.
        endpoint.usb_power_restore();
        let (returned_agent, headless_result) = handle
            .join()
            .map_err(|_| HarnessError::Device("device agent panicked".into()))?;
        *agent = returned_agent;
        headless_result?;

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
        })
        .unwrap();
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
            })
            .unwrap();
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
        })
        .unwrap();
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
