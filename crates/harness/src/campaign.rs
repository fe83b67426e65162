//! Multi-device benchmark campaigns.
//!
//! The paper benchmarks hundreds of models across six devices. A campaign
//! runs the whole job list on every device, one worker thread per device
//! (each with its own master and USB switch), so devices of different
//! speeds finish their sweeps at different times, like the physical rack
//! in Fig. 2. The workers run under `std::thread::scope` and walk the
//! caller's job list in place: a job's model bytes are copied once, by
//! the adb push onto the device.
//!
//! Campaigns are built to survive a bad night on the rack: a panicking
//! worker is isolated into per-job `Err` outcomes instead of tearing down
//! the run, transient failures (watchdog timeouts, dead adb links) are
//! retried, and a device that fails [`CampaignConfig::quarantine_after`]
//! jobs in a row is quarantined for the rest of the run (a bricked phone
//! stays bricked for the night) — its remaining jobs are marked failed
//! without being run, so one bricked phone cannot stall the fleet. Every
//! (device, job) pair always yields exactly one [`CampaignResult`].
//!
//! A device's schedule is a pure function of its job list, its script
//! and its config: on a [`LogicalClock`](crate::clock::LogicalClock) the
//! watchdog charges and the quarantine point replay exactly.

use crate::device::DeviceAgent;
use crate::job::{JobResult, JobSpec};
use crate::master::{Master, MasterConfig};
use gaugenn_soc::DeviceSpec;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// One campaign job: a spec plus its model files.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Job spec template (the id is preserved).
    pub spec: JobSpec,
    /// Model files to push.
    pub files: Vec<(String, Vec<u8>)>,
}

/// Scripted fault for one device in a campaign (test/chaos hook): the
/// named device's agent hangs for its first `hang_jobs` jobs.
#[derive(Debug, Clone)]
pub struct DeviceScript {
    /// Device name the script applies to.
    pub device: String,
    /// Number of jobs the agent hangs on (`u32::MAX` ≈ bricked).
    pub hang_jobs: u32,
}

/// Commit hook fired for every [`CampaignResult`] the moment it is
/// committed by its device worker — the campaign's journaling seam (the
/// harness stays layer-clean of `core::journal`; callers that want
/// durable campaigns append to their own journal here).
pub type CommitHook = Arc<dyn Fn(&CampaignResult) + Send + Sync>;

/// Resilience knobs for a campaign.
#[derive(Clone)]
pub struct CampaignConfig {
    /// Watchdog/retry configuration handed to each per-device master.
    pub master: MasterConfig,
    /// Campaign-level retries per job on *transient* errors (on top of
    /// the master's own watchdog attempts).
    pub job_retries: u32,
    /// Quarantine a device after this many consecutive failed jobs; its
    /// remaining jobs fail fast without touching the hardware.
    pub quarantine_after: u32,
    /// Scripted faults (empty for production runs).
    pub scripts: Vec<DeviceScript>,
    /// Fired once per committed result, on the committing device's
    /// worker thread. `None` (the default) journals nothing.
    pub on_commit: Option<CommitHook>,
    /// `(device, job id)` pairs a previous (crashed) attempt already
    /// committed: the worker neither runs nor re-emits them, so a resumed
    /// campaign's results concatenated with the journaled ones cover
    /// exactly devices × jobs.
    pub completed: Option<Arc<BTreeSet<(String, u64)>>>,
}

impl std::fmt::Debug for CampaignConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CampaignConfig")
            .field("master", &self.master)
            .field("job_retries", &self.job_retries)
            .field("quarantine_after", &self.quarantine_after)
            .field("scripts", &self.scripts)
            .field("on_commit", &self.on_commit.as_ref().map(|_| "<hook>"))
            .field("completed", &self.completed)
            .finish()
    }
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            master: MasterConfig::default(),
            job_retries: 1,
            quarantine_after: 3,
            scripts: Vec::new(),
            on_commit: None,
            completed: None,
        }
    }
}

/// Outcome of one (device, job) pair.
#[derive(Debug)]
pub struct CampaignResult {
    /// Device name.
    pub device: String,
    /// Job id.
    pub job_id: u64,
    /// The measurement, or the device-side failure.
    pub outcome: Result<JobResult, String>,
}

/// Run every job on every device with the default resilience config.
pub fn run_campaign(devices: &[DeviceSpec], jobs: &[Campaign]) -> Vec<CampaignResult> {
    run_campaign_with(devices, jobs, &CampaignConfig::default())
}

/// Run every job on every device. Returns exactly one result per
/// (device, job) pair, whatever fails, minus the pairs
/// [`CampaignConfig::completed`] names.
///
/// Each device runs the full list (as in the paper's per-device sweeps);
/// devices run in parallel threads that borrow `jobs`.
pub fn run_campaign_with(
    devices: &[DeviceSpec],
    jobs: &[Campaign],
    config: &CampaignConfig,
) -> Vec<CampaignResult> {
    let mut outs: Vec<Vec<CampaignResult>> = devices.iter().map(|_| Vec::new()).collect();
    let panicked: Vec<bool> = std::thread::scope(|s| {
        let workers: Vec<_> = devices
            .iter()
            .zip(&mut outs)
            .map(|(spec, out)| s.spawn(move || device_worker(spec, jobs, config, out)))
            .collect();
        workers.into_iter().map(|w| w.join().is_err()).collect()
    });
    for ((spec, out), panicked) in devices.iter().zip(&mut outs).zip(panicked) {
        if !panicked {
            continue;
        }
        // A worker that panicked outside the per-job guard (a commit hook,
        // say) still yields one Err per pair it had not yet emitted,
        // keeping the devices×jobs invariant for downstream accounting.
        // It emits pairs in job order, so those are the jobs after the
        // first `out.len()` it did not skip.
        let device = spec.name.to_string();
        let emitted = out.len();
        out.extend(
            jobs.iter()
                .filter(|job| !config.is_completed(&device, job))
                .skip(emitted)
                .map(|job| CampaignResult {
                    device: device.clone(),
                    job_id: job.spec.id,
                    outcome: Err("device worker panicked".into()),
                }),
        );
    }
    outs.into_iter().flatten().collect()
}

impl CampaignConfig {
    /// Whether a previous (crashed) attempt already committed this pair.
    fn is_completed(&self, device: &str, job: &Campaign) -> bool {
        self.completed
            .as_ref()
            .is_some_and(|done| done.contains(&(device.to_string(), job.spec.id)))
    }
}

/// The per-device worker loop: run the job list in order, retrying
/// transient failures and quarantining the device after too many
/// consecutive ones. Emits into `out` as it goes, so the results survive
/// a panic in the worker.
fn device_worker(
    spec: &DeviceSpec,
    jobs: &[Campaign],
    config: &CampaignConfig,
    out: &mut Vec<CampaignResult>,
) {
    let device = spec.name.to_string();
    let master = Master::with_config(config.master.clone());
    let mut agent = DeviceAgent::new(spec.clone());
    if let Some(script) = config.scripts.iter().find(|s| s.device == device) {
        agent.hang_jobs_remaining = script.hang_jobs;
    }
    let quarantine_after = config.quarantine_after.max(1);
    // Consecutive failed jobs; the device is quarantined once they reach
    // `quarantine_after`.
    let mut strikes = 0;
    // A previous (crashed) attempt already committed these pairs:
    // resumed campaigns neither run nor re-emit them.
    for job in jobs.iter().filter(|job| !config.is_completed(&device, job)) {
        let outcome = if strikes >= quarantine_after {
            Err(format!(
                "device quarantined after {strikes} consecutive failures"
            ))
        } else {
            let outcome = run_one_job(&master, &mut agent, job, config.job_retries);
            strikes = if outcome.is_ok() { 0 } else { strikes + 1 };
            outcome
        };
        let result = CampaignResult {
            device: device.clone(),
            job_id: job.spec.id,
            outcome,
        };
        if let Some(hook) = &config.on_commit {
            hook(&result);
        }
        out.push(result);
    }
}

/// One job with campaign-level retries. A panic anywhere inside the
/// master/agent machinery is caught and reported as this job's failure.
fn run_one_job(
    master: &Master,
    agent: &mut DeviceAgent,
    job: &Campaign,
    retries: u32,
) -> Result<JobResult, String> {
    let mut last = String::new();
    for _ in 0..=retries {
        let attempt = catch_unwind(AssertUnwindSafe(|| {
            master.run_job(agent, &job.spec, &job.files)
        }));
        match attempt {
            Ok(Ok(r)) => return Ok(r),
            Ok(Err(e)) => {
                let transient = e.is_transient();
                last = e.to_string();
                if !transient {
                    return Err(last);
                }
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic".into());
                return Err(format!("worker panicked: {msg}"));
            }
        }
    }
    Err(last)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::{Clock, LogicalClock};
    use gaugenn_dnn::task::Task;
    use gaugenn_dnn::zoo::{build_for_task, SizeClass};
    use gaugenn_modelfmt::Framework;
    use gaugenn_soc::sched::ThreadConfig;
    use gaugenn_soc::spec::{device, hdks};
    use gaugenn_soc::Backend;
    use std::time::Duration;

    fn campaign(id: u64, task: Task, seed: u64) -> Campaign {
        let g = build_for_task(task, seed, SizeClass::Small, true).graph;
        let files = gaugenn_modelfmt::encode(&g, Framework::TfLite).unwrap().files;
        Campaign {
            spec: JobSpec {
                runs: 4,
                warmups: 1,
                ..JobSpec::new(id, files[0].0.clone(), Backend::Cpu(ThreadConfig::unpinned(4)))
            },
            files,
        }
    }

    #[test]
    fn campaign_covers_devices_times_jobs() {
        let devices = hdks();
        let jobs = vec![
            campaign(1, Task::MovementTracking, 1),
            campaign(2, Task::KeywordDetection, 2),
        ];
        let results = run_campaign(&devices, &jobs);
        assert_eq!(results.len(), devices.len() * jobs.len());
        assert!(results.iter().all(|r| r.outcome.is_ok()), "{results:?}");
        // Generations must order on mean latency for the same job.
        let mean = |dev: &str| -> f64 {
            results
                .iter()
                .filter(|r| r.device == dev)
                .filter_map(|r| r.outcome.as_ref().ok())
                .map(|j| j.mean_latency_ms())
                .sum::<f64>()
        };
        assert!(mean("Q845") > mean("Q855"));
        assert!(mean("Q855") > mean("Q888"));
    }

    #[test]
    fn failures_are_isolated_per_job() {
        let devices = vec![device("Q845").unwrap()];
        let good = campaign(1, Task::MovementTracking, 1);
        let mut bad = campaign(2, Task::AutoComplete, 2);
        bad.spec.backend = Backend::Snpe(gaugenn_soc::SnpeTarget::Dsp);
        let results = run_campaign(&devices, &[good, bad]);
        assert_eq!(results.len(), 2);
        assert!(results.iter().any(|r| r.outcome.is_ok()));
        assert!(results.iter().any(|r| r.outcome.is_err()));
    }

    #[test]
    fn hung_device_is_quarantined_while_others_finish() {
        let devices = vec![device("Q845").unwrap(), device("Q888").unwrap()];
        let jobs: Vec<Campaign> = (1..=4)
            .map(|id| campaign(id, Task::MovementTracking, id))
            .collect();
        let run = || {
            // One logical clock shared by both device workers.
            let clock = Arc::new(LogicalClock::new());
            let config = CampaignConfig {
                master: MasterConfig {
                    accept_timeout: Duration::from_millis(50),
                    attempts: 1,
                    clock: clock.clone(),
                },
                job_retries: 0,
                quarantine_after: 2,
                scripts: vec![DeviceScript {
                    device: "Q845".into(),
                    hang_jobs: u32::MAX,
                }],
                ..CampaignConfig::default()
            };
            let outcomes: Vec<(String, u64, Result<JobResult, String>)> =
                run_campaign_with(&devices, &jobs, &config)
                    .into_iter()
                    .map(|r| (r.device, r.job_id, r.outcome))
                    .collect();
            (outcomes, clock.now_ms())
        };
        let (outcomes, charged) = run();
        assert_eq!(outcomes.len(), devices.len() * jobs.len());
        // The healthy device finished everything.
        assert!(outcomes
            .iter()
            .filter(|(dev, ..)| dev == "Q888")
            .all(|(.., outcome)| outcome.is_ok()));
        // The hung one failed everything: two real watchdog timeouts,
        // then fail-fast quarantine for the rest of its queue.
        let hung: Vec<&str> = outcomes
            .iter()
            .filter(|(dev, ..)| dev == "Q845")
            .map(|(.., outcome)| outcome.as_ref().unwrap_err().as_str())
            .collect();
        assert_eq!(hung.len(), 4, "{outcomes:?}");
        assert!(
            hung[..2].iter().all(|e| e.contains("watchdog timeout")),
            "{hung:?}"
        );
        assert!(
            hung[2..].iter().all(|e| e.contains("quarantined")),
            "{hung:?}"
        );
        // Only the two expired watchdogs charge the clock, 50 + 1 ms each:
        // nothing for the fail-fast jobs or the healthy Q888.
        assert_eq!(charged, 2 * (50 + 1));
        assert_eq!(run(), (outcomes, charged), "the schedule replays exactly");
    }

    #[test]
    fn commit_hook_fires_per_result_and_completed_pairs_are_skipped() {
        let devices = vec![device("Q845").unwrap()];
        let jobs = vec![
            campaign(1, Task::MovementTracking, 1),
            campaign(2, Task::KeywordDetection, 2),
        ];
        let committed: Arc<std::sync::Mutex<Vec<(String, u64)>>> = Arc::default();
        let sink = Arc::clone(&committed);
        let mut config = CampaignConfig {
            on_commit: Some(Arc::new(move |r: &CampaignResult| {
                sink.lock().unwrap().push((r.device.clone(), r.job_id));
            })),
            ..CampaignConfig::default()
        };
        let results = run_campaign_with(&devices, &jobs, &config);
        assert_eq!(results.len(), 2);
        {
            let seen = committed.lock().unwrap();
            assert_eq!(seen.len(), 2, "one commit per result");
            assert!(seen.contains(&("Q845".to_string(), 1)));
            assert!(seen.contains(&("Q845".to_string(), 2)));
        }

        // Resume over a journal that already holds (Q845, job 1): the
        // pair is neither run nor re-emitted nor re-committed.
        config.completed = Some(Arc::new(BTreeSet::from([("Q845".to_string(), 1u64)])));
        let resumed = run_campaign_with(&devices, &jobs, &config);
        assert_eq!(resumed.len(), 1);
        assert_eq!(resumed[0].job_id, 2);
        assert_eq!(committed.lock().unwrap().len(), 3);
    }

    #[test]
    fn panicked_worker_fails_its_unfinished_pairs_by_id() {
        // A journal append that `expect`s panics inside the commit hook —
        // outside the per-job guard — and takes the worker down on job 3.
        // Job 1 was committed by an earlier attempt.
        let devices = vec![device("Q845").unwrap()];
        let jobs: Vec<Campaign> = (1..=4)
            .map(|id| campaign(id, Task::MovementTracking, id))
            .collect();
        let config = CampaignConfig {
            on_commit: Some(Arc::new(|r: &CampaignResult| {
                assert_ne!(r.job_id, 3, "journal append failed");
            })),
            completed: Some(Arc::new(BTreeSet::from([("Q845".to_string(), 1u64)]))),
            ..CampaignConfig::default()
        };
        let results = run_campaign_with(&devices, &jobs, &config);
        // The completed pair is not re-emitted, the pair committed before
        // the panic keeps its measurement, and the rest fail under their
        // own ids.
        let pairs: Vec<(u64, Option<&str>)> = results
            .iter()
            .map(|r| (r.job_id, r.outcome.as_ref().err().map(String::as_str)))
            .collect();
        assert_eq!(
            pairs,
            [
                (2, None),
                (3, Some("device worker panicked")),
                (4, Some("device worker panicked")),
            ]
        );
    }
}
