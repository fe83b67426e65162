//! Multi-device benchmark campaigns.
//!
//! The paper benchmarks hundreds of models across six devices. A campaign
//! runs the whole job list on every device, one worker thread per device
//! (each with its own master listener and USB switch), so devices of
//! different speeds finish their sweeps at different times, like the
//! physical rack in Fig. 2. The workers run under `std::thread::scope`
//! and walk the caller's job list in place: a job's model bytes are
//! copied once, by the adb push onto the device.
//!
//! Campaigns are built to survive a bad night on the rack: a panicking
//! worker is isolated into per-job `Err` outcomes instead of tearing down
//! the run, transient failures (watchdog timeouts, dead adb links) are
//! retried, and a device that fails [`CampaignConfig::quarantine_after`]
//! jobs in a row is quarantined — its remaining jobs are marked failed
//! without being run, so one bricked phone cannot stall the fleet. Every
//! (device, job) pair always yields exactly one [`CampaignResult`].
//!
//! Quarantine is permanent by default (a bricked phone stays bricked for
//! the night), but [`CampaignConfig::probation_cooldown_ms`] turns it
//! into a cool-down on the campaign's own clock: once the cool-down
//! elapses the next job runs as a *probe*. A successful probe clears the
//! quarantine and its strike count; a failed probe re-quarantines the
//! device with a **doubled** cool-down, so a flapping device backs off
//! exponentially instead of burning a probe job per queue entry. On a
//! [`LogicalClock`](crate::clock::LogicalClock) the whole
//! quarantine/probation schedule is time-reproducible.

use crate::device::DeviceAgent;
use crate::job::{JobResult, JobSpec};
use crate::master::{Master, MasterConfig};
use gaugenn_soc::DeviceSpec;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
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
    /// Probation cool-down in milliseconds on the campaign clock
    /// ([`MasterConfig::clock`]). `None` (the default) keeps quarantine
    /// permanent; `Some(ms)` lets a quarantined device run one probe job
    /// after the cool-down elapses — success clears the quarantine,
    /// failure re-quarantines with the cool-down doubled.
    pub probation_cooldown_ms: Option<u64>,
    /// Fleet-wide probation budget: at most this many devices may hold a
    /// probation slot (serve cool-downs and burn probe jobs) at once.
    /// A device that enters quarantine when every slot is taken is
    /// quarantined *permanently* — its queue fails fast instead of
    /// stalling the campaign tail with doomed probes when the whole
    /// fleet flaps at once. `None` (the default) leaves probation
    /// unbudgeted. Slots are released by a successful probe.
    pub max_probation_devices: Option<usize>,
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
            .field("probation_cooldown_ms", &self.probation_cooldown_ms)
            .field("max_probation_devices", &self.max_probation_devices)
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
            probation_cooldown_ms: None,
            max_probation_devices: None,
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
    let budget = &ProbationBudget::new(config.max_probation_devices);
    let mut outs: Vec<Vec<CampaignResult>> = devices.iter().map(|_| Vec::new()).collect();
    let panicked: Vec<bool> = std::thread::scope(|s| {
        let workers: Vec<_> = devices
            .iter()
            .zip(&mut outs)
            .map(|(spec, out)| s.spawn(move || device_worker(spec, jobs, config, budget, out)))
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
    budget: &ProbationBudget,
    out: &mut Vec<CampaignResult>,
) {
    let device = spec.name.to_string();
    let mut commit = |result: CampaignResult| {
        if let Some(hook) = &config.on_commit {
            hook(&result);
        }
        out.push(result);
    };
    // A previous (crashed) attempt already committed these pairs:
    // resumed campaigns neither run nor re-emit them.
    let queue = jobs.iter().filter(|job| !config.is_completed(&device, job));
    let master = match Master::with_config(config.master.clone()) {
        Ok(m) => m,
        Err(e) => {
            // No listener, no campaign: every queued job becomes a
            // structured failure instead of a silent disappearance.
            let err = format!("master bind failed: {e}");
            for job in queue {
                commit(CampaignResult {
                    device: device.clone(),
                    job_id: job.spec.id,
                    outcome: Err(err.clone()),
                });
            }
            return;
        }
    };
    let mut agent = DeviceAgent::new(spec.clone());
    if let Some(script) = config.scripts.iter().find(|s| s.device == device) {
        agent.hang_jobs_remaining = script.hang_jobs;
    }
    let mut gate = ProbationGate::new(config.quarantine_after, config.probation_cooldown_ms);
    // Whether this device holds one of the fleet's probation slots.
    let mut holds_slot = false;
    for job in queue {
        let verdict = gate.verdict(config.master.clock.now_ms());
        if matches!(verdict, GateVerdict::Quarantined) {
            let reason = if gate.probation_denied {
                "device quarantined permanently (fleet probation budget exhausted)".to_string()
            } else {
                format!(
                    "device quarantined after {} consecutive failures",
                    gate.strikes
                )
            };
            commit(CampaignResult {
                device: device.clone(),
                job_id: job.spec.id,
                outcome: Err(reason),
            });
            continue;
        }
        let probing = matches!(verdict, GateVerdict::Probe);
        let outcome = run_one_job(&master, &mut agent, job, config.job_retries);
        let ok = outcome.is_ok();
        let was_quarantined = gate.quarantined_at.is_some();
        gate.record(config.master.clock.now_ms(), ok, probing);
        if gate.quarantined_at.is_some() && !was_quarantined && gate.base_cooldown.is_some() {
            // Freshly quarantined with probation enabled: probation is
            // only granted while the fleet has slots left. (A failed
            // probe re-quarantines but keeps its existing slot.)
            if budget.try_acquire() {
                holds_slot = true;
            } else {
                gate.probation_denied = true;
            }
        }
        if ok && holds_slot {
            budget.release();
            holds_slot = false;
        }
        commit(CampaignResult {
            device: device.clone(),
            job_id: job.spec.id,
            outcome,
        });
    }
}

/// Fleet-wide probation slot counter ([`CampaignConfig::max_probation_devices`]).
#[derive(Debug)]
struct ProbationBudget {
    /// Remaining slots; `None` = unbudgeted.
    slots: Option<AtomicUsize>,
}

impl ProbationBudget {
    fn new(max: Option<usize>) -> ProbationBudget {
        ProbationBudget {
            slots: max.map(AtomicUsize::new),
        }
    }

    /// Take one slot if any remain (always succeeds when unbudgeted).
    fn try_acquire(&self) -> bool {
        let Some(slots) = &self.slots else {
            return true;
        };
        slots
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
    }

    fn release(&self) {
        if let Some(slots) = &self.slots {
            slots.fetch_add(1, Ordering::SeqCst);
        }
    }
}

/// What the probation gate says about the next job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GateVerdict {
    /// Device healthy: run the job normally.
    Run,
    /// Device quarantined but its cool-down has been served: run the job
    /// as a probe.
    Probe,
    /// Device quarantined and still cooling down (or quarantine is
    /// permanent): fail the job fast without touching the hardware.
    Quarantined,
}

/// Per-device quarantine/probation state machine on explicit millisecond
/// timestamps (the campaign clock), so the schedule is unit-testable and
/// time-reproducible on a logical clock.
#[derive(Debug)]
struct ProbationGate {
    quarantine_after: u32,
    base_cooldown: Option<u64>,
    /// Consecutive failures so far.
    strikes: u32,
    /// When the current quarantine (or failed probe) started.
    quarantined_at: Option<u64>,
    /// Cool-down the current quarantine must serve; doubles on every
    /// failed probe, resets to base on any success.
    cooldown_ms: u64,
    /// The fleet's probation budget was exhausted when this device
    /// entered quarantine: the quarantine is permanent, cool-down or not.
    probation_denied: bool,
}

impl ProbationGate {
    fn new(quarantine_after: u32, base_cooldown: Option<u64>) -> ProbationGate {
        ProbationGate {
            quarantine_after: quarantine_after.max(1),
            base_cooldown,
            strikes: 0,
            quarantined_at: None,
            cooldown_ms: base_cooldown.unwrap_or(0),
            probation_denied: false,
        }
    }

    fn verdict(&self, now_ms: u64) -> GateVerdict {
        if self.strikes < self.quarantine_after {
            return GateVerdict::Run;
        }
        if self.probation_denied {
            return GateVerdict::Quarantined;
        }
        match (self.base_cooldown, self.quarantined_at) {
            (Some(_), Some(since)) if now_ms.saturating_sub(since) >= self.cooldown_ms => {
                GateVerdict::Probe
            }
            _ => GateVerdict::Quarantined,
        }
    }

    /// Record a job outcome. Only called after a `Run` or `Probe`
    /// verdict — quarantined jobs never reach the hardware.
    fn record(&mut self, now_ms: u64, ok: bool, probing: bool) {
        if ok {
            self.strikes = 0;
            self.quarantined_at = None;
            self.cooldown_ms = self.base_cooldown.unwrap_or(0);
            return;
        }
        self.strikes += 1;
        if probing {
            // Failed probe: straight back to quarantine, and the next
            // probe waits twice as long.
            self.quarantined_at = Some(now_ms);
            self.cooldown_ms = self.cooldown_ms.saturating_mul(2).max(1);
        } else if self.strikes >= self.quarantine_after && self.quarantined_at.is_none() {
            // Strike threshold crossed: start serving the cool-down.
            self.quarantined_at = Some(now_ms);
        }
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
        let config = CampaignConfig {
            master: MasterConfig {
                accept_timeout: Duration::from_millis(50),
                attempts: 1,
                ..MasterConfig::default()
            },
            job_retries: 0,
            quarantine_after: 2,
            probation_cooldown_ms: None,
            scripts: vec![DeviceScript {
                device: "Q845".into(),
                hang_jobs: u32::MAX,
            }],
            ..CampaignConfig::default()
        };
        let results = run_campaign_with(&devices, &jobs, &config);
        assert_eq!(results.len(), devices.len() * jobs.len());
        // The healthy device finished everything.
        assert!(results
            .iter()
            .filter(|r| r.device == "Q888")
            .all(|r| r.outcome.is_ok()));
        // The hung one failed everything: two real watchdog timeouts,
        // then fail-fast quarantine for the rest of its queue.
        let hung: Vec<_> = results.iter().filter(|r| r.device == "Q845").collect();
        assert!(hung.iter().all(|r| r.outcome.is_err()));
        let quarantined = hung
            .iter()
            .filter(|r| {
                r.outcome
                    .as_ref()
                    .unwrap_err()
                    .contains("quarantined")
            })
            .count();
        assert_eq!(quarantined, 2, "{results:?}");
    }

    #[test]
    fn probation_gate_probes_after_cooldown_and_doubles_on_refailure() {
        let mut g = ProbationGate::new(2, Some(40));
        // Two strikes quarantine the device at t = 100.
        g.record(50, false, false);
        assert_eq!(g.verdict(50), GateVerdict::Run);
        g.record(100, false, false);
        assert_eq!(g.verdict(100), GateVerdict::Quarantined);
        assert_eq!(g.verdict(139), GateVerdict::Quarantined);
        // Cool-down served: the next job is a probe. It fails, so the
        // next cool-down is doubled and served from the failure time.
        assert_eq!(g.verdict(140), GateVerdict::Probe);
        g.record(150, false, true);
        assert_eq!(g.cooldown_ms, 80);
        assert_eq!(g.verdict(229), GateVerdict::Quarantined);
        assert_eq!(g.verdict(230), GateVerdict::Probe);
        // A successful probe clears the strikes and resets the cool-down.
        g.record(240, true, true);
        assert_eq!(g.verdict(240), GateVerdict::Run);
        assert_eq!(g.strikes, 0);
        assert_eq!(g.cooldown_ms, 40);
    }

    #[test]
    fn probation_gate_without_cooldown_is_permanent() {
        let mut g = ProbationGate::new(1, None);
        g.record(10, false, false);
        assert_eq!(g.verdict(u64::MAX), GateVerdict::Quarantined);
    }

    #[test]
    fn probation_budget_stops_mass_flapping_from_stalling_the_tail() {
        // Two of three devices flap forever. Un-budgeted, both would keep
        // winning zero-cool-down probes and burn a real watchdog timeout
        // on every queued job. With one probation slot, the loser of the
        // slot race is quarantined permanently and its tail fails fast.
        let devices = vec![
            device("Q845").unwrap(),
            device("Q855").unwrap(),
            device("Q888").unwrap(),
        ];
        let jobs: Vec<Campaign> = (1..=4)
            .map(|id| campaign(id, Task::MovementTracking, id))
            .collect();
        let config = CampaignConfig {
            master: MasterConfig {
                accept_timeout: Duration::from_millis(50),
                attempts: 1,
                clock: std::sync::Arc::new(crate::clock::LogicalClock::new()),
            },
            job_retries: 0,
            quarantine_after: 1,
            probation_cooldown_ms: Some(0),
            max_probation_devices: Some(1),
            scripts: vec![
                DeviceScript {
                    device: "Q845".into(),
                    hang_jobs: u32::MAX,
                },
                DeviceScript {
                    device: "Q855".into(),
                    hang_jobs: u32::MAX,
                },
            ],
            ..CampaignConfig::default()
        };
        let results = run_campaign_with(&devices, &jobs, &config);
        assert_eq!(results.len(), devices.len() * jobs.len());
        // The healthy device is untouched by the flappers.
        assert!(results
            .iter()
            .filter(|r| r.device == "Q888")
            .all(|r| r.outcome.is_ok()));
        // Every flapper job failed, and exactly one flapper (whichever
        // lost the slot race) was denied probation for its whole tail.
        let denied: Vec<&CampaignResult> = results
            .iter()
            .filter(|r| {
                matches!(&r.outcome, Err(e) if e.contains("probation budget exhausted"))
            })
            .collect();
        assert_eq!(denied.len(), 3, "{results:?}");
        assert!(
            denied.iter().all(|r| r.device == denied[0].device),
            "one device loses the slot race: {results:?}"
        );
        assert!(results
            .iter()
            .filter(|r| r.device != "Q888")
            .all(|r| r.outcome.is_err()));
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

    #[test]
    fn probed_device_rejoins_the_campaign() {
        // The device hangs on its first two jobs (earning quarantine),
        // then recovers. With a zero cool-down the third job runs as the
        // probe, succeeds, and clears the quarantine — the schedule is
        // exact on the shared logical clock.
        let devices = vec![device("Q845").unwrap()];
        let jobs: Vec<Campaign> = (1..=4)
            .map(|id| campaign(id, Task::MovementTracking, id))
            .collect();
        let config = CampaignConfig {
            master: MasterConfig {
                accept_timeout: Duration::from_millis(50),
                attempts: 1,
                clock: std::sync::Arc::new(crate::clock::LogicalClock::new()),
            },
            job_retries: 0,
            quarantine_after: 2,
            probation_cooldown_ms: Some(0),
            scripts: vec![DeviceScript {
                device: "Q845".into(),
                hang_jobs: 2,
            }],
            ..CampaignConfig::default()
        };
        let results = run_campaign_with(&devices, &jobs, &config);
        assert_eq!(results.len(), 4);
        let ok: Vec<bool> = results.iter().map(|r| r.outcome.is_ok()).collect();
        assert_eq!(ok, [false, false, true, true], "{results:?}");
        // Nothing was failed fast: the probe (job 3) reached the device.
        assert!(results
            .iter()
            .all(|r| !matches!(&r.outcome, Err(e) if e.contains("quarantined"))));
    }
}
