//! Integration of the master–slave harness with the rest of the
//! stack: models extracted from crawled APKs are benchmarked through the
//! full Fig. 3 workflow, and the harness's measurements must agree with
//! the analytic estimates the figures are built from.

use gaugenn::apk::crc32::crc32;
use gaugenn::core::pipeline::{Pipeline, PipelineConfig};
use gaugenn::dnn::task::Task;
use gaugenn::dnn::zoo::{build_for_task, SizeClass};
use gaugenn::harness::campaign::{
    run_campaign, run_campaign_with, Campaign, CampaignConfig, DeviceScript,
};
use gaugenn::harness::clock::{Clock, LogicalClock};
use gaugenn::harness::device::DeviceAgent;
use gaugenn::harness::job::JobSpec;
use gaugenn::harness::master::{Master, MasterConfig};
use gaugenn::modelfmt::Framework;
use gaugenn::playstore::corpus::{build_pool, CorpusScale, Snapshot};
use gaugenn::soc::sched::ThreadConfig;
use gaugenn::soc::spec::{device, hdks};
use gaugenn::soc::thermal::ThermalState;
use gaugenn::soc::Backend;
use std::sync::Arc;
use std::time::Duration;

fn cpu4() -> Backend {
    Backend::Cpu(ThreadConfig::unpinned(4))
}

#[test]
fn crawled_model_runs_through_the_real_harness() {
    // Crawl a tiny store, pick a real extracted TFLite model, and push it
    // through the full Fig. 3 workflow.
    let report = Pipeline::new(PipelineConfig::tiny(Snapshot::Y2021, 7))
        .run()
        .unwrap();
    let app = report
        .apps
        .iter()
        .find(|a| {
            a.models
                .iter()
                .any(|m| m.framework == Framework::TfLite && m.files.len() == 1)
        })
        .expect("an app with a single-file TFLite model");
    let found = app
        .models
        .iter()
        .find(|m| m.framework == Framework::TfLite && m.files.len() == 1)
        .unwrap();
    let file_name = found.files[0]
        .0
        .rsplit('/')
        .next()
        .unwrap()
        .to_string();
    let files = vec![(file_name.clone(), found.files[0].1.to_vec())];

    let master = Master::new().unwrap();
    let mut agent = DeviceAgent::new(device("Q845").unwrap());
    let job = JobSpec::new(1, file_name, cpu4());
    let result = master.run_job(&mut agent, &job, &files).unwrap();
    assert_eq!(result.latencies_ms.len(), 10);
    assert!(result.mean_latency_ms() > 0.0);

    // The harness measurement must agree with the analytic estimate the
    // figures use (same model, same device, same backend) within the
    // injected measurement noise and warm-up heating.
    let m = report
        .model(&gaugenn::analysis::dedup::model_checksum(&found.files))
        .expect("model is in the report");
    let analytic = gaugenn::soc::estimate_latency(
        &device("Q845").unwrap(),
        cpu4(),
        &m.trace,
        &ThermalState::cool(),
    )
    .unwrap();
    let ratio = result.mean_latency_ms() / analytic.total_ms;
    assert!(
        (0.9..=1.1).contains(&ratio),
        "harness {} vs analytic {} (ratio {ratio})",
        result.mean_latency_ms(),
        analytic.total_ms
    );
}

#[test]
fn hdk_generation_ordering_through_the_harness() {
    // Fig. 9's generation ordering must also hold when measured through
    // the full Fig. 3 workflow, not just analytically.
    let g = build_for_task(Task::FaceDetection, 42, SizeClass::Small, true).graph;
    let files = gaugenn::modelfmt::encode(&g, Framework::TfLite).unwrap().files;
    let jobs = vec![Campaign {
        spec: JobSpec {
            warmups: 1,
            runs: 5,
            ..JobSpec::new(1, files[0].0.clone(), cpu4())
        },
        files,
    }];
    let results = run_campaign(&hdks(), &jobs);
    assert_eq!(results.len(), 3);
    let mean = |dev: &str| {
        results
            .iter()
            .find(|r| r.device == dev)
            .and_then(|r| r.outcome.as_ref().ok())
            .map(|j| j.mean_latency_ms())
            .expect("job succeeded")
    };
    assert!(mean("Q845") > mean("Q855"));
    assert!(mean("Q855") > mean("Q888"));
}

#[test]
fn backend_comparison_through_the_harness() {
    // §6.3 through the wire: XNNPACK modestly faster, NNAPI slower.
    let g = build_for_task(Task::ImageClassification, 43, SizeClass::Small, true).graph;
    let files = gaugenn::modelfmt::encode(&g, Framework::TfLite).unwrap().files;
    let master = Master::new().unwrap();
    let mut agent = DeviceAgent::new(device("Q845").unwrap());
    let mut measure = |id: u64, backend: Backend| {
        let job = JobSpec {
            warmups: 1,
            runs: 5,
            ..JobSpec::new(id, files[0].0.clone(), backend)
        };
        master
            .run_job(&mut agent, &job, &files)
            .unwrap()
            .mean_latency_ms()
    };
    let cpu = measure(1, cpu4());
    let xnn = measure(2, Backend::Xnnpack(ThreadConfig::unpinned(4)));
    let nnapi = measure(3, Backend::Nnapi);
    assert!(xnn < cpu, "xnnpack {xnn} should beat cpu {cpu}");
    assert!(nnapi > cpu, "nnapi {nnapi} should lag cpu {cpu}");
}

#[test]
fn verified_execution_of_extracted_model() {
    // The device agent can actually *run* an extracted model end to end
    // (real forward pass through the reference executor).
    let report = Pipeline::new(PipelineConfig::tiny(Snapshot::Y2021, 7))
        .run()
        .unwrap();
    // Pick the smallest single-file TFLite model to keep execution fast.
    let mut candidates: Vec<_> = report
        .apps
        .iter()
        .flat_map(|a| a.models.iter())
        .filter(|m| m.framework == Framework::TfLite && m.files.len() == 1)
        .collect();
    candidates.sort_by_key(|m| m.files[0].1.len());
    let found = candidates.first().expect("a TFLite model");
    let file_name = found.files[0].0.rsplit('/').next().unwrap().to_string();
    let files = vec![(file_name.clone(), found.files[0].1.to_vec())];
    let master = Master::new().unwrap();
    let mut agent = DeviceAgent::new(device("Q888").unwrap());
    let job = JobSpec {
        verify_outputs: true,
        warmups: 0,
        runs: 2,
        ..JobSpec::new(5, file_name, cpu4())
    };
    let result = master.run_job(&mut agent, &job, &files).unwrap();
    assert_eq!(result.latencies_ms.len(), 2);
}

#[test]
fn logical_time_is_charged_only_when_a_watchdog_expires() {
    // On a LogicalClock a healthy job costs no logical time, however long
    // the host takes to run it; a hung attempt costs exactly its watchdog
    // deadline plus 1 ms, the one sleep the master takes past the deadline
    // before it declares the attempt lost.
    let jobs: Vec<Campaign> = (1..=4u64)
        .map(|id| {
            let g = build_for_task(Task::MovementTracking, id, SizeClass::Small, true).graph;
            let files = gaugenn::modelfmt::encode(&g, Framework::TfLite).unwrap().files;
            Campaign {
                spec: JobSpec {
                    warmups: 1,
                    runs: 4,
                    ..JobSpec::new(id, files[0].0.clone(), cpu4())
                },
                files,
            }
        })
        .collect();
    let run = |hang_jobs: u32| {
        let clock = Arc::new(LogicalClock::new());
        let config = CampaignConfig {
            master: MasterConfig {
                accept_timeout: Duration::from_millis(50),
                attempts: 1,
                clock: clock.clone(),
            },
            job_retries: 0,
            scripts: vec![DeviceScript {
                device: "Q845".into(),
                hang_jobs,
            }],
            ..CampaignConfig::default()
        };
        let results = run_campaign_with(&[device("Q845").unwrap()], &jobs, &config);
        let ok: Vec<bool> = results.iter().map(|r| r.outcome.is_ok()).collect();
        (ok, clock.now_ms())
    };
    assert_eq!(run(0), (vec![true; 4], 0), "healthy jobs charge nothing");
    assert_eq!(
        run(1),
        (vec![false, true, true, true], 51),
        "one hung attempt charges accept_timeout + 1 ms"
    );
}

#[test]
fn campaign_results_are_pinned() {
    // perfbench's `campaign` job list at Small scale: every single-file
    // TFLite model of the pool, default JobSpec (3 warm-ups, 10 runs) on
    // four unpinned CPU threads, on the Q845 and Q888 boards. The digest
    // covers each result's text and the bits of every figure in it, so a
    // change to the latency, power or thermal models, or to the order
    // the agent applies them in, moves it.
    let pool = build_pool(CorpusScale::Small, 1402);
    let jobs: Vec<Campaign> = pool
        .iter()
        .filter(|m| m.framework == Framework::TfLite)
        .map(|m| m.artifact(&pool).files)
        .filter(|files| files.len() == 1)
        .enumerate()
        .map(|(i, files)| Campaign {
            spec: JobSpec::new(i as u64 + 1, files[0].0.clone(), cpu4()),
            files,
        })
        .collect();
    let devices = [device("Q845").unwrap(), device("Q888").unwrap()];
    let results = run_campaign(&devices, &jobs);
    assert_eq!(results.len(), devices.len() * jobs.len());
    let mut digest = Vec::new();
    for r in &results {
        let job = r
            .outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("{} job {}: {e}", r.device, r.job_id));
        digest.extend_from_slice(format!("{} {}\n", r.device, r.job_id).as_bytes());
        digest.extend_from_slice(job.to_text().as_bytes());
        let figures = job.latencies_ms.iter().chain(&job.energies_mj);
        for v in figures.chain([&job.avg_power_w, &job.final_temp_c]) {
            digest.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    assert_eq!(
        (jobs.len(), format!("{:08x}", crc32(&digest))),
        (33, "9d98fd46".to_string()),
        "campaign results moved"
    );
}
