//! The `campaign` workload: the paper's stage 3 — `harness` campaigns of
//! every single-file TFLite model in the paper-scale pool on two Table 1
//! boards, through the TCP master/device protocol.

use crate::stats::{self, median, quartile_spread, tail};
use crate::study::{corpus_seed, SCALE, SETUP_REPEATS};
use crate::sys::{self, json_num};
use crate::{Args, BoxError, Outcome};
use gaugenn_apk::crc32::crc32;
use gaugenn_harness::campaign::{run_campaign_with, Campaign, CampaignConfig, CampaignResult};
use gaugenn_harness::job::JobSpec;
use gaugenn_modelfmt::Framework;
use gaugenn_playstore::corpus::build_pool;
use gaugenn_soc::sched::ThreadConfig;
use gaugenn_soc::spec::device;
use gaugenn_soc::{Backend, DeviceSpec};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The two boards (one device thread each).
pub const DEVICES: [&str; 2] = ["Q845", "Q888"];

/// The campaign's devices.
pub fn devices() -> Vec<DeviceSpec> {
    DEVICES
        .iter()
        .map(|d| device(d).expect("Table 1 board"))
        .collect()
}

/// One job per single-file TFLite model in the pool of corpus seed
/// `seed`, with default `JobSpec` settings (3 warm-ups, 10 runs) on four
/// unpinned CPU threads.
pub fn jobs(seed: u64) -> Vec<Campaign> {
    let pool = build_pool(SCALE, seed);
    pool.iter()
        .filter(|m| m.framework == Framework::TfLite)
        .map(|m| m.artifact(&pool).files)
        .filter(|files| files.len() == 1)
        .enumerate()
        .map(|(i, files)| Campaign {
            spec: JobSpec::new(
                i as u64 + 1,
                files[0].0.clone(),
                Backend::Cpu(ThreadConfig::unpinned(4)),
            ),
            files,
        })
        .collect()
}

/// `(device, job id)` → crc32 of the `JobResult` text; `Err` outcomes
/// map to `None`.
pub type Fingerprint = BTreeMap<(String, u64), Option<u32>>;

fn fingerprint(results: &[CampaignResult]) -> Fingerprint {
    results
        .iter()
        .map(|r| {
            let text = r
                .outcome
                .as_ref()
                .ok()
                .map(|j| crc32(j.to_text().as_bytes()));
            ((r.device.clone(), r.job_id), text)
        })
        .collect()
}

/// One pass with a commit hook recording when each (device, job) pair
/// finished. Returns the results, the per-pair latencies (ms since the
/// same device's previous commit, or since the pass started) and the
/// pass wall seconds.
pub fn timed_pass(
    devices: &[DeviceSpec],
    jobs: &[Campaign],
) -> (Vec<CampaignResult>, Vec<f64>, f64) {
    let commits: Arc<Mutex<Vec<(String, Instant)>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&commits);
    let config = CampaignConfig {
        on_commit: Some(Arc::new(move |r: &CampaignResult| {
            sink.lock()
                .expect("commit log poisoned")
                .push((r.device.clone(), Instant::now()));
        })),
        ..CampaignConfig::default()
    };
    let t0 = Instant::now();
    let results = run_campaign_with(devices, jobs, &config);
    let wall = t0.elapsed().as_secs_f64();
    let mut last: BTreeMap<String, Instant> = BTreeMap::new();
    let mut lat = Vec::new();
    for (dev, at) in commits.lock().expect("commit log poisoned").iter() {
        let prev = last.insert(dev.clone(), *at).unwrap_or(t0);
        lat.push(at.duration_since(prev).as_secs_f64() * 1e3);
    }
    (results, lat, wall)
}

/// `campaign`: repeated passes, each checked against the setup's
/// reference pass.
pub fn campaign(args: &Args) -> Result<Outcome, BoxError> {
    let mut out = Outcome::default();
    let devs = devices();
    // Setup: build every job's model artifact and make the reference
    // pass; repeated, each repetition must reproduce the first.
    let mut setups = Vec::new();
    let mut reference: Option<(Vec<Campaign>, Fingerprint)> = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let jobs = jobs(corpus_seed(args.seed));
        let (results, _, _) = timed_pass(&devs, &jobs);
        setups.push(t.elapsed().as_secs_f64());
        let fp = fingerprint(&results);
        match &reference {
            None => reference = Some((jobs, fp)),
            Some((_, want)) => out.check(fp == *want, || "setup reference passes disagree".into()),
        }
    }
    out.metric("setup_s", median(&setups), "s");
    let (jobs, want) = reference.expect("at least one setup");
    let failed_ref = want.values().filter(|v| v.is_none()).count();
    out.check(failed_ref == 0, || {
        format!("{failed_ref} reference pairs failed")
    });
    out.check(want.len() == jobs.len() * devs.len(), || {
        "reference pass lost pairs".into()
    });
    eprintln!(
        "campaign: {} jobs x {} devices; measuring for {} s",
        jobs.len(),
        devs.len(),
        args.seconds
    );

    sys::reset_peaks();
    let start = Instant::now();
    let (mut lat, mut rates) = (Vec::new(), Vec::new());
    while rates.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let (results, l, wall) = timed_pass(&devs, &jobs);
        let fp = fingerprint(&results);
        let errs = results.iter().filter(|r| r.outcome.is_err()).count();
        out.attempted += results.len() as u64;
        out.failed += errs as u64;
        out.check(fp == want, || {
            format!(
                "pass {}: results differ from the reference pass",
                rates.len()
            )
        });
        rates.push(results.len() as f64 / wall);
        lat.extend(l);
    }
    let lat = stats::sorted(lat);
    let p99 = tail(&lat, 99.0);
    out.check(p99.is_some(), || {
        format!("{} pair latencies are too few for a p99", lat.len())
    });
    // Pairs per second at the median pair latency, one device thread
    // each: the pass throughput (`jobs_per_s` in the record) is set by
    // its slowest pairs, and on a host whose CPU is stolen in bursts
    // those are where a 1 ms sleep in the harness's polling loops takes
    // ten, so it swings by a third between runs; the median does not.
    let p50 = stats::percentile(&lat, 50.0);
    out.metric("ops_per_s", devs.len() as f64 * 1e3 / p50, "1/s");
    sys::record_peaks(&mut out);
    out.note("jobs", jobs.len().to_string());
    out.note(
        "devices",
        format!("[\"{}\", \"{}\"]", DEVICES[0], DEVICES[1]),
    );
    out.note("passes", rates.len().to_string());
    out.note("jobs_per_s", json_num(median(&rates)));
    out.note(
        "pair_latency",
        format!(
            "{{\"samples\": {}, \"p50_ms\": {}, \"p99_ms\": {}, \"beyond_p99\": {}}}",
            lat.len(),
            json_num(p50),
            json_num(p99.map_or(0.0, |t| t.value)),
            p99.map_or(0, |t| t.beyond)
        ),
    );
    out.note("spread_jobs_per_s", json_num(quartile_spread(&rates)));
    out.note(
        "failed_frac",
        json_num(out.failed as f64 / out.attempted.max(1) as f64),
    );
    Ok(out)
}
