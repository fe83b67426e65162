//! Live harness: runs the master–slave benchmark workflow (Fig. 3) —
//! model push via adb, USB power cut, headless device agent called in
//! place, netcat-style completion line, result pull — for a handful of
//! models on the three HDK generations.
//!
//! ```sh
//! cargo run --release --example live_harness
//! ```

use gaugenn::dnn::task::Task;
use gaugenn::dnn::zoo::{build_for_task, SizeClass};
use gaugenn::harness::campaign::{run_campaign, Campaign};
use gaugenn::harness::job::JobSpec;
use gaugenn::modelfmt::Framework;
use gaugenn::soc::sched::ThreadConfig;
use gaugenn::soc::spec::hdks;
use gaugenn::soc::Backend;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tasks = [
        (Task::FaceDetection, 11u64),
        (Task::ImageClassification, 12),
        (Task::SoundRecognition, 13),
        (Task::AutoComplete, 14),
        (Task::SemanticSegmentation, 15),
    ];
    let mut jobs = Vec::new();
    for (i, (task, seed)) in tasks.iter().enumerate() {
        let g = build_for_task(*task, *seed, SizeClass::Small, true).graph;
        let files = gaugenn::modelfmt::encode(&g, Framework::TfLite)?.files;
        jobs.push(Campaign {
            spec: JobSpec {
                warmups: 2,
                runs: 8,
                ..JobSpec::new(
                    i as u64 + 1,
                    files[0].0.clone(),
                    Backend::Cpu(ThreadConfig::unpinned(4)),
                )
            },
            files,
        });
    }

    println!(
        "running {} jobs on {} devices through the master-slave harness...\n",
        jobs.len(),
        hdks().len()
    );
    let results = run_campaign(&hdks(), &jobs);
    println!(
        "{:6} {:4} {:>12} {:>12} {:>10} {:>10}",
        "device", "job", "mean ms", "energy mJ", "power W", "temp C"
    );
    for r in &results {
        match &r.outcome {
            Ok(j) => println!(
                "{:6} {:4} {:>12.2} {:>12.2} {:>10.2} {:>10.1}",
                r.device,
                r.job_id,
                j.mean_latency_ms(),
                j.mean_energy_mj(),
                j.avg_power_w,
                j.final_temp_c
            ),
            Err(e) => println!("{:6} {:4} FAILED: {e}", r.device, r.job_id),
        }
    }
    Ok(())
}
