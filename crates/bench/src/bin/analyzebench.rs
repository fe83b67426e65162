//! `analyzebench` — worker-count and cache scaling for the offline
//! analysis pool.
//!
//! ```sh
//! cargo run --release -p gaugenn-bench --bin analyzebench            # small corpus
//! cargo run --release -p gaugenn-bench --bin analyzebench -- --scale tiny
//! ```
//!
//! Crawls one snapshot once, then analyses it several ways: through
//! [`AnalysisPool`]s of 1/2/4/8 workers, and finally cold vs warm
//! against a persistent on-disk [`CacheStore`]. Every run must produce
//! the identical model list; wall time, speedup over the 1-worker row,
//! cache hit rate and persistent hit rate are printed. EXPERIMENTS.md
//! records captured runs.
//!
//! [`CacheStore`]: gaugenn_core::cachestore::CacheStore

use gaugenn_bench::cli::{self, ArgSpec};
use gaugenn_core::analyze::{AnalysisConfig, AnalysisPool};
use gaugenn_playstore::corpus::{generate, Snapshot};
use gaugenn_playstore::crawler::Crawler;
use gaugenn_playstore::server::StoreServer;
use gaugenn_bench::stats::Stopwatch;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = cli::parse_or_exit(&ArgSpec::new(
        "analyzebench",
        "worker-count and cache scaling for the analysis pool",
    ));
    let (scale, seed) = (args.scale, args.seed);

    let server = StoreServer::start(generate(scale, Snapshot::Y2021, seed))?;
    let mut crawler = Crawler::builder(server.addr()).build()?;
    let crawled = crawler.crawl_all()?.apps;

    println!(
        "analysis pool scaling — scale {scale:?}, seed {seed}, {} apps, host cores: {}",
        crawled.len(),
        cores()
    );

    let t0 = Stopwatch::start();
    let baseline = AnalysisPool::new(AnalysisConfig::with_workers(1)).analyse(&crawled)?;
    let t_base = t0.elapsed();
    let sums: Vec<&str> = baseline.models.iter().map(|m| m.checksum.as_str()).collect();
    println!(
        "  1 worker:  {:>8.1} ms  ({} instances, {} unique models, hit rate {:.1}%)",
        t_base.as_secs_f64() * 1e3,
        baseline.instances.len(),
        baseline.models.len(),
        baseline.stats.cache_hit_rate() * 100.0
    );

    for workers in [2usize, 4, 8] {
        let t = Stopwatch::start();
        let out = AnalysisPool::new(AnalysisConfig::with_workers(workers)).analyse(&crawled)?;
        let dt = t.elapsed();
        let got: Vec<&str> = out.models.iter().map(|m| m.checksum.as_str()).collect();
        assert_eq!(got, sums, "pool must merge to the 1-worker model list");
        println!(
            "  {workers} workers: {:>8.1} ms  (speedup {:.2}x)",
            dt.as_secs_f64() * 1e3,
            t_base.as_secs_f64() / dt.as_secs_f64(),
        );
    }

    // Cold vs warm persistent cache: the first run against an empty
    // directory persists every unique analysis; the second attaches to
    // them and skips the trace entirely.
    let cache_workers = 4usize;
    let dir = std::env::temp_dir().join(format!("gaugenn-analyzebench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    println!("  persistent cache at {cache_workers} workers:");
    for label in ["cold", "warm"] {
        let t = Stopwatch::start();
        let out = AnalysisPool::new(AnalysisConfig {
            workers: cache_workers,
            cache_dir: Some(dir.clone()),
            ..AnalysisConfig::default()
        })
        .analyse(&crawled)?;
        let dt = t.elapsed();
        let got: Vec<&str> = out.models.iter().map(|m| m.checksum.as_str()).collect();
        assert_eq!(got, sums, "cache state must never change the model list");
        println!(
            "    {label:<5}  {:>8.1} ms  ({} disk hits / {} stored, {:.1}% of uniques warm)",
            dt.as_secs_f64() * 1e3,
            out.stats.persistent_hits,
            out.stats.persistent_stores,
            out.stats.persistent_hit_rate() * 100.0
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
