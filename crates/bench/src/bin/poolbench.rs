//! `poolbench` — worker-count and connection scaling for the sharded
//! crawl pool.
//!
//! ```sh
//! cargo run --release -p gaugenn-bench --bin poolbench            # small corpus
//! cargo run --release -p gaugenn-bench --bin poolbench -- --scale tiny
//! cargo run --release -p gaugenn-bench --bin poolbench -- --workers 1024 --reactor epoll --json
//! ```
//!
//! Crawls one snapshot sequentially, then through [`CrawlPool`]s at
//! several worker counts, verifying every run merges to the identical
//! corpus. The sweep runs 2/4/8 workers by default and
//! extends through 32/128/512 up to `--workers` when a larger fleet is
//! requested — every worker holds one store connection, so the high end
//! is a fan-in test of the serving loop selected with `--reactor
//! epoll|sim` (default epoll).
//!
//! Besides wall time, each pooled run prints its per-worker byte
//! imbalance (max worker bytes / mean worker bytes, 1.00 = perfectly
//! balanced) — a deterministic measure of how well the scheduler's
//! plan spread the catalog, where wall time on a small host is noise.
//! EXPERIMENTS.md records captured runs; `--json` emits the
//! machine-readable rows (with their `reactor` column) that
//! `results/BENCH_net.json` aggregates.
//!
//! A second stage sweeps connections-per-worker (1 … `--connections`,
//! default 256) on a fixed two-worker pool, whose workers drive their
//! connections as non-blocking lanes on the store's transport — the rows
//! that show one worker thread multiplexing its in-flight connections
//! (`peak_in_flight`) while still merging the byte-identical corpus.

use gaugenn_bench::cli::{self, ArgSpec};
use gaugenn_playstore::corpus::{generate, Snapshot};
use gaugenn_playstore::crawler::Crawler;
use gaugenn_playstore::pool::{CrawlPool, CrawlPoolConfig};
use gaugenn_playstore::server::{ServerOptions, StoreServer};
use gaugenn_bench::stats::Stopwatch;

/// One pooled crawl at a fixed worker count.
struct PoolRun {
    workers: usize,
    wall_ms: f64,
    speedup: f64,
    imbalance: f64,
}

/// One pooled crawl at a fixed connections-per-worker point.
struct ConnRun {
    connections: usize,
    wall_ms: f64,
    speedup: f64,
    peak_in_flight: usize,
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = ArgSpec {
        takes_workers: true,
        takes_json: true,
        takes_reactor: true,
        takes_connections: true,
        default_workers: 8,
        default_connections: 256,
        ..ArgSpec::new(
            "poolbench",
            "worker-count and connection scaling for the sharded crawl pool",
        )
    };
    let args = cli::parse_or_exit(&spec);
    let (scale, seed) = (args.scale, args.seed);

    let server = StoreServer::start_with(
        generate(scale, Snapshot::Y2021, seed),
        ServerOptions {
            reactor: args.reactor,
            ..ServerOptions::default()
        },
    )?;
    let endpoint = server.endpoint();
    let reactor = server.mode().name();
    let counts = worker_counts(args.workers);

    eprintln!(
        "crawl pool scaling — scale {scale:?}, seed {seed}, reactor {reactor}, host cores: {}",
        cores()
    );
    let t0 = Stopwatch::start();
    let mut seq = Crawler::builder_at(endpoint.clone()).build()?;
    let baseline = seq.crawl_all()?;
    let t_seq = t0.elapsed();
    eprintln!(
        "  sequential: {:>8.1} ms  ({} apps, {} requests)",
        t_seq.as_secs_f64() * 1e3,
        baseline.apps.len(),
        baseline.stats.requests
    );

    let mut runs: Vec<PoolRun> = Vec::new();
    for &workers in &counts {
        let t = Stopwatch::start();
        let pooled = CrawlPool::new(CrawlPoolConfig {
            workers,
            sched_seed: seed,
            ..CrawlPoolConfig::default()
        })
        .crawl_at(&endpoint)?;
        let dt = t.elapsed();
        assert_eq!(
            pooled.outcome.apps, baseline.apps,
            "pool must merge to the sequential corpus at every worker count"
        );
        let run = PoolRun {
            workers,
            wall_ms: dt.as_secs_f64() * 1e3,
            speedup: t_seq.as_secs_f64() / dt.as_secs_f64(),
            imbalance: byte_imbalance(
                &pooled.per_worker.iter().map(|w| w.bytes).collect::<Vec<_>>(),
            ),
        };
        eprintln!(
            "  {workers} workers:  {:>8.1} ms  (speedup {:.2}x, byte imbalance {:.2})",
            run.wall_ms, run.speedup, run.imbalance
        );
        runs.push(run);
    }

    // Connection-scaling stage: a fixed two-worker pool, fanning each
    // worker out over 1 … `--connections` lanes driven from the one
    // worker thread. The corpus must merge identically at every point.
    const CONN_WORKERS: usize = 2;
    let mut conn_runs: Vec<ConnRun> = Vec::new();
    eprintln!("  connections per worker ({CONN_WORKERS} workers):");
    for &connections in &conn_counts(args.connections) {
        let t = Stopwatch::start();
        let pooled = CrawlPool::new(CrawlPoolConfig {
            workers: CONN_WORKERS,
            sched_seed: seed,
            connections_per_worker: connections,
            ..CrawlPoolConfig::default()
        })
        .crawl_at(&endpoint)?;
        let dt = t.elapsed();
        assert_eq!(
            pooled.outcome.apps, baseline.apps,
            "pool must merge to the sequential corpus at every connection count"
        );
        let run = ConnRun {
            connections,
            wall_ms: dt.as_secs_f64() * 1e3,
            speedup: t_seq.as_secs_f64() / dt.as_secs_f64(),
            peak_in_flight: pooled.peak_in_flight,
        };
        eprintln!(
            "    x{connections:<4}: {:>8.1} ms  (speedup {:.2}x, peak in-flight {})",
            run.wall_ms, run.speedup, run.peak_in_flight
        );
        conn_runs.push(run);
    }

    if args.json {
        println!("{{");
        println!("  \"bench\": \"crawl-pool\",");
        println!("  \"scale\": \"{scale:?}\",");
        println!("  \"seed\": {seed},");
        println!("  \"reactor\": \"{reactor}\",");
        println!("  \"sequential_ms\": {:.1},", t_seq.as_secs_f64() * 1e3);
        println!("  \"runs\": [");
        for (i, r) in runs.iter().enumerate() {
            let comma = if i + 1 == runs.len() { "" } else { "," };
            println!(
                "    {{\"workers\": {}, \"reactor\": \"{reactor}\", \"wall_ms\": {:.1}, \
                 \"speedup\": {:.2}, \"byte_imbalance\": {:.2}}}{comma}",
                r.workers, r.wall_ms, r.speedup, r.imbalance
            );
        }
        println!("  ],");
        println!("  \"connection_runs\": [");
        for (i, r) in conn_runs.iter().enumerate() {
            let comma = if i + 1 == conn_runs.len() { "" } else { "," };
            println!(
                "    {{\"workers\": 2, \"connections_per_worker\": {}, \
                 \"reactor\": \"{reactor}\", \"wall_ms\": {:.1}, \"speedup\": {:.2}, \
                 \"peak_in_flight\": {}}}{comma}",
                r.connections, r.wall_ms, r.speedup, r.peak_in_flight
            );
        }
        println!("  ]");
        println!("}}");
    } else {
        println!(
            "crawl pool scaling — scale {scale:?}, seed {seed}, reactor {reactor}: \
             sequential {:.1} ms, all {} pooled runs merged byte-identically",
            t_seq.as_secs_f64() * 1e3,
            runs.len()
        );
        println!("workers   wall ms  speedup  imbalance");
        for r in &runs {
            println!(
                "{:>7}  {:>8.1}  {:>6.2}x  {:>8.2}",
                r.workers, r.wall_ms, r.speedup, r.imbalance
            );
        }
        println!("conns/worker   wall ms  speedup  peak in-flight");
        for r in &conn_runs {
            println!(
                "{:>12}  {:>8.1}  {:>6.2}x  {:>14}",
                r.connections, r.wall_ms, r.speedup, r.peak_in_flight
            );
        }
    }
    Ok(())
}

/// Connections-per-worker counts to sweep: 1, 8, 64 below `max`, ending
/// at `max` itself — the default sweep is 1, 8, 64, 256.
fn conn_counts(max: usize) -> Vec<usize> {
    let max = max.max(1);
    let mut counts: Vec<usize> = [1usize, 8, 64].into_iter().filter(|&c| c < max).collect();
    counts.push(max);
    counts
}

/// Worker counts to sweep: always 2/4/8, extended through the fan-in
/// range (32, 128, 512) below `max`, ending at `max` when it is larger
/// than the base sweep.
fn worker_counts(max: usize) -> Vec<usize> {
    let mut counts: Vec<usize> = [2usize, 4, 8].into_iter().filter(|&c| c <= max.max(8)).collect();
    for c in [32usize, 128, 512] {
        if c < max {
            counts.push(c);
        }
    }
    if max > 8 {
        counts.push(max);
    }
    counts
}

/// Max worker bytes over mean worker bytes; 1.00 is a perfect balance.
fn byte_imbalance(bytes: &[u64]) -> f64 {
    if bytes.is_empty() {
        return 1.0;
    }
    let total: u64 = bytes.iter().sum();
    let max = bytes.iter().copied().max().unwrap_or(0);
    if total == 0 {
        1.0
    } else {
        max as f64 * bytes.len() as f64 / total as f64
    }
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
