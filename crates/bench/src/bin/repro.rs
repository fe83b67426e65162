//! `repro` — regenerate every table and figure of the paper.
//!
//! ```sh
//! cargo run --release -p gaugenn-bench --bin repro                       # Small, seed 1402
//! cargo run --release -p gaugenn-bench --bin repro -- --scale paper      # full 16.6k-app corpus
//! cargo run --release -p gaugenn-bench --bin repro -- --scale tiny --seed 7
//! cargo run --release -p gaugenn-bench --bin repro -- --workers 8 --analysis-workers 4
//! cargo run --release -p gaugenn-bench --bin repro -- --reactor sim --connections 64
//! ```
//!
//! `--reactor epoll|sim` picks the store's serving loop, and with it the
//! pool's client transport (sim runs also print their schedule digest on
//! stderr); `--connections` sets connections-per-worker for pooled
//! crawls. Both are stdout-invariant — tables never change, only wall
//! time. Flags are the only spelling (`gaugenn_bench::cli`).
//!
//! Output is the text form of Tables 1–4, Figs. 4–15 and the §4.2/§4.5/
//! §6.1 statistics; `EXPERIMENTS.md` records a captured run.
//!
//! Set `GAUGENN_CACHE_DIR=<dir>` to point both snapshots' analysis at a
//! persistent on-disk model cache: the Apr 2021 snapshot then attaches to
//! the Feb 2020 snapshot's analyses (models shared across snapshots are
//! loaded, not re-traced), and a repeated run is warm end to end. The
//! persistent counters print on stderr only — stdout stays byte-identical
//! with or without the cache. `--workers` and `--analysis-workers` size
//! the crawl and analysis pools: the crawl pool plans its category
//! shards longest-first (`gaugenn_sched`), and the analysis workers take
//! apps as the crawl lands them; stdout is invariant in both.
//!
//! Set `GAUGENN_JOURNAL_DIR=<dir>` to journal completed work units
//! (crawled apps, the crawl's counters and end-of-crawl marker, the
//! probe verdict) as they finish; after a crash — induced or real —
//! re-run with `--resume`: a snapshot whose crawl finished replays it
//! from the journal, counters included, one whose crawl did not is
//! crawled again, and stdout is byte-identical either way (DESIGN.md
//! §12). `GAUGENN_CRASH=<point>[:n]` arms a deterministic SIGKILL for the
//! crash-recovery matrix in `verify.sh`.
//!
//! Set `GAUGENN_INDEX_DIR=<dir>` to accumulate both snapshots into the
//! persistent corpus index (`corpus.gnix`) that `StoreServer` answers
//! `/query/*` routes from (DESIGN.md §13).

use gaugenn_bench::cli::{self, ArgSpec};
use gaugenn_core::experiments::{backends, offline, runtime};
use gaugenn_core::pipeline::{Pipeline, PipelineConfig};
use gaugenn_playstore::corpus::Snapshot;
use gaugenn_soc::spec::all_devices;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let spec = ArgSpec {
        takes_workers: true,
        takes_resume: true,
        takes_reactor: true,
        takes_connections: true,
        default_connections: 1,
        ..ArgSpec::new("repro", "regenerate every table and figure of the paper")
    };
    let args = cli::parse_or_exit(&spec);
    let (scale, seed) = (args.scale, args.seed);
    // Both pools merge deterministically, so neither worker count ever
    // changes a table — only wall time.
    let (workers, analysis_workers) = (args.workers, args.analysis_workers);
    let resume = args.resume;

    println!(
        "gaugeNN reproduction — scale {scale:?}, seed {seed}, \
         {workers} crawl worker(s), {analysis_workers} analysis worker(s)"
    );
    println!("=================================================================");
    println!();
    println!("{}", runtime::tab1());

    let cache_dir = std::env::var_os("GAUGENN_CACHE_DIR").map(std::path::PathBuf::from);
    let journal_dir = std::env::var_os("GAUGENN_JOURNAL_DIR").map(std::path::PathBuf::from);
    let index_dir = std::env::var_os("GAUGENN_INDEX_DIR").map(std::path::PathBuf::from);
    if resume && journal_dir.is_none() {
        eprintln!("--resume needs GAUGENN_JOURNAL_DIR to point at the journal directory");
        std::process::exit(2);
    }
    let config = |snapshot| {
        let mut builder = PipelineConfig::builder(scale, snapshot, seed)
            .workers(workers)
            .analysis_workers(analysis_workers)
            .connections_per_worker(args.connections)
            .reactor(args.reactor)
            .resume(resume);
        if let Some(dir) = &cache_dir {
            builder = builder.analysis_cache_dir(dir.clone());
        }
        if let Some(dir) = &journal_dir {
            builder = builder.journal_dir(dir.clone());
        }
        if let Some(dir) = &index_dir {
            builder = builder.index_dir(dir.clone());
        }
        builder.build()
    };
    eprintln!("[1/5] crawling + analysing the Feb 2020 snapshot...");
    let r2020 = Pipeline::new(config(Snapshot::Y2020)).run()?;
    eprintln!("  {}", r2020.crawl_summary());
    eprintln!("  {}", r2020.analysis_summary());
    if let Some(digest) = r2020.reactor_digest {
        // Which readiness schedule the sim store took — stderr only, and
        // free to vary run to run while stdout stays byte-identical.
        eprintln!("  reactor digest {digest:016x}");
    }
    eprintln!("[2/5] crawling + analysing the Apr 2021 snapshot...");
    let r2021 = Pipeline::new(config(Snapshot::Y2021)).run()?;
    eprintln!("  {}", r2021.crawl_summary());
    eprintln!("  {}", r2021.analysis_summary());
    if let Some(digest) = r2021.reactor_digest {
        eprintln!("  reactor digest {digest:016x}");
    }

    println!("{}", offline::tab2(&r2020, &r2021).render());
    println!("Crawl drop-out breakdown (Apr 2021 snapshot):");
    println!("{}", r2021.dropout_breakdown().render());
    println!("{}\n", r2021.crawl_summary());
    println!(
        "Offline analysis (Apr 2021 snapshot): {} instances, {} cache hits / {} misses, {} unique analysed\n",
        r2021.analysis.instances,
        r2021.analysis.cache_hits,
        r2021.analysis.cache_misses,
        r2021.analysis.unique_analysed
    );
    // Wall-clock content goes to stderr with the rest of the progress
    // output so stdout stays byte-identical across runs.
    eprintln!("offline-analysis stage breakdown (Apr 2021 snapshot):");
    eprintln!("{}", r2021.analysis_breakdown().render());
    println!(
        "Sec 4.2: device-profile invariance probe: {:?} (paper: no device-specific distribution)\n",
        r2021.dataset.device_profile_invariant
    );
    println!("{}", offline::tab3(&r2021).render());
    println!("{}", offline::fig4(&r2021).render());
    println!("{}", offline::fig5(&r2020, &r2021).render());
    println!("{}", offline::render_sec45(&offline::sec45(&r2021)));
    println!("{}", offline::fig6(&r2021).render());
    println!("{}", offline::fig7(&r2021).render());

    eprintln!("[3/5] runtime analysis across the Table 1 devices...");
    let sweep = runtime::latency_sweep(&r2021, &all_devices());
    println!("{}", runtime::fig8(&sweep).render());
    println!("{}", runtime::fig9(&sweep).render());
    println!("{}", runtime::fig10(&r2021)?.render());
    println!("{}", runtime::tab4(&r2021)?.render());

    eprintln!("[4/5] optimisation experiments...");
    println!("{}", offline::render_sec61(&offline::sec61(&r2021)));
    println!("{}", backends::fig11(&r2021).render());
    println!("{}", backends::fig12(&r2021).render());
    println!(
        "{}",
        backends::fig13(&r2021)?.render("Fig 13: TFLite CPU runtimes (CPU vs XNNPACK vs NNAPI)")
    );
    println!(
        "{}",
        backends::fig14(&r2021)?.render("Fig 14: SNPE hardware targets (TFLite + caffe)")
    );
    println!("{}", offline::fig15(&r2021).render());

    eprintln!("[5/5] extension experiments (§6.1 what-if, §8.1 co-habitation, ablations)...");
    println!("{}", gaugenn_core::experiments::whatif::whatif()?.render());
    println!(
        "{}",
        gaugenn_core::experiments::cohab::cohab_study(&r2021, 6)?.render()
    );
    println!(
        "{}",
        gaugenn_core::experiments::ablations::ablation_study(&r2021).render()
    );
    println!(
        "{}",
        gaugenn_core::experiments::offload::offload_study(&r2021)?.render()
    );
    eprintln!("done.");
    Ok(())
}
