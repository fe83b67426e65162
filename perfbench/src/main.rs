//! `perfbench` — the repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload study --seed 1402 --seconds 10 --trace 0
//! ```
//!
//! Workloads (all at paper scale, at most two worker threads or
//! connections, loopback only):
//!
//! - `study`: `Pipeline::run` on the Apr 2021 snapshot plus a render of
//!   every single-snapshot artefact.
//! - `query`: an open-loop, seeded `/query/*` mix against a store
//!   serving the paper-scale corpus index.
//! - `campaign`: `harness::run_campaign` of every single-file TFLite
//!   model on the Q845 and Q888 boards.
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! traced layer sweep and prints the per-layer metrics. Progress goes to
//! stderr; stdout ends with a `record` line (host, scale, seed, rates,
//! spread) and then the result object. See `perfbench/README.md`.

mod campaign;
mod heap;
mod layers;
mod query;
mod stats;
mod study;
mod sys;
mod trace;

use std::process::ExitCode;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Default corpus seed (the repository's standard study seed).
pub const DEFAULT_SEED: u64 = 1402;

/// The runnable workloads. `BENCHMARK.json` lists `study` and
/// `campaign`; `query` runs the same way but is not gated (see
/// `perfbench/README.md`).
pub const WORKLOADS: [&str; 3] = ["study", "query", "campaign"];

/// Boxed error for the benchmark's fallible plumbing.
pub type BoxError = Box<dyn std::error::Error + Send + Sync>;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement length, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Internal: build and persist the corpus index in a child process.
    pub setup_child: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    )
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        setup_child: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "bad --seconds".to_string())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--setup-index" => args.setup_child = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !args.setup_child && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    Ok(args)
}

/// What one run produced: the result line plus the record fields that
/// go beside it.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every failed output check, empty when the outputs were correct.
    pub problems: Vec<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Metrics in print order: `(name, value, unit)`.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Extra record fields, values already JSON.
    pub record: Vec<(String, String)>,
}

impl Outcome {
    /// Add a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Add a record field whose value is already JSON.
    pub fn note(&mut self, key: impl Into<String>, json: impl Into<String>) {
        self.record.push((key.into(), json.into()));
    }

    /// Fail an output check.
    pub fn problem(&mut self, what: impl Into<String>) {
        let what = what.into();
        eprintln!("CHECK FAILED: {what}");
        self.problems.push(what);
    }

    /// Assert `ok`, recording `what` when it does not hold.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problem(what());
        }
    }
}

fn print_outcome(args: &Args, out: &Outcome) {
    let mut record = vec![
        ("workload".to_string(), sys::json_str(&args.workload)),
        ("host".to_string(), sys::json_str(&sys::host())),
        ("nproc".to_string(), sys::nproc().to_string()),
        ("profile".to_string(), sys::json_str(sys::profile())),
        ("scale".to_string(), sys::json_str("paper")),
        ("seed".to_string(), args.seed.to_string()),
        (
            "corpus_seed".to_string(),
            study::corpus_seed(args.seed).to_string(),
        ),
        ("run_seconds".to_string(), sys::json_num(args.seconds)),
        ("traced".to_string(), args.trace.to_string()),
    ];
    record.extend(out.record.iter().cloned());
    let fields: Vec<String> = record
        .iter()
        .map(|(k, v)| format!("{}: {v}", sys::json_str(k)))
        .collect();
    println!("{{\"record\": {{{}}}}}", fields.join(", "));
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                sys::json_str(name),
                sys::json_num(*value),
                sys::json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.problems.is_empty(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
}

fn run(args: &Args) -> Result<Outcome, BoxError> {
    // Pin this build's identity before any work, in case the executable
    // is rebuilt while the run is under way.
    sys::build_id();
    if args.setup_child {
        study::setup_child(args.seed)?;
        return Ok(Outcome::default());
    }
    if args.trace {
        return layers::traced(args);
    }
    match args.workload.as_str() {
        "study" => study::study(args),
        "query" => query::query(args),
        "campaign" => campaign::campaign(args),
        other => Err(format!("unknown workload {other}").into()),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(out) => {
            if !args.setup_child {
                print_outcome(&args, &out);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse("--workload query --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("query", 7, 12.0, true)
        );
        let d = parse("--workload study").unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (DEFAULT_SEED, 10.0, false));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload study --trace 2").is_err());
        assert!(parse("--workload study --seconds 0").is_err());
        assert!(parse("--workload study --seed").is_err());
        assert!(parse("--workload study --bogus 1").is_err());
    }
}
