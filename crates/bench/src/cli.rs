//! Shared flag parser for the bench binaries.
//!
//! Every bin (`repro`, `poolbench`, `analyzebench`, `querybench`) shares
//! one flag grammar:
//!
//! ```text
//! --scale tiny|small|paper   corpus scale
//! --seed N                   corpus seed
//! --workers N                crawl / client workers        (where supported)
//! --analysis-workers N       analysis pool workers         (where supported)
//! --resume                   resume from the journal       (where supported)
//! --json                     machine-readable JSON output  (where supported)
//! --reactor epoll|sim        store serving loop            (where supported)
//! --connections N            connections per crawl worker  (where supported)
//! --help                     usage
//! ```
//!
//! Both `--flag value` and `--flag=value` spellings are accepted. Any
//! other token — a bare word or an unsupported flag — is an error.

use gaugenn_playstore::corpus::CorpusScale;
use gaugenn_playstore::reactor::ReactorMode;

/// Per-binary parsing contract: name, defaults, and which optional
/// flags the bin actually supports (unsupported flags are errors, not
/// silently ignored).
#[derive(Debug, Clone, Copy)]
pub struct ArgSpec {
    /// Binary name, used in help and error output.
    pub bin: &'static str,
    /// One-line description printed at the top of `--help`.
    pub about: &'static str,
    /// Default corpus seed.
    pub default_seed: u64,
    /// Default worker count, when the bin takes `--workers`.
    pub default_workers: usize,
    /// Whether the bin accepts `--workers` / `--analysis-workers`.
    pub takes_workers: bool,
    /// Whether the bin accepts `--resume`.
    pub takes_resume: bool,
    /// Whether the bin accepts `--json`.
    pub takes_json: bool,
    /// Whether the bin accepts `--reactor`.
    pub takes_reactor: bool,
    /// Whether the bin accepts `--connections` (per-worker connection
    /// multiplexing for the event-driven client).
    pub takes_connections: bool,
    /// Default connection count, when the bin takes `--connections`.
    pub default_connections: usize,
}

impl ArgSpec {
    /// Baseline spec: seed 1402, no optional flags.
    pub const fn new(bin: &'static str, about: &'static str) -> Self {
        ArgSpec {
            bin,
            about,
            default_seed: 1402,
            default_workers: 4,
            takes_workers: false,
            takes_resume: false,
            takes_json: false,
            takes_reactor: false,
            takes_connections: false,
            default_connections: 1,
        }
    }
}

/// Parsed arguments, with defaults filled in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// Corpus scale.
    pub scale: CorpusScale,
    /// Corpus seed.
    pub seed: u64,
    /// Worker count (defaulted even for bins that ignore it).
    pub workers: usize,
    /// Analysis-pool workers; defaults to `workers` when not given.
    pub analysis_workers: usize,
    /// Resume from the journal directory.
    pub resume: bool,
    /// Emit machine-readable JSON.
    pub json: bool,
    /// The store's serving loop (default epoll).
    pub reactor: ReactorMode,
    /// Connections per worker for the event-driven client (defaulted
    /// even for bins that ignore it).
    pub connections: usize,
}

/// Outcome of [`parse`]: the arguments, or a request for help.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Parsed {
    /// The resolved arguments.
    pub args: BenchArgs,
    /// `--help` was requested; the caller should print [`help`] and exit 0.
    pub help: bool,
}

/// Parse `argv` (program name already stripped) against `spec`.
///
/// Errors are human-readable one-liners; callers print them with
/// [`help`] and exit 2.
pub fn parse(spec: &ArgSpec, argv: &[String]) -> Result<Parsed, String> {
    let mut args = BenchArgs {
        scale: CorpusScale::Small,
        seed: spec.default_seed,
        workers: spec.default_workers,
        analysis_workers: 0,
        resume: false,
        json: false,
        reactor: ReactorMode::default(),
        connections: spec.default_connections,
    };
    let mut flag_analysis: Option<usize> = None;
    let mut help = false;

    let mut i = 0usize;
    while i < argv.len() {
        let tok = argv[i].as_str();
        let (name, inline) = match tok.split_once('=') {
            Some((n, v)) if n.starts_with("--") => (n, Some(v.to_string())),
            _ => (tok, None),
        };
        let value = |i: &mut usize| -> Result<String, String> {
            if let Some(v) = &inline {
                return Ok(v.clone());
            }
            *i += 1;
            argv.get(*i)
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match name {
            "--help" | "-h" => help = true,
            "--scale" => args.scale = parse_scale(&value(&mut i)?)?,
            "--seed" => args.seed = parse_num(name, &value(&mut i)?)?,
            "--workers" if spec.takes_workers => args.workers = parse_num(name, &value(&mut i)?)?,
            "--analysis-workers" if spec.takes_workers => {
                flag_analysis = Some(parse_num(name, &value(&mut i)?)?)
            }
            "--resume" if spec.takes_resume => args.resume = true,
            "--json" if spec.takes_json => args.json = true,
            "--connections" if spec.takes_connections => {
                args.connections = parse_num(name, &value(&mut i)?)?
            }
            "--reactor" if spec.takes_reactor => {
                let v = value(&mut i)?;
                args.reactor = ReactorMode::parse(&v)
                    .ok_or_else(|| format!("unknown reactor '{v}' (expected epoll|sim)"))?;
            }
            _ if name.starts_with("--") => return Err(format!("unknown flag '{name}'")),
            _ => return Err(format!("unexpected argument '{tok}' (flags only)")),
        }
        i += 1;
    }
    args.analysis_workers = flag_analysis.unwrap_or(args.workers);
    Ok(Parsed { args, help })
}

/// Parse a scale name, preserving the historic error message.
fn parse_scale(s: &str) -> Result<CorpusScale, String> {
    match s {
        "tiny" => Ok(CorpusScale::Tiny),
        "small" => Ok(CorpusScale::Small),
        "paper" => Ok(CorpusScale::Paper),
        other => Err(format!("unknown scale '{other}' (expected tiny|small|paper)")),
    }
}

fn parse_num<T: std::str::FromStr>(name: &str, s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{name} expects a number, got '{s}'"))
}

/// Render the `--help` text for `spec`.
pub fn help(spec: &ArgSpec) -> String {
    let mut out = String::new();
    out.push_str(&format!("{} — {}\n\n", spec.bin, spec.about));
    out.push_str(&format!("usage: {} [flags]\n\n", spec.bin));
    out.push_str("  --scale tiny|small|paper  corpus scale (default small)\n");
    out.push_str(&format!(
        "  --seed N                  corpus seed (default {})\n",
        spec.default_seed
    ));
    if spec.takes_workers {
        out.push_str(&format!(
            "  --workers N               worker count (default {})\n",
            spec.default_workers
        ));
        out.push_str("  --analysis-workers N      analysis pool workers (default: --workers)\n");
    }
    if spec.takes_resume {
        out.push_str("  --resume                  resume from GAUGENN_JOURNAL_DIR\n");
    }
    if spec.takes_json {
        out.push_str("  --json                    machine-readable JSON on stdout\n");
    }
    if spec.takes_reactor {
        out.push_str("  --reactor epoll|sim       store serving loop (default epoll)\n");
    }
    if spec.takes_connections {
        out.push_str(&format!(
            "  --connections N           connections multiplexed per worker (default {})\n",
            spec.default_connections
        ));
    }
    out.push_str("  --help                    this text\n");
    out
}

/// Parse `std::env::args()`, printing help / errors and exiting as
/// appropriate: 0 after `--help`, 2 after a parse error.
pub fn parse_or_exit(spec: &ArgSpec) -> BenchArgs {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse(spec, &argv) {
        Ok(parsed) => {
            if parsed.help {
                print!("{}", help(spec));
                std::process::exit(0);
            }
            parsed.args
        }
        Err(e) => {
            eprintln!("{}: {e}", spec.bin);
            eprint!("{}", help(spec));
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ArgSpec {
        ArgSpec {
            takes_workers: true,
            takes_resume: true,
            takes_json: true,
            takes_reactor: true,
            takes_connections: true,
            default_connections: 64,
            ..ArgSpec::new("testbench", "test spec")
        }
    }

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_apply_with_no_arguments() {
        let p = parse(&spec(), &[]).unwrap();
        assert!(!p.help);
        assert_eq!(p.args.scale, CorpusScale::Small);
        assert_eq!(p.args.seed, 1402);
        assert_eq!(p.args.workers, 4);
        assert_eq!(p.args.analysis_workers, 4, "defaults to --workers");
        assert!(!p.args.resume && !p.args.json);
    }

    #[test]
    fn flag_forms_parse_in_both_spellings() {
        let p = parse(
            &spec(),
            &argv(&["--scale", "tiny", "--seed=7", "--workers", "8", "--resume", "--json"]),
        )
        .unwrap();
        assert_eq!(p.args.scale, CorpusScale::Tiny);
        assert_eq!(p.args.seed, 7);
        assert_eq!(p.args.workers, 8);
        assert_eq!(p.args.analysis_workers, 8);
        assert!(p.args.resume && p.args.json);
        let p = parse(&spec(), &argv(&["--analysis-workers=2", "--workers", "8"])).unwrap();
        assert_eq!(p.args.workers, 8);
        assert_eq!(p.args.analysis_workers, 2, "an explicit count beats the default");
    }

    #[test]
    fn errors_are_typed_one_liners() {
        let bad_scale = parse(&spec(), &argv(&["--scale", "huge"])).unwrap_err();
        assert_eq!(bad_scale, "unknown scale 'huge' (expected tiny|small|paper)");
        let bad_seed = parse(&spec(), &argv(&["--seed", "x"])).unwrap_err();
        assert!(bad_seed.contains("expects a number"), "{bad_seed}");
        let unknown = parse(&spec(), &argv(&["--frobnicate"])).unwrap_err();
        assert!(unknown.contains("unknown flag"), "{unknown}");
        let missing = parse(&spec(), &argv(&["--seed"])).unwrap_err();
        assert!(missing.contains("needs a value"), "{missing}");
        let bare = parse(&spec(), &argv(&["tiny", "7"])).unwrap_err();
        assert_eq!(bare, "unexpected argument 'tiny' (flags only)");
    }

    #[test]
    fn reactor_flag_parses_every_mode_and_rejects_junk() {
        assert_eq!(parse(&spec(), &argv(&[])).unwrap().args.reactor, ReactorMode::Epoll);
        for (spelling, want) in [("epoll", ReactorMode::Epoll), ("sim", ReactorMode::Sim)] {
            let p = parse(&spec(), &argv(&["--reactor", spelling])).unwrap();
            assert_eq!(p.args.reactor, want, "{spelling}");
        }
        for junk in ["threaded", "legacy", "uring"] {
            let err = parse(&spec(), &argv(&["--reactor", junk])).unwrap_err();
            assert!(err.contains("unknown reactor"), "{junk}: {err}");
        }
    }

    #[test]
    fn connections_flag_parses_and_defaults_per_spec() {
        let p = parse(&spec(), &[]).unwrap();
        assert_eq!(p.args.connections, 64, "spec default applies");
        let p = parse(&spec(), &argv(&["--connections", "256"])).unwrap();
        assert_eq!(p.args.connections, 256);
        let p = parse(&spec(), &argv(&["--connections=8"])).unwrap();
        assert_eq!(p.args.connections, 8);
        let err = parse(&spec(), &argv(&["--connections", "many"])).unwrap_err();
        assert!(err.contains("expects a number"), "{err}");
    }

    #[test]
    fn unsupported_flags_are_rejected_per_spec() {
        let plain = ArgSpec::new("plainbench", "no optional flags");
        for flags in [
            &["--workers", "3"][..],
            &["--resume"],
            &["--json"],
            &["--reactor", "sim"],
            &["--connections", "8"],
        ] {
            let err = parse(&plain, &argv(flags)).unwrap_err();
            assert!(err.contains("unknown flag"), "{flags:?}: {err}");
        }
        // …but the core pair always works.
        let p = parse(&plain, &argv(&["--scale", "paper", "--seed", "3"])).unwrap();
        assert_eq!(p.args.scale, CorpusScale::Paper);
        assert_eq!(p.args.seed, 3);
    }

    #[test]
    fn help_flag_is_reported_not_fatal() {
        let p = parse(&spec(), &argv(&["--help"])).unwrap();
        assert!(p.help);
        let text = help(&spec());
        for needle in ["--scale", "--seed", "--workers", "--resume", "--json", "--reactor"] {
            assert!(text.contains(needle), "help lacks {needle}");
        }
        let plain_text = help(&ArgSpec::new("plainbench", "no optional flags"));
        assert!(!plain_text.contains("--workers"));
        assert!(!plain_text.contains("--json"));
    }
}
