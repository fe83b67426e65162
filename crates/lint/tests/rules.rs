//! Fixture-snippet tests: one positive and one suppressed case per rule,
//! plus lexer robustness and suppression-hygiene checks. Snippets are fed
//! through [`lint::lint_source`] with synthetic repo-relative paths so the
//! path-scoped rules (fault-path unwraps, analysis float accumulation,
//! bench exemptions) are exercised exactly as the CLI would.

use lint::lint_source;

/// Rules reported for a snippet, as (rule, line) pairs.
fn rules_at(path: &str, src: &str) -> Vec<(&'static str, u32)> {
    lint_source(path, src)
        .findings
        .iter()
        .map(|f| (f.rule, f.line))
        .collect()
}

/// Just the rule names reported for a snippet.
fn rules(path: &str, src: &str) -> Vec<&'static str> {
    rules_at(path, src).into_iter().map(|(r, _)| r).collect()
}

// ---------------------------------------------------------------- rule 1

#[test]
fn hashmap_iteration_is_flagged_for_loops_and_methods() {
    let src = r#"
use std::collections::HashMap;
fn render(m: &HashMap<String, u32>) -> Vec<u32> {
    let mut out = Vec::new();
    for (_k, v) in m {
        out.push(*v);
    }
    out.extend(m.values());
    out
}
"#;
    let got = rules_at("crates/core/src/x.rs", src);
    assert_eq!(
        got,
        vec![("hashmap-iter-order", 5), ("hashmap-iter-order", 8)]
    );
}

#[test]
fn hashmap_lookups_are_not_flagged() {
    let src = r#"
use std::collections::HashMap;
fn lookup(m: &HashMap<String, u32>) -> u32 {
    let mut cache: HashMap<u64, u64> = HashMap::new();
    cache.insert(1, 2);
    m.get("a").copied().unwrap_or(0) + cache.len() as u64 as u32
}
"#;
    assert!(rules("crates/core/src/x.rs", src).is_empty());
}

#[test]
fn hashmap_iteration_applies_to_test_code_too() {
    let src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn golden() {
        let mut m = std::collections::HashMap::new();
        m.insert(1, 2);
        for (k, v) in &m {
            println!("{k}{v}");
        }
    }
}
"#;
    assert_eq!(rules("crates/core/src/x.rs", src), vec!["hashmap-iter-order"]);
}

#[test]
fn hashmap_iteration_suppressed_by_directive_above() {
    let src = r#"
fn f(m: &std::collections::HashMap<u32, u32>) -> usize {
    // gaugelint: allow(hashmap-iter-order) — counted, not rendered
    m.keys().count()
}
"#;
    let report = lint_source("crates/core/src/x.rs", src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.suppressed, 1);
}

// ---------------------------------------------------------------- rule 2

#[test]
fn wall_clock_reads_are_flagged_outside_tests() {
    let src = r#"
use std::time::Instant;
fn deadline() -> Instant {
    let start = Instant::now();
    start
}
#[cfg(test)]
mod tests {
    #[test]
    fn timing_is_fine_here() {
        let _t = std::time::Instant::now();
    }
}
"#;
    assert_eq!(rules_at("crates/harness/src/x.rs", src), vec![("wall-clock", 4)]);
}

#[test]
fn wall_clock_is_exempt_in_bench_sources_and_suppressible() {
    let src = "fn t() -> u128 { std::time::Instant::now().elapsed().as_millis() }\n";
    assert!(rules("crates/bench/src/main.rs", src).is_empty());

    let suppressed = "fn t() { let _ = std::time::SystemTime::now(); } // gaugelint: allow(wall-clock) — diagnostics only\n";
    let report = lint_source("crates/core/src/x.rs", suppressed);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.suppressed, 1);
}

// ---------------------------------------------------------------- rule 3

#[test]
fn unwrap_is_flagged_only_on_fault_paths() {
    let src = r#"
fn parse(v: &str) -> u32 {
    let n: u32 = v.parse().unwrap();
    let m: u32 = v.parse().expect("checked");
    n + m
}
"#;
    assert_eq!(
        rules_at("crates/playstore/src/x.rs", src),
        vec![("unwrap-in-fault-path", 3), ("unwrap-in-fault-path", 4)]
    );
    assert_eq!(
        rules("crates/harness/src/x.rs", src),
        vec!["unwrap-in-fault-path", "unwrap-in-fault-path"]
    );
    // The analysis pipeline is not chaos-injected; unwraps there are
    // covered by review, not this rule.
    assert!(rules("crates/analysis/src/x.rs", src).is_empty());
}

#[test]
fn unwrap_in_fault_path_respects_test_code_and_suppressions() {
    let src = r#"
fn infallible() -> u32 {
    // gaugelint: allow(unwrap-in-fault-path) — provably infallible: literal
    "7".parse().unwrap()
}
#[cfg(test)]
mod tests {
    #[test]
    fn asserts_can_unwrap() {
        infallible().checked_add(1).unwrap();
    }
}
"#;
    let report = lint_source("crates/playstore/src/x.rs", src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.suppressed, 1);
}

// ---------------------------------------------------------------- rule 4

#[test]
fn deprecated_crawler_apis_are_flagged_everywhere() {
    let src = r#"
fn old_school(addr: std::net::SocketAddr) {
    let c = Crawler::connect(addr);
    let c = c.with_retry(RetryPolicy::default());
    let _c = c.with_timeouts(1, 2);
}
"#;
    assert_eq!(
        rules_at("tests/old.rs", src),
        vec![
            ("deprecated-api", 3),
            ("deprecated-api", 4),
            ("deprecated-api", 5)
        ]
    );
}

// ---------------------------------------------------------------- rule 5

#[test]
fn send_while_holding_a_lock_guard_is_flagged() {
    let src = r#"
fn pump(m: &parking_lot::Mutex<u32>, tx: &Sender<u32>) {
    let g = m.lock();
    tx.send(*g).ok();
}
"#;
    assert_eq!(rules_at("crates/analysis/src/x.rs", src), vec![("lock-across-send", 4)]);
}

#[test]
fn send_after_drop_or_scope_exit_is_clean() {
    let src = r#"
fn pump(m: &parking_lot::Mutex<u32>, tx: &Sender<u32>) {
    let g = m.lock();
    let v = *g;
    drop(g);
    tx.send(v).ok();
}
fn scoped(m: &parking_lot::RwLock<u32>, tx: &Sender<u32>) {
    let v = {
        let g = m.read();
        *g
    };
    tx.send(v).ok();
}
fn extracted(m: &std::sync::Mutex<u32>, tx: &Sender<u32>) {
    let v = m.lock().unwrap().clone();
    tx.send(v).ok();
}
"#;
    assert!(rules("crates/analysis/src/x.rs", src).is_empty());
}

#[test]
fn lock_across_send_counts_std_guards_and_is_suppressible() {
    // Both std guard spellings: the plain unwrap, and the poison-recovering
    // `unwrap_or_else` the workspace's std locks use.
    for (tail, unsuppressed) in [
        (".unwrap()", vec!["unwrap-in-fault-path"]),
        (".unwrap_or_else(|e| e.into_inner())", vec![]),
    ] {
        let src = format!(
            r#"
fn pump(m: &std::sync::Mutex<u32>, tx: &Sender<u32>) {{
    let g = m.lock(){tail};
    // gaugelint: allow(lock-across-send) — receiver never locks m
    tx.send(*g).ok();
}}
"#
        );
        let report = lint_source("crates/harness/src/x.rs", &src);
        // A fault-path unwrap on line 3 still reports; the send is silenced.
        assert_eq!(
            report.findings.iter().map(|f| f.rule).collect::<Vec<_>>(),
            unsuppressed,
            "{tail}"
        );
        assert_eq!(report.suppressed, 1, "{tail}");
    }
}

// ---------------------------------------------------------------- rule 6

#[test]
fn second_lock_while_a_guard_is_live_is_flagged() {
    let src = r#"
fn shim(a: &parking_lot::Mutex<u32>, b: &parking_lot::Mutex<u32>) -> u32 {
    let ga = a.lock();
    let gb = b.lock();
    *ga + *gb
}
fn std_guard(a: &std::sync::Mutex<u32>, b: &std::sync::RwLock<u32>) -> u32 {
    let ga = a.lock().unwrap_or_else(|e| e.into_inner());
    *ga + *b.read().unwrap()
}
"#;
    assert_eq!(
        rules_at("crates/analysis/src/x.rs", src),
        vec![("nested-lock", 4), ("nested-lock", 9)]
    );
}

#[test]
fn lock_after_scope_exit_or_drop_and_io_under_a_guard_are_clean() {
    let src = r#"
fn scoped(a: &parking_lot::Mutex<u32>, b: &parking_lot::RwLock<u32>) -> u32 {
    let v = {
        let g = a.lock();
        *g
    };
    v + *b.write()
}
fn dropped(a: &parking_lot::Mutex<u32>) -> u32 {
    let g = a.lock();
    let v = *g;
    drop(g);
    v + *a.lock()
}
fn io(m: &std::sync::Mutex<[u8; 64]>, stream: &mut std::net::TcpStream) -> usize {
    let mut buf = m.lock().unwrap_or_else(|e| e.into_inner());
    stream.read(&mut buf[..]).unwrap_or(0)
}
"#;
    assert!(rules("crates/analysis/src/x.rs", src).is_empty());
}

#[test]
fn nested_lock_is_suppressible_with_a_reason() {
    let src = r#"
fn transfer(a: &parking_lot::Mutex<u32>, b: &parking_lot::Mutex<u32>) {
    let mut ga = a.lock();
    // gaugelint: allow(nested-lock) — every caller takes a before b
    let mut gb = b.lock();
    *gb += std::mem::take(&mut *ga);
}
"#;
    let report = lint_source("crates/analysis/src/x.rs", src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.suppressed, 1);
}

// ---------------------------------------------------------------- rule 7

#[test]
fn entropy_seeding_is_flagged() {
    let src = r#"
fn seed() -> u64 {
    let mut rng = SmallRng::from_entropy();
    let x: u64 = rand::random();
    let _t = thread_rng();
    let _o = OsRng;
    x
}
"#;
    assert_eq!(
        rules("crates/core/src/x.rs", src),
        vec![
            "seed-from-entropy",
            "seed-from-entropy",
            "seed-from-entropy",
            "seed-from-entropy"
        ]
    );
}

#[test]
fn seeded_rngs_are_clean() {
    let src = "fn seed(s: u64) -> SmallRng { SmallRng::seed_from_u64(s) }\n";
    assert!(rules("crates/core/src/x.rs", src).is_empty());
}

// ---------------------------------------------------------------- rule 8

#[test]
fn float_accumulation_over_hash_iteration_is_flagged_in_analysis() {
    let src = r#"
use std::collections::HashMap;
fn entropy(counts: &HashMap<char, f64>) -> f64 {
    counts.values().map(|p| p * p.log2()).sum::<f64>()
}
"#;
    let got = rules("crates/analysis/src/stats.rs", src);
    assert!(got.contains(&"float-accum-order"), "{got:?}");
    // Outside the analysis crate only the iteration rule fires.
    assert_eq!(rules("crates/core/src/x.rs", src), vec!["hashmap-iter-order"]);
}

#[test]
fn btreemap_accumulation_is_clean_in_analysis() {
    let src = r#"
use std::collections::BTreeMap;
fn entropy(counts: &BTreeMap<char, f64>) -> f64 {
    counts.values().map(|p| p * p.log2()).sum::<f64>()
}
"#;
    assert!(rules("crates/analysis/src/stats.rs", src).is_empty());
}

// ---------------------------------------------------------------- rule 9

#[test]
fn relaxed_ordering_is_flagged_in_report_crates() {
    let src = r#"
use std::sync::atomic::{AtomicU64, Ordering};
fn bump(hits: &AtomicU64) {
    hits.fetch_add(1, Ordering::Relaxed);
}
#[cfg(test)]
mod tests {
    use super::*;
    fn probe(n: &AtomicU64) -> u64 {
        n.load(Ordering::Relaxed)
    }
}
"#;
    assert_eq!(
        rules_at("crates/core/src/analyze.rs", src),
        vec![("relaxed-ordering-in-report", 4)]
    );
    assert_eq!(
        rules("crates/analysis/src/dedup.rs", src),
        vec!["relaxed-ordering-in-report"]
    );
    // Crates that never render reports keep their Relaxed stop flags.
    assert!(rules("crates/playstore/src/server.rs", src).is_empty());
    // SeqCst is always clean.
    let seqcst = "fn bump(h: &std::sync::atomic::AtomicU64) { h.fetch_add(1, std::sync::atomic::Ordering::SeqCst); }\n";
    assert!(rules("crates/core/src/analyze.rs", seqcst).is_empty());
}

#[test]
fn relaxed_ordering_is_suppressible_with_a_reason() {
    let src = r#"
use std::sync::atomic::{AtomicU64, Ordering};
fn bump(scratch: &AtomicU64) {
    // gaugelint: allow(relaxed-ordering-in-report) — scratch counter, never rendered
    scratch.fetch_add(1, Ordering::Relaxed);
}
"#;
    let report = lint_source("crates/core/src/scratch.rs", src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.suppressed, 1);
}

// --------------------------------------------------------------- rule 10

#[test]
fn todo_and_unimplemented_are_flagged_outside_tests() {
    let src = r#"
fn later() {
    todo!("wire up the DSP backend")
}
fn never() {
    unimplemented!()
}
#[cfg(test)]
mod tests {
    fn scaffold() {
        todo!()
    }
}
"#;
    assert_eq!(
        rules_at("crates/soc/src/x.rs", src),
        vec![("todo-unimplemented", 3), ("todo-unimplemented", 6)]
    );
}

// --------------------------------------------------------------- rule 11

#[test]
fn duration_literals_in_retry_paths_are_flagged() {
    let src = r#"
use std::time::Duration;
fn backoff_delay(attempt: u32) {
    std::thread::sleep(Duration::from_millis(250));
}
fn serve_probation_cooldown() -> Duration {
    Duration::from_secs(5)
}
fn unrelated_constant() -> Duration {
    Duration::from_millis(250)
}
fn retry_after(policy: &RetryPolicy) -> Duration {
    Duration::from_millis(policy.base_delay_ms)
}
"#;
    assert_eq!(
        rules_at("crates/playstore/src/x.rs", src),
        vec![
            ("literal-duration-in-retry", 4),
            ("literal-duration-in-retry", 7),
        ],
        "literals flag only in retry/cool-down-named fns; policy-driven values never do"
    );
}

#[test]
fn duration_literals_in_retry_tests_are_exempt() {
    let src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn backoff_schedule_is_exact() {
        let d = std::time::Duration::from_millis(250);
        assert!(d.as_millis() == 250);
    }
}
"#;
    assert!(rules("crates/playstore/src/x.rs", src).is_empty());
}

#[test]
fn duration_literal_in_retry_suppressed_with_reason() {
    let src = r#"
fn retry_handshake() {
    // gaugelint: allow(literal-duration-in-retry) — TCP handshake grace is a protocol constant, not a policy knob
    std::thread::sleep(std::time::Duration::from_millis(5));
}
"#;
    let report = lint_source("crates/playstore/src/x.rs", src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.suppressed, 1);
}

// --------------------------------------------------------------- rule 12

#[test]
fn blocking_calls_in_the_reactor_are_flagged() {
    let src = r#"
fn pump(io: &mut TcpStream) {
    std::thread::sleep(Duration::from_millis(5));
    let mut head = [0u8; 4];
    let _ = io.read_exact(&mut head);
    let req = read_request(io);
    let _probe = TcpStream::connect_timeout(&addr, Duration::from_millis(10));
}
"#;
    let got = rules_at("crates/playstore/src/reactor.rs", src);
    assert_eq!(
        got.iter().map(|(r, _)| *r).collect::<Vec<_>>(),
        vec![
            "blocking-call-in-reactor",
            "blocking-call-in-reactor",
            "blocking-call-in-reactor",
            "blocking-call-in-reactor",
        ],
        "{got:?}"
    );
    assert_eq!(
        got.iter().map(|(_, l)| *l).collect::<Vec<_>>(),
        vec![3, 5, 6, 7]
    );
}

#[test]
fn blocking_calls_in_the_client_reactor_are_flagged_too() {
    // The non-blocking client lane driver shares the root set: one
    // blocking call in `drive_lanes` stalls every in-flight lane, so
    // the same shapes are banned there — delays go on the timer wheel.
    let src = r#"
fn pump_lane(io: &mut TcpStream) {
    std::thread::sleep(backoff);
    let resp = read_response(io);
    let outcome = read_response_resumable(io);
}
"#;
    let got = rules_at("crates/playstore/src/reactor_client.rs", src);
    assert_eq!(
        got.iter().map(|(r, _)| *r).collect::<Vec<_>>(),
        vec!["blocking-call-in-reactor"; 3],
        "{got:?}"
    );
    assert_eq!(
        got.iter().map(|(_, l)| *l).collect::<Vec<_>>(),
        vec![3, 4, 5]
    );
}

#[test]
fn blocking_calls_outside_the_reactor_module_are_not_this_rules_business() {
    // The same shapes in the blocking server path are legal — that loop
    // owns one connection per thread, so blocking only stalls itself.
    let src = r#"
fn handle(io: &mut TcpStream) -> Result<()> {
    let req = read_request(io)?;
    write_response(io, &resp)?;
    Ok(())
}
"#;
    assert!(rules("crates/playstore/src/server.rs", src).is_empty());
}

#[test]
fn reactor_nonblocking_shapes_and_definitions_are_clean() {
    let src = r#"
fn read_request(buf: &[u8]) -> Option<Request> { None }
fn pump(io: &mut impl NonBlockingIo) -> usize {
    let mut chunk = [0u8; 1024];
    match io.try_read(&mut chunk) {
        Ok(n) => n,
        Err(_) => 0,
    }
}
"#;
    assert!(rules("crates/playstore/src/reactor.rs", src).is_empty());
}

#[test]
fn blocking_call_in_reactor_tests_exempt_and_suppressible() {
    let test_src = r#"
#[cfg(test)]
mod tests {
    #[test]
    fn scripted_stall() {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}
"#;
    assert!(rules("crates/playstore/src/reactor.rs", test_src).is_empty());

    let suppressed = r#"
fn drain(io: &mut TcpStream) {
    // gaugelint: allow(blocking-call-in-reactor) — shutdown path, loop already stopped
    let _ = io.read_to_end(&mut Vec::new());
}
"#;
    let report = lint_source("crates/playstore/src/reactor.rs", suppressed);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.suppressed, 1);
}

// ------------------------------------------------------- suppression hygiene

#[test]
fn unknown_rule_in_allow_is_a_bad_suppression() {
    let src = "// gaugelint: allow(no-such-rule)\nfn f() {}\n";
    assert_eq!(rules("crates/core/src/x.rs", src), vec!["bad-suppression"]);
}

#[test]
fn malformed_directive_is_a_bad_suppression() {
    let src = "// gaugelint: alow(wall-clock)\nfn f() {}\n";
    assert_eq!(rules("crates/core/src/x.rs", src), vec!["bad-suppression"]);
}

#[test]
fn bad_suppression_cannot_be_suppressed() {
    let src = "// gaugelint: allow(bad-suppression)\nfn f() {}\n";
    assert_eq!(rules("crates/core/src/x.rs", src), vec!["bad-suppression"]);
}

#[test]
fn one_directive_can_allow_multiple_rules() {
    let src = r#"
fn f(m: &std::collections::HashMap<u32, u32>) -> usize {
    // gaugelint: allow(hashmap-iter-order, wall-clock) — bounded diag loop
    m.keys().map(|_| std::time::Instant::now().elapsed().as_nanos() as usize).count()
}
"#;
    let report = lint_source("crates/core/src/x.rs", src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.suppressed, 2);
}

// -------------------------------------------------------------- lexer edges

#[test]
fn strings_comments_and_lifetimes_never_trip_rules() {
    let src = r#"
// HashMap .iter() Instant::now() todo! in a comment is fine
/* and in /* nested */ block comments too: thread_rng() */
fn f<'a>(s: &'a str) -> String {
    let msg = "for x in map.values() { Instant::now(); todo!() }";
    let raw = r#inner#;
    let byte = b"unwrap() .expect()";
    let c = 'x';
    format!("{s}{msg}{raw:?}{byte:?}{c}")
}
"#
    .replace("r#inner#", "r##\"rand::random() OsRng\"##");
    assert!(rules("crates/playstore/src/x.rs", &src).is_empty());
}

#[test]
fn findings_carry_file_line_and_snippet() {
    let src = "fn f() {\n    todo!()\n}\n";
    let report = lint_source("crates/core/src/x.rs", src);
    assert_eq!(report.findings.len(), 1);
    let f = &report.findings[0];
    assert_eq!(f.file, "crates/core/src/x.rs");
    assert_eq!(f.line, 2);
    assert_eq!(f.snippet, "todo!()");
    assert_eq!(f.rule, "todo-unimplemented");
}
