//! The gaugelint rule set.
//!
//! Every rule is a linear scan over the token stream from
//! [`crate::lexer`]. Rules are deliberately lexical: they trade a little
//! precision for zero dependencies and total predictability — a rule
//! either matches a token shape or it does not, and a human can read the
//! match in one screen. Findings are `(rule, line)` pairs; suppression
//! and snippet extraction happen in [`crate::lint_source`].

use crate::lexer::{
    Lexed,
    Pat::{I, P},
    TokKind,
};
use std::collections::BTreeSet;

/// Method names whose call on a hash container walks it in nondeterministic
/// order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "values",
    "values_mut",
    "keys",
    "drain",
];

/// Everything a rule needs to know about one file.
pub(crate) struct Ctx<'a> {
    /// Normalized (forward-slash) path, as passed on the command line.
    path: String,
    /// The token stream.
    lex: &'a Lexed,
    /// Per-token flag: is this token inside test code (`#[cfg(test)]` /
    /// `#[test]` item, or a file under a `tests/` directory)?
    test_mask: Vec<bool>,
    /// Benchmark sources (`crates/bench/…`) are allowed wall-clock reads.
    is_bench: bool,
    /// Names bound or declared with a `HashMap`/`HashSet` type in this file.
    hash_names: BTreeSet<String>,
}

impl<'a> Ctx<'a> {
    /// Build the per-file context: path classification, test spans, and
    /// the set of hash-container binding names.
    pub(crate) fn new(path: &str, lex: &'a Lexed) -> Ctx<'a> {
        let norm = path.replace('\\', "/");
        let comps: Vec<&str> = norm.split('/').collect();
        let whole_test = comps.contains(&"tests");
        let is_bench = comps.iter().any(|c| *c == "bench" || *c == "benches");
        let test_mask = compute_test_mask(lex, whole_test);
        let hash_names = collect_hash_names(lex);
        Ctx {
            path: norm,
            lex,
            test_mask,
            is_bench,
            hash_names,
        }
    }

    fn in_test(&self, i: usize) -> bool {
        self.test_mask.get(i).copied().unwrap_or(false)
    }

    /// Crates whose non-test unwraps sit on chaos-reachable fault paths.
    fn in_fault_path(&self) -> bool {
        self.path.contains("crates/playstore/src") || self.path.contains("crates/harness/src")
    }

    /// The analysis crate renders floats into the merged report.
    fn in_analysis(&self) -> bool {
        self.path.contains("crates/analysis/")
    }

    /// The reactor root set: readiness loops and connection state
    /// machines where one blocking call stalls every connection at once
    /// — the serving loops (`reactor.rs`) and the non-blocking client
    /// lane driver (`reactor_client.rs`). Named explicitly so adding a
    /// sibling module is a deliberate decision, not a substring accident.
    fn in_reactor(&self) -> bool {
        self.path.contains("crates/playstore/src/reactor.rs")
            || self.path.contains("crates/playstore/src/reactor_client.rs")
    }

    /// Crates whose atomics feed the rendered report (cache and analysis
    /// counters end up in `PipelineReport::render_text`).
    fn in_report_crate(&self) -> bool {
        self.path.contains("crates/core/") || self.path.contains("crates/analysis/")
    }
}

/// Run every rule; returns raw `(rule, line)` findings in scan order.
pub(crate) fn run_all(ctx: &Ctx<'_>) -> Vec<(&'static str, u32)> {
    let mut out = Vec::new();
    rule_hashmap_iter_order(ctx, &mut out);
    rule_wall_clock(ctx, &mut out);
    rule_unwrap_in_fault_path(ctx, &mut out);
    rule_deprecated_api(ctx, &mut out);
    rule_lock_guards(ctx, &mut out);
    rule_seed_from_entropy(ctx, &mut out);
    rule_float_accum_order(ctx, &mut out);
    rule_relaxed_ordering_in_report(ctx, &mut out);
    rule_todo_unimplemented(ctx, &mut out);
    rule_literal_duration_in_retry(ctx, &mut out);
    rule_blocking_call_in_reactor(ctx, &mut out);
    out
}

/// The per-token test mask for a file, path classification included —
/// shared with the semantic pass (test fns are exempt from taint
/// findings, same as from the lexical rules).
pub(crate) fn test_mask_for(path: &str, lex: &Lexed) -> Vec<bool> {
    let norm = path.replace('\\', "/");
    let whole = norm.split('/').any(|c| c == "tests");
    compute_test_mask(lex, whole)
}

/// Mark every token inside `#[cfg(test)]` / `#[test]`-attributed items
/// (attribute through matching close brace). `whole` marks the entire
/// file (integration-test sources).
fn compute_test_mask(lex: &Lexed, whole: bool) -> Vec<bool> {
    let n = lex.toks.len();
    let mut mask = vec![whole; n];
    if whole {
        return mask;
    }
    let mut i = 0usize;
    while i < n {
        if !(lex.punct(i) == Some('#') && lex.punct(i + 1) == Some('[')) {
            i += 1;
            continue;
        }
        // Find the attribute's matching `]`.
        let mut depth = 0i32;
        let mut end = None;
        let mut j = i + 1;
        while j < n && j < i + 200 {
            match lex.punct(j) {
                Some('[') => depth += 1,
                Some(']') => {
                    depth -= 1;
                    if depth == 0 {
                        end = Some(j);
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let Some(end) = end else {
            i += 1;
            continue;
        };
        let mut has_test = false;
        let mut has_not = false;
        for k in i..=end {
            match lex.ident(k) {
                Some("test") | Some("tests") => has_test = true,
                Some("not") => has_not = true,
                _ => {}
            }
        }
        if !has_test || has_not {
            i = end + 1;
            continue;
        }
        // Mark through the attributed item's body: the next `{ … }`
        // block, unless a `;` ends the item first (cfg'd use/static).
        let mut open = None;
        let mut k = end + 1;
        while k < n && k < end + 100 {
            match lex.punct(k) {
                Some('{') => {
                    open = Some(k);
                    break;
                }
                Some(';') => break,
                _ => {}
            }
            k += 1;
        }
        if let Some(open) = open {
            let mut bd = 0i32;
            let mut m = open;
            while m < n {
                match lex.punct(m) {
                    Some('{') => bd += 1,
                    Some('}') => {
                        bd -= 1;
                        if bd == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                m += 1;
            }
            for t in mask.iter_mut().take(m.min(n - 1) + 1).skip(i) {
                *t = true;
            }
        }
        i = end + 1;
    }
    mask
}

/// Collect names declared with a hash-container type: `let` bindings whose
/// initialiser or type mentions `HashMap`/`HashSet`, plus field and
/// parameter declarations (`name: …HashMap<…>`), found by walking back
/// from the type name over type-ish tokens to a single `:`.
fn collect_hash_names(lex: &Lexed) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    let n = lex.toks.len();
    let is_hash = |id: Option<&str>| matches!(id, Some("HashMap") | Some("HashSet"));

    for i in 0..n {
        if lex.ident(i) != Some("let") {
            continue;
        }
        let mut j = i + 1;
        if lex.ident(j) == Some("mut") {
            j += 1;
        }
        let Some(name) = lex.ident(j) else { continue };
        let mut k = j + 1;
        while k < n && k < j + 100 {
            if lex.punct(k) == Some(';') {
                break;
            }
            if is_hash(lex.ident(k)) {
                names.insert(name.to_string());
                break;
            }
            k += 1;
        }
    }

    for i in 0..n {
        if !is_hash(lex.ident(i)) {
            continue;
        }
        let mut k = i;
        while k > 0 {
            k -= 1;
            let tok = &lex.toks[k];
            if tok.kind == TokKind::Ident {
                continue;
            }
            if tok.kind != TokKind::Punct {
                break;
            }
            match tok.text.chars().next() {
                Some('<') | Some('&') => continue,
                Some(':') => {
                    if k > 0 && lex.punct(k - 1) == Some(':') {
                        // `::` path separator — still inside the type.
                        k -= 1;
                        continue;
                    }
                    // Single `:` — the declaration boundary.
                    if k > 0 {
                        if let Some(name) = lex.ident(k - 1) {
                            names.insert(name.to_string());
                        }
                    }
                    break;
                }
                _ => break,
            }
        }
    }
    names
}

/// Token indices where a known hash container is iterated: either
/// `name.iter()`-style method calls or `for … in [&][mut] name`.
fn hash_iteration_sites(ctx: &Ctx<'_>) -> Vec<usize> {
    let lex = ctx.lex;
    let n = lex.toks.len();
    let mut out = Vec::new();
    for i in 0..n {
        let Some(name) = lex.ident(i) else { continue };
        if !ctx.hash_names.contains(name) {
            continue;
        }
        if lex.punct(i + 1) == Some('.') {
            if let Some(m) = lex.ident(i + 2) {
                if ITER_METHODS.contains(&m) && lex.punct(i + 3) == Some('(') {
                    out.push(i + 2);
                    continue;
                }
            }
            // Other method calls (get, insert, len, …) are order-safe.
            continue;
        }
        // `for pat in &mut name` — walk back over `&`/`mut` to `in`, and
        // require a `for` shortly before it so `if x in …` shapes (none in
        // Rust, but cheap insurance) don't match.
        let mut b = i;
        while b > 0 && (lex.punct(b - 1) == Some('&') || lex.ident(b - 1) == Some("mut")) {
            b -= 1;
        }
        if b > 0 && lex.ident(b - 1) == Some("in") {
            let start = (b - 1).saturating_sub(10);
            if (start..b - 1).any(|k| lex.ident(k) == Some("for")) {
                out.push(i);
            }
        }
    }
    out
}

/// Rule `hashmap-iter-order`: iterating a `HashMap`/`HashSet` yields a
/// nondeterministic order; anything order-sensitive (rendered reports,
/// merged vectors, accumulated floats) must use `BTreeMap`/sorted keys.
/// Applies to test code too — goldens built from hash iteration flake.
fn rule_hashmap_iter_order(ctx: &Ctx<'_>, out: &mut Vec<(&'static str, u32)>) {
    for site in hash_iteration_sites(ctx) {
        out.push(("hashmap-iter-order", ctx.lex.line(site)));
    }
}

/// Rule `wall-clock`: `Instant::now()` / `SystemTime::now()` outside test
/// code must go through the injectable `Clock` trait so watchdog and
/// deadline behaviour replays deterministically. Bench sources are exempt
/// (measuring wall time is their whole job).
fn rule_wall_clock(ctx: &Ctx<'_>, out: &mut Vec<(&'static str, u32)>) {
    if ctx.is_bench {
        return;
    }
    let lex = ctx.lex;
    for i in 0..lex.toks.len() {
        if ctx.in_test(i) {
            continue;
        }
        if lex.matches(i, &[I("Instant"), P(':'), P(':'), I("now")])
            || lex.matches(i, &[I("SystemTime"), P(':'), P(':'), I("now")])
        {
            out.push(("wall-clock", lex.line(i)));
        }
    }
}

/// Rule `unwrap-in-fault-path`: `.unwrap()` / `.expect()` in non-test
/// playstore/harness sources — code chaos tests deliberately push into
/// fault paths, where a panic tears down a worker instead of producing a
/// typed error. Provably-infallible cases carry an allow with a reason.
fn rule_unwrap_in_fault_path(ctx: &Ctx<'_>, out: &mut Vec<(&'static str, u32)>) {
    if !ctx.in_fault_path() {
        return;
    }
    let lex = ctx.lex;
    for i in 0..lex.toks.len() {
        if ctx.in_test(i) {
            continue;
        }
        if lex.punct(i) == Some('.')
            && matches!(lex.ident(i + 1), Some("unwrap") | Some("expect"))
            && lex.punct(i + 2) == Some('(')
        {
            out.push(("unwrap-in-fault-path", lex.line(i + 1)));
        }
    }
}

/// Rule `deprecated-api`: pre-builder crawler entry points that bypass
/// admission control. Kept as a rule (not just dead-code removal) so a
/// revert or copy-paste from an old branch fails the gate.
fn rule_deprecated_api(ctx: &Ctx<'_>, out: &mut Vec<(&'static str, u32)>) {
    let lex = ctx.lex;
    for i in 0..lex.toks.len() {
        if lex.matches(i, &[P('.'), I("with_retry"), P('(')])
            || lex.matches(i, &[P('.'), I("with_timeouts"), P('(')])
        {
            out.push(("deprecated-api", lex.line(i + 1)));
        }
        if lex.matches(i, &[I("Crawler"), P(':'), P(':'), I("connect"), P('(')]) {
            out.push(("deprecated-api", lex.line(i)));
        }
    }
}

/// Blocking `Read`/`Write` combinators: each parks the calling thread
/// until the peer produces/consumes bytes, which inside a readiness loop
/// stalls every connection behind one slow peer.
const REACTOR_BLOCKING_METHODS: &[&str] = &["read_exact", "read_to_end", "read_to_string"];

/// The blocking proto helpers (they loop on a blocking stream until a
/// full frame arrives); the reactor must use the incremental
/// `parse_request` instead, and the client lanes
/// `response_frame_complete`/`finish_response_frame`. `read_request` is
/// gone from `proto` but stays listed, so a blocking request reader
/// brought back into a loop file is still caught.
const REACTOR_BLOCKING_FNS: &[&str] = &[
    "read_request",
    "read_response",
    "read_response_resumable",
    "write_response",
];

/// Rule `blocking-call-in-reactor`: blocking calls inside the reactor
/// module — `thread::sleep`, blocking connects, whole-frame proto
/// helpers, and `read_exact`-style combinators. One blocked thread there
/// freezes every connection the loop owns; delays belong on the timer
/// wheel and I/O on the non-blocking `try_read`/`try_write` pair. The
/// single sanctioned blocking point — `Reactor::poll` with a timeout —
/// does not match any of these shapes.
fn rule_blocking_call_in_reactor(ctx: &Ctx<'_>, out: &mut Vec<(&'static str, u32)>) {
    if !ctx.in_reactor() {
        return;
    }
    let lex = ctx.lex;
    for i in 0..lex.toks.len() {
        if ctx.in_test(i) {
            continue;
        }
        if lex.matches(i, &[I("thread"), P(':'), P(':'), I("sleep")]) {
            out.push(("blocking-call-in-reactor", lex.line(i)));
        }
        if lex.matches(i, &[I("TcpStream"), P(':'), P(':')])
            && lex.ident(i + 3).is_some_and(|m| m.starts_with("connect"))
        {
            out.push(("blocking-call-in-reactor", lex.line(i)));
        }
        if lex.punct(i) == Some('.')
            && lex.ident(i + 1).is_some_and(|m| REACTOR_BLOCKING_METHODS.contains(&m))
            && lex.punct(i + 2) == Some('(')
        {
            out.push(("blocking-call-in-reactor", lex.line(i + 1)));
        }
        // Calls only — `fn read_request(` would be a definition.
        if lex.ident(i).is_some_and(|m| REACTOR_BLOCKING_FNS.contains(&m))
            && lex.punct(i + 1) == Some('(')
            && lex.ident(i.wrapping_sub(1)) != Some("fn")
        {
            out.push(("blocking-call-in-reactor", lex.line(i)));
        }
    }
}

/// Rules `lock-across-send` and `nested-lock`, emitted by one guard scan.
/// A guard is a `let g = ….lock()/.read()/.write()` binding whose
/// statement ends in nothing but `?`, `.unwrap(…)`, `.unwrap_or_else(…)`
/// or `.expect(…)`, so the shim's guards and std's poison-wrapped ones
/// count alike. It is live from the end of its statement until `drop(g)`
/// or until its scope closes; chains that extract a value
/// (`….lock().unwrap().clone()`) are not guards. While a guard is live:
///
/// * `lock-across-send` — a `.send(…)`. Holding a lock across a channel
///   send invites lock-order inversions with the receiver.
/// * `nested-lock` — another no-argument `.lock()`/`.read()`/`.write()`,
///   relocking the same lock included. Two threads taking two locks in
///   opposite orders deadlock; a thread relocking its own mutex deadlocks
///   alone.
///
/// The scan is lexical and sees one function body at a time: a guard held
/// across a call into a function that locks is not reported.
fn rule_lock_guards(ctx: &Ctx<'_>, out: &mut Vec<(&'static str, u32)>) {
    let lex = ctx.lex;
    let n = lex.toks.len();
    struct Guard {
        name: String,
        depth: i32,
        /// Token index of the binding statement's `;`.
        live_from: usize,
    }
    let mut depth = 0i32;
    let mut guards: Vec<Guard> = Vec::new();
    let mut i = 0usize;
    while i < n {
        match lex.punct(i) {
            Some('{') => depth += 1,
            Some('}') => {
                depth -= 1;
                guards.retain(|g| g.depth <= depth);
            }
            _ => {}
        }
        if lex.ident(i) == Some("let") && !ctx.in_test(i) {
            let mut j = i + 1;
            if lex.ident(j) == Some("mut") {
                j += 1;
            }
            if let Some(name) = lex.ident(j) {
                if let Some(end) = guard_acquisition(lex, j + 1).and_then(|k| guard_end(lex, k)) {
                    guards.push(Guard {
                        name: name.to_string(),
                        depth,
                        live_from: end,
                    });
                }
            }
        }
        if lex.ident(i) == Some("drop")
            && lex.punct(i + 1) == Some('(')
            && lex.punct(i + 3) == Some(')')
        {
            if let Some(name) = lex.ident(i + 2) {
                guards.retain(|g| g.name != name);
            }
        }
        if !ctx.in_test(i) && guards.iter().any(|g| g.live_from < i) {
            if lex.matches(i, &[P('.'), I("send"), P('(')]) {
                out.push(("lock-across-send", lex.line(i + 1)));
            }
            if is_lock_call(lex, i) {
                out.push(("nested-lock", lex.line(i + 1)));
            }
        }
        i += 1;
    }
}

/// Is token `k` the `.` of a no-argument `.lock()`/`.read()`/`.write()`?
fn is_lock_call(lex: &Lexed, k: usize) -> bool {
    lex.punct(k) == Some('.')
        && matches!(
            lex.ident(k + 1),
            Some("lock") | Some("read") | Some("write")
        )
        && lex.punct(k + 2) == Some('(')
        && lex.punct(k + 3) == Some(')')
}

/// Scan a `let` initialiser for a lock call ([`is_lock_call`]) before the
/// statement's `;`. Returns the token index just past the call's `()` on
/// a match.
fn guard_acquisition(lex: &Lexed, from: usize) -> Option<usize> {
    let n = lex.toks.len();
    let mut k = from;
    while k < n && k < from + 120 {
        // `;` ends the statement; `{`/`|` open a block or closure whose
        // inner locks have their own `let` bindings — the outer binding
        // is a value, not a guard.
        if matches!(lex.punct(k), Some(';') | Some('{') | Some('|')) {
            return None;
        }
        if is_lock_call(lex, k) {
            return Some(k + 4);
        }
        k += 1;
    }
    None
}

/// After the lock call, the binding is a guard only if the rest of the
/// statement is just `?`/`.unwrap(…)`/`.unwrap_or_else(…)`/`.expect(…)`
/// chained to the `;` — any other method call extracts a value and
/// releases the temporary. Returns the index of that `;`.
fn guard_end(lex: &Lexed, mut k: usize) -> Option<usize> {
    let n = lex.toks.len();
    while k < n {
        if lex.punct(k) == Some(';') {
            return Some(k);
        }
        if lex.punct(k) == Some('?') {
            k += 1;
            continue;
        }
        if lex.punct(k) == Some('.')
            && matches!(
                lex.ident(k + 1),
                Some("unwrap") | Some("unwrap_or_else") | Some("expect")
            )
            && lex.punct(k + 2) == Some('(')
        {
            // Skip to the matching `)` (expect carries a message,
            // unwrap_or_else a closure).
            let mut depth = 0i32;
            let mut m = k + 2;
            while m < n {
                match lex.punct(m) {
                    Some('(') => depth += 1,
                    Some(')') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                m += 1;
            }
            k = m + 1;
            continue;
        }
        return None;
    }
    None
}

/// Rule `seed-from-entropy`: RNGs must be seeded from configuration, not
/// OS entropy — `from_entropy`, `thread_rng`, `OsRng`, `rand::random` all
/// make a run unrepeatable. Applies to tests too; a test seeded from
/// entropy is a flake generator.
fn rule_seed_from_entropy(ctx: &Ctx<'_>, out: &mut Vec<(&'static str, u32)>) {
    let lex = ctx.lex;
    for i in 0..lex.toks.len() {
        if matches!(
            lex.ident(i),
            Some("from_entropy") | Some("thread_rng") | Some("OsRng")
        ) || lex.matches(i, &[I("rand"), P(':'), P(':'), I("random")])
        {
            out.push(("seed-from-entropy", lex.line(i)));
        }
    }
}

/// Rule `float-accum-order`: in the analysis crate, reducing a hash
/// iteration with `.sum()`/`.fold()`/`.product()` — float addition is not
/// associative, so the total depends on iteration order and the rendered
/// report stops being byte-stable.
fn rule_float_accum_order(ctx: &Ctx<'_>, out: &mut Vec<(&'static str, u32)>) {
    if !ctx.in_analysis() {
        return;
    }
    let lex = ctx.lex;
    for site in hash_iteration_sites(ctx) {
        let end = (site + 64).min(lex.toks.len());
        for j in site..end {
            if lex.punct(j) == Some('.')
                && matches!(
                    lex.ident(j + 1),
                    Some("sum") | Some("fold") | Some("product")
                )
            {
                out.push(("float-accum-order", lex.line(j + 1)));
                break;
            }
        }
    }
}

/// Rule `relaxed-ordering-in-report`: `Ordering::Relaxed` in non-test
/// core/analysis sources. Counter atomics there (cache hits/misses,
/// analysis stats) are rendered into the merged report; `Relaxed`
/// increments are individually atomic but invite torn read-modify-write
/// *patterns* (load-then-store) that undercount under contention, and
/// counters that drift make the "byte-identical at any worker count"
/// tests flake. Use `SeqCst` — these are cold paths — or carry an allow
/// with a reason for a genuinely report-invisible atomic.
fn rule_relaxed_ordering_in_report(ctx: &Ctx<'_>, out: &mut Vec<(&'static str, u32)>) {
    if !ctx.in_report_crate() {
        return;
    }
    let lex = ctx.lex;
    for i in 0..lex.toks.len() {
        if ctx.in_test(i) {
            continue;
        }
        if lex.matches(i, &[I("Ordering"), P(':'), P(':'), I("Relaxed")]) {
            out.push(("relaxed-ordering-in-report", lex.line(i)));
        }
    }
}

/// Rule `todo-unimplemented`: `todo!()` / `unimplemented!()` outside test
/// code — a chaos run that reaches one tears down a worker with a panic
/// instead of a typed error.
fn rule_todo_unimplemented(ctx: &Ctx<'_>, out: &mut Vec<(&'static str, u32)>) {
    let lex = ctx.lex;
    for i in 0..lex.toks.len() {
        if ctx.in_test(i) {
            continue;
        }
        if matches!(lex.ident(i), Some("todo") | Some("unimplemented"))
            && lex.punct(i + 1) == Some('!')
        {
            out.push(("todo-unimplemented", lex.line(i)));
        }
    }
}

/// Function-name markers for retry/backoff/cool-down/probation paths.
const RETRY_FN_MARKERS: &[&str] = &["retry", "backoff", "cooldown", "cool_down", "probation"];

/// Rule `literal-duration-in-retry`: a `Duration::from_*(<number>)`
/// literal inside a function whose name marks it as a retry, backoff or
/// cool-down path. Literal durations there bypass both the injectable
/// clock discipline and the policy structs (`RetryPolicy`,
/// `probation_cooldown_ms`) that make fault schedules reproducible and
/// tunable — a hard-coded 250 ms sleep in a backoff loop is exactly how
/// chaos-test wall time quietly explodes. Constants that genuinely are
/// protocol invariants carry an `allow` with the reason.
fn rule_literal_duration_in_retry(ctx: &Ctx<'_>, out: &mut Vec<(&'static str, u32)>) {
    let lex = ctx.lex;
    let mask = retry_fn_mask(lex);
    for (i, in_retry) in mask.iter().enumerate() {
        if ctx.in_test(i) || !in_retry {
            continue;
        }
        if lex.matches(i, &[I("Duration"), P(':'), P(':')])
            && lex.ident(i + 3).is_some_and(|m| m.starts_with("from_"))
            && lex.punct(i + 4) == Some('(')
            && lex
                .toks
                .get(i + 5)
                .is_some_and(|t| t.kind == TokKind::Num)
        {
            out.push(("literal-duration-in-retry", lex.line(i)));
        }
    }
}

/// Per-token flag: inside the brace body of a `fn` whose name contains a
/// [`RETRY_FN_MARKERS`] substring (case-insensitive).
fn retry_fn_mask(lex: &Lexed) -> Vec<bool> {
    let n = lex.toks.len();
    let mut mask = vec![false; n];
    let mut i = 0usize;
    while i < n {
        let named_retry = lex.ident(i) == Some("fn")
            && lex.ident(i + 1).is_some_and(|name| {
                let lower = name.to_ascii_lowercase();
                RETRY_FN_MARKERS.iter().any(|m| lower.contains(m))
            });
        if !named_retry {
            i += 1;
            continue;
        }
        // Skip the signature to the body's opening brace, then mark
        // through its matching close.
        let mut j = i + 2;
        while j < n && lex.punct(j) != Some('{') {
            // A semicolon first means a trait method declaration: no body.
            if lex.punct(j) == Some(';') {
                break;
            }
            j += 1;
        }
        let mut depth = 0i32;
        while j < n && lex.punct(j) != Some(';') {
            match lex.punct(j) {
                Some('{') => depth += 1,
                Some('}') => {
                    depth -= 1;
                    mask[j] = true;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            mask[j] = true;
            j += 1;
        }
        i = j.max(i + 1);
    }
    mask
}
