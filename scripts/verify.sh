#!/usr/bin/env sh
# Tier-1 verification: build + full test suite (see ROADMAP.md; the
# root manifest's default-members make both cover every workspace
# crate) plus the perfbench lockfile and build gates, the concurrency suite
# re-run single-threaded, the pinned device-campaign digest, the pinned
# pooled-crawl-equals-blocking-walk drop-out test, the pinned
# graph-codec mutation sweep, a
# double-repro persistent-cache determinism check, the crash-recovery
# matrix (its uninterrupted run must match the pinned tiny report
# byte-for-byte; SIGKILL at each pipeline crash point, in both
# snapshots' pipelines, then --resume must reproduce stdout
# byte-for-byte), a cache
# compaction-under-pressure check (bounded, byte-stable, and the second
# run still hits the cache), the query-serving determinism gate
# (querybench streams must be byte-identical at every connection
# count), the reactor gate (readiness-replay determinism plus sim/epoll
# digest equality up to 256 connections), the client-reactor gate
# (lockstep multi-connection replay pinned by name, sim crawls
# byte-stable across runs, epoll and sim transports rendering one
# report), the gaugelint gate, and workspace clippy.
#
# Works without network access: if the registry is unreachable, cargo is
# retried in --offline mode (using whatever is already vendored/cached).
# Exits nonzero when neither mode can build or any test fails.
set -u
cd "$(dirname "$0")/.."

run_cargo() {
    mode="$1"; shift
    # Progress goes to stderr so gates that capture a run's stdout
    # (the byte-compare checks below) see pure program output.
    echo "==> cargo $* ($mode)" >&2
    if [ "$mode" = "offline" ]; then
        cargo --offline "$@"
    else
        cargo "$@"
    fi
}

# Run one test by its exact name (after the cargo test arguments that
# select its binary) and fail unless the run reports exactly `1 passed`.
# A filter that matches nothing prints `0 passed` and exits 0, with or
# without --exact, so a renamed test would otherwise skip its gate.
run_pinned() {
    mode="$1"; pinned="$2"; shift 2
    pinned_out="target/verify-pinned.$$"
    if ! run_cargo "$mode" test -q "$@" -- --exact "$pinned" --test-threads=1 \
        >"$pinned_out"; then
        cat "$pinned_out"
        return 1
    fi
    if ! grep -q "test result: ok\. 1 passed;" "$pinned_out"; then
        echo "verify: pinned test $pinned did not run exactly once" >&2
        cat "$pinned_out" >&2
        return 1
    fi
    rm -f "$pinned_out"
}

verify() {
    mode="$1"
    run_cargo "$mode" build --release || return 1
    # perfbench is a workspace of its own, and BENCHMARK.json runs it
    # without --locked, so a manifest edit that changes its dependency
    # closure would silently rewrite perfbench/Cargo.lock on the next
    # benchmark run. Resolving it --locked here fails instead and
    # writes nothing.
    run_cargo "$mode" tree --locked --manifest-path perfbench/Cargo.toml \
        >/dev/null || return 1
    # perfbench calls the library's public items (the proto framing
    # helpers among them), so build it against the tree and run its
    # tests: a signature it uses that changed fails here, not first at
    # benchmark time. Its own target dir keeps perfbench/ untouched.
    CARGO_TARGET_DIR=target/perfbench run_cargo "$mode" test -q --locked \
        --manifest-path perfbench/Cargo.toml || return 1
    run_cargo "$mode" test -q || return 1
    # The concurrency suite exercises the sharded crawl pool and the
    # analysis pool's render determinism; re-run it with the test harness
    # single-threaded so pool determinism is also proven without
    # inter-test parallelism masking (or causing) races.
    run_cargo "$mode" test -q --test concurrency -- --test-threads=1 || return 1
    # And pin the analysis-pool determinism test by name so a filtered-out
    # rename fails loudly instead of silently skipping the gate.
    run_pinned "$mode" analysis_worker_count_never_changes_the_report \
        --test concurrency || return 1
    # A pooled crawl is the blocking walk: with permanent APK, metadata
    # and listing faults, the pool at 1, 4 and 8 workers lands crawl_all's
    # apps, drop-out ledger (error text included), requests, retries and
    # reconnects. Pinned by name; the package is named because
    # gaugenn-core has a failure_injection target too.
    run_pinned "$mode" permanent_failures_surface_as_staged_dropouts \
        -p gaugenn --test failure_injection || return 1
    # The device campaign digest: every (device, job) result of the
    # Small pool's single-file TFLite models on Q845 and Q888, pinned by
    # name so the latency/power/thermal figures cannot move unnoticed.
    run_pinned "$mode" campaign_results_are_pinned \
        --test harness_integration || return 1
    # The graph-codec mutation sweep: every truncation, a fixed seed and
    # budget of bit flips and every inflated length varint of one model
    # per codec must decode the same in place as owned, without a panic,
    # and trace the same at batch 1-8. Pinned by name.
    run_pinned "$mode" in_place_and_owned_decodes_agree_under_mutation \
        -p gaugenn-modelfmt --test in_place_decode || return 1
    # Persistent-cache determinism: three back-to-back repro runs against
    # a fresh cache directory must emit byte-identical stdout, and the
    # second must actually attach to the first's persisted analyses. The
    # third bounds the uncapped log: each warm run appends hit records,
    # and opening rewrites them away once they outnumber the entries, so
    # the log after the third run is no larger than after the second.
    cache_dir="target/verify-cache.$$"
    rm -rf "$cache_dir"
    GAUGENN_CACHE_DIR="$cache_dir" run_cargo "$mode" run --release -q \
        -p gaugenn-bench --bin repro -- --scale tiny --seed 1402 --workers 2 --analysis-workers 2 \
        >"$cache_dir.out1" 2>"$cache_dir.err1" || return 1
    GAUGENN_CACHE_DIR="$cache_dir" run_cargo "$mode" run --release -q \
        -p gaugenn-bench --bin repro -- --scale tiny --seed 1402 --workers 2 --analysis-workers 2 \
        >"$cache_dir.out2" 2>"$cache_dir.err2" || return 1
    if ! cmp -s "$cache_dir.out1" "$cache_dir.out2"; then
        echo "verify: repro stdout differs between cold and warm cache runs" >&2
        diff "$cache_dir.out1" "$cache_dir.out2" | head -20 >&2
        return 1
    fi
    if ! grep -q "persistent cache: [1-9][0-9]* hits" "$cache_dir.err2"; then
        echo "verify: warm repro run reported no persistent cache hits" >&2
        grep "persistent cache:" "$cache_dir.err2" >&2
        return 1
    fi
    # On the warm run every unique of both snapshots loads from disk and
    # nothing is stored again: the content table consults the store
    # before it computes.
    warm_lines=$(grep -c "^  analysis: .*/ 0 stored (100\.0% of uniques warm)$" "$cache_dir.err2")
    if [ "$warm_lines" != "2" ]; then
        echo "verify: warm repro run did not load every unique from the persistent cache" >&2
        grep "analysis:" "$cache_dir.err2" >&2
        return 1
    fi
    log_after_2=$(wc -c <"$cache_dir/cache.gnjl") || return 1
    GAUGENN_CACHE_DIR="$cache_dir" run_cargo "$mode" run --release -q \
        -p gaugenn-bench --bin repro -- --scale tiny --seed 1402 --workers 2 --analysis-workers 2 \
        >"$cache_dir.out3" 2>/dev/null || return 1
    if ! cmp -s "$cache_dir.out1" "$cache_dir.out3"; then
        echo "verify: repro stdout differs on the third cache run" >&2
        diff "$cache_dir.out1" "$cache_dir.out3" | head -20 >&2
        return 1
    fi
    log_after_3=$(wc -c <"$cache_dir/cache.gnjl") || return 1
    if [ "$log_after_3" -gt "$log_after_2" ]; then
        echo "verify: uncapped cache log grew from $log_after_2 to $log_after_3 bytes on a warm run" >&2
        return 1
    fi
    rm -rf "$cache_dir" "$cache_dir.out1" "$cache_dir.out2" "$cache_dir.out3" \
        "$cache_dir.err1" "$cache_dir.err2"
    # Crash-fault injection (DESIGN.md §12): the child-process matrix
    # that really SIGKILLs a run at each registered crash point, pinned
    # by name so a rename cannot silently skip the gate.
    run_pinned "$mode" sigkill_matrix_resume_is_byte_identical \
        -p gaugenn-core --test failure_injection || return 1
    # Repro-level crash matrix: kill the real repro binary at each
    # registered pipeline point, then --resume must reproduce the
    # uninterrupted run's stdout byte-for-byte (exit 137 = SIGKILL is the
    # expected "failure" of the armed run). The Feb 2020 pipeline extracts
    # 46 apps, analyses 8 instances and saves 5 cache entries, so the
    # first four points kill inside it and the last four inside the Apr
    # 2021 pipeline, whose `crawl:` line goes to stdout.
    crash_dir="target/verify-crash.$$"
    rm -rf "$crash_dir"
    mkdir -p "$crash_dir"
    GAUGENN_JOURNAL_DIR="$crash_dir/journal" GAUGENN_CACHE_DIR="$crash_dir/cache" \
        run_cargo "$mode" run --release -q -p gaugenn-bench --bin repro \
        -- --scale tiny --seed 1402 --workers 2 --analysis-workers 2 >"$crash_dir/baseline.out" 2>/dev/null || return 1
    # The uninterrupted run is also the pinned tiny report: stdout is a
    # pure function of (scale, snapshot, seed), so any byte that moves
    # is a change to the paper tables, not noise.
    if ! cmp -s results/repro_tiny_1402.txt "$crash_dir/baseline.out"; then
        echo "verify: tiny repro stdout differs from results/repro_tiny_1402.txt" >&2
        diff results/repro_tiny_1402.txt "$crash_dir/baseline.out" | head -40 >&2
        return 1
    fi
    for point in post-crawl:1 app-extract:3 model-analysis:2 cache-append:2 \
        post-crawl:2 app-extract:60 model-analysis:16 cache-append:7; do
        rm -rf "$crash_dir/journal" "$crash_dir/cache"
        GAUGENN_CRASH="$point" \
            GAUGENN_JOURNAL_DIR="$crash_dir/journal" GAUGENN_CACHE_DIR="$crash_dir/cache" \
            run_cargo "$mode" run --release -q -p gaugenn-bench --bin repro \
            -- --scale tiny --seed 1402 --workers 2 --analysis-workers 2 >/dev/null 2>&1
        status=$?
        if [ "$status" -eq 0 ]; then
            echo "verify: armed crash point $point did not kill repro" >&2
            return 1
        fi
        GAUGENN_JOURNAL_DIR="$crash_dir/journal" GAUGENN_CACHE_DIR="$crash_dir/cache" \
            run_cargo "$mode" run --release -q -p gaugenn-bench --bin repro \
            -- --scale tiny --seed 1402 --workers 2 --analysis-workers 2 --resume >"$crash_dir/resumed.out" 2>/dev/null || return 1
        if ! cmp -s "$crash_dir/baseline.out" "$crash_dir/resumed.out"; then
            echo "verify: resumed repro stdout diverged after $point kill" >&2
            diff "$crash_dir/baseline.out" "$crash_dir/resumed.out" | head -20 >&2
            return 1
        fi
    done
    # Compaction under pressure: a small GAUGENN_CACHE_MAX_BYTES budget
    # must bound the cache directory while repeat runs stay byte-stable,
    # and the second run must still hit what compaction kept (a
    # compactor that evicts everything would pass the size check alone).
    # Only the second run is checked: the first run's Apr 2021 hits
    # depend on worker order.
    rm -rf "$crash_dir/cache"
    GAUGENN_CACHE_DIR="$crash_dir/cache" GAUGENN_CACHE_MAX_BYTES=16384 \
        run_cargo "$mode" run --release -q -p gaugenn-bench --bin repro \
        -- --scale tiny --seed 1402 --workers 2 --analysis-workers 2 >"$crash_dir/press1.out" 2>/dev/null || return 1
    GAUGENN_CACHE_DIR="$crash_dir/cache" GAUGENN_CACHE_MAX_BYTES=16384 \
        run_cargo "$mode" run --release -q -p gaugenn-bench --bin repro \
        -- --scale tiny --seed 1402 --workers 2 --analysis-workers 2 >"$crash_dir/press2.out" 2>"$crash_dir/press2.err" || return 1
    if ! cmp -s "$crash_dir/press1.out" "$crash_dir/press2.out"; then
        echo "verify: repro stdout differs under cache pressure" >&2
        return 1
    fi
    if ! grep -q "persistent cache: [1-9][0-9]* hits" "$crash_dir/press2.err"; then
        echo "verify: second repro run under cache pressure reported no persistent cache hits" >&2
        grep "persistent cache:" "$crash_dir/press2.err" >&2
        return 1
    fi
    # Sum regular files (the cache log): the budget governs cache
    # payload, not filesystem directory-inode overhead.
    cache_bytes=$(find "$crash_dir/cache" -type f -exec wc -c {} + 2>/dev/null \
        | awk 'END { print $1 }')
    if [ -n "$cache_bytes" ] && [ "$cache_bytes" -gt 16384 ]; then
        echo "verify: cache dir $cache_bytes bytes exceeds GAUGENN_CACHE_MAX_BYTES=16384" >&2
        return 1
    fi
    rm -rf "$crash_dir"
    # Query-serving gate (DESIGN.md §13): querybench replays one seeded
    # query stream at 1 and 8 connections (and under chaos) and asserts
    # internally that every response stream is byte-identical; the digest
    # lines on stderr are re-checked here so a silenced assert cannot
    # slip through — every run must print the same digest.
    query_out="target/verify-query.$$"
    run_cargo "$mode" run --release -q -p gaugenn-bench --bin querybench \
        -- --scale tiny --seed 1402 --workers 8 \
        >"$query_out.out" 2>"$query_out.err" || return 1
    if ! grep -q "byte-identical" "$query_out.out"; then
        echo "verify: querybench did not report byte-identical streams" >&2
        return 1
    fi
    distinct_digests=$(grep -o 'digest [0-9a-f]*' "$query_out.err" \
        | sort -u | awk 'END { print NR }')
    if [ "$distinct_digests" != "1" ]; then
        echo "verify: querybench digests diverged across connection counts" >&2
        grep 'digest' "$query_out.err" >&2
        return 1
    fi
    rm -f "$query_out.out" "$query_out.err"
    # Reactor gate (DESIGN.md §14): the readiness-replay determinism and
    # cross-loop equivalence suite, with the replay test pinned by name
    # so a rename cannot silently skip it.
    run_cargo "$mode" test -q --test reactor || return 1
    run_pinned "$mode" same_seed_replays_the_same_event_order_and_bytes \
        --test reactor || return 1
    # Client-reactor gate (DESIGN.md §16): the lockstep multi-connection
    # crawls whose client+server event digests must replay bit-for-bit
    # from the seeds, pinned by name.
    run_pinned "$mode" one_poll_loop_holds_256_lanes_in_flight_and_replays \
        --test reactor || return 1
    run_pinned "$mode" chaos_trio_through_the_nonblocking_client_recovers_and_replays \
        --test reactor || return 1
    # The full pipeline over the non-blocking client: a sim-reactor
    # multi-connection crawl run twice must print byte-identical tables
    # (the free-running readiness schedule may differ — stdout must not),
    # and the epoll run must render the same PipelineReport.
    pool_out="target/verify-pool.$$"
    run_cargo "$mode" run --release -q -p gaugenn-bench --bin repro \
        -- --scale tiny --seed 1402 --workers 2 --reactor sim --connections 64 \
        >"$pool_out.sim1.out" 2>"$pool_out.sim1.err" || return 1
    run_cargo "$mode" run --release -q -p gaugenn-bench --bin repro \
        -- --scale tiny --seed 1402 --workers 2 --reactor sim --connections 64 \
        >"$pool_out.sim2.out" 2>"$pool_out.sim2.err" || return 1
    if ! cmp -s "$pool_out.sim1.out" "$pool_out.sim2.out"; then
        echo "verify: sim-reactor multi-connection crawl stdout differs between runs" >&2
        diff "$pool_out.sim1.out" "$pool_out.sim2.out" | head -20 >&2
        return 1
    fi
    for side in sim1 sim2; do
        if ! grep -q "reactor digest" "$pool_out.$side.err"; then
            echo "verify: $side repro run printed no reactor schedule digest" >&2
            return 1
        fi
    done
    run_cargo "$mode" run --release -q -p gaugenn-bench --bin repro \
        -- --scale tiny --seed 1402 --workers 2 --reactor epoll --connections 64 \
        >"$pool_out.epoll.out" 2>/dev/null || return 1
    if ! cmp -s "$pool_out.sim1.out" "$pool_out.epoll.out"; then
        echo "verify: sim and epoll transports rendered different reports" >&2
        diff "$pool_out.sim1.out" "$pool_out.epoll.out" | head -20 >&2
        return 1
    fi
    rm -f "$pool_out.sim1.out" "$pool_out.sim1.err" \
        "$pool_out.sim2.out" "$pool_out.sim2.err" \
        "$pool_out.epoll.out"
    # The query gate again under the deterministic sim reactor and under
    # a forced epoll sweep to 256 connections. Each run asserts
    # byte-identical streams internally (including 256-conn == 1-conn);
    # the digests are re-checked across BOTH runs here — response bytes
    # are a pure function of (index, stream), never of the serving loop
    # or the connection count, so the sim and epoll digests must agree.
    net_out="target/verify-net.$$"
    run_cargo "$mode" run --release -q -p gaugenn-bench \
        --bin querybench -- --scale tiny --seed 1402 --workers 256 --reactor sim \
        >"$net_out.sim.out" 2>"$net_out.sim.err" || return 1
    run_cargo "$mode" run --release -q -p gaugenn-bench \
        --bin querybench -- --scale tiny --seed 1402 --workers 256 --reactor epoll \
        >"$net_out.epoll.out" 2>"$net_out.epoll.err" || return 1
    for side in sim epoll; do
        if ! grep -q "byte-identical" "$net_out.$side.out"; then
            echo "verify: $side querybench did not report byte-identical streams" >&2
            return 1
        fi
    done
    net_digests=$(cat "$net_out.sim.err" "$net_out.epoll.err" \
        | grep -o 'digest [0-9a-f]*' | sort -u | awk 'END { print NR }')
    if [ "$net_digests" != "1" ]; then
        echo "verify: response digests diverged across reactors or connection counts" >&2
        grep 'digest' "$net_out.sim.err" "$net_out.epoll.err" >&2
        return 1
    fi
    rm -f "$net_out.sim.out" "$net_out.sim.err" \
        "$net_out.epoll.out" "$net_out.epoll.err"
    # gaugelint gate (DESIGN.md §10, §15): with its fixture suites
    # (lexical rules, workspace semantics, CLI acceptance) already run
    # by the full test suite above, the whole-workspace semantic pass
    # must come back clean against the committed baseline — twice, with
    # the findings JSON byte-identical across runs (the lint's own
    # determinism contract).
    lint_out="target/verify-lint.$$"
    run_cargo "$mode" run -q -p lint -- --format json \
        --baseline results/lint_baseline.json crates tests \
        >"$lint_out.1.json" || return 1
    run_cargo "$mode" run -q -p lint -- --format json \
        --baseline results/lint_baseline.json crates tests \
        >"$lint_out.2.json" || return 1
    if ! cmp -s "$lint_out.1.json" "$lint_out.2.json"; then
        echo "verify: gaugelint findings JSON differs between identical runs" >&2
        diff "$lint_out.1.json" "$lint_out.2.json" | head -20 >&2
        return 1
    fi
    rm -f "$lint_out.1.json" "$lint_out.2.json"
    # Workspace-wide clippy gate (kept after the repo went warning-clean).
    if run_cargo "$mode" clippy --version >/dev/null 2>&1; then
        run_cargo "$mode" clippy --workspace --all-targets -- -D warnings \
            || return 1
    else
        echo "verify: clippy unavailable in $mode mode; skipping lint gate"
    fi
}

if verify online; then
    echo "verify: OK (online)"
    exit 0
fi
echo "verify: online build failed (no network / registry unreachable?); retrying offline"
if verify offline; then
    echo "verify: OK (offline)"
    exit 0
fi
echo "verify: FAILED in both online and offline modes" >&2
exit 1
