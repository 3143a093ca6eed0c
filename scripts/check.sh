#!/usr/bin/env bash
# Single local CI gate: lint (if ruff is available) + the test suite +
# the subsystem gates below.  Crash/resume (kill -> resume bit-identical,
# a corrupt entry recomputed) is tier-1: tests/runtime/test_checkpoint_resume.py
# and tests/workflows/test_checkpoint_resume_af.py.
#
#   scripts/check.sh             run every gate below
#   scripts/check.sh lint        lint only
#   scripts/check.sh test        tests only
#   scripts/check.sh inventory   every src/repro module must have a test file
#   scripts/check.sh reach       call-reach audit: every src/repro def/class the study's run set (CLI subcommands, examples, pytest benchmarks/, bench smoke) never enters must be kept in DESIGN.md §20 (~2 min)
#   scripts/check.sh stress      randomized runtime matrix (stress profile) + engine regression tests
#   scripts/check.sh backend     import guards (no networkx and no coordinator-only module — engine, config, checkpoint, observability, otlp, dot, flightrec — in a fresh import of the runtime packages or in a pool worker), then tier-1 under REPRO_BACKEND=processes + the matrix's processes replays + bench smoke of blocks_procs
#   scripts/check.sh obs         observability smoke (stats vs trace, trace exports, flight-recorder dump) + tracing/lifecycle-view tests
#   scripts/check.sh dataplane   store tests + dispatch tests (backends, threads-vs-processes differential) + the matrix's store replays + bench smoke of blocks_procs
#   scripts/check.sh service     queue-service tests (kill -9, lease-expiry and traced-recovery chaos included)
#   scripts/check.sh stream      streaming + all ECG tests (detector and filter oracles) + stream scenarios incl. keyed count windows vs their offline replay (stress profile) + serving differential + bench smoke of stream_serve
#   scripts/check.sh ml          estimator + ds-array + AF-workflow tests (kernel oracles, frozen benchmark reference) + SMO oracle (stress profile) + E14 PCA checks + Table I ordering (rewrites its results file) + bench smoke of af_classical
#   scripts/check.sh bench       bench/run.py --smoke over all seven workloads (oracles + exit hygiene, < 30 s)
set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:-all}"

run_lint() {
    if command -v ruff >/dev/null 2>&1; then
        echo "== ruff check =="
        ruff check src tests scripts
    else
        echo "== ruff not installed; skipping lint (config lives in pyproject.toml) =="
    fi
}

run_tests() {
    echo "== pytest =="
    PYTHONPATH=src python -m pytest -x -q
}

run_inventory() {
    echo "== test inventory (every module needs a test file) =="
    python scripts/test_inventory.py
}

# What the study reaches (DESIGN.md §20): tests/support/reach.py runs
# every CLI subcommand, every example, `pytest benchmarks/` and the
# benchmark's smoke under a call recorder, puts benchmarks/results/ back
# as it found it, and fails on a definition of src/repro none of them
# entered that its KEEP table (or, in runtime/, service/ and
# streaming/graph.py, a check by hand) does not account for.
run_reach() {
    echo "== call-reach audit (DESIGN.md §20) =="
    python tests/support/reach.py
}

# The randomized runtime matrix (tests/runtime/test_stress.py): a
# hypothesis state machine over executors x store x observability x
# trace collection, every step under the hang watchdog, every resolved
# future against a reference, lifecycle rows against stats() and each
# traced record's t_ready against its attempt's stamp, and a leak audit
# (threads, /dev/shm segments, store pins) after every clean drain.
# The stress profile draws fresh examples, many more than tier-1's
# derandomized matrix profile.  Extra pytest arguments select tests
# (-k ...): only `stress` runs the whole file, the other modes run their
# named replays.
run_matrix() {
    PYTHONPATH=src python -m pytest --hypothesis-profile=stress -x -q \
        tests/runtime/test_stress.py "$@"
}

run_stress() {
    # Fails on hangs, wrong values, state-machine violations, lifecycle
    # rows disagreeing with stats() and structural leaks.
    echo "== randomized runtime matrix (stress profile) =="
    run_matrix
    # Races the matrix only hits now and then, pinned: barrier() on a
    # killed or aborted runtime, no READY after an abort's cancel,
    # record-before-publish, payload release, futures only polled or
    # result()-waited on a pool.
    echo "== engine regression tests =="
    PYTHONPATH=src python -m pytest tests/runtime/test_engine_regressions.py -x -q
}

bench_smoke() {
    # The benchmark's own smoke ("$@" = bench/run.py arguments; none =
    # all seven workloads): its oracle and exit-hygiene checks must pass
    # and standard error must carry no traceback.
    local err
    err="$(mktemp)"
    if ! python3 bench/run.py --smoke "$@" 2>"$err" || grep -q Traceback "$err"; then
        cat "$err" >&2
        rm -f "$err"
        echo "bench smoke ($*) failed or printed a traceback on stderr" >&2
        return 1
    fi
    rm -f "$err"
}

run_obs() {
    # Real run with tracing on: stats() reconciles with the trace, the
    # chrome timeline
    # rendered from the trace's OTLP document validates with one flow
    # arrow per recorded dependency edge, the critical path is bounded,
    # the trace CLI works on the saved document, and a killed run's
    # flight-recorder dump agrees with stats() and renders via `repro
    # logs`.  Then the tracing stack: task table -> TaskRecord/Trace,
    # TaskGraph, the lifecycle and timeline views, trace-context
    # propagation, the flight recorder, OTLP export, the document's
    # round trip back to a Trace (and `repro trace` on it), the one
    # chrome renderer, and the service span log.  What telemetry costs
    # is obs.* in bench/ (`check.sh bench`).
    echo "== observability smoke (stats vs trace + trace exports + flight recorder) =="
    PYTHONPATH=src python scripts/obs_smoke.py
    echo "== tracing / run record / flight-recorder tests =="
    PYTHONPATH=src python -m pytest -x -q \
        tests/runtime/test_tracing.py \
        tests/runtime/test_tracectx.py tests/runtime/test_run_record.py \
        tests/runtime/test_flightrec.py tests/runtime/test_otlp.py \
        tests/service/test_spanlog.py tests/runtime/test_observability.py \
        tests/cluster/test_chrometrace.py
}

run_backend() {
    # The same gates again with task bodies dispatched to worker
    # processes: the differential guarantee is that nothing observable
    # changes.  REPRO_BACKEND is read by RuntimeConfig.from_env, so the
    # whole suite switches backend without touching a line of test code.
    # First, in seconds, what a worker costs to start: the import guards
    # fail when a fresh `import repro.runtime` (or `.backends`,
    # `repro.dsarray`, `repro.ml`), or a pool worker that ran ds-array
    # and KMeans tasks, loads networkx or a coordinator-only module
    # (engine, config, checkpoint, observability, otlp, dot,
    # flightrec), or when a worker loads estimators it did not run.
    echo "== import guards (runtime, subpackages, pool worker) =="
    PYTHONPATH=src python -m pytest -x -q tests/test_imports.py
    echo "== pytest under REPRO_BACKEND=processes =="
    REPRO_BACKEND=processes PYTHONPATH=src python -m pytest -x -q
    echo "== pinned replays under the processes backend =="
    run_matrix -k "processes or backends"
    # Workers are forked from a fork server that shutdown_workers() stops
    # with the pool: the benchmark's exit hygiene (live children,
    # processes outliving the run, temp files left in TMPDIR, a silent
    # standard error) on the workload that starts them.
    echo "== bench smoke: blocks_procs (exit hygiene, silent stderr) =="
    bench_smoke --workload blocks_procs
}

run_dataplane() {
    # The zero-copy data plane: store unit tests (incl. the >= 90%
    # reduction in pickled pipe bytes, bit-identically, on a blocked
    # matmul) and the matrix's store replays: bit-exact blocks through
    # the store on both backends, byte accounting reconciled on a clean
    # processes drain, no pins or /dev/shm segments left.
    echo "== object store tests =="
    PYTHONPATH=src python -m pytest tests/runtime/test_store.py -x -q
    # Where a body runs: in the scheduling thread or on the idle pool
    # worker (framing, pool lifecycle, fallbacks, crashes), and the same
    # workloads bit-identical on both.
    echo "== dispatch tests (backends + differential) =="
    PYTHONPATH=src python -m pytest tests/runtime/test_backends.py \
        tests/runtime/test_backend_differential.py -x -q
    echo "== pinned store replays (both backends) =="
    run_matrix -k store
    # The benchmark's own smoke of the processes workload: its oracle
    # and exit-hygiene checks (segments, temp files, stragglers), and a
    # silent standard error, which is where the resource tracker used to
    # complain about the store's segments.
    echo "== bench smoke: blocks_procs (oracle + hygiene, silent stderr) =="
    bench_smoke --workload blocks_procs
}

run_stream() {
    # The hybrid streaming layer: channel/operator/graph semantics and
    # the runtime lifecycle edges (shutdown-drain, abort interrupts, a
    # stage that only polls its task's future), the streaming scenarios
    # of tests/streaming/test_stress_stream.py (backpressure, RETRY
    # mid-stream, abort, shutdown mid-flight; keyed count windows over
    # drawn key interleavings, window lengths and feed lengths against
    # run_windowed's offline replay, and EOS versus poison with partial
    # windows open; hang watchdog + zero-leak audits) and the streamed
    # vs batch AF-serving bit-identity differential.  The serving
    # stages spend their time in the repro.ecg kernels, so all of
    # tests/ecg runs here too: the tests that pin those kernels byte for
    # byte (band-pass design, the zero-phase filter against scipy's
    # filtfilt, both R-peak detectors against the loops they replaced,
    # windowed beat synthesis) and every other caller of the detectors
    # (HRV, signal quality, the extension workflows).  The benchmark's
    # own smoke of stream_serve repeats the streamed-vs-batch-twin
    # bit-equality through its oracle.  Throughput and latency are that
    # workload at full length
    # (`python3 bench/run.py --workload stream_serve`).
    echo "== streaming tests (incl. serving differential) + ECG tests (kernel oracles) =="
    PYTHONPATH=src python -m pytest tests/streaming \
        tests/runtime/test_stream_shutdown.py tests/ecg -x -q
    echo "== streaming scenarios (stress profile) =="
    PYTHONPATH=src python -m pytest --hypothesis-profile=stress -x -q \
        tests/streaming/test_stress_stream.py
    echo "== bench smoke: stream_serve (streamed vs batch twin through the oracle, silent stderr) =="
    bench_smoke --workload stream_serve
}

run_ml() {
    # The classical folds' task bodies: the estimator, ds-array and
    # AF-workflow tests -- among them the byte-equality oracles that pin
    # the tree split search, the incremental SMO solver and the stripe
    # gather to the loops they replaced, and the benchmark's frozen
    # af_classical outputs -- then the SMO oracle again under the stress
    # profile (its property over random problems draws 300 fresh
    # examples instead of tier-1's 100), then PCA on the AF features
    # (E14: 95 % of the variance kept, the same graph whatever follows),
    # then Table I (the paper's ordering: KNN worst, CSVM between, RF
    # and CNN strong -- so every cascade change is gated on it; ~15 s,
    # and it rewrites benchmarks/results/table1_accuracy.txt, byte for
    # byte the committed file when nothing moved), then the benchmark's
    # own smoke of af_classical through its oracle.
    # Their speed is that workload at full length
    # (`python3 bench/run.py --workload af_classical`).
    echo "== ml + dsarray + workflow tests (kernel oracles, frozen AF reference) =="
    PYTHONPATH=src python -m pytest tests/ml tests/dsarray tests/workflows -x -q
    echo "== SMO oracle (stress profile) =="
    PYTHONPATH=src python -m pytest --hypothesis-profile=stress -x -q tests/ml/test_smo_svc.py
    echo "== PCA on the AF features: E14 variance kept, fixed prefix =="
    PYTHONPATH=src python -m pytest -x -q benchmarks/test_pca_task_counts.py
    echo "== Table I: the paper's accuracy ordering (KNN < CSVM < RF, CNN) =="
    PYTHONPATH=src python -m pytest -x -q benchmarks/test_table1_accuracy.py
    echo "== bench smoke: af_classical (oracle, silent stderr) =="
    bench_smoke --workload af_classical
}

run_service() {
    # The durable queue service: unit/lifecycle tests and the chaos
    # scenarios of tests/service/test_chaos.py -- kill -9 crash recovery,
    # lease expiry and a trace kept across a kill (zero lost tasks, zero
    # duplicate side effects).  Queue-op latency is service.* in the
    # service_jobs workload of bench/ (`check.sh bench`).
    echo "== queue service tests (chaos scenarios included) =="
    PYTHONPATH=src python -m pytest tests/service -x -q
}

run_bench() {
    # Every subsystem's benchmark workload at smoke size: oracles, exit
    # hygiene and a silent standard error (bench/README.md).
    echo "== bench smoke: all seven workloads =="
    bench_smoke
}

case "$mode" in
    lint)       run_lint ;;
    test)       run_tests ;;
    inventory)  run_inventory ;;
    reach)      run_reach ;;
    stress)     run_stress ;;
    backend)    run_backend ;;
    obs)        run_obs ;;
    dataplane)  run_dataplane ;;
    service)    run_service ;;
    stream)     run_stream ;;
    ml)         run_ml ;;
    bench)      run_bench ;;
    all)        run_lint; run_tests; run_inventory; run_reach; run_stress; run_obs; run_backend; run_dataplane; run_service; run_stream; run_ml; run_bench ;;
    *)          echo "usage: scripts/check.sh [lint|test|inventory|reach|stress|obs|backend|dataplane|service|stream|ml|bench]" >&2; exit 2 ;;
esac
