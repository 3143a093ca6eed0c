"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``table1 [--preset tiny|small|paper]`` — run the four-model comparison and
  print a Table-I-style report.
* ``scaling [--algorithm csvm|knn|rf] [--nodes N ...]`` — record a
  training trace locally and replay it on simulated MareNostrum IV
  nodes (the Fig. 11 mechanism).
* ``graphs`` — export the DOT execution graphs of the paper's figures.
* ``faults`` — demonstrate the failure-management subsystem: transient
  task failures recovered by runtime retries, then a simulated node
  failure with its lost-work accounting.
* ``checkpoint inspect|verify|prune --dir DIR`` — inspect, integrity-
  check, or garbage-collect a checkpoint store written by a
  ``Runtime(config=RuntimeConfig(checkpoint_dir=...))`` run (or by the
  epoch/round checkpoints of the higher layers).
* ``serve-stream`` — run the online AF inference serving demo: a
  rate-controlled synthetic-ECG source through the windowed streaming
  pipeline (:mod:`repro.streaming`) with micro-batched CNN inference,
  printing per-stage p50/p99 latency and throughput (``--prometheus``
  dumps the metric exposition).
* ``trace summarize|chrome|critical-path FILE`` — analyse a run's
  OTLP/JSON document (``save_otlp(trace_to_otlp(trace), FILE)``), or
  with ``--service DATA_DIR`` the merged distributed trace of a queue
  service (client submit spans, worker deliveries across every server
  incarnation — including crashed ones — and the embedded runtimes'
  task spans).  ``summarize`` (makespan/work/overhead breakdown) and
  ``critical-path`` print one block per runtime incarnation;
  ``chrome`` writes a chrome://tracing timeline (``otlp_to_chrome``);
  no action writes the document itself (stdout or ``--output``).
* ``logs PATH`` — render observability artifacts a run leaves behind:
  a flight-recorder dump JSON (``flightrec-*.json``) or a service data
  directory (renders the spans rebuilt from its provenance log and
  lists its flight-recorder dumps).
* ``serve --data-dir DIR`` — run the durable task-queue service
  (:mod:`repro.service`): cold-start recovery, worker leases with
  heartbeats, SIGTERM drain.  ``--until-idle`` exits once the queue is
  empty (the crash-recovery smoke uses this).
* ``submit --data-dir DIR pkg.module:function [args...]`` — enqueue a
  task on a service's queue (JSON-parsed arguments) and optionally
  ``--wait`` for its result.
* ``queue status|list|cancel|reprioritize|tenant|provenance --data-dir
  DIR`` — inspect and steer a service's queue (only ``tenant`` creates
  one where there is none).

The randomized runtime matrix (executors × store × observability ×
trace collection, under a hang watchdog) is a test, not a command:
``pytest --hypothesis-profile=stress tests/runtime/test_stress.py
tests/streaming/test_stress_stream.py`` (``make stress``).
"""

from __future__ import annotations

import argparse
import math
import sys


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.runtime import Runtime, RuntimeConfig
    from repro.workflows import run_cnn, run_study, side_by_side, table1_block
    from repro.workflows.af_pipeline import prepare_dataset
    from repro.workflows.experiments import get_preset

    preset = get_preset(args.preset)
    print(f"preset {preset.name}: {preset.description}")
    dataset = prepare_dataset(preset.pipeline)
    print(f"dataset: {dataset.class_counts()} (balanced)")
    blocks = []
    overrides = {"executor": "threads"}
    if args.progress:
        overrides["observability"] = "progress"
    config = RuntimeConfig.from_env(**overrides)
    with Runtime(config=config):
        study = run_study(("csvm", "knn", "rf"), preset.pipeline, dataset)
        for algo, res in study.items():
            print(f"{algo}: {res.accuracy * 100:.1f}%")
            blocks.append(table1_block(algo.upper(), res.accuracy, res.confusion, ["N", "AF"]))
        if not args.skip_cnn:
            cnn = run_cnn(
                preset.pipeline,
                dataset,
                epochs=preset.cnn_epochs,
                downsample=preset.cnn_downsample,
                lr=preset.cnn_lr,
                nested=True,
            )
            print(f"cnn: {cnn['mean_accuracy'] * 100:.1f}%")
            blocks.append(
                table1_block("CNN", cnn["mean_accuracy"], cnn["mean_confusion"], ["N", "AF"])
            )
    print()
    print(side_by_side(blocks))
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    import numpy as np

    import repro.dsarray as ds
    from repro.cluster import NodeSpec, core_sweep, format_sweep
    from repro.ml import CascadeSVM, KNeighborsClassifier, RandomForestClassifier, StandardScaler
    from repro.runtime import Runtime

    rng = np.random.default_rng(0)
    n, d = args.samples, 64
    x = np.vstack([rng.normal(-1, 1, (n // 2, d)), rng.normal(1, 1, (n // 2, d))])
    y = np.array([0.0] * (n // 2) + [1.0] * (n - n // 2)).reshape(-1, 1)
    order = rng.permutation(n)

    with Runtime(executor="threads") as rt:
        dx = ds.array(x[order], (args.block_rows, d))
        dy = ds.array(y[order], (args.block_rows, 1))
        if args.algorithm == "csvm":
            CascadeSVM(max_iter=1, check_convergence=False).fit(dx, dy)
            cores = {"_train_partition": 8, "_merge_train": 8, "_final_model": 8}
        elif args.algorithm == "knn":
            scaled = StandardScaler().fit_transform(dx)
            KNeighborsClassifier(5).fit(scaled, dy).predict(scaled)
            cores = {}
        else:
            RandomForestClassifier(n_estimators=40, distr_depth=1, random_state=0).fit(dx, dy)
            cores = {}
        rt.barrier()
        trace = rt.trace()
    print(f"recorded {len(trace)} tasks ({trace.total_task_time:.2f}s of task time)")
    points = core_sweep(trace, NodeSpec(cores=48, name="mn4"), args.nodes, cores_per_task=cores)
    print(format_sweep(points, f"{args.algorithm} on simulated MareNostrum IV"))
    return 0


def _cmd_graphs(args: argparse.Namespace) -> int:
    import pathlib
    import subprocess

    # the figure tests live beside src/ in a source checkout, wherever
    # the command is run from
    root = pathlib.Path(__file__).resolve().parents[2]
    tests = root / "benchmarks" / "test_graphs.py"
    if not tests.is_file():
        print(f"repro graphs: {tests} not found (needs a source checkout)", file=sys.stderr)
        return 1
    code = subprocess.call(
        [sys.executable, "-m", "pytest", str(tests), "--benchmark-only", "-q"],
        cwd=root,
    )
    if code == 0:
        print(f"DOT files are in {root / 'benchmarks' / 'results'}/")
    return code


def _cmd_faults(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.cluster import (
        ClusterSpec,
        CostModel,
        NodeFailure,
        NodeSpec,
        failure_report,
        gantt_text,
        simulate,
    )
    from repro.runtime import Runtime, current_attempt, task, wait_on

    print("== runtime retries after task failures ==")

    @task(returns=1, max_retries=3)
    def prepare(i):
        return np.arange(64) + i

    @task(returns=1, max_retries=3)
    def train(block):
        # a transient fault: the first two attempts of every call fail
        if current_attempt() < 2:
            raise RuntimeError(f"transient failure on attempt {current_attempt()}")
        return float(np.asarray(block).sum())

    @task(returns=1)
    def merge(a, b):
        return a + b

    with Runtime(executor="threads") as rt:
        parts = [train(prepare(i)) for i in range(4)]
        while len(parts) > 1:
            parts = [merge(parts[i], parts[i + 1]) for i in range(0, len(parts), 2)]
        total = wait_on(parts[0])
        trace = rt.trace()
        stats = rt.stats()
    print(f"result: {total}")
    attempts = [
        (r.task_id, r.attempt, r.status) for r in trace.records(name="train")
    ]
    print(f"train attempts: {sorted(attempts)}")
    print(
        f"stats: retries={stats['retries']} "
        f"failed_attempts={trace.n_failed_attempts}"
    )

    print()
    print("== simulated node failure ==")
    cluster = ClusterSpec(n_nodes=args.nodes, node=NodeSpec(cores=4, name="demo"))
    # the recorded tasks run in microseconds; stretch them so the
    # failure/recovery timeline is readable in whole seconds
    cost = CostModel(base_duration=lambda record: 1.0)
    baseline = simulate(trace, cluster, cost)
    failed = simulate(
        trace,
        cluster,
        cost,
        failures=[
            NodeFailure(
                node=0,
                at=baseline.makespan * 0.3,
                down_for=baseline.makespan * 0.3,
            )
        ],
    )
    print(failure_report(failed, baseline_makespan=baseline.makespan))
    print()
    print(gantt_text(failed))
    return 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    import pathlib
    import time

    from repro.runtime.checkpoint import CheckpointStore

    root = pathlib.Path(args.dir)
    if not root.exists():
        print(f"no checkpoint store at {root}", file=sys.stderr)
        return 1
    store = CheckpointStore(root)

    if args.action == "inspect":
        stats = store.stats()
        print(f"store    : {stats['root']}")
        print(f"entries  : {stats['n_entries']} ({stats['total_bytes']} bytes)")
        for task_name in sorted(stats["by_task"]):
            print(f"  {task_name}: {stats['by_task'][task_name]}")
        now = time.time()
        for entry in store.entries():
            age = now - entry.created_at
            print(
                f"{entry.key[:16]:<16}  task={entry.task}  "
                f"{entry.nbytes}B  age={age:.0f}s"
            )
        return 0

    if args.action == "verify":
        report = store.verify()
        print(f"ok       : {len(report.ok)}")
        print(f"corrupt  : {len(report.corrupt)}")
        for name in report.corrupt:
            print(f"  corrupt: {name}")
        return 0 if report.clean else 1

    # prune
    if not (args.task or args.corrupt or args.older_than is not None or args.all):
        print(
            "prune needs at least one of --task/--corrupt/--older-than/--all",
            file=sys.stderr,
        )
        return 2
    removed = store.prune(
        task=args.task,
        corrupt=args.corrupt,
        older_than=args.older_than,
        everything=args.all,
    )
    print(f"removed {len(removed)} entries")
    return 0


def _cmd_serve_stream(args: argparse.Namespace) -> int:
    from repro.runtime.config import RuntimeConfig
    from repro.runtime.engine import Runtime
    from repro.streaming import ServeConfig, serve_stream

    cfg = ServeConfig(
        seed=args.seed,
        n_segments=args.segments,
        patients=args.patients,
        batch_size=args.batch_size,
        rate=args.rate,
    )
    rt_cfg = RuntimeConfig(
        executor=args.backend,
        max_workers=args.workers,
        observability="metrics",
        name="af-serving",
    )
    with Runtime(config=rt_cfg) as rt:
        result = serve_stream(cfg, rt, gauge_interval=args.gauge_interval)
        prom = rt.metrics_text() if args.prometheus else None

    print(
        f"served {len(result.predictions)} segment prediction(s) in "
        f"{result.elapsed_s:.2f}s ({result.throughput_rps:.1f} segments/s)"
    )
    header = f"{'stage':<16} {'kind':<8} {'in':>6} {'out':>6} {'p50 ms':>8} {'p99 ms':>8} {'rps':>8}"
    print(header)
    print("-" * len(header))
    for name, snap in (result.stage_stats or {}).items():
        print(
            f"{name:<16} {snap['kind']:<8} {snap['n_in']:>6} {snap['n_out']:>6} "
            f"{snap['p50_ms']:>8.2f} {snap['p99_ms']:>8.2f} {snap['rps']:>8.1f}"
        )
    print()
    for p in result.predictions:
        verdict = "AF" if p["pred"] == 1 else "non-AF"
        print(
            f"patient {p['patient']} segment {p['segment']:>3}  label={p['label']}  "
            f"pred={verdict:<6} p(AF)={p['prob_af']:.3f}  hr={p['hr_bpm']:.0f} bpm"
        )
    if prom is not None:
        print()
        print(prom)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.runtime import atomic_write
    from repro.runtime import observability as obs
    from repro.runtime import otlp

    source = args.service if args.service is not None else args.file
    if source is None:
        print("trace wants a FILE (or --service DATA_DIR)", file=sys.stderr)
        return 2
    analyse = args.action in ("summarize", "critical-path")
    try:
        if args.service is not None:
            from repro.service.server import export_service_otlp

            document = export_service_otlp(source)
        else:
            with open(source, encoding="utf-8") as fh:
                document = json.load(fh)
        if not isinstance(document, dict) or not isinstance(
            document.get("resourceSpans"), list
        ):
            raise ValueError("not an OTLP document")
        n_spans = sum(1 for _ in otlp.iter_spans(document))
        groups = otlp.otlp_to_traces(document) if analyse else []
        chrome = otlp.otlp_to_chrome(document) if args.action == "chrome" else None
    except (OSError, AttributeError, KeyError, TypeError, ValueError) as exc:
        print(f"cannot read trace {source}: {exc!r}", file=sys.stderr)
        return 1
    if not n_spans:
        print(f"no spans recorded in {source}", file=sys.stderr)
        return 1
    if analyse and not groups:
        print(f"no task spans in {source}", file=sys.stderr)
        return 1

    if chrome is not None:
        out = args.output or (
            f"{args.file}.chrome.json" if args.service is None else "service.chrome.json"
        )
        atomic_write(out, json.dumps(chrome) + "\n")
        print(f"wrote {out} ({n_spans} spans, merged chrome trace; open in about:tracing)")
    elif args.action is None:
        if args.output:
            otlp.save_otlp(document, args.output)
            print(f"wrote {args.output} ({n_spans} spans, OTLP/JSON)")
        else:
            print(json.dumps(document, indent=2))
    for index, (resource, trace) in enumerate(groups):  # one block per runtime
        if index:
            print()
        pid = f" pid {resource['repro.pid']}" if "repro.pid" in resource else ""
        print(f"== {otlp.resource_label(resource)}{pid}: {len(trace)} records ==")
        if args.action == "summarize":
            print(obs.format_summary(obs.summarize_trace(trace)))
        else:
            print(obs.format_critical_path(obs.critical_path(trace), top=args.top))
    return 0


def _render_flightrec_dump(payload: dict, limit: int | None) -> None:
    import time as _time

    stamp = _time.strftime(
        "%Y-%m-%d %H:%M:%S", _time.localtime(payload.get("wall_time", 0))
    )
    print(
        f"flight recorder {payload.get('name')!r} pid={payload.get('pid')} "
        f"at {stamp}"
    )
    print(f"reason   : {payload.get('reason')}")
    print(
        f"events   : {payload.get('n_events')} held "
        f"(capacity {payload.get('capacity')}, "
        f"{payload.get('n_dropped')} older dropped)"
    )
    events = payload.get("events", [])
    if limit is not None:
        events = events[-limit:]
    if events:
        header = f"{'t':>10}  {'kind':<12} {'task':>6} {'attempt':>7} {'state':<10} name"
        print(header)
        print("-" * len(header))
    for event in events:
        worker = event.get("worker") or ""
        print(
            f"{event.get('t', 0.0):>10.4f}  {event.get('kind', '?'):<12} "
            f"{event.get('task_id', ''):>6} {event.get('attempt', 0):>7} "
            f"{str(event.get('state') or ''):<10} {event.get('name', '')}"
            + (f"  [{worker}]" if worker else "")
        )
    metrics = payload.get("metrics")
    if isinstance(metrics, dict):
        print(f"metrics snapshot: {len(metrics)} top-level keys")


def _render_span_rows(rows, limit: int | None) -> None:
    import time as _time

    rows = list(rows)
    if limit is not None:
        rows = rows[-limit:]
    if not rows:
        print("(no span rows)")
        return
    for row in rows:
        t = row.get("t_start", row.get("t_end", 0.0))
        stamp = _time.strftime("%H:%M:%S", _time.localtime(t))
        # ids are base+counter, so only the *tail* distinguishes spans
        # minted by one process — truncate from the front, not the back
        trace = (row.get("trace_id") or "")[-12:]
        span = (row.get("span_id") or "")[-12:]
        if row.get("event") == "end":
            detail = f"status={row.get('status')}"
        else:
            attrs = row.get("attributes") or {}
            detail = " ".join(f"{k}={v}" for k, v in attrs.items())
        print(
            f"{stamp}  {row.get('event', '?'):<5} {row.get('name', ''):<8} "
            f"trace={trace:<12} span={span:<12} {detail}"
        )


def _cmd_logs(args: argparse.Namespace) -> int:
    import pathlib

    from repro.runtime.flightrec import load_dump
    from repro.service import Database, DurableQueue
    from repro.service.server import QUEUE_DB

    path = pathlib.Path(args.path)
    if path.is_dir():
        queue_db = path / QUEUE_DB
        if queue_db.exists():
            print(f"== span log of {queue_db} ==")
            db = Database(queue_db)
            try:
                _render_span_rows(DurableQueue(db).span_rows(), args.limit)
            finally:
                db.close()
        dumps = sorted(path.glob("**/flightrec-*.json"))
        if dumps:
            print(f"== {len(dumps)} flight-recorder dump(s) ==")
            for dump in dumps:
                print(f"  {dump}")
        if not queue_db.exists() and not dumps:
            print(f"no queue or flight-recorder dumps under {path}", file=sys.stderr)
            return 1
        return 0
    if not path.exists():
        print(f"no such file: {path}", file=sys.stderr)
        return 1
    try:
        payload = load_dump(path)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return 1
    _render_flightrec_dump(payload, args.limit)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import logging

    # the server is the long-running entry point: its INFO lines
    # ("service started ...", "service drained ...") go to stderr
    log = logging.getLogger("repro")
    handler, level = logging.StreamHandler(), log.level
    log.addHandler(handler)
    log.setLevel(logging.INFO)
    try:
        return _serve(args)
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def _serve(args: argparse.Namespace) -> int:
    from repro.service import QueueService, ServiceConfig

    config = ServiceConfig(
        data_dir=args.data_dir,
        workers=args.workers,
        backend=args.backend,
        lease_timeout=args.lease_timeout,
        poll_interval=args.poll_interval,
        default_max_retries=args.max_retries,
        jitter_seed=args.seed,
    )
    service = QueueService(config)
    service.start()
    recovery = service.recovery
    service.install_signal_handlers()
    print(
        f"serving {args.data_dir} as {service.server_id} "
        f"(workers={args.workers}, backend={args.backend}, "
        f"lease={args.lease_timeout:g}s); recovered "
        f"{len(recovery['requeued_tasks'])} leased tasks, swept "
        f"{recovery['swept_segment_files']} orphan segment files "
        f"from {len(recovery['swept_prefixes'])} dead prefixes",
        flush=True,
    )
    killed = service.serve_forever(until_idle=args.until_idle)
    if killed is not None:
        print(
            f"stopped: a task body killed the runtime ({killed!r}); "
            "queued tasks wait for the next server",
            file=sys.stderr,
            flush=True,
        )
        return 1
    print("drained cleanly", flush=True)
    return 0


def _json_value(text: str):
    """CLI arguments are JSON when they parse, bare strings otherwise
    (so ``repro submit ... 3 '"3"' hello`` means int, str, str)."""
    import json

    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service import ServiceClient, ServiceTaskError

    kwargs = {}
    for item in args.kwarg or []:
        key, sep, value = item.partition("=")
        if not sep or not key:
            print(f"--kwarg wants NAME=JSON, got {item!r}", file=sys.stderr)
            return 2
        kwargs[key] = _json_value(value)
    with ServiceClient(args.data_dir) as client:
        try:
            task_id = client.submit(
                args.fn,
                *[_json_value(v) for v in args.args],
                tenant=args.tenant,
                priority=args.priority,
                max_retries=args.max_retries,
                key=args.key,
                **kwargs,
            )
        except ValueError as exc:
            print(f"submit failed: {exc}", file=sys.stderr)
            return 2
        print(f"task {task_id}")
        if args.wait:
            try:
                value = client.result(task_id, timeout=args.timeout)
            except (ServiceTaskError, TimeoutError) as exc:
                print(f"task {task_id}: {exc}", file=sys.stderr)
                return 1
            print(f"result: {value!r}")
    return 0


def _cmd_queue(args: argparse.Namespace) -> int:
    import pathlib

    from repro.service import ServiceClient
    from repro.service.server import QUEUE_DB

    # only ``tenant`` writes; reading or steering a queue that is not
    # there must not create one (a mistyped DIR would read as empty)
    if args.action != "tenant" and not (pathlib.Path(args.data_dir) / QUEUE_DB).exists():
        print(f"no queue at {args.data_dir}", file=sys.stderr)
        return 1
    with ServiceClient(args.data_dir) as client:
        if args.action == "status":
            stats = client.counts()
            print(f"queue at {args.data_dir}")
            for tenant, states in sorted(stats["tenants"].items()):
                shown = ", ".join(f"{k}={v}" for k, v in sorted(states.items()))
                print(f"  tenant {tenant:<12} {shown or '(idle)'}")
            for name, value in sorted(stats["counters"].items()):
                print(f"  {name:<24} {value}")
            return 0
        if args.action == "list":
            rows = client.list_tasks(
                tenant=args.tenant, state=args.state, limit=args.limit
            )
            for row in rows:
                print(
                    f"{row['id']:>6}  {row['state']:<10} {row['tenant']:<10} "
                    f"prio={row['priority']:<3} attempt={row['attempt']} "
                    f"{row['name']}"
                )
            if not rows:
                print("(no matching tasks)")
            return 0
        if args.action == "cancel":
            if args.id is None:
                print("cancel wants a task id", file=sys.stderr)
                return 2
            outcome = client.cancel(args.id)
            print(f"task {args.id}: {outcome}")
            return 0 if outcome != "unknown" else 1
        if args.action == "reprioritize":
            if args.id is None or args.priority is None:
                print("reprioritize wants a task id and --priority", file=sys.stderr)
                return 2
            changed = client.reprioritize(args.id, args.priority)
            print(f"task {args.id}: {'priority set' if changed else 'not movable'}")
            return 0 if changed else 1
        if args.action == "tenant":
            if not args.name:
                print("tenant wants --name", file=sys.stderr)
                return 2
            client.ensure_tenant(args.name, quota=args.quota, weight=args.weight)
            print(f"tenant {args.name}: quota={args.quota} weight={args.weight:g}")
            return 0
        # provenance
        rows = client.queue.provenance(args.id)
        for row in rows:
            task = f"task {row['task_id']}" if row["task_id"] is not None else "service"
            print(f"{row['at']:.3f}  {task:<12} {row['event']:<20} {row['detail']}")
        if not rows:
            print("(no provenance recorded)")
        return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("table1", help="four-model accuracy comparison")
    p1.add_argument("--preset", default="tiny", choices=["tiny", "small", "paper"])
    p1.add_argument("--skip-cnn", action="store_true")
    p1.add_argument(
        "--progress", action="store_true", help="live task progress on stderr"
    )
    p1.set_defaults(func=_cmd_table1)

    p2 = sub.add_parser("scaling", help="record + replay a scalability sweep")
    p2.add_argument("--algorithm", default="csvm", choices=["csvm", "knn", "rf"])
    p2.add_argument("--samples", type=int, default=4000)
    p2.add_argument("--block-rows", type=int, default=250)
    p2.add_argument("--nodes", type=int, nargs="+", default=[1, 2, 3, 4])
    p2.set_defaults(func=_cmd_scaling)

    p3 = sub.add_parser("graphs", help="export the paper's execution graphs")
    p3.set_defaults(func=_cmd_graphs)

    def positive_int(value: str) -> int:
        n = int(value)
        if n < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
        return n

    def positive_float(value: str) -> float:
        x = float(value)
        if not 0 < x < math.inf:
            raise argparse.ArgumentTypeError(f"must be > 0 and finite, got {value}")
        return x

    p4 = sub.add_parser("faults", help="failure-management demonstration")
    p4.add_argument("--nodes", type=positive_int, default=2)
    p4.set_defaults(func=_cmd_faults)

    p5 = sub.add_parser("checkpoint", help="inspect/verify/prune a checkpoint store")
    p5.add_argument("action", choices=["inspect", "verify", "prune"])
    p5.add_argument("--dir", required=True, help="checkpoint store directory")
    p5.add_argument("--task", default=None, help="prune: entries of one task/tag")
    p5.add_argument(
        "--corrupt", action="store_true", help="prune: checksum-failing entries"
    )
    p5.add_argument(
        "--older-than",
        type=float,
        default=None,
        metavar="SECONDS",
        help="prune: entries older than this many seconds",
    )
    p5.add_argument("--all", action="store_true", help="prune: empty the store")
    p5.set_defaults(func=_cmd_checkpoint)

    p6b = sub.add_parser(
        "serve-stream", help="online AF inference over the streaming pipeline"
    )
    p6b.add_argument("--seed", type=int, default=0, help="feed + model seed")
    p6b.add_argument("--segments", type=int, default=12, help="segments in the feed")
    p6b.add_argument("--patients", type=int, default=2, help="interleaved patients")
    p6b.add_argument("--batch-size", type=int, default=4, help="inference micro-batch")
    p6b.add_argument(
        "--rate", type=positive_float, default=None,
        help="source pacing in chunks/second (default: full speed)",
    )
    p6b.add_argument("--workers", type=positive_int, default=2)
    p6b.add_argument(
        "--backend", choices=("threads", "sequential"), default="threads"
    )
    p6b.add_argument(
        "--gauge-interval", type=float, default=None,
        help="republish live queue/latency gauges every N seconds",
    )
    p6b.add_argument(
        "--prometheus", action="store_true",
        help="print the Prometheus metric exposition after the run",
    )
    p6b.set_defaults(func=_cmd_serve_stream)

    p7 = sub.add_parser(
        "trace", help="analyse/export a run's OTLP trace document"
    )
    p7.add_argument(
        "action",
        nargs="?",
        default=None,
        choices=["summarize", "chrome", "critical-path"],
        help="none: write the document itself",
    )
    p7.add_argument("file", nargs="?", default=None, help="an OTLP/JSON document")
    p7.add_argument(
        "--service",
        default=None,
        metavar="DATA_DIR",
        help="read a queue service's merged distributed trace instead of FILE",
    )
    p7.add_argument(
        "--output",
        default=None,
        help="chrome: output path (default FILE.chrome.json or "
        "service.chrome.json); no action: OTLP output path (default stdout)",
    )
    p7.add_argument(
        "--top",
        type=int,
        default=None,
        help="critical-path: show only the last N chain tasks",
    )
    p7.set_defaults(func=_cmd_trace)

    p7b = sub.add_parser(
        "logs", help="render flight-recorder dumps and a service's spans"
    )
    p7b.add_argument(
        "path", help="a flight-recorder dump JSON or a service data directory"
    )
    p7b.add_argument(
        "--limit", type=int, default=None, help="show only the last N entries"
    )
    p7b.set_defaults(func=_cmd_logs)

    p8 = sub.add_parser("serve", help="run the durable task-queue service")
    p8.add_argument("--data-dir", required=True, help="service data directory")
    p8.add_argument("--workers", type=positive_int, default=2)
    p8.add_argument(
        "--backend", choices=("threads", "processes"), default="threads"
    )
    p8.add_argument(
        "--lease-timeout", type=float, default=5.0,
        help="heartbeats every lease-timeout / 3, expiry sweeps every / 2",
    )
    p8.add_argument("--poll-interval", type=float, default=0.05)
    p8.add_argument("--max-retries", type=int, default=2)
    p8.add_argument("--seed", type=int, default=0, help="jitter seed")
    p8.add_argument(
        "--until-idle", action="store_true",
        help="exit once the queue is empty and no task is in flight",
    )
    p8.set_defaults(func=_cmd_serve)

    p9 = sub.add_parser("submit", help="enqueue a task on a service queue")
    p9.add_argument("--data-dir", required=True, help="service data directory")
    p9.add_argument("fn", help="task reference, e.g. repro.service.demo:add")
    p9.add_argument("args", nargs="*", help="positional arguments (JSON)")
    p9.add_argument("--kwarg", action="append", default=None, metavar="NAME=JSON")
    p9.add_argument("--tenant", default="default")
    p9.add_argument("--priority", type=int, default=0)
    p9.add_argument("--max-retries", type=int, default=None)
    p9.add_argument("--key", default=None, help="explicit idempotency key")
    p9.add_argument("--wait", action="store_true", help="block for the result")
    p9.add_argument("--timeout", type=float, default=None, help="wait timeout (s)")
    p9.set_defaults(func=_cmd_submit)

    p10 = sub.add_parser("queue", help="inspect/steer a service queue")
    p10.add_argument(
        "action",
        choices=["status", "list", "cancel", "reprioritize", "tenant", "provenance"],
    )
    p10.add_argument("--data-dir", required=True, help="service data directory")
    p10.add_argument("id", nargs="?", type=int, default=None, help="task id")
    p10.add_argument("--tenant", default=None, help="list: filter by tenant")
    p10.add_argument("--state", default=None, help="list: filter by state")
    p10.add_argument("--limit", type=int, default=100)
    p10.add_argument("--priority", type=int, default=None, help="reprioritize: new value")
    p10.add_argument("--name", default=None, help="tenant: tenant name")
    p10.add_argument("--quota", type=int, default=None, help="tenant: max active leases")
    p10.add_argument("--weight", type=float, default=1.0, help="tenant: fair-share weight")
    p10.set_defaults(func=_cmd_queue)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
