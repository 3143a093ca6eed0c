"""Hybrid task+dataflow streaming (:mod:`repro.streaming`).

The subsystem extends the task runtime with long-lived *stream stages*
wired by bounded, credit-backpressured channels — the hybrid
workflows model (Ramon-Cortes et al.) the source paper's group built
on COMPSs.  Stages are full task-runtime citizens: a stream stage can
``submit_many()`` micro-batched ``@task`` calls and ``wait_on`` the
futures, and ordinary DAG tasks can block on stream results.

Layering:

* :mod:`repro.streaming.channel` — :class:`Stream` (bounded,
  credit-based backpressure, poison/EOS) and :class:`Record`;
* :mod:`repro.streaming.operators` — keyed tumbling count windows,
  closed by arrival; :func:`run_windowed` replays the same windower
  offline;
* :mod:`repro.streaming.graph` — :class:`StreamGraph` stage wiring,
  per-element failure policies, runtime drain/interrupt integration,
  per-stage latency/throughput telemetry;
* :mod:`repro.streaming.serving` — the online AF inference pipeline
  (:func:`serve_stream`) and its batch-DAG twin (:func:`serve_batch`)
  that the differential suite holds bit-identical.
"""

from repro.streaming.channel import (
    EOS,
    Record,
    Stream,
    StreamClosed,
)
from repro.streaming.graph import StageStats, StreamFailure, StreamGraph
from repro.streaming.operators import TumblingCountWindow, run_windowed
from repro.streaming.serving import (
    ServeConfig,
    ServingResult,
    make_model,
    serve_batch,
    serve_stream,
)

__all__ = [
    "EOS",
    "Record",
    "Stream",
    "StreamClosed",
    "StageStats",
    "StreamFailure",
    "StreamGraph",
    "TumblingCountWindow",
    "run_windowed",
    "ServeConfig",
    "ServingResult",
    "make_model",
    "serve_batch",
    "serve_stream",
]
