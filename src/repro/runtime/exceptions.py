"""Exception hierarchy for the task runtime."""

from __future__ import annotations


class RuntimeStateError(RuntimeError):
    """The runtime is not in a state where the operation is legal.

    Raised e.g. when submitting tasks after shutdown, or calling
    ``wait_on`` on a future produced by a different runtime instance.
    """


class TaskDefinitionError(TypeError):
    """A ``@task`` decorator was mis-declared.

    Examples: a direction given for a parameter that does not exist, a
    negative ``returns`` count, or an unknown direction name.
    """


class TaskExecutionError(RuntimeError):
    """A task body raised an exception.

    The original exception is attached as ``__cause__`` and the failing
    task's name and id are carried in :attr:`task_name` / :attr:`task_id`
    so schedulers and callers can report which node of the DAG failed.
    """

    def __init__(self, task_name: str, task_id: int, cause: BaseException):
        super().__init__(f"task {task_name!r} (id={task_id}) failed: {cause!r}")
        self.task_name = task_name
        self.task_id = task_id
        self.__cause__ = cause


class TaskTimeoutError(TaskExecutionError):
    """A task exceeded its declared ``time_out``.

    Under the ``threads`` executor the watchdog abandons the running
    body and fails the task the moment the deadline passes; under the
    ``sequential`` executor the body cannot be preempted, so the
    timeout is detected after the body returns (best effort).  Either
    way the error feeds the task's ``on_failure`` policy, so a timed-out
    task can be retried or ignored like any other failure.
    """

    def __init__(self, task_name: str, task_id: int, timeout: float):
        cause = TimeoutError(f"exceeded time_out={timeout}s")
        super().__init__(task_name, task_id, cause)
        self.timeout = timeout


class WorkflowAbortedError(RuntimeError):
    """The workflow was aborted by a task with ``on_failure="FAIL"``.

    COMPSs' ``FAIL`` policy stops the whole workflow: every pending
    task is cancelled and further submissions are rejected with this
    error.  The first failure that triggered the abort is attached as
    ``__cause__``.
    """


class CancelledTaskError(RuntimeError):
    """The task was cancelled before it could run (e.g. runtime shutdown
    or an upstream dependency failed)."""


class WorkflowKilledError(BaseException):
    """A process kill declared by a task body.

    A body raises it to stop the workflow as if its process had died
    at that point — how crash/resume paths are made provable without a
    real ``kill -9``.  Deliberately a :class:`BaseException`: the
    engine's failure policies catch :class:`Exception`, so a kill tears
    straight through retries and ``on_failure`` handling — exactly like
    SIGKILL would — leaving only the persisted checkpoint entries
    behind.  Callers catch it at the workflow boundary and then resume
    from a fresh runtime.
    """


class NodeFailureError(RuntimeError):
    """A worker process died while executing a task.

    Raised on the dispatching thread by the ``processes`` backend when
    the pipe to a worker breaks mid-call (crash, OOM kill, or a body
    that SIGKILLs its own process).  A body running in-process may
    raise it itself to stand for the same outcome.  It is an ordinary
    :class:`Exception`: the task attempt fails and flows through the
    ``on_failure``/retry machinery — a retried attempt simply lands on
    a fresh worker, which is the COMPSs resubmit-on-node-failure
    behaviour.
    """

    def __init__(self, pid: int, task_name: str | None = None):
        suffix = f" while running {task_name!r}" if task_name else ""
        super().__init__(f"worker process {pid} died{suffix}")
        self.pid = pid
        self.task_name = task_name
        #: Uniform pid hand-back channel read by the engine's trace
        #: recording (worker exceptions carry the same attribute).
        self._repro_worker_pid = pid

    def __reduce__(self):
        # args holds the formatted message, not the ctor signature — a
        # plain exception reduce would rebuild with pid=<message>.
        return (NodeFailureError, (self.pid, self.task_name))


class CheckpointError(RuntimeError):
    """A checkpoint store operation failed.

    Raised for unusable stores (e.g. the directory is a file) — *not*
    for corrupt entries, which are logged and recomputed transparently.
    """
