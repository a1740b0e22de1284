"""``repro.pipeline`` — parallel experiment orchestration.

The pipeline decomposes each paper experiment into a task graph (dataset →
trained model → attack cells → table assembly), schedules ready tasks onto
a pluggable executor backend — in-process serial, a local multiprocessing
pool, or a fleet of ``repro.serve`` worker daemons — and memoises every
cell in a content-addressed result store (on disk, or an HTTP store daemon
shared by the fleet) so re-runs and resumed runs skip completed work.  See
``python -m repro.pipeline --help`` for the CLI.
"""

from .executors import (BACKEND_NAMES, ExecutorBackend, LocalPoolBackend,
                        RemoteBackend, SerialBackend, make_backend)
from .graph import GraphError, Task, TaskGraph, merge_graphs
from .hashing import canonical_json, content_hash
from .progress import ProgressReporter, RunReport, TaskRecord
from .resilience import (FaultPlan, FaultSpec, InjectedFault, RetryPolicy,
                         TaskTimeoutError, TransientTaskError,
                         WorkerCrashError, classify_error)
from .scheduler import (PipelineError, PipelineResult, PipelineSession,
                        config_salt, run_graph)
from .store import STORE_FORMAT_VERSION, ResultStore, StoreBackend, open_store
from .store_http import RemoteStore, StoreServer, StoreServerThread
from .worker import available_executors, execute_task, register_executor

__all__ = [
    "BACKEND_NAMES",
    "ExecutorBackend",
    "FaultPlan",
    "FaultSpec",
    "GraphError",
    "InjectedFault",
    "LocalPoolBackend",
    "PipelineError",
    "PipelineResult",
    "PipelineSession",
    "ProgressReporter",
    "RemoteBackend",
    "RemoteStore",
    "ResultStore",
    "RetryPolicy",
    "RunReport",
    "STORE_FORMAT_VERSION",
    "SerialBackend",
    "StoreBackend",
    "StoreServer",
    "StoreServerThread",
    "Task",
    "TaskGraph",
    "TaskRecord",
    "TaskTimeoutError",
    "TransientTaskError",
    "WorkerCrashError",
    "available_executors",
    "canonical_json",
    "classify_error",
    "config_salt",
    "content_hash",
    "execute_task",
    "make_backend",
    "merge_graphs",
    "open_store",
    "register_executor",
    "run_graph",
]
