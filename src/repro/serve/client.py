"""Blocking client for the serve daemon.

:class:`Client` speaks the newline-delimited JSON protocol of
:mod:`repro.serve.protocol` over plain sockets — one connection per
request (``watch`` holds its connection open for the stream).  It is the
access path used by the test suite, ``examples/serve_client.py`` and
``benchmarks/bench_serve.py``; anything it can do, ``nc`` can do too.
Payloads come back in the codec's JSON form (dataclasses as objects
tagged with their class name); :func:`repro.pipeline.hashing.revive`
rebuilds them.

Typical session::

    client = Client(("127.0.0.1", 7431))        # or a unix-socket path
    job = client.submit_experiment("table3")
    for event in client.watch(job["job_id"]):
        print(event["type"])
    result = client.result(job["job_id"])
"""

from __future__ import annotations

import socket
from typing import Any, Dict, Iterator, Mapping, Optional, Union

from ..pipeline.hashing import canonicalize
from . import protocol

Address = Union[str, "tuple[str, int]"]


class ServeError(RuntimeError):
    """An operation the server refused (``ok: false`` response)."""

    def __init__(self, response: Dict[str, Any]) -> None:
        super().__init__(str(response.get("error", "serve request failed")))
        self.response = response


class Client:
    """Thin blocking client: one method per protocol operation.

    Parameters
    ----------
    address:
        ``(host, port)`` tuple or a unix-socket path — exactly what
        :attr:`AttackServer.address <repro.serve.server.AttackServer.address>`
        returns.
    timeout:
        Per-connection socket timeout in seconds (``None`` blocks forever;
        the default is generous because ``result`` waits server-side for
        the job to finish).
    """

    def __init__(self, address: Address,
                 timeout: Optional[float] = 3600.0) -> None:
        self.address = address
        self.timeout = timeout

    # ------------------------------------------------------------------ #
    # Transport
    # ------------------------------------------------------------------ #
    def _connect(self) -> socket.socket:
        if isinstance(self.address, str):
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.settimeout(self.timeout)
            sock.connect(self.address)
        else:
            host, port = self.address
            sock = socket.create_connection((host, port),
                                            timeout=self.timeout)
        return sock

    def request(self, message: Dict[str, Any],
                on_socket: Optional[Any] = None) -> Dict[str, Any]:
        """One request, one response line; raises :class:`ServeError` on
        ``ok: false``.

        ``on_socket`` (if given) is called with the connected socket
        before the request is sent, so a caller on another thread can
        abort a blocked exchange with ``sock.shutdown()`` — the remote
        executor backend uses this to bound its own shutdown.
        """
        with self._connect() as sock:
            if on_socket is not None:
                on_socket(sock)
            sock.sendall(protocol.encode(message))
            response = protocol.decode(self._read_line(sock))
        if not response.get("ok", False):
            raise ServeError(response)
        return response

    @staticmethod
    def _read_line(sock: socket.socket) -> bytes:
        with sock.makefile("rb") as stream:
            line = stream.readline(protocol.MAX_LINE_BYTES + 1)
        if not line:
            raise protocol.ProtocolError("server closed the connection")
        return line

    # ------------------------------------------------------------------ #
    # Operations
    # ------------------------------------------------------------------ #
    def ping(self) -> Dict[str, Any]:
        """Liveness probe; returns server identity, pid and uptime."""
        return self.request({"op": "ping"})

    def submit(self, kind: str,
               params: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
        """Submit one executor invocation (``kind`` + ``params``).

        Returns the submit acknowledgement: ``job_id``, ``state``, and the
        dedup verdict (``deduped`` for an in-flight hit, ``cached`` for a
        completed store hit).
        """
        job = {"kind": kind, "params": dict(params or {})}
        return self.request({"op": "submit", "job": job})

    def submit_experiment(self, name: str) -> Dict[str, Any]:
        """Submit a whole registered experiment by name."""
        return self.request({"op": "submit", "job": {"experiment": name}})

    def status(self, job_id: str) -> Dict[str, Any]:
        """Snapshot of one job: state, attempts, dedup counters, timing."""
        return self.request({"op": "status", "id": job_id})

    def result(self, job_id: str, wait: bool = True,
               timeout: Optional[float] = None) -> Dict[str, Any]:
        """Fetch a job's payload, blocking server-side until it finishes.

        The returned dict carries the payload's JSON form under ``result``
        (with a human-readable ``formatted`` rendering when the payload
        provides one; see :func:`~repro.serve.protocol.wire_payload`).
        """
        message: Dict[str, Any] = {"op": "result", "id": job_id,
                                   "wait": wait}
        if timeout is not None:
            message["timeout"] = timeout
        return self.request(message)

    def cancel(self, job_id: str) -> Dict[str, Any]:
        """Cancel a queued job (running jobs are never preempted)."""
        return self.request({"op": "cancel", "id": job_id})

    def task(self, task_id: str, kind: str, params: Mapping[str, Any],
             deps: Mapping[str, Any], *, attempt: int = 1,
             key: Optional[str] = None, cacheable: bool = True,
             salt: Optional[str] = None,
             timeout: Optional[float] = None) -> Dict[str, Any]:
        """Execute one pipeline task synchronously on the daemon.

        ``deps`` (dependency task id → payload) is sent in the payload
        codec's JSON form; the response's ``payload`` decodes with
        :func:`repro.pipeline.hashing.revive`.  This is the
        distributed-scheduler hot path — retries and failover belong to
        the caller, not the daemon.
        """
        message: Dict[str, Any] = {
            "op": "task", "task_id": task_id, "kind": kind,
            "params": dict(params), "deps": canonicalize(dict(deps)),
            "attempt": attempt, "key": key, "cacheable": cacheable,
            "salt": salt,
        }
        if timeout is not None:
            message["timeout"] = timeout
        return self.request(message)

    def stats(self) -> Dict[str, Any]:
        """Server counters: jobs, dedup hits, pool health, store traffic."""
        return self.request({"op": "stats"})

    def shutdown(self, drain: bool = True) -> Dict[str, Any]:
        """Ask the server to stop (``drain=False`` cancels queued jobs)."""
        return self.request({"op": "shutdown", "drain": drain})

    def watch(self, job_id: str) -> Iterator[Dict[str, Any]]:
        """Stream a job's progress events in emission order.

        Replays the job's history first, then yields live events until the
        stream's terminating ``{"done": true}`` line (which is consumed,
        not yielded).  Holds one connection open for the duration.
        """
        with self._connect() as sock:
            sock.sendall(protocol.encode({"op": "watch", "id": job_id}))
            stream = sock.makefile("rb")
            try:
                while True:
                    line = stream.readline(protocol.MAX_LINE_BYTES + 1)
                    if not line:
                        return
                    response = protocol.decode(line)
                    if not response.get("ok", False):
                        raise ServeError(response)
                    if response.get("done"):
                        return
                    if "event" in response:
                        yield response["event"]
            finally:
                stream.close()

    # ------------------------------------------------------------------ #
    def run(self, kind: str, params: Optional[Mapping[str, Any]] = None,
            timeout: Optional[float] = None) -> Dict[str, Any]:
        """Submit and wait: the one-call convenience for scripts."""
        ack = self.submit(kind, params)
        return self.result(ack["job_id"], timeout=timeout)


__all__ = ["Address", "Client", "ServeError"]
