"""Shared result store over HTTP: a stdlib daemon plus a client backend.

One :class:`StoreServer` fronts an on-disk
:class:`~repro.pipeline.store.ResultStore`; any number of schedulers,
``repro.serve`` daemons and ad-hoc scripts point a :class:`RemoteStore`
at it (``--store-url http://host:port``) and share one content-addressed
memoisation layer.  Sharing is safe by construction — every key carries
the full config/compute-policy salt — and payload bytes are canonical JSON
(see :func:`~repro.pipeline.hashing.canonical_json`), so whichever fleet
member computes a cell first stores exactly the bytes every other member
would have, and a client decodes them without constructing anything
outside the payload allow-list (:func:`~repro.pipeline.hashing.revive`).

The protocol is plain HTTP/1.1 on the standard library only:

===========================  =================================================
``HEAD /entry/<key>``        existence probe (``200`` / ``404``)
``GET /entry/<key>``         payload JSON; ``X-Repro-Checksum`` header
``PUT /entry/<key>``         store payload JSON; metadata rides in the
                             ``X-Repro-Meta`` header (base64 JSON)
``DELETE /entry/<key>``      discard one entry
``GET /meta/<key>``          metadata sidecar as JSON
``GET /keys``                JSON list of stored keys
``GET /stats``               inventory + session counters
``POST /verify``             checksum audit (quarantines corrupt entries)
``POST /gc``                 LRU eviction; ``max_bytes`` / ``max_entries``
                             query parameters
``POST /corrupt/<key>``      chaos hook: flip payload bytes in place
===========================  =================================================

Integrity checking stays server-side where the bytes live: ``GET`` runs
the same verify-or-quarantine path as a local read, and the client
re-checks the transported bytes against the checksum header so a torn
proxy cannot serve damage silently.

The daemon trusts no request: a key that is not a store key (64 lowercase
hex digits), a ``Content-Length`` that is missing, negative or larger than
:data:`MAX_BODY_BYTES`, a body that ends early or stalls for
``_StoreHandler.timeout`` seconds, or a malformed metadata header is
answered ``400`` with a JSON ``error`` before the store is touched.
"""

from __future__ import annotations

import base64
import functools
import hashlib
import json
import os
import threading
from http.client import HTTPConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Iterator, List, Optional, Tuple
from urllib.parse import parse_qs, urlparse

from .resilience import TransientTaskError, corrupt_payload_file
from .store import ResultStore, StoreBackend, check_key

#: Metadata header: base64(JSON) keeps arbitrary text header-safe.
META_HEADER = "X-Repro-Meta"
CHECKSUM_HEADER = "X-Repro-Checksum"

#: Largest ``PUT`` body accepted (cell payloads are a few KiB).
MAX_BODY_BYTES = 64 * 1024 * 1024


class StoreUnavailableError(TransientTaskError):
    """The store daemon could not be reached (connection-level failure).

    Derives from :class:`~repro.pipeline.resilience.TransientTaskError`
    so a scheduler seeing one through a task failure retries it.
    """


# ---------------------------------------------------------------------- #
# Server
# ---------------------------------------------------------------------- #
def _bad_request_is_400(handler: Any) -> Any:
    """Answer a ``ValueError`` raised before the response (a malformed key,
    length, metadata header or query) with ``400`` and close the
    connection, whose body may be unread."""
    @functools.wraps(handler)
    def wrapped(self: "_StoreHandler") -> None:
        try:
            handler(self)
        except ValueError as error:
            self.close_connection = True
            self._send_json(400, {"error": str(error)})
    return wrapped


class _StoreHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-store/1"
    #: Seconds a socket read may wait (``StreamRequestHandler`` applies
    #: it), so a stalled client cannot hold a request open forever.
    timeout = 30.0

    # The daemon is a cache, not an access log.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    @property
    def store(self) -> ResultStore:
        return self.server.result_store  # type: ignore[attr-defined]

    def _send(self, code: int, body: bytes,
              content_type: str = "application/json",
              headers: Optional[Dict[str, str]] = None) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)

    def _send_json(self, code: int, payload: Any) -> None:
        self._send(code, json.dumps(payload, default=str).encode("utf-8"))

    def _route(self) -> Tuple[str, str, Dict[str, List[str]]]:
        parsed = urlparse(self.path)
        parts = [part for part in parsed.path.split("/") if part]
        head = parts[0] if parts else ""
        rest = parts[1] if len(parts) > 1 else ""
        return head, rest, parse_qs(parsed.query)

    def _read_body(self) -> bytes:
        """Exactly ``Content-Length`` bytes, or ``ValueError``."""
        text = self.headers.get("Content-Length", "")
        length = int(text) if text.strip().isdecimal() else -1
        if not 0 <= length <= MAX_BODY_BYTES:
            raise ValueError(f"Content-Length must be an integer in "
                             f"[0, {MAX_BODY_BYTES}], got {text!r}")
        try:
            body = self.rfile.read(length)
        except TimeoutError:
            raise ValueError(f"request body stalled for "
                             f"{self.timeout:.0f} s") from None
        if len(body) != length:
            raise ValueError(f"request body ended after {len(body)} of "
                             f"{length} bytes")
        return body

    def _read_metadata(self) -> Dict[str, Any]:
        header = self.headers.get(META_HEADER)
        try:
            metadata = json.loads(base64.b64decode(header)) if header else {}
        except ValueError as error:
            raise ValueError(f"malformed metadata header: {error}") from None
        if not isinstance(metadata, dict):
            raise ValueError("metadata header must encode a JSON object")
        return metadata

    # -------------------------------------------------------------- #
    @_bad_request_is_400
    def do_HEAD(self) -> None:  # noqa: N802
        head, key, _ = self._route()
        if head == "entry" and key:
            if self.store.contains(key, count=False):
                self._send(200, b"")
            else:
                self._send_json(404, {"error": "not found", "key": key})
        else:
            self._send_json(404, {"error": "unknown path"})

    @_bad_request_is_400
    def do_GET(self) -> None:  # noqa: N802
        head, key, _ = self._route()
        if head == "entry" and key:
            try:
                blob = self.store.get_bytes(key)
            except KeyError as error:
                self._send_json(404, {"error": str(error), "key": key})
                return
            checksum = "sha256:" + hashlib.sha256(blob).hexdigest()
            self._send(200, blob, content_type="application/octet-stream",
                       headers={CHECKSUM_HEADER: checksum})
        elif head == "meta" and key:
            meta = self.store.metadata(key)
            self._send_json(200 if meta else 404, meta)
        elif head == "keys":
            self._send_json(200, list(self.store.keys()))
        elif head == "stats":
            stats = self.store.stats()
            stats["session"] = self.store.session_stats()
            self._send_json(200, stats)
        elif head == "health":
            self._send_json(200, {"ok": True, "pid": os.getpid()})
        else:
            self._send_json(404, {"error": "unknown path"})

    @_bad_request_is_400
    def do_PUT(self) -> None:  # noqa: N802
        head, key, _ = self._route()
        if head != "entry" or not key:
            self._send_json(404, {"error": "unknown path"})
            return
        metadata = self._read_metadata()
        blob = self._read_body()
        self.store.put_bytes(key, blob, metadata=metadata)
        self._send_json(200, {"stored": key, "bytes": len(blob)})

    @_bad_request_is_400
    def do_DELETE(self) -> None:  # noqa: N802
        head, key, _ = self._route()
        if head == "entry" and key:
            self._send_json(200, {"removed": self.store.discard(key)})
        else:
            self._send_json(404, {"error": "unknown path"})

    @_bad_request_is_400
    def do_POST(self) -> None:  # noqa: N802
        head, key, query = self._route()
        if head == "verify":
            self._send_json(200, self.store.verify())
        elif head == "gc":
            def _int(name: str) -> Optional[int]:
                values = query.get(name)
                return int(values[0]) if values else None
            self._send_json(200, self.store.gc(
                max_bytes=_int("max_bytes"), max_entries=_int("max_entries")))
        elif head == "corrupt" and key:
            try:
                corrupt_payload_file(self.store.payload_path(key))
            except OSError as error:
                self._send_json(404, {"error": str(error), "key": key})
                return
            self._send_json(200, {"corrupted": key})
        else:
            self._send_json(404, {"error": "unknown path"})


class StoreServer:
    """A shared result-store daemon over a directory.

    Standard library only (``ThreadingHTTPServer``): one thread per
    request over an on-disk :class:`ResultStore` whose writes are atomic,
    so concurrent writers — even of the same key — are safe.
    """

    def __init__(self, store: Any, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.store = store if isinstance(store, ResultStore) \
            else ResultStore(str(store))
        self._httpd = ThreadingHTTPServer((host, port), _StoreHandler)
        self._httpd.daemon_threads = True
        self._httpd.result_store = self.store  # type: ignore[attr-defined]

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def serve_forever(self) -> None:
        self._httpd.serve_forever(poll_interval=0.1)

    def shutdown(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()


class StoreServerThread:
    """Run a :class:`StoreServer` on a background thread (tests, benches).

    ::

        with StoreServerThread(tmpdir) as url:
            store = RemoteStore(url)
    """

    def __init__(self, store: Any, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.server = StoreServer(store, host=host, port=port)
        self._thread: Optional[threading.Thread] = None

    def start(self) -> str:
        self._thread = threading.Thread(target=self.server.serve_forever,
                                        name="repro-store", daemon=True)
        self._thread.start()
        return self.server.url

    def stop(self, timeout: float = 10.0) -> None:
        self.server.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __enter__(self) -> str:
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()


# ---------------------------------------------------------------------- #
# Client
# ---------------------------------------------------------------------- #
class RemoteStore(StoreBackend):
    """Client backend against a :class:`StoreServer` URL.

    One connection per request keeps the client trivially thread-safe (the
    scheduler's cache probes and the remote backend's dispatch threads all
    share one instance).  Connection-level failures raise
    :class:`StoreUnavailableError` — transient, so callers retry — while a
    missing or quarantined entry is an ordinary ``KeyError`` miss.
    """

    def __init__(self, url: str, timeout: float = 60.0) -> None:
        parsed = urlparse(url)
        if parsed.scheme not in ("http", "https") or not parsed.hostname:
            raise ValueError(f"store URL {url!r} is not http(s)://host:port")
        self.url = url.rstrip("/")
        self.root = self.url          # duck-type ResultStore.root for display
        self._host = parsed.hostname
        self._port = parsed.port or 80
        self._timeout = timeout
        self._session = {"hits": 0, "misses": 0, "quarantined": 0,
                         "bytes_read": 0, "bytes_written": 0}

    # -------------------------------------------------------------- #
    def _request(self, method: str, path: str, body: bytes = b"",
                 headers: Optional[Dict[str, str]] = None
                 ) -> Tuple[int, bytes, Dict[str, str]]:
        connection = HTTPConnection(self._host, self._port,
                                    timeout=self._timeout)
        try:
            connection.request(method, path, body=body or None,
                               headers=headers or {})
            response = connection.getresponse()
            payload = response.read()
            return (response.status, payload,
                    {name.title(): value
                     for name, value in response.getheaders()})
        except (OSError, ConnectionError) as error:
            raise StoreUnavailableError(
                f"store daemon {self.url} unreachable: {error}") from None
        finally:
            connection.close()

    @staticmethod
    def _json(body: bytes) -> Any:
        try:
            return json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            return {}

    # -------------------------------------------------------------- #
    def contains(self, key: str, count: bool = True) -> bool:
        status, _, _ = self._request("HEAD", f"/entry/{check_key(key)}")
        present = status == 200
        if not present and count:
            self._session["misses"] += 1
        return present

    __contains__ = contains

    def get_bytes(self, key: str) -> bytes:
        status, blob, headers = self._request("GET",
                                              f"/entry/{check_key(key)}")
        if status != 200:
            self._session["misses"] += 1
            if b"quarantined" in blob:
                self._session["quarantined"] += 1
            raise KeyError(f"{key} ({self._json(blob).get('error', status)})")
        expected = headers.get(CHECKSUM_HEADER.title())
        if "sha256:" + hashlib.sha256(blob).hexdigest() != expected:
            self._session["misses"] += 1
            raise KeyError(f"{key} (payload damaged in transit)")
        return blob

    def put_bytes(self, key: str, blob: bytes,
                  metadata: Optional[Dict[str, Any]] = None) -> str:
        headers = {"Content-Type": "application/octet-stream"}
        if metadata:
            headers[META_HEADER] = base64.b64encode(
                json.dumps(metadata, default=str).encode("utf-8")
            ).decode("ascii")
        status, body, _ = self._request("PUT", f"/entry/{check_key(key)}",
                                        body=blob, headers=headers)
        if status != 200:
            raise StoreUnavailableError(
                f"store daemon {self.url} refused PUT {key}: "
                f"{self._json(body).get('error', status)}")
        self._session["bytes_written"] += len(blob)
        return f"{self.url}/entry/{key}"

    def metadata(self, key: str) -> Dict[str, Any]:
        status, body, _ = self._request("GET", f"/meta/{check_key(key)}")
        return self._json(body) if status == 200 else {}

    def discard(self, key: str) -> bool:
        status, body, _ = self._request("DELETE",
                                        f"/entry/{check_key(key)}")
        return status == 200 and bool(self._json(body).get("removed"))

    def keys(self) -> Iterator[str]:
        status, body, _ = self._request("GET", "/keys")
        if status != 200:
            return iter(())
        return iter(self._json(body) or [])

    def verify(self) -> Dict[str, Any]:
        status, body, _ = self._request("POST", "/verify")
        return self._json(body) if status == 200 else {}

    def gc(self, max_bytes: Optional[int] = None,
           max_entries: Optional[int] = None) -> Dict[str, Any]:
        query = "&".join(f"{name}={value}" for name, value in
                         (("max_bytes", max_bytes),
                          ("max_entries", max_entries)) if value is not None)
        status, body, _ = self._request("POST",
                                        "/gc" + (f"?{query}" if query else ""))
        summary = self._json(body)
        if status != 200:
            raise ValueError(summary.get("error", f"gc failed ({status})"))
        return summary

    def corrupt_entry(self, key: str) -> None:
        """Chaos hook: damage the stored payload bytes server-side."""
        self._request("POST", f"/corrupt/{check_key(key)}")

    def stats(self) -> Dict[str, Any]:
        status, body, _ = self._request("GET", "/stats")
        stats = self._json(body) if status == 200 else {}
        stats["url"] = self.url
        return stats

    def session_stats(self) -> Dict[str, int]:
        return dict(self._session)

    def ping(self) -> bool:
        try:
            status, _, _ = self._request("GET", "/health")
        except StoreUnavailableError:
            return False
        return status == 200


__all__ = ["CHECKSUM_HEADER", "META_HEADER", "RemoteStore", "StoreServer",
           "StoreServerThread", "StoreUnavailableError"]
