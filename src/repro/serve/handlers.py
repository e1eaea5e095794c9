"""The HTTP front shared by both serving tiers.

:class:`RoutedRequestHandler` holds the transport plumbing once — JSON
rendering, error documents, the size-capped body reader, metrics
recording and route matching — for the worker tier
(:class:`SphereRequestHandler`, below) and the router tier
(:class:`~repro.shard.handlers.RouterRequestHandler`).  Each tier declares
one route table of ``(method, path pattern, endpoint label, handler)``
rows.  The labels are a stable metrics contract: they are the ``endpoint``
values of the tier's ``*_requests_total`` / ``*_request_seconds`` series,
and a request no route matches is labelled ``unknown``.

The worker tier maps the URL surface onto
:class:`~repro.serve.app.SphereService` methods:

====== ======================== ============= ================================
method path                     endpoint      service call
====== ======================== ============= ================================
GET    /healthz                 healthz       :meth:`SphereService.healthz`
GET    /metrics                 metrics       :meth:`SphereService.metrics_text`
GET    /sphere/{node}           sphere        :meth:`SphereService.sphere`
GET    /cascades/{node}         cascades      :meth:`SphereService.cascades`
GET    /cascades/{node}?world=i cascades      :meth:`SphereService.cascades`
GET    /most-reliable           most_reliable :meth:`SphereService.most_reliable`
POST   /spheres                 spheres_batch :meth:`SphereService.sphere_batch`
POST   /admin/reload            admin_reload  :meth:`SphereService.reload`
POST   /jobs/infmax             jobs_submit   :meth:`JobManager.submit` (``202``;
                                              ``200`` when an idempotency key
                                              deduplicates)
GET    /jobs                    jobs_list     :meth:`JobManager.list_jobs`
GET    /jobs/{id}               jobs_status   :meth:`JobManager.status`
GET    /jobs/{id}/result        jobs_result   :meth:`JobManager.result`
POST   /jobs/{id}/cancel        jobs_cancel   :meth:`JobManager.cancel`
====== ======================== ============= ================================

The ``/jobs`` family answers ``404`` when no job manager is attached
(server started without ``--jobs``).

Every JSON body is rendered by :func:`~repro.serve.query.canonical_json`,
so a handler response and the CLI's ``index query --json`` output are
byte-identical for the same query.  Failures are JSON error documents
``{"error": {"status": ..., "message": ...}}``; retryable refusals
(``429`` shed, ``503`` breaker-open) additionally carry a ``Retry-After``
header.

No input reaches a traceback: bodies over :data:`MAX_BODY_BYTES` are
refused with ``413`` *before* being read or JSON-parsed, malformed input
of any shape maps to a clean 4xx, unknown methods get a JSON ``501``
(via the :meth:`send_error` override), and an unexpected exception in a
handler becomes a sanitized JSON ``500`` naming only the exception type.
"""

from __future__ import annotations

import json
import time
from functools import partial
from http.server import BaseHTTPRequestHandler
from typing import Any, Callable
from urllib.parse import parse_qs, urlsplit

from repro.jobs.errors import JobNotFound
from repro.serve.errors import (
    BadRequest,
    NodeNotFound,
    PayloadTooLarge,
    RetryableError,
    ServeError,
)
from repro.serve.query import canonical_json

#: Max accepted request body (1 MiB — thousands of node ids).
MAX_BODY_BYTES = 1 << 20

#: ``(method, path pattern, endpoint label, handler)``.  ``{name}``
#: segments of the pattern bind positional string arguments of the
#: handler, which sends the response and returns its status.
Route = tuple[str, str, str, Callable[..., int]]


def _match(pattern: str, path: str, parts: list[str]) -> list[str] | None:
    """The arguments ``pattern`` binds on ``path``, or ``None``.

    A fixed pattern must equal the path; a pattern with ``{name}``
    segments is matched against the path's non-empty segments.
    """
    if "{" not in pattern:
        return [] if pattern == path else None
    wanted = pattern.strip("/").split("/")
    if len(wanted) != len(parts):
        return None
    args = []
    for want, got in zip(wanted, parts):
        if want.startswith("{"):
            args.append(got)
        elif want != got:
            return None
    return args


class RoutedRequestHandler(BaseHTTPRequestHandler):
    """JSON-over-HTTP plumbing and route matching for one serving tier.

    Subclasses set ``server_version`` and :attr:`routes`.  The server's
    ``backend`` (see :class:`~repro.serve.app.DrainingHTTPServer`) must
    expose the ``request_seconds`` histogram and ``requests_total``
    counter every routed request is recorded in.
    """

    protocol_version = "HTTP/1.1"
    routes: tuple[Route, ...] = ()

    # Per-request access logging off by default: the tiers are instrumented
    # through /metrics instead, and the hammer tests would flood stderr.
    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass

    # -- plumbing ------------------------------------------------------------

    @staticmethod
    def _parse_int(raw: str, name: str) -> int:
        try:
            return int(raw)
        except ValueError:
            raise BadRequest(f"{name} must be an integer, got {raw!r}") from None

    def _send(
        self,
        status: int,
        body: bytes,
        content_type: str = "application/json",
        extra_headers: tuple[tuple[str, str], ...] = (),
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in extra_headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_json(self, status: int, payload: Any, **kwargs) -> None:
        self._send(status, canonical_json(payload), **kwargs)

    def _send_error_payload(self, exc: ServeError) -> None:
        extra: tuple[tuple[str, str], ...] = ()
        if isinstance(exc, RetryableError):
            extra = (("Retry-After", format(exc.retry_after, "g")),)
        self._send_json(
            exc.status,
            {"error": {"status": exc.status, "message": exc.message}},
            extra_headers=extra,
        )

    def send_error(self, code, message=None, explain=None) -> None:  # noqa: D102
        # http.server calls this for transport-level failures (unsupported
        # method -> 501, bad request line -> 400); emit the same JSON error
        # shape as every routed failure instead of the default HTML page.
        code = int(code)
        if message is None:
            short, _ = self.responses.get(code, ("error", ""))
            message = short
        self.close_connection = True
        try:
            body = canonical_json(
                {"error": {"status": code, "message": str(message)}}
            )
            self.send_response(code, str(message))
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.send_header("Connection", "close")
            self.end_headers()
            if self.command != "HEAD":
                self.wfile.write(body)
        except OSError:
            pass  # client already gone

    def _dispatch(self, endpoint: str, handler: Callable[[], int]) -> None:
        """Run one routed handler, recording latency and outcome metrics.

        Every exception class ends as a JSON response: :class:`ServeError`
        with its own status, a vanished client silently, and anything else
        (an injected chaos fault included) as a sanitized ``500`` that
        names the exception type but leaks no message or traceback.
        """
        backend = self.server.backend
        start = time.perf_counter()
        status = 500
        try:
            status = handler()
        except ServeError as exc:
            status = exc.status
            self._send_error_payload(exc)
        except BrokenPipeError:
            pass  # client went away mid-response; nothing left to send
        except Exception as exc:
            status = 500
            try:
                self._send_json(
                    500,
                    {"error": {"status": 500,
                               "message": f"internal error ({type(exc).__name__})"}},
                )
            except OSError:
                pass
        finally:
            backend.request_seconds.observe(
                time.perf_counter() - start, endpoint=endpoint
            )
            backend.requests_total.inc(endpoint=endpoint, status=str(status))

    def _query_params(self) -> dict[str, str]:
        parsed = parse_qs(urlsplit(self.path).query, keep_blank_values=False)
        return {name: values[-1] for name, values in parsed.items()}

    def _read_body(self) -> bytes | None:
        """The raw request body (``None`` if empty), size-capped before the read."""
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            raise BadRequest("Content-Length must be an integer") from None
        if length <= 0:
            return None
        if length > MAX_BODY_BYTES:
            raise PayloadTooLarge(
                f"body of {length} bytes exceeds the {MAX_BODY_BYTES} limit"
            )
        return self.rfile.read(length)

    def _read_json_body(self, *, required: bool) -> Any:
        """The request body as parsed JSON (``None`` if empty and optional)."""
        raw = self._read_body()
        if raw is None:
            if required:
                raise BadRequest("this endpoint needs a JSON body")
            return None
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise BadRequest(f"body is not valid JSON: {exc}") from None

    # -- routing -------------------------------------------------------------

    def _route(self) -> None:
        path = urlsplit(self.path).path.rstrip("/") or "/"
        parts = [p for p in path.split("/") if p]
        for method, pattern, endpoint, handler in self.routes:
            if method != self.command:
                continue
            args = _match(pattern, path, parts)
            if args is not None:
                self._dispatch(endpoint, partial(handler, self, *args))
                return
        self._dispatch("unknown", self._handle_unknown)

    do_GET = do_POST = _route  # noqa: N815 - http.server API

    def _handle_unknown(self) -> int:
        raise NodeNotFound(f"no route for {self.command} {self.path}")


class SphereRequestHandler(RoutedRequestHandler):
    """Routes requests to the server's :class:`SphereService`."""

    server_version = "repro-serve/1.0"

    @property
    def service(self):
        return self.server.backend

    # -- endpoint bodies (each returns the response status it sent) ----------

    def _handle_healthz(self) -> int:
        self._send_json(200, self.service.healthz())
        return 200

    def _handle_metrics(self) -> int:
        body = self.service.metrics_text().encode("utf-8")
        self._send(200, body, content_type="text/plain; version=0.0.4")
        return 200

    def _handle_sphere(self, raw_node: str) -> int:
        node = self._parse_int(raw_node, "node")
        self._send_json(200, self.service.sphere(node))
        return 200

    def _handle_cascades(self, raw_node: str) -> int:
        node = self._parse_int(raw_node, "node")
        params = self._query_params()
        world = None
        if "world" in params:
            world = self._parse_int(params["world"], "world")
        self._send_json(200, self.service.cascades(node, world))
        return 200

    def _handle_most_reliable(self) -> int:
        params = self._query_params()
        count = self._parse_int(params.get("count", "10"), "count")
        min_size = self._parse_int(params.get("min-size", "2"), "min-size")
        self._send_json(200, self.service.most_reliable(count, min_size))
        return 200

    def _handle_batch(self) -> int:
        payload = self._read_json_body(required=True)
        if not isinstance(payload, dict) or "nodes" not in payload:
            raise BadRequest('body must be a JSON object {"nodes": [...]}')
        nodes = payload["nodes"]
        if not isinstance(nodes, list):
            raise BadRequest("'nodes' must be a list of integers")
        self._send_json(200, self.service.sphere_batch(nodes))
        return 200

    def _handle_reload(self) -> int:
        payload = self._read_json_body(required=False)
        index_path = None
        spheres_path = None
        if payload is not None:
            if not isinstance(payload, dict):
                raise BadRequest(
                    'reload body must be a JSON object, e.g. {"index": "path"}'
                )
            index_path = payload.get("index")
            spheres_path = payload.get("spheres")
            for name, value in (("index", index_path), ("spheres", spheres_path)):
                if value is not None and not isinstance(value, str):
                    raise BadRequest(f"'{name}' must be a path string")
        self._send_json(200, self.service.reload(index_path, spheres_path))
        return 200

    # -- jobs endpoints ------------------------------------------------------

    def _jobs(self):
        manager = self.service.jobs
        if manager is None:
            raise JobNotFound(
                "the job service is not enabled on this server "
                "(start it with --jobs)"
            )
        return manager

    def _handle_job_submit(self) -> int:
        manager = self._jobs()
        payload = self._read_json_body(required=True)
        if not isinstance(payload, dict):
            raise BadRequest(
                'body must be a JSON object, e.g. {"model": "celfpp", "k": 5}'
            )
        view = manager.submit(payload)
        status = 200 if view.get("deduplicated") else 202
        self._send_json(status, view)
        return status

    def _handle_jobs_list(self) -> int:
        self._send_json(200, self._jobs().list_jobs())
        return 200

    def _handle_job_status(self, job_id: str) -> int:
        self._send_json(200, self._jobs().status(job_id))
        return 200

    def _handle_job_result(self, job_id: str) -> int:
        self._send_json(200, self._jobs().result(job_id))
        return 200

    def _handle_job_cancel(self, job_id: str) -> int:
        self._send_json(200, self._jobs().cancel(job_id))
        return 200

    routes = (
        ("GET", "/healthz", "healthz", _handle_healthz),
        ("GET", "/metrics", "metrics", _handle_metrics),
        ("GET", "/sphere/{node}", "sphere", _handle_sphere),
        ("GET", "/cascades/{node}", "cascades", _handle_cascades),
        ("GET", "/most-reliable", "most_reliable", _handle_most_reliable),
        ("GET", "/jobs", "jobs_list", _handle_jobs_list),
        ("GET", "/jobs/{id}", "jobs_status", _handle_job_status),
        ("GET", "/jobs/{id}/result", "jobs_result", _handle_job_result),
        ("POST", "/spheres", "spheres_batch", _handle_batch),
        ("POST", "/admin/reload", "admin_reload", _handle_reload),
        ("POST", "/jobs/infmax", "jobs_submit", _handle_job_submit),
        ("POST", "/jobs/{id}/cancel", "jobs_cancel", _handle_job_cancel),
    )
