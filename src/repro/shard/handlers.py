"""HTTP surface of the shard router.

:class:`RouterRequestHandler` is the router tier's route table over the
shared :class:`~repro.serve.handlers.RoutedRequestHandler` base, mapping
the worker URL surface onto :class:`~repro.shard.router.ShardRouter`
methods.  The ``endpoint`` column is the label the route's requests carry
in ``repro_router_requests_total`` and ``repro_router_request_seconds``;
anything else is ``unknown``.

====== ======================== ============= ==============================================
method path                     endpoint      router call
====== ======================== ============= ==============================================
GET    /healthz                 healthz       :meth:`ShardRouter.healthz` (aggregated)
GET    /metrics                 metrics       :meth:`ShardRouter.metrics_text` (merged)
GET    /sphere/{node}           sphere        :meth:`ShardRouter.sphere` (relayed)
GET    /cascades/{node}[?world] cascades      :meth:`ShardRouter.cascades` (relayed)
POST   /spheres                 spheres_batch :meth:`ShardRouter.sphere_batch` (scatter)
POST   /admin/reload            admin_reload  :meth:`ShardRouter.reload` (rolling)
POST   /admin/scrub             admin_scrub   :meth:`ShardRouter.scrub` (anti-entropy)
POST   /admin/repair            admin_repair  :meth:`ShardRouter.repair` (anti-entropy)
POST   /jobs/infmax             jobs          :meth:`ShardRouter.relay_jobs` (relayed)
GET    /jobs[/{a}[/{b}]]        jobs          :meth:`ShardRouter.relay_jobs` (relayed)
POST   /jobs/{id}/cancel        jobs          :meth:`ShardRouter.relay_jobs` (relayed)
====== ======================== ============= ==============================================

Single-node responses are *relays*: the worker's status, body bytes,
``Content-Type`` and ``Retry-After`` pass through unchanged, so a client
cannot tell a routed response from a direct worker hit — including the
worker's own 429/503/504 refusals.  Router-originated refusals (breaker
open, worker down, malformed request) render through the same JSON error
shape the workers use.
"""

from __future__ import annotations

from urllib.parse import urlsplit

from repro.serve.app import DrainingHTTPServer
from repro.serve.errors import BadRequest
from repro.serve.handlers import RoutedRequestHandler
from repro.shard.router import RelayResponse, ShardRouter


class RouterRequestHandler(RoutedRequestHandler):
    """Routes requests to the server's :class:`ShardRouter`."""

    server_version = "repro-router/1.0"

    @property
    def router(self) -> ShardRouter:
        return self.server.backend

    def _send_relay(self, response: RelayResponse) -> int:
        """Pass a worker response through byte-for-byte."""
        content_type = response.headers.get("Content-Type", "application/json")
        extra = tuple(
            ("Retry-After", value)
            for value in (response.headers.get("Retry-After"),)
            if value is not None
        )
        self._send(
            response.status,
            response.body,
            content_type=content_type,
            extra_headers=extra,
        )
        return response.status

    # -- endpoint bodies (each returns the response status it sent) ----------

    def _handle_healthz(self) -> int:
        status, payload = self.router.healthz()
        self._send_json(status, payload)
        return status

    def _handle_metrics(self) -> int:
        body = self.router.metrics_text().encode("utf-8")
        self._send(200, body, content_type="text/plain; version=0.0.4")
        return 200

    def _handle_sphere(self, raw_node: str) -> int:
        node = self._parse_int(raw_node, "node")
        return self._send_relay(self.router.sphere(node))

    def _handle_cascades(self, raw_node: str) -> int:
        node = self._parse_int(raw_node, "node")
        params = self._query_params()
        world = None
        if "world" in params:
            world = self._parse_int(params["world"], "world")
        return self._send_relay(self.router.cascades(node, world))

    def _handle_batch(self) -> int:
        payload = self._read_json_body(required=True)
        if not isinstance(payload, dict) or "nodes" not in payload:
            raise BadRequest('body must be a JSON object {"nodes": [...]}')
        nodes = payload["nodes"]
        if not isinstance(nodes, list):
            raise BadRequest("'nodes' must be a list of integers")
        self._send_json(200, self.router.sphere_batch(nodes))
        return 200

    def _handle_reload(self) -> int:
        status, payload = self.router.reload()
        self._send_json(status, payload)
        return status

    def _handle_scrub(self) -> int:
        status, payload = self.router.scrub()
        self._send_json(status, payload)
        return status

    def _handle_repair(self) -> int:
        payload = self._read_json_body(required=True)
        if not isinstance(payload, dict):
            raise BadRequest(
                'body must be a JSON object {"shard": s, "replica": r}'
            )
        shard_id = self._body_int(payload, "shard")
        replica = self._body_int(payload, "replica")
        source = None
        if payload.get("source_replica") is not None:
            source = self._body_int(payload, "source_replica")
        status, report = self.router.repair(
            shard_id, replica, source_replica=source
        )
        self._send_json(status, report)
        return status

    @staticmethod
    def _body_int(payload: dict, name: str) -> int:
        value = payload.get(name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise BadRequest(f"'{name}' must be an integer, got {value!r}")
        return value

    def _handle_jobs_relay(self, *_segments: str) -> int:
        """Relay a /jobs/* request to the fleet's dedicated jobs worker.

        The body passes through as raw bytes (size-capped here, validated
        by the jobs worker) and the response relays verbatim, so a routed
        job call is byte-identical to a direct worker hit.
        """
        path = urlsplit(self.path).path.rstrip("/")
        body = self._read_body() if self.command == "POST" else None
        return self._send_relay(self.router.relay_jobs(self.command, path, body))

    routes = (
        ("GET", "/healthz", "healthz", _handle_healthz),
        ("GET", "/metrics", "metrics", _handle_metrics),
        ("GET", "/sphere/{node}", "sphere", _handle_sphere),
        ("GET", "/cascades/{node}", "cascades", _handle_cascades),
        ("GET", "/jobs", "jobs", _handle_jobs_relay),
        ("GET", "/jobs/{id}", "jobs", _handle_jobs_relay),
        ("GET", "/jobs/{id}/{tail}", "jobs", _handle_jobs_relay),
        ("POST", "/spheres", "spheres_batch", _handle_batch),
        ("POST", "/admin/reload", "admin_reload", _handle_reload),
        ("POST", "/admin/scrub", "admin_scrub", _handle_scrub),
        ("POST", "/admin/repair", "admin_repair", _handle_repair),
        ("POST", "/jobs/infmax", "jobs", _handle_jobs_relay),
        ("POST", "/jobs/{id}/cancel", "jobs", _handle_jobs_relay),
    )


def make_router_server(
    router: ShardRouter, host: str = "127.0.0.1", port: int = 0
) -> DrainingHTTPServer:
    """Bind a draining router server (``port=0`` = ephemeral)."""
    return DrainingHTTPServer((host, port), RouterRequestHandler, router)
