"""Router-specific refusals, extending the serve error hierarchy.

The router never invents data: a request either relays a worker response
verbatim (including the worker's own 4xx/5xx JSON surface) or fails with
one of these explicit errors.  Both tiers render errors through the
shared handler base (:class:`repro.serve.handlers.RoutedRequestHandler`),
so clients see one uniform error shape whether the refusal happened in a
worker or in the router.

====  ==========================  ========================================
code  exception                   cause
====  ==========================  ========================================
502   :class:`UpstreamError`      the worker connection failed mid-request
                                  (reset, protocol error, injected fault)
503   :class:`ShardUnavailable`   the shard's worker is down/respawning or
                                  its router-side circuit breaker is open
====  ==========================  ========================================
"""

from __future__ import annotations

from repro.serve.errors import RetryableError, ServeError


class UpstreamError(ServeError):
    """The forward to a worker failed at the transport layer.

    The worker may or may not have processed the request; the router
    cannot know, so it refuses explicitly instead of retrying (a retry
    could double-run a non-idempotent admin call)."""

    status = 502


class ShardUnavailable(RetryableError):
    """The shard cannot take traffic right now: its worker process is down
    (the fleet supervisor is respawning it) or the router's per-shard
    circuit breaker is open after repeated transport failures.  Carries a
    ``Retry-After`` hint; other shards keep serving."""

    status = 503
