"""Online sphere-query serving (Section 8's "reuse the same spheres").

The paper's spheres of influence are precomputed summaries meant to be
*queried at decision time*; this package is the online read path over the
persistent stores the rest of the library builds: a stdlib-only HTTP/JSON
service (``python -m repro serve``) that answers sphere and cascade queries
straight from a memory-mapped index, with an LRU cache, single-flight
request coalescing and load shedding protecting the on-demand compute path.

Layers (transport-independent core first):

* :mod:`repro.serve.app` — :class:`SphereService`, the draining server
  and the signal loop, both shared with the router tier;
* :mod:`repro.serve.handlers` — the HTTP handler base shared by both
  tiers, and the worker tier's route table;
* :mod:`repro.serve.query` — canonical JSON payloads (shared with the CLI);
* :mod:`repro.serve.cache` / :mod:`repro.serve.coalesce` — hot-path guards;
* :mod:`repro.serve.metrics` — Prometheus text-format instrumentation;
* :mod:`repro.serve.errors` — HTTP-mapped exception hierarchy.
"""

from repro.serve.app import (
    DrainingHTTPServer,
    SphereService,
    make_server,
    run_until_signal,
)
from repro.serve.cache import LRUCache
from repro.serve.coalesce import SingleFlight
from repro.serve.errors import BadRequest, NodeNotFound, ServeError, ShedLoad
from repro.serve.metrics import Counter, Histogram, MetricsRegistry

__all__ = [
    "BadRequest",
    "Counter",
    "DrainingHTTPServer",
    "Histogram",
    "LRUCache",
    "MetricsRegistry",
    "NodeNotFound",
    "ServeError",
    "ShedLoad",
    "SingleFlight",
    "SphereService",
    "make_server",
    "run_until_signal",
]
