"""Unit tests for the stdlib metrics registry, and the endpoint-label
contract both serving tiers record requests under."""

import collections
import re
import threading
import time

import pytest

from repro.serve.metrics import Counter, Histogram, MetricsRegistry
from tests.serve.conftest import RunningServer, make_service


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        c = Counter("x_total", "help")
        assert c.value() == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value() == pytest.approx(3.5)

    def test_labelled_children_are_independent(self):
        c = Counter("x_total", "help")
        c.inc(endpoint="sphere", status="200")
        c.inc(endpoint="sphere", status="404")
        c.inc(endpoint="sphere", status="200")
        assert c.value(endpoint="sphere", status="200") == pytest.approx(2.0)
        assert c.value(endpoint="sphere", status="404") == pytest.approx(1.0)
        assert c.total() == pytest.approx(3.0)

    def test_rejects_decrease(self):
        with pytest.raises(ValueError, match="cannot decrease"):
            Counter("x_total", "help").inc(-1)

    def test_render_sorts_label_sets(self):
        c = Counter("x_total", "help")
        c.inc(status="404")
        c.inc(status="200")
        assert list(c.render()) == [
            'x_total{status="200"} 1',
            'x_total{status="404"} 1',
        ]

    def test_concurrent_increments_all_land(self):
        c = Counter("x_total", "help")

        def spin():
            for _ in range(500):
                c.inc()

        threads = [threading.Thread(target=spin) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value() == pytest.approx(4000.0)


class TestHistogram:
    def test_buckets_are_cumulative(self):
        h = Histogram("lat_seconds", "help", buckets=(0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        h.observe(5.0)
        lines = list(h.render())
        assert 'lat_seconds_bucket{le="0.1"} 1' in lines
        assert 'lat_seconds_bucket{le="1"} 2' in lines
        assert 'lat_seconds_bucket{le="+Inf"} 3' in lines
        assert "lat_seconds_count 3" in lines

    def test_count_by_labels(self):
        h = Histogram("lat_seconds", "help", buckets=(1.0,))
        h.observe(0.1, endpoint="sphere")
        h.observe(0.2, endpoint="sphere")
        assert h.count(endpoint="sphere") == 2
        assert h.count(endpoint="other") == 0

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            Histogram("h", "help", buckets=(1.0, 0.1))


class TestRegistry:
    def test_same_name_returns_same_metric(self):
        reg = MetricsRegistry()
        assert reg.counter("a_total", "h") is reg.counter("a_total", "h")

    def test_kind_conflict_rejected(self):
        reg = MetricsRegistry()
        reg.counter("a_total", "h")
        with pytest.raises(ValueError, match="already registered"):
            reg.histogram("a_total", "h")

    def test_render_is_sorted_and_typed(self):
        reg = MetricsRegistry()
        reg.counter("b_total", "second").inc()
        reg.counter("a_total", "first")
        text = reg.render()
        assert text.index("a_total") < text.index("b_total")
        assert "# HELP a_total first" in text
        assert "# TYPE b_total counter" in text
        # A registered-but-never-incremented counter still renders a sample.
        assert "\na_total 0\n" in text

    def test_render_is_deterministic(self):
        def build():
            reg = MetricsRegistry()
            reg.counter("r_total", "h").inc(status="200")
            reg.counter("r_total", "h").inc(status="404")
            reg.histogram("l_seconds", "h", buckets=(0.5,)).observe(0.1)
            return reg.render()

        assert build() == build()


#: Paths no route of either tier matches (``test_unknown_get_path_is_404``).
UNKNOWN_GETS = (
    "/", "/nope", "/sphere", "/sphere/1/extra", "/spheres", "/admin/reload",
    "/metrics/extra", "/../etc/passwd",
)

#: (method, path, body, endpoint label): one request per row of the
#: worker's route table, plus trailing-slash and unrouted variants.
SERVE_ROUTES = [
    ("GET", "/healthz", None, "healthz"),
    ("GET", "/healthz/", None, "healthz"),
    ("GET", "/metrics", None, "metrics"),
    ("GET", "/sphere/1", None, "sphere"),
    ("GET", "/sphere/1/", None, "sphere"),
    ("GET", "/cascades/1", None, "cascades"),
    ("GET", "/cascades/1?world=0", None, "cascades"),
    ("GET", "/most-reliable", None, "most_reliable"),
    ("POST", "/spheres", {"nodes": [1]}, "spheres_batch"),
    ("POST", "/spheres/", {"nodes": [1]}, "spheres_batch"),
    ("POST", "/admin/reload", None, "admin_reload"),
    ("POST", "/jobs/infmax", {}, "jobs_submit"),
    ("GET", "/jobs", None, "jobs_list"),
    ("GET", "/jobs/", None, "jobs_list"),
    ("GET", "/jobs/j1", None, "jobs_status"),
    ("GET", "/jobs/j1/result", None, "jobs_result"),
    ("POST", "/jobs/j1/cancel", None, "jobs_cancel"),
    ("POST", "/sphere/1", {}, "unknown"),
    ("GET", "/jobs/j1/extra", None, "unknown"),
    *(("GET", path, None, "unknown") for path in UNKNOWN_GETS),
]

#: The same for the router's route table; every /jobs route is ``jobs``.
ROUTER_ROUTES = [
    ("GET", "/healthz", None, "healthz"),
    ("GET", "/healthz/", None, "healthz"),
    ("GET", "/metrics", None, "metrics"),
    ("GET", "/sphere/1", None, "sphere"),
    ("GET", "/sphere/1/", None, "sphere"),
    ("GET", "/cascades/1", None, "cascades"),
    ("GET", "/cascades/1?world=0", None, "cascades"),
    ("POST", "/spheres", {"nodes": [1]}, "spheres_batch"),
    ("POST", "/spheres/", {"nodes": [1]}, "spheres_batch"),
    ("POST", "/admin/reload", None, "admin_reload"),
    ("POST", "/admin/scrub", None, "admin_scrub"),
    ("POST", "/admin/repair", {}, "admin_repair"),
    ("POST", "/jobs/infmax", {}, "jobs"),
    ("GET", "/jobs", None, "jobs"),
    ("GET", "/jobs/", None, "jobs"),
    ("GET", "/jobs/j1", None, "jobs"),
    ("GET", "/jobs/j1/result", None, "jobs"),
    ("GET", "/jobs/a/b", None, "jobs"),
    ("POST", "/jobs/j1/cancel", None, "jobs"),
    ("GET", "/most-reliable", None, "unknown"),
    ("POST", "/sphere/1", {}, "unknown"),
    ("GET", "/jobs/a/b/c", None, "unknown"),
    *(("GET", path, None, "unknown") for path in UNKNOWN_GETS),
]


@pytest.fixture(scope="module")
def serve_tier(index, sphere_store):
    server = RunningServer(make_service(index, spheres=sphere_store))
    yield server, server.service.requests_total
    server.close()


@pytest.fixture(scope="module")
def router_tier(running_router):
    return running_router, running_router.router.requests_total


def endpoint_counts(counter: Counter) -> collections.Counter:
    """Requests per ``endpoint`` label, summed over statuses."""
    counts: collections.Counter = collections.Counter()
    for line in counter.render():
        labels = dict(re.findall(r'(\w+)="([^"]*)"', line))
        if "endpoint" in labels:
            counts[labels["endpoint"]] += float(line.rsplit(" ", 1)[1])
    return counts


class TestEndpointLabels:
    """Dashboards key on these labels; a route-table edit must not move them."""

    @pytest.mark.parametrize(
        "tier,method,path,body,label",
        [
            pytest.param(tier, *row, id=f"{tier}:{row[0]} {row[1]}")
            for tier, rows in (("serve_tier", SERVE_ROUTES), ("router_tier", ROUTER_ROUTES))
            for row in rows
        ],
    )
    def test_route_records_its_label(self, request, tier, method, path, body, label):
        endpoint, counter = request.getfixturevalue(tier)
        before = endpoint_counts(counter)
        endpoint.request(path, method=method, body=body)
        # The counter moves after the response is written: poll briefly.
        deadline = time.monotonic() + 10
        while not (delta := endpoint_counts(counter) - before):
            assert time.monotonic() < deadline, "no request was recorded"
            time.sleep(0.005)
        assert delta == collections.Counter({label: 1})
