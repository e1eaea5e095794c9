"""One seed always gives the same inputs."""

import numpy as np

from benchlib import inputs


def mean_sizes():
    return np.random.default_rng(0).random(300) * 50


def test_node_set_is_a_function_of_the_seed():
    a = inputs.sweep_nodes(mean_sizes(), 7, top=8, uniform=40)
    assert a == inputs.sweep_nodes(mean_sizes(), 7, top=8, uniform=40)
    assert a != inputs.sweep_nodes(mean_sizes(), 8, top=8, uniform=40)
    heaviest = set(np.argsort(-mean_sizes())[:8].tolist())
    assert heaviest <= set(a) and len(set(a)) == 48


def test_request_list_is_a_function_of_the_seed():
    hot = list(range(0, 200, 5))
    a = inputs.serve_requests(3, hot, 200, 100, 300)
    assert a == inputs.serve_requests(3, hot, 200, 100, 300)
    assert a != inputs.serve_requests(4, hot, 200, 100, 300)
    kinds = {r.kind for r in a}
    assert kinds == {"sphere", "cascades", "batch"}
    for r in a:
        if r.kind == "batch":
            assert min(r.nodes) < 100 <= max(r.nodes)
            assert len(set(r.nodes)) == inputs.BATCH_SIZE


def test_job_sequence_is_a_function_of_the_seed():
    assert inputs.job_sequence(5, 3) == inputs.job_sequence(5, 3)
    assert inputs.job_sequence(5, 3) != inputs.job_sequence(6, 3)
    seq = inputs.job_sequence(5, 2)
    for cycle in (seq[:5], seq[5:]):
        assert sorted(p["model"] for p in cycle) == sorted(inputs.JOB_MODELS)
    assert seq[:5] == seq[5:]


def test_edge_file_bytes_are_a_function_of_the_seed(tmp_path):
    paths = [tmp_path / name for name in ("a", "b", "c")]
    sizes = [inputs.write_edge_file(str(p), seed, 250_000, 5000)
             for p, seed in zip(paths, (9, 9, 10))]
    a, b, c = (p.read_bytes() for p in paths)
    assert a == b and a != c
    assert sizes[0] == len(a)
    lines = a.decode().splitlines()
    data = [line.split("\t") for line in lines if not line.startswith("#")]
    assert len(data) == 250_000
    assert any(line.startswith("#") for line in lines[10:])
    assert any(u == v for u, v in data)
    assert len({tuple(p) for p in data}) < len(data)
