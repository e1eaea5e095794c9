"""Scaling to the reference CPU speed."""

import pytest

from benchlib import speed


def test_factor_is_reference_over_the_median_probe_since_the_mark():
    meter = speed.Meter()
    meter._samples[:] = [9.0, 1.8, 0.45, 0.9]
    assert meter.factor(1) == pytest.approx(speed.REF_MS / 0.9)
    assert meter.scaled_since(1, 2.0) == pytest.approx(2.0 * speed.REF_MS / 0.9)


def test_factor_falls_back_to_the_latest_probe():
    meter = speed.Meter()
    meter._samples[:] = [9.0, 1.8]
    assert meter.factor(2) == pytest.approx(speed.REF_MS / 1.8)


def test_factor_needs_a_probe():
    with pytest.raises(RuntimeError):
        speed.Meter().factor(0)


def test_meter_probes_while_work_runs_and_restores_affinity():
    import os
    import time

    before = os.sched_getaffinity(0)
    with speed.Meter(interval=0.01) as meter:
        time.sleep(0.1)
        assert os.sched_getaffinity(0) == {min(before)}
    assert meter.mark() >= 1
    assert os.sched_getaffinity(0) == before
