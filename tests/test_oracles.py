import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.stats import ks_2samp

from irsfleet import oracles
from irsfleet.channel import rician_amplitude_mean
from irsfleet.oracles import empirical_cascade_amplification, sample_rician_fading

CHUNK = oracles._CHUNK_DRAWS
DRAW_COUNTS = [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 17]


def _caller():
    return np.random.Generator(np.random.PCG64(20260810))


def _report_cores(monkeypatch, cores):
    """Make the oracle see `cores` usable cores."""
    monkeypatch.setattr(oracles, "_usable_cores", lambda: cores)


@pytest.mark.parametrize("n_draws", DRAW_COUNTS)
def test_cascade_oracle_is_independent_of_worker_count(n_draws, monkeypatch):
    results = set()
    # None is the machine's own core count; 2 twice checks repeats.
    for cores in (1, 2, 3, None, 2):
        if cores is None:
            monkeypatch.undo()
        else:
            _report_cores(monkeypatch, cores)
        rng = _caller()
        results.add(empirical_cascade_amplification(5, 10.0, n_draws, rng))
        # The caller's generator advances by exactly one draw.
        expect = _caller()
        expect.integers(2**63)
        assert rng.random() == expect.random()
    assert len(results) == 1
    (value,) = results
    assert np.isfinite(value) and value > 0.0


@pytest.mark.parametrize("k", [0.0, 10.0])
def test_cascade_oracle_matches_a_loop_over_chunk_streams(k, monkeypatch):
    # Reference: each chunk's amplitudes drawn from its own keyed PCG64
    # stream in the sampler's order (a's radius uniforms, a's phase
    # uniforms, then b's; no phase at K = 0), built in float32 as
    # |c + R e^(2 pi i U2)| with R = sqrt(-2 log(1 - U1)) in scatter-scale
    # units, the phase-aligned product summed per draw, accumulated in
    # double precision and scaled by s^4 at the end.
    n, n_draws = 4, 2 * CHUNK + 3
    key = int(_caller().integers(2**63))
    c = np.float32(np.sqrt(2.0 * k))
    total = 0.0
    for chunk, start in enumerate(range(0, n_draws, CHUNK)):
        rows = min(CHUNK, n_draws - start)
        seed = np.random.SeedSequence([key, chunk])
        rng = np.random.Generator(np.random.PCG64(seed))
        amps = []
        for _ in range(2):
            u = rng.random((rows, n), dtype=np.float32)
            r = np.sqrt(np.log(1 - u) * np.float32(-2))
            if k == 0:
                amps.append(r)
                continue
            u = rng.random((rows, n), dtype=np.float32)
            cos = np.cos(u * np.float32(np.pi))
            d = r - c
            amps.append(np.sqrt(d * d + cos * cos * r * (np.float32(4) * c)))
        s = np.einsum("ij,ij->i", *amps).astype(np.float64)
        total += float(np.square(s).sum())
    expect = total * (0.5 / (1.0 + k)) ** 2 / float(n_draws)
    _report_cores(monkeypatch, 2)
    assert empirical_cascade_amplification(n, k, n_draws, _caller()) == expect


@pytest.mark.parametrize("k", [0.0, 1.0, 10.0, 100.0])
def test_polar_amplitudes_match_the_cartesian_sampler(k):
    # The oracle's polar draws and `sample_rician_fading`'s cartesian ones
    # share no code; both must follow the same Rician law.
    rows, n = 2000, 100
    worker = oracles._CascadeWorker(n, k, rows)
    worker._amplitudes(worker.a, np.random.Generator(np.random.PCG64(31)))
    polar = worker.a.ravel() * np.sqrt(1.0 / (2.0 * (1.0 + k)))
    cartesian = np.abs(
        sample_rician_fading(k, rows * n, np.random.Generator(np.random.Philox(37)))
    )
    assert ks_2samp(polar, cartesian).pvalue > 0.01
    root_n = np.sqrt(polar.size)
    mean = np.sqrt(np.pi) / 2.0 * rician_amplitude_mean(k)
    assert abs(polar.mean() - mean) < 5 * polar.std() / root_n
    power = polar * polar
    assert abs(power.mean() - 1.0) < 5 * power.std() / root_n


def test_polar_amplitudes_stay_finite_at_a_huge_factor_and_one_draw():
    worker = oracles._CascadeWorker(64, 1e6, 1)
    assert np.isfinite(worker.chunk_sum(5, 0, 1))
    assert np.isfinite(worker.a).all() and np.isfinite(worker.b).all()
    value = empirical_cascade_amplification(64, 1e6, 1, _caller())
    assert np.isfinite(value) and value > 0.0


@pytest.mark.parametrize("k", [0.0, 10.0])
def test_a_warm_worker_samples_a_chunk_in_place(k):
    # Each worker holds three (rows, N) buffers and no temporaries, which
    # is what `_DRAWS_IN_FLIGHT` budgets for.
    worker = oracles._CascadeWorker(256, k, CHUNK)
    worker.chunk_sum(11, 0, CHUNK)
    tracemalloc.start()
    try:
        worker.chunk_sum(11, 1, CHUNK)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < worker.a.nbytes / 8


def test_more_workers_than_cores_under_rapid_switching_lose_no_chunk(monkeypatch):
    # Every chunk writes its own slot of the shared sum list; a lost or
    # misplaced write would change the total.
    n_draws = 8 * CHUNK + 5
    _report_cores(monkeypatch, 1)
    serial = empirical_cascade_amplification(2, 0.0, n_draws, _caller())
    _report_cores(monkeypatch, 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = empirical_cascade_amplification(2, 0.0, n_draws, _caller())
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_small_draw_counts_start_one_worker_and_leave_no_threads(monkeypatch):
    built = []

    class CountingWorker(oracles._CascadeWorker):
        def __init__(self, n, k, rows):
            built.append(rows)
            super().__init__(n, k, rows)

    monkeypatch.setattr(oracles, "_CascadeWorker", CountingWorker)
    _report_cores(monkeypatch, 3)
    before = set(threading.enumerate())
    empirical_cascade_amplification(8, 0.0, CHUNK - 1, _caller())
    # One worker, with buffers no larger than the draws it makes.
    assert built == [CHUNK - 1]
    assert set(threading.enumerate()) == before
    built.clear()
    empirical_cascade_amplification(8, 0.0, 3 * CHUNK + 17, _caller())
    # At most one full-chunk worker per thread; an idle thread may take
    # no chunk and build none.
    assert 1 <= len(built) <= 3 and set(built) == {CHUNK}
    assert set(threading.enumerate()) == before


def test_worker_errors_reach_the_caller(monkeypatch):
    def broken(self, key, chunk, rows):
        raise RuntimeError(f"chunk {chunk} failed")

    monkeypatch.setattr(oracles._CascadeWorker, "chunk_sum", broken)
    _report_cores(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="chunk 0 failed"):
        empirical_cascade_amplification(4, 0.0, 2 * CHUNK, _caller())


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity mask")
def test_workers_are_pinned_to_distinct_cores_and_the_caller_is_not(monkeypatch):
    allowed = os.sched_getaffinity(0)
    masks = []

    class RecordingWorker(oracles._CascadeWorker):
        def __init__(self, n, k, rows):
            masks.append(os.sched_getaffinity(0))
            super().__init__(n, k, rows)

    monkeypatch.setattr(oracles, "_CascadeWorker", RecordingWorker)
    _report_cores(monkeypatch, len(allowed))
    empirical_cascade_amplification(2, 0.0, 8 * CHUNK, _caller())
    assert all(len(mask) == 1 and mask <= allowed for mask in masks)
    assert len(set(map(frozenset, masks))) == len(masks)
    assert os.sched_getaffinity(0) == allowed
