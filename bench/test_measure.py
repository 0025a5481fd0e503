"""Tests of the harness's own arithmetic and tracing.

    python3 -m pytest bench
"""

from __future__ import annotations

import io
import random
from pathlib import Path

import pytest

from measure import drift, quartiles, self_times, spread, tail
from tracer import Tracer, inversions

SRC = Path(__file__).resolve().parent.parent / "src"


def test_self_time_of_nested_spans():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.inner", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once_and_clips_them():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("x", 1.0, 5.0, 0),
        ("y", 3.0, 6.0, 0),   # overlaps x: union of x and y is 1..6
        ("z", 8.0, 12.0, 0),  # sticks out of root: only 8..10 counts
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_tail_with_more_than_ten_samples_beyond():
    samples = [float(x) for x in range(1, 101)]  # 1..100
    value, percentile, beyond = tail(samples)
    assert value == 90.0
    assert percentile == pytest.approx(90.0)
    assert beyond == 10
    assert sum(1 for x in samples if x > value) == 10


def test_tail_with_twenty_samples_is_the_median_rank():
    value, percentile, beyond = tail([float(x) for x in range(20, 0, -1)])
    assert (value, percentile, beyond) == (10.0, 50.0, 10)


def test_tail_with_fewer_than_ten_samples_beyond_falls_back_to_max():
    for samples in ([3.0], [5.0, 1.0, 2.0], [float(x) for x in range(10)]):
        assert tail(samples) == (max(samples), 100.0, 0)
    # eleven to nineteen samples: ten beyond would put the "tail" under the median
    for count in (11, 15, 19):
        samples = [float(x) for x in range(count)]
        assert tail(samples) == (max(samples), 100.0, 0)
    with pytest.raises(ValueError):
        tail([])


def test_spread_and_drift():
    values = [1.0, 2.0, 3.0, 4.0, 5.0]
    q1, q2, q3 = quartiles(values)
    assert q2 == 3.0
    assert spread(values) == pytest.approx((q3 - q1) / 3.0)
    assert drift(11.0, 10.0) == pytest.approx(0.1)
    assert drift(9.0, 10.0) == pytest.approx(0.1)


def test_inversions():
    assert inversions([1, 2, 3]) == 0
    assert inversions([3, 2, 1]) == 3
    assert inversions([2, 3, 1, 1]) == 4


@pytest.fixture
def minfact_module(monkeypatch):
    monkeypatch.syspath_prepend(str(SRC))
    import minfact

    return minfact


def test_tracer_spans_calls_at_every_import_site(minfact_module):
    mf = minfact_module
    original = mf.parking.park
    tracer = Tracer()
    tracer.install()
    try:
        assert mf.surjection.park is mf.parking.park is not original
        chain = mf.gamma(mf.PairAB(8, (1, 3, 7, 1), {1, 3, 5, 6, 7}))
    finally:
        tracer.uninstall()
    assert mf.parking.park is original and mf.surjection.park is original
    assert str(chain) == "(3 8)(5 7)(1 8)(3 7)"
    summary = tracer.summary()
    layers = summary["layers"]
    assert layers["surjection.gamma"]["calls"] == 1
    assert layers["parking.park"]["calls"] == 3
    assert layers["parking.residue"]["calls"] == 2
    assert layers["action.apply_permutation"]["calls"] == 1
    assert summary["hook_failures"] == 0
    assert summary["counters"]["parking.probes"] > 0
    gamma = layers["surjection.gamma"]
    assert 0 <= gamma["self_s"] <= gamma["total_s"]
    # every span's parent opened before it and encloses it
    for _, start, end, parent in tracer.spans():
        if parent >= 0:
            _, p_start, p_end, _ = tracer.spans()[parent]
            assert p_start <= start <= end <= p_end


def test_tracer_counts_generator_items_and_survives_missing_targets(minfact_module, monkeypatch):
    mf = minfact_module

    def streaming(n, k, cap=10):
        yield from ("a", "b", "c")

    monkeypatch.setattr(mf.chains, "enumerate_sigma", streaming)
    monkeypatch.delattr(mf.perms, "precedes")
    tracer = Tracer()
    tracer.install()
    try:
        assert list(mf.chains.enumerate_sigma(3, 1)) == ["a", "b", "c"]
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    assert summary["counters"]["chains.chains_emitted"] == 3
    assert summary["layers"]["chains.enumerate_sigma"]["calls"] == 1
    assert "perms.precedes" not in summary["layers"]


def test_sink_keeps_sampled_lines_across_chunks(monkeypatch):
    monkeypatch.syspath_prepend(str(SRC))
    from child import Sink

    sink = Sink([0, 2, 5], keep_all=False)
    for chunk in (b"zero\non", b"e\ntw", b"o\nthree\nfour\nfi", b"ve\n"):
        sink.write(chunk)
    assert sink.lines == 6
    assert sink.captured == {0: "zero", 2: "two", 5: "five"}
    stream = io.TextIOWrapper(io.BufferedWriter(Sink([], keep_all=True)), encoding="utf-8")
    print("x", file=stream)
    stream.flush()
    assert stream.buffer.raw.kept == [b"x\n"]


def test_metric_names_match_benchmark_json():
    import json

    from run import end_to_end, layer_values

    spec = json.loads((SRC.parent / "BENCHMARK.json").read_text())
    one_pass = {"wall_s": 1.0, "first_outputs_s": [0.5], "latencies_s": [1.0], "peak_rss_mb": 20.0}
    metrics, _ = end_to_end([one_pass], [0.1], items=10, attempted=1, failed=0)
    assert list(metrics) == [m["name"] for m in spec["end_to_end"]]
    assert all(metrics[m["name"]]["unit"] == m["unit"] for m in spec["end_to_end"])
    empty = {"layers": {}, "counters": Tracer().counters}
    layer = {**layer_values(empty, 0), "trace.overhead_ratio": (1.0, "ratio")}
    assert list(layer) == [m["name"] for m in spec["per_layer"]]
    assert all(layer[m["name"]][1] == m["unit"] for m in spec["per_layer"])
    assert all(value == 0 for value, _ in layer_values(empty, 0).values())


def test_round_trip_checks_catch_wrong_outputs(minfact_module):
    from workloads import WORKLOADS

    mf = minfact_module
    job = {"runner": "map", "pairs": [[8, [1, 3, 7, 1], [1, 3, 5, 6, 7]], [8, [2, 2], [1, 4, 6]]]}
    outputs = []
    for n, a, b in job["pairs"]:
        chain = mf.gamma(mf.PairAB(n, a, b))
        outputs.append([chain.to_json()["steps"], mf.section(chain).to_json()])
    check = WORKLOADS["map_dense"].check
    assert check(job, outputs, mf) == [True, True]
    swapped = [outputs[0][0][::-1], outputs[0][1]]  # a chain, but not the right one
    assert check(job, [swapped, outputs[1]], mf) == [False, True]
    shifted = [outputs[1][0], {"n": 8, "a": [3, 3], "b": [1, 4, 6]}]  # not a rotation
    assert check(job, [outputs[0], shifted], mf) == [True, False]
    assert check(job, [outputs[0], [[[9, 9]], {}]], mf) == [True, False]
    assert check(job, outputs[:1], mf) == [False, False]


def test_cli_checks_need_the_pinned_bytes(minfact_module):
    from workloads import WORKLOADS

    mf = minfact_module
    verify_out = {"exit": 0, "lines": 1, "sha256": "0" * 64, "sample": {}, "text": "PASS\n"}
    assert WORKLOADS["verify"].check({}, verify_out, mf) == [False]
    enum_job = WORKLOADS["enumerate"].make_job(random.Random(1))
    enum_out = {"exit": 0, "lines": 551_124, "sha256": "0" * 64, "sample": {}, "text": None}
    assert WORKLOADS["enumerate"].check(enum_job, enum_out, mf) == [False]
