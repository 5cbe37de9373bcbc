"""Self-tests of the benchmark's counters and tracer on tiny runs.

Run from the root of a source checkout:

    python3 -m pytest perfbench -q
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from wfduality import (FiniteMeasure, FiniteModelParams, LimitParams,  # noqa: E402
                       SelectionKernel, bcre, duality, fvwrs)
from wfduality.rngstreams import stream  # noqa: E402

import run  # noqa: E402
from spans import (Tracer, instrument, layer_metrics,  # noqa: E402
                   wrapper_costs)
from workloads import WORKLOADS, make_config, replicates  # noqa: E402

EMPTY = FiniteMeasure(np.empty(0), np.empty(0))


@pytest.fixture
def tracer():
    t = Tracer()
    instrument(t)
    yield t
    t.restore()


def metric(tracer: Tracer, name: str) -> float:
    return layer_metrics(tracer)[name][0]


def test_steps_are_events_plus_one_overshoot_per_path():
    yule = LimitParams(SelectionKernel.geometric(), EMPTY, w=1.0,
                       lambda_c=EMPTY, c=0.0, sigma=0.0)
    paths, T = 40, 1.5
    rng = stream(7, 0)
    events = sum(len(bcre.simulate(yule, 1, T, rng).events)
                 for _ in range(paths))
    assert events > paths

    t = Tracer()
    instrument(t)
    try:
        rng = stream(7, 0)
        cache = bcre.RateCache(yule)
        for _ in range(paths):
            bcre.final_state(yule, 1, T, rng, cache)
    finally:
        t.restore()
    assert metric(t, "bcre.paths") == paths
    assert metric(t, "bcre.steps") == events + paths
    assert t.counted_calls() == events + paths
    assert metric(t, "bcre.rate_builds") == len(cache._tables)
    assert 0.0 < metric(t, "bcre.rate_hit_ratio") < 1.0


def test_ancestry_generations_are_paths_times_horizon(tracer):
    params = FiniteModelParams(
        N=10, kernel=SelectionKernel.geometric(),
        env_law=FiniteMeasure.atomic([(0.0, 0.9), (0.5, 0.1)]),
        c_N=0.1, lambda_c=FiniteMeasure.point_mass(0.5))
    M, horizon = 1100, 7
    duality.annealed_check(params, horizon, 0.5, 3, M, seed=11)
    assert metric(tracer, "wf_graph.ancestry_paths") == M
    assert metric(tracer, "wf_graph.ancestry_generations") == M * horizon
    assert metric(tracer, "wf_graph.forward_replicate_generations") \
        == M * horizon
    assert metric(tracer, "wf_graph.ancestry_s") > 0.0


def test_cells_are_replicates_times_grid_cells(monkeypatch):
    params = LimitParams(SelectionKernel.geometric(),
                         FiniteMeasure.point_mass(0.5, 0.5), w=0.1,
                         lambda_c=FiniteMeasure.point_mass(0.5), c=1.0,
                         sigma=0.0)
    stepped = []
    step_cell = fvwrs._step_cell

    def counting(params, x, *args):
        stepped.append(x.size)
        return step_cell(params, x, *args)

    monkeypatch.setattr(fvwrs, "_step_cell", counting)
    M, T, dt = 1500, 0.07, 0.01  # T / dt is 7.000000000000001 in floats
    t = Tracer()
    instrument(t)
    try:
        fvwrs.ensemble_states(params, 0.5, [0.03, T], dt, M, seed=3)
    finally:
        t.restore()
    assert metric(t, "fvwrs.cells") == M * math.ceil(T / dt - 1e-9)
    assert metric(t, "fvwrs.cells") == sum(stepped)


def test_self_time_subtracts_the_union_of_children():
    t = Tracer()
    root = ["cli.run", 0.0, 10.0, None]
    # two overlapping children, as worker threads make, and one grandchild
    a = ["duality.moment_check", 1.0, 5.0, root]
    b = ["fvwrs.ensemble_states", 4.0, 7.0, root]
    c = ["bcre.jump_rates", 2.0, 3.0, a]
    t.spans = [root, a, b, c]
    duration, own = t.times()
    assert own["cli.run"] == pytest.approx(10.0 - 6.0)
    assert own["duality.moment_check"] == pytest.approx(3.0)
    assert duration["fvwrs.ensemble_states"] == pytest.approx(3.0)
    assert [s["parent"] for s in t.export()] == [None, 0, 0, 1]


def test_wrapper_costs_are_positive():
    span, count = wrapper_costs(calls=2000, reps=3)
    assert span > 0.0 and count > 0.0


def test_restore_puts_every_original_back():
    before = (fvwrs.ensemble_states, bcre.final_state, bcre.RateCache.get,
              duality.simulate_ancestry, duality.step_frequency_many)
    t = Tracer()
    instrument(t)
    assert fvwrs.ensemble_states is not before[0]
    t.restore()
    assert (fvwrs.ensemble_states, bcre.final_state, bcre.RateCache.get,
            duality.simulate_ancestry, duality.step_frequency_many) == before


def tiny_config(name: str) -> dict:
    cfg = make_config(name, seed=5)
    cfg["replicates"] = 64
    if name == "moment":
        cfg["t"] = 0.1
    if name == "fixation":
        cfg.update(T=0.5, burn_in=5.0, T_stat=2000.0)
    return cfg


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_leaves_result_json_byte_identical(tmp_path, name):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(tiny_config(name)))
    workers = WORKLOADS[name]["workers"]
    code, _, _ = run.run_in_process(cfg_path, tmp_path / "plain", workers)
    t = Tracer()
    instrument(t)
    try:
        traced_code, _, _ = run.run_in_process(
            cfg_path, tmp_path / "traced", workers, t)
    finally:
        t.restore()
    assert code == traced_code
    assert (tmp_path / "plain" / "result.json").read_bytes() \
        == (tmp_path / "traced" / "result.json").read_bytes()
    assert metric(t, "cli.self_s") > 0.0


def test_configs_depend_on_the_seed_only_through_the_program_seed():
    for name in WORKLOADS:
        a, b = make_config(name, 1), make_config(name, 2)
        assert a == make_config(name, 1)
        assert a["seed"] != b["seed"]
        assert dict(a, seed=0) == dict(b, seed=0)
        assert replicates(a) >= a["replicates"]


def test_reported_metrics_are_the_declared_ones():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.E2E_UNITS
    layers = {k: unit for k, (_, unit) in layer_metrics(Tracer()).items()}
    layers["trace.overhead_s"] = "s"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers


def test_each_failed_run_counts_once(tmp_path):
    checks = run.Checks()
    configs = {"a": tiny_config("moment"), "b": tiny_config("moment"),
               "reseeded": dict(tiny_config("moment"), seed=6),
               "failing": dict(tiny_config("moment"), z_threshold=1e-9)}
    for name, cfg in configs.items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, output = run.run_in_process(cfg_path, tmp_path / name, 1)
        checks.record(name, checks.check_result(tmp_path / name, code,
                                                output))
    assert (checks.attempted, checks.failed) == (4, 2)
    assert checks.failures == [
        "reseeded: result.json differs from the first run",
        "failing: exit code 2 FAIL z_within_threshold",
        "failing: verdict FAIL z_within_threshold",
        "failing: result.json differs from the first run",
    ]


def test_both_trace_modes_check_against_one_first_result(tmp_path):
    reference = {}
    untraced, traced = run.Checks(reference), run.Checks(reference)
    for checks, name, verdict in [(untraced, "a", "true"),
                                  (traced, "b", "true"),
                                  (traced, "c", "true ")]:
        (tmp_path / name).mkdir()
        (tmp_path / name / "result.json").write_text(
            '{"verdicts": {"z": %s}}' % verdict)
        checks.record(name, checks.check_result(tmp_path / name, 0))
    assert (untraced.failed, traced.attempted, traced.failed) == (0, 2, 1)
    assert traced.failures == ["c: result.json differs from the first run"]
