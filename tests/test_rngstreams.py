import math

import numpy as np
import pytest
from click.testing import CliRunner

from wfduality import (FiniteMeasure, InvalidArgument, LimitParams,
                       SelectionKernel, bridge, rngstreams)
from wfduality.cli import main
from wfduality.config import REQUIRED_KEYS
from wfduality.rngstreams import (BATCH_SIZE, ROLES, batch_mean_se,
                                  run_batches, stream, substream)

from test_config_cli import BASELINE_LIMIT, write_cfg

SURVIVAL_LIMIT = dict(BASELINE_LIMIT, lambda_s={"atoms": [[0.5, 1.0]]},
                      w=0.0)

FINITE = {
    "N": 20,
    "kernel": {"variant": "geometric"},
    "env_law": {"atoms": [[0.0, 0.9], [0.5, 0.1]]},
    "c_N": 0.1,
    "lambda_c": {"atoms": [[0.5, 1.0]]},
}

#: Replicates that open two batches, the second one short.
TWO_BATCHES = BATCH_SIZE + 76

#: Three batches, the last one short.
THREE_BATCHES = 2 * BATCH_SIZE + 452

#: One small run per experiment kind, each over two batches.
RUNS = {
    "thresholds": {"limit": SURVIVAL_LIMIT},
    "duality-moment": {"limit": BASELINE_LIMIT, "x": 0.5, "n": 2, "t": 0.2,
                       "dt": 1e-2, "replicates": TWO_BATCHES},
    "duality-quenched": {"finite": FINITE, "env": [0.5, 0.0, 0.3], "x": 0.4,
                         "n": 3, "replicates": TWO_BATCHES},
    "duality-annealed": {"finite": FINITE, "horizon": 3, "x": 0.4, "n": 3,
                         "replicates": TWO_BATCHES},
    "simulate-x": {"limit": BASELINE_LIMIT, "x0": 0.5, "T": 0.2,
                   "replicates": TWO_BATCHES},
    "simulate-z": {"limit": BASELINE_LIMIT, "T": 0.2,
                   "replicates": TWO_BATCHES},
    "simulate-finite": {"finite": FINITE, "x0": 0.5, "generations": 3,
                        "replicates": TWO_BATCHES},
    "fixation": {"limit": SURVIVAL_LIMIT, "x_grid": [0.3, 0.6],
                 "replicates": TWO_BATCHES, "T": 0.5, "dt": 1e-2,
                 "burn_in": 5.0, "T_stat": 3000.0},
    "convergence": {"limit": BASELINE_LIMIT, "N_list": [20, 40], "x": 0.5,
                    "n": 2, "t": 0.2, "dt": 1e-2, "replicates": TWO_BATCHES},
}


@pytest.fixture
def opened(monkeypatch):
    """(key, counter) of every Philox generator built while the test runs."""
    seen = []
    philox = np.random.Philox

    def recording(*args, **kwargs):
        bitgen = philox(*args, **kwargs)
        state = bitgen.state["state"]
        seen.append((tuple(state["key"].tolist()),
                     tuple(state["counter"].tolist())))
        return bitgen

    monkeypatch.setattr(np.random, "Philox", recording)
    return seen


class TestSubstream:
    def test_role_zero_is_stream(self):
        for seed, index in ((0, 0), (5, 3), (2**63 - 1, 7)):
            plain = np.random.Generator(np.random.Philox(
                key=np.array([seed, index], dtype=np.uint64)))
            draws = plain.random(8).tobytes()
            assert stream(seed, index).random(8).tobytes() == draws
            assert substream(seed, "lhs", index).random(8).tobytes() == draws

    def test_roles_and_sub_indices_draw_differently(self):
        assert len(set(ROLES.values())) == len(ROLES)
        draws = {substream(9, role, 0, sub).random(4).tobytes()
                 for role in ROLES for sub in (0, 1)}
        assert len(draws) == 2 * len(ROLES)

    def test_unknown_role_rejected(self):
        with pytest.raises(KeyError):
            substream(9, "bogus", 0)


class TestDisjointStreams:
    def test_every_kind_is_covered(self):
        assert set(RUNS) == set(REQUIRED_KEYS)

    @pytest.mark.parametrize("kind", sorted(RUNS))
    def test_run_opens_no_stream_twice(self, tmp_path, opened, kind):
        path = write_cfg(tmp_path, dict(RUNS[kind], experiment=kind, seed=5))
        res = CliRunner().invoke(main, ["run", path,
                                        "--out", str(tmp_path / "o")])
        assert res.exit_code in (0, 2), res.output
        assert len(set(opened)) == len(opened)
        if kind != "thresholds":
            assert len(opened) >= 2

    def test_extinction_corroboration_opens_no_stream_twice(self, opened):
        geo = SelectionKernel.geometric()
        params = LimitParams(geo, FiniteMeasure.point_mass(0.5, 5.0), 0.0,
                             FiniteMeasure.point_mass(0.5, 1.0), 1.0, 0.0)
        bridge.extinction_corroboration(params, 0.5, [0.2, 0.4], TWO_BATCHES,
                                        seed=5, dt=1e-2, dual_M=TWO_BATCHES)
        assert len(opened) == 2 + 2 * 2
        assert len(set(opened)) == len(opened)


class TestRunBatches:
    def test_joins_along_the_last_axis_in_batch_order(self):
        def batch(size, rng):
            u = rng.random(size)
            return np.stack([u, np.full(size, float(size))])

        out = run_batches(batch, THREE_BATCHES, 3, "rhs", 2)
        assert out.shape == (2, THREE_BATCHES)
        assert out[1].tolist() == ([float(BATCH_SIZE)] * 2 * BATCH_SIZE
                                   + [452.0] * 452)
        expected = np.concatenate([substream(3, "rhs", idx, 2).random(size)
                                   for idx, size in ((0, BATCH_SIZE),
                                                     (1, BATCH_SIZE),
                                                     (2, 452))])
        assert out[0].tobytes() == expected.tobytes()

    def test_no_replicates_rejected(self):
        with pytest.raises(InvalidArgument):
            run_batches(lambda size, rng: rng.random(size), 0, 3, "lhs")

    def test_follows_the_batch_size(self, monkeypatch):
        # run_batches reads BATCH_SIZE at call time
        monkeypatch.setattr(rngstreams, "BATCH_SIZE", 7)
        out = run_batches(lambda size, rng: np.full(size, float(size)), 20,
                          3, "lhs")
        assert out.tolist() == [7.0] * 14 + [6.0] * 6

    def test_opens_each_batch_substream_once(self, opened):
        run_batches(lambda size, rng: rng.random(size), THREE_BATCHES, 3,
                    "scan", 4)
        expected = [((3, idx), (0, 0, 4, ROLES["scan"])) for idx in range(3)]
        assert opened == expected


def plain_mean_se(values):
    """The reference: the mean of the whole array and its two-pass SE."""
    n = values.size
    mean = values.sum() / n
    if n < 2:
        return float(mean), 0.0
    return float(mean), math.sqrt(((values - mean) ** 2).sum() / (n - 1) / n)


class TestBatchMeanSe:
    @pytest.mark.parametrize("size", [1, 1023, 1024, 2500, BATCH_SIZE - 1,
                                      BATCH_SIZE, BATCH_SIZE + 1, 10_000,
                                      THREE_BATCHES, 10**6 + 7])
    def test_bits_match_the_plain_formula(self, size):
        values = np.random.default_rng(size).lognormal(size=size) * 1e3
        assert batch_mean_se(values) == plain_mean_se(values)

    def test_bits_do_not_follow_the_batch_size(self, monkeypatch):
        values = np.random.default_rng(3).lognormal(size=THREE_BATCHES)
        got = set()
        for batch in (7, 4096):
            monkeypatch.setattr(rngstreams, "BATCH_SIZE", batch)
            got.add(batch_mean_se(values))
        assert len(got) == 1

    @pytest.mark.parametrize("size", [1, BATCH_SIZE - 1, BATCH_SIZE + 1,
                                      10_000])
    def test_constant_is_exact(self, size):
        for v in np.random.default_rng(size).random(50).tolist() + [0.0, 1.0]:
            assert batch_mean_se(np.full(size, v)) == (v, 0.0)

    def test_random_constants_are_exact(self):
        # the chunk means of these round away from v, for most of them
        values = np.random.default_rng(11).random(200) * 10.0
        for v in values.tolist():
            assert batch_mean_se(np.full(2048, v)) == (v, 0.0)

    def test_negative_zero_pools_to_zero(self):
        values = np.full(BATCH_SIZE + 1, -0.0)
        mean, se = batch_mean_se(values)
        assert (mean, se) == (0.0, 0.0)
        assert math.copysign(1.0, mean) == 1.0

    def test_infinite_constant_has_nan_se(self):
        with np.errstate(invalid="ignore"):  # inf - inf
            mean, se = batch_mean_se(np.full(10, np.inf))
        assert mean == np.inf and math.isnan(se)

    def test_pools_to_the_plain_mean_and_se(self):
        values = np.random.default_rng(0).random(THREE_BATCHES)
        mean, se = batch_mean_se(values)
        assert mean == pytest.approx(values.mean(), rel=1e-12)
        assert se == pytest.approx(values.std(ddof=1) / np.sqrt(values.size),
                                   rel=1e-12)
