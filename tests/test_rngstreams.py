import numpy as np
import pytest
from click.testing import CliRunner

from wfduality import (FiniteMeasure, InvalidArgument, LimitParams,
                       SelectionKernel, bridge)
from wfduality.cli import main
from wfduality.config import REQUIRED_KEYS
from wfduality.rngstreams import (ROLES, batch_mean_se, run_batches, stream,
                                  substream)

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

#: One small run per experiment kind; 1100 replicates make two batches.
RUNS = {
    "thresholds": {"limit": SURVIVAL_LIMIT},
    "duality-moment": {"limit": BASELINE_LIMIT, "x": 0.5, "n": 2, "t": 0.2,
                       "dt": 1e-2, "replicates": 1100},
    "duality-quenched": {"finite": FINITE, "env": [0.5, 0.0, 0.3], "x": 0.4,
                         "n": 3, "replicates": 1100},
    "duality-annealed": {"finite": FINITE, "horizon": 3, "x": 0.4, "n": 3,
                         "replicates": 1100},
    "simulate-x": {"limit": BASELINE_LIMIT, "x0": 0.5, "T": 0.2,
                   "replicates": 1100},
    "simulate-z": {"limit": BASELINE_LIMIT, "T": 0.2, "replicates": 1100},
    "simulate-finite": {"finite": FINITE, "x0": 0.5, "generations": 3,
                        "replicates": 1100},
    "fixation": {"limit": SURVIVAL_LIMIT, "x_grid": [0.3, 0.6],
                 "replicates": 1100, "T": 0.5, "dt": 1e-2, "burn_in": 5.0,
                 "T_stat": 3000.0},
    "convergence": {"limit": BASELINE_LIMIT, "N_list": [20, 40], "x": 0.5,
                    "n": 2, "t": 0.2, "dt": 1e-2, "replicates": 1100},
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
        bridge.extinction_corroboration(params, 0.5, [0.2, 0.4], 1100, seed=5,
                                        dt=1e-2, dual_M=1100)
        assert len(opened) == 2 + 2 * 2
        assert len(set(opened)) == len(opened)


class TestRunBatches:
    def test_joins_along_the_last_axis_in_batch_order(self):
        def batch(size, rng):
            u = rng.random(size)
            return np.stack([u, np.full(size, float(size))])

        out = run_batches(batch, 2500, 3, "rhs", 2)
        assert out.shape == (2, 2500)
        assert out[1].tolist() == [1024.0] * 2048 + [452.0] * 452
        expected = np.concatenate([substream(3, "rhs", idx, 2).random(size)
                                   for idx, size in ((0, 1024), (1, 1024),
                                                     (2, 452))])
        assert out[0].tobytes() == expected.tobytes()

    def test_no_replicates_rejected(self):
        with pytest.raises(InvalidArgument):
            run_batches(lambda size, rng: rng.random(size), 0, 3, "lhs")

    def test_opens_each_batch_substream_once(self, opened):
        run_batches(lambda size, rng: rng.random(size), 2500, 3, "scan", 4)
        expected = [((3, idx), (0, 0, 4, ROLES["scan"])) for idx in range(3)]
        assert opened == expected


def chunk_loop_mean_se(values):
    """The reference reduction: one 1024-value slice at a time."""
    values = np.asarray(values, dtype=float)
    n_tot, mean_tot, m2_tot = 0, 0.0, 0.0
    for start in range(0, values.size, 1024):
        chunk = values[start:start + 1024]
        n, m = chunk.size, float(chunk.mean())
        m2 = float(((chunk - m) ** 2).sum())
        delta = m - mean_tot
        new_n = n_tot + n
        m2_tot += m2 + delta * delta * n_tot * n / new_n
        mean_tot += delta * n / new_n
        n_tot = new_n
    if n_tot < 2:
        return mean_tot, 0.0
    return mean_tot, float(np.sqrt(m2_tot / (n_tot - 1) / n_tot))


class TestBatchMeanSe:
    @pytest.mark.parametrize("size", [1, 1023, 1024, 2500, 10**6 + 7])
    def test_bits_match_the_chunk_loop(self, size):
        values = np.random.default_rng(size).lognormal(size=size) * 1e3
        assert batch_mean_se(values) == chunk_loop_mean_se(values)

    def test_pools_to_the_plain_mean_and_se(self):
        values = np.random.default_rng(0).random(2500)
        mean, se = batch_mean_se(values)
        assert mean == pytest.approx(values.mean(), rel=1e-12)
        assert se == pytest.approx(values.std(ddof=1) / np.sqrt(values.size),
                                   rel=1e-12)
