"""Acceptance suite: end-to-end statistical criteria at full scale.

Each test emits one PASS/FAIL line per criterion on the live terminal.
"""

import itertools
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from scipy import stats

from wfduality import (
    EnvSequence,
    FiniteMeasure,
    FiniteModelParams,
    LimitParams,
    ScalingScheme,
    SelectionKernel,
    alpha_star,
    alpha_star_mc,
    annealed_check,
    beta_star,
    beta_star_mc,
    classify,
    convergence_experiment,
    draw_env,
    fixation_via_duality,
    moment_check,
    quenched_check,
    stationary_estimate,
)
from wfduality import bcre
from wfduality.cli import main
from wfduality.measures import pgf
from wfduality.thresholds import EXTINCTION, SURVIVAL
from wfduality import fvwrs

from conftest import rng


def report(capsys, label: str, ok: bool, detail: str = "") -> None:
    with capsys.disabled():
        suffix = f"  ({detail})" if detail else ""
        print(f"{label}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{label} failed {detail}"


class TestAC1MomentDuality:
    def test_six_cells(self, baseline_params, capsys):
        zs = {}
        for i, (n, t) in enumerate(itertools.product((1, 2, 3), (0.5, 1.0))):
            rep = moment_check(baseline_params, 0.5, n, t, M=100_000,
                               dt=1e-3, seed=1000 + i)
            zs[(n, t)] = rep.z
        worst = max(abs(z) for z in zs.values())
        report(capsys, "AC-1 moment duality |z|<4 on six cells",
               worst < 4.0, f"max |z| = {worst:.2f}")


def exact_one_step_sides(x: float, n: int, y0: float, y1: float):
    """Both sides of the one-transition sampling duality at N=2 with the
    binary kernel, enumerated exhaustively over the intermediate state."""
    kernel = SelectionKernel.binary()
    phi0 = pgf(kernel, y0, x)
    lhs = sum(
        stats.binom.pmf(j, 2, phi0) * pgf(kernel, y1, j / 2) ** n
        for j in range(3)
    )
    rhs = 0.0
    for doubles in range(n + 1):
        p_k = stats.binom.pmf(doubles, n, y1)
        T = n + doubles
        p_two = 1.0 - 2.0 ** (1 - T) if T >= 2 else 0.0
        rhs += p_k * ((1 - p_two) * phi0 + p_two * phi0**2)
    return lhs, rhs


class TestAC2SamplingDuality:
    def test_enumeration_and_statistics(self, capsys):
        # exhaustive N=2 one-generation identity, tolerance 1e-12
        worst = 0.0
        for x, n, y0, y1 in itertools.product(
                (0.2, 0.5, 0.8), (1, 2, 3), (0.0, 0.3, 0.6), (0.0, 0.4, 0.7)):
            lhs, rhs = exact_one_step_sides(x, n, y0, y1)
            worst = max(worst, abs(lhs - rhs))
        report(capsys, "AC-2 N=2 exhaustive enumeration identity",
               worst <= 1e-12, f"max |lhs-rhs| = {worst:.2e}")

        # Monte Carlo sides reproduce the enumerated value at M=1e5
        params2 = FiniteModelParams(
            N=2, kernel=SelectionKernel.binary(),
            env_law=FiniteMeasure.point_mass(0.0),
        )
        x, n, y0, y1 = 0.5, 2, 0.3, 0.6
        exact, _ = exact_one_step_sides(x, n, y0, y1)
        rep = quenched_check(params2, EnvSequence(np.array([y0, y1])),
                             x, n, M=100_000, seed=2000)
        ok = (abs(rep.lhs - exact) < 4 * rep.lhs_se
              and abs(rep.rhs - exact) < 4 * rep.rhs_se)
        report(capsys, "AC-2 N=2 Monte Carlo matches enumeration (4 SE)",
               ok, f"lhs z = {(rep.lhs - exact) / rep.lhs_se:.2f}, "
                   f"rhs z = {(rep.rhs - exact) / rep.rhs_se:.2f}")

        # N=20, 5 generations, mixed iid environment
        params20 = FiniteModelParams(
            N=20, kernel=SelectionKernel.geometric(),
            env_law=FiniteMeasure.atomic([(0.0, 0.9), (0.5, 0.1)]),
        )
        env = draw_env(params20.env_law, 6, rng(2100))
        q = quenched_check(params20, env, 0.5, 2, M=100_000, seed=2200)
        a = annealed_check(params20, 5, 0.5, 2, M=100_000, seed=2300)
        report(capsys, "AC-2 N=20 five-generation quenched |z|<4",
               abs(q.z) < 4.0, f"z = {q.z:.2f}")
        report(capsys, "AC-2 N=20 five-generation annealed |z|<4",
               abs(a.z) < 4.0, f"z = {a.z:.2f}")


class TestAC3Thresholds:
    def test_closed_forms_and_mc(self, geo, binary, capsys):
        half = FiniteMeasure.point_mass(0.5)

        b_exact = beta_star(half)
        ok = abs(b_exact - 4 * math.log(2)) < 1e-10
        report(capsys, "AC-3 beta_star(delta_0.5) = 4 ln 2 within 1e-10",
               ok, f"value = {b_exact!r}")

        b_mc, b_se = beta_star_mc(half, 10_000_000, rng(3000))
        report(capsys, "AC-3 beta_star 1e7-sample Monte Carlo within 4 SE",
               abs(b_mc - b_exact) < 4 * b_se,
               f"z = {(b_mc - b_exact) / b_se:.2f}")

        a_geo = alpha_star(geo, half)
        a_bin = alpha_star(binary, half)
        ok = (abs(a_geo - math.log(2)) < 1e-10
              and abs(a_bin - 2 * math.log(1.5)) < 1e-10)
        report(capsys, "AC-3 alpha_star closed forms within 1e-10",
               ok, f"geo = {a_geo!r}, bin = {a_bin!r}")

        g_mc, g_se = alpha_star_mc(geo, half, 10_000_000, rng(3100))
        bn_mc, bn_se = alpha_star_mc(binary, half, 10_000_000, rng(3200))
        ok = (abs(g_mc - a_geo) < 4 * g_se and abs(bn_mc - a_bin) < 4 * bn_se)
        report(capsys, "AC-3 alpha_star 1e7-sample Monte Carlo within 4 SE",
               ok, f"geo z = {(g_mc - a_geo) / g_se:.2f}, "
                   f"bin z = {(bn_mc - a_bin) / bn_se:.2f}")

        ok = all(
            alpha_star(geo, FiniteMeasure.point_mass(y))
            <= alpha_star(binary, FiniteMeasure.point_mass(y)) + 1e-12
            for y in np.arange(0.1, 0.95, 0.1)
        )
        report(capsys, "AC-3 ordering alpha*_geo <= alpha*_bin on y-grid", ok)


class TestAC4Classification:
    def test_supercritical_extinction(self, extinction_params, capsys):
        verdict = classify(extinction_params).classification
        report(capsys, "AC-4a supercritical classify = ExtinctionAlmostSure",
               verdict == EXTINCTION, verdict)
        horizons = [2.0, 4.0, 8.0]
        states = fvwrs.ensemble_states(extinction_params, 0.5, horizons,
                                       1e-3, 20_000, seed=4000)
        fr = [(states[i] <= 1e-4).mean() for i in range(3)]
        ok = fr[0] <= fr[1] <= fr[2] and fr[2] >= 0.95
        report(capsys, "AC-4a fraction_at_0 >= 0.95 at largest horizon",
               ok, "fractions " + ", ".join(f"{f:.4f}" for f in fr))

    def test_subcritical_survival(self, survival_params, capsys):
        verdict = classify(survival_params).classification
        report(capsys, "AC-4b subcritical classify = SurvivalPossible",
               verdict == SURVIVAL, verdict)
        M = 20_000
        states = fvwrs.ensemble_states(survival_params, 0.5, [8.0], 1e-3,
                                       M, seed=4100)[0]
        p = float((states >= 1.0 - 1e-4).mean())
        lo = p - 2.576 * math.sqrt(p * (1.0 - p) / M)
        ok = p > 0.01 and lo > 0.0
        report(capsys, "AC-4b fraction_at_1 > 0.01, 99% CI excludes 0",
               ok, f"fraction = {p:.4f}, CI lower bound = {lo:.4f}")


class TestAC5Fixation:
    def test_fixation_identity(self, survival_params, capsys):
        rep = fixation_via_duality(
            survival_params, [0.25, 0.5, 0.75], seed=5000, M=20_000,
            T=12.0, dt=1e-3, burn_in=50.0, T_stat=50_000.0)
        worst = float(np.abs(rep.z_scores).max())
        report(capsys, "AC-5 fixation identity |z|<4 at three grid points",
               worst < 4.0, f"max |z| = {worst:.2f}, "
               f"half-sample TV = {rep.stationary_tv:.3f}")

    def test_stationary_generator_cross_check(self, capsys):
        w = sigma = 1.0
        empty = FiniteMeasure(np.empty(0), np.empty(0))
        p = LimitParams(SelectionKernel.geometric(), empty, w=w,
                        lambda_c=empty, c=0.0, sigma=sigma)
        est = stationary_estimate(p, 1, 20.0, 20_000.0, rng(5100))
        n_max = 200
        Q = np.zeros((n_max, n_max))
        for i, n in enumerate(range(1, n_max + 1)):
            if n < n_max:
                Q[i, i + 1] = w * n
            if n > 1:
                Q[i, i - 1] = sigma * n * (n - 1) / 2
            Q[i, i] = -Q[i].sum()
        A = np.vstack([Q.T, np.ones(n_max)])
        b = np.zeros(n_max + 1)
        b[-1] = 1.0
        nu, *_ = np.linalg.lstsq(A, b, rcond=None)
        sim = np.array([est.prob(k) for k in range(1, n_max + 1)])
        tv = 0.5 * float(np.abs(sim - nu).sum())
        report(capsys, "AC-5 stationary law generator cross-check TV<0.02",
               tv < 0.02, f"TV = {tv:.4f}")


class TestAC6Conservativeness:
    def test_no_explosions_and_mean_bound(self, baseline_params, capsys):
        n0, T, M = 10, 5.0, 100_000
        # the lhs substreams of seed 6000 are stream(6000, batch); a cut path
        # reports ceiling + 1 instead of raising
        ceiling = bcre.DEFAULT_CEILING
        finals = bcre.final_states(baseline_params, n0, T, M, seed=6000,
                                   ceiling=ceiling, cut=True).astype(float)
        guards = int((finals > ceiling).sum())
        finals[finals > ceiling] = np.nan
        mean = finals.mean()
        se = finals.std(ddof=1) / math.sqrt(M)
        bound = n0 * math.exp((0.5 + 0.1) * T)
        report(capsys, "AC-6 zero explosion-guard triggers over 1e5 paths",
               guards == 0)
        report(capsys, "AC-6 E[Z(T)] within growth bound (4 SE)",
               mean - 4 * se <= bound,
               f"mean = {mean:.3f}, bound = {bound:.2f}")


class TestAC7Convergence:
    def test_gap_shrinks(self, baseline_params, capsys):
        scheme = ScalingScheme(baseline_params)
        rows = convergence_experiment(
            [50, 100, 200, 400], scheme, 0.5, 2, 0.5, M=400_000, dt=1e-3,
            seed=7000)
        first, last = rows[0], rows[-1]
        margin = 2.0 * math.hypot(first.gap_se, last.gap_se)
        ok = last.gap < first.gap - margin
        report(capsys, "AC-7 moment gap shrinks N=50 -> N=400 beyond 2 SE",
               ok, f"gap50 = {first.gap:.5f}, gap400 = {last.gap:.5f}, "
                   f"margin = {margin:.5f}")


class TestAC8Determinism:
    def test_byte_identical_rerun(self, tmp_path, capsys):
        cfg = {
            "experiment": "duality-moment", "seed": 8000,
            "limit": {
                "kernel": {"variant": "geometric"},
                "lambda_s": {"atoms": [[0.5, 0.5]]},
                "w": 0.1,
                "lambda_c": {"atoms": [[0.5, 1.0]]},
                "c": 1.0,
                "sigma": 0.0,
            },
            "x": 0.5, "n": 2, "t": 0.5, "dt": 1e-3, "replicates": 10_000,
        }
        payloads = []
        for name in ("a", "b"):
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps(cfg))
            out = tmp_path / name
            res = CliRunner().invoke(main, [
                "run", str(cfg_path), "--out", str(out), "--workers", "2"])
            assert res.exit_code == 0
            payloads.append(((out / "result.json").read_bytes(),
                             (out / "duality.csv").read_bytes()))
        report(capsys, "AC-8 identical seed/workers give byte-identical "
               "payloads", payloads[0] == payloads[1])
