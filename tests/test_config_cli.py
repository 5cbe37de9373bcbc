import copy
import json
import math
import sys
import warnings

import jsonschema
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from wfduality import ConfigError, InvalidArgument, InvariantViolation
from wfduality.bcre import DEFAULT_CEILING
from wfduality.cli import _strict, main
from wfduality.config import (
    REQUIRED_KEYS,
    SCHEMA,
    build_kernel,
    build_limit_params,
    build_measure,
    load_config,
    violations,
)
from wfduality.rngstreams import substream

ORACLE_TYPE = jsonschema.Draft202012Validator

BASELINE_LIMIT = {
    "kernel": {"variant": "geometric"},
    "lambda_s": {"atoms": [[0.5, 0.5]]},
    "w": 0.1,
    "lambda_c": {"atoms": [[0.5, 1.0]]},
    "c": 1.0,
    "sigma": 0.0,
}

THRESHOLDS_CFG = {
    "experiment": "thresholds",
    "seed": 7,
    "limit": {
        "kernel": {"variant": "geometric"},
        "lambda_s": {"atoms": [[0.5, 1.0]]},
        "w": 0.0,
        "lambda_c": {"atoms": [[0.5, 1.0]]},
        "c": 1.0,
        "sigma": 0.0,
    },
}


def write_cfg(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestLoadConfig:
    def test_valid(self, tmp_path):
        path = write_cfg(tmp_path, THRESHOLDS_CFG)
        cfg = load_config(path)
        assert cfg["experiment"] == "thresholds"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.json"))

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"experiment": "\xff"}')
        with pytest.raises(ConfigError, match="can't decode"):
            load_config(str(path))

    def test_schema_violation(self, tmp_path):
        path = write_cfg(tmp_path, {"experiment": "thresholds"})  # no seed
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_experiment(self, tmp_path):
        cfg = dict(THRESHOLDS_CFG, experiment="frobnicate")
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, cfg))

    def test_unknown_key_rejected(self, tmp_path):
        cfg = dict(THRESHOLDS_CFG, bogus=1)
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, cfg))

    def test_schema_is_valid_under_its_metaschema(self):
        # jsonschema is the test-side oracle of the in-package check
        assert jsonschema.validators.validator_for(SCHEMA) is ORACLE_TYPE
        ORACLE_TYPE.check_schema(SCHEMA)

    def test_violation_message_names_the_path(self, tmp_path):
        with pytest.raises(ConfigError, match="-1 is less than the minimum"):
            load_config(write_cfg(tmp_path, dict(THRESHOLDS_CFG, seed=-1)))
        cfg = json.loads(json.dumps(THRESHOLDS_CFG))
        cfg["limit"]["c"] = -1
        with pytest.raises(ConfigError, match=r"^config schema violation at "
                           r"limit\.c: -1 is less than the minimum of 0$"):
            load_config(write_cfg(tmp_path, cfg))


class TestBuilders:
    def test_kernels(self):
        assert build_kernel({"variant": "geometric"}).variant == "geometric"
        assert build_kernel({"variant": "binary"}).variant == "binary"
        k = build_kernel({"variant": "table", "pmf": {"2": 1.0}})
        assert k.variant == "table"

    def test_table_without_pmf_rejected(self):
        with pytest.raises(ConfigError):
            build_kernel({"variant": "table"})

    def test_atomic_measure(self):
        m = build_measure({"atoms": [[0.5, 2.0]]})
        assert m.total_mass == pytest.approx(2.0)

    def test_density_measure(self):
        m = build_measure({"density": "beta", "a": 2.0, "b": 2.0,
                           "mass": 1.5, "nodes": 64})
        assert m.total_mass == pytest.approx(1.5)

    def test_limit_params(self):
        p = build_limit_params(BASELINE_LIMIT)
        assert p.w == 0.1 and p.c == 1.0
        assert p.alpha_s == pytest.approx(0.5)


class TestValidateCommand:
    def test_ok(self, tmp_path):
        res = CliRunner().invoke(
            main, ["validate", write_cfg(tmp_path, THRESHOLDS_CFG)])
        assert res.exit_code == 0
        assert "OK" in res.output

    def test_sigma_rejected_for_thresholds(self, tmp_path):
        cfg = json.loads(json.dumps(THRESHOLDS_CFG))
        cfg["limit"]["sigma"] = 1.0
        res = CliRunner().invoke(main, ["validate", write_cfg(tmp_path, cfg)])
        assert res.exit_code == 1
        assert "SigmaNotZero" in res.output

    def test_selection_atom_at_zero_rejected(self, tmp_path):
        cfg = json.loads(json.dumps(THRESHOLDS_CFG))
        cfg["limit"]["lambda_s"] = {"atoms": [[0.0, 1.0]]}
        res = CliRunner().invoke(main, ["validate", write_cfg(tmp_path, cfg)])
        assert res.exit_code == 1

    def test_schema_error_exit_code(self, tmp_path):
        res = CliRunner().invoke(
            main, ["validate", write_cfg(tmp_path, {"experiment": "fixation"})])
        assert res.exit_code == 1
        assert "ConfigError" in res.output


    def test_missing_experiment_keys_rejected(self, tmp_path):
        cfg = {"experiment": "duality-moment", "seed": 11,
               "limit": BASELINE_LIMIT, "n": 2, "t": 0.5}  # no x
        path = write_cfg(tmp_path, cfg)
        for args in (["validate", path],
                     ["run", path, "--out", str(tmp_path / "o")]):
            res = CliRunner().invoke(main, args)
            assert res.exit_code == 1
            assert "ConfigError" in res.output and "'x'" in res.output
        assert not (tmp_path / "o").exists()


class TestRunCommand:
    def test_thresholds_run(self, tmp_path):
        out = tmp_path / "out"
        res = CliRunner().invoke(main, [
            "run", write_cfg(tmp_path, THRESHOLDS_CFG), "--out", str(out)])
        assert res.exit_code == 0
        payload = json.loads((out / "result.json").read_text())
        assert payload["results"]["beta_star"] == \
            pytest.approx(4 * math.log(2), abs=1e-9)
        assert payload["results"]["classification"] == "SurvivalPossible"
        assert payload["build"].startswith("wfduality")
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["wall_time_s"] > 0
        if sys.platform.startswith("linux"):  # VmHWM of /proc/self/status
            assert meta["peak_rss_mb"] > 0

    def test_moment_time_zero(self, tmp_path):
        cfg = {
            "experiment": "duality-moment", "seed": 11,
            "limit": BASELINE_LIMIT,
            "x": 0.5, "n": 2, "t": 0.0, "replicates": 100,
        }
        out = tmp_path / "out"
        res = CliRunner().invoke(main, [
            "run", write_cfg(tmp_path, cfg), "--out", str(out)])
        assert res.exit_code == 0
        assert "PASS z_within_threshold" in res.output
        payload = json.loads((out / "result.json").read_text())
        assert payload["results"]["z"] == 0.0
        assert (out / "duality.csv").exists()

    def test_verdict_failure_exits_2(self, tmp_path):
        cfg = {
            "experiment": "duality-quenched", "seed": 12,
            "finite": {
                "N": 5, "kernel": {"variant": "geometric"},
                "env_law": {"atoms": [[0.3, 1.0]]},
            },
            "env": [0.3, 0.3], "x": 0.5, "n": 2,
            "replicates": 2048, "z_threshold": 1e-9,
        }
        res = CliRunner().invoke(main, [
            "run", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert res.exit_code == 2
        assert "FAIL z_within_threshold" in res.output

    def test_model_error_exits_1(self, tmp_path):
        cfg = json.loads(json.dumps(THRESHOLDS_CFG))
        cfg["limit"]["lambda_s"] = {"atoms": [[0.0, 1.0]]}
        res = CliRunner().invoke(main, [
            "run", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert res.exit_code == 1

    def test_non_finite_results_are_strict_json(self, tmp_path):
        # a coalescence atom at 1 makes beta_star infinite
        cfg = copy.deepcopy(THRESHOLDS_CFG)
        cfg["limit"]["lambda_c"] = {"atoms": [[1.0, 1.0]]}
        out = tmp_path / "out"
        res = CliRunner().invoke(main, [
            "run", write_cfg(tmp_path, cfg), "--out", str(out)])
        assert res.exit_code == 0

        def reject(constant):
            raise ValueError(f"{constant} is not strict JSON")

        payload = json.loads((out / "result.json").read_text(),
                             parse_constant=reject)
        results = payload["results"]
        assert results["beta_star"] == "Infinity"
        assert results["margin"] == "-Infinity"
        assert results["metadata"]["beta_star_normalized"] == "Infinity"
        assert results["classification"] == "SurvivalPossible"

    def test_strict_spells_non_finite_floats(self):
        value = {"a": [math.nan, (1.5, -math.inf)], "b": {"c": math.inf},
                 "d": [2, True, None, "x"]}
        assert _strict(value) == {"a": ["NaN", [1.5, "-Infinity"]],
                                  "b": {"c": "Infinity"},
                                  "d": [2, True, None, "x"]}

    def test_seed_override(self, tmp_path):
        path = write_cfg(tmp_path, THRESHOLDS_CFG)
        out = tmp_path / "out"
        res = CliRunner().invoke(main, [
            "run", path, "--out", str(out), "--seed", "99"])
        assert res.exit_code == 0
        payload = json.loads((out / "result.json").read_text())
        assert payload["config"]["seed"] == 99


class TestDeterminism:
    CFG = {
        "experiment": "simulate-x", "seed": 13,
        "limit": BASELINE_LIMIT,
        "x0": 0.5, "T": 0.5, "dt": 0.01, "replicates": 3000,
    }

    def run_into(self, tmp_path, name, workers):
        out = tmp_path / name
        res = CliRunner().invoke(main, [
            "run", write_cfg(tmp_path, self.CFG, f"{name}.json"),
            "--out", str(out), "--workers", str(workers)])
        assert res.exit_code == 0
        return ((out / "result.json").read_bytes(),
                (out / "finals.csv").read_bytes())

    def test_rerun_byte_identical(self, tmp_path):
        a = self.run_into(tmp_path, "a", 1)
        b = self.run_into(tmp_path, "b", 1)
        assert a == b

    def test_worker_count_invariant(self, tmp_path):
        a = self.run_into(tmp_path, "w1", 1)
        b = self.run_into(tmp_path, "w4", 4)
        assert a == b


ANNEALED_CFG = {
    "experiment": "duality-annealed", "seed": 17,
    "finite": {
        "N": 100,
        "kernel": {"variant": "geometric"},
        "env_law": {"atoms": [[0.0, 0.9], [0.5, 0.1]]},
        "c_N": 0.1,
        "lambda_c": {"atoms": [[0.5, 1.0]]},
    },
    "horizon": 5, "x": 0.5, "n": 5, "replicates": 3000,
}

QUENCHED_CFG = {
    "experiment": "duality-quenched", "seed": 18,
    "finite": dict(ANNEALED_CFG["finite"], N=20),
    "env": [0.5, 0.0, 0.3, 0.0, 0.2], "x": 0.4, "n": 3,
    "replicates": 3000,
}


class TestSampleSize:
    @pytest.mark.parametrize("cfg", [ANNEALED_CFG, QUENCHED_CFG])
    @pytest.mark.parametrize("n", [0, 150])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_outside_one_to_N_rejected(self, tmp_path, cfg, n, command):
        path = write_cfg(tmp_path, dict(cfg, n=n))
        args = [command, path]
        if command == "run":
            args += ["--out", str(tmp_path / "o")]
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 1
        assert "ConfigError" in res.output
        assert "sample size" in res.output


class TestPopulationBound:
    # at N >= 2**60 the parent-count cap K_CAP_FACTOR * N overflows int64
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_cap_overflow_rejected(self, tmp_path, command):
        cfg = dict(ANNEALED_CFG, finite=dict(ANNEALED_CFG["finite"], N=2**60))
        args = [command, write_cfg(tmp_path, cfg)]
        if command == "run":
            args += ["--out", str(tmp_path / "o")]
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 1
        assert "ConfigError" in res.output
        assert not (tmp_path / "o").exists()

    def test_huge_population_runs(self, tmp_path):
        # one default batch of replicates at N = 10**17
        cfg = dict(ANNEALED_CFG, replicates=4096,
                   finite=dict(ANNEALED_CFG["finite"], N=10**17))
        res = CliRunner().invoke(main, [
            "run", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output


class TestValidateMatchesRun:
    # configs that passed validate and then crashed run with a ValueError
    @pytest.mark.parametrize("cfg, message", [
        ({"experiment": "fixation", "seed": 3, "limit": THRESHOLDS_CFG["limit"],
          "x_grid": [0.5], "burn_in": 50.0, "T_stat": 50.0},
         "T_stat must exceed burn_in"),
        ({"experiment": "fixation", "seed": 3, "limit": THRESHOLDS_CFG["limit"],
          "x_grid": [0.5], "burn_in": 6000.0}, "T_stat must exceed burn_in"),
        ({"experiment": "duality-moment", "seed": 3, "limit": BASELINE_LIMIT,
          "x": 0.5, "n": 0, "t": 0.5}, "moment order"),
        # the order is the dual chain's start state: run raised
        # InvalidArgument, or at the parent built a rate row of 2 * n entries
        ({"experiment": "duality-moment", "seed": 3, "limit": BASELINE_LIMIT,
          "x": 0.5, "n": DEFAULT_CEILING + 1, "t": 1e-9, "replicates": 10},
         "moment order"),
        # ran to exit 0 after building a rate row of 2 * n0 entries
        ({"experiment": "simulate-z", "seed": 3, "limit": BASELINE_LIMIT,
          "T": 1e-9, "n0": DEFAULT_CEILING + 1}, "state ceiling"),
        # ran, and the second 0.5 overwrote the first's verdict, which is
        # keyed by x: three rows in fixation.csv, two verdicts
        ({"experiment": "fixation", "seed": 3, "limit": THRESHOLDS_CFG["limit"],
          "x_grid": [0.5, 0.5, 0.25], "replicates": 10, "T": 0.01,
          "T_stat": 100.0}, "repeats a value"),
        # every gap is exactly 0, so run exited 2 on every seed
        ({"experiment": "convergence", "seed": 3, "limit": BASELINE_LIMIT,
          "N_list": [20, 80], "x": 0.5, "n": 0, "t": 0.2, "dt": 1e-2,
          "replicates": 100}, "must be positive"),
        ({"experiment": "convergence", "seed": 3, "limit": BASELINE_LIMIT,
          "N_list": [20, 80], "x": 0.5, "n": 2, "t": 0.0, "dt": 1e-2,
          "replicates": 100}, "must be positive"),
        # at sigma > 0 X is read at the grid time round(t/dt)*dt: 0.2 here,
        # against Z at 0.25, so run exited 2 with z = -6.9
        ({"experiment": "duality-moment", "seed": 3,
          "limit": dict(BASELINE_LIMIT, sigma=0.5), "x": 0.5, "n": 2,
          "t": 0.25, "dt": 0.1, "replicates": 100}, "multiple of dt"),
        ({"experiment": "convergence", "seed": 3,
          "limit": dict(BASELINE_LIMIT, sigma=0.5), "N_list": [20, 80],
          "x": 0.5, "n": 2, "t": 0.25, "dt": 0.1, "replicates": 100},
         "multiple of dt"),
        # ran to exit 0, reporting T = 0.25 for states taken at 0.2
        ({"experiment": "simulate-x", "seed": 3,
          "limit": dict(BASELINE_LIMIT, sigma=0.5), "x0": 0.5, "T": 0.25,
          "dt": 0.1, "replicates": 100}, "multiple of dt"),
    ])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_rejected_with_config_error(self, tmp_path, cfg, message, command):
        args = [command, write_cfg(tmp_path, cfg)]
        if command == "run":
            args += ["--out", str(tmp_path / "o")]
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 1
        assert "ConfigError" in res.output and message in res.output
        assert not (tmp_path / "o").exists()


class TestGridTimes:
    # at sigma > 0 a time that is a multiple of dt up to rounding passes:
    # 0.7 / 1e-3 is 699.9999999999999
    @pytest.mark.parametrize("kind,keys", [
        ("duality-moment", {"x": 0.5, "n": 2, "t": 0.7}),
        ("convergence", {"N_list": [20, 80], "x": 0.5, "n": 2, "t": 0.7}),
        ("simulate-x", {"x0": 0.5, "T": 0.7}),
    ])
    def test_time_on_the_grid_accepted(self, tmp_path, kind, keys):
        cfg = dict(keys, experiment=kind, seed=3, dt=1e-3,
                   limit=dict(BASELINE_LIMIT, sigma=0.5))
        res = CliRunner().invoke(main, ["validate", write_cfg(tmp_path, cfg)])
        assert res.exit_code == 0, res.output


class TestConvergenceSizes:
    # passed validate, then run exited 2 on every seed: gap_shrinks compares
    # the first size with the last
    @pytest.mark.parametrize("sizes", [[20], [40, 20], [20, 20], [20, 40, 30]])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_rejected_with_config_error(self, tmp_path, sizes, command):
        cfg = {"experiment": "convergence", "seed": 3,
               "limit": BASELINE_LIMIT, "N_list": sizes, "x": 0.5, "n": 2,
               "t": 0.2, "dt": 1e-2, "replicates": 1100}
        args = [command, write_cfg(tmp_path, cfg)]
        if command == "run":
            args += ["--out", str(tmp_path / "o")]
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 1
        assert "ConfigError" in res.output
        assert "strictly increasing" in res.output
        assert not (tmp_path / "o").exists()


class TestNonFiniteConstants:
    # json.load reads NaN and the infinities, which pass the schema's bounds:
    # run then exited 1, never finished, or wrote NaN into result.json
    CASES = [
        ("duality-moment", {"limit": BASELINE_LIMIT, "x": math.nan, "n": 2,
                            "t": 0.2, "dt": 1e-2}, "NaN"),
        ("simulate-z", {"limit": BASELINE_LIMIT, "T": math.inf}, "Infinity"),
        ("simulate-x", {"limit": BASELINE_LIMIT, "x0": 0.5, "T": math.nan},
         "NaN"),
        ("simulate-x", {"limit": dict(BASELINE_LIMIT, w=-math.inf),
                        "x0": 0.5, "T": 0.2}, "-Infinity"),
    ]

    @pytest.mark.parametrize("kind,keys,constant", CASES,
                             ids=["x-NaN", "T-Infinity", "T-NaN",
                                  "w--Infinity"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_rejected_with_config_error(self, tmp_path, kind, keys, constant,
                                        command):
        cfg = dict(keys, experiment=kind, seed=3, replicates=100)
        path = write_cfg(tmp_path, cfg)
        assert constant in open(path).read()
        args = [command, path]
        if command == "run":
            args += ["--out", str(tmp_path / "o")]
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 1
        assert "ConfigError" in res.output
        assert f"non-finite number {constant}" in res.output
        assert not (tmp_path / "o").exists()

    def test_load_config_raises(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"experiment": "thresholds", "seed": NaN}')
        with pytest.raises(ConfigError, match="non-finite number NaN"):
            load_config(str(path))


class TestRegimeChecked:
    # passed validate, then run exited with RegimeMismatch
    EXTINCTION_FIXATION = {
        "experiment": "fixation", "seed": 3, "x_grid": [0.5],
        "limit": dict(THRESHOLDS_CFG["limit"],
                      lambda_s={"atoms": [[0.5, 4.0]]}, w=0.5),
    }

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_fixation_outside_survival_rejected(self, tmp_path, command):
        args = [command, write_cfg(tmp_path, self.EXTINCTION_FIXATION)]
        if command == "run":
            args += ["--out", str(tmp_path / "o")]
        res = CliRunner().invoke(main, args)
        assert res.exit_code == 1
        assert "RegimeMismatch" in res.output
        assert "ExtinctionAlmostSure" in res.output
        assert not (tmp_path / "o").exists()


class TestInfiniteSelectionRate:
    # Lambda_s(y)/m(y) overflows at this atom: validate printed a selection
    # jump rate of inf and OK, and run exited 0
    TINY_ATOM = {"experiment": "simulate-x", "seed": 3, "x0": 0.5, "T": 0.5,
                 "replicates": 100,
                 "limit": dict(BASELINE_LIMIT,
                               lambda_s={"atoms": [[1e-310, 0.5]]})}

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_rejected(self, tmp_path, command):
        args = [command, write_cfg(tmp_path, self.TINY_ATOM)]
        if command == "run":
            args += ["--out", str(tmp_path / "o")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning either
            res = CliRunner().invoke(main, args)
        assert res.exit_code == 1
        assert "InfiniteJumpIntensity" in res.output
        assert not (tmp_path / "o").exists()


class TestWorkersOption:
    def test_config_key_still_schema_checked(self, tmp_path):
        assert load_config(write_cfg(tmp_path, dict(THRESHOLDS_CFG,
                                                    workers=3)))["workers"] == 3
        with pytest.raises(ConfigError):
            load_config(write_cfg(tmp_path, dict(THRESHOLDS_CFG, workers=0)))

    @pytest.mark.parametrize("workers", [0, -1])
    def test_option_checked_like_config_key(self, tmp_path, workers):
        # exit 1, as for the config key: click's range type would exit 2,
        # the code of a failed verdict
        path = write_cfg(tmp_path, THRESHOLDS_CFG)
        res = CliRunner().invoke(main, [
            "run", path, "--out", str(tmp_path / "o"),
            "--workers", str(workers)])
        assert res.exit_code == 1
        assert "ConfigError" in res.output and "--workers" in res.output
        assert not (tmp_path / "o").exists()


class TestSeedRange:
    @pytest.mark.parametrize("seed", [-1, 2**63, 2**64 - 1, 2**65 - 1])
    def test_override_checked_like_file_seed(self, tmp_path, seed):
        path = write_cfg(tmp_path, THRESHOLDS_CFG)
        res = CliRunner().invoke(main, [
            "run", path, "--out", str(tmp_path / "o"), "--seed", str(seed)])
        assert res.exit_code == 1
        assert "ConfigError" in res.output
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("seed", [2**63, 2**64 - 1])
    def test_file_seed_bounded(self, tmp_path, seed):
        path = write_cfg(tmp_path, dict(THRESHOLDS_CFG, seed=seed))
        with pytest.raises(ConfigError):
            load_config(path)

    def test_largest_seed_accepted(self, tmp_path):
        path = write_cfg(tmp_path, dict(THRESHOLDS_CFG, seed=2**63 - 1))
        assert load_config(path)["seed"] == 2**63 - 1

    def test_stream_rejects_instead_of_aliasing(self):
        for seed in (-1, 2**64, 2**65 - 1):
            with pytest.raises(InvalidArgument):
                substream(seed, "lhs", 0)
        # seeds at and above 2**63 keep distinct streams
        draws = [substream(s, "lhs", 0).random(4).tobytes()
                 for s in (0, 2**63, 2**63 + 1, 2**64 - 1)]
        assert len(set(draws)) == 4


class TestFiniteDualityDeterminism:
    @pytest.mark.parametrize("cfg", [ANNEALED_CFG, QUENCHED_CFG])
    def test_worker_count_invariant(self, tmp_path, cfg):
        payloads = []
        for workers in (1, 2, 4):
            out = tmp_path / f"w{workers}"
            res = CliRunner().invoke(main, [
                "run", write_cfg(tmp_path, cfg), "--out", str(out),
                "--workers", str(workers)])
            assert res.exit_code == 0
            payloads.append((out / "result.json").read_bytes())
        assert payloads[0] == payloads[1] == payloads[2]


ORACLE = ORACLE_TYPE(SCHEMA)

#: Valid configs that the oracle test mutates: every experiment kind, both
#: measure forms, a table kernel with a pmf, and the largest seed.
VALID_CONFIGS = [
    THRESHOLDS_CFG, ANNEALED_CFG, QUENCHED_CFG, TestDeterminism.CFG,
    {"experiment": "duality-moment", "seed": 11, "limit": BASELINE_LIMIT,
     "x": 0.5, "n": 2, "t": 0.5, "dt": 1e-3, "z_threshold": 4.0},
    {"experiment": "fixation", "seed": 3, "limit": THRESHOLDS_CFG["limit"],
     "x_grid": [0.25, 0.5], "replicates": 2048, "T": 8.0, "burn_in": 50.0,
     "T_stat": 5000.0},
    {"experiment": "convergence", "seed": 2**63 - 1, "workers": 2,
     "limit": dict(BASELINE_LIMIT,
                   kernel={"variant": "table", "pmf": {"2": 0.5, "10": 0.25},
                           "inf_mass": 0.25},
                   lambda_c={"density": "beta", "a": 2.0, "b": 0.5,
                             "mass": 1.0, "nodes": 64}),
     "N_list": [20, 40], "x": 0.5, "n": 2, "t": 0.5},
    {"experiment": "simulate-z", "seed": 0, "limit": BASELINE_LIMIT,
     "T": 1.0, "n0": 2},
    {"experiment": "simulate-x", "seed": 9, "x0": 0.2, "T": 1.0,
     "eps0": 1e-4, "limit": dict(BASELINE_LIMIT, kernel={
         "variant": "table", "pmf": {"1": 0.2, "3": 0.8}})},
    {"experiment": "simulate-finite", "seed": 4, "x0": 0.5, "n": 1,
     "generations": 10,
     "finite": {"N": 50, "kernel": {"variant": "binary"}, "c_N": 1.0,
                "env_law": {"density": "uniform", "mass": 1.0}}},
]

#: Measures with the keys of both ``oneOf`` branches or of neither, and
#: near misses, valid or not.
ODD_MEASURES = [
    {"atoms": [[0.5, 1.0]], "density": "uniform", "mass": 1.0}, {},
    {"density": "beta", "a": 1.0}, {"density": "gamma", "mass": 1.0},
    {"atoms": [[0.5]]}, {"atoms": [[0.5, 1.0, 2.0]]}, {"atoms": []},
    {"atoms": [[0.5, True]]}, {"density": "beta", "mass": 1, "nodes": 2.0},
    {"density": "uniform", "mass": 0.0}, {"density": "uniform", "mass": 2},
]

NAN, INF = float("nan"), float("inf")

ODD_VALUES = st.one_of(
    st.sampled_from([True, False, 2.0, -1, 0, 1.5, 2**63, 2**64, NAN, INF,
                     -INF, 1e308, None, "uniform", "2", "thresholds"]),
    st.integers(-5, 5),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.floats(-2, 2), max_size=3),
    st.sampled_from(ODD_MEASURES).map(copy.deepcopy),
)

#: Replacements of the same kind: mostly in range, integral floats where
#: integers go, and NaN and infinities where numbers go.
INTEGERS = st.one_of(st.integers(0, 100), st.integers(0, 100).map(float))
NUMBERS = st.one_of(st.floats(0.0, 1.0),
                    st.sampled_from([NAN, INF, -INF, -0.5, 1.5]))

#: Unknown keys and keys of other levels.
ODD_KEYS = ["bogus", "atoms", "density", "mass", "pmf", "seed", "n", "N"]

#: pmf keys that do or do not match ``^[0-9]+$`` (re.search: "3\n" does).
PMF_KEYS = ["3", "03", "3\n", "x3", "3x", " 3", "\n3", "", "\u0663"]


def _slots(node):
    """(container, key) of every dict entry and list element under node."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))
    else:
        items = []
    for key, child in items:
        yield node, key
        yield from _slots(child)


@st.composite
def mutated_configs(draw):
    """A valid config after up to three drops, additions, appends,
    replacements, in-kind number changes or pmf keys anywhere in it, or
    with a non-dict top level."""
    cfg = copy.deepcopy(draw(st.sampled_from(VALID_CONFIGS)))
    for _ in range(draw(st.integers(0, 3))):
        op = draw(st.sampled_from(["drop", "add", "append", "replace",
                                   "nudge", "nudge", "pmf", "top"]))
        slots = list(_slots(cfg))
        numbers = [(c, k) for c, k in slots if type(c[k]) in (int, float)]
        pmfs = [c[k] for c, k in slots if k == "pmf" and isinstance(c[k], dict)]
        lists = [c[k] for c, k in slots if isinstance(c[k], list)]
        if op == "top":
            return draw(st.sampled_from([[], [cfg], 3, "cfg", None]))
        if op == "nudge" and numbers:
            container, key = draw(st.sampled_from(numbers))
            kind = INTEGERS if type(container[key]) is int else NUMBERS
            container[key] = draw(kind)
        elif op == "pmf" and pmfs:
            draw(st.sampled_from(pmfs))[draw(st.sampled_from(PMF_KEYS))] = \
                draw(st.one_of(NUMBERS, ODD_VALUES))
        elif op == "append" and lists:
            draw(st.sampled_from(lists)).append(draw(NUMBERS))
        elif op == "add":
            dicts = [cfg] + [c[k] for c, k in slots if isinstance(c[k], dict)]
            node = draw(st.sampled_from(dicts))
            node[draw(st.sampled_from(ODD_KEYS))] = draw(ODD_VALUES)
        else:
            container, key = draw(st.sampled_from(slots))
            if op == "drop":
                del container[key]
            else:
                container[key] = draw(ODD_VALUES)
    return cfg


def _subschemas(schema):
    yield schema
    for key, rule in schema.items():
        if key in ("properties", "patternProperties"):
            subs = rule.values()
        elif key in ("oneOf", "allOf"):
            subs = rule
        elif key in ("items", "if", "then"):
            subs = [rule]
        else:
            continue
        for sub in subs:
            yield from _subschemas(sub)


def _dotted(path) -> str:
    """jsonschema's ``absolute_path`` in the walker's notation."""
    out = ""
    for part in path:
        if isinstance(part, int):
            out += f"[{part}]"
        else:
            out += f".{part}" if out else part
    return out


class TestWalker:
    def test_valid_configs_are_valid_and_cover_every_kind(self):
        assert {c["experiment"] for c in VALID_CONFIGS} == set(REQUIRED_KEYS)
        for cfg in VALID_CONFIGS:
            assert list(violations(cfg)) == [] and ORACLE.is_valid(cfg)

    def test_schema_uses_only_implemented_keywords(self):
        # every key of every subschema goes through the walker's dispatch,
        # whatever the value, and an unimplemented keyword raises
        for sub in _subschemas(SCHEMA):
            for value in (None, {}, [], 0.5):
                list(violations(value, sub))
            # the walker compares enum and const options as strings
            options = sub.get("enum", []) + [sub.get("const", "")]
            assert all(isinstance(o, str) for o in options)

    @pytest.mark.parametrize("schema", [
        {"type": "number", "multipleOf": 2}, {"anyOf": [{}]},
        {"additionalProperties": {"type": "number"}},
    ])
    def test_unimplemented_keyword_raises(self, schema):
        with pytest.raises(InvariantViolation, match="not implemented"):
            list(violations(1, schema))

    def test_one_of_needs_exactly_one_branch(self):
        # no config measure can match both branches, so test it here
        schema = {"oneOf": [{"type": "number"}, {"type": "integer"}]}
        for value in (1, 0.5, "1"):
            assert (list(violations(value, schema)) == []) == \
                ORACLE_TYPE(schema).is_valid(value)

    def test_pmf_keys_are_searched(self):
        # jsonschema matches patterns with re.search, where "$" also
        # matches before a final newline
        for key in PMF_KEYS:
            for value in (0.5, "half"):
                cfg = copy.deepcopy(THRESHOLDS_CFG)
                cfg["limit"]["kernel"] = {"variant": "table",
                                          "pmf": {key: value}}
                assert (list(violations(cfg)) == []) == ORACLE.is_valid(cfg)

    @settings(max_examples=1000, deadline=None)
    @given(mutated_configs())
    def test_agrees_with_jsonschema(self, cfg):
        found = list(violations(cfg))
        assert (found == []) == ORACLE.is_valid(cfg)
        # jsonschema's wording and key path, for the keywords whose
        # messages the walker keeps
        worded = {(_dotted(e.absolute_path), e.message)
                  for e in ORACLE.iter_errors(cfg)
                  if e.validator in ("required", "minimum", "maximum",
                                     "exclusiveMinimum", "type", "enum",
                                     "const", "minItems", "maxItems")}
        assert worded <= set(found)
