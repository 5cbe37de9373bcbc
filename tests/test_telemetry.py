import json

import numpy as np
from click.testing import CliRunner

from wfduality import FiniteMeasure, LimitParams, SelectionKernel, telemetry
from wfduality.bcre import final_states
from wfduality.cli import main
from wfduality.fvwrs import ensemble_states

EMPTY = FiniteMeasure(np.empty(0), np.empty(0))


def params_with(w=0.0, sigma=0.0):
    return LimitParams(SelectionKernel.geometric(), EMPTY, w=w,
                       lambda_c=EMPTY, c=0.0, sigma=sigma)


def test_no_record_unless_installed():
    assert telemetry.current() is None
    with telemetry.recording() as record:
        assert telemetry.current() is record
        with telemetry.recording() as inner:
            assert telemetry.current() is inner
        assert telemetry.current() is record
    assert telemetry.current() is None
    final_states(params_with(w=0.5), 2, 1.0, 50, seed=1)  # counts nowhere
    assert not record


def test_yule_steps_are_events_plus_one_overshoot_per_path():
    # each path steps once per birth and once past T.  Every path is born
    # once per round, so a round's active paths share one state, new to
    # all of them at once, which is built at once: no path is held
    n0, M = 2, 3000
    with telemetry.recording() as counts:
        finals = final_states(params_with(w=0.8), n0, 1.5, M, seed=5)
    assert counts["z_steps"] == (finals - n0).sum() + M
    assert counts["z_held_steps"] == 0
    # births of one lineage each: the paths visit every state n0..max
    assert counts["z_rows"] == finals.max() - n0 + 1
    assert counts["z_row_builds"] == counts["z_rows"]
    assert counts["z_rounds"] > 1


def test_held_steps_are_counted_as_ints():
    # births and pairwise deaths spread the paths, so a state first reached
    # by a few of them waits on the hold row
    with telemetry.recording() as counts:
        final_states(params_with(w=1.0, sigma=0.2), 5, 1.0, 2000, seed=4)
    assert 0 < counts["z_held_steps"] < counts["z_steps"]
    assert counts["z_row_builds"] < counts["z_rows"]
    assert all(type(v) is int for v in counts.values())


def test_rows_are_the_states_visited():
    # pairwise deaths: every path visits every state from 12 down to its
    # state at T
    with telemetry.recording() as counts:
        finals = final_states(params_with(sigma=1.0), 12, 0.3, 500, seed=6)
    assert counts["z_rows"] == 12 - finals.min() + 1


def test_x_without_jumps_counts_no_events():
    # sigma = 0, c = 0 and |mu| = 0: the logistic flow alone, one round
    with telemetry.recording() as counts:
        states = ensemble_states(params_with(w=0.5), 0.4, [0.5, 2.0], 1e-3,
                                 1000, seed=1)
    assert counts["x_events"] == 0 and counts["x_rounds"] == 1
    assert (states[1] < states[0]).all()


def test_run_writes_the_counters(tmp_path):
    cfg = {"experiment": "simulate-z", "seed": 3, "T": 0.5, "replicates": 64,
           "limit": {"kernel": {"variant": "geometric"},
                     "lambda_s": {"atoms": [[0.5, 0.5]]}, "w": 0.1,
                     "lambda_c": {"atoms": [[0.5, 1.0]]}, "c": 1.0,
                     "sigma": 0.0}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    res = CliRunner().invoke(main, ["run", str(path),
                                    "--out", str(tmp_path / "o")])
    assert res.exit_code == 0, res.output
    meta = json.loads((tmp_path / "o" / "run_meta.json").read_text())
    counts = meta["telemetry"]
    assert counts["z_steps"] >= counts["z_rounds"] > 0
    assert counts["z_rows"] >= counts["z_row_builds"] > 0
    assert "x_rounds" not in counts
    assert telemetry.current() is None
