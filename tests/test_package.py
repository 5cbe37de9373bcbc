"""Package-wide checks on the source tree and on what the CLI imports."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_no_assert_statements():
    # python -O strips assert statements, so runtime invariants must raise
    # package errors instead
    found = []
    for path in sorted((SRC / "wfduality").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_only_run_batches_reads_batch_size():
    # the batch layout is known to rngstreams.run_batches alone: the mean/SE
    # rule and every engine see only the joined replicates
    found, inside = [], 0
    for path in sorted((SRC / "wfduality").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        if path.name == "rngstreams.py":
            allowed = {id(node) for fn in tree.body
                       if isinstance(fn, ast.FunctionDef)
                       and fn.name == "run_batches" for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):
                read = node.name == "BATCH_SIZE"
            else:
                read = (isinstance(getattr(node, "ctx", None), ast.Load)
                        and "BATCH_SIZE" in (getattr(node, "id", None),
                                             getattr(node, "attr", None)))
            if read and id(node) in allowed:
                inside += 1
            elif read:
                found.append(f"{path.name}:{node.lineno}")
    assert found == [] and inside > 0


def _called_name(node: ast.Call):
    fn = node.func
    return fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)


def test_no_class_defines_to_dict():
    # every report reaches result.json through dataclasses.asdict in
    # cli._plain, not through a hand-written field list
    found = []
    for path in sorted((SRC / "wfduality").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{item.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                  for item in node.body
                  if isinstance(item, ast.FunctionDef)
                  and item.name == "to_dict"]
    assert found == []


def test_duality_steps_and_traces_back_in_one_place():
    # quenched and annealed checks share one forward loop and one backward
    # block count
    path = SRC / "wfduality" / "duality.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    callers = {"step_frequency_many": set(), "simulate_ancestry": set()}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and _called_name(node) in callers:
                    callers[_called_name(node)].add(fn.name)
    assert callers == {"step_frequency_many": {"_forward"},
                       "simulate_ancestry": {"_blocks"}}


def test_merger_strength_drawn_in_one_place():
    # the merger step x -> x(1-V) + V 1{central parent weak} is params.merge;
    # the backward ancestry step draws its own V to redirect parent picks.
    # A merger law is the attribute merger_law or merger_strength_law, a
    # name bound to one, or a parameter that some call passes one to.
    laws = {"merger_law", "merger_strength_law"}
    functions = {}
    for path in sorted((SRC / "wfduality").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        functions.update(((path.stem, fn.name), fn) for fn in ast.walk(tree)
                         if isinstance(fn, ast.FunctionDef))

    def is_law(node, names=()):
        return ((isinstance(node, ast.Attribute) and node.attr in laws)
                or (isinstance(node, ast.Name) and node.id in names))

    passed = {}  # function name -> positions of the arguments given a law
    for fn in functions.values():
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                passed.setdefault(_called_name(node), set()).update(
                    i for i, arg in enumerate(node.args) if is_law(arg))
    found = set()
    for (module, name), fn in functions.items():
        params = fn.args.args
        names = {params[i].arg for i in passed.get(name, ())
                 if i < len(params)}
        names |= {target.id for node in ast.walk(fn)
                  if isinstance(node, ast.Assign) and is_law(node.value)
                  for target in node.targets if isinstance(target, ast.Name)}
        if any(isinstance(node, ast.Call) and _called_name(node) == "sample"
               and isinstance(node.func, ast.Attribute)
               and is_law(node.func.value, names) for node in ast.walk(fn)):
            found.add(f"{module}.{name}")
    assert found == {"params.merge", "wf_graph.step_ancestry_many"}


def test_dual_rates_come_from_one_builder():
    # every rate row of the dual chain, and every tail draw, comes from
    # measures' one builder (SumLaw, log_space_pmfs); Loader's pmfs are the
    # reference the tests hold the rows against
    path = SRC / "wfduality" / "bcre.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    found = {fn.name for fn in ast.walk(tree)
             if isinstance(fn, ast.FunctionDef)
             for node in ast.walk(fn) if isinstance(node, ast.Call)
             and _called_name(node) in {"binom_pmf", "nbinom_pmf", "sum_pmfs"}}
    assert found == set()


def test_one_tail_rule_for_the_dual_rows():
    # a row's window comes from SumLaw's moments alone and the mass beyond
    # it is the lumped-tail rate: _rate_rows loops over nothing, and no
    # module but measures sizes windows from the excess moments
    functions = {}
    for path in sorted((SRC / "wfduality").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        functions.update(((path.stem, fn.name), fn) for fn in ast.walk(tree)
                         if isinstance(fn, ast.FunctionDef))
    rows = functions["bcre", "_rate_rows"]
    assert not [node for node in ast.walk(rows)
                if isinstance(node, (ast.While, ast.For))]
    callers = {module for (module, _), fn in functions.items()
               for node in ast.walk(fn) if isinstance(node, ast.Call)
               and _called_name(node) == "excess_moments"}
    assert callers == {"measures"}


def test_dual_engine_sorts_nothing():
    # the occupation times of stationary chains accumulate in a dense
    # (row, chain) table; a sort of the occupation keys every 16 rounds cost
    # the fixation run about 15% of its stationary time
    # (RateCache.rows sorts a round's new states, a method left out here)
    path = SRC / "wfduality" / "bcre.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    functions = {fn.name: fn for fn in tree.body
                 if isinstance(fn, ast.FunctionDef)}
    todo, seen, found = ["_paths"], set(), []
    while todo:  # _paths and the module functions it calls, transitively
        name = todo.pop()
        seen.add(name)
        for node in ast.walk(functions[name]):
            if not isinstance(node, ast.Call):
                continue
            if _called_name(node) in {"unique", "sort", "argsort"}:
                found.append(f"{name}:{node.lineno}")
            if (isinstance(node.func, ast.Name) and node.func.id in functions
                    and node.func.id not in seen):
                todo.append(node.func.id)
    assert "_sample_tail_jump" in seen
    assert found == []


def test_finite_graph_sorts_nothing():
    # distinct parent labels come from the occupancy law, one uniform per
    # replicate, where a sort of the batch's (replicate, label) keys cost
    # O(picks log picks) per backward step
    path = SRC / "wfduality" / "wf_graph.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    found = [f"{fn.name}:{node.lineno}" for fn in ast.walk(tree)
             if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)
             if isinstance(node, ast.Call)
             and _called_name(node) in {"unique", "sort", "argsort"}]
    assert found == []


def test_dual_round_searches_once():
    # a round picks every jump with one searchsorted in the flat rate rows
    # and reads the next state from the cache's target table, so neither
    # a clip of the position into its row nor a where over the jump kinds
    path = SRC / "wfduality" / "bcre.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    paths = next(fn for fn in tree.body
                 if isinstance(fn, ast.FunctionDef) and fn.name == "_paths")
    calls = [_called_name(node) for node in ast.walk(paths)
             if isinstance(node, ast.Call)]
    assert calls.count("searchsorted") == 1
    assert not {"clip", "where"} & set(calls)


def test_cli_import_leaves_out_scipy():
    # scipy took most of the CLI's start-up time, and the runtime needs
    # numpy only: no scipy module may be loaded
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    code = "import sys, wfduality.cli; print(sorted(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    modules = ast.literal_eval(out)
    assert "wfduality.cli" in modules
    assert [m for m in modules if m == "scipy" or m.startswith("scipy.")] == []


def test_cli_import_loads_only_stdlib_numpy_and_click():
    # every module the CLI's import adds belongs to the standard library,
    # numpy, click or the package; the difference is taken because the
    # interpreter's site may load other packages before any import
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    code = ("import sys; before = set(sys.modules); import wfduality.cli; "
            "print(sorted(set(sys.modules) - before))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    added = ast.literal_eval(out)
    assert "wfduality.cli" in added
    allowed = set(sys.stdlib_module_names) | {"numpy", "click", "wfduality"}
    assert [m for m in added if m.split(".")[0] not in allowed] == []


def test_moment_run_leaves_out_numpy_ma(tmp_path):
    # numpy 2.4's np.unique without return_inverse imports numpy.ma, which
    # cost a moment run 11-14 ms of its compute; no engine call may load it
    cfg = {"experiment": "duality-moment", "seed": 3,
           "limit": {"kernel": {"variant": "geometric"},
                     "lambda_s": {"atoms": [[0.5, 0.5]]}, "w": 0.1,
                     "lambda_c": {"atoms": [[0.5, 1.0]]}, "c": 1.0,
                     "sigma": 0.0},
           "x": 0.5, "n": 2, "t": 0.2, "dt": 1e-2, "replicates": 100}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    code = ("import sys; from wfduality.cli import main\n"
            "try:\n"
            f"    main(['run', {str(path)!r}, '--out', "
            f"{str(tmp_path / 'o')!r}])\n"
            "except SystemExit as exc:\n"
            "    print(exc.code, 'numpy.ma' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split()[-2:] == ["0", "False"]
    assert (tmp_path / "o" / "result.json").exists()
