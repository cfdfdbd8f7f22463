import importlib
import importlib.util
import pkgutil
import re
import shutil
import sys
from pathlib import Path

import pytest

import twophase_ate
import twophase_ate.cli
from twophase_ate import estimators

from util import run_python

MODULES = ["twophase_ate"] + [f"twophase_ate.{m.name}"
                              for m in pkgutil.iter_modules(twophase_ate.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def _bench_module(name: str, monkeypatch):
    """bench/<name>.py, loaded from its file; its sys.modules entry, which
    its dataclasses need while they are built, is removed after the test."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def _unresolved(names) -> list[str]:
    """The "module.function" names that are not a callable of the package."""
    missing = []
    for name in names:
        module, attr = name.split(".")
        if not callable(getattr(importlib.import_module(f"twophase_ate.{module}"), attr, None)):
            missing.append(name)
    return missing


def test_every_traced_function_resolves(monkeypatch):
    # the tracer looks each name up when it installs: a renamed function
    # would crash a traced benchmark run
    tracing = _bench_module("tracing", monkeypatch)
    assert _unresolved(f"{module}.{attr}" for module, attr in tracing.TRACED) == []


def test_every_required_span_resolves(monkeypatch):
    # a traced run fails its correctness gate when a required span never
    # fires, so a renamed function must fail here and not only in the
    # benchmark's self-test
    run = _bench_module("run", monkeypatch)
    required = {name for wl in run.WORKLOADS.values() for name in wl.required_spans}
    assert required and _unresolved(sorted(required)) == []


@pytest.mark.parametrize("workload", ["study_all8_missing50", "study_raking_census",
                                      "estimate_cohort_n10k"])
def test_every_required_span_is_reached(workload, monkeypatch, tmp_path):
    # a change that stops calling a required function passes every other
    # test and fails only the benchmark's traced run; one tiny traced
    # operation per workload catches it here
    run = _bench_module("run", monkeypatch)
    tracing = _bench_module("tracing", monkeypatch)
    wl = run.WORKLOADS[workload]
    assert set(run.WORKLOADS) == {"study_all8_missing50", "study_raking_census",
                                  "estimate_cohort_n10k"}
    inputs = run.make_inputs(wl, 1, wl.tiny_size, tmp_path, with_reference=False)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = run.run_op(twophase_ate.cli, wl, inputs.config, inputs.out,
                         run.op_seed(1, 0, wl.tiny_size), 1)
    finally:
        tracer.uninstall()
    assert res.code == 0 and res.text is not None
    summary = tracer.summary({0})
    assert [name for name in wl.required_spans if summary.get(name, {}).get("calls", 0) == 0] == []


def test_dispatch_holds_the_module_level_estimators():
    # the tracer patches estimate_<id> by identity, in the module and in _DISPATCH
    for est_id in estimators.ESTIMATOR_IDS:
        assert estimators._DISPATCH[est_id] is getattr(estimators, f"estimate_{est_id}")


def _readme_estimator_ids() -> list[str]:
    """The ids in the first column of the README's "Estimators" table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Estimators\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE)


def test_every_roster_names_the_estimator_table(monkeypatch):
    # an estimator added to the table alone must not go unbenchmarked or
    # undocumented
    ids = sorted(estimators.ESTIMATOR_IDS)
    assert sorted(_readme_estimator_ids()) == ids
    assert sorted(_bench_module("run", monkeypatch).ALL_ESTIMATORS) == ids


# glm loads LAPACK's dpotrf/dpotrs and expit/ndtr from scipy's compiled
# modules, so the import runs no scipy package __init__: those of
# scipy.linalg and scipy.special load scipy's array-API layer, which brought
# in these modules that the package never uses
UNUSED_MODULES = {"numpy.f2py", "numpy.testing", "unittest"}

_LIST_IMPORTS = f"""
import sys
import twophase_ate, twophase_ate.cli
for name, module in sorted(sys.modules.items()):
    if (name.split(".")[0] == "scipy" and hasattr(module, "__path__")
            or name in {sorted(UNUSED_MODULES)}):
        print(name)
"""


def test_import_loads_only_the_scipy_subpackages_it_calls():
    # every CLI call is a fresh process, so each module imported at load
    # time is paid again on every call
    proc = run_python("-c", _LIST_IMPORTS)
    assert proc.returncode == 0, proc.stderr
    extra = proc.stdout.split()
    assert extra == [], (
        f"importing twophase_ate.cli loads {', '.join(extra)}; "
        "find the importer with: python -X importtime -c 'import twophase_ate.cli'")


_SAME_KERNELS = """
import sys
if sys.argv[1] == "scipy first":
    import scipy.linalg.lapack, scipy.special
import twophase_ate.cli
import scipy.linalg.lapack, scipy.special
from twophase_ate import glm
public = {"dpotrf": scipy.linalg.lapack, "dpotrs": scipy.linalg.lapack,
          "expit": scipy.special, "ndtr": scipy.special}
print(" ".join(name for name, module in public.items()
               if getattr(glm, name) is not getattr(module, name)))
"""


@pytest.mark.parametrize("order", ["package first", "scipy first"])
def test_kernels_are_scipys_own_objects_in_either_import_order(order):
    # the same function objects, so the same results bit for bit
    proc = run_python("-c", _SAME_KERNELS, order)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


_FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
"""


def test_failing_property_does_not_abort_the_run(tmp_path):
    # to print a failing example, Hypothesis imports libcst, whose
    # DeprecationWarning the filters of pyproject.toml used to turn into an
    # INTERNALERROR: exit 3, no example shown and no later test run
    shutil.copy(Path(__file__).resolve().parents[1] / "pyproject.toml", tmp_path)
    (tmp_path / "test_two.py").write_text(_FAILING_PROPERTY)
    proc = run_python("-m", "pytest", "-q", "-p", "no:cacheprovider", cwd=tmp_path)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout and "Falsifying example" in proc.stdout
