"""What the benchmark's external tracer (bench/tracer.py) needs from radform.

The tracer wraps radform's layer functions from outside the package, so a
refactor can break a traced benchmark run without breaking any other test.
These tests load the tracer read-only and check that every target it names
resolves the way Tracer.install resolves it, and that the `terms` view it
reads for coefficient sizes keeps its shape.
"""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import types
from fractions import Fraction

import pytest

from radform.cyclotomic import CycScalar, root_of_unity
from radform.multipoly import MPoly

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


@pytest.mark.parametrize("target", tracer.TARGETS, ids=[t[0] for t in tracer.TARGETS])
def test_target_resolves_as_install_does(target):
    _, module_name, path, _ = target
    owner = importlib.import_module(module_name)
    *owner_path, attr = path.split(".")
    for part in owner_path:
        owner = getattr(owner, part)
    if owner_path:
        # install() reads the class's own __dict__: a method inherited from
        # a base class would not be found there
        assert attr in vars(owner), f"{path} is not defined in its class body"
        assert callable(vars(owner)[attr])
    else:
        assert callable(getattr(owner, attr))


def test_cold_cli_import_loads_every_target_and_no_dataclasses():
    # the child must import the same checkout as this process
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    result = subprocess.run(
        [sys.executable, "-c",
         "import json, sys; before = sorted(sys.modules); import radform.cli; "
         "print(json.dumps([before, sorted(sys.modules)]))"],
        capture_output=True, text=True, env=env, check=True,
    )
    before, loaded = (set(names) for names in json.loads(result.stdout))
    assert not {"dataclasses", "inspect"} & (loaded - before)
    # Tracer.install() reads these from sys.modules right after the import
    assert {module_name for _, module_name, _, _ in tracer.TARGETS} <= loaded


def test_install_counts_calls_and_uninstall_restores():
    import radform.cli  # noqa: F401  (loads every module the tracer patches)

    original = vars(CycScalar)["__mul__"]
    t = tracer.Tracer()
    t.install()
    try:
        f = (MPoly.variable(2, 1) + root_of_unity(3, 3)) ** 2
        _ = root_of_unity(3, 3) * root_of_unity(3, 3)
    finally:
        t.uninstall()
    assert vars(CycScalar)["__mul__"] is original
    calls = t.summary()["calls"]
    assert calls["multipoly.MPoly.pow"] == 1
    assert calls["multipoly.MPoly.mul"] >= 1
    assert calls["cyclotomic.CycScalar.mul"] >= 1
    assert t.summary()["counters"]["multipoly.coeff_bits.max"] >= 1
    assert f.order == 3


def test_terms_view_shape():
    f = MPoly(2, {(1, 0): root_of_unity(3, 3), (0, 2): Fraction(-7, 2), (0, 0): 5})
    view = f.terms
    assert set(view) == {(1, 0), (0, 2), (0, 0)}
    for exps, coeff in view.items():
        assert isinstance(exps, tuple) and all(type(e) is int for e in exps)
        assert isinstance(coeff, CycScalar) and coeff.order == f.order == 3
        assert all(isinstance(c, Fraction) for c in coeff.coeffs)
    assert view[(0, 2)].coeffs == (Fraction(-7, 2), 0)
    assert tracer._coeff_bits(f) == 3
    with pytest.raises(TypeError):
        view[(0, 0)] = 1
    assert f.terms is not view


def _operands():
    from radform.formula import parse

    doc = parse((ROOT / "fixtures" / "degree2.tower").read_text())
    return types.SimpleNamespace(
        w=root_of_unity(3, 3), x=MPoly.variable(2, 1), y1=doc.spec.generator(1)
    )


# (expression, calls it books, whether those are all its traced calls); the
# reflected and derived operators live in radform.cyclotomic's Ring and Field
# bases, outside the class bodies install() patches, and must still reach
# the wrapped forward methods
OPERATOR_CALLS = [
    ("1 + w", {"cyclotomic.CycScalar.add": 1}, True),
    ("w - 1", {"cyclotomic.CycScalar.add": 1}, True),
    ("1 - w", {"cyclotomic.CycScalar.add": 1}, True),
    ("2 * w", {"cyclotomic.CycScalar.mul": 1}, True),
    ("w / 2", {"cyclotomic.CycScalar.mul": 1, "cyclotomic.CycScalar.inv": 1}, True),
    ("2 / w", {"cyclotomic.CycScalar.mul": 1, "cyclotomic.CycScalar.inv": 1}, True),
    ("w ** -1", {"cyclotomic.CycScalar.inv": 1}, True),
    ("1 + x", {"multipoly.MPoly.add": 1}, True),
    ("2 * x", {"multipoly.MPoly.mul": 1}, True),
    ("1 - x", {}, True),
    # coordinate products run below the traced operator
    ("y1 * y1", {"tower.TowerElem.mul": 1}, False),
    ("1 / y1", {"tower.TowerElem.inverse": 1}, False),
    ("y1 ** -1", {"tower.TowerElem.inverse": 1}, False),
]


@pytest.mark.parametrize("expression, booked, complete", OPERATOR_CALLS,
                         ids=[case[0] for case in OPERATOR_CALLS])
def test_derived_operators_book_the_wrapped_methods(expression, booked, complete):
    import radform.cli  # noqa: F401  (loads every module the tracer patches)

    operands = vars(_operands())
    t = tracer.Tracer()
    t.install()
    try:
        eval(expression, {}, operands)
    finally:
        t.uninstall()
    calls = {name: n for name, n in t.summary()["calls"].items() if n}
    if complete:
        assert calls == booked
    else:
        assert {name: calls.get(name, 0) for name in booked} == booked
