"""Frozen dataclasses whose compared fields hold arrays compare and hash by identity.

A generated ``__eq__`` compares field tuples, and numpy's elementwise ``==``
on two distinct arrays has no truth value, so it raised ValueError for any
two such objects that did not share every array. With ``eq=False`` a class
keeps ``object``'s identity ``==`` and ``hash``.
"""

import ast
import pathlib

import numpy as np
import pytest

from retroq import _accel
from retroq import algebra as al
from retroq import channels as ch
from retroq import classical as cl
from retroq import dynamics as dyn
from retroq import retrodiction as rd
from retroq import scenarios as sc
from retroq import thermo as th
from retroq import trajectories as tr

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "retroq"
MIXED = np.eye(2) / 2.0
# frozen dataclasses whose fields hold no array: they keep the generated ==
NO_ARRAYS = {"Uniforms", "Stage", "PqsPair", "Assertion", "ScenarioEntry", "NeutralityReport"}


def counting_model():
    return tr.monitoring_model(0.5 * al.SX, al.SM, 1.0, 0.8, "counting")


def generator():
    return dyn.LindbladGenerator(-0.5 * al.SZ, (th.thermal_bath(1.0, 1.0, 1.0, "b"),))


def timeline():
    return dyn.propagate_forward(generator(), al.projector(al.ket(2, 1)), 0.0, 0.2, 0.1)


def hmm():
    return cl.HmmModel(np.array([[0.9, 0.1], [0.2, 0.8]]), np.array([[0.7, 0.3], [0.4, 0.6]]), np.array([0.5, 0.5]))


BUILDS = {
    "RecordStep": lambda: _accel.record_step(counting_model(), 0.1),
    "Instrument": lambda: ch.unsharp_z(0.5),
    "Channel": lambda: ch.Channel((np.eye(2),)),
    "Dilation": lambda: ch.naimark_dilate(ch.unsharp_z(0.5)),
    "HmmModel": hmm,
    "LinearGaussianModel": lambda: cl.LinearGaussianModel(*np.ones((4, 1, 1)), np.zeros(1), np.ones((1, 1))),
    "Bath": lambda: dyn.Bath("b", (al.SM,)),
    "LindbladGenerator": generator,
    "Timeline": timeline,
    "BoundaryPair": lambda: rd.BoundaryPair(MIXED, np.eye(2)),
    "ChainSpec": lambda: cl.smoothing_chain(hmm(), [0, 1]),
    "ScenarioReport": lambda: sc.ScenarioReport("s", {"v": 1.0}, (), {"t.csv": (["a"], np.zeros((2, 1)))}),
    "ThermoReport": lambda: th.thermo_report(generator(), timeline(), th.gibbs_state(-0.5 * al.SZ, 1.0)),
    "MonitoringModel": counting_model,
    "MeasurementRecord": lambda: tr.MeasurementRecord("counting", [0.0, 0.1, 0.2], [0, 1]),
    "CountingEnumeration": lambda: tr.enumerate_counting(counting_model(), MIXED, np.eye(2), 2, 0.1),
    "HomodyneEnsemble": lambda: tr.ensemble_homodyne(tr.monitoring_model(al.SX, al.SM, 1.0), MIXED, 0.01, 1e-3, 2, 1),
    "CountingEnsemble": lambda: tr.ensemble_counting(counting_model(), MIXED, 0.01, 1e-3, 2, 1),
}


def frozen_dataclasses():
    """(class name, whether it passes eq=False) of each @dataclass(frozen=True) in src/retroq."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            for dec in getattr(node, "decorator_list", []) if isinstance(node, ast.ClassDef) else []:
                keywords = {k.arg: k.value.value for k in getattr(dec, "keywords", ())}
                if getattr(dec, "func", None) is not None and keywords.get("frozen"):
                    found.append((node.name, keywords.get("eq", True) is False))
    return found


def test_every_frozen_dataclass_that_holds_arrays_compares_by_identity():
    found = frozen_dataclasses()
    assert {name for name, identity in found if identity} == set(BUILDS)
    assert {name for name, identity in found if not identity} == NO_ARRAYS


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_equal_builds_compare_by_identity_without_raising(name):
    a, b = BUILDS[name](), BUILDS[name]()
    assert type(a).__name__ == name
    assert a == a and not (a != a)
    assert (a == b) is False and (a != b) is True
    assert len({a, b, a}) == 2 and hash(a) == hash(a)
