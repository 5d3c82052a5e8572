"""The record contract of ramseykit's 17 value types: constructor forms and
defaults, constructor checks, value equality, hashing and immutability of
the frozen types, and pickle / deepcopy round trips."""

import copy
import importlib
import inspect
import os
import pickle
import subprocess
import sys
from fractions import Fraction

import pytest

from ramseykit import arrowing, canon, density, enumeration, graphs, randomgraphs
from ramseykit.arrowing import BLUE, DEFAULT_NODE_BUDGET, RED

classify = importlib.import_module("ramseykit.classify")  # the package binds the name to the function

K3 = graphs.build_from_text("K3")
K2 = graphs.build_from_text("K2")
C5 = graphs.build_from_text("C5")
COLORING = arrowing.EdgeColoring(K3, {(0, 1): RED, (0, 2): BLUE, (1, 2): RED})
VERDICT = arrowing.ArrowVerdict(False, COLORING, 7, 0.5)
REPORT = arrowing.MinimalityReport(True, {(0, 1): VERDICT})
BOUNDS = enumeration.SearchBounds(5, 6, 1000)
MEMBER = enumeration.CatalogMember(C5, REPORT)
RHO = density.DensityValue(Fraction(1), (0, 1, 2))

# (type, constructor arguments in parameter order, parameter names,
#  defaults, frozen); each argument list differs from `OTHER` below
CASES = [
    (arrowing.EdgeColoring, (K3, {(0, 1): RED}), ("host", "assignment"), {"assignment": None}, False),
    (arrowing.ArrowVerdict, (False, COLORING, 7, 0.5), ("arrows", "witness", "nodes", "elapsed"), {}, False),
    (arrowing.MinimalityReport, (True, {(0, 1): VERDICT}), ("is_ramsey", "edge_verdicts"), {}, False),
    (canon.CanonicalForm, (b"\x03", (0, 1, 2), ((1, 0, 2),)), ("certificate", "permutation", "automorphisms"), {}, True),
    (classify.StarForestShape, ((3, 2), 1), ("stars", "matching_count"), {}, True),
    (classify.TrailEntry, ("R1", "a citation", "a reason"), ("rule", "citation", "reason"), {}, True),
    (classify.Classification, ("Unknown", (classify.TrailEntry("R8", "c", "r"),), "n0 unknown"),
     ("verdict", "trail", "condition"), {"condition": None}, True),
    (density.DensityValue, (Fraction(3, 2), (0, 1, 2)), ("value", "witness"), {}, True),
    (density.PairDensity, (Fraction(2), (0, 1, 2), True), ("value", "witness", "swapped"), {}, True),
    (density.DensityReport, (RHO, RHO, density.PairDensity(Fraction(2), (0, 1, 2), False)),
     ("rho", "m2", "m2_pair"), {}, True),
    (enumeration.SearchBounds, (5, 6, 1000), ("max_vertices", "max_edges", "node_budget"),
     {"node_budget": DEFAULT_NODE_BUDGET}, True),
    (enumeration.CatalogMember, (C5, REPORT), ("graph", "minimality"), {}, False),
    (enumeration.MinimalCatalog, ((K2, K2), BOUNDS, [MEMBER], True), ("pair", "bounds", "members", "complete"), {}, False),
    (enumeration.DensityAuditReport, (Fraction(1), [Fraction(2)]), ("threshold", "rho_values"), {}, False),
    (graphs.Graph, (3, (6, 5, 3)), ("n", "adj"), {}, True),
    (randomgraphs.ExperimentConfig, (K3, K3, (6, 8), (Fraction(1, 2), 1), 5, 1, 1000),
     ("G", "H", "n_values", "c_values", "samples", "seed", "node_budget"), {"node_budget": DEFAULT_NODE_BUDGET}, True),
    (randomgraphs.CellResult, (8, 0.5, 0.25, (True,) * 3 + (False,) * 6 + (None,)),
     ("n", "c", "p", "outcomes"), {}, False),
]

# a second argument list per type, unequal to the first in one field
OTHER = {
    arrowing.EdgeColoring: (K3, {(0, 1): BLUE}),
    arrowing.ArrowVerdict: (False, COLORING, 8, 0.5),
    arrowing.MinimalityReport: (False, {(0, 1): VERDICT}),
    canon.CanonicalForm: (b"\x03", (0, 2, 1), ((1, 0, 2),)),
    classify.StarForestShape: ((3, 2), 2),
    classify.TrailEntry: ("R2", "a citation", "a reason"),
    classify.Classification: ("Unknown", (classify.TrailEntry("R8", "c", "r"),), None),
    density.DensityValue: (Fraction(3, 2), (0, 1, 3)),
    density.PairDensity: (Fraction(2), (0, 1, 2), False),
    density.DensityReport: (RHO, None, None),
    enumeration.SearchBounds: (5, 7, 1000),
    enumeration.CatalogMember: (K3, REPORT),
    enumeration.MinimalCatalog: ((K2, K2), BOUNDS, [MEMBER], False),
    enumeration.DensityAuditReport: (Fraction(2), [Fraction(2)]),
    graphs.Graph: (3, (2, 5, 2)),
    randomgraphs.ExperimentConfig: (K3, K3, (6, 8), (Fraction(1, 2), 1), 5, 2, 1000),
    randomgraphs.CellResult: (8, 0.5, 0.25, (True,) * 4 + (False,) * 5 + (None,)),
}

IDS = [case[0].__name__ for case in CASES]


def test_every_record_type_is_covered():
    assert len(CASES) == 17 and len(set(IDS)) == 17
    assert set(OTHER) == {case[0] for case in CASES}
    assert sum(case[4] for case in CASES) == 10


@pytest.mark.parametrize("cls,args,names,defaults,frozen", CASES, ids=IDS)
def test_constructor_forms(cls, args, names, defaults, frozen):
    params = inspect.signature(cls).parameters
    assert tuple(params) == names
    assert {k: p.default for k, p in params.items() if p.default is not inspect.Parameter.empty} == defaults
    positional = cls(*args)
    assert cls(**dict(zip(names, args))) == positional
    assert cls(*args[:1], **dict(zip(names[1:], args[1:]))) == positional
    assert cls(*copy.deepcopy(args)) == positional
    assert cls(*OTHER[cls]) != positional
    assert positional != object() and positional != args
    required = len(names) - len(defaults)
    filled = args[:required] + tuple(defaults[name] for name in names[required:])
    assert cls(*args[:required]) == cls(*filled)
    if cls is not arrowing.EdgeColoring:  # EdgeColoring reads its dict into rows
        assert all(getattr(positional, name) == arg for name, arg in zip(names, args))


def test_constructor_calls_made_by_callers():
    assert enumeration.MinimalCatalog((K2, K2), BOUNDS, [MEMBER], complete=True).complete is True
    assert enumeration.CatalogMember(C5, REPORT).graph == C5
    empty = arrowing.MinimalityReport(None, {})
    assert (empty.is_ramsey, empty.edge_verdicts, empty.is_minimal, empty.per_edge) == (None, {}, None, {})
    assert arrowing.EdgeColoring(K3) == arrowing.EdgeColoring(K3, {}) == arrowing.EdgeColoring(K3, None)


@pytest.mark.parametrize(
    "make",
    [
        lambda: graphs.Graph(-1, ()),
        lambda: graphs.Graph(1025, (0,) * 1025),
        lambda: graphs.Graph(2, (1, 0)),
        lambda: graphs.Graph(1, (1,)),
        lambda: graphs.Graph(2, (4, 0)),
        lambda: graphs.Graph(3, (2, 1)),
        lambda: enumeration.SearchBounds(-1, 3),
        lambda: enumeration.SearchBounds(3, -1),
        lambda: enumeration.SearchBounds(65, 3),
        lambda: enumeration.SearchBounds(3, 3, 0),
        lambda: randomgraphs.ExperimentConfig(K3, graphs.Graph.empty(2), (6,), (1,), 5, 1),
        lambda: randomgraphs.ExperimentConfig(K3, K3, (6,), (1,), 5, 1, 0),
        lambda: randomgraphs.ExperimentConfig(K3, K3, (6,), (1,), 0, 1),
        lambda: randomgraphs.ExperimentConfig(K3, K3, (6,), (1,), 1001, 1),
        lambda: randomgraphs.ExperimentConfig(K3, K3, (2,), (1,), 5, 1),
        lambda: randomgraphs.ExperimentConfig(K3, K3, (25,), (1,), 5, 1),
        lambda: randomgraphs.ExperimentConfig(K3, K3, (6,), (0,), 5, 1),
        lambda: randomgraphs.ExperimentConfig(K3, K3, (6,), (Fraction(2**1100),), 5, 1),
        lambda: randomgraphs.ExperimentConfig(K3, K3, (6,), (float("inf"),), 5, 1),
        lambda: randomgraphs.ExperimentConfig(K3, K3, (6,), ("1/0",), 5, 1),
        lambda: randomgraphs.ExperimentConfig(K3, K3, (8.0,), (1,), 5, 1),
        lambda: randomgraphs.ExperimentConfig(K3, K3, (6,), (1,), 2.5, 1),
        lambda: randomgraphs.ExperimentConfig(graphs.build_from_text("P4"), K3, (6,), (1,), 5, 1),
        lambda: enumeration.SearchBounds(4, 3.0),
        lambda: enumeration.SearchBounds("4", 3),
    ],
)
def test_constructor_checks_raise_value_error(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("cls,args,names,defaults,frozen", CASES, ids=IDS)
def test_pickle_and_deepcopy_round_trips(cls, args, names, defaults, frozen):
    obj = cls(*args)
    for back in (pickle.loads(pickle.dumps(obj)), copy.deepcopy(obj), copy.copy(obj)):
        assert type(back) is cls
        assert back == obj


@pytest.mark.parametrize("cls,args,names,defaults,frozen", CASES, ids=IDS)
def test_hashing_and_immutability(cls, args, names, defaults, frozen):
    obj = cls(*args)
    if not frozen:
        with pytest.raises(TypeError):
            hash(obj)
        return
    assert hash(obj) == hash(cls(*copy.deepcopy(args)))
    assert len({obj, cls(*args), cls(*OTHER[cls])}) == 2
    for name in names:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert obj == cls(*args)


def test_mutable_records_take_assignment():
    verdict = arrowing.ArrowVerdict(True, None, 1, 0.0)
    verdict.nodes = 2
    assert verdict == arrowing.ArrowVerdict(True, None, 2, 0.0)
    catalog = enumeration.MinimalCatalog((K2, K2), BOUNDS, [], False)
    catalog.members.append(MEMBER)
    assert catalog == enumeration.MinimalCatalog((K2, K2), BOUNDS, [MEMBER], False)


def test_slotted_records_have_no_instance_dict():
    for obj in (COLORING, VERDICT):
        assert not hasattr(obj, "__dict__")
        with pytest.raises(AttributeError):
            obj.extra = 1


def test_graph_keeps_a_dict_for_its_cached_edge_count():
    g = graphs.Graph(3, (6, 5, 3))
    assert g.edge_count == 3 and g.__dict__["edge_count"] == 3
    assert pickle.loads(pickle.dumps(g)).edge_count == 3
    assert g == graphs.Graph(3, (6, 5, 3)) and hash(g) == hash(graphs.Graph(3, (6, 5, 3)))


def test_importing_the_cli_generates_no_code():
    # a dataclass decoration compiles its methods at import; the CLI
    # process should import neither dataclasses nor its compiler helpers
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    probe = (
        "import sys, ramseykit.cli\n"
        "from ramseykit.graphs import Graph\n"
        "assert 'dataclasses' not in sys.modules, 'dataclasses imported'\n"
        "init = Graph.__init__\n"
        "assert init.__code__.co_filename.endswith('graphs.py'), init\n"
        "calls = []\n"
        "def wrapped(self, *args):\n"
        "    calls.append(args)\n"
        "    init(self, *args)\n"
        "Graph.__init__ = wrapped\n"
        "g = Graph(2, (2, 1))\n"
        "assert calls == [(2, (2, 1))] and g.edge_count == 1, calls\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", probe], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
