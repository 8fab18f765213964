"""The package surface: its public names, its record types, and its imports."""

import ast
import weakref
from pathlib import Path

import pytest

import ultragraph
from ultragraph import (
    Branch,
    Extremity,
    ExtremityClass,
    GeneratedSeq,
    PeriodicSeq,
    StandardNode,
    generated,
)
from ultragraph.graphs import Violation
from ultragraph.project import (
    ExtSpec,
    FamilySpec,
    NetworkSpec,
    OracleSpec,
    QuerySpec,
    SeqSpec,
    SetSpec,
)

PACKAGE = Path(ultragraph.__file__).resolve().parent


def test_every_public_name_resolves_and_star_import_binds_it():
    for name in ultragraph.__all__:
        getattr(ultragraph, name)
    namespace: dict = {}
    exec("from ultragraph import *", namespace)
    assert set(ultragraph.__all__) <= set(namespace)
    assert ultragraph.NsNetwork is ultragraph.network.NsNetwork
    assert ultragraph.verify_laws is ultragraph.network.verify_laws


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ultragraph.no_such_name  # noqa: B018
    assert not hasattr(ultragraph, "no_such_name")


# Each formerly frozen record, built twice from equal fields.
FROZEN = {
    "Extremity": lambda: Extremity("tip", "t0", 0),
    "StandardNode": lambda: StandardNode.make("x", 1, ("t",), "y"),
    "Violation": lambda: Violation("tip-unowned", "tip t belongs to no node"),
    "PeriodicSeq": lambda: PeriodicSeq.make((1,), (2, 3)),
    "GeneratedSeq": lambda: generated(abs, 5, key=("abs",)),
    "ExtremityClass": lambda: ExtremityClass("tip", 0, True, "tip of rank 0"),
    "Branch": lambda: Branch(2.0, 1.0),
    "SetSpec": lambda: SetSpec("mod", modulus=2, residue=1),
    "OracleSpec": lambda: OracleSpec("main", ((2, 1),), (("in", SetSpec("finite", (3,))),)),
    "SeqSpec": lambda: SeqSpec("gen", gen=("affine", 1, 2), nmax=10),
    "ExtSpec": lambda: ExtSpec("ep", cycle=(("tip", "a"),)),
    "FamilySpec": lambda: FamilySpec("f", ("g",), SeqSpec("ep", cycle=(0,))),
    "NetworkSpec": lambda: NetworkSpec("n", "f", ((("r", "b"), SeqSpec("ep", cycle=(1.0,))),)),
    "QuerySpec": lambda: QuerySpec("q", "f", 1, ExtSpec("ep", cycle=(("tip", "a"),))),
}


def field_names(record) -> tuple:
    fields = getattr(record, "_fields", None)
    if fields is None:
        fields = tuple(s for s in type(record).__slots__ if not s.startswith("__"))
    return fields


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_are_immutable_values(name):
    first, second = FROZEN[name](), FROZEN[name]()
    assert type(first).__name__ == name
    assert first is not second
    assert first == second and hash(first) == hash(second)
    for field in field_names(first):
        with pytest.raises(AttributeError):
            setattr(first, field, None)
    assert first == second


def test_records_of_one_shape_from_different_specs_differ():
    # SeqSpec and ExtSpec share five fields; ``gen`` is a tuple in one and a
    # string in the other, so two parsed specs are never equal.
    assert SeqSpec("ep", cycle=(("tip", "a"),)) != ExtSpec("ep", cycle=(("tip", "a"),))
    assert SeqSpec("gen", gen=("identity",), nmax=5) != ExtSpec("gen", gen="identity", nmax=5)


def test_generated_sequences_check_their_fields_and_are_weakly_referable():
    with pytest.raises(ValueError, match="unknown traits"):
        GeneratedSeq(abs, 5, frozenset({"periodic"}))
    with pytest.raises(ValueError, match="n_max must be at least 1"):
        GeneratedSeq(abs, 0)
    seq = GeneratedSeq(abs, 5)
    assert weakref.ref(seq)() is seq
    assert seq == seq and seq != GeneratedSeq(abs, 5)
    with pytest.raises(AttributeError):
        del seq.fn


def test_no_module_of_the_package_imports_dataclasses():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert "dataclasses" not in names, f"{path.name}:{node.lineno} imports dataclasses"
