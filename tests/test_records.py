"""Every record type the package exports survives ``pickle`` and ``deepcopy``.

A record is an exported class that is neither an enum nor an exception.
Each is built here by a library call, and a ``CombType`` after its derived
maps have been read, since those maps are what a copy must leave out.  A new
record type fails the suite until it is listed here.
"""
import copy
import inspect
import pickle
from enum import Enum

import pytest

import tangentia
from tangentia import assembly, covers, lattice, torsion, trees, verify


def _used_shape():
    shape = trees.enumerate_types(2, 3)[0]
    shape.partition_chain()
    return shape


RECORDS = {
    "DivisorClass": lambda: lattice.parse_class_literal("4H-E1-E2-2E3"),
    "ClassTableRow": lambda: lattice.enumerate_classes(4)[0],
    "TorsionPoint": lambda: torsion.solve_division(torsion.restriction_class(
        lattice.parse_class_literal("2H-E1-E2")), 4)[0],
    "Component": lambda: tangentia.boundary_census(4, "T3").components[-1],
    "CensusEntry": lambda: tangentia.boundary_census(4, "T3"),
    "LedgerLine": lambda: assembly.assemble_invariant(4).lines[0],
    "GwLedger": lambda: assembly.assemble_invariant(4),
    "IntegralityRow": lambda: covers.integrality_report(2, 2)[-1],
    "CombType": _used_shape,
    "WeightedCombType": lambda: trees.propagate_weights(_used_shape(), (1, 2, 3)),
    "CheckResult": lambda: verify.run_all_checks()[0],
}


def test_every_exported_record_type_is_listed():
    exported = {name for name in tangentia.__all__
                if inspect.isclass(value := getattr(tangentia, name))
                and not issubclass(value, (Enum, BaseException))}
    assert exported == set(RECORDS)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_a_record_survives_pickle_and_deepcopy(name):
    record = RECORDS[name]()
    assert type(record) is getattr(tangentia, name)
    for again in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(again) is type(record) and again == record and again is not record
