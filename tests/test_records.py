"""Every record type the package exports survives ``pickle`` and ``deepcopy``.

A record is an exported class that is neither an enum nor an exception.
Each is built here by a library call, and a ``CombType`` after its derived
maps have been read, since those maps are what a copy must leave out.  A new
record type fails the suite until it is listed here.

The checked records derive from one base in ``rationals``: they refuse every
assignment in one wording, and pickle and copy rebuild them by their class
call, while pickles written by ``__new__`` alone still load.
"""
import copy
import inspect
import pickle
from enum import Enum

import pytest

import tangentia
from tangentia import assembly, census, covers, lattice, rationals, torsion, trees, verify


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


CHECKED = ("DivisorClass", "TorsionPoint", "Component", "CombType", "WeightedCombType")


def test_the_checked_records_are_the_subclasses_of_the_base():
    assert {cls.__name__ for cls in rationals._Record.__subclasses__()} == set(CHECKED)


@pytest.mark.parametrize("name", CHECKED)
def test_a_checked_record_is_read_only_and_pickles_as_its_class_call(name):
    record = RECORDS[name]()
    rebuild, fields = record.__reduce__()
    assert rebuild is type(record) and rebuild(*fields) == record
    for attr in (getattr(record, "_fields", "a")[0], "x"):
        for change in (lambda: setattr(record, attr, 1), lambda: delattr(record, attr)):
            with pytest.raises(AttributeError) as caught:
                change()
            assert str(caught.value) == f"cannot set or delete {attr!r}: {name} is read-only"


# protocol-2 pickles that rebuild by __new__ (the NEWOBJ opcode), as these
# records pickled before they pickled as a class call
OLD_PICKLES = [
    (b"\x80\x02ctangentia.lattice\nDivisorClass\nq\x00K\x02(K\x01K\x01K\x00K\x00K\x00K\x00"
     b"tq\x01\x86q\x02\x81q\x03.", lambda: lattice.DivisorClass(2, (1, 1, 0, 0, 0, 0))),
    (b"\x80\x02ctangentia.census\nComponent\nq\x00(X\x05\x00\x00\x00coverq\x01K\x01K\x01K\x04NN"
     b"tq\x02\x81q\x03.", lambda: census.Component("cover", 1, 1, 4)),
    (b"\x80\x02ctangentia.trees\nWeightedCombType\nq\x00ctangentia.trees\nCombType\nq\x01(K\x01K"
     b"\x02X\x03\x00\x00\x001:0q\x02\x85q\x03X\x03\x00\x00\x002:0q\x04X\x03\x00\x00\x002:1q"
     b"\x05\x86q\x06\x86q\x07h\x04h\x02\x86q\x08h\x05h\x02\x86q\t\x86q\nh\x06tq\x0bRq\x0cK"
     b"\x01K\x02\x86q\r\x86q\x0e\x81q\x0f.",
     lambda: trees.propagate_weights(trees.enumerate_types(1, 2)[0], (1, 2))),
]


@pytest.mark.parametrize("data, build", OLD_PICKLES)
def test_pickles_written_by_new_still_load(data, build):
    record = build()
    assert pickle.loads(data) == record and type(pickle.loads(data)) is type(record)
