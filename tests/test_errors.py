"""Every package error survives pickling, as it must to leave a sweep worker."""
from __future__ import annotations

import pickle

import pytest

from grundy import errors

SAMPLES = {
    errors.GrundyError: ("plain",),
    errors.InputError: ("bad value",),
    errors.FormatError: ("bad file",),
    errors.DuplicateVertexError: (3, 5),
    errors.IsolatedVertexError: (2, "cover"),
    errors.IllegalStepError: (4, 7),
    errors.SizeCapError: (30, 20, "vertices (test)"),
    errors.BudgetExceededError: (101, 100),
    errors.NotChainGraphError: ("incomparable neighborhoods", (0, 2)),
    errors.VerificationError: ("witness failed",),
}


def all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from all_subclasses(sub)


def test_samples_cover_every_error_type():
    assert set(SAMPLES) == {errors.GrundyError, *all_subclasses(errors.GrundyError)}


@pytest.mark.parametrize("cls", list(SAMPLES), ids=lambda cls: cls.__name__)
def test_round_trip(cls):
    error = cls(*SAMPLES[cls])
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert str(copy) == str(error)
    assert copy.args == error.args
    assert vars(copy) == vars(error)


def test_witness_survives():
    copy = pickle.loads(pickle.dumps(errors.NotChainGraphError("not chain", (1, 4))))
    assert (copy.reason, copy.witness) == ("not chain", (1, 4))
    assert str(copy) == "not chain: vertices 1 and 4"
