"""Value semantics of the 15 frozen result classes.

Every class takes its fields positionally or by keyword, fills defaults,
runs ``__post_init__``, refuses assignment and deletion with
``dataclasses.FrozenInstanceError``, and compares, hashes and prints by its
fields in declaration order.  The expected strings and hashes are the ones
the ``@dataclass(frozen=True)`` versions of these classes gave.
"""

from __future__ import annotations

import dataclasses

import pytest

from seqineq.convexity import (
    ConvexityCertificate,
    ConvexityReport,
    SlopeCheck,
    SupportCheck,
    SupportSequence,
)
from seqineq.core import ClassificationFlags, MediantReport, Sequence, ToleranceConfig
from seqineq.interpolation import Polynomial, QuadraticPiece
from seqineq.subadditivity import (
    CompositionResult,
    HullResult,
    PairwiseCheck,
    PartitionWitness,
    subadditive_hull,
)

U = Sequence((1, 3, 2))
BASE0 = Sequence((0, 1, 4), 0)

# (class, keyword arguments, repr); every field is given, so the field names
# are the keys in declaration order.
CASES = [
    (ToleranceConfig, dict(abs_tol=0.5, rel_tol=0.0), "ToleranceConfig(abs_tol=0.5, rel_tol=0.0)"),
    (Sequence, dict(values=(0, -1, 1.5), start_index=0), "Sequence(values=(0.0, -1.0, 1.5), start_index=0)"),
    (MediantReport, dict(min_ratio=1.0, combined_ratio=4 / 3, max_ratio=2.0),
     "MediantReport(min_ratio=1.0, combined_ratio=1.3333333333333333, max_ratio=2.0)"),
    (ClassificationFlags,
     dict(nonnegative=True, monotone_increasing=False, monotone_decreasing=False, convex=True, concave=False),
     "ClassificationFlags(nonnegative=True, monotone_increasing=False, monotone_decreasing=False, "
     "convex=True, concave=False)"),
    (ConvexityReport, dict(is_convex=False, violations=((2, 0.5),)),
     "ConvexityReport(is_convex=False, violations=((2, 0.5),))"),
    (SlopeCheck, dict(ok=False, first_violation=(0, 1, 2)), "SlopeCheck(ok=False, first_violation=(0, 1, 2))"),
    (SupportSequence,
     dict(base=BASE0, values=(1.0, 3.0), first_index=0, last_index=1, witness_pairs=((0, 1), (1, 2))),
     "SupportSequence(base=Sequence(values=(0.0, 1.0, 4.0), start_index=0), values=(1.0, 3.0), "
     "first_index=0, last_index=1, witness_pairs=((0, 1), (1, 2)))"),
    (SupportCheck, dict(ok=False, subgradient_violations=((0, 1),), monotonicity_violations=((1, 2),)),
     "SupportCheck(ok=False, subgradient_violations=((0, 1),), monotonicity_violations=((1, 2),))"),
    (ConvexityCertificate,
     dict(defining=ConvexityReport(True), slopes_ok=True, slope_violation=None, support=None, support_ok=True),
     "ConvexityCertificate(defining=ConvexityReport(is_convex=True, violations=()), slopes_ok=True, "
     "slope_violation=None, support=None, support_ok=True)"),
    (Polynomial, dict(coefficients=(1, 0.5, 0), exact=((2, 1), 2)), "Polynomial(coefficients=(1.0, 0.5))"),
    (QuadraticPiece, dict(center=2, a=0.5, b=-2.0, c=1.0), "QuadraticPiece(center=2, a=0.5, b=-2.0, c=1.0)"),
    (PartitionWitness, dict(n=3, parts=(1, 2)), "PartitionWitness(n=3, parts=(1, 2))"),
    (HullResult,
     dict(v=Sequence((1, 2, 2)), w=Sequence((0, 1, 0)), epsilon_star=1.0, last_part=(1, 1, 3)),
     "HullResult(v=Sequence(values=(1.0, 2.0, 2.0), start_index=1), "
     "w=Sequence(values=(0.0, 1.0, 0.0), start_index=1), epsilon_star=1.0, last_part=(1, 1, 3))"),
    (PairwiseCheck, dict(ok=False, violations=((1, 1),)), "PairwiseCheck(ok=False, violations=((1, 1),))"),
    (CompositionResult, dict(u=U, epsilon=0.5, certified=True),
     "CompositionResult(u=Sequence(values=(1.0, 3.0, 2.0), start_index=1), epsilon=0.5, certified=True)"),
]
IDS = [cls.__name__ for cls, _, _ in CASES]


def _compared(obj, names) -> tuple:
    """The fields that take part in ``==`` and ``hash``, in order."""
    return tuple(getattr(obj, name) for name in names if not (type(obj) is Polynomial and name == "exact"))


def test_the_table_covers_every_class_once():
    assert len({cls for cls, _, _ in CASES}) == len(CASES) == 15


@pytest.mark.parametrize("cls, kwargs, text", CASES, ids=IDS)
def test_keyword_and_positional_construction_agree(cls, kwargs, text):
    by_keyword = cls(**kwargs)
    by_position = cls(*kwargs.values())
    assert by_keyword == by_position
    assert hash(by_keyword) == hash(by_position)
    assert repr(by_keyword) == repr(by_position) == text


@pytest.mark.parametrize("cls, kwargs, text", CASES, ids=IDS)
def test_equality_and_hash_are_over_the_fields(cls, kwargs, text):
    obj = cls(**kwargs)
    fields = _compared(obj, kwargs)
    assert hash(obj) == hash(fields)
    assert obj == cls(**kwargs)
    assert not obj != cls(**kwargs)
    assert obj != fields
    assert obj.__eq__(fields) is NotImplemented
    # an instance of another class is never equal
    other = next(c for c, _, _ in CASES if c is not cls)
    assert obj.__eq__(object.__new__(other)) is NotImplemented


@pytest.mark.parametrize("cls, kwargs, text", CASES, ids=IDS)
def test_assignment_and_deletion_raise_frozen_instance_error(cls, kwargs, text):
    obj = cls(**kwargs)
    name = next(iter(kwargs))
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
        setattr(obj, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
        delattr(obj, name)
    with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'extra'"):
        obj.extra = 1
    assert obj == cls(**kwargs)


def test_one_differing_field_breaks_equality():
    assert QuadraticPiece(2, 0.5, -2.0, 1.0) != QuadraticPiece(2, 0.5, -2.0, 1.5)
    assert Sequence((1, 2)) != Sequence((1, 2), 0)
    assert ToleranceConfig() != ToleranceConfig(rel_tol=0.0)
    assert len({Sequence((1, 2)), Sequence((1.0, 2.0)), Sequence((1, 2), 0)}) == 2


def test_defaults():
    assert ToleranceConfig() == ToleranceConfig(1e-9, 1e-9)
    assert repr(ToleranceConfig()) == "ToleranceConfig(abs_tol=1e-09, rel_tol=1e-09)"
    assert Sequence([1, 3, 2]).start_index == 1
    assert ConvexityReport(True).violations == ()
    assert SlopeCheck(True).first_violation is None
    assert SupportSequence(BASE0, (1.0, 3.0), 0, 1).witness_pairs is None
    assert SupportCheck(True) == SupportCheck(True, (), ())
    assert PairwiseCheck(True) == PairwiseCheck(ok=True, violations=())
    assert repr(PairwiseCheck(True)) == "PairwiseCheck(ok=True, violations=())"
    assert Polynomial((1, 0.5, 0)).exact == ((2, 1), 2)
    with pytest.raises(TypeError):
        QuadraticPiece(2, 0.5, -2.0)
    with pytest.raises(TypeError):
        PairwiseCheck(True, (), None)
    with pytest.raises(TypeError):
        SlopeCheck(ok=True, first=None)


def test_post_init_validates_and_normalises():
    with pytest.raises(ValueError, match="abs_tol must be finite and nonnegative"):
        ToleranceConfig(abs_tol=-1.0)
    with pytest.raises(ValueError, match="sequence must be nonempty"):
        Sequence(values=())
    with pytest.raises(ValueError, match="start_index must be 0 or 1"):
        Sequence((1.0,), start_index=2)
    with pytest.raises(ValueError, match="support window does not match"):
        SupportSequence(BASE0, (1.0,), 0, 1)
    with pytest.raises(ValueError, match="witness pairs do not match"):
        SupportSequence(BASE0, (1.0, 3.0), 0, 1, ((0, 1),))
    with pytest.raises(ValueError, match="coefficients must be finite"):
        Polynomial((float("inf"),))
    with pytest.raises(ValueError, match="parts must be nondecreasing"):
        PartitionWitness(3, (2, 1))
    assert Sequence(values=[1, 2]).values == (1.0, 2.0)
    assert Polynomial(coefficients=(0.0, 0.0)).coefficients == (0.0,)


def test_polynomial_exact_is_outside_repr_eq_and_hash():
    p = Polynomial((1.0,))
    q = Polynomial((1.0,), ((3,), 3))
    assert p.exact == ((1,), 1) and q.exact == ((3,), 3)
    assert p == q
    assert hash(p) == hash(q) == hash(((1.0,),))
    assert repr(q) == "Polynomial(coefficients=(1.0,))"


def test_hull_witnesses_are_computed_once_and_kept():
    hull = subadditive_hull(U)
    assert "witnesses" not in vars(hull)
    first = hull.witnesses
    assert first == (PartitionWitness(1, (1,)), PartitionWitness(2, (1, 1)), PartitionWitness(3, (3,)))
    assert hull.witnesses is first
    assert vars(hull)["witnesses"] is first
    # the cache is not a field
    assert hull == subadditive_hull(U)
    assert hash(hull) == hash(subadditive_hull(U))
    assert "witnesses" not in repr(hull)
