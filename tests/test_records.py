"""Contract of the value records: immutable named tuples, equal and hashed
by value, with the validating ones checking every construction."""

import inspect
from decimal import Decimal
from fractions import Fraction

import pytest

import mfhh.charlat
import mfhh.diagpoly
import mfhh.hhengine
import mfhh.intlat
from mfhh.charlat import build_character_lattice
from mfhh.diagpoly import DiagonalPolynomial
from mfhh.hhengine import HochschildEngine, verify_proposition
from mfhh.intlat import AbelianGroupStructure

P = (2, 2, 3, 5)


def _engine():
    return HochschildEngine(DiagonalPolynomial(P, True))


# Each factory builds its record from scratch, so two calls give equal
# values that share no objects.
FACTORIES = {
    "AbelianGroupStructure": lambda: AbelianGroupStructure(1, (2, 4)),
    "Weight": lambda: build_character_lattice(P, True).chi,
    "GroupElement": lambda: build_character_lattice(P, True).enumerate_ker_chi()[7],
    "DiagonalPolynomial": lambda: DiagonalPolynomial(P, True),
    "HHContribution": lambda: _engine().dimension(1, witnesses=True).witnesses[0],
    "DegreeDimension": lambda: _engine().dimension(1, witnesses=True),
    "HHReport": lambda: _engine().table(-2, 2),
    "PropositionCheck": lambda: verify_proposition(DiagonalPolynomial(P, True)).checks[1],
    "PropositionReport": lambda: verify_proposition(DiagonalPolynomial(P, True)),
}


def test_every_record_class_is_covered():
    records = {name for module in (mfhh.intlat, mfhh.charlat, mfhh.diagpoly, mfhh.hhengine)
               for name, cls in inspect.getmembers(module, inspect.isclass)
               if issubclass(cls, tuple) and cls.__module__ == module.__name__}
    assert records == set(FACTORIES)


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_record_is_immutable(name):
    record = FACTORIES[name]()
    assert type(record).__name__ == name
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_record_equality_and_hash_follow_the_value(name):
    a, b = FACTORIES[name](), FACTORIES[name]()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a._replace() == a


def test_abelian_group_checks_the_chain():
    with pytest.raises(ValueError):
        AbelianGroupStructure(0, (2, 3))
    with pytest.raises(ValueError):
        AbelianGroupStructure(0, (1, 2))
    with pytest.raises(ValueError):
        AbelianGroupStructure(-1, ())
    with pytest.raises(ValueError):
        AbelianGroupStructure(0, (2, 4))._replace(torsion=(2, 3))


def test_diagonal_polynomial_checks_and_normalizes_exponents():
    with pytest.raises(ValueError):
        DiagonalPolynomial((2, 1))
    with pytest.raises(ValueError):
        DiagonalPolynomial(())
    p = DiagonalPolynomial(k for k in ("2", 3.0, 5))
    assert p.exponents == (2, 3, 5) and all(type(k) is int for k in p.exponents)
    assert DiagonalPolynomial((Fraction(4, 2), Decimal("3"))).exponents == (2, 3)
    assert p.stabilized is False
    with pytest.raises(ValueError):
        p._replace(exponents=(1,))
    assert p._replace(exponents=["7"]).exponents == (7,)
    assert DiagonalPolynomial((2, 2, 3), 1).stabilized is True
    assert p._replace(stabilized=1).stabilized is True


def test_weight_defines_no_multiplication():
    w = build_character_lattice(P, True).chi
    with pytest.raises(TypeError):
        w * 2
    with pytest.raises(TypeError):
        2 * w
    with pytest.raises(TypeError):
        w + w
    assert w.scaled(2) - w == w
