from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from opbar.coeff import INFINITY, Ring
from opbar.errors import NonGridExponent, WrongRing

Q = Ring.Q()
Z = Ring.Z()
NOV13 = Ring.novikov(Q, 1, 3)
NOV14 = Ring.novikov(Q, 1, 4)
NOV2 = Ring.novikov(Q, 2, 6)


def nov_elem(ring, *terms):
    acc = ring.zero
    for coeff, exp in terms:
        acc = ring.add(acc, ring.monomial(coeff, exp))
    return acc


def test_integer_add():
    a = Z.canon(1)
    assert Z.add(a, a) == Z.from_int(2)


def test_novikov_product_truncates_at_cutoff():
    a = nov_elem(NOV14, (1, Fraction(1, 2)))
    b = nov_elem(NOV14, (1, Fraction(3, 4)))
    assert NOV14.is_zero(NOV14.mul(a, b))  # exponent 5/4 >= 1 is dropped


def test_novikov_hand_multiplication():
    # (2T^{1/3} + T, T^{1/3}) over cutoff 1: the T term already truncates away,
    # and the product keeps only 2T^{2/3} (exponent 4/3 is dropped).
    a = nov_elem(NOV13, (2, Fraction(1, 3)), (1, 1))
    b = nov_elem(NOV13, (1, Fraction(1, 3)))
    expected = nov_elem(NOV13, (2, Fraction(2, 3)))
    assert NOV13.mul(a, b) == expected


def test_valuation():
    assert NOV2.valuation(NOV2.zero) == INFINITY
    assert NOV2.valuation(nov_elem(NOV2, (1, 1))) == 1
    assert NOV2.valuation(
        nov_elem(NOV2, (2, Fraction(1, 3)), (1, 1))) == Fraction(1, 3)


def test_residue():
    assert NOV2.residue(nov_elem(NOV2, (3, 0), (1, Fraction(1, 2)))) == Q.from_int(3)
    assert NOV2.residue(nov_elem(NOV2, (1, 1))) == Q.zero
    assert NOV2.residue(nov_elem(NOV2, (2, 0), (5, Fraction(2, 3)))) == Q.from_int(2)


def test_residue_wrong_ring():
    with pytest.raises(WrongRing):
        Z.residue(Z.canon(1))


def test_off_grid_exponent_rejected():
    with pytest.raises(NonGridExponent):
        NOV13.monomial(1, Fraction(1, 2))


def test_fp_arithmetic():
    F7 = Ring.Fp(7)
    assert F7.mul(3, 5) == 1
    assert F7.invert(3) == 5
    with pytest.raises(ValueError):
        Ring.Fp(6)


def test_novikov_unit_inversion():
    ring = Ring.novikov(Q, 1, 1)
    # cutoff 1 kills T, so 1 + T is canonically 1 here; use cutoff 2 instead
    assert ring.add(ring.from_int(1), ring.monomial(1, 1)) == ring.one
    ring2 = Ring.novikov(Q, 2, 1)
    x = ring2.add(ring2.from_int(1), ring2.monomial(1, 1))
    assert ring2.mul(x, ring2.invert(x)) == ring2.one


small_terms = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(0, 11)), max_size=4
)


def _mk(terms):
    acc = NOV2.zero
    for c, e12 in terms:
        exp = Fraction(e12, 6)
        if exp < NOV2.cutoff:
            acc = NOV2.add(acc, NOV2.monomial(c, exp))
    return acc


@given(small_terms, small_terms)
def test_valuation_product_inequality(ta, tb):
    a, b = _mk(ta), _mk(tb)
    va = NOV2.valuation(a)
    vb = NOV2.valuation(b)
    vab = NOV2.valuation(NOV2.mul(a, b))
    assert vab >= va + vb
    # base field: equality whenever the product survives the cutoff
    if va + vb < NOV2.cutoff and va != INFINITY and vb != INFINITY:
        assert vab == va + vb


@given(small_terms, small_terms)
def test_residue_is_ring_homomorphism(ta, tb):
    a, b = _mk(ta), _mk(tb)
    r = NOV2.residue
    assert r(NOV2.mul(a, b)) == Q.mul(r(a), r(b))
    assert r(NOV2.add(a, b)) == Q.add(r(a), r(b))


@given(small_terms)
def test_canonical_idempotence(ta):
    a = _mk(ta)
    assert NOV2.canon(a) == a


def test_ring_constants_computed_once():
    for ring in (Z, Q, Ring.Fp(5), NOV14):
        assert ring.one is ring.one and ring.zero is ring.zero
        assert ring.eq(ring.one, ring.from_int(1))
        assert ring.is_zero(ring.zero)
    # identity stays on (kind, p, base, cutoff, grid), not on the constants
    assert Ring.novikov(Q, 1, 4) == NOV14
    assert hash(Ring.novikov(Q, 1, 4)) == hash(NOV14)
    assert Ring.novikov(Q, 1, 4) != NOV13


def test_q_canon_keeps_fractions_and_converts_ints():
    f = Fraction(-3, 4)
    assert Q.canon(f) is f
    for n in (0, 1, -7):
        c = Q.canon(n)
        assert type(c) is Fraction and c == n
    # Novikov coefficients over Q go through the same path
    ((_, c),) = NOV2.canon(((1, 2),))
    assert type(c) is Fraction and c == 2


@pytest.mark.parametrize("ring", [Z, Q, Ring.Fp(2), Ring.Fp(3), NOV13], ids=repr)
def test_as_sign_reads_plus_and_minus_one(ring):
    """1 for one, -1 for minus one, None for any other value; over F_2,
    where one is minus one, it reads 1."""
    assert ring.as_sign(ring.one) == 1
    assert ring.as_sign(ring.from_int(-1)) == (1 if ring.p == 2 else -1)
    assert ring.as_sign(1) == 1
    for v in [ring.zero] + ([ring.from_int(2)] if ring.p is None else []):
        assert ring.as_sign(v) is None
    if ring.is_novikov:
        t = ring.monomial(1, Fraction(1, 3))
        assert ring.as_sign(t) is ring.as_sign(ring.add(ring.one, t)) is None
