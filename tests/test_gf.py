import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import Poly, factorint, isprime, nextprime, primefactors, symbols
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_gcd, gf_mul, gf_pow_mod, gf_sub

from eaqeckit import FMatrix, errors, field_new
from eaqeckit.gf import (_NP_TABLE_MAX, FieldSpec, _is_irreducible, _poly_ops, _prime_factors,
                         is_prime)
from conftest import SympyField, frobenius, galois_form, time_limit


def minimal_irreducible_oracle(p, e):
    """Independent search: enumerate monic degree-e polynomials in enc order
    and reject any with a root in GF(p).  Valid for e <= 3 only."""
    assert e <= 3
    for enc in range(p**e):
        tail, v = [], enc
        for _ in range(e):
            tail.append(v % p)
            v //= p
        coeffs = tail + [1]
        if all(sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p
               for x in range(p)):
            return tuple(tail)
    raise AssertionError("no irreducible polynomial found")


class TestFieldNew:
    def test_prime_field_modulus_convention(self):
        assert field_new(2, 1).modulus == (0,)

    def test_f27_canonical_modulus(self):
        assert field_new(3, 3).modulus == minimal_irreducible_oracle(3, 3)
        assert field_new(3, 3).modulus == (1, 2, 0)

    def test_f9_canonical_modulus(self):
        assert field_new(3, 2).modulus == minimal_irreducible_oracle(3, 2)
        assert field_new(3, 2).modulus == (1, 0)

    @pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (5, 2), (7, 2), (11, 2)])
    def test_canonical_modulus_matches_root_oracle(self, p, e):
        assert field_new(p, e).modulus == minimal_irreducible_oracle(p, e)

    def test_nonprime_rejected(self):
        with pytest.raises(errors.NonPrime):
            FieldSpec(6, 1)

    def test_oversize_rejected(self):
        with pytest.raises(errors.UnsupportedSize):
            FieldSpec(2, 40)
        with pytest.raises(errors.UnsupportedSize):
            FieldSpec(2**31 + 11, 1)

    def test_deterministic_and_cached(self):
        assert field_new(17, 8) is field_new(17, 8)
        assert FieldSpec(3, 3) == field_new(3, 3)

    @pytest.mark.parametrize("p,e", [(13, 1), (3, 3), (17, 8)])
    def test_pickle_roundtrip(self, p, e):
        field = field_new(p, e)
        again = pickle.loads(pickle.dumps(field))
        assert again == field and again.mul(5, 7) == field.mul(5, 7)
        assert pickle.loads(pickle.dumps(field.element(5))) == field.element(5)

    def test_prime_field_modulus_is_normalized(self):
        # every x + c defines GF(p) with the same arithmetic
        assert field_new(13, 1, (5,)) is field_new(13, 1)
        assert FieldSpec(13, 1, (5,)) == field_new(13, 1)
        assert FieldSpec(13, 1, (5,)).modulus == (0,)

    def test_reducible_modulus_rejected(self):
        with pytest.raises(errors.UnsupportedSize):
            FieldSpec(3, 2, (0, 0))  # x^2 has root 0


def sympy_poly(tail, p):
    """x^e + tail as a sympy polynomial over GF(p)."""
    return Poly([1] + list(tail)[::-1], symbols("x"), modulus=p)


class TestIrreducible:
    """The Rabin test and the canonical moduli against sympy's own test."""

    @pytest.mark.parametrize("p", [2, 3, 5, 13, 17, 2**31 - 1])
    def test_rabin_matches_sympy(self, p):
        rng = random.Random(p)
        seen = set()
        for e in range(2, 17):
            for _ in range(2 if p > 17 else 8):
                tail = [rng.randrange(p) for _ in range(e)]
                expected = sympy_poly(tail, p).is_irreducible
                assert _is_irreducible(tail, p, e) == expected, (e, tail)
                seen.add(expected)
        assert seen == {True, False}

    @pytest.mark.parametrize("e", range(1, 17))
    def test_canonical_modulus_at_largest_prime_in_bounded_time(self, e):
        # For e in {4, 5, 8, 10, 12, 13, 15, 16} no binomial x^e + c is
        # irreducible here, and the search must not test all p of them first.
        p = 2**31 - 1
        with time_limit(5, f"field_new({p}, {e})"):
            modulus = field_new(p, e).modulus
        assert sympy_poly(modulus, p).is_irreducible

    # (p, factors as (degree, rank among the enc-ordered irreducibles), the
    # Rabin checks that reject the product: the gcd at i = e/r, or "end" for
    # x^(p^e) = x mod f)
    @pytest.mark.parametrize("p,factors,caught_by", [
        (2, [(3, 0), (3, 1)], {3}),  # two cubics, e = 6: only the gcd at i = 3
        (3, [(3, 0), (3, 1)], {3}),
        (3, [(2, 0), (2, 1), (2, 2)], {2}),  # three quadratics, e = 6: only i = 2
        (5, [(2, 0), (2, 1), (2, 2)], {2}),
        (2, [(2, 0), (3, 0)], {"end"}),  # e = 5: only x^(p^5) = x
        (3, [(2, 0), (3, 0)], {"end"}),
        (3, [(2, 0), (2, 0)], {2, "end"}),  # (x^2 + 1)^2
        (2, [(2, 0), (2, 0)], {2, "end"}),  # (x^2 + x + 1)^2
    ])
    def test_planted_reducible(self, p, factors, caught_by):
        f = [1]  # coefficients highest degree first, as galoistools takes them
        for d, rank in factors:
            tails = ([enc // p**i % p for i in range(d)] for enc in range(p**d))
            irreducible = [t for t in tails if sympy_poly(t, p).is_irreducible]
            f = gf_mul(f, [1] + irreducible[rank][::-1], p, ZZ)
        tail, e = f[:0:-1], len(f) - 1

        def x_power(i):  # x^(p^i) mod f
            return gf_pow_mod([1, 0], p**i, f, p, ZZ)

        caught = {e // r for r in primefactors(e)
                  if gf_gcd(gf_sub(x_power(e // r), [1, 0], p, ZZ), f, p, ZZ) != [1]}
        assert caught | ({"end"} if x_power(e) != [1, 0] else set()) == caught_by
        assert not _is_irreducible(tail, p, e)

    @pytest.mark.parametrize("p,e", [(2, 16), (17, 8), (3, 10), (5, 9), (13, 6),
                                     (11, 5), (2, 11), (2**31 - 1, 2)])
    def test_canonical_modulus_is_enc_minimal(self, p, e):
        def tail(enc):
            return [enc // p**i % p for i in range(e)]

        modulus = field_new(p, e).modulus
        enc = sum(c * p**i for i, c in enumerate(modulus))
        assert sympy_poly(modulus, p).is_irreducible
        assert not any(sympy_poly(tail(smaller), p).is_irreducible
                       for smaller in range(enc))


# Fields of every backend: residues (prime), the flat tables (extension
# fields with q <= 1024), bit vectors (GF(2^e) above) and enc digits (odd p).
AXIOM_FIELDS = [(2**31 - 1, 1), (3, 3), (2, 11), (2, 16), (17, 8), (2**31 - 1, 2)]


@pytest.mark.parametrize("p,e", AXIOM_FIELDS)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_field_axioms_property(p, e, data):
    field = field_new(p, e)
    q, add, mul, power = field.q, field.add, field.mul, field.pow
    a, b, c = (data.draw(st.integers(0, q - 1)) for _ in range(3))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert power(add(a, b), p) == add(power(a, p), power(b, p))
    if a:
        assert mul(a, field.inv(a)) == 1
        assert power(a, q - 1) == 1
        # the exponent q-1 reduces to 0; a^(q-2) * a runs the full ladder
        assert mul(power(a, q - 2), a) == 1


class TestArith:
    def test_f9_beta_squared(self, f9):
        b = f9.element(3)
        assert (b * b).enc == 2  # b^2 = -1

    def test_f2_inverse(self, f2):
        assert f2.one.inverse() == f2.one

    def test_f27_beta_cubed(self, f27):
        b = f27.element(3)
        assert (b * (b * b)).enc == 5  # x^3 reduces to x + 2

    def test_division_by_zero(self, f9):
        with pytest.raises(errors.DivisionByZero):
            f9.one / f9.element(0)
        with pytest.raises(errors.DivisionByZero):
            f9.element(0).inverse()

    def test_field_mismatch(self, f9, f27):
        with pytest.raises(errors.FieldMismatch):
            f9.one + f27.one

    def test_int_equality_agrees_with_hash(self, f9):
        b = f9.element(3)
        assert b == 3 and hash(b) == hash(3)
        assert b in {3} and {3: "x"}.get(b) == "x"
        assert b != 12  # an int is compared as it is, not reduced mod q
        assert b in {f9.element(3)} and f9.element(3) != field_new(3, 3).element(3)

    def test_int_operand_is_its_image_in_prime_field(self, f9):
        # n stands for n*1, so multiples of the characteristic are zero
        f7 = field_new(7, 1)
        assert f9.one * 3 == 0 and 3 * f9.one == 0
        assert f9.one + 12 == 1 and f7.one * -1 == 6
        x = f9.element(3)
        assert 1 - x == f9.element(4) - 2 * x and x / 2 == x * 2 and x - 4 == x - 1

    @pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3), (5, 1)])
    def test_field_axioms_exhaustive(self, p, e):
        field = field_new(p, e)
        els = [field.element(i) for i in range(field.q)]
        for a in els:
            assert a + field.element(0) == a
            assert a * field.one == a
            assert a - a == field.element(0)
            if a:
                assert a * a.inverse() == field.one
        # associativity / distributivity on a sample
        rng = random.Random(7)
        for _ in range(50):
            a, b, c = (els[rng.randrange(len(els))] for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_enc_roundtrip_bijection(self, f27):
        seen = set()
        for i in range(27):
            el = f27.element(i)
            assert el.enc == i
            assert f27.element(el.coeffs) == el
            seen.add(el.enc)
        assert seen == set(range(27))

    def test_big_field_exactness(self):
        field = field_new(17, 8)
        a = field.element(12345678)
        assert (a * a.inverse()).enc == 1
        assert a ** (field.q - 1) == field.one


def frobenius_row(field, els, s):
    """FMatrix.frobenius_entrywise on one row of Elements, read back as Elements."""
    M = FMatrix(field, [els]).frobenius_entrywise(s)
    return [M[0, j] for j in range(M.ncols)]


class TestFrobenius:
    # FMatrix.frobenius_entrywise, the Frobenius route of galois_dual and of
    # both ebit formulas, against the element power a^(p^s)
    def test_identity_at_zero(self, f9):
        els = [f9.element(i) for i in range(f9.q)]
        assert frobenius_row(f9, els, 0) == els

    def test_f9_beta(self, f9):
        assert frobenius_row(f9, [f9.element(3)], 1)[0].enc == 6  # b^3 = -b = 2b
        assert frobenius(f9.element(3), 1).enc == 6

    def test_full_power_fixes_field(self, f4):
        els = [f4.element(i) for i in range(f4.q)]
        assert frobenius_row(f4, els, f4.e) == els
        assert [el ** f4.q for el in els] == els

    @pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4)])
    def test_automorphism_exhaustive(self, p, e):
        field = field_new(p, e)
        els = [field.element(i) for i in range(field.q)]
        xs = [a for a in els for _ in els]
        ys = [b for _ in els for b in els]
        for s in range(e):
            fx, fy = frobenius_row(field, xs, s), frobenius_row(field, ys, s)
            assert fx == [frobenius(a, s) for a in xs]
            assert frobenius_row(field, [a * b for a, b in zip(xs, ys)], s) == \
                [a * b for a, b in zip(fx, fy)]
            assert frobenius_row(field, [a + b for a, b in zip(xs, ys)], s) == \
                [a + b for a, b in zip(fx, fy)]

    @pytest.mark.parametrize("p,e", [(2, 3), (3, 2), (3, 3)])
    def test_composes_to_identity(self, p, e):
        field = field_new(p, e)
        M = X = FMatrix(field, [[field.element(i) for i in range(field.q)]])
        for _ in range(e):
            X = X.frobenius_entrywise(1)
        assert X == M


class TestGaloisForm:
    # the element-level form of the tests' oracle (conftest.galois_form)
    def test_zero_vector(self, f9):
        x = [f9.element(0)] * 3
        y = [f9.element(i) for i in (1, 5, 7)]
        assert galois_form(x, y, 1) == f9.element(0)

    def test_f9_twisted_square(self, f9):
        b = f9.element(3)
        assert galois_form([b], [b], 1).enc == 1  # b * b^3 = b^4 = 1

    def test_prime_field_dot_product(self):
        f5 = field_new(5, 1)
        x = [f5.element(1), f5.element(2)]
        y = [f5.element(3), f5.element(1)]
        assert galois_form(x, y, 0) == f5.element(0)

    def test_matches_frobenius_then_dot(self, f27):
        # against the matrix route of galois_dual: entrywise Frobenius, then a product
        rng = random.Random(3)
        for _ in range(30):
            x = [f27.element(rng.randrange(27)) for _ in range(4)]
            y = [f27.element(rng.randrange(27)) for _ in range(4)]
            for s in range(3):
                dot = FMatrix(f27, [x]) @ FMatrix(f27, [y]).frobenius_entrywise(s).transpose()
                assert galois_form(x, y, s) == dot[0, 0]

    def test_length_mismatch(self, f9):
        with pytest.raises(errors.LengthMismatch):
            galois_form([f9.one], [f9.one, f9.one], 0)


class TestPrimitiveElement:
    def order_oracle(self, el):
        q = el.field.q
        x = el
        for n in range(1, q):
            if x == el.field.one:
                return n
            x = x * el
        return None

    def test_f2(self, f2):
        assert f2.primitive_element() == f2.one

    def test_f9_enc4(self, f9):
        g = f9.primitive_element()
        assert g.enc == 4
        assert self.order_oracle(g) == 8
        assert self.order_oracle(f9.element(2)) == 2
        assert self.order_oracle(f9.element(3)) == 4

    def test_f13_is_2(self, f13):
        assert f13.primitive_element().enc == 2
        assert pow(2, 6, 13) != 1 and pow(2, 4, 13) != 1

    @pytest.mark.parametrize("p", [65521, 2**31 - 1])
    def test_large_prime_square_in_bounded_time(self, p):
        # every enc below p is a GF(p) constant, of order dividing p - 1, and
        # the search must not try them all first
        field = field_new(p, 2)
        with time_limit(5, f"GF({p}^2).primitive_element()"):
            g = field.primitive_element().enc
        ref, q = SympyField(field), field.q
        factors = factorint(q - 1)

        def generates(a):
            return all(ref.pow(a, (q - 1) // r) != 1 for r in factors)

        assert generates(g)
        assert not any(generates(a) for a in range(p, g))

    @pytest.mark.parametrize("p,e", [(2, 2), (2, 4), (3, 3), (7, 1), (5, 2)])
    def test_minimality(self, p, e):
        field = field_new(p, e)
        g = field.primitive_element()
        assert self.order_oracle(g) == field.q - 1
        for enc in range(1, g.enc):
            assert self.order_oracle(field.element(enc)) != field.q - 1


class TestPrimeFactors:
    """_prime_factors (trial division, then Pollard-Brent rho) and is_prime
    against sympy."""

    def test_small_and_field_orders(self):
        ns = list(range(1, 3000)) + [p**e - 1 for p, e in [(3, 10), (5, 9), (11, 5), (13, 6),
                                                          (17, 8), (2, 16), (65521, 2)]]
        # no factor below the trial bound: rho splits these, prime powers too
        ns += [4099 * 4111, 4099**2, 4099**3, 65521 * 65537, 4099 * (2**31 - 1) ** 2]
        for n in ns:
            assert _prime_factors(n) == sorted(factorint(n)), n

    @pytest.mark.parametrize("e", [3, 4, 6])
    def test_largest_prime_powers(self, e):
        # (2^31-1)^3 - 1 has the prime factors 529510939 and 2903110321, far
        # past trial division
        n = (2**31 - 1) ** e - 1
        with time_limit(5, f"_prime_factors((2^31-1)^{e} - 1)"):
            factors = _prime_factors(n)
        assert factors == sorted(factorint(n))

    def test_unprovable_cofactor_is_infeasible(self):
        # (2^31-1)^5 - 1 has a 110-bit prime cofactor, past the range in
        # which is_prime is a proof
        with time_limit(5, "_prime_factors((2^31-1)^5 - 1)"):
            with pytest.raises(errors.Infeasible, match="probable prime"):
                _prime_factors((2**31 - 1) ** 5 - 1)

    def test_rho_gives_up_within_its_step_cap(self):
        n = nextprime(2**50) * nextprime(2**51)
        with time_limit(5, "_prime_factors of a 101-bit semiprime"):
            with pytest.raises(errors.Infeasible, match="rho steps"):
                _prime_factors(n)

    def test_is_prime(self):
        # 318665857834031151167461 is a strong pseudoprime to every prime base
        # up to 37, so base 41 is needed below 3.3 * 10^24
        rng = random.Random(5)
        ns = list(range(-2, 5000)) + [rng.randrange(2**80) | 1 for _ in range(300)]
        ns += [318665857834031151167461, 3317044064679887385961981 - 2, 2**61 - 1, 2**31 - 1]
        for n in ns:
            assert is_prime(n) == isprime(n), n


class TestEnumeration:
    def test_f2(self, f2):
        assert [f2.element(i).coeffs for i in range(f2.q)] == [(0,), (1,)]

    def test_f4_count_and_order(self, f4):
        assert [f4.element(i).coeffs for i in range(f4.q)] == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_f9_coeffs(self, f9):
        el = f9.element(5)
        assert el.coeffs == (2, 1)  # 2 + beta


class TestTextForms:
    def test_field_text_roundtrip(self, f27):
        assert f27.text == "3^3;mod=1,2,0"
        assert field_new(3, 3, (1, 2, 0)) is f27

    def test_element_text(self, f9):
        assert str(f9.element(7)) == "7"


# Every extension field whose scalar operations read the flat tables.
TABLE_FIELDS = [(p, e) for p in range(2, 32) if is_prime(p)
                for e in range(2, 11) if p**e <= _NP_TABLE_MAX]


class TestEncArithmetic:
    """The enc-level operations against the coefficient routines.

    Element arithmetic delegates to the same enc-level operations, so this
    checks the flat tables (extension fields with q <= 1024), the residue
    arithmetic (prime fields) and the bit vectors of GF(2^e) against the
    routines of _poly_ops.  The tables of odd-p fields are built with the
    Kronecker mul of _poly_ops, so test_every_pair_against_sympy checks both
    against sympy's galoistools on every pair of four such fields; on odd-p
    fields above q = 1024, where _poly_ops is the installed backend,
    TestSympyOracle is the independent check.
    """

    @staticmethod
    def check(field, ref, a, b):
        add, sub, mul, power = ref
        assert field.add(a, b) == add(a, b)
        assert field.sub(a, b) == sub(a, b)
        assert field.mul(a, b) == mul(a, b)
        assert field.neg(a) == sub(0, a)
        for n in (0, 1, 2, b, field.q - 2, -1 - b):
            if a or n >= 0:
                assert field.pow(a, n) == power(a, n)
        if a:
            assert field.inv(a) == power(a, -1)
            assert field.mul(a, field.inv(a)) == 1

    @pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (13, 1)])
    def test_every_pair(self, p, e):
        field = field_new(p, e)
        ref = _poly_ops(p, e, field.modulus)
        for a in range(field.q):
            for b in range(field.q):
                self.check(field, ref, a, b)

    @pytest.mark.parametrize("p,e", [(3, 2), (5, 2), (7, 2), (3, 3)])
    def test_every_pair_against_sympy(self, p, e):
        field = field_new(p, e)
        ref, mul = SympyField(field), _poly_ops(p, e, field.modulus)[2]
        for a in range(field.q):
            for b in range(field.q):
                expected = ref.mul(a, b)
                assert field.mul(a, b) == expected and mul(a, b) == expected, (a, b)
                assert field.add(a, b) == ref.add(a, b), (a, b)
                assert field.sub(a, b) == ref.sub(a, b), (a, b)
            if a:
                assert field.inv(a) == ref.inv(a), a

    # GF(2^10) and GF(31^2) are the largest fields on the flat tables
    @pytest.mark.parametrize("p,e", [(2, 16), (17, 8), (2, 10), (31, 2)])
    def test_seeded_sample(self, p, e):
        field = field_new(p, e)
        ref = _poly_ops(p, e, field.modulus)
        rng = random.Random(p * 1000 + e)
        for _ in range(300):
            self.check(field, ref, rng.randrange(field.q), rng.randrange(field.q))
        self.check(field, ref, 0, rng.randrange(field.q))

    @pytest.mark.parametrize("p,e", TABLE_FIELDS)
    def test_results_are_python_ints(self, p, e):
        # a numpy scalar from the tables would not survive json.dumps
        field = field_new(p, e)
        rng = random.Random(p + e)
        for _ in range(20):
            a, b = rng.randrange(1, field.q), rng.randrange(field.q)
            results = [field.add(a, b), field.sub(a, b), field.mul(a, b), field.neg(b),
                       field.pow(a, b), field.pow(a, -b), field.inv(a), field.pow(0, b)]
            assert all(type(x) is int for x in results), results

    def test_zero(self, f9):
        assert f9.pow(0, 0) == 1 and f9.pow(0, 5) == 0
        with pytest.raises(errors.DivisionByZero):
            f9.inv(0)
        with pytest.raises(errors.DivisionByZero):
            f9.pow(0, -1)


class TestSympyOracle:
    """The installed arithmetic of the fields above q = 1024 (bit vectors for
    p = 2, digits of the enc for odd p) against sympy's galoistools."""

    @pytest.mark.parametrize("p,e", [(2, 11), (2, 16), (3, 10), (5, 9), (11, 5),
                                     (13, 6), (17, 8), (2**31 - 1, 2)])
    def test_seeded_pairs(self, p, e):
        field = field_new(p, e)
        ref = SympyField(field)
        rng = random.Random(p * 100 + e)
        for _ in range(300):
            a, b = rng.randrange(field.q), rng.randrange(field.q)
            assert field.add(a, b) == ref.add(a, b), (a, b)
            assert field.sub(a, b) == ref.sub(a, b), (a, b)
            assert field.neg(b) == ref.sub(0, b), b
            assert field.mul(a, b) == ref.mul(a, b), (a, b)
            if a:
                assert field.inv(a) == ref.inv(a), a
                for n in (0, 1, 2, b, -1 - b):
                    assert field.pow(a, n) == ref.pow(a, n), (a, n)

    # the six large-field benchmark fields, a 16-digit odd-p field, and p
    # near 2^16 and 2^31; GF((2^31-1)^16) needs the widest Kronecker slots
    @pytest.mark.parametrize("p,e", [(2, 16), (3, 10), (5, 9), (11, 5), (13, 6), (17, 8),
                                     (7, 16), (65521, 2), (2**31 - 1, 2), (2**31 - 1, 16)])
    def test_worst_case_operands(self, p, e):
        # q - 1 has every digit p - 1, so every product and fold slot is at its
        # largest; p^(e-1) is x^(e-1), which pushes each digit one slot up.
        # A wrong mul can send the modulus search past every candidate.
        with time_limit(10, f"field_new({p}, {e})"):
            field = field_new(p, e)
        ref, q = SympyField(field), field.q
        for a, b in [(q - 1, q - 1), (q - 1, p ** (e - 1)), (q - 1, q - 2)]:
            for x, y in [(a, b), (b, a)]:
                got = field.mul(x, y)
                assert type(got) is int and got == ref.mul(x, y), (x, y)
            got = field.pow(a, b)
            assert type(got) is int and got == ref.pow(a, b), (a, b)

    def test_no_p_entry_chunk_table(self):
        # for p > 32 an operand is packed one digit at a time, with no table;
        # a p-entry table would take megabytes at p = 65521 and would not fit
        # at 2^31 - 1, so the child runs under a 1 GB address-space cap
        script = ("import tracemalloc\n"
                  "from eaqeckit.gf import FieldSpec\n"
                  "tracemalloc.start()\n"
                  "for p in (65521, 2**31 - 1):\n"
                  "    tracemalloc.reset_peak()\n"
                  "    base = tracemalloc.get_traced_memory()[0]\n"
                  "    FieldSpec(p, 2)\n"
                  "    print(tracemalloc.get_traced_memory()[1] - base)\n")
        src = str(Path(errors.__file__).parents[1])

        def cap():
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             timeout=120, preexec_fn=cap,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.returncode == 0, out.stderr
        peaks = [int(line) for line in out.stdout.split()]
        assert len(peaks) == 2 and max(peaks) < 2**20, peaks

    @pytest.mark.parametrize("p,e", [(2, 16), (17, 8)])
    def test_zero_and_int_results(self, p, e):
        field = field_new(p, e)
        assert field.pow(0, 0) == 1 and field.pow(0, 5) == 0
        with pytest.raises(errors.DivisionByZero):
            field.inv(0)
        rng = random.Random(p + e)
        for _ in range(20):
            a, b = rng.randrange(1, field.q), rng.randrange(field.q)
            results = [field.add(a, b), field.sub(a, b), field.mul(a, b), field.neg(b),
                       field.mul(0, b), field.add(0, b), field.sub(a, 0),
                       field.pow(a, b), field.pow(a, -b), field.inv(a),
                       field.pow(0, 0), field.pow(0, b + 1)]
            assert all(type(x) is int for x in results), results


class TestFrobeniusOracle:
    """FieldSpec.frobenius and FMatrix.frobenius_entrywise, the GF(p)-linear
    map a -> a^(p^s), against sympy's gf_pow_mod(a, p^(s mod e), f, p)."""

    @pytest.mark.parametrize("p,e", [(2, 11), (2, 16), (3, 10), (5, 9), (11, 5),
                                     (13, 6), (17, 8), (2**31 - 1, 2), (2, 4), (3, 3)])
    def test_every_offset(self, p, e):
        field = field_new(p, e)
        ref = SympyField(field)
        rng = random.Random(p * 1000 + e)
        encs = [0, 1, p] + [rng.randrange(field.q) for _ in range(9)]
        for s in range(-e, 2 * e + 1):
            expected = [ref.pow(a, p ** (s % e)) for a in encs]
            direct = [field.frobenius(a, s) for a in encs]
            [row] = FMatrix(field, [encs]).frobenius_entrywise(s).rows
            assert direct == expected, s
            assert list(row) == expected, s
            assert all(type(x) is int for x in direct + list(row)), s


class TestVecOps:
    """The flat numpy tables of vec_ops against the scalar enc operations."""

    @staticmethod
    def check(field, a, b):
        ops = field.vec_ops()
        A, B = np.array(a), np.array(b)
        assert ops.sub(A, B).tolist() == [field.sub(x, y) for x, y in zip(a, b)]
        assert ops.mul(A, B).tolist() == [field.mul(x, y) for x, y in zip(a, b)]
        inv = ops.inv(np.arange(field.q)).tolist()
        assert inv[0] == 0
        assert all(field.mul(x, inv[x]) == 1 for x in range(1, field.q))

    @pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (29, 1), (2, 2), (2, 4), (5, 2), (3, 3)])
    def test_every_pair(self, p, e):
        field = field_new(p, e)
        pairs = [(a, b) for a in range(field.q) for b in range(field.q)]
        self.check(field, *zip(*pairs))

    @pytest.mark.parametrize("p,e", [(1021, 1), (2, 10), (31, 2)])
    def test_seeded_sample(self, p, e):
        field = field_new(p, e)
        rng = random.Random(p * 100 + e)
        a = [rng.randrange(field.q) for _ in range(5000)] + [0] * 10
        b = [rng.randrange(field.q) for _ in range(5000)] + list(range(10))
        self.check(field, a, b)

    def test_no_tables_above_bound(self):
        assert field_new(1031, 1).vec_ops() is None
        assert field_new(2, 11).vec_ops() is None
