import itertools
import os
import pickle
import random
import subprocess
import sys
from functools import reduce
from operator import xor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import Poly, factorint, isprime, nextprime, primefactors, symbols
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (gf_gcd, gf_irreducible_p, gf_mul, gf_pow_mod, gf_rem,
                                     gf_sub)

from eaqeckit import FMatrix, cli, errors, field_new, gf
from eaqeckit.gf import (_NP_TABLE_MAX, FieldSpec, _barrett, _is_irreducible, _kronecker,
                         _min_irreducible_tail, _poly_ops, _prime_factors, is_prime)
from conftest import (KRONECKER_ROW_FIELDS, SympyField, frobenius, galois_form, rref_reference,
                      time_limit)


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

    @pytest.mark.parametrize("e,modulus", [(0, None), (2.0, None), (2, (1, 0, 0)), (2, (1,))])
    def test_bad_degree_or_modulus_length_rejected(self, e, modulus):
        with pytest.raises(errors.UnsupportedSize):
            FieldSpec(3, e, modulus)

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
        assert again is field and again.mul(5, 7) == field.mul(5, 7)
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

    @pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4),
                                     (5, 2), (5, 3)])
    def test_rabin_matches_sympy_on_every_monic(self, p, e):
        # every tail, so c_0 = 0 and f = x^e are among them
        for enc in range(p**e):
            tail = [enc // p**i % p for i in range(e)]
            assert _is_irreducible(tail, p, e) == sympy_poly(tail, p).is_irreducible, tail

    @pytest.mark.parametrize("e", range(1, 17))
    def test_canonical_modulus_at_largest_prime_in_bounded_time(self, e):
        # For e in {4, 5, 8, 10, 12, 13, 15, 16} no binomial x^e + c is
        # irreducible here, and the search must not test all p of them first.
        p = 2**31 - 1
        with time_limit(5, f"field_new({p}, {e})"):
            modulus = field_new(p, e).modulus
        assert sympy_poly(modulus, p).is_irreducible

    # (p, factors as (degree, rank among the enc-ordered irreducibles), the
    # Rabin checks that reject the product: the unit test at i = e/r, which
    # fails when x^(p^i) - x is no unit mod f (sympy finds that as a gcd
    # other than 1), or "end" for x^(p^e) = x mod f)
    @pytest.mark.parametrize("p,factors,caught_by", [
        (2, [(3, 0), (3, 1)], {3}),  # two cubics, e = 6: only the unit test at i = 3
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

    @staticmethod
    def spy_rabin(monkeypatch):
        """The tails that gf's Rabin test is given from here on."""
        tested = []
        monkeypatch.setattr(gf, "_is_irreducible",
                            lambda t, p, e: tested.append(t) or _is_irreducible(t, p, e))
        return tested

    @pytest.mark.parametrize("p,e", [(p, e) for p in (2, 3, 5, 7) for e in range(p, 17)])
    def test_root_prefilter_matches_the_full_walk(self, p, e, monkeypatch):
        # the search drops candidates with a root in GF(p) before their Rabin
        # test; a walk that Rabin-tests every candidate from enc 0 must stop
        # at the same modulus, and every candidate dropped below it must be
        # reducible
        def tail(enc):
            return tuple(enc // p**i % p for i in range(e))

        with time_limit(10, f"the moduli of degree {e} over GF({p})"):
            reference = next(tail(enc) for enc in range(p**e) if _is_irreducible(tail(enc), p, e))
            tested = self.spy_rabin(monkeypatch)
            assert _min_irreducible_tail(p, e) == reference
        end = sum(c * p**i for i, c in enumerate(reference))
        dropped = {tail(enc) for enc in range(end)} - set(tested)
        assert tail(0) in dropped  # x^e has the root 0
        assert not any(gf_irreducible_p([1, *t[::-1]], p, ZZ) for t in dropped)

    def test_few_rabin_tests(self, monkeypatch):
        # 25 of the 33 candidates that GF(5^9) rejects have a root in GF(5)
        calls = self.spy_rabin(monkeypatch)
        with time_limit(10, "_min_irreducible_tail(5, 9)"):
            assert _min_irreducible_tail(5, 9) == (3, 2, 1, 0, 0, 0, 0, 0, 0)
        assert len(calls) <= 12, len(calls)

    def test_binary_moduli_are_pinned(self):
        # the Rabin test walks x^(2^i) by the byte tables of _linear_map; the
        # moduli, as the bit-serial walk picked them, c_0 first
        pinned = ["0", "11", "110", "1100", "10100", "110000", "1100000", "11011000",
                  "110000000", "1001000000", "10100000000", "100100000000",
                  "1101100000000", "10000100000000", "110000000000000", "1101010000000000"]
        for e, tail in enumerate(pinned, 1):
            assert _min_irreducible_tail(2, e) == tuple(map(int, tail)), e

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

    @pytest.mark.parametrize("p,e", [(3, 2), (13, 1), (2, 11), (17, 8)])
    def test_negation_and_reflected_operators(self, p, e):
        # an int operand is its image in GF(p), so 2 stands for 2 mod p
        field = field_new(p, e)
        a, two = field.element(5), 2 % p
        assert (-a).enc == field.neg(5) and -a + a == 0
        assert (2 - a).enc == field.sub(two, 5) and (2 - a) + a == two
        assert (2 / a).enc == field.mul(two, field.inv(5)) and (2 / a) * a == two
        assert int(a) == 5 and type(int(a)) is int
        with pytest.raises(errors.DivisionByZero):
            a / 0
        with pytest.raises(errors.DivisionByZero):
            2 / field.element(0)

    def test_foreign_operands(self, f9):
        a = f9.element(5)
        assert (a == "x") is False and a != "x"
        for op in (lambda: a + "x", lambda: "x" - a, lambda: a / 1.5, lambda: 1.5 * a):
            with pytest.raises(TypeError):
                op()

    @pytest.mark.parametrize("coeffs", [(1,), (1, 2, 0)])
    def test_coefficient_tuple_of_wrong_length(self, f9, coeffs):
        with pytest.raises(errors.LengthMismatch):
            f9.to_enc(coeffs)

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

    @pytest.mark.parametrize("p,e", [(2, 2), (2, 4), (3, 3), (7, 1), (5, 2)])
    def test_minimality(self, p, e):
        field = field_new(p, e)
        g = field.primitive_element()
        assert self.order_oracle(g) == field.q - 1
        for enc in range(1, g.enc):
            assert self.order_oracle(field.element(enc)) != field.q - 1

    # odd p, so the norm decides every r | p - 1: on the tables (31^2) and
    # above them, for r dividing e (17^8) and prime to it (5^9), up to p ~ 2^31
    @pytest.mark.parametrize("p,e,enc", [(17, 8, 307), (13, 6, 182), (3, 10, 34), (5, 9, 5),
                                         (11, 5, 13), (31, 2, 35), (7, 16, 7),
                                         (65521, 2, 65533), (2**31 - 1, 2, 2147483659),
                                         (2**31 - 1, 3, 2147483650)])
    def test_pinned_against_sympy(self, p, e, enc):
        # every enc below p is a GF(p) constant, of order dividing p - 1, and
        # the search must not try them all first
        with time_limit(5, f"GF({p}^{e}).primitive_element()"):
            assert field_new(p, e).primitive_element().enc == enc
        ref, q = SympyField(field_new(p, e)), p**e
        factors = factorint(q - 1)

        def generates(a):
            return all(ref.pow(a, (q - 1) // r) != 1 for r in factors)

        # every smaller enc fails a test; for large p only the non-constants
        with time_limit(10, f"sympy order tests below {enc} in GF({p}^{e})"):
            assert generates(enc)
            assert not any(generates(a) for a in range(1 if p < 1024 else p, enc))

    @pytest.mark.parametrize("p,e", [(13, 1), (2, 16), (3, 3), (3, 10), (5, 9), (11, 5),
                                     (13, 6), (17, 8), (7, 16), (2**31 - 1, 3)])
    def test_norm_against_sympy(self, p, e):
        field = field_new(p, e)
        ref, q = SympyField(field), field.q
        rng = random.Random(p * 100 + e)
        encs = [1, p - 1, p ** (e - 1), q - 1] + [rng.randrange(1, q) for _ in range(20)]
        with time_limit(10, f"norms in GF({p}^{e})"):
            for a in encs:
                assert field._norm(a) == ref.pow(a, (q - 1) // (p - 1)), a

    # every linear enc ux + c of the fields with a norm test, on the tables
    # (31^2) and above them, and a seeded sample at p = 2^31 - 1
    @pytest.mark.parametrize("p,e", [(17, 8), (13, 6), (11, 5), (5, 9), (3, 10), (31, 2),
                                     (2**31 - 1, 2), (2**31 - 1, 3)])
    def test_linear_norms_from_the_modulus(self, p, e):
        field = field_new(p, e)
        ref, q = SympyField(field), field.q
        rng = random.Random(p * 100 + e)
        encs = (range(p, p * p) if p < 1024 else
                [p, p * p - 1] + [rng.randrange(p, p * p) for _ in range(30)])
        with time_limit(20, f"linear norms in GF({p}^{e})"):
            for a in encs:
                norm = field._norm(a)
                assert norm == field._norm(a, field._conorm(a)), a
                assert norm == ref.pow(a, (q - 1) // (p - 1)), a

    @pytest.mark.parametrize("wrong", ["mul", "frobenius"])
    def test_wrong_arithmetic_fails_loudly(self, wrong):
        # 17^8's generator 307 is quadratic, so its search runs norm chains;
        # the generators of 11^5 (13 = x + 2) and 5^9 (5 = x) are linear and
        # run none
        for p, e in [(17, 8), (11, 5), (5, 9)]:
            # a fresh instance, so that no Frobenius map is built before the fault
            field = FieldSpec(p, e)
            assert not field._frob
            if wrong == "mul":
                mul, q = field.mul, field.q
                field.mul = lambda a, b, mul=mul, q=q: (mul(a, b) + 1) % q
            else:
                field._frob.update({s: (lambda a: a) for s in range(1, field.e)})
            with time_limit(10, f"GF({p}^{e}).primitive_element() under a wrong {wrong}"):
                with pytest.raises(errors.FormulaMismatch, match=rf"GF\({p}\^{e}\): the norm"):
                    field.primitive_element()
            assert field._primitive is None

    @pytest.mark.parametrize("p,e", [(11, 5), (5, 9)])
    def test_chain_that_disagrees_with_the_modulus_fails_loudly(self, p, e, monkeypatch):
        # a conorm off by the factor 2 keeps every chain norm in GF(p), but
        # doubles it, so only the comparison with the modulus catches it
        field, conorm = FieldSpec(p, e), FieldSpec._conorm
        monkeypatch.setattr(FieldSpec, "_conorm", lambda self, a: self.mul(2, conorm(self, a)))
        with pytest.raises(errors.FormulaMismatch, match=rf"GF\({p}\^{e}\): the norm of "
                                                         r"\d+ is \d+ by the chain"):
            field.primitive_element()
        assert field._primitive is None

    def test_no_generator_fails_loudly(self, monkeypatch, capsys):
        # a norm of 1 fails the order test for r = 2 on every candidate, so
        # no generator exists; an empty field cache makes the CLI build GF(9)
        monkeypatch.setattr(FieldSpec, "_norm", lambda self, a, b=None: 1)
        monkeypatch.setattr(gf, "_FIELDS", {})
        with pytest.raises(errors.FormulaMismatch, match=r"GF\(3\^2\): no element"):
            FieldSpec(3, 2)
        assert cli.main(["construct", "vandermonde", "q=9", "n=8", "k=2", "t=2", "j=3"]) == 3
        assert "internal mismatch: GF(3^2): no element" in capsys.readouterr().err

    def test_few_full_powers(self):
        # the norm decides r = 2 of 17^8 - 1 on a residue; a full pow per
        # candidate and prime would make 312 calls here
        field, calls = FieldSpec(17, 8), []
        power = field.pow
        field.pow = lambda a, n: calls.append(n) or power(a, n)
        with time_limit(10, "GF(17^8).primitive_element()"):
            assert field.primitive_element().enc == 307
        assert len(calls) <= 40, len(calls)

    def test_few_norm_chains(self, monkeypatch):
        # the 272 linear candidates below 307 read their norms from the
        # modulus; a chain for each would make 291 here
        field, calls = FieldSpec(17, 8), []
        conorm = FieldSpec._conorm
        monkeypatch.setattr(FieldSpec, "_conorm", lambda self, a: calls.append(a) or conorm(self, a))
        with time_limit(10, "GF(17^8).primitive_element()"):
            assert field.primitive_element().enc == 307
        assert len(calls) <= 25, len(calls)


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
    """The enc-level operations against a bare _poly_ops(p, e, f).

    Element arithmetic delegates to the same enc-level operations, so this
    checks the flat tables (extension fields with q <= 1024), the residue
    arithmetic (prime fields) and the bit vectors of GF(2^e) against the
    routines of _poly_ops.  Without the field's inverse, the reference takes
    negative powers by Fermat, a route apart from the norm chain that
    extension fields above q = 1024 invert by.  The tables of odd-p fields are built
    with the Kronecker mul of _poly_ops, so test_every_pair_against_sympy
    checks both against sympy's galoistools on every pair of four such
    fields; on odd-p fields above q = 1024, where _poly_ops is the installed
    backend, TestSympyOracle is the independent check.
    """

    @staticmethod
    def check(field, ref, a, b):
        add, sub, mul, power, _ = ref
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
    @pytest.mark.parametrize("p,e", [(2, 16), (17, 8), (3, 10), (2, 10), (31, 2)])
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


class TestRowOps:
    """FieldSpec.row_ops, the row layout of exact elimination."""

    @pytest.mark.parametrize("p,e", [(3, 7), (3, 10), (5, 5), (37, 2), (3, 6), (31, 2),
                                     (2, 16), (2, 11), (1031, 1), (13, 1), (3, 3)])
    def test_kronecker_layout_route(self, p, e):
        # packed rows exactly for odd p, e >= 2 and q > 1024; GF(3^6) and
        # GF(31^2) sit just below, GF(2^16), GF(1031), GF(13), GF(3^3) keep enc rows
        row = field_new(p, e).row_ops().pack([1, 0])
        packed = p > 2 and e >= 2 and p**e > 1024
        assert type(row) is (int if packed else list)

    # every comb: packed rows, GF(2^e) log rows, residues below and above
    # the table bound (GF(13), GF(1031)), and the flat tables for odd p and p = 2
    @pytest.mark.parametrize("p,e", KRONECKER_ROW_FIELDS + [(2, 16), (13, 1), (1031, 1), (3, 3),
                                                            (2, 4)])
    def test_row_operation_against_sympy(self, p, e):
        # q - 1 has every digit p - 1, and 1 and x^(e-1) leave P - a at p in
        # all slots but one: the largest product slots, Barrett quotients and
        # offsets that operands can give; p % q is the enc of x, 0 for e = 1
        with time_limit(10, f"field_new({p}, {e})"):
            field = field_new(p, e)
        ref, q, top = SympyField(field), field.q, p ** (e - 1)
        ops = field.row_ops()

        def entry(a):
            return ops.get(ops.pack([a]), 0)

        X, V = [q - 1, q - 1, 0, top, q - 2], [q - 1, 1, q - 1, q - 1, p % q]
        for s in (q - 1, 1, top):
            for a in (0, 1, top, q - 1):
                got = ops.unpack(ops.comb(entry(s), ops.pack(X), entry(a), ops.pack(V)), 5)
                assert got == [ref.sub(ref.mul(s, x), ref.mul(a, y)) for x, y in zip(X, V)], (s, a)
        for a in (1, top, q - 1):
            assert ops.inv(entry(a)) == entry(ref.inv(a)) and bool(entry(a))
        row = ops.pack(X)
        assert [ops.get(row, j) for j in range(5)] == list(map(entry, X))
        assert not entry(0) and entry(1) == 1

    def test_fields(self):
        # elimination reads columns of whole rows by get; no layout drops entries
        assert gf.RowOps._fields == ('pack', 'unpack', 'get', 'comb', 'inv', 'invs')

    @pytest.mark.parametrize("p,e", [(3, 7), (17, 8), (2**31 - 1, 2)])
    def test_long_packed_rows(self, p, e):
        # rows of 5, 40 and 300 entries make pack regrow its masks; zeros and
        # q - 1 (every digit p - 1) are planted among random entries
        field = field_new(p, e)
        ops, q, rng = field.row_ops(), field.q, random.Random(p + e)

        def entry(a):
            return ops.get(ops.pack([a]), 0)

        for n in (5, 40, 300):
            X, V = ([rng.choice((0, q - 1, rng.randrange(q))) for _ in range(n)] for _ in "XV")
            assert type(ops.pack(X)) is int and ops.unpack(ops.pack(X), n) == X
            for s, a in ((1, 0), (q - 1, 1), (rng.randrange(1, q), rng.randrange(q))):
                got = ops.unpack(ops.comb(entry(s), ops.pack(X), entry(a), ops.pack(V)), n)
                assert got == [field.sub(field.mul(s, x), field.mul(a, y))
                               for x, y in zip(X, V)], (n, s, a)
        rows = [[rng.randrange(q) for _ in range(300)] for _ in range(5)]
        R, rank, pivots = FMatrix(field, rows).rref()
        assert (R.rows, rank, pivots) == rref_reference(field, rows)


class TestPackedReducers:
    """_packed_rows reduces each comb with the masks of as many entries as
    its product holds: one reducer per entry count, built on first use."""

    FIELDS = [(3, 10), (17, 8), (2**31 - 1, 2)]

    @staticmethod
    def expected(field, s, X, a, V):
        return [field.sub(field.mul(s, x), field.mul(a, y)) for x, y in zip(X, V)]

    @pytest.mark.parametrize("p,e", FIELDS)
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_comb_against_per_entry_arithmetic(self, p, e, data):
        # rows of 1..9 entries, with zeros (a zero tail leaves the product
        # shorter than the row), q - 1 (every digit p - 1) and x^(e-1), then
        # cut to their first m entries, zeros after them, for ever fewer m:
        # the product holds at most m entries, so a shorter reducer runs
        field = field_new(p, e)
        ops, q = field.row_ops(), field.q
        n = data.draw(st.integers(1, 9), label="n")
        entry = st.one_of(st.sampled_from((0, 1, q - 1, p ** (e - 1))), st.integers(0, q - 1))
        X, V = (data.draw(st.lists(entry, min_size=n, max_size=n), label=name) for name in "XV")
        s = data.draw(st.sampled_from((1, q - 1)) | st.integers(1, q - 1), label="s")
        a = data.draw(st.sampled_from((0, 1, q - 1)) | st.integers(0, q - 1), label="a")
        S, A = (ops.get(ops.pack([x]), 0) for x in (s, a))
        m = n
        while True:
            got = ops.unpack(ops.comb(S, ops.pack(X), A, ops.pack(V)), n)
            assert got == self.expected(field, s, X, a, V), (s, X, a, V)
            if m == 1:
                break
            m = data.draw(st.integers(1, m - 1), label="m")
            X, V = X[:m] + [0] * (n - m), V[:m] + [0] * (n - m)

    @pytest.mark.parametrize("p,e", FIELDS)
    def test_short_row_before_a_long_one(self, p, e):
        # a fresh field: its first comb is on one entry, its next on nine,
        # then one again; and the other way round on a second fresh field
        rng = random.Random(p + e)
        for lengths in ((1, 9, 1, 4), (9, 1, 4, 9)):
            field = FieldSpec(p, e)
            ops, q = field.row_ops(), field.q
            for n in lengths:
                X, V = ([rng.choice((q - 1, rng.randrange(1, q))) for _ in range(n)]
                        for _ in "XV")
                s, a = rng.randrange(1, q), rng.randrange(1, q)
                S, A = (ops.get(ops.pack([x]), 0) for x in (s, a))
                got = ops.unpack(ops.comb(S, ops.pack(X), A, ops.pack(V)), n)
                assert got == self.expected(field, s, X, a, V), (lengths, n)


class TestWholeRowUnpack:
    """_packed_rows' unpack folds every entry's digit slots into its enc, one
    whole-row step per level, against the encs that were packed."""

    FIELDS = [(3, 7), (3, 10), (5, 9), (11, 5), (13, 6), (17, 8), (7, 12), (3, 16),
              (65521, 2), (2**31 - 1, 3)]

    @pytest.mark.parametrize("p,e", FIELDS)
    def test_round_trip(self, p, e):
        field = field_new(p, e)
        ops, q, rng = field.row_ops(), field.q, random.Random(p * 100 + e)
        for n in range(1, 17):
            rows = [[rng.randrange(q) for _ in range(n)], [q - 1] * n, [0] * n,
                    [rng.randrange(1, q) for _ in range(n - n // 2)] + [0] * (n // 2),
                    [rng.choice((0, 1, p, q - 1)) for _ in range(n)]]
            for row in rows:
                assert ops.unpack(ops.pack(row), n) == row, (n, row)
            # a row read at a width past its last nonzero entry
            assert ops.unpack(ops.pack(rows[0]), n + 3) == rows[0] + [0] * 3


class TestBinaryInverse:
    """GF(2^e) above q = 1024 inverts by the norm chain, whose conorm is the
    inverse, against Fermat's a^(q-2) on the bit-serial mul."""

    @pytest.mark.parametrize("e", [11, 13, 16])
    def test_against_fermat(self, e):
        field = field_new(2, e)
        q, rng = field.q, random.Random(e)
        for a in [1, 2, q - 1, 1 << e - 1] + [rng.randrange(1, q) for _ in range(200)]:
            inverse = field.inv(a)
            assert inverse == field.pow(a, q - 2) and field.mul(a, inverse) == 1, a
            assert field.pow(a, -3) == field.pow(a, 3 * (q - 2) % (q - 1))
            x = field.element(a)
            assert x.inverse() == inverse and 1 / x == inverse and x / x == 1
        with pytest.raises(errors.DivisionByZero):
            field.inv(0)


class TestLogRows:
    """GF(2^e) rows above q = 1024 on the log and doubled exp arrays of the
    primitive element, against the bit-serial scalar mul."""

    FIELDS = [(2, 11), (2, 13), (2, 16)]

    @staticmethod
    def entries(rng, q, n):
        return [rng.choice((0, 1, q - 1, rng.randrange(q))) for _ in range(n)]

    @pytest.mark.parametrize("p,e", FIELDS)
    def test_comb_and_inverse_against_bit_serial_mul(self, p, e):
        field = field_new(p, e)
        ops, q, mul, rng = field.row_ops(), field.q, field.mul, random.Random(e)
        for n in (1, 5, 40):
            X, V = self.entries(rng, q, n), self.entries(rng, q, n)
            for s in (1, q - 1, rng.randrange(2, q - 1)):
                for a in (0, 1, q - 1, rng.randrange(2, q - 1)):
                    got = ops.comb(s, ops.pack(X), a, ops.pack(V))
                    assert got == [mul(s, x) ^ mul(a, y) for x, y in zip(X, V)], (n, s, a)
        for a in (1, 2, q - 1, field.primitive_element().enc, rng.randrange(1, q)):
            assert mul(a, ops.inv(a)) == 1 and ops.inv(a) == field.inv(a)

    @pytest.mark.parametrize("p,e", FIELDS)
    def test_matrix_kernels_against_bit_serial_mul(self, p, e):
        # rank, rref, first_dependent_columns and @ on the rows, against
        # references on the scalar operations (rank and subsets by the
        # per-entry rref); entries are mostly 0, 1 and q - 1
        field = field_new(p, e)
        rng, q = random.Random(e * 7), field.q
        for m, n in [(1, 4), (3, 5), (4, 4), (5, 7)]:
            for _ in range(3):
                rows = [self.entries(rng, q, n) for _ in range(m)]
                rows.append([field.mul(q - 1, x) for x in rows[0]])  # rank deficient
                M = FMatrix(field, rows, n)
                assert M.rank() == rref_reference(field, rows)[1]
                R, rank, pivots = FMatrix(field, rows, n).rref()
                assert (R.rows, rank, pivots) == rref_reference(field, rows)
                B = [self.entries(rng, q, 3) for _ in range(n)]
                assert [list(r) for r in (M @ FMatrix(field, B, 3)).rows] == [
                    [reduce(xor, map(field.mul, row, col), 0) for col in zip(*B)] for row in rows]
                for w in range(1, min(m + 1, n) + 1):
                    expect = next((cols for cols in itertools.combinations(range(n), w)
                                   if rref_reference(field, [[r[c] for c in cols]
                                                             for r in rows])[1] < w), None)
                    assert M.first_dependent_columns(w) == expect, (m, n, w)

    def test_row_operations_multiply_nothing_bit_by_bit(self):
        # the scalar mul builds the tables of one byte times g and no more
        field = FieldSpec(2, 16)
        g, calls = field.primitive_element().enc, []
        ops = gf._log_rows(16, lambda a, b: calls.append(a) or field.mul(a, b), lambda: g)
        assert len(calls) == 2 * 256
        calls.clear()
        rows = [[field.pow(g, (i + 1) * (j + 1)) for j in range(7)] for i in range(4)]
        M = FMatrix(field, rows, 7)
        expected = rref_reference(field, rows), [[field.mul(g, x) ^ y for x, y in zip(*rows[:2])]]
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(field, "_rows", ops)
            patched.setattr(field, "mul", None)
            R, rank, pivots = M.rref()
            assert (R.rows, rank, pivots) == expected[0] and M.rank() == 4
            assert [ops.comb(1, rows[1], g, rows[0])] == expected[1]
            M.first_dependent_columns(4)
        assert calls == []

    def test_arrays(self):
        field = field_new(2, 16)
        g, q = field.primitive_element().enc, field.q
        log, exp = gf._log_exp(16, field.mul, g)
        assert (log.typecode, exp.typecode, len(log), len(exp)) == ("H", "H", q, 2 * (q - 1))
        assert exp[:q - 1] == exp[q - 1:] and sorted(exp[:q - 1]) == list(range(1, q))
        rng = random.Random(16)
        for i in [0, 1, q - 2] + [rng.randrange(q - 1) for _ in range(50)]:
            assert exp[i] == field.pow(g, i) and log[exp[i]] == i

    @pytest.mark.parametrize("k", [3, 5, 17, 257])
    def test_element_that_does_not_generate_is_refused(self, k):
        # g^k has order (q - 1) / k for each prime k | 2^16 - 1
        field = field_new(2, 16)
        h = field.pow(field.primitive_element().enc, k)
        with pytest.raises(errors.FormulaMismatch, match="does not generate"):
            gf._log_exp(16, field.mul, h)

    def test_arrays_build_small(self):
        import tracemalloc
        field = FieldSpec(2, 16)
        field.primitive_element()
        tracemalloc.start()
        try:
            field.row_ops()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 380_000 < peak < 1 << 20  # the arrays hold 6 (q - 1) + 2 bytes

    def test_set_up_builds_no_arrays(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the log and exp arrays were built")

        monkeypatch.setattr(gf, "_FIELDS", {})
        monkeypatch.setattr(gf, "_log_exp", refuse)
        field = field_new(2, 16)
        assert field.primitive_element().enc == 3 and field.inv(3) == field.pow(3, -1)
        with pytest.raises(AssertionError, match="arrays were built"):
            field.row_ops()


# The row-layout fields and the odd-p fields of the large-field benchmark workload
SLOT_FIELDS = sorted(set(KRONECKER_ROW_FIELDS) | {(3, 10), (5, 9), (11, 5), (13, 6), (17, 8)})


class TestKroneckerSlots:
    """The slot bounds of _kronecker and the reduction of _barrett at them.

    No product of operands reaches the bounds b and t (its high slots have
    fewer than e terms, and mu leads with 1), so these tests build T at the
    bounds and reduce it directly, by any monic f: no field is constructed,
    so a wrong constant fails here instead of sending the modulus search past
    every candidate."""

    @pytest.mark.parametrize("p,e", SLOT_FIELDS)
    def test_constants(self, p, e):
        b, c, t, k, m, w, _, _ = _kronecker(p, e)
        assert b >= e * (p - 1) * (2 * p - 1)  # a slot of s X + (P - a) V
        assert c * p >= (e - 1) * (p - 1) ** 2  # a slot of Q tail mod x^e
        assert t >= (e - 1) * (p - 1) * b and t >= b + c * p  # hi mu, T mod f + C
        assert 2**k > t * p and m == 2**k // p + 1 and t * m < 2**w

    @pytest.mark.parametrize("p,e", SLOT_FIELDS)
    def test_reduction_at_the_bounds(self, p, e):
        b, c, t, k, m, w, _, _ = _kronecker(p, e)
        E, rng = (2 * e - 1) * w, random.Random(p + e)
        # f = x^e + (p-1)(x^(e-1) + ... + 1) gives Q tail its largest slots
        for tail in ((p - 1,) * e, tuple(rng.randrange(p) for _ in range(e))):
            f = [1, *reversed(tail)]  # sympy's order: leading coefficient first
            # T = x^e (Q f div x^e) has quotient Q = (p-1)(1 + ... + x^(e-2))
            # and T mod x^e = 0, so T mod f + C is C - Q tail mod x^e
            qf = gf_mul([p - 1] * (e - 1), f, p, ZZ)[::-1]
            cases = [[b] * (2 * e - 1),  # every product slot at b
                     [0] * e + qf[e:] + [0] * (2 * e - 1 - len(qf)),
                     [t - c * p] * e + [0] * (e - 1),  # T mod f + C: t in every slot
                     [0] * e + [t] + [0] * (e - 2)]  # hi mu: t in the slot of Q's x^0
            for one in cases:
                for pair in ([one], [one, cases[0]], [one, cases[2]]):
                    T = sum(v << w * i + E * j for j, s in enumerate(pair) for i, v in enumerate(s))
                    rep = sum(1 << E * j for j in range(len(pair)))
                    expected = 0
                    for j, s in enumerate(pair):
                        r = gf_rem([v % p for v in reversed(s)], f, p, ZZ)[::-1]
                        expected += sum(v << w * i + E * j for i, v in enumerate(r))
                    assert _barrett(p, e, tail, rep)(T) == expected, (tail, pair)


class TestSympyOracle:
    """The installed arithmetic of the fields above q = 1024 (bit vectors for
    p = 2, digits of the enc for odd p) against sympy's galoistools."""

    @pytest.mark.parametrize("p,e", [(2, 11), (2, 16), (3, 10), (5, 9), (11, 5),
                                     (13, 6), (17, 8), (2**31 - 1, 2)])
    def test_seeded_pairs(self, p, e):
        # a wrong mul can send the modulus search past every candidate
        with time_limit(10, f"field_new({p}, {e})"):
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
        # inverses by the norm chain and Frobenius maps take the same slots
        for a in (q - 1, p ** (e - 1), q - 2):
            got = field.inv(a)
            assert type(got) is int and got == ref.inv(a), a
            for s in range(1, e):
                assert field.frobenius(a, s) == ref.pow(a, p**s), (a, s)

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


    @pytest.mark.parametrize("e", [2, 3, 4, 5, 8, 9, 11, 13, 16])
    def test_binary_byte_tables(self, e):
        # a is read a byte at a time: every a for e <= 9, else each bit and
        # each byte boundary among seeded ones
        field = field_new(2, e)
        q = field.q
        encs = range(q) if e <= 9 else sorted(
            {1 << i for i in range(e)} | {255, 256, 257, 0xFF00 & q - 1, q - 1}
            | set(random.Random(e).sample(range(q), 40)))
        for s in range(-e, 2 * e + 1):
            k = 2 ** (s % e)
            assert [field.frobenius(a, s) for a in encs] == [
                binary_enc(gf_pow_mod(binary_poly(a), k, binary_modulus(field), 2, ZZ))
                for a in encs], s


def binary_poly(a):
    """The bits of a, highest degree first, as galoistools takes them."""
    return [int(c) for c in bin(a)[2:]] if a else []


def binary_enc(poly):
    """The enc of a GF(2) polynomial given highest degree first."""
    return int("".join(map(str, poly)) or "0", 2)


def binary_modulus(field):
    """x^e + tail of a binary field, highest degree first."""
    return [1] + list(field.modulus)[::-1]


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
