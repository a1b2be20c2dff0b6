import random

import pytest
from hypothesis import given, settings, strategies as st

from eaqeckit import (EaqecParams, FMatrix, assemble, ebits_product,
                      ebits_stack, errors, field_new, from_generator,
                      galois_dual, is_mds, min_distance)
from eaqeckit import eaqec
from conftest import (BACKEND_FIELDS, draw_matrix, identity, intersection_basis_bruteforce,
                      random_code)


def vandermonde_code(field, first_row, nrows, ncols):
    g = field.primitive_element()
    nodes = [g**i for i in range(first_row - 1, first_row - 1 + nrows)]
    return from_generator(
        FMatrix(field, [[a**c for c in range(ncols)] for a in nodes], ncols))


@pytest.mark.parametrize("p,e", BACKEND_FIELDS)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_ebit_routes_agree_property(p, e, data):
    field = field_new(p, e)
    n = data.draw(st.integers(2, 6))
    G1 = draw_matrix(data, field, data.draw(st.integers(1, n - 1)), n)
    C1 = from_generator(G1)
    s = data.draw(st.integers(0, e - 1))
    if data.draw(st.booleans()):
        # the twisted dual of C2 shares rows with C1, so c depends on s
        D = from_generator(G1.vstack(draw_matrix(data, field, 1, n)))
        C2 = galois_dual(D, s)
    else:
        C2 = from_generator(draw_matrix(data, field, data.draw(st.integers(1, n)), n))
    assert ebits_product(C1, C2, s) == ebits_stack(C1, C2, s)


class TestEbits:
    def test_table_pair(self, f13):
        C1 = vandermonde_code(f13, 1, 4, 12)
        C2 = galois_dual(vandermonde_code(f13, 5, 8, 12), 0)
        assert ebits_product(C1, C2, 0) == 8
        assert ebits_stack(C1, C2, 0) == 8

    def test_dual_pair_zero(self, f9):
        rng = random.Random(90)
        for s in range(2):
            C2 = random_code(rng, f9, 6, 3)
            C1 = galois_dual(C2, s)
            assert ebits_product(C1, C2, s) == 0

    def test_self_dual_zero(self, f2):
        # dual containment makes H1 H2^T vanish
        C = from_generator(FMatrix(f2, [[1, 1, 0, 0], [0, 0, 1, 1]], 4))
        assert galois_dual(C, 0) == C
        assert ebits_product(C, C, 0) == 0

    def test_full_space_zero(self, f9):
        rng = random.Random(89)
        C1 = from_generator(identity(f9, 4))
        C2 = random_code(rng, f9, 4, 2)
        assert ebits_product(C1, C2, 0) == 0
        assert ebits_stack(C1, C2, 0) == 0

    def test_identity_pair(self, f2):
        C = from_generator(FMatrix(f2, [[1, 0, 0, 0], [0, 1, 0, 0]], 4))
        assert ebits_product(C, C, 0) == 2

    def test_formulas_agree_random(self):
        rng = random.Random(91)
        for p, e in [(2, 1), (2, 2), (3, 2), (5, 1), (3, 3)]:
            field = field_new(p, e)
            for _ in range(40):
                n = rng.randint(2, 7)
                C1 = random_code(rng, field, n, rng.randint(1, n))
                C2 = random_code(rng, field, n, rng.randint(1, n))
                for s in range(e):
                    assert ebits_product(C1, C2, s) == ebits_stack(C1, C2, s)

    def test_matches_intersection_dim(self):
        # c = dim C2^perp_s - dim(C1 intersect C2^perp_s)
        rng = random.Random(92)
        for p, e in [(2, 2), (3, 2)]:
            field = field_new(p, e)
            for _ in range(30):
                n = rng.randint(2, 6)
                C1 = random_code(rng, field, n, rng.randint(1, n))
                C2 = random_code(rng, field, n, rng.randint(1, n))
                for s in range(e):
                    meet = intersection_basis_bruteforce(C1, galois_dual(C2, s))
                    assert ebits_stack(C1, C2, s) == (n - C2.k) - meet.nrows

    def test_symmetric_in_transpose(self):
        # rank(A B^T) = rank(B A^T)
        rng = random.Random(93)
        field = field_new(3, 2)
        for _ in range(30):
            n = rng.randint(2, 6)
            C1 = random_code(rng, field, n, rng.randint(1, n))
            C2 = random_code(rng, field, n, rng.randint(1, n))
            e = field.e
            H2t = C2.H.frobenius_entrywise((e - 1) % e)
            lhs = (C1.H @ H2t.transpose()).rank()
            rhs = (H2t @ C1.H.transpose()).rank()
            assert lhs == rhs

    def test_range(self):
        rng = random.Random(94)
        field = field_new(2, 2)
        for _ in range(50):
            n = rng.randint(2, 6)
            C1 = random_code(rng, field, n, rng.randint(1, n))
            C2 = random_code(rng, field, n, rng.randint(1, n))
            c = ebits_product(C1, C2, 0)
            assert 0 <= c <= min(n - C1.k, n - C2.k)

    def test_field_mismatch(self, f9, f13):
        rng = random.Random(95)
        C1 = random_code(rng, f9, 4, 2)
        C2 = random_code(rng, f13, 4, 2)
        with pytest.raises(errors.FieldMismatch):
            ebits_product(C1, C2, 0)

    def test_length_mismatch(self, f9):
        rng = random.Random(96)
        C1 = random_code(rng, f9, 4, 2)
        C2 = random_code(rng, f9, 5, 2)
        with pytest.raises(errors.LengthMismatch):
            ebits_stack(C1, C2, 0)


class TestParams:
    def test_slack_mds_tuple(self, f9):
        p = EaqecParams.build(f9, 10, 1, 7, 3)
        assert p.slack == 0 and p.is_mds
        assert p.slack == 0
        assert str(p) == "[[10,1,7;3]]_3^2"

    def test_slack_positive(self, f2):
        p = EaqecParams.build(f2, 4, 0, 2, 0)
        assert p.slack == 2 and not p.is_mds

    def test_json_fields(self, f13):
        blob = EaqecParams.build(f13, 12, 4, 9, 8).to_json()
        assert blob["q"] == "13" and blob["slack"] == 0 and blob["mds"]
        assert blob["rate"] == pytest.approx(4 / 12)
        assert blob["net_rate"] == pytest.approx(-4 / 12)

    def test_big_field_label(self):
        field = field_new(17, 8)
        p = EaqecParams.build(field, 8, 5, 3, 4)
        assert str(p) == "[[8,5,3;4]]_17^8"
        assert p.slack == 3


def assembled(C1, C2, s):
    """(assemble's report, the pair's EaqecParams with d the lesser
    min_distance of the two codes)."""
    pair = assemble(C1, C2, s)
    d = min(min_distance(C1).d, min_distance(C2).d)
    return pair, EaqecParams.build(C1.field, C1.n, pair.k, d, pair.c_product)


class TestAssemble:
    def test_table_row(self, f13):
        C1 = vandermonde_code(f13, 1, 4, 12)
        C2 = galois_dual(vandermonde_code(f13, 5, 8, 12), 0)
        report, p = assembled(C1, C2, 0)
        assert report.c_product == report.c_stack == 8 and report.k == 4
        assert (p.n, p.k, p.d, p.c) == (12, 4, 9, 8)
        assert p.slack == 0
        assert str(p) == "[[12,4,9;8]]_13"

    def test_self_dual_binary(self, f2):
        C = from_generator(FMatrix(f2, [[1, 0, 1, 0], [0, 1, 0, 1]], 4))
        assert galois_dual(C, 0) == C
        _, p = assembled(C, C, 0)
        assert (p.n, p.k, p.d, p.c) == (4, 0, 2, 0)
        assert p.slack == 2 and not p.is_mds

    def test_logical_dim_nonnegative(self):
        # k = k1 - dim(C1 intersect C2^perp), so assemble never goes negative
        rng = random.Random(98)
        field = field_new(3, 1)
        for _ in range(50):
            n = rng.randint(2, 5)
            C1 = random_code(rng, field, n, rng.randint(1, n))
            C2 = random_code(rng, field, n, rng.randint(1, n))
            report, p = assembled(C1, C2, 0)
            assert report.k == p.k >= 0

    def test_disagreeing_ebit_routes(self, f2, monkeypatch):
        C = from_generator(FMatrix(f2, [[1, 0, 1, 0], [0, 1, 0, 1]], 4))
        monkeypatch.setattr(eaqec, "ebits_stack", lambda *args: ebits_stack(*args) + 1)
        with pytest.raises(errors.FormulaMismatch, match="ebit formulas disagree"):
            assemble(C, C, 0)

    def test_negative_logical_dimension(self, f2, monkeypatch):
        # k1 = k2 = 1 and n = 4, so any c < n - k1 - k2 = 2 makes k negative
        C = from_generator(FMatrix(f2, [[1, 1, 1, 1]], 4))
        assert ebits_product(C, C, 0) >= 2
        for route in ("ebits_product", "ebits_stack"):
            monkeypatch.setattr(eaqec, route, lambda *args: 1)
        with pytest.raises(errors.NegativeLogicalDim):
            assemble(C, C, 0)

    def test_galois_twist_changes_c(self, f4):
        # a pair where the s = 0 and s = 1 forms give different ebit counts
        rng = random.Random(97)
        for _ in range(200):
            n = rng.randint(2, 5)
            C1 = random_code(rng, f4, n, rng.randint(1, n - 1))
            C2 = random_code(rng, f4, n, rng.randint(1, n - 1))
            if ebits_product(C1, C2, 0) != ebits_product(C1, C2, 1):
                return
        pytest.fail("no twist-sensitive pair found")
