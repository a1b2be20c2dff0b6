import itertools
import math
import random

import pytest

from eaqeckit import (FMatrix, errors, field_new, from_generator,
                      is_mrd, min_rank_distance_exhaustive, moore_matrix)
from eaqeckit.rankmetric import _coefficient_rank
from conftest import SympyField, frobenius, identity


def gabidulin_code(field, n, k, t=0):
    b = field.primitive_element()
    g = tuple(b**i for i in range(n))
    return from_generator(moore_matrix(field, g, k, t))


def rank_weight(v):
    """The rank weight that the MRD checks compute, of a vector of Elements."""
    return _coefficient_rank(v[0].field, [x.enc for x in v])


def independent(field, g):
    """GF(p)-independence of the coordinates, the check that moore_matrix makes."""
    return _coefficient_rank(field, [field.to_enc(x) for x in g]) == len(g)


def span_rank_oracle(word):
    """Independent rank weight: log_p of the size of the GF(p)-span of the
    coordinates, built by closure under adding multiples (no elimination)."""
    field = word[0].field
    span = {field.element(0)}
    for x in word:
        span = {y + field.element(c) * x for y in span for c in range(field.p)}
    return round(math.log(len(span), field.p))


class TestRankWeight:
    def test_zero_vector(self, f9):
        assert rank_weight([f9.element(0)] * 4) == 0
        assert _coefficient_rank(f9, []) == 0

    def test_prime_field(self, f13):
        # over a prime field every nonzero coordinate spans the same line
        rng = random.Random(70)
        for _ in range(30):
            v = [f13.element(rng.randrange(13)) for _ in range(6)]
            assert rank_weight(v) == (1 if any(v) else 0)

    def test_f9_example(self, f9):
        b = f9.element(3)
        assert rank_weight([f9.one, f9.element(2), f9.one + b]) == 2

    def test_bounded_by_hamming(self, f27):
        rng = random.Random(71)
        for _ in range(50):
            v = [f27.element(rng.randrange(27)) for _ in range(5)]
            hw = sum(1 for x in v if x)
            assert rank_weight(v) <= min(hw, 3)

    def test_scaling_invariant(self, f27):
        rng = random.Random(72)
        for _ in range(50):
            v = [f27.element(rng.randrange(27)) for _ in range(4)]
            a = f27.element(1 + rng.randrange(26))
            assert rank_weight([a * x for x in v]) == rank_weight(v)

    @pytest.mark.parametrize("p,e", [(2, 3), (3, 2), (3, 3), (5, 2)])
    def test_matches_span_oracle(self, p, e):
        field = field_new(p, e)
        rng = random.Random(74 + p + e)
        for _ in range(40):
            v = [field.element(rng.randrange(field.q)) for _ in range(rng.randint(1, 4))]
            assert rank_weight(v) == span_rank_oracle(v)

    def test_frobenius_invariant(self, f27):
        rng = random.Random(73)
        for _ in range(50):
            v = [f27.element(rng.randrange(27)) for _ in range(4)]
            assert rank_weight([frobenius(x, 1) for x in v]) == rank_weight(v)


class TestIndependence:
    def test_powers_of_primitive(self, f27):
        b = f27.primitive_element()
        assert independent(f27, [f27.one, b, b**2])

    def test_prime_field_max_one(self, f13):
        assert independent(f13, [f13.element(5)])
        assert not independent(f13, [f13.one, f13.element(2)])

    def test_zero_dependent(self, f9):
        assert not independent(f9, [f9.element(0)])

    def test_empty(self, f9):
        assert independent(f9, [])


class TestMooreMatrix:
    def test_f81_example(self):
        field = field_new(3, 4)
        b = field.primitive_element()
        M = moore_matrix(field, (field.one, b, b**2), 2)
        assert M.rows[0] == (field.one, b, b**2)
        assert M.rows[1] == (field.one, b**3, b**6)

    def test_offset_wraparound(self):
        field = field_new(3, 4)
        b = field.primitive_element()
        g = (field.one, b, b**2)
        M = moore_matrix(field, g, 2, t=3)
        assert M.rows[0] == tuple(x**27 for x in g)
        assert M.rows[1] == g  # exponent (3+1) mod 4 = 0

    def test_full_rank(self):
        field = field_new(2, 4)
        b = field.primitive_element()
        for n in (2, 3, 4):
            g = tuple(b**i for i in range(n))
            for k in range(1, n + 1):
                assert moore_matrix(field, g, k).rank() == k

    def test_int_generators(self):
        # enc ints are accepted as everywhere else in the library
        field = field_new(2, 4)
        M = moore_matrix(field, (1, 2), 2, 1)
        assert M == moore_matrix(field, (field.one, field.element(2)), 2, 1)
        assert M.rows == ((1, 4), (1, 3))  # x^2 = 4, x^4 = x + 1 = 3
        with pytest.raises(errors.DependentGenerators):
            moore_matrix(field_new(3, 3), (1, 2), 1)

    def test_foreign_elements_rejected(self, f9, f27):
        with pytest.raises(errors.FieldMismatch):
            moore_matrix(f27, (f9.one, f9.element(3)), 1)

    def test_too_many_generators(self, f9):
        b = f9.element(3)
        with pytest.raises(errors.LengthExceedsDegree):
            moore_matrix(f9, (f9.one, b, b + f9.one), 2)

    def test_dependent_generators(self, f9):
        with pytest.raises(errors.DependentGenerators):
            moore_matrix(f9, (f9.one, f9.element(2)), 1)

    def test_bad_row_count(self, f9):
        b = f9.element(3)
        with pytest.raises(errors.ShapeMismatch):
            moore_matrix(f9, (f9.one, b), 0)


class TestMooreDefinition:
    """Every entry (i, j) of moore_matrix equals g_j^(p^((t+i) mod m)), with
    sympy as the oracle; k = m + 2 rows, so the exponent wraps past m."""

    @pytest.mark.parametrize("p,m", [(2, 16), (17, 8), (3, 10), (2, 4), (3, 3)])
    def test_entries(self, p, m):
        field = field_new(p, m)
        ref, memo = SympyField(field), {}

        def oracle(a, s):
            if (a, s) not in memo:
                memo[a, s] = ref.pow(a, p**s)
            return memo[a, s]

        rng = random.Random(p * 100 + m)
        while True:  # seeded random generators, independent over GF(p)
            drawn = [rng.randrange(field.q) for _ in range(rng.randint(2, m))]
            if independent(field, drawn):
                break
        basis = tuple(field.element(p**i) for i in range(m))  # 1, x, ..., x^(m-1)
        for g in (basis, tuple(drawn)):
            encs = [field.to_enc(x) for x in g]
            for t in (0, 1, m - 1, m, 2 * m + 1, -1):
                M = moore_matrix(field, g, m + 2, t)
                assert (M.nrows, M.ncols) == (m + 2, len(g))
                for i, row in enumerate(M.rows):
                    assert list(row) == [oracle(a, (t + i) % m) for a in encs], (t, i)


def rank_distance_oracle(code):
    """Independent minimum rank weight: scan all nonzero messages."""
    best = code.n + 1
    for msg in itertools.product(map(code.field.element, range(code.field.q)), repeat=code.k):
        if not any(msg):
            continue
        word = [code.field.element(0)] * code.n
        for m, row in zip(msg, code.G.rows):
            word = [w + m * g for w, g in zip(word, row)]
        best = min(best, span_rank_oracle(word))
    return best


class TestMinRankDistance:
    def test_matches_oracle(self):
        field = field_new(2, 3)
        rng = random.Random(80)
        for _ in range(20):
            n = rng.randint(1, 3)
            rows = [[field.element(rng.randrange(8)) for _ in range(n)]
                    for _ in range(rng.randint(1, n))]
            M = FMatrix(field, rows, n)
            if M.rank() == 0:
                continue
            code = from_generator(M)
            assert min_rank_distance_exhaustive(code) == rank_distance_oracle(code)

    def test_budget(self):
        field = field_new(2, 16)
        code = gabidulin_code(field, 8, 4)
        with pytest.raises(errors.Infeasible):
            min_rank_distance_exhaustive(code, budget=100)


class TestIsMrd:
    def test_gabidulin_exhaustive(self):
        field = field_new(2, 4)
        for n in (2, 3, 4):
            for k in range(1, n + 1):
                report = is_mrd(gabidulin_code(field, n, k))
                assert report.is_mrd
                assert report.min_rank == n - k + 1

    def test_offset_rows_still_mrd(self):
        field = field_new(2, 4)
        for t in range(4):
            assert is_mrd(gabidulin_code(field, 3, 2, t))

    def test_non_mrd_refuted(self):
        field = field_new(2, 4)
        # identity rows contain rank-1 codewords, so n - k + 1 = 2 is missed
        G = FMatrix(field, [[1, 0, 0], [0, 1, 0]], 3)
        report = is_mrd(from_generator(G))
        assert not report.is_mrd and report.min_rank == 1

    def test_over_budget_infeasible(self):
        field = field_new(3, 6)
        code = gabidulin_code(field, 6, 3)  # 729^3 codewords
        for budget in (1000, 2**22):
            with pytest.raises(errors.Infeasible):
                is_mrd(code, budget=budget)

    def test_length_guard(self, f9):
        code = from_generator(identity(f9, 3))
        with pytest.raises(errors.LengthExceedsDegree):
            is_mrd(code)
