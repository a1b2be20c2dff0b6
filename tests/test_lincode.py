import itertools
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from eaqeckit import (FMatrix, ebits_stack, errors, field_new, from_generator,
                      from_parity_check, galois_dual, is_mds, min_distance)
from eaqeckit import lincode
from eaqeckit.lincode import LinearCode
from conftest import (codewords, galois_form, identity, intersection_basis_bruteforce,
                      random_code, random_matrix)


def twist(C, t):
    """The code {a^(p^t) : a in C}."""
    return from_generator(C.G.frobenius_entrywise(t))


def stack_intersection_dim(C1, C2, s):
    """dim(C1 ∩ galois_dual(C2, s)) as the stacked ebit route implies it:
    c = dim galois_dual(C2, s) - dim of the intersection."""
    return (C1.n - C2.k) - ebits_stack(C1, C2, s)


def vandermonde_code(field, first_row, nrows, ncols):
    g = field.primitive_element()
    nodes = [g**i for i in range(first_row - 1, first_row - 1 + nrows)]
    return from_generator(
        FMatrix(field, [[a**c for c in range(ncols)] for a in nodes], ncols))


class TestConstruction:
    def test_full_space(self, f9):
        code = from_generator(identity(f9, 4))
        assert (code.n, code.k) == (4, 4)
        assert code.H.nrows == 0
        assert code.k == code.n

    def test_repetition(self, f2):
        code = from_generator(FMatrix(f2, [[1, 1, 1]], 3))
        assert (code.n, code.k) == (3, 1)
        assert code.H.nrows == 2

    def test_dependent_rows_collapse(self, f4):
        G = FMatrix(f4, [[1, 0, 1], [2, 0, 2], [0, 1, 1]], 3)
        code = from_generator(G)
        assert code.k == 2

    def test_zero_code_flagged(self, f9):
        code = from_generator(FMatrix(f9, [[0] * 3] * 2, 3))
        assert code.k == 0 and code.H == identity(f9, 3)
        with pytest.raises(errors.ZeroCode):
            min_distance(code)

    def test_from_parity_empty(self, f9):
        code = from_parity_check(FMatrix(f9, [], ncols=4))
        assert code.k == code.n

    def test_from_parity_identity_is_zero_code(self, f9):
        code = from_parity_check(identity(f9, 3))
        assert code.k == 0

    def test_parity_generator_orthogonal(self, f27):
        rng = random.Random(21)
        for _ in range(30):
            code = random_code(rng, f27, 6, rng.randint(1, 5))
            assert (code.G @ code.H.transpose()).is_zero()
            assert code.G.rank() == code.k
            assert code.H.rank() == code.n - code.k

    def test_table_generator_is_mds(self, f13):
        code = vandermonde_code(f13, 1, 4, 12)
        assert (code.n, code.k) == (12, 4)
        assert is_mds(code)

    def test_table_parity_code(self, f13):
        g = f13.primitive_element()
        nodes = [g**i for i in range(4, 12)]  # rows 5..12
        H = FMatrix(f13, [[a**c for c in range(12)] for a in nodes], 12)
        code = from_parity_check(H)
        assert (code.n, code.k) == (12, 4)
        assert min_distance(code).d == 9  # j + 2

    def test_serialization_roundtrip(self, f9):
        rng = random.Random(30)
        code = random_code(rng, f9, 5, 2)
        assert LinearCode.from_text(code.to_text()) == code

    def test_each_matrix_reduced_once(self, f9, monkeypatch):
        # from_generator reduces G only; from_parity_check reduces H and the
        # kernel basis it builds.  Reductions are rref calls with no memo yet.
        reductions = []
        rref = FMatrix.rref

        def counting(M):
            if M._rref is None:
                reductions.append(M)
            return rref(M)

        monkeypatch.setattr(FMatrix, "rref", counting)
        rng = random.Random(31)
        from_generator(random_matrix(rng, f9, 3, 6))
        assert len(reductions) == 1
        reductions.clear()
        from_parity_check(random_matrix(rng, f9, 2, 6))
        assert len(reductions) == 2


class TestDuals:
    def test_galois_dual_zero_is_euclidean(self, f9):
        rng = random.Random(31)
        for _ in range(20):
            code = random_code(rng, f9, 5, 2)
            assert galois_dual(code, 0) == from_parity_check(code.G)

    def test_dual_of_full_space(self, f4):
        code = from_generator(identity(f4, 3))
        assert galois_dual(code, 0).k == 0

    def test_double_dual(self, f27):
        rng = random.Random(32)
        for _ in range(30):
            code = random_code(rng, f27, 6, rng.randint(1, 5))
            assert galois_dual(galois_dual(code, 0), 0) == code

    def test_form_vanishes_on_dual_exhaustive(self):
        # every codeword against every dual word, all s, small fields
        for p, e, n in [(2, 2, 4), (3, 2, 4), (2, 3, 5)]:
            field = field_new(p, e)
            rng = random.Random(p + e + n)
            code = random_code(rng, field, n, 2)
            for s in range(e):
                dual = galois_dual(code, s)
                for c in codewords(code):
                    for x in codewords(dual):
                        assert galois_form(c, x, s) == field.element(0)

    def test_dimension_formula(self, f27):
        rng = random.Random(33)
        for _ in range(20):
            code = random_code(rng, f27, 6, rng.randint(1, 5))
            for s in range(3):
                assert code.k + galois_dual(code, s).k == code.n

    @pytest.mark.parametrize("p,e", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_dual_frobenius_commute(self, p, e):
        # dual of the twisted code equals the twisted dual
        field = field_new(p, e)
        rng = random.Random(p * 10 + e)
        for _ in range(50):
            code = random_code(rng, field, rng.randint(2, 6), rng.randint(1, 4))
            for s in range(e):
                t = (e - s) % e
                lhs = galois_dual(twist(code, t), 0)
                rhs = twist(galois_dual(code, 0), t)
                assert lhs == rhs


class TestCodeFrobenius:
    def test_zero_twist(self, f9):
        rng = random.Random(34)
        code = random_code(rng, f9, 5, 2)
        assert twist(code, 0) == code

    def test_prime_field_fixed(self, f13):
        rng = random.Random(35)
        code = random_code(rng, f13, 5, 2)
        for t in range(3):
            assert twist(code, t) == code

    def test_f9_explicit(self, f9):
        b = f9.element(3)
        code = from_generator(FMatrix(f9, [[b, f9.one]], 2))
        twisted = twist(code, 1)
        expect = from_generator(FMatrix(f9, [[b**3, f9.one]], 2))
        assert twisted == expect

    def test_weight_distribution_preserved(self, f4):
        rng = random.Random(36)
        code = random_code(rng, f4, 5, 2)
        def weights(c):
            return sorted(sum(1 for x in w if x) for w in codewords(c))
        assert weights(code) == weights(twist(code, 1))


class TestIntersection:
    def test_full_space_c2(self, f9):
        rng = random.Random(41)
        c1 = random_code(rng, f9, 4, 2)
        c2 = from_generator(identity(f9, 4))
        for s in range(2):
            assert stack_intersection_dim(c1, c2, s) == 0

    def test_c1_equals_dual(self, f9):
        rng = random.Random(42)
        for s in range(2):
            c2 = random_code(rng, f9, 5, 2)
            c1 = galois_dual(c2, s)
            assert stack_intersection_dim(c1, c2, s) == c1.k

    def test_brute_force_oracle_small(self, f4):
        rng = random.Random(43)
        for _ in range(200):
            n = rng.randint(2, 6)
            c1 = random_code(rng, f4, n, rng.randint(1, 3))
            c2 = random_code(rng, f4, n, rng.randint(1, 3))
            for s in range(2):
                dual = galois_dual(c2, s)
                basis = intersection_basis_bruteforce(c1, dual)
                assert stack_intersection_dim(c1, c2, s) == basis.nrows

    def test_brute_force_identity_case(self, f4):
        rng = random.Random(44)
        c = random_code(rng, f4, 5, 2)
        basis = intersection_basis_bruteforce(c, c)
        assert basis == c.G

    def test_budget_guard(self, f27):
        rng = random.Random(45)
        c = random_code(rng, f27, 6, 5)
        with pytest.raises(errors.Infeasible):
            intersection_basis_bruteforce(c, c, budget=100)

    def test_length_mismatch(self, f9):
        rng = random.Random(46)
        c1 = random_code(rng, f9, 4, 2)
        c2 = random_code(rng, f9, 5, 2)
        with pytest.raises(errors.LengthMismatch):
            stack_intersection_dim(c1, c2, 0)


def exhaustive_weight_oracle(code):
    """Independent minimum weight: scan all nonzero messages directly."""
    best = code.n + 1
    for msg in itertools.product(map(code.field.element, range(code.field.q)), repeat=code.k):
        if not any(msg):
            continue
        word = [code.field.element(0)] * code.n
        for m, row in zip(msg, code.G.rows):
            word = [w + m * g for w, g in zip(word, row)]
        best = min(best, sum(1 for x in word if x))
    return best


class TestMinDistance:
    def test_repetition(self, f2):
        code = from_generator(FMatrix(f2, [[1, 1, 1]], 3))
        report = min_distance(code)
        assert report.d == 3 and report.method == "exhaustive"

    def test_full_space(self, f9):
        code = from_generator(identity(f9, 4))
        assert min_distance(code).d == 1

    def test_table_code_exhaustive(self, f13):
        code = vandermonde_code(f13, 1, 4, 12)
        report = min_distance(code)
        assert report.d == 9 and report.method == "exhaustive"
        # witness really is a weight-9 codeword
        word = [f13.element(x) for x in report.certificate]
        assert sum(1 for x in word if x) == 9
        assert (FMatrix(f13, [word]) @ code.H.transpose()).is_zero()

    def test_matches_oracle_random(self):
        rng = random.Random(50)
        for p, e in [(2, 1), (3, 1), (2, 2), (3, 2)]:
            field = field_new(p, e)
            for _ in range(25):
                code = random_code(rng, field, rng.randint(2, 6), rng.randint(1, 3))
                assert min_distance(code).d == exhaustive_weight_oracle(code)

    def test_mds_rung_over_budget(self, f27):
        code = vandermonde_code(f27, 3, 12, 15)  # 27^12 messages: over budget
        report = min_distance(code)
        assert report.method == "mds-columns"
        assert report.d == 4

    def test_parity_rung(self, f27):
        # a non-MDS code too big to enumerate: d found by column search
        rows = [[1 if c == r else 0 for c in range(15)] for r in range(12)]
        rows[11][12] = 1  # weight-2 row
        code = from_generator(FMatrix(f27, rows, 15))
        report = min_distance(code, budget=1000)
        assert report.d == 1  # columns 13,14 of H are... actually d=1: e_r rows
        assert report.method == "parity-columns"

    def test_zero_code_rejected(self, f9):
        code = from_parity_check(identity(f9, 3))
        with pytest.raises(errors.ZeroCode):
            min_distance(code)


class TestIsMds:
    def test_full_space(self, f9):
        assert is_mds(from_generator(identity(f9, 4))).is_mds

    def test_false_with_witness(self, f2):
        code = from_generator(FMatrix(f2, [[1, 0, 0, 0], [0, 1, 0, 0]], 4))
        report = is_mds(code)
        assert not report.is_mds
        # witness columns really are dependent in the checked matrix
        M = code.G if report.checked_matrix == "generator" else code.H
        sub = FMatrix(M.field, [[r[c] for c in report.witness] for r in M.rows],
                      len(report.witness))
        assert sub.rank() < len(report.witness)

    def test_table_27_row(self, f27):
        code = vandermonde_code(f27, 12, 3, 15)  # rows 12..14: [15,3]; dual view
        assert is_mds(code).is_mds

    def test_high_rate_table_code(self, f27):
        # [15,11] from parity rows: certified via the cheaper parity side
        g = f27.primitive_element()
        nodes = [g**i for i in range(11, 15)]
        H = FMatrix(f27, [[a**c for c in range(15)] for a in nodes], 15)
        code = from_parity_check(H)
        assert (code.n, code.k) == (15, 11)
        assert is_mds(code).is_mds

    def test_cross_validation_with_exhaustive(self):
        rng = random.Random(60)
        for p, e in [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]:
            field = field_new(p, e)
            for _ in range(20):
                code = random_code(rng, field, rng.randint(2, 6), rng.randint(1, 3))
                exhaustive = min_distance(code).d
                assert is_mds(code).is_mds == (exhaustive == code.n - code.k + 1)

    def test_mds_duality(self, f13):
        for k in (1, 2, 3, 4):
            code = vandermonde_code(f13, 1, k, 8)
            assert is_mds(code).is_mds
            assert is_mds(galois_dual(code, 0)).is_mds


def first_dependent_subset(M, w):
    """Reference scan: the first w-subset of M's columns in lexicographic
    order whose submatrix has rank < w, one FMatrix.rank() per subset."""
    for cols in itertools.combinations(range(M.ncols), w):
        if FMatrix(M.field, [[r[c] for c in cols] for r in M.rows], w).rank() < w:
            return cols
    return None


class TestSubsetScan:
    """_all_subsets_full_rank against the per-subset reference, witness included."""

    @staticmethod
    def random_matrices(rng, field, count):
        for _ in range(count):
            w = rng.randint(1, 4)
            nrows = w + rng.choice((0, 0, 1, 2))  # square and tall
            n = rng.randint(w, 8)
            cols = [[rng.randrange(field.q) for _ in range(nrows)] for _ in range(n)]
            if rng.random() < 0.3:
                cols[rng.randrange(n)] = [0] * nrows
            if rng.random() < 0.3:
                a, b = rng.randrange(n), rng.randrange(n)
                cols[b] = [field.mul(rng.randrange(1, field.q), x) for x in cols[a]]
            yield FMatrix(field, list(zip(*cols)), n), w

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    @pytest.mark.parametrize("p,e", [(13, 1), (2, 4), (3, 2), (29, 1), (5, 2)])
    def test_matches_reference(self, p, e, backend, monkeypatch):
        field = field_new(p, e)
        if backend == "numpy":
            monkeypatch.setattr(lincode, "_SCAN_CHUNK", 3)  # many chunks per level
        else:
            monkeypatch.setattr(type(field), "vec_ops", lambda self: None)
        rng = random.Random(p * 100 + e)
        dependent = 0
        for M, w in self.random_matrices(rng, field, 150):
            expect = first_dependent_subset(M, w)
            assert lincode._all_subsets_full_rank(M, w) == expect
            dependent += expect is not None
        assert 20 < dependent < 140

    def test_matches_reference_without_tables(self):
        field = field_new(2, 11)
        assert field.vec_ops() is None
        rng = random.Random(211)
        for M, w in self.random_matrices(rng, field, 60):
            assert lincode._all_subsets_full_rank(M, w) == first_dependent_subset(M, w)

    def test_late_witness_across_chunks(self):
        # Any 6 columns of a 6-row Vandermonde matrix over GF(1021) are
        # independent, so with column 20 the sum of columns 17..19 the only
        # dependent 4-subset is the last one.  The depth-3 frontier of C(20, 3)
        # prefixes spans two chunks, and the witness sits in the second.
        field = field_new(1021, 1)
        assert math.comb(20, 3) > lincode._SCAN_CHUNK
        cols = [[pow(a, i, 1021) for i in range(6)] for a in range(1, 21)]
        cols.append([sum(c[i] for c in cols[17:20]) % 1021 for i in range(6)])
        M = FMatrix(field, list(zip(*cols)), 21)
        assert first_dependent_subset(M, 4) == (17, 18, 19, 20)
        assert lincode._all_subsets_full_rank(M, 4) == (17, 18, 19, 20)

    def test_generic_path_imports_no_numpy(self):
        script = ("import sys\n"
                  "from eaqeckit import field_new, gabidulin_family, vandermonde_family\n"
                  "gabidulin_family(field_new(2, 16), 7, 4, 3, 2)\n"
                  "gabidulin_family(field_new(17, 8), 8, 4, 4, 1)\n"
                  "vandermonde_family(field_new(2, 11), 8, 3, 2, 4)\n"
                  "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
        src = str(Path(lincode.__file__).parents[1])
        subprocess.run([sys.executable, "-c", script], check=True, timeout=120,
                       env={**os.environ, "PYTHONPATH": src})
