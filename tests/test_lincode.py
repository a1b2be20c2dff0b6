import dataclasses
import gc
import itertools
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from eaqeckit import (FMatrix, ebits_stack, errors, field_new, from_generator,
                      from_parity_check, galois_dual, is_mds, min_distance, moore_matrix)
from eaqeckit import families, fmatrix, lincode
from eaqeckit.fmatrix import pivot_step
from eaqeckit.lincode import LinearCode
from conftest import (KRONECKER_ROW_FIELDS, ROW_LAYOUT_FIELDS, codewords, galois_form, identity,
                      intersection_basis_bruteforce, is_zero, random_code, random_matrix,
                      rref_reference, time_limit)


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
            assert is_zero(code.G @ code.H.transpose())
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

    @pytest.mark.parametrize("header", ["code 5 3", "code 4 2"])
    def test_header_disagreeing_with_generator_rejected(self, f9, header):
        code = random_code(random.Random(30), f9, 5, 2)
        text = header + "\n" + code.G.to_text()
        with pytest.raises(errors.ShapeMismatch, match="header disagrees"):
            LinearCode.from_text(text)

    def test_empty_generator_code_file(self):
        # the zero code of length 3 (a 0 x 3 generator), and a code file whose
        # generator is 2 x 0: the code of length 0
        f3 = field_new(3, 1)
        zero = from_generator(FMatrix(f3, [], 3))
        assert LinearCode.from_text(zero.to_text()) == zero and zero.to_text().endswith("0\n")
        code = LinearCode.from_text("code 0 0\n" + FMatrix._of(f3, [(), ()], 0).to_text())
        assert (code.n, code.k) == (0, 0)
        assert LinearCode.from_text(code.to_text()) == code

    def test_each_matrix_reduced_once(self, f9, monkeypatch):
        # from_generator reduces G only; from_parity_check reduces H, with its
        # columns reversed, and builds G already reduced.  Reductions are rref
        # calls with no memo yet and ranks on rows, which leave no memo.
        reductions = []
        rref, rank_rows = FMatrix.rref, fmatrix._rank_rows

        def counting(M):
            if M._rref is None:
                reductions.append(M)
            return rref(M)

        monkeypatch.setattr(FMatrix, "rref", counting)
        monkeypatch.setattr(fmatrix, "_rank_rows",
                            lambda *args: reductions.append(args) or rank_rows(*args))
        rng = random.Random(31)
        from_generator(random_matrix(rng, f9, 3, 6))
        assert len(reductions) == 1
        reductions.clear()
        from_parity_check(random_matrix(rng, f9, 2, 6))
        assert len(reductions) == 1

    def test_codes_leave_no_reference_cycle(self, f9):
        # G is its own RREF memo; a memo that held G itself would be a cycle,
        # and every G would wait for the cyclic collector to be freed
        M = random_matrix(random.Random(32), f9, 2, 6)
        gc.collect()
        gc.disable()
        try:
            code = from_parity_check(M)
            assert code.G.rref()[0] is code.G
            del code
            from_generator(M)
            assert gc.collect() == 0
        finally:
            gc.enable()


    def test_kernel_over_budget_is_infeasible(self, f13, monkeypatch):
        # (ncols - rank) * ncols entries: 8 * 8 for the zero 8 x 8 matrix,
        # caught after elimination, and 9 * 9 for no rows, caught before
        monkeypatch.setattr(lincode, "DEFAULT_BUDGET", 63)
        assert from_generator(identity(f13, 8)).k == 8
        for G in (FMatrix(f13, [[0] * 8] * 8, 8), FMatrix(f13, [], 9)):
            with pytest.raises(errors.Infeasible, match="entries exceeds the budget of 63"):
                from_generator(G)
            with pytest.raises(errors.Infeasible):
                from_parity_check(G)


    def test_wide_kernel_refused_before_any_rank(self, f13, monkeypatch):
        # 600 x 2600: (2600 - 600) * 2600 entries exceed the budget whatever
        # the rank, so the header alone refuses it, with no elimination
        def no_rank(M):
            raise AssertionError("rank taken")

        monkeypatch.setattr(FMatrix, "rref", no_rank)
        row = tuple(range(1, 13)) * 216 + (1,) * 8
        M = FMatrix._of(f13, [row] * 600, 2600)
        assert (M.ncols - M.nrows) * M.ncols > lincode.DEFAULT_BUDGET
        with time_limit(5, "refusing a 600 x 2600 kernel"):
            for build in (from_generator, from_parity_check):
                with pytest.raises(errors.Infeasible, match="exceeds the budget"):
                    build(M)


class TestParityCheckOneElimination:
    """from_parity_check reduces H with its columns reversed and reads G off
    that copy's kernel basis, and its H off the same copy's RREF.  It must
    build the code of the two-elimination route,
    from_generator(H.kernel_basis()), with G its own RREF and H the kernel
    basis of G."""

    @staticmethod
    def assert_same_code(H):
        code, old = from_parity_check(H), from_generator(H.kernel_basis())
        assert code == old  # field, n, k, G and H
        R, rank, pivots = code.G.rref()
        assert R is code.G and rank == code.k
        assert pivots == H.kernel_basis().rref()[2]
        # the reference: G's kernel basis from an elimination of its own
        assert code.H == FMatrix(code.field, code.G.rows, code.n).kernel_basis()
        assert code.H.nrows == code.n - code.k

    @pytest.mark.parametrize("p,e", ROW_LAYOUT_FIELDS)
    def test_matches_two_elimination_route(self, p, e):
        field = field_new(p, e)
        rng = random.Random(p * 10 + e)
        for m, n in [(2, 5), (3, 6), (4, 4), (5, 7), (1, 3)]:
            self.assert_same_code(random_matrix(rng, field, m, n))
            r = max(1, m // 2)  # rank deficient
            self.assert_same_code(random_matrix(rng, field, m, r) @ random_matrix(rng, field, r, n))
            zero_column = [list(row) for row in random_matrix(rng, field, m, n).rows]
            for row in zero_column:  # column 1 zero, and one more entry per row
                row[rng.randrange(n)] = 0
                row[1] = 0
            self.assert_same_code(FMatrix(field, zero_column, n))
        self.assert_same_code(FMatrix(field, [], 5))  # no rows: the full space
        self.assert_same_code(FMatrix(field, [[0] * 5] * 3, 5))  # H = 0
        full = identity(field, 4).vstack(random_matrix(rng, field, 2, 4))
        self.assert_same_code(full)  # full column rank: the zero code
        assert from_parity_check(full).k == 0

    def test_tables_route(self, monkeypatch):
        # GF(29) 5 x 28, 140 entries, reduces on the numpy tables
        field = field_new(29, 1)
        rng = random.Random(29)
        tables, tabled = fmatrix._rref_tables, []
        monkeypatch.setattr(fmatrix, "_rref_tables",
                            lambda *args: tabled.append(args) or tables(*args))
        full = identity(field, 10).vstack(random_matrix(rng, field, 4, 10))  # 140 entries
        deficient = random_matrix(rng, field, 5, 2) @ random_matrix(rng, field, 2, 28)
        zero = FMatrix(field, [[0] * 28] * 5, 28)
        for H in [random_matrix(rng, field, 5, 28) for _ in range(3)] + [full, deficient, zero]:
            tabled.clear()
            from_parity_check(H)
            assert len(tabled) == 1  # H reversed, and nothing else
            self.assert_same_code(H)


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
            word = [w + m * g for w, g in zip(word, map(code.field.element, row))]
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
        assert is_zero(FMatrix(f13, [word]) @ code.H.transpose())

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

    def test_budget_boundary_is_exhaustive(self, f13):
        # q^k = 13^2 = 169 messages: a budget of exactly 169 still enumerates
        code = vandermonde_code(f13, 1, 2, 12)
        assert min_distance(code, budget=169) == min_distance(code)
        assert min_distance(code, budget=169).method == "exhaustive"
        assert min_distance(code, budget=168).method == "mds-columns"
        assert min_distance(code, budget=168).d == 11

    def test_parity_rung_finds_six_columns(self, f13):
        # H = [V 0; 0 I2], V the 5 x 8 Vandermonde matrix of the nodes 1..8:
        # every 5 columns of H are independent and any 6 of V's are not, so
        # d = 6, while n - k + 1 = 8.  Rung (c) must reach w = 6.
        V = [[pow(a, i, 13) for a in range(1, 9)] + [0, 0] for i in range(5)]
        H = FMatrix(f13, V + [[0] * 8 + [1, 0], [0] * 8 + [0, 1]], 10)
        code = from_parity_check(H)
        assert (code.n, code.k) == (10, 3) and lincode.COLUMN_SEARCH_MAX >= 6
        report = min_distance(code, budget=1000)  # 13^3 > 1000
        assert (report.d, report.method) == (6, "parity-columns")
        assert report.certificate == (0, 1, 2, 3, 4, 5)
        assert (min_distance(code).d, min_distance(code).method) == (6, "exhaustive")


class TestIsMds:
    def test_full_space(self, f9):
        assert is_mds(from_generator(identity(f9, 4))).is_mds

    def test_zero_code_rejected(self, f9):
        with pytest.raises(errors.ZeroCode):
            is_mds(from_parity_check(identity(f9, 3)))

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


def grs_pair(rng, field, n, k):
    """(C1, C2): the GRS code of dimension k on n random distinct nonzero
    nodes x with random multipliers, and the kernel of the n-k rows u_c x_c^i
    with other random multipliers u, a GRS code of dimension k on the same
    nodes, so C2 = C1 D for a nonzero diagonal D."""
    nodes = rng.sample(range(1, field.q), n)

    def rows(count):
        scale = [rng.randrange(1, field.q) for _ in range(n)]
        return FMatrix(field, [[field.mul(v, field.pow(x, i)) for v, x in zip(scale, nodes)]
                               for i in range(count)], n)

    return from_generator(rows(k)), from_parity_check(rows(n - k))


def with_rows(C, rows):
    return from_generator(FMatrix(C.field, rows, C.n))


class TestScaledTwin:
    """is_mds(C, twin=D): D proved with C as a checked column scaling of C,
    else left for a scan of its own."""

    @staticmethod
    def assert_scan(D, C):
        """D is refused: C's report is its own scan's, with twin_mds False."""
        assert not lincode._scales_twin(D, C)
        report = is_mds(C, twin=D)
        assert report == is_mds(C) and not report.twin_mds

    @staticmethod
    def assert_scaled(D, C):
        report = is_mds(C, twin=D)
        assert report.is_mds and report.twin_mds
        assert dataclasses.replace(report, twin_mds=False) == is_mds(C)
        assert is_mds(D).is_mds

    def test_table1_rows(self):
        from eaqeckit import TABLE1_ROWS, vandermonde_family
        for p, e, n, k, t, j in TABLE1_ROWS:
            pair = vandermonde_family(field_new(p, e), n, k, t, j).pair
            self.assert_scaled(pair.C2, pair.C1)

    @pytest.mark.parametrize("p,e", [(13, 1), (3, 3), (29, 1), (2, 4)])
    def test_random_grs_pairs(self, p, e):
        field, rng = field_new(p, e), random.Random(p * 100 + e)
        sides = set()
        for _ in range(12):
            n = rng.randint(3, min(field.q - 1, 12))
            C1, C2 = grs_pair(rng, field, n, rng.randint(1, n - 1))
            self.assert_scaled(C2, C1)
            self.assert_scaled(C1, C2)
            sides.add(is_mds(C2).checked_matrix)
        assert sides == {"generator", "parity"}

    @pytest.mark.parametrize("p,e", [(13, 1), (2, 4)])
    def test_one_changed_entry_is_refused(self, p, e):
        # k, n - k >= 2: every free entry sits in a 2x2 cross ratio, so a
        # change anywhere, to zero or to another value, leaves no scaling
        field, rng = field_new(p, e), random.Random(7)
        C1, C2 = grs_pair(rng, field, 8, 3)
        self.assert_scaled(C2, C1)
        for i in range(C2.k):
            for c in range(C2.k, C2.n):
                for value in (0, field.mul(C2.G.rows[i][c], 2 if p > 2 else 3)):
                    rows = [list(row) for row in C2.G.rows]
                    rows[i][c] = value
                    self.assert_scan(with_rows(C2, rows), C1)

    def test_zero_reference_entry_is_refused(self, f13):
        # a zero on row 0 (column 4) or on the first free column (row 1)
        # makes every cross ratio through it 0 = 0; the other entries of
        # that column or row then differ by no scaling
        A = [[1, 0, 0, 2, 0, 3, 4], [0, 1, 0, 5, 6, 7, 8], [0, 0, 1, 9, 10, 11, 12]]
        B = [list(row) for row in A]
        B[1][4], B[2][4] = 7, 1
        self.assert_scan(from_generator(FMatrix(f13, B, 7)),
                         from_generator(FMatrix(f13, A, 7)))
        A = [[1, 0, 0, 2, 3, 4, 5], [0, 1, 0, 0, 6, 7, 8], [0, 0, 1, 9, 10, 11, 12]]
        B = [list(row) for row in A]
        B[1][4] = 7
        self.assert_scan(from_generator(FMatrix(f13, B, 7)),
                         from_generator(FMatrix(f13, A, 7)))

    def test_different_pivots_are_refused(self, f13):
        # at k = 1 the two codes agree on every reference entry and have no
        # cross ratio: only the pivots tell them apart
        for A, B in (([[1, 2, 3, 4]], [[0, 1, 5, 6]]),
                     ([[1, 0, 2, 3, 4], [0, 1, 5, 6, 7]], [[1, 2, 0, 3, 4], [0, 0, 1, 5, 6]])):
            twin, C = (from_generator(FMatrix(f13, M, len(M[0]))) for M in (A, B))
            assert C.k == twin.k and not is_mds(C).is_mds
            self.assert_scan(C, twin)

    def test_column_permuted_twin_is_refused(self, f13, f27):
        for field in (f13, f27):
            C1, C2 = grs_pair(random.Random(field.q), field, 9, 4)
            for a, b in ((5, 6), (0, 8), (1, 2)):  # free, pivot and free, pivots
                perm = list(range(9))
                perm[a], perm[b] = b, a
                permuted = with_rows(C2, [[row[c] for c in perm] for row in C2.G.rows])
                assert permuted != C2
                self.assert_scan(permuted, C1)

    def test_other_dimension_length_or_field_is_refused(self, f13, f27):
        rng = random.Random(3)
        C1, C2 = grs_pair(rng, f13, 10, 4)
        for twin in (grs_pair(rng, f13, 10, 5)[0], grs_pair(rng, f13, 9, 4)[0],
                     grs_pair(rng, f27, 10, 4)[0]):
            self.assert_scan(C2, twin)


class TestTwinTrust:
    """A twin is proved only in the call that scans the code it scales."""

    def test_equal_copy_of_a_proof_is_refused(self, f13):
        # an MDS code and its column scaling: C1 offered with C2 is proved in
        # C2's call; a report is no twin, neither is_mds's own proof of C1
        # nor an equal copy of it, as the twin check reads a code
        rng = random.Random(5)
        C1, C2 = grs_pair(rng, f13, 8, 3)
        proof = is_mds(C1)
        copy = dataclasses.replace(proof)
        assert copy == proof and copy is not proof
        for claim in (proof, copy):
            with pytest.raises(AttributeError):
                is_mds(C2, twin=claim)
        assert is_mds(C2, twin=C1).twin_mds

    def test_proof_of_another_code_is_checked(self):
        # C, whose columns 2 and 3 are dependent, offered as the twin of an
        # MDS code D that it is no scaling of: D is proved alone, and C's
        # own scan finds the dependent columns
        f5 = field_new(5, 1)
        C = from_generator(FMatrix(f5, [[1, 0, 1, 2], [0, 1, 2, 4]], 4))
        D = from_generator(FMatrix(f5, [[1, 0, 1, 1], [0, 1, 1, 2]], 4))
        report = is_mds(D, twin=C)
        assert report.is_mds and not report.twin_mds and not lincode._scales_twin(C, D)
        scan = is_mds(C)
        assert not scan.is_mds and scan.witness == (2, 3)

    def test_no_twin_is_proved_with_a_code_that_is_not_mds(self, f13):
        # the [4,2]_5 code with columns 2 and 3 dependent scales to itself
        # and to C diag(d), yet is_mds gives the scan's verdict; so do
        # random codes that are not MDS, with a scaling as twin
        f5 = field_new(5, 1)
        C = from_generator(FMatrix(f5, [[1, 0, 1, 2], [0, 1, 2, 4]], 4))
        scaled = with_rows(C, [[f5.mul(x, d) for x, d in zip(row, (2, 3, 4, 1))]
                               for row in C.G.rows])
        scan = is_mds(C)
        for twin in (C, scaled):
            assert lincode._scales_twin(twin, C)
            report = is_mds(C, twin=twin)
            assert report == scan and not report.twin_mds and report.witness == (2, 3)
        rng, seen = random.Random(11), 0
        while seen < 20:
            n = rng.randint(4, 8)
            C = random_code(rng, f13, n, rng.randint(2, n - 2))
            scan = is_mds(C)
            if scan.is_mds:
                continue
            d = [rng.randrange(1, 13) for _ in range(n)]
            twin = with_rows(C, [[f13.mul(x, y) for x, y in zip(row, d)] for row in C.G.rows])
            report = is_mds(C, twin=twin)
            assert report == scan and not report.twin_mds
            seen += 1


def moore_pair(p, m, n, k1, k2, t):
    """(G1, H2) of gabidulin_family's pair, built as it builds them."""
    field = field_new(p, m)
    g = [p**i for i in range(n)]
    return moore_matrix(field, g, k1), moore_matrix(field, g, k2, t)


def certify(monkeypatch, G1, H2, t, dims=None):
    """families._certify's Moore proof of C1 = rowspace(G1), C2 = ker(H2)
    with H2 at offset t: (its certificate, or the FormulaMismatch it raised;
    the arguments of every is_mds call; (row 0, rows) of every moore_matrix
    rebuild).  The dimensions are the codes' own unless dims says otherwise,
    and no closed form is offered."""
    calls, rebuilds = [], []
    build = families.moore_matrix
    monkeypatch.setattr(families, "is_mds", lambda *args: calls.append(args))
    monkeypatch.setattr(families, "moore_matrix", lambda field, g, k, t=0:
                        rebuilds.append((tuple(g), k)) or build(field, g, k, t))
    k1, k2 = dims or (G1.rank(), H2.ncols - H2.rank())
    try:
        out = families._certify("gabidulin", {}, G1, H2, k1, k2, None, moore_offset=t)
    except errors.FormulaMismatch as exc:
        out = exc
    monkeypatch.undo()
    return out, calls, rebuilds


def assert_refused(out, calls, label):
    """The Moore check refused the matrix named label, and nothing was scanned."""
    assert isinstance(out, errors.FormulaMismatch), out
    assert f"gabidulin {label} is no Moore matrix" in str(out) and calls == []


# (p, m, n) of the k1 = k2 = n/2 shapes of the large-field benchmark
# workload, and Table 2's GF(13^6) row
FROBENIUS_DUAL_SHAPES = [(17, 8, 8), (3, 10, 8), (2, 16, 6), (5, 9, 6), (13, 6, 6)]


class TestFrobeniusDualTwin:
    """A k1 = k2 Gabidulin pair has H2 = sigma^t(G1) entrywise.  _certify
    proves it as it proves every Moore pair, by one rebuild on G1's row 0
    with no is_mds call, and refuses an H2 that is not its rows t.."""

    @pytest.mark.parametrize("p,m,n", FROBENIUS_DUAL_SHAPES)
    def test_accepted_on_every_k1_equal_k2_shape(self, monkeypatch, p, m, n):
        k = n // 2
        for t in range(1, min(k - 1, m - k) + 1):
            G1, H2 = moore_pair(p, m, n, k, k, t)
            assert H2 == G1.frobenius_entrywise(t)
            cert, calls, rebuilds = certify(monkeypatch, G1, H2, t)
            assert calls == [] and rebuilds == [(G1.rows[0], t + k)]
            assert cert.pair.C2 == from_parity_check(H2)
            assert is_mds(cert.pair.C1).is_mds and is_mds(cert.pair.C2).is_mds

    def test_other_dimensions_are_refused(self, monkeypatch):
        # k1 = 4 > k2 = 3 on the GF(2^16) n = 7 shape, so C1 and C2 both
        # have dimension 4: a claim of any other is refused before a rebuild,
        # and the codes' own dimensions are proved like any k1 = k2 pair
        for t in (2, 3):
            G1, H2 = moore_pair(2, 16, 7, 4, 3, t)
            for dims, label in (((3, 4), "dim C1 = 4, expected 3"),
                                ((4, 3), "dim C2 = 4, expected 3")):
                out, calls, rebuilds = certify(monkeypatch, G1, H2, t, dims)
                assert isinstance(out, errors.FormulaMismatch) and label in str(out)
                assert calls == rebuilds == []
            cert, calls, _ = certify(monkeypatch, G1, H2, t, (4, 4))
            assert calls == [] and cert.pair.C2 == from_parity_check(H2)

    @pytest.mark.parametrize("p,m,n", [(17, 8, 8), (2, 16, 6), (13, 6, 6)])
    def test_wrong_twist_is_refused(self, monkeypatch, p, m, n):
        # one row of H2 at a wrong twist breaks the Frobenius chain; the
        # whole of H2 at any twist is accepted at that offset and refused at
        # offset 1 (the rebuild wraps past m, as x^(p^m) = x)
        k = n // 2
        field = field_new(p, m)
        G1, H2 = moore_pair(p, m, n, k, k, 1)
        for row in range(k):
            for wrong in (1, 2, m - 1):
                rows = list(H2.rows)
                rows[row] = tuple(field.frobenius(x, wrong) for x in rows[row])
                changed = FMatrix(field, rows, n)
                assert_refused(*certify(monkeypatch, G1, changed, 1)[:2], "H2")
        for t in (0, 2, m - 1, 1 + m):
            other = moore_pair(p, m, n, k, k, t)[1]
            cert, calls, _ = certify(monkeypatch, G1, other, t)
            assert calls == [] and cert.pair.C2 == from_parity_check(other)
            if t != 1 + m:
                assert_refused(*certify(monkeypatch, G1, other, 1)[:2], "H2")
        assert moore_pair(p, m, n, k, k, 1 + m)[1] == H2

    @pytest.mark.parametrize("p,m,n", [(17, 8, 8), (2, 16, 6), (13, 6, 6)])
    def test_one_changed_entry_of_h2_is_refused(self, monkeypatch, p, m, n):
        k, t = n // 2, 1
        field = field_new(p, m)
        G1, H2 = moore_pair(p, m, n, k, k, t)
        rng = random.Random(p + m)
        for i, c in ((0, 0), (k - 1, n - 1), (rng.randrange(k), rng.randrange(n))):
            rows = [list(row) for row in H2.rows]
            rows[i][c] = field.add(rows[i][c], rng.randrange(1, field.q))
            assert_refused(*certify(monkeypatch, G1, FMatrix(field, rows, n), t)[:2], "H2")

    def test_partial_relations_are_refused(self, monkeypatch):
        # C2^perp holds C1 but is larger, or holds only C1's first row; C2^perp
        # holds the weight-2 word (0, 0, 0, 0, 1, 1), so C2 is not MDS
        # although C1, a Gabidulin code, is
        G1 = moore_pair(2, 16, 6, 3, 3, 1)[0]
        field = G1.field
        word = [0, 0, 0, 0, 1, 1]
        for H in (list(G1.rows) + [word], [G1.rows[0], word, [0, 0, 0, 1, 0, 2]]):
            H2 = FMatrix(field, H, 6)
            assert not is_mds(from_parity_check(H2)).is_mds
            assert_refused(*certify(monkeypatch, G1, H2, 1)[:2], "H2")


def first_dependent_subset(M, w):
    """Reference scan: the first w-subset of M's columns in lexicographic
    order whose submatrix has rank < w, one FMatrix.rank() per subset."""
    for cols in itertools.combinations(range(M.ncols), w):
        if FMatrix(M.field, [[r[c] for c in cols] for r in M.rows], w).rank() < w:
            return cols
    return None


def shifted_code(field, exponents, parity=False):
    """The code spanned (or, with parity, checked) by the rows gamma^(i c),
    i in exponents, c < q - 1: invariant under the cyclic column shift."""
    n, g = field.q - 1, field.primitive_element().enc
    M = FMatrix(field, [[field.pow(g, i * c) for c in range(n)] for i in exponents], n)
    return from_parity_check(M) if parity else from_generator(M)


def cyclic_shift(n):
    return [(c + 1) % n for c in range(n)], [1] * n


def affine_maps(field, k):
    """x -> gamma x and x -> x + 1 on the points of an extended GRS code of
    dimension k, the marker column scaled by gamma^(k-1)."""
    q, g = field.q, field.primitive_element().enc
    return (([field.mul(g, a) for a in range(q)] + [q], [1] * q + [field.pow(g, k - 1)]),
            ([field.add(a, 1) for a in range(q)] + [q], [1] * (q + 1)))


class TestSymmetries:
    """is_mds with monomial maps: each is checked before it shrinks the scan."""

    @staticmethod
    def full(C):
        return dataclasses.replace(is_mds(C), fixed=0)

    @pytest.mark.parametrize("p,e", [(13, 1), (2, 4), (29, 1)])
    @pytest.mark.parametrize("exponents,parity", [((0, 1, 2, 3), False), ((2, 3, 4), True),
                                                  ((1, 2, 3, 4, 5, 6, 7, 8), False)])
    def test_cyclic_shift_fixes_column_0(self, p, e, exponents, parity):
        field = field_new(p, e)
        C = shifted_code(field, exponents, parity)
        report = is_mds(C, [cyclic_shift(C.n)])
        assert report.is_mds and report.fixed == 1
        assert dataclasses.replace(report, fixed=0) == is_mds(C)

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    @pytest.mark.parametrize("p,e,r", [(13, 1, 2), (2, 4, 3), (29, 1, 2)])
    def test_shift_invariant_non_mds_witness_holds_column_0(self, p, e, r, backend,
                                                              monkeypatch):
        # rows 1 and gamma^(r c), r | q - 1: columns c and c + (q-1)/r agree
        field = field_new(p, e)
        if backend == "python":
            monkeypatch.setattr(type(field), "vec_ops", lambda self: None)
        for parity in (False, True):
            C = shifted_code(field, (0, r), parity)
            report = is_mds(C, [cyclic_shift(C.n)])
            assert not report.is_mds and report.fixed == 1 and report.witness[0] == 0
            M = C.G if report.checked_matrix == "generator" else C.H
            assert first_dependent_subset(M, report.subset_size) == report.witness
            assert not is_mds(C).is_mds

    @pytest.mark.parametrize("k", [3, 5, 11])
    def test_affine_group_fixes_columns_0_and_1(self, f13, k):
        # k = 11 scans H, where the marker's scale must be inverted to hold
        from eaqeckit.families import grs_extended_generator, grs_extended_spec
        C = from_generator(grs_extended_generator(grs_extended_spec(f13, k)))
        report = is_mds(C, affine_maps(f13, k))
        assert report.fixed == 2 and report == dataclasses.replace(is_mds(C), fixed=2)
        assert report.checked_matrix == ("parity" if k == 11 else "generator")
        scaling, translation = affine_maps(f13, k)
        # x -> gamma x fixes column 0, so its orbit is {0}: no reduction
        assert is_mds(C, [scaling]).fixed == 0
        # translations are transitive on the points, but none fixes column 0
        assert is_mds(C, [translation]).fixed == 1

    def test_planted_non_automorphism_is_refused(self, f13, f27, monkeypatch):
        # a refused map leaves the scan on every column of the matrix
        widths = []
        scan = FMatrix.first_dependent_columns
        monkeypatch.setattr(FMatrix, "first_dependent_columns",
                            lambda M, w: widths.append(M.ncols) or scan(M, w))
        # n = 15 != q - 1: the shift is no automorphism of a Table 1 code
        C = vandermonde_code(f27, 1, 3, 15)
        assert is_mds(C, [cyclic_shift(15)]) == is_mds(C) and widths == [15, 15]
        # a swap of columns 0 and 5 beside the true shift, on a code that is
        # not MDS: the verdict and witness are the full scan's
        widths.clear()
        C = shifted_code(f13, (0, 2))
        swap = [5, 1, 2, 3, 4, 0] + list(range(6, 12))
        report = is_mds(C, [cyclic_shift(12), (swap, [1] * 12)])
        assert report == self.full(C) and not report.is_mds and widths == [12, 12]
        # a wrong marker scale on the extended GRS code
        from eaqeckit.families import grs_extended_generator, grs_extended_spec
        C = from_generator(grs_extended_generator(grs_extended_spec(f13, 4)))
        scaling, translation = affine_maps(f13, 4)
        assert is_mds(C, [(scaling[0], [1] * 14), translation]).fixed == 0

    @pytest.mark.parametrize("bad", [
        ([0] * 12, [1] * 12),                      # not a permutation
        (list(range(11)), [1] * 11),               # wrong length
        (list(range(1, 12)) + [0], [0] + [1] * 11),  # a zero scale
        (list(range(1, 12)) + [0], [0] * 12),      # the zero map: its image is 0
        (list(range(1, 12)) + [0], [13] + [1] * 11),  # not an enc
        (cyclic_shift(12)[0], [field_new(13, 1).one] * 12),  # Element scales
        ([field_new(13, 1).element(c) for c in cyclic_shift(12)[0]], [1] * 12),
        (cyclic_shift(12)[0], 1),                  # a scale that is no sequence
        (cyclic_shift(12)[0],),                    # no pair
    ])
    def test_malformed_map_is_no_error(self, f13, bad):
        # the full scan's verdict and witness, on a code that is MDS and on
        # one that is not
        for exponents, parity in itertools.product(((0, 1, 2, 3), (0, 2)), (False, True)):
            C = shifted_code(f13, exponents, parity)
            report = is_mds(C, [bad])
            assert report == is_mds(C) and report.fixed == 0
            assert is_mds(C, [cyclic_shift(12), bad]) == report

    def test_prefix_as_long_as_the_subsets_takes_no_scan(self, f13, monkeypatch):
        # vandermonde_family(GF(13), 12, 3, 1, 10) has a C2 of dimension 1:
        # the shift fixes column 0 and w = 1, so the prefix is the subset
        calls = []
        scan = FMatrix.first_dependent_columns
        monkeypatch.setattr(FMatrix, "first_dependent_columns",
                            lambda M, w: calls.append(M.ncols) or scan(M, w))
        cert = families.vandermonde_family(f13, 12, 3, 1, 10)
        C = cert.pair.C2
        assert cert.verified and C.k == 1
        calls.clear()
        report = is_mds(C, [cyclic_shift(12)])
        assert report == lincode.MdsReport(True, "generator", 1, None, 1) and calls == []
        assert dataclasses.replace(report, fixed=0) == is_mds(C) and calls == [12]

    @pytest.mark.parametrize("p,e,backend", [
        (29, 1, "numpy"), (29, 1, "python"), (2, 4, "numpy"), (2, 4, "python"),
        (2053, 1, "python"), (3, 7, "python")])
    def test_reduced_scan_matches_reference(self, p, e, backend, monkeypatch):
        # is_mds given a prefix of f columns, as _fixed_prefix gives one,
        # must name the first dependent w-subset of the scanned matrix that
        # holds 0..f-1, on either side.  Dependencies are planted on the
        # prefix (a zero column 0, column 1 a multiple of column 0, a later
        # column a multiple of column 0) and off it
        field = field_new(p, e)
        if backend == "numpy":
            assert field.vec_ops() is not None
            monkeypatch.setattr(fmatrix, "_SCAN_CHUNK", 3)
        else:
            monkeypatch.setattr(type(field), "vec_ops", lambda self: None)
        f = 0
        monkeypatch.setattr(lincode, "_fixed_prefix", lambda M, w, maps, dual: min(f, w))
        rng, q = random.Random(p * 100 + e), field.q
        outcomes = set()
        for trial in range(60):
            w, parity = rng.randint(1, 4), trial % 2 == 1
            n = rng.randint(max(2 * w + parity, 4), 2 * w + 3)
            cols = [[rng.randrange(q) for _ in range(w)] for _ in range(n)]
            plant = rng.choice(("none", "zero 0", "1 of 0", "later of 0", "off", "off"))
            a, b = (0, 1) if plant == "1 of 0" else (0, rng.randrange(2, n))
            if plant == "off":
                a, b = sorted(rng.sample(range(2, n), 2))
            if plant == "zero 0":
                cols[0] = [0] * w
            elif plant != "none":
                cols[b] = [field.mul(rng.randrange(1, q), x) for x in cols[a]]
            M = FMatrix(field, list(zip(*cols)), n)
            C = from_parity_check(M) if parity else from_generator(M)
            if not 1 <= C.k < n:
                continue
            for f in range(3):
                report = is_mds(C, [None])  # the stubbed _fixed_prefix reads no map
                S = C.H if report.checked_matrix == "parity" else C.G
                w = report.subset_size
                fixed = min(f, w)
                expect = next((sub for sub in itertools.combinations(range(n), w)
                               if sub[:fixed] == tuple(range(fixed))
                               and rref_reference(field, [[r[c] for c in sub]
                                                          for r in S.rows])[1] < w), None)
                assert report.witness == expect and report.fixed == fixed
                assert report.is_mds == (expect is None)
                held = rref_reference(field, [r[:fixed] for r in S.rows])[1] == fixed
                outcomes.add((report.checked_matrix, expect is None, held))
        assert outcomes >= {(side, mds, True) for side in ("generator", "parity")
                            for mds in (True, False)}
        assert ("generator", False, False) in outcomes and ("parity", False, False) in outcomes

    def test_scale_outside_the_field_on_the_parity_side(self):
        # the scales are checked before the parity side inverts them
        field = field_new(2, 4)
        C = shifted_code(field, (1, 2), parity=True)
        bad = (cyclic_shift(15)[0], [16] + [1] * 14)
        assert is_mds(C, [bad]) == is_mds(C) and is_mds(C, [cyclic_shift(15)]).fixed == 1

    def test_map_onto_equal_columns_is_no_permutation(self, f13):
        # columns c and c + 6 of rows 1 and gamma^(2c) are equal, so sending
        # column 11 to column 6 instead of 0 gives the shift's image, and the
        # orbit of column 0 would be every column; it is still refused
        C = shifted_code(f13, (0, 2))
        collapsing = (list(range(1, 12)) + [6], [1] * 12)
        assert is_mds(C, [cyclic_shift(12)]).fixed == 1
        assert is_mds(C, [collapsing]) == is_mds(C) and is_mds(C, [collapsing]).fixed == 0


def differential_cases():
    """(label, code, maps) for codes fixed by the cyclic shift or by AGL(1, q)
    over GF(13), GF(16), GF(25), GF(27) and GF(29), MDS and not, on both
    sides of the column criterion, with at most 5-subsets to scan."""
    for p, e, lucas in ((13, 1, ((0, 1, 2),)), (2, 4, ((0, 1, 2, 4), (0, 1, 8), (0, 1, 4, 5))),
                        (5, 2, ((0, 1, 5), (0, 1, 5, 6))), (3, 3, ((0, 1, 3), (0, 1, 2, 9))),
                        (29, 1, ((0, 1, 2, 3),))):
        field = field_new(p, e)
        q, g = field.q, field.primitive_element().enc
        n = q - 1
        # rows gamma^(i c) for i in a set of exponents: consecutive ones give
        # GRS codes, the others (a divisor r of n among them) mostly do not
        r = min(d for d in range(3, n) if n % d == 0)
        sets = [tuple(range(a, a + k)) for k in (1, 2, 3, 4) for a in (0, 1, 3)]
        sets += [(0, 2), (0, 1, 3), (1, 2, 4), (0, r), (0, 1, r), (0, n // 2), (1, 3, 5)]
        sets += [tuple(range(n - k)) for k in (1, 2, 3)] + [(0,) + tuple(range(2, n - 1))]
        for exps in dict.fromkeys(sets):
            M = FMatrix._of(field, [[field.pow(g, i * c) for c in range(n)] for i in exps], n)
            for parity in (False, True):
                C = from_parity_check(M) if parity else from_generator(M)
                if 1 <= C.k < C.n and min(C.k, C.n - C.k) <= 5:
                    yield f"shift GF({q}) {exps} {'H' if parity else 'G'}", C, [cyclic_shift(n)]
        # AGL(1, q) on the points: the extended GRS codes with their marker,
        # and evaluation codes on the q points whose exponent set is closed
        # under the digit order of Lucas' theorem (not MDS off prime fields)
        for k in (1, 2, 3, 4, q - 3, q - 1, q):
            C = from_generator(families.grs_extended_generator(
                families.grs_extended_spec(field, k)))
            maps = affine_maps(field, k)
            yield f"grs-ext GF({q}) k={k}", C, maps
            yield f"grs-ext GF({q}) k={k} translation", C, maps[1:]
        for exps in lucas:
            M = FMatrix._of(field, [[field.pow(a, i) for a in range(q)] for i in exps], q)
            maps = [(perm[:q], [1] * q) for perm, _ in affine_maps(field, 1)]
            for parity in (False, True):
                C = from_parity_check(M) if parity else from_generator(M)
                if min(C.k, C.n - C.k) <= 5:
                    yield f"affine GF({q}) {exps} {'H' if parity else 'G'}", C, maps


def test_reports_match_the_scan_with_a_prefix_in_fmatrix():
    # is_mds's reports on 310 codes, captured while the fixed prefix was an
    # argument of FMatrix.first_dependent_columns, so each backend of the
    # scan searched the subtree of the prefix itself: (is_mds,
    # checked_matrix, subset_size, witness, fixed) must not change
    golden = json.loads((Path(__file__).parent / "golden" / "is_mds_reports.json").read_text())
    seen = {}
    for label, C, maps in differential_cases():
        r = is_mds(C, maps)
        seen[label] = [r.is_mds, r.checked_matrix, r.subset_size,
                       r.witness and list(r.witness), r.fixed]
    assert seen == golden and len(seen) == 310
    assert sum(not v[0] for v in seen.values()) == 76  # not MDS
    assert sum(v[4] > 0 for v in seen.values()) == 275  # with a fixed prefix


class TestSubsetScan:
    """FMatrix.first_dependent_columns against the per-subset reference, witness included."""

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
            monkeypatch.setattr(fmatrix, "_SCAN_CHUNK", 3)  # many chunks per level
        else:
            monkeypatch.setattr(type(field), "vec_ops", lambda self: None)
        rng = random.Random(p * 100 + e)
        dependent = 0
        for M, w in self.random_matrices(rng, field, 150):
            expect = first_dependent_subset(M, w)
            assert M.first_dependent_columns(w) == expect
            dependent += expect is not None
        assert 20 < dependent < 140

    @staticmethod
    def planted_combinations(rng, field, count):
        """Matrices without a zero column in which column c2 = s c1 + c0 for
        three random columns and a random s != 0, 1: a dependent triple that
        only exact elimination finds, since no zero column decides it."""
        for _ in range(count):
            nrows, n = rng.randint(3, 4), rng.randint(4, 8)
            cols = [[rng.randrange(1, field.q) for _ in range(nrows)] for _ in range(n)]
            c0, c1, c2 = rng.sample(range(n), 3)
            s = rng.randrange(2, field.q)
            cols[c2] = [field.add(field.mul(s, x), y) for x, y in zip(cols[c1], cols[c0])]
            yield FMatrix(field, list(zip(*cols)), n), 3

    def test_matches_reference_without_tables(self):
        field = field_new(2, 11)
        assert field.vec_ops() is None
        rng = random.Random(211)
        for M, w in self.random_matrices(rng, field, 60):
            assert M.first_dependent_columns(w) == first_dependent_subset(M, w)
        nonzero_witnesses = 0
        for M, w in self.planted_combinations(rng, field, 30):
            expect = first_dependent_subset(M, w)
            assert M.first_dependent_columns(w) == expect
            nonzero_witnesses += expect is not None and all(
                any(row[c] for row in M.rows) for c in expect)
        assert nonzero_witnesses >= 25

    @pytest.mark.parametrize("p,e", KRONECKER_ROW_FIELDS)
    def test_kronecker_rows_match_reference(self, p, e):
        # the reference ranks each subset by per-entry elimination on the
        # scalar operations, so it shares no row operation with the scan;
        # columns of q - 1 (every digit p - 1) are planted besides zero and
        # scaled duplicates
        with time_limit(10, f"field_new({p}, {e})"):
            field = field_new(p, e)
        rng = random.Random(p * 100 + e)

        def first_dependent(M, w):
            return next((cols for cols in itertools.combinations(range(M.ncols), w)
                         if rref_reference(field, [[r[c] for c in cols] for r in M.rows])[1] < w),
                        None)

        q, dependent = field.q, 0
        for _ in range(40 if e < 16 else 12):
            w = rng.randint(1, 4)
            nrows, n = w + rng.choice((0, 0, 1, 2)), rng.randint(w, 7)
            cols = [[rng.choice((q - 1, rng.randrange(q))) for _ in range(nrows)]
                    for _ in range(n)]
            if rng.random() < 0.3:
                cols[rng.randrange(n)] = [0] * nrows
            if rng.random() < 0.3:
                a, b = rng.randrange(n), rng.randrange(n)
                cols[b] = [field.mul(rng.randrange(1, q), x) for x in cols[a]]
            M = FMatrix(field, list(zip(*cols)), n)
            expect = first_dependent(M, w)
            assert M.first_dependent_columns(w) == expect
            dependent += expect is not None
        assert dependent > 2

    @staticmethod
    def rref_generator(rng, field, k, n):
        """A random k x n matrix in RREF with k random pivot columns, so a
        unit column at each pivot, the others random with zeros planted."""
        q = field.q
        pivots = sorted(rng.sample(range(n), k))
        rows = [[0] * n for _ in range(k)]
        for i, c in enumerate(pivots):
            rows[i][c] = 1
            for j in range(c + 1, n):
                if j not in pivots:
                    rows[i][j] = rng.choice((0, 1, q - 1, rng.randrange(1, q)))
        return rows, pivots

    @pytest.mark.parametrize("p,e", [(2, 16), (17, 8), (1031, 1)])
    def test_rref_generators_match_reference(self, p, e):
        # the row scan keeps a later column as it is, unscaled, after a unit
        # column's pivot step.  Dependent subsets are planted among the unit
        # columns (a column in the span of one or two pivot columns) and
        # after them (a scaled copy or a sum of two later columns); the
        # reference ranks each subset by per-entry elimination
        field = field_new(p, e)
        assert field.vec_ops() is None
        rng, q = random.Random(p * 100 + e), field.q

        def first_dependent(M, w):
            return next((cols for cols in itertools.combinations(range(M.ncols), w)
                         if rref_reference(field, [[r[c] for c in cols] for r in M.rows])[1] < w),
                        None)

        found, unit_witnesses = set(), 0
        for _ in range(40):
            k = rng.randint(2, 4)
            n = rng.randint(k + 2, 8)
            rows, pivots = self.rref_generator(rng, field, k, n)
            free = [c for c in range(n) if c not in pivots]
            plant = rng.choice(("units", "later", "none"))
            if plant == "units":  # column c in the span of pivot rows before it
                c = rng.choice(free)
                span = [i for i, pc in enumerate(pivots) if pc < c]
                keep = set(rng.sample(span, min(len(span), rng.randint(1, 2))))
                for i in range(k):
                    if i not in keep:
                        rows[i][c] = 0
            elif plant == "later" and len(free) >= 2:
                a, b = sorted(rng.sample(free, 2))
                s = rng.randrange(1, q)
                for row in rows:
                    row[b] = field.mul(s, row[a])
                    if len(free) >= 3 and b != free[-1]:
                        row[free[-1]] = field.add(row[a], row[b])
            M = FMatrix(field, rows, n)
            assert M.rref()[0] == M
            for w in range(1, k + 1):
                expect = first_dependent(M, w)
                assert M.first_dependent_columns(w) == expect, (rows, w)
                if expect is not None:
                    found.add(plant)
                    unit_witnesses += w == k and any(c in pivots for c in expect)
        assert found == {"units", "later", "none"} and unit_witnesses > 5

    def test_late_witness_across_chunks(self):
        # Any 6 columns of a 6-row Vandermonde matrix over GF(1021) are
        # independent, so with column 20 the sum of columns 17..19 the only
        # dependent 4-subset is the last one.  The depth-3 frontier of C(20, 3)
        # prefixes spans two chunks, and the witness sits in the second.
        field = field_new(1021, 1)
        assert math.comb(20, 3) > fmatrix._SCAN_CHUNK
        cols = [[pow(a, i, 1021) for i in range(6)] for a in range(1, 21)]
        cols.append([sum(c[i] for c in cols[17:20]) % 1021 for i in range(6)])
        M = FMatrix(field, list(zip(*cols)), 21)
        assert first_dependent_subset(M, 4) == (17, 18, 19, 20)
        assert M.first_dependent_columns(4) == (17, 18, 19, 20)

    @pytest.mark.parametrize("p,e", [(29, 1), (2, 4), (5, 2), (1021, 1)])
    def test_pair_level_matches_reference(self, p, e, monkeypatch):
        # Square scans decide their last two columns by projective keys; zero
        # and scaled duplicate columns are planted so that level finds most
        # witnesses.  Tall scans, which keep pivoting, are mixed in.
        field = field_new(p, e)
        monkeypatch.setattr(fmatrix, "_SCAN_CHUNK", 3)  # many chunks per level
        rng = random.Random(p * 100 + e)
        dependent = square = 0
        for _ in range(80):
            w = rng.randint(2, 5)
            nrows = w + rng.choice((0, 0, 0, 1))
            n = rng.randint(w, 9)
            cols = [[rng.randrange(field.q) for _ in range(nrows)] for _ in range(n)]
            for _ in range(rng.choice((0, 0, 1, 2))):
                cols[rng.randrange(n)] = [0] * nrows
            for _ in range(rng.choice((0, 1, 1, 2))):
                a, b = rng.randrange(n), rng.randrange(n)
                cols[b] = [field.mul(rng.randrange(1, field.q), x) for x in cols[a]]
            M = FMatrix(field, list(zip(*cols)), n)
            expect = first_dependent_subset(M, w)
            assert M.first_dependent_columns(w) == expect
            dependent += expect is not None
            square += nrows == w
        assert 20 < dependent < 75 and square > 40

    @pytest.mark.parametrize("p,e", [(29, 1), (2, 4), (5, 2), (1021, 1)])
    def test_zero_column_pairs_with_earlier_column(self, p, e):
        # Column 4 is zero and every other 3 columns are independent, so the
        # first witness is (0, 1, 4), not the (0, 4, 5) that starts at the zero.
        field = field_new(p, e)
        g = field.primitive_element().enc
        cols = [[field.pow(field.pow(g, j), i) for i in range(3)] for j in range(6)]
        cols[4] = [0, 0, 0]
        M = FMatrix(field, list(zip(*cols)), 6)
        assert first_dependent_subset(M, 3) == (0, 1, 4)
        assert M.first_dependent_columns(3) == (0, 1, 4)
        # w = 2 decides at the root; the zero is the last column
        M = FMatrix(field, [[1, 1, 0], [1, g, 0]], 3)
        assert M.first_dependent_columns(2) == first_dependent_subset(M, 2) == (0, 2)

    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_matrix_without_rows(self, backend, monkeypatch):
        # every column of a 0 x n matrix is zero, so the first w are dependent
        field = field_new(13, 1)
        if backend == "python":
            monkeypatch.setattr(type(field), "vec_ops", lambda self: None)
        M = FMatrix(field, [], 4)
        assert M.first_dependent_columns(2) == (0, 1) == first_dependent_subset(M, 2)
        assert M.first_dependent_columns(4) == (0, 1, 2, 3)

    @pytest.mark.parametrize("p,e", [(13, 1), (3, 7)])
    def test_subset_size_outside_the_columns(self, p, e):
        # GF(13) scans on the tables and GF(3^7) on packed rows; at w = 0 and
        # w = ncols + 1 neither driver runs, as there are no w-subsets to scan
        field = field_new(p, e)
        assert (field.vec_ops() is None) == (e > 1)
        M = FMatrix(field, [[1, 0, 1], [0, 1, 1]], 3)
        for w in (0, 4):
            with pytest.raises(errors.ShapeMismatch):
                M.first_dependent_columns(w)
        assert M.first_dependent_columns(3) == (0, 1, 2)

    def test_square_scan_builds_no_last_level(self, monkeypatch):
        # A node at depth w-1 of a square scan has one row left; the key test
        # at depth w-2 replaces that level.  A tall scan still builds it.
        field = field_new(29, 1)
        rows = []
        monkeypatch.setattr(fmatrix, "pivot_step",
                            lambda *a: rows.append((out := pivot_step(*a)).shape[1]) or out)
        H = FMatrix(field, [[pow(a, i, 29) for a in range(1, 29)] for i in range(5)], 28)
        report = is_mds(from_parity_check(H))
        assert report.is_mds and report.checked_matrix == "parity" and report.subset_size == 5
        assert rows and min(rows) == 2
        rows.clear()
        tall = FMatrix(field, [[pow(a, i, 29) for a in range(1, 13)] for i in range(6)], 12)
        assert tall.first_dependent_columns(5) is None
        assert min(rows) == 6 - 4

    @pytest.mark.parametrize("p,e", [(2, 11), (17, 8), (1031, 1)])
    def test_rows_scan_steps_no_last_level(self, monkeypatch, p, e):
        # Without tables a node at depth w-1 only tests its column for an
        # entry, and every comb runs inside the _row_step of a shallower node.
        # On an MDS matrix with R rows the node at depth d holds R - d rows,
        # so no step sees the R - w + 1 of depth w-1; a tall scan goes one
        # row further.
        field, rows, inner, total = field_new(p, e), [], [], []
        ops, row_step = field.row_ops(), fmatrix._row_step

        def step(get, comb, work, c):
            rows.append(len(work))
            return row_step(get, lambda *a: inner.append(c) or comb(*a), work, c)

        monkeypatch.setattr(fmatrix, "_row_step", step)
        monkeypatch.setattr(field, "_rows", ops._replace(
            comb=lambda *a: total.append(a) or ops.comb(*a)))
        g = field.primitive_element().enc
        points = [field.pow(g, j) for j in range(9)]
        for R, w in ((5, 5), (6, 5)):
            rows.clear()
            M = FMatrix(field, [[field.pow(a, i) for a in points] for i in range(R)], 9)
            assert M.first_dependent_columns(w) is None
            assert rows and min(rows) == R - w + 2, (R, w)
        assert len(inner) == len(total) > 0

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
