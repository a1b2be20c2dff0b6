import random

import pytest
from hypothesis import given, settings, strategies as st

from eaqeckit import FMatrix, errors, field_new
from eaqeckit.fmatrix import batched_full_rank, pivot_step
from eaqeckit.rankmetric import moore_matrix
from conftest import (BACKEND_FIELDS, KRONECKER_ROW_FIELDS, ROW_LAYOUT_FIELDS, draw_matrix,
                      identity, is_zero, matmul_reference, random_matrix, rref_reference,
                      time_limit)


def vandermonde(field, nodes, ncols):
    return FMatrix(field, [[a**c for c in range(ncols)] for a in nodes], ncols)


class TestRref:
    def test_identity_fixed(self):
        f5 = field_new(5, 1)
        I = identity(f5, 3)
        R, rank, pivots = I.rref()
        assert R == I and rank == 3 and pivots == [0, 1, 2]

    def test_zero_matrix(self):
        f3 = field_new(3, 1)
        Z = FMatrix(f3, [[0] * 4] * 2, 4)
        R, rank, pivots = Z.rref()
        assert R == Z and rank == 0 and pivots == []

    def test_vandermonde_f13_rank4(self, f13):
        g = f13.primitive_element()
        V = vandermonde(f13, [g**i for i in range(4)], 12)
        assert V.rank() == 4

    def test_idempotent(self, f9):
        rng = random.Random(11)
        for _ in range(20):
            M = random_matrix(rng, f9, 4, 6)
            R = M.rref()[0]
            assert R.rref()[0] == R

    def test_pivot_columns_strictly_increase(self, f4):
        rng = random.Random(5)
        for _ in range(20):
            M = random_matrix(rng, f4, 3, 5)
            _, rank, pivots = M.rref()
            assert len(pivots) == rank
            assert all(a < b for a, b in zip(pivots, pivots[1:]))


def assert_rref_properties(M):
    R, rank, pivots = M.rref()
    nrows = M.nrows
    # reduced: zero rows last, a leading 1 at each of the strictly increasing
    # pivot columns, and every other entry of a pivot column zero
    assert R.shape == M.shape and len(pivots) == rank
    assert not any(map(any, R.rows[rank:]))
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    for i, c in enumerate(pivots):
        assert not any(R.rows[i][:c])
        assert [row[c] for row in R.rows] == [int(r == i) for r in range(nrows)]
    # row space kept: each row of M is the combination of R's rows given by its
    # pivot entries, and stacking R on M adds nothing
    basis = M.row_basis()
    for row in M.rows:
        coords = FMatrix(M.field, [[row[c] for c in pivots]], rank)
        assert (coords @ basis).rows == (row,)
    assert M.vstack(R).rank() == rank
    assert M.transpose().rank() == rank


@pytest.mark.parametrize("p,e", BACKEND_FIELDS)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_rref_properties(p, e, data):
    field = field_new(p, e)
    nrows, ncols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
    assert_rref_properties(draw_matrix(data, field, nrows, ncols))


# Matrices of at least 8 x 16 = 128 entries reduce on the numpy op tables.
@pytest.mark.parametrize("p,e", [(p, e) for p, e in BACKEND_FIELDS if p**e <= 1024])
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_rref_properties_table_route(p, e, data):
    field = field_new(p, e)
    nrows, ncols = data.draw(st.integers(8, 16)), data.draw(st.integers(16, 24))
    assert_rref_properties(draw_matrix(data, field, nrows, ncols))


def planted_matrices(rng, field, m, n):
    """A uniform matrix and three with planted structure, all m x n."""
    q = field.q
    uniform = [[rng.randrange(q) for _ in range(n)] for _ in range(m)]
    # a zero column, and column 0 nonzero only in the last row
    planted = [row[:] for row in uniform]
    zero_col = rng.randrange(1, n)
    for i, row in enumerate(planted):
        row[zero_col] = 0
        row[0] = 0 if i < m - 1 else rng.randrange(1, q)
    # rank deficient, with a repeated and a scaled row
    r = max(1, min(m, n) // 2)
    low = (random_matrix(rng, field, m, r) @ random_matrix(rng, field, r, n)).rows
    low = [list(row) for row in low]
    if m > 2:
        low[-1] = low[0][:]
        low[-2] = [field.mul(rng.randrange(1, q), x) for x in low[1]]
    # a zero block on the left, so the first pivot is late
    late = [[0] * (n // 2) + row[n // 2:] for row in uniform]
    return [uniform, planted, low, late]


class TestRrefTableRoute:
    SHAPES = [(8, 15), (8, 16), (12, 12), (23, 28), (40, 40), (30, 6), (6, 40)]

    @pytest.mark.parametrize("p,e", [(2, 1), (13, 1), (29, 1), (1021, 1), (2, 2),
                                     (2, 4), (3, 3), (5, 2), (2, 10)])
    def test_matches_reference_elimination(self, p, e):
        field = field_new(p, e)
        rng = random.Random(p * 100 + e)
        for m, n in self.SHAPES:
            for k, rows in enumerate(planted_matrices(rng, field, m, n)):
                M = FMatrix(field, rows, n)
                R, rank, pivots = M.rref()
                assert (R.rows, rank, pivots) == rref_reference(field, rows), (m, n, k)
                # verify json-dumps certificates read from these rows
                assert all(type(x) is int for row in R.rows for x in row)
                assert all(type(c) is int for c in pivots) and type(rank) is int
                assert M.rref() is M.rref()

    @staticmethod
    def spy(monkeypatch):
        """Record the shape of every rref and rank, and of every reduction on
        the tables."""
        from eaqeckit import fmatrix
        seen, tabled = [], []
        rref, rank, tables = FMatrix.rref, FMatrix.rank, fmatrix._rref_tables

        def spy_rref(self):
            seen.append(self.shape)
            return rref(self)

        def spy_rank(self):
            seen.append(self.shape)
            return rank(self)

        def spy_tables(ops, rows, ncols):
            tabled.append((len(rows), ncols))
            return tables(ops, rows, ncols)

        monkeypatch.setattr(FMatrix, "rref", spy_rref)
        monkeypatch.setattr(FMatrix, "rank", spy_rank)
        monkeypatch.setattr(fmatrix, "_rref_tables", spy_tables)
        return seen, tabled

    @pytest.mark.parametrize("p,e,m,n", [(29, 1, 23, 28), (3, 3, 15, 15)])
    def test_large_matrix_takes_tables(self, monkeypatch, p, e, m, n):
        field = field_new(p, e)
        M = random_matrix(random.Random(1), field, m, n)
        seen, tabled = self.spy(monkeypatch)
        M.rref()
        assert seen == tabled == [(m, n)]

    @pytest.mark.parametrize("p,e,m,n", [(13, 1, 3, 5), (2, 11, 23, 28), (1031, 1, 23, 28)])
    def test_small_matrix_or_large_field_keeps_loop(self, monkeypatch, p, e, m, n):
        field = field_new(p, e)
        M = random_matrix(random.Random(1), field, m, n)
        seen, tabled = self.spy(monkeypatch)
        M.rref()
        assert seen == [(m, n)] and tabled == []

    def test_moore_coefficient_rank_keeps_loop(self, monkeypatch):
        # GF(2^16), n = 7: the generators' coefficient rank is a 7 x 16 matrix
        # over GF(2), 112 entries, so it must not load numpy
        field = field_new(2, 16)
        seen, tabled = self.spy(monkeypatch)
        moore_matrix(field, [2**i for i in range(7)], 4)
        assert (7, 16) in seen and tabled == []


class TestRrefRowLayout:
    """rref on FieldSpec.row_ops, the Kronecker-packed rows above all, against
    the per-entry reference elimination on the field's scalar operations."""

    @staticmethod
    def worst_case(rng, field, m, n):
        """Three m x n matrices: mostly q - 1 (every digit p - 1) with some
        zeros; m - 1 rows e_(n-1) over a row of q - 1, so the first pivot is
        in the last row; and [I | q - 1], whose pivots are all 1."""
        q = field.q
        rows = [[rng.choice((q - 1, q - 1, 0, rng.randrange(q))) for _ in range(n)]
                for _ in range(m)]
        unit = [[int(i == j) for j in range(m)] + [q - 1] * (n - m) for i in range(m)]
        return [rows, [[0] * (n - 1) + [1]] * (m - 1) + [[q - 1] * n] if m > 1 else rows,
                unit if n >= m else rows]

    @pytest.mark.parametrize("p,e", KRONECKER_ROW_FIELDS)
    def test_matches_reference_elimination(self, p, e):
        with time_limit(10, f"field_new({p}, {e})"):
            field = field_new(p, e)
        rng = random.Random(p * 100 + e)
        shapes = [(3, 5), (5, 5), (6, 9), (7, 3)] if e < 16 else [(3, 5), (5, 4)]
        for m, n in shapes:
            mats = planted_matrices(rng, field, m, n) + self.worst_case(rng, field, m, n)
            for k, rows in enumerate(mats):
                M = FMatrix(field, rows, n)
                R, rank, pivots = M.rref()
                assert (R.rows, rank, pivots) == rref_reference(field, rows), (m, n, k)
                assert all(type(x) is int for row in R.rows for x in row)

    @pytest.mark.parametrize("p,e", [(3, 7), (2, 16), (13, 1), (13, 2)])
    def test_unit_pivots_take_no_inverse(self, monkeypatch, p, e):
        # [I | A] (a kernel basis of a systematic matrix) and an RREF (the
        # top of ebits_stack's stacked matrix) have unit pivots; GF(13^2)
        # with 12 x 12 runs on the numpy tables
        from eaqeckit.gf import _VecOps
        field = field_new(p, e)
        calls = []
        ops = field.row_ops()
        monkeypatch.setattr(field, "_rows", ops._replace(inv=lambda a: calls.append(a) or ops.inv(a)))
        monkeypatch.setattr(_VecOps, "inv", lambda self, a: calls.append(a) or self.inv_t[a])
        rng = random.Random(p + e)
        m = 12 if (p, e) == (13, 2) else 3
        A = random_matrix(rng, field, m, m)
        M = identity(field, m).transpose().vstack(A.transpose()).transpose()
        assert M.rref()[0] == M and calls == []
        R = random_matrix(rng, field, m, m + 2).rref()[0]
        calls.clear()
        assert FMatrix(field, R.rows, m + 2).rref()[0] == R and calls == []

    @pytest.mark.parametrize("p,e", [(3, 7), (13, 1)])
    def test_no_rows_returns_at_once(self, p, e):
        M = FMatrix(field_new(p, e), [], 10**12)
        with time_limit(1, "rref of a 0 x 10^12 matrix"):
            R, rank, pivots = M.rref()
        assert R.shape == (0, 10**12) and rank == 0 and pivots == []


class TestRank:
    def test_transpose_symmetry(self, f4):
        rng = random.Random(1)
        for _ in range(50):
            M = random_matrix(rng, f4, 5, 7)
            assert M.rank() == M.transpose().rank()

    def test_all_ones_row(self, f27):
        M = FMatrix(f27, [[1] * 9], 9)
        assert M.rank() == 1

    def test_table_row_stacked_rank(self, f13):
        # stacked Vandermonde rows 1..4 and 5..12 over geometric nodes
        g = f13.primitive_element()
        nodes = [g**i for i in range(12)]
        G1 = vandermonde(f13, nodes[0:4], 12)
        H2 = vandermonde(f13, nodes[4:12], 12)
        assert G1.vstack(H2).rank() == 12  # c = 12 - 4 = 8

    def test_product_rank_bound(self, f9):
        rng = random.Random(2)
        for _ in range(30):
            A = random_matrix(rng, f9, 4, 5)
            B = random_matrix(rng, f9, 5, 3)
            assert (A @ B).rank() <= min(A.rank(), B.rank())

    def test_vstack_rank_subadditive(self, f4):
        rng = random.Random(3)
        for _ in range(30):
            A = random_matrix(rng, f4, 3, 6)
            B = random_matrix(rng, f4, 2, 6)
            assert A.vstack(B).rank() <= A.rank() + B.rank()


def rank_reference(field, rows):
    """Rank by elimination per entry: each pivot row, scaled by the inverse
    of its pivot on the field's scalar operations, clears its column from
    the rows below it."""
    work, r = [list(row) for row in rows], 0
    for c in range(len(work[0]) if work else 0):
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = field.inv(work[r][c])
        for i in range(r + 1, len(work)):
            fac = field.mul(work[i][c], inv)
            work[i] = [field.sub(x, field.mul(fac, y)) for x, y in zip(work[i], work[r])]
        r += 1
    return r


class TestRankRows:
    """rank() below _RREF_TABLE_MIN entries: forward elimination on the row
    layout, with no rref and no inverse, against rref()[1] and the reference."""

    @staticmethod
    def matrices(rng, field, m, n):
        q = field.q
        # every entry q - 1 or 0, so almost no pivot is 1
        nonunit = [[rng.choice((q - 1, q - 1, 0)) for _ in range(n)] for _ in range(m)]
        zero = [[0] * n for _ in range(m)]
        return planted_matrices(rng, field, m, n) + [nonunit, zero]

    @staticmethod
    def forbid_rref_and_inverse(monkeypatch, field):
        def refuse(*args):
            raise AssertionError("rank on rows took an rref or an inverse")

        monkeypatch.setattr(FMatrix, "rref", refuse)
        monkeypatch.setattr(field, "_rows", field.row_ops()._replace(inv=refuse))

    @pytest.mark.parametrize("p,e", ROW_LAYOUT_FIELDS)
    def test_matches_rref_and_reference(self, monkeypatch, p, e):
        field = field_new(p, e)
        rng = random.Random(p * 100 + e)
        mats = [(rows, n) for m, n in [(3, 5), (5, 5), (6, 9), (7, 3), (2, 2)]
                for rows in self.matrices(rng, field, m, n)]
        mats += [([[]] * 3, 0), ([], 4)]  # m x 0 and 0 x n
        with monkeypatch.context() as patched:
            self.forbid_rref_and_inverse(patched, field)
            ranks = [FMatrix(field, rows, n).rank() for rows, n in mats]
        for (rows, n), rank in zip(mats, ranks):
            assert rank == FMatrix(field, rows, n).rref()[1] == rank_reference(field, rows)
            assert type(rank) is int

    def test_rank_one_bit_vector_matrix(self, monkeypatch):
        # row 2 is 3 times row 1 in GF(2^11); a bit-vector comb that drops
        # its s factor reads rank 2
        field = field_new(2, 11)
        self.forbid_rref_and_inverse(monkeypatch, field)
        assert FMatrix(field, [[3, 9], [5, 27]], 2).rank() == 1

    @pytest.mark.parametrize("p,e", [(3, 7), (13, 1), (2, 11)])
    def test_no_rows_returns_at_once(self, monkeypatch, p, e):
        field = field_new(p, e)
        self.forbid_rref_and_inverse(monkeypatch, field)
        with time_limit(1, "rank of a 0 x 10^12 matrix"):
            assert FMatrix(field, [], 10**12).rank() == 0

    @pytest.mark.parametrize("p,e", [(13, 1), (2, 11), (17, 8)])
    def test_row_operations_only_below_pivots(self, monkeypatch, p, e):
        # one row operation per row below a pivot with an entry in its column:
        # none for the identity, m - 1 for a matrix of equal rows
        field = field_new(p, e)
        ops, calls = field.row_ops(), []
        monkeypatch.setattr(field, "_rows", ops._replace(
            comb=lambda *args: calls.append(args) or ops.comb(*args)))
        assert identity(field, 5).rank() == 5 and calls == []
        assert FMatrix(field, [[2] * 6] * 4, 6).rank() == 1 and len(calls) == 3

    def test_memo_and_tables_route(self, monkeypatch):
        # a matrix with an RREF memo reads it; 8 x 16 over GF(13) reduces on
        # the tables, and rank is rref's rank there
        from eaqeckit import fmatrix
        field = field_new(13, 1)
        M = random_matrix(random.Random(2), field, 8, 16)
        rank = M.rref()[1]
        monkeypatch.setattr(fmatrix, "_rank_rows", None)
        assert M.rank() == rank
        assert FMatrix(field, M.rows, 16).rank() == rank


class TestKernel:
    def test_identity_has_trivial_kernel(self, f9):
        K = identity(f9, 4).kernel_basis()
        assert K.nrows == 0 and K.ncols == 4

    def test_parity_code_kernel(self, f2):
        M = FMatrix(f2, [[1, 1, 1]], 3)
        K = M.kernel_basis()
        assert K.nrows == 2
        assert is_zero(M @ K.transpose())

    def test_defining_property_random(self, f9):
        rng = random.Random(4)
        for _ in range(100):
            M = random_matrix(rng, f9, rng.randint(1, 4), rng.randint(1, 6))
            K = M.kernel_basis()
            assert is_zero(M @ K.transpose())
            assert M.rank() + K.nrows == M.ncols  # rank-nullity

    def test_kernel_rows_independent(self, f4):
        rng = random.Random(6)
        for _ in range(30):
            M = random_matrix(rng, f4, 2, 5)
            K = M.kernel_basis()
            assert K.rank() == K.nrows


class TestFrobeniusEntrywise:
    def test_zero_twist_is_identity(self, f27):
        rng = random.Random(8)
        M = random_matrix(rng, f27, 3, 4)
        assert M.frobenius_entrywise(0) == M
        assert M.frobenius_entrywise(3) == M  # t = e

    def test_prime_field_fixed(self, f13):
        rng = random.Random(9)
        M = random_matrix(rng, f13, 3, 4)
        for t in range(4):
            assert M.frobenius_entrywise(t) == M

    def test_rank_preserved(self, f27):
        rng = random.Random(10)
        for _ in range(100):
            M = random_matrix(rng, f27, 3, 5)
            for t in range(1, 3):
                assert M.frobenius_entrywise(t).rank() == M.rank()


class TestProducts:
    def test_identity_neutral(self, f9):
        rng = random.Random(12)
        A = random_matrix(rng, f9, 3, 4)
        assert A @ identity(f9, 4) == A

    # packed rows (odd p, e >= 2, q > 1024) and enc-list rows: GF(2^16) on bit
    # vectors, GF(13) on residues, GF(3^3) on the flat tables, and GF(2)
    @pytest.mark.parametrize("p,e", [(3, 7), (17, 8), (2**31 - 1, 2),
                                     (2, 16), (13, 1), (3, 3), (2, 1)])
    @pytest.mark.parametrize("m,r,n", [(4, 5, 3), (3, 1, 6), (3, 0, 4), (0, 3, 4), (4, 3, 0),
                                       (0, 0, 0)])
    def test_product_against_reference(self, p, e, m, r, n):
        field = field_new(p, e)
        rng = random.Random(p * 100 + e * 10 + m + r + n)

        def factor(rows, cols):
            # row 0 holds q - 1, row 1 and the last column are zero, as far
            # as the shape has them
            M = [[field.q - 1] * cols, [0] * cols] + [
                [rng.randrange(field.q) for _ in range(cols)] for _ in range(rows - 2)]
            return FMatrix(field, [r[:-1] + [0] if cols > 1 else r for r in M[:rows]], cols)

        A, B = factor(m, r), factor(r, n)
        AB = A @ B
        assert AB.shape == (m, n)
        assert [list(row) for row in AB.rows] == matmul_reference(A, B)
        assert all(type(x) is int for row in AB.rows for x in row)

    @pytest.mark.parametrize("p,e", [(13, 1), (3, 3), (3, 7)])
    def test_product_takes_one_row_operation_per_nonzero_entry(self, p, e, monkeypatch):
        # one row operation per nonzero entry of the left factor and one to
        # negate each output row: a dense 8 x 12 @ 12 x 4 product builds 8
        # rows of 4
        field, combs = field_new(p, e), []
        ops = field.row_ops()
        counting = ops._replace(comb=lambda *a: combs.append(a) or ops.comb(*a))
        monkeypatch.setattr(type(field), "row_ops", lambda self: counting)
        rng = random.Random(p)
        A = FMatrix(field, [[rng.randrange(1, field.q) for _ in range(12)] for _ in range(8)])
        B = FMatrix(field, [[rng.randrange(1, field.q) for _ in range(4)] for _ in range(12)])
        assert [list(r) for r in (A @ B).rows] == matmul_reference(A, B)
        assert len(combs) == 8 * 12 + 8
        # with 9 of A's 12 columns zero, its zero entries take none
        A = FMatrix(field, [r[:3] + (0,) * 9 for r in A.rows])
        combs.clear()
        assert [list(r) for r in (A @ B).rows] == matmul_reference(A, B)
        assert len(combs) == 8 * 3 + 8

    def test_vstack_shape(self, f9):
        rng = random.Random(13)
        A = random_matrix(rng, f9, 2, 4)
        B = random_matrix(rng, f9, 3, 4)
        assert A.vstack(B).shape == (5, 4)

    def test_table_pair_product_rank(self, f13):
        # H1 = kernel of the 4-row node matrix; H2 the rows 5..12 block
        g = f13.primitive_element()
        nodes = [g**i for i in range(12)]
        G1 = vandermonde(f13, nodes[0:4], 12)
        H1 = G1.kernel_basis()
        H2 = vandermonde(f13, nodes[4:12], 12)
        assert (H1 @ H2.transpose()).rank() == 8

    def test_shape_mismatch(self, f9):
        A = FMatrix(f9, [[0] * 3] * 2, 3)
        with pytest.raises(errors.ShapeMismatch):
            A @ A
        with pytest.raises(errors.ShapeMismatch):
            A.vstack(FMatrix(f9, [[0] * 4], 4))

    def test_field_mismatch(self, f9, f27):
        with pytest.raises(errors.FieldMismatch):
            FMatrix(f9, [[0] * 2] * 2, 2) @ FMatrix(f27, [[0] * 2] * 2, 2)

    def test_vstack_field_mismatch(self, f9, f27):
        with pytest.raises(errors.FieldMismatch):
            FMatrix(f9, [[0] * 2], 2).vstack(FMatrix(f27, [[0] * 2], 2))

    def test_product_with_a_scalar_is_a_type_error(self, f9):
        with pytest.raises(TypeError):
            FMatrix(f9, [[1, 2]], 2) @ 3

    @pytest.mark.parametrize("rows,ncols,match", [([[1, 2], [3]], None, "ragged"),
                                                  ([[1, 2]], 3, "expected 3"),
                                                  ([], None, "explicit column count")])
    def test_constructor_shape_rejected(self, f9, rows, ncols, match):
        with pytest.raises(errors.ShapeMismatch, match=match):
            FMatrix(f9, rows, ncols)

    def test_negative_column_count_rejected(self):
        # FMatrix.from_text rejects the header "5 1 0 -1", so no such matrix exists
        f5 = field_new(5, 1)
        with pytest.raises(errors.ShapeMismatch):
            FMatrix(f5, [], -1)
        assert FMatrix.from_text(FMatrix(f5, [], 0).to_text()).shape == (0, 0)


class TestSerialization:
    @pytest.mark.parametrize("p,e", [(2, 1), (13, 1), (3, 3), (17, 8)])
    def test_roundtrip_identity(self, p, e):
        field = field_new(p, e)
        rng = random.Random(p * e)
        M = random_matrix(rng, field, 3, 5)
        again = FMatrix.from_text(M.to_text())
        assert again == M
        assert again.to_text() == M.to_text()

    def test_parsed_field_is_shared(self):
        field = field_new(2, 11)
        M = FMatrix(field, [[1, 2047, 5]], 3)
        assert FMatrix.from_text(M.to_text()).field is field

    def test_rows_hold_enc_ints(self, f27):
        M = FMatrix(f27, [[f27.element(5), 26, (1, 2, 0)]], 3)
        assert M.rows == ((5, 26, 7),)
        assert all(type(x) is int for x in M.rows[0])
        assert all(type(x) is int for r in M.rref()[0].rows for x in r)
        assert M[0, 1] == f27.element(26)

    @pytest.mark.parametrize("row", ["1 20 -1", "1 13 0", "-1 0 0"])
    def test_out_of_range_entry_rejected(self, row):
        with pytest.raises(errors.CodingError):
            FMatrix.from_text(f"13 1 1 3\n0\n{row}\n")

    def test_row_shorter_than_header_rejected(self):
        with pytest.raises(errors.ShapeMismatch, match="row width"):
            FMatrix.from_text("13 1 2 3\n0\n1 2 3\n4 5\n")

    def test_rows_past_header_count_rejected(self):
        with pytest.raises(errors.ShapeMismatch):
            FMatrix.from_text("13 1 2 3\n0\n1 2 3\n4 5 6\n7 8 9\n")

    @pytest.mark.parametrize("nrows,ncols", [(2, 0), (0, 3), (0, 0)])
    def test_empty_dimension_roundtrip(self, nrows, ncols):
        # a row of no entries is a blank line, and each of them is a row
        M = FMatrix._of(field_new(3, 1), [()] * nrows, ncols)
        text = M.to_text()
        again = FMatrix.from_text(text)
        assert again == M and again.to_text() == text
        with pytest.raises(errors.ShapeMismatch):
            FMatrix.from_text(text + "1\n")

    def test_trailing_blank_lines_accepted(self):
        assert FMatrix.from_text("13 1 1 3\n0\n1 2 0\n\n\n").rows == ((1, 2, 0),)
        with pytest.raises(errors.ShapeMismatch):
            FMatrix.from_text("13 1 2 0\n0\n")  # the blank row lines cut away

    def test_format_shape(self, f27):
        M = FMatrix(f27, [[0, 1, 26]], 3)
        lines = M.to_text().splitlines()
        assert lines[0] == "3 3 1 3"
        assert lines[1] == "1 2 0"
        assert lines[2] == "0 1 26"


class TestBatchedFullRank:
    @pytest.mark.parametrize("p,e", [(13, 1), (3, 3), (2, 2)])
    def test_agrees_with_exact_rank(self, p, e):
        import numpy as np
        field = field_new(p, e)
        rng = random.Random(99)
        mats, expect = [], []
        for _ in range(200):
            w = rng.randint(1, 4)
            M = random_matrix(rng, field, w, w)
            padded = np.zeros((4, 4), dtype=np.int64)
            padded[:w, :w] = np.array(M.rows)
            for i in range(w, 4):
                padded[i, i] = 1
            mats.append(padded)
            expect.append(M.rank() == w)
        got = batched_full_rank(field, np.stack(mats))
        assert list(got) == expect

    @pytest.mark.parametrize("p,e", [(13, 1), (3, 3)])
    def test_tall_matrices_full_column_rank(self, p, e):
        import numpy as np
        field = field_new(p, e)
        rng = random.Random(5)
        mats = [random_matrix(rng, field, 5, 3) for _ in range(200)]
        mats += [FMatrix(field, [[1, 2, 4]] * 5, 3)]  # rank 1
        got = batched_full_rank(field, np.array([M.rows for M in mats]))
        assert list(got) == [M.rank() == 3 for M in mats]
        assert not got[-1]

    def test_needs_tables(self):
        with pytest.raises(errors.UnsupportedSize):
            batched_full_rank(field_new(2, 11), [[[1]]])

    def test_needs_as_many_rows_as_columns(self, f9):
        with pytest.raises(errors.ShapeMismatch, match="at least as many rows"):
            batched_full_rank(f9, [[[1, 0, 0], [0, 1, 0]]])


def pivot_step_reference(field, rows, c):
    """One elimination step on one matrix, per entry: the first row nonzero in
    column c is the pivot, it is dropped and the last row takes its slot, and
    every kept row r becomes r - (r[c] / pivot[c]) * pivot.  A zero column
    only drops row 0."""
    i = next((k for k, r in enumerate(rows) if r[c]), 0)
    pivot, kept = rows[i], list(rows[:-1])
    if i < len(kept):
        kept[i] = rows[-1]
    if not pivot[c]:
        return kept
    inv = field.inv(pivot[c])
    return [[field.sub(x, field.mul(field.mul(r[c], inv), y)) for x, y in zip(r, pivot)]
            for r in kept]


class TestPivotStep:
    @pytest.mark.parametrize("p,e", [(29, 1), (2, 4)])
    @pytest.mark.parametrize("R", [2, 3, 5])
    def test_matches_per_matrix_reference(self, p, e, R):
        import numpy as np
        field = field_new(p, e)
        rng = np.random.default_rng(p * 10 + R)
        X = rng.integers(0, field.q, size=(300, R, 9))
        cols = rng.integers(0, 9, size=300)
        b = np.arange(300)
        X[b[::4], :, cols[::4]] = 0  # planted zero pivot columns
        X[b[1::4], :-1, cols[1::4]] = 0  # the pivot is the last row
        X[b[2::4], 0, cols[2::4]] = 0  # the pivot is below row 0
        before = X.copy()
        got = pivot_step(field.vec_ops(), X, cols)
        assert (X == before).all()
        assert got.shape == (300, R - 1, 9)
        for k in range(300):
            assert got[k].tolist() == pivot_step_reference(field, X[k].tolist(), cols[k]), k


def test_value_objects_hash_by_value():
    # a field built apart from field_new's shared instance, a matrix built
    # without checks and a code read back from text are each the same key
    from eaqeckit.gf import FieldSpec
    from eaqeckit.lincode import LinearCode, from_generator
    shared = field_new(3, 2)
    built = FieldSpec(3, 2, shared.modulus)
    assert built is not shared and built == shared and hash(built) == hash(shared)
    assert len({shared: 1, built: 2}) == 1
    rows = [[0, 1, 2], [3, 4, 8]]
    M = FMatrix(shared, rows, 3)
    assert M == FMatrix._of(built, rows, 3) and hash(M) == hash(FMatrix._of(built, rows, 3))
    assert repr(M) == "FMatrix(3^2, 2x3)"
    C = from_generator(M)
    assert len({C, LinearCode.from_text(C.to_text())}) == 1
