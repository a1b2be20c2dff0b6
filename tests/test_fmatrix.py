import random

import pytest
from hypothesis import given, settings, strategies as st

from eaqeckit import FMatrix, errors, field_new
from eaqeckit.fmatrix import batched_full_rank
from conftest import BACKEND_FIELDS, draw_matrix, identity, random_matrix


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


@pytest.mark.parametrize("p,e", BACKEND_FIELDS)
@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_rref_properties(p, e, data):
    field = field_new(p, e)
    nrows, ncols = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
    M = draw_matrix(data, field, nrows, ncols)
    R, rank, pivots = M.rref()
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


class TestKernel:
    def test_identity_has_trivial_kernel(self, f9):
        K = identity(f9, 4).kernel_basis()
        assert K.nrows == 0 and K.ncols == 4

    def test_parity_code_kernel(self, f2):
        M = FMatrix(f2, [[1, 1, 1]], 3)
        K = M.kernel_basis()
        assert K.nrows == 2
        assert (M @ K.transpose()).is_zero()

    def test_defining_property_random(self, f9):
        rng = random.Random(4)
        for _ in range(100):
            M = random_matrix(rng, f9, rng.randint(1, 4), rng.randint(1, 6))
            K = M.kernel_basis()
            assert (M @ K.transpose()).is_zero()
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

    def test_rows_past_header_count_rejected(self):
        with pytest.raises(errors.ShapeMismatch):
            FMatrix.from_text("13 1 2 3\n0\n1 2 3\n4 5 6\n7 8 9\n")

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
