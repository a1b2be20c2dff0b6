"""Dense exact matrices over a single finite field.

Entries are stored as enc integers in [0, q) and every operation computes
with the field's enc-level arithmetic; Element appears only at the API
boundary (``M[i, j]``).  Matrices are value objects: every operation returns
a new matrix and no mutation is observable through the public surface.
Pivoting during elimination always takes the first nonzero entry scanning
top to bottom, so reduced row echelon forms (and everything derived from
them) are deterministic.

Text format (bit-exact round trip):
    line 1:  "p e rows cols"
    line 2:  modulus coefficients c_0 .. c_{e-1}, space separated
    then one line per row of enc values in [0, q), space separated
"""
from __future__ import annotations

from typing import Iterable

from . import errors
from .gf import Element, FieldSpec, field_new


class FMatrix:
    """Dense matrix over one FieldSpec, stored row-major as tuples of enc ints."""

    __slots__ = ("field", "nrows", "ncols", "rows", "_rref")

    def __init__(self, field: FieldSpec, rows: Iterable[Iterable], ncols: int | None = None):
        """Entries may be Elements of field, ints (reduced mod q) or coefficient sequences."""
        to_enc = field.to_enc
        converted = [tuple(map(to_enc, row)) for row in rows]
        if converted:
            ncols_seen = {len(r) for r in converted}
            if len(ncols_seen) != 1:
                raise errors.ShapeMismatch("ragged rows")
            width = ncols_seen.pop()
            if ncols is not None and ncols != width:
                raise errors.ShapeMismatch(f"rows have {width} columns, expected {ncols}")
            ncols = width
        elif ncols is None:
            raise errors.ShapeMismatch("empty matrix needs an explicit column count")
        elif ncols < 0:
            raise errors.ShapeMismatch(f"negative column count {ncols}")
        self._set(field, converted, ncols)

    def _set(self, field: FieldSpec, rows, ncols: int) -> None:
        self.field = field
        self.rows = tuple(map(tuple, rows))
        self.nrows = len(self.rows)
        self.ncols = ncols
        self._rref = None

    @classmethod
    def _of(cls, field: FieldSpec, rows, ncols: int) -> "FMatrix":
        """Matrix from rows of enc ints already in [0, q), without checks."""
        m = cls.__new__(cls)
        m._set(field, rows, ncols)
        return m

    # -- basics ---------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self.nrows, self.ncols

    def __getitem__(self, ij) -> Element:
        i, j = ij
        return self.field.element(self.rows[i][j])

    def __eq__(self, other):
        return (isinstance(other, FMatrix) and self.field == other.field
                and self.shape == other.shape and self.rows == other.rows)

    def __hash__(self):
        return hash((self.field, self.shape, self.rows))

    def __repr__(self):
        return f"FMatrix({self.field.label}, {self.nrows}x{self.ncols})"

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

    # -- elimination ------------------------------------------------------------

    def rref(self) -> tuple["FMatrix", int, list[int]]:
        """Reduced row echelon form, rank and pivot columns."""
        if self._rref is not None:
            return self._rref
        f = self.field
        sub, mul = f.sub, f.mul
        work = [list(r) for r in self.rows]
        pivots = []
        r = 0
        for c in range(self.ncols):
            piv = None
            for i in range(r, len(work)):
                if work[i][c]:
                    piv = i
                    break
            if piv is None:
                continue
            work[r], work[piv] = work[piv], work[r]
            inv = f.inv(work[r][c])
            prow = work[r] = [mul(x, inv) for x in work[r]]
            for i in range(len(work)):
                fac = work[i][c]
                if i != r and fac:
                    work[i] = [sub(x, mul(fac, y)) for x, y in zip(work[i], prow)]
            pivots.append(c)
            r += 1
            if r == len(work):
                break
        R = FMatrix._of(f, work, self.ncols)
        self._rref = (R, r, pivots)
        return self._rref

    def rank(self) -> int:
        return self.rref()[1]

    def row_basis(self) -> "FMatrix":
        """Canonical basis of the row space: the nonzero rows of the RREF."""
        R, rank, _ = self.rref()
        return FMatrix._of(self.field, R.rows[:rank], self.ncols)

    def kernel_basis(self) -> "FMatrix":
        """Canonical basis of the right kernel {x : self @ x^T = 0}.

        One basis row per free column of the RREF, taken in increasing
        column order, so the result is deterministic.
        """
        R, rank, pivots = self.rref()
        neg = self.field.neg
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        basis = []
        for f in free:
            v = [0] * self.ncols
            v[f] = 1
            for i, pc in enumerate(pivots):
                v[pc] = neg(R.rows[i][f])
            basis.append(v)
        return FMatrix._of(self.field, basis, self.ncols)

    # -- entrywise Frobenius -------------------------------------------------

    def frobenius_entrywise(self, t: int) -> "FMatrix":
        """Each entry raised to p^t (t reduced mod e)."""
        t %= self.field.e
        if t == 0:
            return self
        frobenius = self.field.frobenius
        return FMatrix._of(self.field, [[frobenius(x, t) for x in r] for r in self.rows],
                           self.ncols)

    # -- products and stacking -------------------------------------------------

    def _columns(self) -> list[tuple[int, ...]]:
        return [tuple(r[j] for r in self.rows) for j in range(self.ncols)]

    def __matmul__(self, other: "FMatrix") -> "FMatrix":
        if not isinstance(other, FMatrix):
            return NotImplemented
        if self.field != other.field:
            raise errors.FieldMismatch("matrix product across different fields")
        if self.ncols != other.nrows:
            raise errors.ShapeMismatch(
                f"cannot multiply {self.shape} by {other.shape}")
        add, mul = self.field.add, self.field.mul
        bcols = other._columns()
        out = []
        for arow in self.rows:
            orow = []
            for bcol in bcols:
                acc = 0
                for x, y in zip(arow, bcol):
                    if x and y:
                        acc = add(acc, mul(x, y))
                orow.append(acc)
            out.append(orow)
        return FMatrix._of(self.field, out, other.ncols)

    def transpose(self) -> "FMatrix":
        return FMatrix._of(self.field, self._columns(), self.nrows)

    def vstack(self, other: "FMatrix") -> "FMatrix":
        if self.field != other.field:
            raise errors.FieldMismatch("stack across different fields")
        if self.ncols != other.ncols:
            raise errors.ShapeMismatch(
                f"cannot stack {self.shape} on {other.shape}")
        return FMatrix._of(self.field, self.rows + other.rows, self.ncols)

    # -- serialization ----------------------------------------------------------

    def to_text(self) -> str:
        f = self.field
        lines = [f"{f.p} {f.e} {self.nrows} {self.ncols}",
                 " ".join(map(str, f.modulus))]
        lines.extend(" ".join(map(str, r)) for r in self.rows)
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "FMatrix":
        """Parse the text format over field_new's shared field; entries outside [0, q)
        are a FieldMismatch, a missing header or modulus line or a negative size a
        ShapeMismatch."""
        lines = text.strip().splitlines()
        if len(lines) < 2:
            raise errors.ShapeMismatch("missing 'p e rows cols' header or modulus line")
        try:
            p, e, nrows, ncols = map(int, lines[0].split())
        except ValueError:
            raise errors.ShapeMismatch("missing 'p e rows cols' header") from None
        if nrows < 0 or ncols < 0:
            raise errors.ShapeMismatch(f"negative size in header '{lines[0].strip()}'")
        field = field_new(p, e, tuple(map(int, lines[1].split())))
        rows = []
        for ln in lines[2:]:
            rows.append([int(v) for v in ln.split()])
            if len(rows[-1]) != ncols:
                raise errors.ShapeMismatch("row width disagrees with header")
            bad = [v for v in rows[-1] if not 0 <= v < field.q]
            if bad:
                raise errors.FieldMismatch(
                    f"entry {bad[0]} is not an enc in [0, {field.q}) of GF({field.label})")
        if len(rows) != nrows:
            raise errors.ShapeMismatch("row count disagrees with header")
        return cls._of(field, rows, ncols)


# ---------------------------------------------------------------------------
# Batched elimination (numpy fast path for small fields)
# ---------------------------------------------------------------------------

def pivot_step(ops, X, cols):
    """One elimination step on each matrix of a (B, R, n) batch of enc values.

    Matrix b is pivoted on column cols[b] at its first nonzero row, which is
    dropped: the result (B, R-1, n) is the other rows reduced on that column,
    unchanged where it is zero (ops.inv(0) is 0).  X is not modified.
    """
    import numpy as np
    b = np.arange(len(X))
    v = X[b, :, cols]  # (B, R)
    i = (v != 0).argmax(axis=1)
    fac = ops.mul(v, ops.inv(v[b, i])[:, None])
    X = ops.sub(X, ops.mul(fac[:, :, None], X[b, i][:, None, :]))
    X[b, i] = X[:, -1]
    return X[:, :-1]


def batched_full_rank(field: FieldSpec, mats) -> "list[bool]":
    """True per batch entry iff the matrix has full column rank.

    mats: numpy int array of shape (B, r, w) with r >= w, holding enc
    values.  Columns 0..w-1 are eliminated in turn by pivot_step, the kernel
    of the subset scanner in lincode.  Requires field.vec_ops().
    """
    import numpy as np
    ops = field.vec_ops()
    if ops is None:
        raise errors.UnsupportedSize(f"no vectorized tables for GF({field.label})")
    X = np.asarray(mats, dtype=np.int64)
    B, r, w = X.shape
    if r < w:
        raise errors.ShapeMismatch("batched_full_rank expects at least as many rows as columns")
    ok = np.ones(B, dtype=bool)
    for i in range(w):
        ok &= X[:, :, i].any(axis=1)
        X = pivot_step(ops, X, np.full(B, i))
    return ok
