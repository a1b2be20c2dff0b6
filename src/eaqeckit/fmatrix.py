"""Dense exact matrices over a single finite field.

Entries are stored as enc integers in [0, q) and every operation computes
with the field's enc-level arithmetic; Element appears only at the API
boundary (``M[i, j]``).  Matrices are value objects: every operation returns
a new matrix and no mutation is observable through the public surface.

All elimination lives here, in five kernels: rref and the column-subset
scan first_dependent_columns, each on the numpy op tables of
FieldSpec.vec_ops (_rref_tables, _scan_batched) or on the row layout of
FieldSpec.row_ops (_rref_rows, the scan's own recursion), and rank's
inverse-free forward elimination on rows (_rank_rows); A @ B builds each
output row on the row layout too, one row operation per nonzero entry of A.
The one rule: a field with tables (q <= 1024) scans on them and reduces on
them from _RREF_TABLE_MIN entries, and everything else runs on rows, so no
elimination above q = 1024 imports numpy; rank() with no RREF memo follows
it.  A matrix has one RREF, one rank and one first dependent subset, so the
route never shows in a result.  The scan searches every w-subset of the
matrix it is given, at most C(ncols, w) of them; a caller that may skip
subsets hands it a smaller matrix (lincode.is_mds scans an RREF's tail).

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

    @classmethod
    def _reduced(cls, field: FieldSpec, rows, ncols: int, pivots: list[int]) -> "FMatrix":
        """Matrix from nonzero rows in RREF with these pivots, its own RREF memo
        (None in the memo stands for the matrix: a memo holding it is a cycle)."""
        m = cls._of(field, rows, ncols)
        m._rref = (None, len(pivots), pivots)
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

    # -- elimination ------------------------------------------------------------

    def rref(self) -> tuple["FMatrix", int, list[int]]:
        """Reduced row echelon form, rank and pivot columns, as Python ints.

        From _RREF_TABLE_MIN entries over a field with vec_ops, on its tables;
        the RREF is unique, so the route never shows in the result."""
        if self._rref is not None:
            return self._rref if self._rref[0] else (self, *self._rref[1:])
        f = self.field
        if self.nrows * self.ncols >= _RREF_TABLE_MIN and (ops := f.vec_ops()) is not None:
            work, r, pivots = _rref_tables(ops, self.rows, self.ncols)
        else:
            work, r, pivots = _rref_rows(f.row_ops(), self.rows, self.ncols)
        self._rref = (FMatrix._of(f, work, self.ncols), r, pivots)
        return self._rref

    def first_dependent_columns(self, w: int) -> tuple[int, ...] | None:
        """First w-subset of the columns, in lexicographic order, that has
        rank < w, or None if there is none (1 <= w <= ncols).

        Depth-first, sharing the elimination of each column prefix: a node is
        a prefix P whose other rows are reduced on P, and child P+{c} costs
        one pivot step on them.  If column c is zero there, every subset
        extending P+{c} is dependent and the first, P + (c, c+1, ...), is the
        witness.  Without tables the search runs here, one row_ops row per
        column (on rows, GF(2^16) n=7's is_mds took 1.35-1.45 ms, not
        0.46-0.56); with them, _scan_batched runs it.
        On rows, a pivot column that is a unit vector once its pivot entry is
        dropped (every identity column of an RREF generator is one) takes no
        row operation: its step would only scale each later column by s != 0,
        which changes no rank, so each keeps its entries but the pivot row's.
        """
        if not 1 <= w <= self.ncols:
            raise errors.ShapeMismatch(f"no {w}-subsets of {self.ncols} columns")
        if (ops := self.field.vec_ops()) is not None:
            return _scan_batched(self, w, ops)
        pack, _, get, drop, lead, comb, _ = self.field.row_ops()
        n = self.ncols

        def visit(prefix, cols):
            # cols: the columns after prefix, reduced on the rows it left over
            depth, first = len(prefix), prefix[-1] + 1 if prefix else 0
            for c, v in enumerate(cols[:n - w + depth + 1 - first], first):
                i = lead(v)
                if i is None:
                    return prefix + tuple(range(c, c + w - depth))
                if depth + 1 == w:
                    continue
                s, vi, rest = get(v, i), drop(v, i), []
                # s*u - a*v needs no field inverse, and the factor s != 0 keeps
                # ranks; for a unit column (vi zero) it is s*u, so u will do
                unit = lead(vi) is None
                for u in cols[c - first + 1:]:
                    a, u = get(u, i), drop(u, i)  # the a test: large-field 4% slower without
                    rest.append(u if unit or not a else comb(s, u, a, vi))
                if found := visit(prefix + (c,), rest):
                    return found
            return None

        return visit((), list(map(pack, _transposed(self.rows, n))))

    def rank(self) -> int:
        """The RREF memo's rank, else rref's on the tables and _rank_rows' on rows."""
        if self._rref or self.nrows * self.ncols >= _RREF_TABLE_MIN and self.field.vec_ops():
            return self.rref()[1]
        return _rank_rows(self.field.row_ops(), self.rows, self.ncols)

    def row_basis(self) -> "FMatrix":
        """Canonical basis of the row space: the nonzero rows of the RREF, their own RREF."""
        R, rank, pivots = self.rref()
        return FMatrix._reduced(self.field, R.rows[:rank], self.ncols, pivots)

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
        if t == 0:  # self, RREF memo and all: large-field passes ~1% slower without
            return self
        frobenius = self.field.frobenius
        return FMatrix._of(self.field, [[frobenius(x, t) for x in r] for r in self.rows],
                           self.ncols)

    # -- products and stacking -------------------------------------------------

    def __matmul__(self, other: "FMatrix") -> "FMatrix":
        if not isinstance(other, FMatrix):
            return NotImplemented
        if self.field != other.field:
            raise errors.FieldMismatch("matrix product across different fields")
        if self.ncols != other.nrows:
            raise errors.ShapeMismatch(
                f"cannot multiply {self.shape} by {other.shape}")
        n = other.ncols
        return FMatrix._of(self.field, _product_rows(self.field, self.rows, other.rows, n), n)

    def transpose(self) -> "FMatrix":
        return FMatrix._of(self.field, _transposed(self.rows, self.ncols), self.nrows)

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
        lines = text.lstrip().splitlines()
        if len(lines) < 2:
            raise errors.ShapeMismatch("missing 'p e rows cols' header or modulus line")
        try:
            p, e, nrows, ncols = map(int, lines[0].split())
        except ValueError:
            raise errors.ShapeMismatch("missing 'p e rows cols' header") from None
        if nrows < 0 or ncols < 0:
            raise errors.ShapeMismatch(f"negative size in header '{lines[0].strip()}'")
        field = field_new(p, e, tuple(map(int, lines[1].split())))
        # exactly nrows row lines, blank for ncols = 0, then only blank lines
        body, rest = lines[2:2 + nrows], lines[2 + nrows:]
        if len(body) != nrows or any(map(str.strip, rest)):
            raise errors.ShapeMismatch("row count disagrees with header")
        rows = []
        for ln in body:
            rows.append([int(v) for v in ln.split()])
            if len(rows[-1]) != ncols:
                raise errors.ShapeMismatch("row width disagrees with header")
            bad = [v for v in rows[-1] if not 0 <= v < field.q]
            if bad:
                raise errors.FieldMismatch(
                    f"entry {bad[0]} is not an enc in [0, {field.q}) of GF({field.label})")
        return cls._of(field, rows, ncols)


def _product_rows(field: FieldSpec, A, B, n: int) -> list:
    """The rows of A @ B, B with n columns: each is sum_k a_k B_k, built as
    acc - a_k B_k on the row layout and negated at the end as 0 - 1 acc."""
    pack, unpack, get, _, _, comb, _ = field.row_ops()
    B, zero, out = list(map(pack, B)), pack([0] * n), []
    for row in A:
        P, acc = pack(row), zero
        for k, x in enumerate(row):
            if x:  # pinned by test_product_takes_one_row_operation_per_nonzero_entry
                acc = comb(1, acc, get(P, k), B[k])
        out.append(unpack(comb(1, zero, 1, acc), n))
    return out


def _transposed(rows, ncols: int) -> list:
    """The columns of a matrix with these rows and ncols columns."""
    return list(zip(*rows)) if rows else [()] * ncols


# ---------------------------------------------------------------------------
# Elimination on the field's row layout, and on the numpy op tables
# ---------------------------------------------------------------------------

def _rref_rows(ops, rows, ncols: int):
    """FMatrix.rref's elimination on the row operations of FieldSpec.row_ops:
    (rows, rank, pivots).  Each row is packed once and unpacked once, and a
    pivot that is already 1 takes no inverse."""
    pack, unpack, get, _, _, comb, inv = ops
    work = list(map(pack, rows))
    pivots, r, m = [], 0, len(work)
    for c in range(ncols):
        if r == m:  # a 0 x 10^12 matrix returns at once (test_no_rows_returns_at_once)
            break
        piv = next((i for i in range(r, m) if get(work[i], c)), None)
        if piv is None:
            continue
        prow, work[piv] = work[piv], work[r]
        if (s := get(prow, c)) != 1:  # a unit pivot: large-field 8% slower without
            prow = comb(inv(s), prow, 0, prow)
        work[r] = prow
        for i in range(m):
            if i != r and (a := get(work[i], c)):  # large-field 12% slower without
                work[i] = comb(1, work[i], a, prow)
        pivots.append(c)
        r += 1
    return [unpack(x, ncols) for x in work], r, pivots


def _rank_rows(ops, rows, ncols: int) -> int:
    """FMatrix.rank on FieldSpec.row_ops: the first row v with an entry s in column c
    leaves, and each other row u with entry a there becomes s*u - a*v (no inverse)."""
    pack, _, get, _, _, comb, _ = ops
    work, r = list(map(pack, rows)), 0
    for c in range(ncols):
        if not work:  # a 0 x 10^12 matrix returns at once
            break
        if (piv := next((i for i, u in enumerate(work) if get(u, c)), None)) is not None:
            v = work.pop(piv)
            s = get(v, c)
            work, r = [comb(s, u, a, v) if (a := get(u, c)) else u for u in work], r + 1
    return r


# rref reduces on vec_ops from this many entries (tables passes 46-48 ms, on
# rows only 69-70): a table pivot costs about 10 us, the loop 0.1 us per entry,
# and GF(2) breaks even near 128.  Below it, a process without numpy stays so.
_RREF_TABLE_MIN = 128


def _rref_tables(ops, rows, ncols: int):
    """FMatrix.rref's elimination, one array step per pivot: (rows, rank, pivots)."""
    import numpy as np
    W = np.array(rows, dtype=np.int64)
    pivots, r = [], 0
    for c in range(ncols):
        nz = W[r:, c].nonzero()[0]
        if not len(nz):
            continue
        if nz[0]:  # mds-scan passes 11% slower with the self-swap
            W[[r, r + nz[0]]] = W[[r + nz[0], r]]
        # rows at or below r are zero left of c, so only columns c.. change
        if W[r, c] != 1:  # tables passes 6% slower without
            W[r, c:] = ops.mul(W[r, c:], ops.inv(W[r, c]))
        fac = W[:, c].copy()
        fac[r] = 0
        W[:, c:] = ops.sub(W[:, c:], ops.mul(fac[:, None], W[r, c:]))
        pivots.append(c)
        r += 1
    return W.tolist(), r, pivots


# Sibling nodes expanded per numpy step of _scan_batched.
_SCAN_CHUNK = 1 << 10


def _first_dependent_pair(ops, S, last):
    """(i, (c1, c2)) for the first node i of a (B, 2, n) batch with columns
    last[i] < c1 < c2 dependent, c1 then c2 least, or None if there is none.

    A column (a, b) is keyed by its projective point: b/a, q for a = 0 != b
    and -1 for zero, so two columns are dependent iff one key is -1 or both
    keys are equal.  Columns up to last[i] get distinct keys above q.
    """
    import numpy as np
    n = S.shape[2]
    columns = np.arange(n)
    a, b = S[:, 0], S[:, 1]
    key = np.where(a != 0, ops.mul(b, ops.inv(a)), np.where(b != 0, ops.q, -1))
    key = np.where(columns > last[:, None], key, ops.q + 1 + columns)
    ordered = np.sort(key, axis=1)
    dead = (ordered[:, 0] < 0) | (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    if not dead.any():
        return None
    i = int(dead.argmax())
    k = key[i].tolist()
    return i, next((c1, c2) for c1 in range(int(last[i]) + 1, n) for c2 in range(c1 + 1, n)
                   if min(k[c1], k[c2]) < 0 or k[c1] == k[c2])


def _scan_batched(M: FMatrix, w: int, ops):
    """FMatrix.first_dependent_columns on numpy tables: visit takes sibling
    nodes in order and recurses into their children in chunks of _SCAN_CHUNK,
    each built by one pivot_step.  In a square scan _first_dependent_pair
    decides the children of each depth w-2 node at once, so depth w-1 is
    never built (mds-scan passes 29-34 ms, 54-60 without)."""
    import numpy as np
    n = M.ncols
    columns = np.arange(n)

    def visit(S, prefix, last):
        # S: (B, R, n) node states; node b has prefix[b], last[b] its last column
        depth = prefix.shape[1]
        if depth + 2 == w and S.shape[1] == 2:
            found = _first_dependent_pair(ops, S, last)
            return found and tuple(prefix[found[0]].tolist()) + found[1]
        valid = (columns > last[:, None]) & (columns <= n - w + depth)
        nonzero = S.any(axis=1)
        live, dead, witness = valid & nonzero, valid & ~nonzero, None
        if dead.any():  # children of earlier (node, column) pairs come first
            b, c = divmod(int(dead.argmax()), n)
            witness = tuple(prefix[b].tolist()) + tuple(range(c, c + w - depth))
            live.ravel()[b * n + c:] = False
        if depth + 1 < w:
            bs, cs = np.nonzero(live)
            for a in range(0, len(bs), _SCAN_CHUNK):
                b, c = bs[a:a + _SCAN_CHUNK], cs[a:a + _SCAN_CHUNK]
                if found := visit(pivot_step(ops, S[b], c), np.column_stack((prefix[b], c)), c):
                    return found
        return witness

    return visit(np.array(M.rows, dtype=np.int64).reshape(1, M.nrows, n),
                 np.zeros((1, 0), dtype=np.int64), np.full(1, -1))


def pivot_step(ops, X, cols):
    """One elimination step on each matrix of a (B, R, n) batch of enc values.

    Matrix b is pivoted on column cols[b] at its first nonzero row, which is
    dropped and its slot taken by the last row: the result (B, R-1, n) is the
    other rows reduced on that column, unchanged where it is zero (ops.inv(0)
    is 0).  Only the R-1 kept rows are reduced.  X is not modified.
    """
    import numpy as np
    b = np.arange(len(X))
    v = X[b, :, cols]  # (B, R)
    i = (v != 0).argmax(axis=1)
    fac = ops.mul(v, ops.inv(v[b, i])[:, None])
    pivot, X = X[b, i], X.copy()
    X[b, i], fac[b, i] = X[:, -1], fac[:, -1]
    return ops.sub(X[:, :-1], ops.mul(fac[:, :-1, None], pivot[:, None, :]))


def batched_full_rank(field: FieldSpec, mats) -> "list[bool]":
    """True per batch entry iff the matrix has full column rank.

    mats: numpy int array of shape (B, r, w) with r >= w, holding enc
    values.  Columns 0..w-1 are eliminated in turn by pivot_step, the kernel
    of _scan_batched.  Requires field.vec_ops().
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
