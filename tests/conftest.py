import itertools
import random
import signal
from contextlib import contextmanager

import pytest
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_gcdex, gf_mul, gf_pow_mod, gf_rem, gf_sub

from eaqeckit import FMatrix, errors, field_new, from_generator
from eaqeckit.lincode import DEFAULT_BUDGET, check_pair


@contextmanager
def time_limit(seconds, what):
    """Fail the test if the block runs past the given number of seconds."""
    def expire(signum, frame):
        raise TimeoutError

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    except TimeoutError:
        pytest.fail(f"{what} ran past {seconds} s", pytrace=False)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def random_matrix(rng: random.Random, field, nrows: int, ncols: int) -> FMatrix:
    return FMatrix(field, [[rng.randrange(field.q) for _ in range(ncols)]
                           for _ in range(nrows)], ncols)


def is_zero(M: FMatrix) -> bool:
    return not any(map(any, M.rows))


def identity(field, n: int) -> FMatrix:
    return FMatrix(field, [[int(i == j) for j in range(n)] for i in range(n)], n)


def codewords(code) -> list[tuple]:
    """All q^k codewords as Element tuples, in message enc order: every
    message times G in one matrix product, independent of lincode's
    projective enumerator."""
    field = code.field
    messages = FMatrix(field, itertools.product(range(field.q), repeat=code.k), code.k)
    return [tuple(map(field.element, word)) for word in (messages @ code.G).rows]


def random_code(rng: random.Random, field, n: int, rows: int):
    """Random nonzero code of length n spanned by `rows` random rows."""
    while True:
        code = from_generator(random_matrix(rng, field, rows, n))
        if code.k > 0:
            return code


# One field per arithmetic backend: residues mod p, the flat tables of
# vec_ops (extension fields with q <= 1024), and the Z_p[x] routines above that.
BACKEND_FIELDS = [(13, 1), (3, 3), (17, 8)]

# One or two fields per row layout of FieldSpec.row_ops: residues mod p,
# flat tables (p = 2 and odd p), bit vectors and Kronecker-packed rows.
ROW_LAYOUT_FIELDS = [(13, 1), (2, 4), (3, 3), (2, 11), (2, 16), (17, 8), (3, 7)]

# Fields of the Kronecker row layout (odd p, e >= 2, q > 1024): the smallest,
# GF(3^7), three large-field benchmark fields, p near 2^16 and 2^31, and the
# widest slots, GF((2^31-1)^16).
KRONECKER_ROW_FIELDS = [(3, 7), (3, 10), (5, 9), (17, 8), (65521, 2), (2**31 - 1, 2),
                        (2**31 - 1, 16)]


def matmul_reference(A: FMatrix, B: FMatrix) -> list[list[int]]:
    """The rows of A @ B entry by entry: sum_k a_ik b_kj on the field's
    scalar add and mul."""
    field, out = A.field, []
    for row in A.rows:
        out.append([])
        for j in range(B.ncols):
            acc = 0
            for a, brow in zip(row, B.rows):
                acc = field.add(acc, field.mul(a, brow[j]))
            out[-1].append(acc)
    return out


def rref_reference(field, rows):
    """Gauss-Jordan elimination per entry: (rows, rank, pivots) of the RREF."""
    work, pivots = [list(r) for r in rows], []
    for c in range(len(work[0]) if work else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(work)) if work[i][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        inv = field.inv(work[r][c])
        work[r] = [field.mul(inv, x) for x in work[r]]
        for i in range(len(work)):
            if i != r:
                fac = work[i][c]
                work[i] = [field.sub(x, field.mul(fac, y)) for x, y in zip(work[i], work[r])]
        pivots.append(c)
    return tuple(map(tuple, work)), len(pivots), pivots


def draw_matrix(data, field, nrows: int, ncols: int) -> FMatrix:
    """Hypothesis-drawn product of an nrows x r and an r x ncols matrix, with
    r drawn in 1..min(nrows, ncols), so rank deficiency is common."""
    def block(rows, cols):
        entries = st.lists(st.integers(0, field.q - 1), min_size=cols, max_size=cols)
        return FMatrix(field, [data.draw(entries) for _ in range(rows)], cols)

    r = data.draw(st.integers(1, min(nrows, ncols)))
    return block(nrows, r) @ block(r, ncols)


def intersection_basis_bruteforce(C1, C2dual, budget: int = DEFAULT_BUDGET) -> FMatrix:
    """Basis of C1 ∩ C2dual (oracle for the stacked ebit route) by literal
    enumeration of the smaller code: a word is a member when the other code's
    parity checks vanish on it."""
    check_pair(C1, C2dual)
    small, other = sorted((C1, C2dual), key=lambda C: C.k)
    if small.field.q**small.k > budget:
        raise errors.Infeasible(f"{small.field.q}^{small.k} codewords exceed budget {budget}")
    words = FMatrix(small.field, codewords(small), small.n)
    checks = words @ other.H.transpose()
    members = [w for w, z in zip(words.rows, checks.rows) if not any(z)]  # 0 at least
    return FMatrix(small.field, members, small.n).row_basis()


def frobenius(a, s: int):
    """a^(p^s), s reduced mod e: the Frobenius power of one Element."""
    return a ** a.field.p ** (s % a.field.e)


def galois_form(x, y, s: int):
    """The twisted form sum_i x_i * y_i^(p^s) that defines galois_dual(., s).

    s = 0 is the Euclidean inner product; s = e/2 (e even) the Hermitian one.
    """
    if len(x) != len(y):
        raise errors.LengthMismatch(f"lengths {len(x)} and {len(y)} differ")
    return sum((xi * frobenius(yi, s) for xi, yi in zip(x, y)), x[0].field.element(0))


class SympyField:
    """GF(p^e) through sympy's dense Z_p[x] routines, highest degree first;
    shares no arithmetic with eaqeckit, only the enc convention."""

    def __init__(self, field):
        self.p, self.e = field.p, field.e
        self.f = [1] + list(field.modulus)[::-1]

    def poly(self, enc):
        digits = []
        for _ in range(self.e):
            enc, c = divmod(enc, self.p)
            digits.append(c)
        while digits and digits[-1] == 0:
            digits.pop()
        return digits[::-1]

    def enc(self, poly):
        assert len(poly) <= self.e
        return sum(c * self.p**i for i, c in enumerate(reversed(poly)))

    def add(self, a, b):
        return self.enc(gf_add(self.poly(a), self.poly(b), self.p, ZZ))

    def sub(self, a, b):
        return self.enc(gf_sub(self.poly(a), self.poly(b), self.p, ZZ))

    def mul(self, a, b):
        product = gf_mul(self.poly(a), self.poly(b), self.p, ZZ)
        return self.enc(gf_rem(product, self.f, self.p, ZZ))

    def inv(self, a):
        s, _, g = gf_gcdex(self.poly(a), self.f, self.p, ZZ)
        assert g == [1]
        return self.enc(gf_rem(s, self.f, self.p, ZZ))

    def pow(self, a, n):
        if n < 0:
            a, n = self.inv(a), -n
        return self.enc(gf_pow_mod(self.poly(a), n, self.f, self.p, ZZ))


@pytest.fixture(scope="session")
def f2():
    return field_new(2, 1)


@pytest.fixture(scope="session")
def f4():
    return field_new(2, 2)


@pytest.fixture(scope="session")
def f9():
    return field_new(3, 2)


@pytest.fixture(scope="session")
def f13():
    return field_new(13, 1)


@pytest.fixture(scope="session")
def f27():
    return field_new(3, 3)
