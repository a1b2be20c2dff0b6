"""Exhaustive small-field oracle for the Gabidulin family.

Every admissible (n, k1, k2, t) of ``construct gabidulin`` over GF(2^4),
GF(2^5), GF(3^3), GF(3^4) and GF(5^3), 53 instances, goes through the CLI
with ``--emit-matrices``.  The oracle reads G1, H2 and the modulus from that
JSON and recomputes [[n, k, d; c]] on its own: field tables from sympy's
galoistools, its own elimination for the dimensions, the kernel of H2 and
c = rank(G1 over H2) - k1, and d(C1), d(C2) by enumerating every codeword
up to scalars (q^k <= 2^20 words for each code).  The tuple must equal the
one construct computed, and the closed form
[[n, t, min(n-k1+1, k2+1); k2-k1+t]] wherever t + k2 <= n.  Past that, G1
stacked on H2 has rank n, not t + k2, so c = n - k1 falls below the closed
form's; the constraints admit 6 such instances here, and construct must
report each unverified (exit 1).  Nothing but cli.main is taken from
eaqeckit.
"""
import functools
import json

import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_irreducible_p, gf_mul, gf_rem

from eaqeckit.cli import main

FIELDS = ((2, 4), (2, 5), (3, 3), (3, 4), (5, 3))


def instances(m):
    """The (n, k1, k2, t) that the family's constraints admit at degree m."""
    for n in range(1, m + 1):
        for k1 in range(1, n + 1):
            for t in range(k1):
                for k2 in range(k1 - t + 1, min(m - t, n - 1) + 1):
                    yield n, k1, k2, t


SWEEP = [(p, e, *shape) for p, e in FIELDS for shape in instances(e)]


class OracleField:
    """GF(p^e) on enc integers sum c_i p^i, with modulus x^e + sum tail_i x^i,
    as add, neg and mul tables built from galoistools."""

    def __init__(self, p, e, tail):
        self.p, self.e, self.q = p, e, p**e
        modulus = [1] + [c % p for c in reversed(tail)]
        assert gf_irreducible_p(modulus, p, ZZ), modulus
        polys = [self.poly(a) for a in range(self.q)]
        self.add = [[self.enc(gf_add(a, b, p, ZZ)) for b in polys] for a in polys]
        self.mul = [[self.enc(gf_rem(gf_mul(a, b, p, ZZ), modulus, p, ZZ)) for b in polys]
                    for a in polys]
        self.neg = [row.index(0) for row in self.add]
        self.inv = [None] + [row.index(1) for row in self.mul[1:]]

    def poly(self, a):
        digits = []
        for _ in range(self.e):
            a, r = divmod(a, self.p)
            digits.append(r)
        while digits and digits[-1] == 0:
            digits.pop()
        return digits[::-1]

    def enc(self, poly):
        out = 0
        for c in poly:
            out = out * self.p + int(c) % self.p
        return out

    def axpy(self, a, x, y):
        """y + a x, entrywise."""
        add, mul_a = self.add, self.mul[a]
        return [add[u][mul_a[v]] for v, u in zip(x, y)]

    def rref(self, rows):
        """The nonzero rows of the reduced echelon form and their pivot columns."""
        rows, pivots = [list(r) for r in rows], []
        for c in range(len(rows[0]) if rows else 0):
            r = len(pivots)
            hit = next((i for i in range(r, len(rows)) if rows[i][c]), None)
            if hit is None:
                continue
            rows[r], rows[hit] = rows[hit], rows[r]
            rows[r] = [self.mul[self.inv[rows[r][c]]][x] for x in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c]:
                    rows[i] = self.axpy(self.neg[rows[i][c]], rows[r], rows[i])
            pivots.append(c)
        return rows[:len(pivots)], pivots

    def rank(self, rows):
        return len(self.rref(rows)[1])

    def kernel(self, rows, n):
        """A basis of {x : M x^T = 0} for the rows M of length n."""
        reduced, pivots = self.rref(rows)
        basis = []
        for f in (c for c in range(n) if c not in pivots):
            x = [0] * n
            x[f] = 1
            for row, c in zip(reduced, pivots):
                x[c] = self.neg[row[f]]
            basis.append(x)
        return basis

    def min_weight(self, basis):
        """Minimum weight of the span, over each word up to a scalar: the
        words whose first nonzero coefficient is 1."""
        best = len(basis[0])
        for lead, row in enumerate(basis):
            words = [row]
            for other in basis[lead + 1:]:
                words = [self.axpy(a, other, w) for w in words for a in range(self.q)]
            best = min(best, min(len(w) - w.count(0) for w in words))
        return best


@functools.lru_cache(maxsize=None)
def oracle_field(p, e, tail):
    return OracleField(p, e, tail)


def read_matrix(text):
    """(p, e, modulus tail, rows) of one emitted matrix."""
    lines = text.splitlines()
    p, e, nrows, ncols = map(int, lines[0].split())
    rows = [list(map(int, line.split())) for line in lines[2:2 + nrows]]
    assert all(len(r) == ncols for r in rows)
    return p, e, tuple(map(int, lines[1].split())), rows


def oracle_tuple(G1_text, H2_text):
    p, e, tail, G1 = read_matrix(G1_text)
    assert read_matrix(H2_text)[:3] == (p, e, tail)
    H2 = read_matrix(H2_text)[3]
    F, n = oracle_field(p, e, tail), len(G1[0])
    C1 = F.rref(G1)[0]
    C2 = F.kernel(H2, n)
    c = F.rank(G1 + H2) - len(C1)
    k = len(C1) + len(C2) - n + c
    return n, k, min(F.min_weight(C1), F.min_weight(C2)), c


def test_sweep_counts_every_admissible_instance():
    assert [sum(1 for _ in instances(e)) for _, e in FIELDS] == [10, 29, 2, 10, 2]


@pytest.mark.parametrize("p,e,n,k1,k2,t", SWEEP, ids=str)
def test_construct_matches_the_oracle(capsys, p, e, n, k1, k2, t):
    argv = ["--emit-matrices", "construct", "gabidulin", f"q={p}^{e}",
            f"n={n}", f"k1={k1}", f"k2={k2}", f"t={t}"]
    status = main(argv)
    cert = json.loads(capsys.readouterr().out)
    computed = tuple(cert["computed"][key] for key in ("n", "k", "d", "c"))
    assert oracle_tuple(cert["G1"], cert["H2"]) == computed
    closed_form = (n, t, min(n - k1 + 1, k2 + 1), k2 - k1 + t)
    holds = t + k2 <= n
    assert (computed == closed_form) == holds == cert["verified"] == (status == 0)
    if not holds:
        assert status == 1 and computed[3] == n - k1


def test_six_instances_reach_past_n():
    # (p, e, n, k1, k2, t) with t + k2 > n, all at k1 >= n - 1
    assert {v for v in SWEEP if v[5] + v[4] > v[2]} == {
        (2, 4, 3, 3, 2, 2), (2, 5, 3, 3, 2, 2), (2, 5, 4, 3, 3, 2), (2, 5, 4, 4, 2, 3),
        (2, 5, 4, 4, 3, 2), (3, 4, 3, 3, 2, 2)}
