"""Seeded inputs and known answers for the benchmark's four workloads.

Only the standard library is imported at module level, so a fresh process can
work out a workload's field list before its set-up is timed.  Known answers
never come from eaqeckit:

  tables       the published [[n,k,d;c]]_q tuples, written out below
  mds-scan     the closed forms of the Vandermonde and extended-GRS families
  large-field  the closed form of the Gabidulin family
  verify       a numpy brute force over the benchmark's own field tables,
               built from the modulus written into each code file

Each workload is a fixed list of job shapes.  The seed fills in the free
parameters of each shape (Vandermonde and Gabidulin offsets, code entries,
evaluation points, wrong claims) and the job order of every pass, but never
the shapes themselves, so every seed asks for about the same work.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("tables", "mds-scan", "large-field", "verify")

# The library's min_distance searches dependent parity-check column sets up to
# this size before it gives up with Infeasible (exit code 5).
COLUMN_SEARCH_MAX = 6


@dataclass(frozen=True)
class Job:
    """One certificate or one verdict.

    kind is "family" (call = (function name, p, e, args)), or "construct",
    "table" or "verify" (call = argv for eaqeckit.cli.main).  wrong is a
    deliberately wrong answer that the oracle must refuse.
    """
    kind: str
    call: tuple
    expected: tuple
    wrong: tuple


def _label(p: int, e: int) -> str:
    return str(p) if e == 1 else f"{p}^{e}"


def _tuple(n, k, d, c, label) -> str:
    return f"[[{n},{k},{d};{c}]]_{label}"


def _family(name, p, e, args, n, k, d, c) -> Job:
    label = _label(p, e)
    return Job("family", (name, p, e, tuple(args)),
               (_tuple(n, k, d, c, label), True, True),
               (_tuple(n, k, d + 1, c, label), True, True))


def _construct(argv, n, k, d, c, label) -> Job:
    return Job("construct", ("construct",) + tuple(argv),
               (0, _tuple(n, k, d, c, label), True, True),
               (0, _tuple(n, k, d + 1, c, label), True, True))


# ---------------------------------------------------------------------------
# tables: Table 1, Table 2 and the README construct examples
# ---------------------------------------------------------------------------

# (p, e, n, k, t, j) and the published tuple
_TABLE1 = (
    ((13, 1, 12, 4, 5, 7), (12, 4, 9, 8)),
    ((13, 1, 12, 5, 6, 6), (12, 5, 8, 7)),
    ((13, 1, 12, 6, 7, 5), (12, 6, 7, 6)),
    ((13, 1, 12, 8, 9, 3), (12, 8, 5, 4)),
    ((3, 3, 15, 2, 3, 12), (15, 2, 14, 13)),
    ((3, 3, 15, 3, 4, 11), (15, 3, 13, 12)),
    ((3, 3, 15, 4, 5, 10), (15, 4, 12, 11)),
    ((3, 3, 15, 5, 6, 9), (15, 5, 11, 10)),
    ((3, 3, 15, 6, 7, 8), (15, 6, 10, 9)),
    ((3, 3, 15, 7, 8, 7), (15, 7, 9, 8)),
    ((3, 3, 15, 8, 9, 6), (15, 8, 8, 7)),
    ((3, 3, 15, 9, 10, 5), (15, 9, 7, 6)),
    ((3, 3, 15, 10, 11, 4), (15, 10, 6, 5)),
    ((3, 3, 15, 11, 12, 3), (15, 11, 5, 4)),
)
# (p, m, n, k1, k2, t) and the published tuple
_TABLE2 = (
    ((11, 5, 5, 3, 2, 2), (5, 2, 3, 1)),
    ((13, 6, 6, 3, 3, 2), (6, 2, 4, 2)),
    ((17, 8, 8, 5, 3, 4), (8, 4, 4, 2)),
)
# README `eaqeckit construct ...` examples and the tuples they print.  The
# README's `eaqeckit --output csv table 2` is one more job, the slowest of a
# pass, so the tail percentile falls inside one job shape.
_README = (
    (("vandermonde", "q=13", "n=12", "k=4", "t=5", "j=7"), (12, 4, 9, 8), "13"),
    (("grs-ext", "q=9", "k=4"), (10, 1, 7, 3), "3^2"),
    (("gabidulin", "q=11^5", "n=5", "k1=3", "k2=2", "t=2"), (5, 2, 3, 1), "11^5"),
)


def _tables(rng: random.Random) -> list[Job]:
    jobs = [_family("vandermonde_family", p, e, (n, k, t, j), *tup)
            for (p, e, n, k, t, j), tup in _TABLE1]
    jobs += [_family("gabidulin_family", p, m, (n, k1, k2, t), *tup)
             for (p, m, n, k1, k2, t), tup in _TABLE2]
    jobs += [_construct(argv, *tup, label) for argv, tup, label in _README]
    rows = tuple(_tuple(*tup, _label(p, m)) for (p, m, *_), tup in _TABLE2)
    wrong = (_tuple(5, 2, 4, 1, "11^5"),) + rows[1:]
    jobs.append(Job("table", ("--output", "csv", "table", "2"),
                    (0, rows, True), (0, wrong, True)))
    return jobs


# ---------------------------------------------------------------------------
# mds-scan: extended GRS and long Vandermonde codes over table-backed fields
# ---------------------------------------------------------------------------

# Shapes whose time is mostly the subset scan of is_mds (70-95% of each job),
# with 1e4 to 1e5 subsets each.
# (p, e, k): [[q+1, 1, q-k+2; q-2k+2]]_q; both codes scan C(q+1, k) subsets.
_GRS = ((2, 4, 7), (19, 1, 5), (2, 4, 6))
# (p, e, n, k, j): C1 scans C(n, min(k, n-k)) subsets, C2 C(n, j+1).  The
# GF(29) shape is the largest job (1e5 subsets) and sets peak memory.  It
# comes three times, with seeded t, so that the tail percentile falls inside
# its samples.  The GF(25) shape, the middle one by cost, comes three times
# too, so that the median falls inside its samples and has enough of them.
_VANDERMONDE = ((29, 1, 28, 3, 4),) * 3 + ((5, 2, 24, 4, 4),) * 3 + (
    (19, 1, 18, 6, 6), (19, 1, 18, 5, 5), (17, 1, 16, 5, 5), (2, 4, 15, 6, 5))


def _mds_scan(rng: random.Random) -> list[Job]:
    jobs = []
    for p, e, k in _GRS:
        q = p**e
        jobs.append(_family("grs_extended_family", p, e, (k,),
                            q + 1, 1, q - k + 2, q - 2 * k + 2))
    for p, e, n, k, j in _VANDERMONDE:
        t = rng.randint(max(1, k + 1 - j), min(k + 1, n - j))
        jobs.append(_family("vandermonde_family", p, e, (n, k, t, j),
                            n, t - 1, min(n - k + 1, j + 2), j - k + t))
    return jobs


# ---------------------------------------------------------------------------
# large-field: Gabidulin codes where only the generic exact path runs
# ---------------------------------------------------------------------------

# (p, m, n); q = p^m > 4096, so there are neither log nor numpy tables.
# GF(2^16), n=7 comes twice: with GF(17^8), n=8 and GF(3^10), n=8 it makes
# four jobs of about the same, largest cost, so the tail percentile falls
# inside their samples.
_GABIDULIN = ((2, 16, 7), (2, 16, 7), (17, 8, 8), (3, 10, 8), (5, 9, 7),
              (2, 16, 6), (3, 10, 7), (17, 8, 7), (5, 9, 6), (13, 6, 6), (11, 5, 5))


def _large_field(rng: random.Random) -> list[Job]:
    jobs = []
    for p, m, n in _GABIDULIN:
        # Middle dimensions, so both codes scan C(n, n//2) subsets; the seed
        # picks only the offset t, which moves almost no work.
        k1, k2 = n - n // 2, n // 2
        t = rng.randint(k1 - k2 + 1, min(k1 - 1, m - k2))
        jobs.append(_family("gabidulin_family", p, m, (n, k1, k2, t),
                            n, t, min(n - k1 + 1, k2 + 1), k2 - k1 + t))
    return jobs


# ---------------------------------------------------------------------------
# verify: the benchmark's own small-field arithmetic and brute force
# ---------------------------------------------------------------------------

class SmallField:
    """GF(p^e) for e <= 3, with dense add and mul tables on enc integers.

    enc(a) = sum c_i p^i over the coefficients of a in the polynomial basis of
    the modulus x^e + tail, where tail = (c_0, ..., c_{e-1}).
    """

    def __init__(self, p: int, e: int):
        if e > 3:
            raise ValueError("root-free test proves irreducibility only for e <= 3")
        self.p, self.e, self.q = p, e, p**e
        self.tail = (0,) if e == 1 else next(
            t for t in (self.digits(v) for v in range(self.q))
            if all((r**e + sum(c * r**i for i, c in enumerate(t))) % p
                   for r in range(p)))
        q = self.q
        self.add = [[self.enc([(x + y) % p for x, y in zip(self.digits(a), self.digits(b))])
                     for b in range(q)] for a in range(q)]
        self.mul = [[self.enc(self._polymul(self.digits(a), self.digits(b)))
                     for b in range(q)] for a in range(q)]

    def digits(self, v: int) -> list[int]:
        out = []
        for _ in range(self.e):
            out.append(v % self.p)
            v //= self.p
        return out

    def enc(self, coeffs) -> int:
        return sum(c * self.p**i for i, c in enumerate(coeffs))

    def _polymul(self, a, b):
        p, e = self.p, self.e
        t = [0] * (2 * e - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                t[i + j] = (t[i + j] + x * y) % p
        for i in range(2 * e - 2, e - 1, -1):  # x^e = -tail
            c, t[i] = t[i], 0
            for j in range(e):
                t[i - e + j] = (t[i - e + j] - c * self.tail[j]) % p
        return t[:e]

    def pow(self, a: int, n: int) -> int:
        out = 1
        for _ in range(n):
            out = self.mul[out][a]
        return out

    def code_text(self, G: list[list[int]]) -> str:
        """The library's code file format: "code n k", then the matrix text."""
        k, n = len(G), len(G[0])
        lines = [f"code {n} {k}", f"{self.p} {self.e} {k} {n}",
                 " ".join(map(str, self.tail))]
        lines += [" ".join(map(str, row)) for row in G]
        return "\n".join(lines) + "\n"


def min_distance_bruteforce(F: SmallField, G: list[list[int]]) -> int:
    """Minimum weight over all q^k - 1 nonzero messages, with numpy tables.

    Messages go in small chunks, so that the oracle, which runs in the
    workload process, stays below eaqeckit's own peak memory.
    """
    import numpy as np
    k = len(G)
    add, mul, rows = np.array(F.add), np.array(F.mul), np.array(G)
    best = rows.shape[1]
    for lo in range(1, F.q**k, 1024):
        msgs = (np.arange(lo, min(lo + 1024, F.q**k))[:, None] // F.q ** np.arange(k)) % F.q
        word = np.zeros((len(msgs), rows.shape[1]), dtype=np.int64)
        for i in range(k):
            word = add[word, mul[msgs[:, i:i + 1], rows[i][None, :]]]
        best = min(best, int((word != 0).sum(axis=1).min()))
    return best


def _systematic(F: SmallField, n: int, k: int, rng: random.Random):
    """[I_k | A] with random A and shuffled columns; rank k by construction."""
    cols = list(range(n))
    rng.shuffle(cols)
    G = [[0] * n for _ in range(k)]
    for i in range(k):
        G[i][cols[i]] = 1
        for c in cols[k:]:
            G[i][c] = rng.randrange(F.q)
    return G


def _reed_solomon(F: SmallField, n: int, k: int, rng: random.Random, dup: bool = False):
    """Evaluation code of degree < k at n distinct points (0^0 = 1).

    With dup, column 0 is appended again, scaled by a nonzero constant: the
    code stays [n+1, k] but is no longer MDS.
    """
    points = rng.sample(range(F.q), n)
    G = [[F.pow(a, i) for a in points] for i in range(k)]
    if dup:
        scale = rng.randrange(1, F.q)
        for row in G:
            row.append(F.mul[scale][row[0]])
    return G


# (p, e, n, k) exhaustive shapes: q^k is within the default budget
_EXHAUSTIVE = ((2, 1, 18, 9), (3, 1, 12, 6), (5, 1, 10, 4), (7, 1, 9, 4),
               (11, 1, 8, 3), (11, 1, 10, 4), (13, 1, 8, 4), (2, 2, 10, 5),
               (2, 3, 9, 4), (3, 2, 8, 4))


def _weight_n_minus_1(F: SmallField, n: int, rng: random.Random):
    """[n, 1, n-1]: one row with a single zero entry, so not MDS."""
    row = [rng.randrange(1, F.q) for _ in range(n)]
    row[rng.randrange(n)] = 0
    return [row]


# over-budget shapes: (p, e, function making the generator matrix, expected method)
_OVER_BUDGET = (
    (13, 1, lambda F, rng: _reed_solomon(F, 12, 4, rng), "mds-columns"),
    (3, 2, lambda F, rng: _reed_solomon(F, 8, 3, rng), "mds-columns"),
    (11, 1, lambda F, rng: _reed_solomon(F, 6, 4, rng, dup=True), "parity-columns"),
    # d = 7 > COLUMN_SEARCH_MAX and not MDS: Infeasible, exit code 5
    (7, 1, lambda F, rng: _weight_n_minus_1(F, 8, rng), None),
)
VERIFY_FIELDS = tuple(sorted({(p, e) for p, e, *_ in _EXHAUSTIVE + _OVER_BUDGET}))


def _verify_job(path, k, claim_k, claim_d, budget, expected) -> Job:
    argv = (() if budget is None else ("--budget", str(budget)))
    argv += ("verify", str(path), "--k", str(claim_k), "--d", str(claim_d))
    code, kk, d, method, verdict = expected
    if d is None:  # no distance in the answer: flip the exit code instead
        wrong = (0 if code == 1 else 1, kk, d, method, verdict)
    else:
        wrong = (code, kk, d + 1, method, verdict)
    return Job("verify", argv, expected, wrong)


def _expected_verdict(n, k, d, q, budget, claim_d):
    if budget is None or q**k <= budget:
        method = "exhaustive"
    elif d == n - k + 1:
        method = "mds-columns"
    elif d <= COLUMN_SEARCH_MAX:
        method = "parity-columns"
    else:
        return (5, None, None, None, None)
    ok = claim_d == d
    return (0 if ok else 1, k, d, method, "confirmed" if ok else "refuted")


def _verify(rng: random.Random, workdir: Path) -> list[Job]:
    fields = {pe: SmallField(*pe) for pe in VERIFY_FIELDS}
    jobs = []

    def write(F, G):
        path = workdir / f"code{len(jobs)}.txt"
        path.write_text(F.code_text(G))
        return path

    for p, e, n, k in _EXHAUSTIVE:
        F = fields[p, e]
        while True:  # d = 1 would end the enumeration after one codeword
            G = _systematic(F, n, k, rng)
            d = min_distance_bruteforce(F, G)
            if d >= 2:
                break
        claim = d if rng.random() < 0.7 else d + rng.choice((-1, 1))
        jobs.append(_verify_job(write(F, G), k, k, claim, None,
                                _expected_verdict(n, k, d, F.q, None, claim)))
    for p, e, build, method in _OVER_BUDGET:
        F = fields[p, e]
        G = build(F, rng)
        k, n = len(G), len(G[0])
        d = min_distance_bruteforce(F, G)
        budget = F.q**k - 1
        expected = _expected_verdict(n, k, d, F.q, budget, d)
        if expected[3] != method:
            raise AssertionError(f"over-budget shape {(p, e, n, k)} gave {expected}")
        jobs.append(_verify_job(write(F, G), k, k, d, budget, expected))
    # a wrong dimension claim is refuted before any distance work
    F = fields[5, 1]
    G = _systematic(F, 10, 4, rng)
    jobs.append(_verify_job(write(F, G), 4, 5, 3, None,
                            (1, 4, None, None, "refuted")))
    return jobs


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------

def fields(workload: str) -> list[tuple[int, int]]:
    """(p, e) of every field the workload builds before its first job."""
    if workload == "verify":
        return list(VERIFY_FIELDS)
    rng = random.Random(0)  # field lists do not depend on the seed
    out = []
    for job in _PLANNERS[workload](rng):
        if job.kind == "family":
            pe = job.call[1:3]
        elif job.kind == "construct":  # README examples
            pe = {"13": (13, 1), "9": (3, 2), "11^5": (11, 5)}[job.call[2][2:]]
        else:  # table 2 uses the fields of its family jobs
            continue
        if pe not in out:
            out.append(pe)
    return out


def make_jobs(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The workload's seeded job list; verify writes its code files to workdir."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "verify":
        return _verify(rng, workdir)
    return _PLANNERS[workload](rng)


def pass_order(n_jobs: int, seed: int, pass_no: int) -> list[int]:
    """Job order of one pass: a seeded permutation, new for every pass."""
    order = list(range(n_jobs))
    random.Random(f"order/{seed}/{pass_no}").shuffle(order)
    return order


_PLANNERS = {"tables": _tables, "mds-scan": _mds_scan, "large-field": _large_field}


def run_job(eaqeckit, job: Job) -> tuple:
    """Run one job through eaqeckit's public API and normalise its output.

    Functions are looked up at call time, so traced wrappers are used when
    they are installed.  An exception becomes an outcome that matches no
    known answer.
    """
    try:
        if job.kind == "family":
            name, p, e, args = job.call
            cert = getattr(eaqeckit, name)(eaqeckit.field_new(p, e), *args)
            return (str(cert.params), cert.verified,
                    cert.pair.c_product == cert.pair.c_stack)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = eaqeckit.cli.main(list(job.call))
        text = out.getvalue()
        if job.kind == "construct":
            cert = json.loads(text)
            c = cert["computed"]
            return (code, _tuple(c["n"], c["k"], c["d"], c["c"], c["q"]),
                    cert["verified"], cert["c_product"] == cert["c_stack"])
        if job.kind == "table":
            rows = list(csv.DictReader(io.StringIO(text)))
            return (code, tuple(r["params"] for r in rows),
                    all(r["c_product"] == r["c_stack"] for r in rows))
        if not text:
            return (code, None, None, None, None)
        r = json.loads(text)
        return (code, r.get("k", r.get("actual_k")), r.get("d"),
                r.get("method"), r.get("verdict"))
    except Exception as exc:  # any exception is a wrong answer, not a crash
        return ("raised", type(exc).__name__, str(exc))
