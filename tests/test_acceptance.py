"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL line
to the real stdout (bypassing capture) so the verdicts are visible in any
run mode.  Runtime limits are asserted where the criterion pins one.
"""
import itertools
import random
import sys
import time

from eaqeckit import (ebits_product, ebits_stack, errors, field_new,
                      from_generator, galois_dual,
                      grs_extended_family, is_mds, is_mrd, min_distance,
                      min_rank_distance_exhaustive, moore_matrix,
                      FMatrix, table1, table2, vandermonde_family)
from conftest import intersection_basis_bruteforce, random_code

COLLECTED_PARAMS = []  # every assembled tuple seen by the earlier criteria


def report(capsys, number, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"CRITERION {number}: {verdict} - {detail}", flush=True)
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_table1_reproduction(capsys):
    start = time.perf_counter()
    certs = table1()
    elapsed = time.perf_counter() - start
    got = [str(c.params) for c in certs]
    expect = ["[[12,4,9;8]]_13", "[[12,5,8;7]]_13", "[[12,6,7;6]]_13",
              "[[12,8,5;4]]_13"]
    expect += [f"[[15,{k},{16 - k};{15 - k}]]_3^3" for k in range(2, 12)]
    ok = (got == expect
          and all(c.pair.c_product == c.pair.c_stack for c in certs)
          and all(c.params.slack == 0 for c in certs)
          and all(is_mds(c.pair.C1) and is_mds(c.pair.C2) for c in certs)
          and elapsed < 10.0)
    COLLECTED_PARAMS.extend(c.params for c in certs)
    report(capsys, 1, ok, f"14 published tuples, slack 0, both ebit formulas agree "
                  f"({elapsed:.2f}s < 10s)")


def test_criterion_2_table2_reproduction(capsys):
    start = time.perf_counter()
    certs = table2()
    elapsed = time.perf_counter() - start
    got = [str(c.params) for c in certs]
    expect = ["[[5,2,3;1]]_11^5", "[[6,2,4;2]]_13^6", "[[8,4,4;2]]_17^8"]
    # distance certificates must be structural (column criterion), never
    # exhaustive enumeration over the huge fields
    structural = all(c.params.slack == 0 for c in certs)
    ok = got == expect and structural and elapsed < 30.0
    COLLECTED_PARAMS.extend(c.params for c in certs)
    report(capsys, 2, ok, f"3 rank-metric tuples, slack 0, column-criterion "
                  f"certification ({elapsed:.2f}s < 30s)")


# Published extended evaluation examples [[q+1, 1, q-k+2; q-2k+2]]_q.  Their
# d and c each fix k, and the construction must reproduce them verbatim.
GRS_REPRODUCIBLE = [(3, 2, "[[10,1,7;3]]_3^2"),
                    (11, 1, "[[12,1,10;7]]_11"),
                    (13, 1, "[[14,1,9;3]]_13")]
# Published as well, with its EA-Singleton slack: d implies k=11, c implies
# 2k=18, so no k fits it and it is no EAQEC MDS code.
GRS_INCONSISTENT = [(17, 1, "[[18,1,8;1]]_17", 4)]


def test_criterion_3_extended_grs_examples(capsys):
    start = time.perf_counter()
    failures = []
    for p, e, target in GRS_REPRODUCIBLE:
        field = field_new(p, e)
        k_from_d, k_from_c = _grs_k(field.q, target)
        if k_from_d != k_from_c:
            failures.append(f"{target}: d implies k={k_from_d} but c implies "
                            f"k={k_from_c:g}; inconsistent tuple")
            continue
        try:
            cert = grs_extended_family(field, k_from_d)
        except Exception as exc:
            failures.append(f"{target}: {exc}")
            continue
        if str(cert.params) != target or not cert.verified:
            failures.append(f"{target}: got {cert.params}")
        else:
            COLLECTED_PARAMS.append(cert.params)
    for p, e, target, slack in GRS_INCONSISTENT:
        field = field_new(p, e)
        q = field.q
        n, k, d, c = _parse_quad(target)
        if (n - k + c) - 2 * (d - 1) != slack:
            failures.append(f"{target}: slack is not {slack}")
        k_from_d, k_from_c = _grs_k(q, target)
        if k_from_d == k_from_c:
            failures.append(f"{target}: d and c agree on k; not inconsistent")
        # the construction over the same field: every admissible k is
        # certified by the closed form, and none gives the published tuple
        half = (q + 2) // 2  # ceil((q+1)/2)
        for k in range(1, half):
            cert = grs_extended_family(field, k)
            expect = f"[[{q + 1},1,{q - k + 2};{q - 2 * k + 2}]]_{field.label}"
            if not cert.verified or str(cert.params) != expect or expect == target:
                failures.append(f"GF({q}) k={k}: got {cert.params} (verified="
                                f"{cert.verified}), expected {expect}")
            else:
                COLLECTED_PARAMS.append(cert.params)
        try:
            grs_extended_family(field, half)
            failures.append(f"GF({q}) k={half}: no ConstraintViolation")
        except errors.ConstraintViolation:
            pass
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    report(capsys, 3, ok, f"{len(GRS_REPRODUCIBLE)} extended evaluation tuples "
                  f"reproduced with duality check; {len(GRS_INCONSISTENT)} "
                  f"inconsistent tuple checked as not MDS, its field certified "
                  f"for every admissible k ({elapsed:.2f}s < 10s)"
                  + (f"; failures: {failures}" if failures else ""))


def _grs_k(q, target):
    """The dimension k that the tuple's d and, separately, its c imply."""
    _, _, d, c = _parse_quad(target)
    return q - d + 2, (q + 2 - c) / 2


def _parse_quad(text):
    inner = text[2:text.index("]]")]
    nk, d_c = inner.split(";")
    n, k, d = (int(x) for x in nk.split(","))
    return n, k, d, int(d_c)


def test_criterion_4_formula_equivalence(capsys):
    start = time.perf_counter()
    shapes = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (13, 1), (3, 3)]
    rng = random.Random(4)
    pairs = 0
    mismatches = 0
    while pairs < 500:
        p, e = shapes[rng.randrange(len(shapes))]
        field = field_new(p, e)
        n = rng.randint(2, 12)
        C1 = random_code(rng, field, n, rng.randint(1, n))
        C2 = random_code(rng, field, n, rng.randint(1, n))
        pairs += 1
        for s in range(e):
            cp = ebits_product(C1, C2, s)
            if cp != ebits_stack(C1, C2, s):
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 60.0
    report(capsys, 4, ok, f"{pairs} random pairs over 8 fields, all twists, "
                  f"{mismatches} mismatches ({elapsed:.2f}s < 60s)")


def test_criterion_5_dual_twist_commutation(capsys):
    shapes = [(2, 2), (3, 2), (2, 3), (3, 3)]
    rng = random.Random(5)
    checked = 0
    failures = 0
    while checked < 200:
        p, e = shapes[rng.randrange(len(shapes))]
        field = field_new(p, e)
        n = rng.randint(2, 8)
        C = random_code(rng, field, n, rng.randint(1, n))
        checked += 1
        for s in range(e):
            t = (e - s) % e
            twisted = from_generator(C.G.frobenius_entrywise(t))
            dual = galois_dual(C, 0)
            if galois_dual(twisted, 0) != from_generator(dual.G.frobenius_entrywise(t)):
                failures += 1
    ok = failures == 0
    report(capsys, 5, ok, f"{checked} random codes, twisted dual equals dual of "
                  f"twist in canonical form, {failures} failures")


def test_criterion_6_intersection_oracle(capsys):
    shapes = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]
    rng = random.Random(6)
    checked = 0
    failures = 0
    while checked < 200:
        p, e = shapes[rng.randrange(len(shapes))]
        field = field_new(p, e)
        n = rng.randint(2, 5)
        C1 = random_code(rng, field, n, rng.randint(1, n))
        C2 = random_code(rng, field, n, rng.randint(1, n))
        s = rng.randrange(e)
        dual = galois_dual(C2, s)
        if field.q**dual.k > 2**10:
            continue
        checked += 1
        if ebits_stack(C1, C2, s) != (n - C2.k) - intersection_basis_bruteforce(
                C1, dual).nrows:
            failures += 1
    ok = failures == 0
    report(capsys, 6, ok, f"{checked} in-budget pairs, rank identity matches "
                  f"brute-force intersection basis, {failures} failures")


def test_criterion_7_mds_cross_validation(capsys):
    rng = random.Random(7)
    shapes = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (7, 1), (13, 1)]
    checked = 0
    failures = 0
    for _ in range(150):
        p, e = shapes[rng.randrange(len(shapes))]
        field = field_new(p, e)
        n = rng.randint(2, 8)
        C = random_code(rng, field, n, rng.randint(1, n))
        if field.q**C.k > 2**16:
            continue
        checked += 1
        d = min_distance(C, budget=2**16).d
        if bool(is_mds(C)) != (d == C.n - C.k + 1):
            failures += 1
    # the published [12,4] code: exhaustive search must return d = 9
    g13 = field_new(13, 1)
    gamma = g13.primitive_element()
    G = FMatrix(g13, [[(gamma**i) ** c for c in range(12)] for i in range(4)], 12)
    table_code = from_generator(G)
    table_report = min_distance(table_code)
    table_ok = (table_report.method == "exhaustive" and table_report.d == 9
                and bool(is_mds(table_code)))
    ok = failures == 0 and table_ok
    report(capsys, 7, ok, f"{checked} codes with q^k <= 2^16 cross-validated, "
                  f"{failures} failures; [12,4] code d=9 exhaustive: {table_ok}")


def test_criterion_8_gabidulin_mrd(capsys):
    start = time.perf_counter()
    field = field_new(2, 4)
    b = field.primitive_element()
    g = tuple(b**i for i in range(4))
    results = []
    for k in (1, 2, 3):
        code = from_generator(moore_matrix(field, g, k))
        dr = min_rank_distance_exhaustive(code)
        results.append(dr == 4 - k + 1 and bool(is_mrd(code))
                       and bool(is_mds(code)))
    elapsed = time.perf_counter() - start
    ok = all(results) and elapsed < 5.0
    report(capsys, 8, ok, f"F_16 length-4 rank-metric codes k=1..3: min rank distance "
                  f"n-k+1 and MDS ({elapsed:.2f}s < 5s)")


def test_criterion_9_singleton_bound(capsys):
    # the tuples assembled by the earlier criteria plus fresh random pairs,
    # k and c from assemble and d the lesser min_distance of the two codes
    from eaqeckit import EaqecParams, assemble
    rng = random.Random(9)
    params = list(COLLECTED_PARAMS)
    for _ in range(100):
        field = field_new(*[(2, 1), (3, 1), (2, 2), (3, 2)][rng.randrange(4)])
        n = rng.randint(2, 5)
        C1 = random_code(rng, field, n, rng.randint(1, n))
        C2 = random_code(rng, field, n, rng.randint(1, n))
        pair = assemble(C1, C2, rng.randrange(field.e))
        d = min(min_distance(C1).d, min_distance(C2).d)
        params.append(EaqecParams.build(field, n, pair.k, d, pair.c_product))
    in_range = [p for p in params if 0 <= p.c <= p.n - 1]
    violations = [p for p in in_range if p.slack < 0]
    ok = not violations and len(in_range) >= 100
    report(capsys, 9, ok, f"{len(in_range)} assembled tuples with 0 <= c <= n-1, "
                  f"{len(violations)} bound violations")
