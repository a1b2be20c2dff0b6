import inspect
import random

import pytest

from eaqeckit import (FMatrix, TABLE1_ROWS, TABLE2_ROWS, ebits_product,
                      ebits_stack, errors, field_new, from_generator,
                      from_parity_check, gabidulin_family, grs_extended_family,
                      grs_extended_generator, grs_extended_spec, is_mds,
                      table1, table2, vandermonde_family)
from eaqeckit import families
from eaqeckit.cli import main
from eaqeckit.families import _certify
from eaqeckit.lincode import _scales_twin
from conftest import is_zero, time_limit


class TestCertify:
    """The one certification path that all three constructions share."""

    def test_certifies_a_table_pair(self, f13):
        cert = vandermonde_family(f13, 12, 4, 5, 7)
        again = _certify("vandermonde", cert.inputs, cert.G1, cert.H2, 4, 4,
                         cert.predicted)
        assert again == cert

    @pytest.mark.parametrize("k1,k2,label", [(5, 4, "dim C1 = 4"), (4, 3, "dim C2 = 4")])
    def test_wrong_dimension_is_a_formula_mismatch(self, f13, k1, k2, label):
        cert = vandermonde_family(f13, 12, 4, 5, 7)
        with pytest.raises(errors.FormulaMismatch, match=label):
            _certify("vandermonde", cert.inputs, cert.G1, cert.H2, k1, k2, cert.predicted)

    def test_non_mds_code_is_a_formula_mismatch(self, f13):
        cert = vandermonde_family(f13, 12, 4, 5, 7)
        G1 = FMatrix(f13, [[1, 0, 0] + [1] * 9, [0, 1, 0] + [2] * 9], 12)
        with pytest.raises(errors.FormulaMismatch, match="C1 failed MDS certification"):
            _certify("vandermonde", cert.inputs, G1, cert.H2, 2, 4, cert.predicted)

    def test_non_mds_code_with_a_scaled_twin_fails_on_c1(self, f13, monkeypatch):
        # C2 = C1 D is the scaled twin of a C1 that is not MDS: it goes with
        # C1 to is_mds, whose scan refuses C1, and C2 gets no call of its own
        cert = vandermonde_family(f13, 12, 4, 5, 7)
        G1 = FMatrix(f13, [[1, 0] + [1] * 10, [0, 1] + [2] * 10], 12)
        scaled = FMatrix(f13, [[f13.mul(x, c + 1) for c, x in enumerate(row)]
                               for row in G1.rows], 12)
        H2 = from_generator(scaled).H
        assert _scales_twin(from_parity_check(H2), from_generator(G1))
        calls = []
        monkeypatch.setattr(families, "is_mds", lambda C, symmetries=(), twin=None:
                            calls.append((C, twin)) or is_mds(C, symmetries, twin))
        with pytest.raises(errors.FormulaMismatch, match="C1 failed MDS certification"):
            _certify("vandermonde", cert.inputs, G1, H2, 2, 2, cert.predicted)
        assert calls == [(from_generator(G1), from_parity_check(H2))]

    def test_non_mds_code_with_a_frobenius_dual_twin_fails_on_c1(self, monkeypatch):
        # H2 = sigma(G1) entrywise, so C2^perp = sigma(C1); C1 is not MDS
        # (columns 2 and 3 are equal) and G1 is no Moore matrix, so the Moore
        # check refuses G1 before H2, and no code is offered to is_mds
        field = field_new(13, 6)
        cert = gabidulin_family(field, 6, 3, 3, 2)
        G1 = FMatrix(field, [[1, 0] + [1] * 4, [0, 1, 2, 2, 3, 4]], 6)
        H2 = G1.frobenius_entrywise(1)
        calls = []
        monkeypatch.setattr(families, "is_mds", lambda *args: calls.append(args))
        with pytest.raises(errors.FormulaMismatch, match="gabidulin G1 is no Moore matrix"):
            _certify("gabidulin", cert.inputs, G1, H2, 2, 4, cert.predicted, moore=True)
        assert calls == []

    @pytest.mark.parametrize("family,p,e,args,scans", [
        ("grs_extended_family", 3, 2, (4,), 1),
        ("vandermonde_family", 13, 1, (12, 4, 5, 7), 1),
    ])
    def test_each_distinct_code_is_proved_once(self, monkeypatch, family, p, e, args, scans):
        # C2 goes to C1's is_mds call as its twin, where the extended-GRS C2
        # (C1 itself, D = I) and the Vandermonde C2 are proved as checked
        # scalings of C1, so one call proves both codes
        calls = []
        monkeypatch.setattr(families, "is_mds", lambda C, symmetries=(), twin=None:
                            calls.append((C, twin, is_mds(C, symmetries, twin)))
                            or calls[-1][2])
        cert = getattr(families, family)(field_new(p, e), *args)
        assert cert.verified
        C1, C2 = cert.pair.C1, cert.pair.C2
        assert len(calls) == scans and calls[0][:2] == (C1, C2) and calls[0][0] is C1
        assert calls[0][2].twin_mds

    @staticmethod
    def reports(monkeypatch):
        out = []
        monkeypatch.setattr(families, "is_mds", lambda C, symmetries=(), twin=None:
                            out.append(is_mds(C, symmetries, twin)) or out[-1])
        return out

    def test_scans_reduced_by_checked_automorphisms(self, monkeypatch):
        # Table 1's GF(13) rows have n = q - 1 (the cyclic shift, column 0);
        # its GF(27) rows have n = 15 != 26 and take none.  Every row's C2 is
        # a checked scaling of its C1, proved in C1's call with no scan.  The
        # extended GRS codes take AGL(1, q) (columns 0 and 1).
        reports = self.reports(monkeypatch)
        table1()
        assert ([(r.fixed, r.twin_mds) for r in reports]
                == [(1, True)] * 4 + [(0, True)] * 10)
        assert all(r.is_mds for r in reports)
        # w = k; the marker column is in no orbit of a point, so w = 1 fixes
        # nothing, w = 2 column 0 and w >= 3 columns 0 and 1
        for p, e, k, fixed in ((2, 4, 7, 2), (19, 1, 5, 2), (3, 2, 1, 0), (13, 1, 2, 1)):
            reports.clear()
            assert grs_extended_family(field_new(p, e), k).verified
            assert [r.fixed for r in reports] == [fixed]
        # Gabidulin pairs are proved from their Moore rows: no scan at all
        reports.clear()
        table2()
        gabidulin_family(field_new(2, 16), 7, 4, 3, 2)
        assert reports == []

    def test_permuted_points_refuse_the_affine_maps(self, monkeypatch, f13):
        # Swapping the columns of the points 1 and 2 in both generators keeps
        # C1 = C2 and MDS, but x -> x + 1 and x -> gamma x no longer fix the
        # code, so the one scan runs in full.
        generator = families.grs_extended_generator

        def swapped(spec):
            rows = [list(r) for r in generator(spec).rows]
            for r in rows:
                r[1], r[2] = r[2], r[1]
            return FMatrix(spec.field, rows, spec.field.q + 1)

        monkeypatch.setattr(families, "grs_extended_generator", swapped)
        reports = self.reports(monkeypatch)
        assert grs_extended_family(f13, 4).verified
        assert [(r.is_mds, r.fixed) for r in reports] == [(True, 0)]

    def test_broken_duality_is_a_duality_failure(self, monkeypatch, capsys, f9):
        # scaling one column of H2 keeps its rank, so both dimensions stay k,
        # but moves ker(H2) off rowspace(G1)
        generator = families.grs_extended_generator

        def skewed(spec):
            M = generator(spec)
            if spec.k == 1 + spec.field.q - 4:  # H2 of k = 4
                g = spec.field.primitive_element().enc
                M = FMatrix(spec.field, [[spec.field.mul(g, r[0]), *r[1:]] for r in M.rows],
                            M.ncols)
            return M

        monkeypatch.setattr(families, "grs_extended_generator", skewed)
        with pytest.raises(errors.DualityFailure):
            grs_extended_family(f9, 4)
        assert main(["construct", "grs-ext", "q=9", "k=4"]) == 3
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("internal mismatch: G1 H2^T != 0")


class TestVandermonde:
    def test_first_table_row(self, f13):
        cert = vandermonde_family(f13, 12, 4, 5, 7)
        p = cert.params
        assert (p.n, p.k, p.d, p.c) == (12, 4, 9, 8)
        assert p.slack == 0 and p.is_mds
        assert cert.verified and cert.predicted == p
        assert cert.pair.c_product == cert.pair.c_stack == 8

    def test_high_distance_row(self, f27):
        cert = vandermonde_family(f27, 15, 2, 3, 12)
        assert str(cert.params) == "[[15,2,14;13]]_3^3"
        assert cert.verified and cert.params.is_mds

    def test_non_mds_instance(self, f13):
        cert = vandermonde_family(f13, 12, 4, 5, 6)
        p = cert.params
        assert (p.d, p.c, p.slack) == (8, 7, 1)
        assert not p.is_mds
        assert cert.verified  # prediction still matches computation

    def test_stacked_rank_is_row_union(self, f13):
        for (k, t, j) in [(4, 5, 7), (5, 6, 6), (3, 4, 5), (4, 5, 4)]:
            cert = vandermonde_family(f13, 12, k, t, j)
            union = len(set(range(1, k + 1)) | set(range(t, t + j + 1)))
            stacked = cert.G1.vstack(cert.H2)
            assert stacked.rank() == union
            assert cert.pair.c_product == j - k + t

    def test_disjoint_row_ranges(self, f13):
        # t = k+1 sits on the constraint boundary; c = j+1
        cert = vandermonde_family(f13, 12, 3, 4, 6)
        assert cert.pair.c_product == 6 - 3 + 4
        assert cert.verified

    def test_both_codes_mds(self, f13):
        cert = vandermonde_family(f13, 12, 5, 6, 6)
        assert is_mds(cert.pair.C1)
        assert is_mds(cert.pair.C2)

    @pytest.mark.parametrize("n,k,t,j,name", [
        (13, 4, 5, 7, "n <= q-1"),
        (12, 0, 5, 7, "0 < k < n"),
        (12, 4, 6, 7, "t <= k+1"),
        (12, 4, 1, 3, "k+1 <= t+j"),
        (12, 4, 5, 8, "t+j <= n"),
    ])
    def test_constraints(self, f13, n, k, t, j, name):
        with pytest.raises(errors.ConstraintViolation, match=name.replace("+", "\\+")):
            vandermonde_family(f13, n, k, t, j)

    @pytest.mark.parametrize("p,e", [(13, 1), (29, 1), (3, 3), (2, 4), (3, 7)])
    def test_node_power_rows_match_pow(self, p, e):
        # the rows are built as entrywise products with the nodes; with
        # t = 1 H2 holds rows 0..n-2 of the node-power matrix
        field = field_new(p, e)
        n, gamma = min(field.q - 1, 12), field.primitive_element().enc
        cert = vandermonde_family(field, n, 3, 1, n - 2)
        powers = [tuple(field.pow(gamma, i * c) for c in range(n)) for i in range(n - 1)]
        assert cert.H2.rows == tuple(powers) and cert.G1.rows == tuple(powers[:3])

    def test_json_shape(self, f13):
        blob = vandermonde_family(f13, 12, 4, 5, 7).to_json(emit_matrices=True)
        assert blob["family"] == "vandermonde"
        assert blob["verified"] and blob["c_product"] == blob["c_stack"] == 8
        assert FMatrix.from_text(blob["G1"]).nrows == 4
        assert FMatrix.from_text(blob["H2"]).nrows == 8


class TestGrsExtended:
    def test_k1_row(self, f9):
        G = grs_extended_generator(grs_extended_spec(f9, 1))
        assert G.nrows == 1 and G.ncols == 10
        assert all(x == f9.one for x in G.rows[0])

    @pytest.mark.parametrize("k", [0, 10])
    def test_k_out_of_range(self, f9, k):
        with pytest.raises(errors.ShapeMismatch, match="out of range for 9 points"):
            grs_extended_generator(grs_extended_spec(f9, k))

    def test_code_is_mds(self):
        for p, e, k in [(5, 1, 2), (7, 1, 3), (3, 2, 4)]:
            field = field_new(p, e)
            from eaqeckit import from_generator, min_distance
            code = from_generator(grs_extended_generator(grs_extended_spec(field, k)))
            assert (code.n, code.k) == (field.q + 1, k)
            assert is_mds(code)
            assert min_distance(code).d == field.q - k + 2

    @pytest.mark.parametrize("p,e", [(5, 1), (7, 1), (3, 2)])
    def test_orthogonality(self, p, e):
        field = field_new(p, e)
        q = field.q
        for k in range(1, (q + 2) // 2):
            G = grs_extended_generator(grs_extended_spec(field, k))
            H = grs_extended_generator(grs_extended_spec(field, q - k + 1))
            assert is_zero(G @ H.transpose())

    def test_f9_example(self, f9):
        cert = grs_extended_family(f9, 4)
        p = cert.params
        assert (p.n, p.k, p.d, p.c) == (10, 1, 7, 3)
        assert cert.verified and p.is_mds

    def test_f11_example(self):
        cert = grs_extended_family(field_new(11, 1), 3)
        assert str(cert.params) == "[[12,1,10;7]]_11"
        assert cert.verified

    def test_logical_dim_always_one(self):
        field = field_new(7, 1)
        for k in range(1, 4):
            cert = grs_extended_family(field, k)
            assert cert.params.k == 1
            assert cert.pair.c_product == field.q - 2 * k + 2

    def test_rejects_large_k(self):
        with pytest.raises(errors.ConstraintViolation, match="ceil"):
            grs_extended_family(field_new(17, 1), 10)

    def test_boundary_k_is_self_dual(self):
        # at k = (q+1)/2 both generators coincide: the code is self-dual,
        # needs no ebits and has no logical qubit, so the family excludes it
        field = field_new(17, 1)
        k = (field.q + 1) // 2
        G1 = grs_extended_generator(grs_extended_spec(field, k))
        H2 = grs_extended_generator(grs_extended_spec(field, field.q - k + 1))
        assert G1 == H2
        assert is_zero(G1 @ G1.transpose())
        C1, C2 = from_generator(G1), from_parity_check(H2)
        assert ebits_product(C1, C2, 0) == ebits_stack(C1, C2, 0) == 0
        with pytest.raises(errors.ConstraintViolation, match="ceil"):
            grs_extended_family(field, k)

    def test_rejects_k_zero(self, f9):
        with pytest.raises(errors.ConstraintViolation):
            grs_extended_family(f9, 0)


class TestGabidulin:
    def test_table2_first_row(self):
        cert = gabidulin_family(field_new(11, 5), 5, 3, 2, 2)
        p = cert.params
        assert (p.n, p.k, p.d, p.c) == (5, 2, 3, 1)
        assert cert.verified and p.is_mds

    def test_table2_remaining_rows(self):
        cert = gabidulin_family(field_new(13, 6), 6, 3, 3, 2)
        assert str(cert.params) == "[[6,2,4;2]]_13^6" and cert.verified
        cert = gabidulin_family(field_new(17, 8), 8, 5, 3, 4)
        assert str(cert.params) == "[[8,4,4;2]]_17^8" and cert.verified

    def test_stacked_rank_identity(self):
        field = field_new(3, 6)
        for (n, k1, k2, t) in [(6, 3, 3, 2), (5, 3, 2, 2), (6, 4, 3, 2)]:
            cert = gabidulin_family(field, n, k1, k2, t)
            assert cert.G1.vstack(cert.H2).rank() == t + k2
            assert cert.pair.c_product == k2 - k1 + t

    def test_constraints(self):
        field = field_new(3, 4)
        with pytest.raises(errors.ConstraintViolation, match="n <= m"):
            gabidulin_family(field, 5, 3, 2, 2)
        with pytest.raises(errors.ConstraintViolation, match="t <= k1-1"):
            gabidulin_family(field, 4, 2, 2, 2)
        with pytest.raises(errors.ConstraintViolation, match="k1-t\\+1 <= k2"):
            gabidulin_family(field, 4, 3, 1, 2)
        with pytest.raises(errors.ConstraintViolation, match="k2 <= m-t"):
            gabidulin_family(field, 4, 4, 3, 3)


# (p, m, n, k1, k2, t) of every Gabidulin pair that the goldens, Table 2 and
# the no-numpy CI job construct
GABIDULIN_SHAPES = sorted({
    (11, 5, 5, 3, 2, 2), (17, 8, 8, 4, 4, 3), (2, 16, 6, 3, 3, 2),  # goldens
    (13, 6, 6, 3, 3, 2), (17, 8, 8, 5, 3, 4),  # the rest of Table 2
    (3, 10, 8, 4, 4, 1), (2, 16, 7, 4, 3, 2),  # the rest of the no-numpy job
})
# the 11 large-field benchmark jobs (GF(2^16) n = 7 twice), k1 = n - n//2 and
# k2 = n//2, at every offset t that a seed can draw
LARGE_FIELD_SHAPES = [
    (p, m, n, k1, k2, t)
    for p, m, n in ((2, 16, 7), (17, 8, 8), (3, 10, 8), (5, 9, 7), (2, 16, 6), (3, 10, 7),
                    (17, 8, 7), (5, 9, 6), (13, 6, 6), (11, 5, 5))
    for k1, k2 in [(n - n // 2, n // 2)]
    for t in range(k1 - k2 + 1, min(k1 - 1, m - k2) + 1)]


def shape_id(shape):
    return "-".join(map(str, shape))


def frobenius_rows(field, g, powers):
    """The rows g^(p^i), i in powers, built entry by entry with no check."""
    return FMatrix(field, [[field.frobenius(x, i) for x in g] for i in powers], len(g))


class TestMooreProof:
    """A Gabidulin G1 or H2 is proved by rebuilding it from its own row 0 with
    moore_matrix; no pair goes to is_mds, and every planted defect is a
    FormulaMismatch that names the matrix."""

    @pytest.fixture(autouse=True)
    def no_scan(self, monkeypatch):
        def scan(*args):
            raise AssertionError("a Gabidulin pair went to is_mds")
        monkeypatch.setattr(families, "is_mds", scan)

    @staticmethod
    def certify(G1, H2):
        """_certify's Moore proof at the codes' own dimensions."""
        return _certify("gabidulin", {}, G1, H2, G1.rank(), H2.ncols - H2.rank(), None,
                        moore=True)

    @classmethod
    def refused(cls, G1, H2, label, match=""):
        with pytest.raises(errors.FormulaMismatch,
                           match=f"gabidulin {label} is no Moore matrix: .*{match}"):
            cls.certify(G1, H2)

    PLANTED = [(2, 16, 6, 3, 3, 2), (17, 8, 8, 5, 3, 4), (3, 10, 8, 4, 4, 1)]

    @staticmethod
    def pair(p, m, n, k1, k2, t):
        cert = gabidulin_family(field_new(p, m), n, k1, k2, t)
        return cert.G1.field, cert.G1, cert.H2

    def test_takes_no_twist(self):
        assert "twist" not in inspect.signature(_certify).parameters

    @pytest.mark.parametrize("shape", PLANTED, ids=shape_id)
    def test_family_pair_is_accepted(self, shape):
        _, G1, H2 = self.pair(*shape)
        assert self.certify(G1, H2).pair.C2 == from_parity_check(H2)

    @pytest.mark.parametrize("shape", PLANTED, ids=shape_id)
    def test_dependent_generators_are_refused(self, shape):
        p, m, n, k1, k2, t = shape
        field = field_new(p, m)
        g = [1, p, 1 + p] + [p**i for i in range(2, n - 1)]  # x^0 + x^1 = g_2
        self.refused(frobenius_rows(field, g, range(k1)),
                     frobenius_rows(field, g, range(t, t + k2)), "G1", "dependent")
        _, G1, _ = self.pair(*shape)
        self.refused(G1, frobenius_rows(field, g, range(t, t + k2)), "H2", "dependent")

    @pytest.mark.parametrize("shape", PLANTED, ids=shape_id)
    @pytest.mark.parametrize("label", ["G1", "H2"])
    def test_one_changed_entry_is_refused(self, shape, label):
        field, G1, H2 = self.pair(*shape)
        M = G1 if label == "G1" else H2
        rng = random.Random(str(shape))
        for i, c in ((0, 0), (M.nrows - 1, M.ncols - 1),
                     (rng.randrange(M.nrows), rng.randrange(M.ncols))):
            rows = [list(row) for row in M.rows]
            rows[i][c] = field.add(rows[i][c], rng.randrange(1, field.q))
            changed = FMatrix(field, rows, M.ncols)
            self.refused(*((changed, H2) if label == "G1" else (G1, changed)), label,
                         "Frobenius image")

    @pytest.mark.parametrize("shape", PLANTED, ids=shape_id)
    def test_swapped_rows_are_refused(self, shape):
        # the swap keeps the code, but the matrix is no longer a Moore matrix
        field, G1, H2 = self.pair(*shape)
        for i, j in ((0, 1), (0, G1.nrows - 1)):
            rows = list(G1.rows)
            rows[i], rows[j] = rows[j], rows[i]
            self.refused(FMatrix(field, rows, G1.ncols), H2, "G1")

    @pytest.mark.parametrize("shape", PLANTED, ids=shape_id)
    def test_skipped_or_shifted_power_is_refused(self, shape):
        p, m, n, k1, k2, t = shape
        field, G1, H2 = self.pair(*shape)
        g = [p**i for i in range(n)]
        wrong_last = list(range(t, t + k2))
        wrong_last[-1] += m // 2
        for powers in ([t] + list(range(t + 2, t + k2 + 1)),  # skips t+1
                       list(range(t, t + k2 - 1)) + [t + k2],  # skips t+k2-1
                       wrong_last):
            self.refused(G1, frobenius_rows(field, g, powers), "H2", "Frobenius image")
        # the whole of H2 at another offset is a Moore matrix on sigma^s(g),
        # independent as g is, so it is accepted, and its C2 is MDS
        other = frobenius_rows(field, g, range(t + 1, t + 1 + k2))
        assert self.certify(G1, other).pair.C2 == from_parity_check(other)
        assert is_mds(from_parity_check(other)).is_mds

    def test_length_past_the_degree_is_refused(self):
        field = field_new(2, 4)
        g = [1, 2, 4, 8, 3]  # n = 5 > m = 4
        self.refused(frobenius_rows(field, g, range(2)), frobenius_rows(field, g, range(1, 4)),
                     "G1", "n=5 generators but extension degree m=4")

    @pytest.mark.parametrize("shape", GABIDULIN_SHAPES + LARGE_FIELD_SHAPES, ids=shape_id)
    def test_verdict_agrees_with_is_mds(self, shape):
        p, m, n, k1, k2, t = shape
        cert = gabidulin_family(field_new(p, m), n, k1, k2, t)
        assert cert.verified and cert.params.is_mds
        assert is_mds(cert.pair.C1).is_mds and is_mds(cert.pair.C2).is_mds

    def test_rows_are_built_once(self, monkeypatch):
        # one Moore matrix holds G1 and H2; each is then rebuilt from its row 0
        calls = []
        build = families.moore_matrix
        monkeypatch.setattr(families, "moore_matrix", lambda field, g, k, t=0:
                            calls.append((tuple(g), k, t)) or build(field, g, k, t))
        cert = gabidulin_family(field_new(2, 16), 7, 4, 3, 2)
        assert calls == [(tuple(2**i for i in range(7)), 5, 0),
                         (cert.G1.rows[0], 4, 0), (cert.H2.rows[0], 3, 0)]

    def test_no_pair_scans(self):
        assert all(cert.verified for cert in table2())
        for p, m, n, k1, k2, t in LARGE_FIELD_SHAPES:
            assert gabidulin_family(field_new(p, m), n, k1, k2, t).verified
        # with both codes scanned this pair took 0.28-0.45 s on a 2-vCPU VM,
        # and 0.013-0.11 s with the Moore check
        with time_limit(1, "gabidulin q=2^16 n=16 k1=8 k2=8 t=1"):
            assert gabidulin_family(field_new(2, 16), 16, 8, 8, 1).verified


class TestTables:
    def test_table1_all_verified(self):
        certs = table1()
        assert len(certs) == len(TABLE1_ROWS) == 14
        assert all(c.verified for c in certs)
        assert all(c.params.slack == 0 for c in certs)
        assert str(certs[0].params) == "[[12,4,9;8]]_13"

    def test_table1_published_tuples(self):
        got = [(c.params.n, c.params.k, c.params.d, c.params.c) for c in table1()]
        expect = [(12, 4, 9, 8), (12, 5, 8, 7), (12, 6, 7, 6), (12, 8, 5, 4)]
        expect += [(15, k, 16 - k, 15 - k) for k in range(2, 12)]
        assert got == expect

    def test_table2_all_verified(self):
        certs = table2()
        assert [str(c.params) for c in certs] == [
            "[[5,2,3;1]]_11^5", "[[6,2,4;2]]_13^6", "[[8,4,4;2]]_17^8"]
        assert all(c.verified and c.params.slack == 0 for c in certs)
