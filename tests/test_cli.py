import csv
import dataclasses
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from eaqeckit import FMatrix, families, from_generator
from eaqeckit.cli import _FAMILIES, main
from conftest import identity, random_code, time_limit
import random


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestConstruct:
    def test_vandermonde_row(self, capsys):
        code, out, _ = run(capsys, "construct", "vandermonde",
                           "q=13", "n=12", "k=4", "t=5", "j=7")
        assert code == 0
        blob = json.loads(out)
        assert blob["computed"]["c"] == 8 and blob["computed"]["mds"]
        assert blob["verified"]

    def test_grs_text_output(self, capsys):
        code, out, _ = run(capsys, "--output", "text", "construct",
                           "grs-ext", "q=9", "k=4")
        assert code == 0
        assert "[[10,1,7;3]]_3^2" in out and "verified=True" in out

    def test_constraint_exit(self, capsys):
        code, _, err = run(capsys, "construct", "vandermonde",
                           "q=13", "n=12", "k=4", "t=6", "j=7")
        assert code == 2
        assert "t <= k+1 violated: 6 <= 5" in err

    def test_bad_family_params(self, capsys):
        code, _, err = run(capsys, "construct", "grs-ext", "q=9", "n=10")
        assert code == 4 and "missing" in err

    def test_bare_prime_q_is_split_by_roots(self, capsys):
        args = ("--output", "text", "construct", "vandermonde", "n=4", "k=2", "t=2", "j=1")
        code, out, _ = run(capsys, *args, "q=2147483647")
        assert code == 0 and "[[4,1,3;1]]_2147483647" in out
        assert run(capsys, *args, "q=2147483647^1") == (0, out, "")

    def test_q_minus_one_with_large_prime_factors(self, capsys):
        # the primitive element needs the prime factors of q - 1, which for
        # (2^31-1)^3 include 529510939 and 2903110321
        args = ("--output", "text", "construct", "vandermonde", "n=4", "k=2", "t=2", "j=1")
        with time_limit(5, "construct over GF((2^31-1)^3)"):
            code, out, err = run(capsys, *args, "q=2147483647^3")
        assert code == 0 and "[[4,1,3;1]]_2147483647^3" in out, err

    def test_q_minus_one_not_provably_factored(self, capsys):
        # (2^31-1)^5 - 1 has a 110-bit probable-prime cofactor
        with time_limit(5, "construct over GF((2^31-1)^5)"):
            code, out, err = run(capsys, "construct", "vandermonde",
                                 "q=2147483647^5", "n=4", "k=2", "t=2", "j=1")
        assert code == 5 and out == "" and "GF(2147483647^5)" in err

    @pytest.mark.parametrize("q", ["2147483659", "6", "1"])
    def test_bare_q_not_a_supported_prime_power(self, capsys, q):
        code, out, err = run(capsys, "construct", "vandermonde",
                             f"q={q}", "n=4", "k=2", "t=2", "j=1")
        assert code == 4 and out == "" and len(err.splitlines()) == 1

    def test_emit_matrices(self, capsys):
        code, out, _ = run(capsys, "--emit-matrices", "construct",
                           "gabidulin", "q=11^5", "n=5", "k1=3", "k2=2", "t=2")
        assert code == 0
        blob = json.loads(out)
        assert FMatrix.from_text(blob["G1"]).nrows == 3

    def test_repeated_key_rejected(self, capsys):
        code, out, err = run(capsys, "construct", "vandermonde",
                             "q=13", "n=12", "k=4", "t=5", "j=3", "j=7")
        assert code == 4 and out == "" and len(err.splitlines()) == 1
        assert "j given more than once" in err

    def test_parameters_are_certificate_inputs(self, capsys):
        # construct's key=value names after q are the family's parameters
        # after field, and its certificate records them as inputs after q
        cases = {"vandermonde": ("q=13", "n=12", "k=4", "t=5", "j=7"),
                 "grs-ext": ("q=9", "k=4"),
                 "gabidulin": ("q=11^5", "n=5", "k1=3", "k2=2", "t=2")}
        assert sorted(cases) == sorted(_FAMILIES)
        for family, (attr, names) in _FAMILIES.items():
            fn = getattr(families, attr)
            assert names == tuple(inspect.signature(fn).parameters)[1:]
            code, out, _ = run(capsys, "construct", family, *cases[family])
            assert code == 0
            assert tuple(json.loads(out)["inputs"])[1:] == names

    @pytest.mark.parametrize("argv", [
        ("grs-ext", "q=2147483647", "k=1"),
        ("vandermonde", "q=2147483647", "n=100000000", "k=2", "t=2", "j=1"),
    ])
    def test_matrices_over_budget_are_infeasible(self, capsys, argv):
        # (q+2)(q+1) and (t+j)n entries, far past the default budget
        with time_limit(1, "construct " + " ".join(argv)):
            code, out, err = run(capsys, "construct", *argv)
        assert code == 5 and out == "" and len(err.splitlines()) == 1
        assert "entries" in err and "4194304" in err

    def test_json_deterministic(self, capsys):
        args = ("construct", "vandermonde", "q=13", "n=12", "k=5", "t=6", "j=6")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestTable:
    def test_table1_csv(self, capsys):
        code, out, _ = run(capsys, "--output", "csv", "table", "1")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == "q,n,k,t,j,params,c_product,c_stack,slack".split(",")
        assert len(rows) == 15
        assert rows[1] == ["13", "12", "4", "5", "7", "[[12,4,9;8]]_13",
                           "8", "8", "0"]
        assert all(r[-1] == "0" for r in rows[1:])

    def test_table2_csv(self, capsys):
        code, out, _ = run(capsys, "--output", "csv", "table", "2")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == "q,n,k1,k2,t,params,c_product,c_stack,slack".split(",")
        assert [r[5] for r in rows[1:]] == [
            "[[5,2,3;1]]_11^5", "[[6,2,4;2]]_13^6", "[[8,4,4;2]]_17^8"]

    def test_table1_json_all_mds(self, capsys):
        code, out, _ = run(capsys, "table", "1")
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == 14
        assert all(r["verified"] and r["computed"]["mds"] for r in rows)

    @pytest.mark.parametrize("argv", [
        ("table", "1"),
        ("construct", "vandermonde", "q=13", "n=12", "k=4", "t=5", "j=7"),
    ])
    def test_unverified_certificate_exits_one(self, capsys, monkeypatch, argv):
        # table and construct report a certificate that fails verification alike
        family = families.vandermonde_family
        monkeypatch.setattr(families, "vandermonde_family",
                            lambda *args: dataclasses.replace(family(*args), verified=False))
        code, out, err = run(capsys, "--output", "text", *argv)
        assert code == 1 and "verified=False" in out
        if argv[0] == "table":
            assert err.startswith("row 0 failed verification: [[12,4,9;8]]_13")


class TestEbits:
    def _write_pair(self, tmp_path, f13):
        g = f13.primitive_element()
        G1 = FMatrix(f13, [[(g**i) ** c for c in range(12)] for i in range(4)], 12)
        H2 = FMatrix(f13, [[(g**i) ** c for c in range(12)] for i in range(4, 12)], 12)
        g1 = tmp_path / "g1.txt"
        h2 = tmp_path / "h2.txt"
        g1.write_text(G1.to_text())
        h2.write_text(H2.to_text())
        return str(g1), str(h2)

    def test_table_pair(self, capsys, tmp_path, f13):
        g1, h2 = self._write_pair(tmp_path, f13)
        code, out, _ = run(capsys, "ebits", g1, h2)
        assert code == 0
        blob = json.loads(out)
        assert blob["c_product"] == blob["c_stack"] == 8 and blob["agree"]

    def test_text_output(self, capsys, tmp_path, f13):
        g1, h2 = self._write_pair(tmp_path, f13)
        code, out, _ = run(capsys, "--output", "text", "ebits", g1, h2)
        assert code == 0 and out == "c_product=8 c_stack=8 agree\n"

    def test_full_space_zero(self, capsys, tmp_path, f13):
        g1 = tmp_path / "g1.txt"
        h2 = tmp_path / "h2.txt"
        g1.write_text(identity(f13, 4).to_text())
        h2.write_text(FMatrix(f13, [[1, 2, 3, 4]], 4).to_text())
        code, out, _ = run(capsys, "ebits", str(g1), str(h2))
        assert code == 0 and json.loads(out)["c_product"] == 0

    def test_field_mismatch(self, capsys, tmp_path, f13, f9):
        g1 = tmp_path / "g1.txt"
        h2 = tmp_path / "h2.txt"
        g1.write_text(identity(f13, 4).to_text())
        h2.write_text(identity(f9, 4).to_text())
        code, _, err = run(capsys, "ebits", str(g1), str(h2))
        assert code == 4 and "bad input" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "ebits", str(tmp_path / "no.txt"),
                           str(tmp_path / "no2.txt"))
        assert code == 4

    def test_out_of_range_entry(self, capsys, tmp_path, f13):
        g1 = tmp_path / "g1.txt"
        h2 = tmp_path / "h2.txt"
        g1.write_text("13 1 1 3\n0\n1 20 -1\n")
        h2.write_text(FMatrix(f13, [[1, 2, 3]], 3).to_text())
        code, out, err = run(capsys, "ebits", str(g1), str(h2))
        assert code == 4 and out == "" and "bad input" in err

    def test_empty_matrix_file(self, capsys, tmp_path, f13):
        g1 = tmp_path / "g1.txt"
        h2 = tmp_path / "h2.txt"
        g1.write_text("")
        h2.write_text(FMatrix(f13, [[1, 2, 3]], 3).to_text())
        code, out, err = run(capsys, "ebits", str(g1), str(h2))
        assert code == 4 and out == "" and len(err.splitlines()) == 1

    def test_rows_past_header_count(self, capsys, tmp_path, f13):
        g1 = tmp_path / "g1.txt"
        h2 = tmp_path / "h2.txt"
        g1.write_text("13 1 2 3\n0\n1 2 3\n4 5 6\n7 8 9\n")
        h2.write_text(FMatrix(f13, [[1, 2, 3]], 3).to_text())
        code, out, err = run(capsys, "ebits", str(g1), str(h2))
        assert code == 4 and out == "" and len(err.splitlines()) == 1

    def test_short_header(self, capsys, tmp_path):
        g1 = tmp_path / "g1.txt"
        g1.write_text("13 1 2\n0\n1 2 3\n4 5 6\n")
        code, out, err = run(capsys, "ebits", str(g1), str(g1))
        assert code == 4 and out == ""
        assert err.strip() == "bad input: missing 'p e rows cols' header"

    def test_negative_column_count(self, capsys, tmp_path):
        g1 = tmp_path / "g1.txt"
        g1.write_text("13 1 0 -1\n0\n")
        code, out, err = run(capsys, "ebits", str(g1), str(g1))
        assert code == 4 and out == ""
        assert err.strip() == "bad input: negative size in header '13 1 0 -1'"

    def test_code_file_is_not_a_matrix(self, capsys, tmp_path, f13):
        path = tmp_path / "code.txt"
        path.write_text(from_generator(FMatrix(f13, [[1, 2, 3]], 3)).to_text())
        code, out, err = run(capsys, "ebits", str(path), str(path))
        assert code == 4 and out == ""
        assert err.strip() == "bad input: missing 'p e rows cols' header"

    def test_nonprime_field(self, capsys, tmp_path):
        g1 = tmp_path / "g1.txt"
        g1.write_text("4 1 1 3\n0\n1 2 3\n")
        code, out, err = run(capsys, "ebits", str(g1), str(g1))
        assert code == 4 and out == ""
        assert len(err.splitlines()) == 1 and "bad input" in err

    def test_prime_field_modulus_is_normalized(self, capsys, tmp_path, f13):
        # x + 5 and x define the same GF(13); both files name one field
        g1, h2 = self._write_pair(tmp_path, f13)
        text = (tmp_path / "g1.txt").read_text()
        assert text.splitlines()[1] == "0"
        (tmp_path / "g1.txt").write_text(text.replace("\n0\n", "\n5\n", 1))
        code, out, err = run(capsys, "ebits", g1, h2)
        assert code == 0 and err == ""
        assert json.loads(out)["agree"]

    def test_twist_agreement_random(self, capsys, tmp_path, f9):
        rng = random.Random(7)
        for i in range(10):
            C1 = random_code(rng, f9, 5, rng.randint(1, 4))
            C2 = random_code(rng, f9, 5, rng.randint(1, 4))
            g1 = tmp_path / f"g{i}.txt"
            h2 = tmp_path / f"h{i}.txt"
            g1.write_text(C1.G.to_text())
            h2.write_text(C2.H.to_text())
            code, out, _ = run(capsys, "ebits", str(g1), str(h2), "--s", "1")
            assert code == 0 and json.loads(out)["agree"]


class TestHugeHeaders:
    @pytest.mark.parametrize("ncols", [10**12, 3 * 10**6])
    @pytest.mark.parametrize("command", ["ebits", "verify"])
    def test_no_rows_and_huge_width_is_infeasible(self, tmp_path, command, ncols):
        # GF(3^7) with no row: rref used to walk all 10^12 columns, and 3M
        # columns gave a 3M x 3M kernel basis, a MemoryError under the cap
        matrix = f"3 7 0 {ncols}\n2 0 1 0 0 0 0\n"
        path = tmp_path / "z.txt"
        path.write_text(matrix if command == "ebits" else f"code {ncols} 0\n" + matrix)
        argv = ["ebits", str(path), str(path)] if command == "ebits" else ["verify", str(path)]
        src = str(Path(__file__).resolve().parent.parent / "src")

        def cap():
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))

        proc = subprocess.run([sys.executable, "-m", "eaqeckit.cli", *argv], capture_output=True,
                              text=True, timeout=30, preexec_fn=cap,
                              env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 5 and proc.stdout == ""
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("infeasible: ") and "kernel basis" in err[0]


class TestVerify:
    def test_repetition_confirmed(self, capsys, tmp_path, f2):
        path = tmp_path / "rep.txt"
        path.write_text(from_generator(FMatrix(f2, [[1, 1, 1]], 3)).to_text())
        code, out, _ = run(capsys, "verify", str(path), "--d", "3")
        assert code == 0
        blob = json.loads(out)
        assert blob["verdict"] == "confirmed" and blob["method"] == "exhaustive"

    def test_table_code_confirmed(self, capsys, tmp_path, f13):
        g = f13.primitive_element()
        G = FMatrix(f13, [[(g**i) ** c for c in range(12)] for i in range(4)], 12)
        path = tmp_path / "c.txt"
        path.write_text(from_generator(G).to_text())
        code, out, _ = run(capsys, "verify", str(path), "--k", "4", "--d", "9")
        assert code == 0 and json.loads(out)["verdict"] == "confirmed"

    @pytest.mark.parametrize("budget,method", [("169", "exhaustive"), ("168", "mds-columns")])
    def test_budget_boundary(self, capsys, tmp_path, f13, budget, method):
        # 13^2 = 169 messages: a budget of exactly q^k still enumerates
        g = f13.primitive_element()
        G = FMatrix(f13, [[(g**i) ** c for c in range(12)] for i in range(2)], 12)
        path = tmp_path / "c.txt"
        path.write_text(from_generator(G).to_text())
        code, out, _ = run(capsys, "--budget", budget, "verify", str(path), "--d", "11")
        assert code == 0 and json.loads(out)["method"] == method

    def test_bare_scan_takes_no_reduction(self, capsys, tmp_path, monkeypatch, f13):
        # a shift-invariant code read from a file: verify offers no symmetry,
        # so the MDS criterion scans every subset of all 12 columns
        widths = []
        scan = FMatrix.first_dependent_columns
        monkeypatch.setattr(FMatrix, "first_dependent_columns",
                            lambda M, w: widths.append(M.ncols) or scan(M, w))
        g = f13.primitive_element()
        G = FMatrix(f13, [[(g**i) ** c for c in range(12)] for i in range(4)], 12)
        path = tmp_path / "c.txt"
        path.write_text(from_generator(G).to_text())
        code, out, _ = run(capsys, "--budget", "10", "verify", str(path), "--d", "9")
        assert code == 0 and json.loads(out)["method"] == "mds-columns" and widths == [12]

    def test_refuted_with_witness(self, capsys, tmp_path, f13):
        g = f13.primitive_element()
        G = FMatrix(f13, [[(g**i) ** c for c in range(12)] for i in range(4)], 12)
        path = tmp_path / "c.txt"
        path.write_text(from_generator(G).to_text())
        code, out, _ = run(capsys, "verify", str(path), "--d", "10")
        assert code == 1
        blob = json.loads(out)
        assert blob["verdict"] == "refuted"
        word = [f13.element(x) for x in blob["certificate"]]
        assert sum(1 for x in word if x) == 9

    def test_wrong_k_refuted(self, capsys, tmp_path, f2):
        path = tmp_path / "rep.txt"
        path.write_text(from_generator(FMatrix(f2, [[1, 1, 1]], 3)).to_text())
        code, out, _ = run(capsys, "verify", str(path), "--k", "2")
        assert code == 1 and json.loads(out)["verdict"] == "refuted"

    def test_out_of_range_entry(self, capsys, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("code 3 1\n13 1 1 3\n0\n1 20 -1\n")
        code, out, err = run(capsys, "verify", str(path))
        assert code == 4 and out == "" and "bad input" in err

    def test_header_only_code_file(self, capsys, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("code 3 1\n")
        code, out, err = run(capsys, "verify", str(path))
        assert code == 4 and out == "" and len(err.splitlines()) == 1

    def test_bare_matrix_file(self, capsys, tmp_path, f13):
        path = tmp_path / "c.txt"
        path.write_text(FMatrix(f13, [[1, 2, 3]], 3).to_text())
        code, out, err = run(capsys, "verify", str(path))
        assert code == 4 and out == "" and len(err.splitlines()) == 1
        assert "missing 'code n k' header" in err

    def test_rows_past_header_count(self, capsys, tmp_path):
        # three rows under a header that declares two: not the code of the first two
        path = tmp_path / "c.txt"
        path.write_text("code 3 2\n13 1 2 3\n0\n1 0 0\n0 1 0\n0 0 1\n")
        code, out, err = run(capsys, "verify", str(path))
        assert code == 4 and out == "" and len(err.splitlines()) == 1

    def test_zero_code_file(self, capsys, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("code 3 0\n13 1 1 3\n0\n0 0 0\n")
        code, out, err = run(capsys, "verify", str(path))
        assert code == 4 and out == "" and len(err.splitlines()) == 1

    def test_negative_size_header(self, capsys, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("code -1 0\n13 1 0 -1\n0\n")
        code, out, err = run(capsys, "verify", str(path))
        assert code == 4 and out == ""
        assert err.strip() == "bad input: negative size in header '13 1 0 -1'"

    def test_infeasible(self, capsys, tmp_path, f13):
        # MDS [10,4] plus a zero column: d = 7 but not MDS, so with a tiny
        # budget no distance strategy applies
        g = f13.primitive_element()
        rows = [[(g**i) ** c for c in range(10)] + [f13.element(0)] for i in range(4)]
        path = tmp_path / "big.txt"
        path.write_text(from_generator(FMatrix(f13, rows, 11)).to_text())
        code, _, err = run(capsys, "--budget", "10", "verify", str(path))
        assert code == 5 and "infeasible" in err


class TestSelftest:
    def test_default_seed(self, capsys):
        code, out, _ = run(capsys, "selftest", "--trials", "60")
        assert code == 0
        assert "60 trials, 0 failures" in out

    def test_wrong_dual_formula_detected(self, capsys, monkeypatch):
        # galois_dual with exponent s in place of e-s agrees with the true
        # twisted dual only when s = e-s mod e; over GF(8) and GF(27) it does not
        from eaqeckit import cli
        from eaqeckit.lincode import from_generator

        def wrong_dual(C, s):
            return from_generator(C.H.frobenius_entrywise(s % C.field.e))

        monkeypatch.setattr(cli, "galois_dual", wrong_dual)
        code, out, err = run(capsys, "selftest", "--trials", "60")
        assert code == 3
        assert "dual route mismatch" in err and " 0 failures" not in out

    def test_wrong_ebit_formula_detected(self, capsys, monkeypatch):
        from eaqeckit import cli
        real = cli.ebits_stack
        monkeypatch.setattr(cli, "ebits_stack", lambda *args: real(*args) + 1)
        code, out, err = run(capsys, "selftest", "--trials", "5")
        # one failure per twist s of each trial's field
        failures = err.count("formula mismatch")
        assert code == 3 and failures >= 5
        assert f"5 trials, {failures} failures" in out

    def test_other_seed(self, capsys):
        code, out, _ = run(capsys, "--seed", "5", "selftest", "--trials", "40")
        assert code == 0 and "(seed=5)" in out

    def test_negative_trials_is_bad_input(self, capsys):
        code, out, err = run(capsys, "selftest", "--trials", "-3")
        assert code == 4 and out == ""
        assert len(err.splitlines()) == 1 and "bad input" in err


class TestGlobalOptionOrder:
    """--budget, --seed, --output and --emit-matrices before or after the subcommand."""

    @pytest.mark.parametrize("options,command", [
        (("--seed", "1"), ("selftest", "--trials", "30")),
        (("--output", "csv"), ("construct", "vandermonde", "q=13", "n=12", "k=4", "t=5", "j=7")),
        (("--output", "text", "--emit-matrices"), ("construct", "grs-ext", "q=9", "k=4")),
        (("--emit-matrices",), ("table", "2")),
        (("--seed", "2", "--output", "csv"), ("table", "3")),
    ])
    def test_both_orders_agree(self, capsys, options, command):
        before = run(capsys, *options, *command)
        after = run(capsys, *command, *options)
        assert before == after

    def test_budget_after_verify(self, capsys, tmp_path, f13):
        g = f13.primitive_element()
        G = FMatrix(f13, [[(g**i) ** c for c in range(12)] for i in range(2)], 12)
        path = tmp_path / "c.txt"
        path.write_text(from_generator(G).to_text())
        argv = ("verify", str(path), "--d", "11")
        before = run(capsys, "--budget", "168", *argv)
        assert before == run(capsys, *argv, "--budget", "168")
        assert before[0] == 0 and json.loads(before[1])["method"] == "mds-columns"

    def test_value_before_is_not_reset(self, capsys):
        # the subcommand's own copy of each option has no default to write back
        code, out, _ = run(capsys, "--seed", "7", "--output", "csv", "--emit-matrices",
                           "--budget", "5", "selftest", "--trials", "3")
        assert code == 0 and "(seed=7)" in out
        from eaqeckit.cli import build_parser
        args = build_parser().parse_args(["--seed", "7", "--output", "csv", "--emit-matrices",
                                          "--budget", "5", "table", "1"])
        assert (args.seed, args.output, args.emit_matrices, args.budget) == (7, "csv", True, 5)
        args = build_parser().parse_args(["table", "1"])
        assert (args.seed, args.output, args.emit_matrices) == (0, "json", False)

    def test_value_after_wins(self, capsys):
        code, out, _ = run(capsys, "--seed", "7", "selftest", "--trials", "3", "--seed", "8")
        assert code == 0 and "(seed=8)" in out


class TestConfig:
    def test_bad_budget(self, capsys):
        code, _, err = run(capsys, "--budget", "0", "table", "1")
        assert code == 4 and "budget" in err

    @pytest.mark.parametrize("argv", [
        ("table", "3"),
        ("construct", "foo", "q=3"),
        ("verify",),
        ("--budget", "x", "table", "1"),
        ("construct", "vandermonde", "q=13", "n12", "k=4", "t=5", "j=7"),
    ])
    def test_usage_error_is_bad_input(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 4 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("bad input: ")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0 and "construct" in capsys.readouterr().out

    def test_module_entry_point_exit_code(self):
        # python -m eaqeckit.cli runs sys.exit(main())
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "eaqeckit.cli", "table", "3"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 4 and proc.stdout == ""
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith("bad input: ") and "invalid choice" in err[0]
