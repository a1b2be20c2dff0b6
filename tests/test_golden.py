"""Byte-identical stdout of the CLI against committed golden captures.

Each case is one ``eaqeckit`` command line; its stdout must equal the file
``tests/golden/<name>.out`` byte for byte, and its exit code, a stable
contract, the one listed.  The code files read by the ``verify`` cases live in
the same directory and reach every ``min_distance`` route: exhaustive
enumeration, the MDS column criterion and the dependent parity-check column
search, the last two over a field with numpy tables (GF(11), GF(13)) and two
without: GF(2^11) and GF(3^7).  The GF(3^7) files (q = 2187, odd p) pin the
Kronecker row layout byte for byte: an exhaustive k = 1 code whose
certificate codeword is its RREF row, an MDS code and a non-MDS code with
its dependent parity-check columns; their outputs were captured before that
layout existed.
"""
import contextlib
import io
from pathlib import Path

import pytest

from eaqeckit.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> (argv, exit code)
CASES = {
    "table1_json": (("table", "1"), 0),
    "table1_csv": (("--output", "csv", "table", "1"), 0),
    "table2_json": (("table", "2"), 0),
    "table2_csv": (("--output", "csv", "table", "2"), 0),
    "table2_emit_matrices": (("--emit-matrices", "table", "2"), 0),
    "construct_vandermonde": (("construct", "vandermonde", "q=13", "n=12", "k=4", "t=5", "j=7"),
                              0),
    # the one case with dim C2 < dim C1 (3 < 8): H1 H2^T is 4 x 9, H2 the sparser kernel basis
    "construct_vandermonde_dim_c2_below_c1_emit_matrices": (
        ("--emit-matrices", "construct", "vandermonde", "q=13", "n=12", "k=8", "t=2", "j=8"), 0),
    "construct_grs_ext": (("construct", "grs-ext", "q=9", "k=4"), 0),
    "construct_vandermonde_emit_matrices": (("--emit-matrices", "construct", "vandermonde",
                                            "q=13", "n=12", "k=4", "t=5", "j=7"), 0),
    "construct_grs_ext_emit_matrices": (("--emit-matrices", "construct", "grs-ext", "q=9", "k=4"),
                                        0),
    "construct_gabidulin": (("construct", "gabidulin", "q=11^5", "n=5", "k1=3", "k2=2", "t=2"), 0),
    "construct_gabidulin_csv": (("--output", "csv", "construct", "gabidulin",
                                 "q=11^5", "n=5", "k1=3", "k2=2", "t=2"), 0),
    # k1 = k2 pairs, whose C2 is the Frobenius twist of C1's dual: packed odd-p
    # rows and GF(2^e) bit vectors, captured while C2 still took its own scan
    "construct_gabidulin_frobenius_dual_emit_matrices": (
        ("--emit-matrices", "construct", "gabidulin", "q=17^8", "n=8", "k1=4", "k2=4", "t=3"), 0),
    "construct_gabidulin_frobenius_dual_gf65536_csv": (
        ("--output", "csv", "construct", "gabidulin", "q=2^16", "n=6", "k1=3", "k2=3", "t=2"), 0),
    # the modulus (line 2 of each matrix) and the node powers of the primitive
    # element, captured before the root pre-filter of the modulus search and
    # the norms of linear candidates read from the modulus: GF(5^9) takes
    # its modulus after 34 candidates and has the linear generator x (enc 5),
    # GF(17^8) the quadratic one x^2 + x + 1 (enc 307)
    "construct_vandermonde_gf5e9_emit_matrices": (
        ("--emit-matrices", "construct", "vandermonde", "q=5^9", "n=6", "k=2", "t=2", "j=3"), 0),
    "construct_vandermonde_gf17e8_emit_matrices": (
        ("--emit-matrices", "construct", "vandermonde", "q=17^8", "n=6", "k=2", "t=2", "j=3"), 0),
    "verify_exhaustive_gf9": (("verify", "exhaustive_gf9.txt"), 0),
    "verify_exhaustive_gf2": (("verify", "exhaustive_gf2.txt", "--d", "3"), 0),
    "verify_mds_gf13": (("--budget", "10", "verify", "mds_gf13.txt", "--k", "4", "--d", "9"), 0),
    "verify_mds_gf2048": (("verify", "mds_gf2048.txt", "--d", "5"), 0),
    "verify_parity_gf11": (("--budget", "10", "verify", "parity_gf11.txt"), 0),
    "verify_parity_gf2048": (("verify", "parity_gf2048.txt", "--d", "2"), 1),
    "verify_exhaustive_gf2187": (("verify", "exhaustive_gf2187.txt"), 0),
    "verify_mds_gf2187": (("--budget", "10", "verify", "mds_gf2187.txt", "--k", "3", "--d", "6"),
                          0),
    "verify_parity_gf2187": (("--budget", "10", "verify", "parity_gf2187.txt"), 0),
}


def run_case(argv) -> tuple[str, int]:
    """stdout and exit code of one command, with code-file names resolved in GOLDEN."""
    argv = [str(GOLDEN / a) if a.endswith(".txt") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return out.getvalue(), code


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name):
    argv, code = CASES[name]
    assert run_case(argv) == ((GOLDEN / f"{name}.out").read_text(), code)
