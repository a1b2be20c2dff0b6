"""Byte-identical stdout of the CLI against committed golden captures.

Each case is one ``eaqeckit`` command line; its stdout must equal the file
``tests/golden/<name>.out`` byte for byte, and its exit code, a stable
contract, the one listed.  The code files read by the ``verify`` cases live in
the same directory and reach every ``min_distance`` route: exhaustive
enumeration, the MDS column criterion and the dependent parity-check column
search, the last two over a field with numpy tables (GF(11), GF(13)) and one
without (GF(2^11)).
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
    "construct_grs_ext": (("construct", "grs-ext", "q=9", "k=4"), 0),
    "construct_vandermonde_emit_matrices": (("--emit-matrices", "construct", "vandermonde",
                                            "q=13", "n=12", "k=4", "t=5", "j=7"), 0),
    "construct_grs_ext_emit_matrices": (("--emit-matrices", "construct", "grs-ext", "q=9", "k=4"),
                                        0),
    "construct_gabidulin": (("construct", "gabidulin", "q=11^5", "n=5", "k1=3", "k2=2", "t=2"), 0),
    "verify_exhaustive_gf9": (("verify", "exhaustive_gf9.txt"), 0),
    "verify_exhaustive_gf2": (("verify", "exhaustive_gf2.txt", "--d", "3"), 0),
    "verify_mds_gf13": (("--budget", "10", "verify", "mds_gf13.txt", "--k", "4", "--d", "9"), 0),
    "verify_mds_gf2048": (("verify", "mds_gf2048.txt", "--d", "5"), 0),
    "verify_parity_gf11": (("--budget", "10", "verify", "parity_gf11.txt"), 0),
    "verify_parity_gf2048": (("verify", "parity_gf2048.txt", "--d", "2"), 1),
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
