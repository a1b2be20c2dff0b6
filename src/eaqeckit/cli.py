"""Command-line front end.

Subcommands:
    construct  build one family instance and print its certificate
    table      regenerate a published parameter table (1 or 2)
    ebits      compute the ebit count both ways from matrix files
    verify     certify or refute claimed code parameters from a code file
    selftest   run seeded consistency suites

construct and table share one printer: json, text, or csv (the certificate
inputs, then params, c_product, c_stack and slack).  The global options
--budget, --seed, --output and --emit-matrices go before or after the
subcommand.

Exit codes are a stable contract, and main maps every error to one:
    0 success, 1 refuted or not verified, 2 constraint violation,
    3 internal formula mismatch, 4 bad input (a usage error, field/length
    mismatch, any other library error, ValueError or OSError), 5 infeasible.
"""
from __future__ import annotations

import argparse
import csv
import functools
import inspect
import json
import random
import sys

from . import errors, families
from .eaqec import ebits_product, ebits_stack
from .fmatrix import FMatrix
from .gf import MAX_DEGREE, MAX_PRIME, FieldSpec, field_new, is_prime
from .lincode import (DEFAULT_BUDGET, LinearCode, from_generator,
                      from_parity_check, galois_dual, min_distance)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_CONSTRAINT = 2
EXIT_MISMATCH = 3
EXIT_INPUT = 4
EXIT_INFEASIBLE = 5


def _parse_field(text: str) -> FieldSpec:
    """'13', '9', or '17^8' -> FieldSpec with the canonical modulus.

    A bare q is split as p^e by integer e-th roots, so q=9 means GF(3^2).
    """
    head, _, tail = text.partition("^")
    if tail:
        return field_new(int(head), int(tail))
    q = int(head)
    for e in range(1, MAX_DEGREE + 1):
        lo, hi = 1, MAX_PRIME  # bisect for floor(q^(1/e)), capped at the bound on p
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if mid**e <= q else (lo, mid - 1)
        if lo**e == q and is_prime(lo):
            return field_new(lo, e)
    raise ValueError(f"q={text} is not p^e with p < 2^31 prime and e <= {MAX_DEGREE}")


def _parse_kv(pairs: list[str]) -> dict[str, str]:
    out = {}
    for item in pairs:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"expected key=value, got {item!r}")
        if key in out:
            raise ValueError(f"{key} given more than once")
        out[key] = value
    return out


# construct's families: name -> (its function's name in families, looked up at
# call time so that a wrapper installed there later is the one called, and its
# parameters after field, read here from the unwrapped signature)
_FAMILIES = {name: (fn.__name__, tuple(inspect.signature(fn).parameters)[1:])
             for name, fn in (("vandermonde", families.vandermonde_family),
                              ("grs-ext", families.grs_extended_family),
                              ("gabidulin", families.gabidulin_family))}


def _print_certificates(certs: list[families.FamilyCertificate], args) -> None:
    """construct's certificate or table's rows; json prints a table as a list."""
    if args.output == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow([*certs[0].inputs, "params", "c_product", "c_stack", "slack"])
        for cert in certs:
            writer.writerow([*cert.inputs.values(), cert.params, cert.pair.c_product,
                             cert.pair.c_stack, cert.params.slack])
    elif args.output == "json":
        blobs = [cert.to_json(emit_matrices=args.emit_matrices) for cert in certs]
        print(json.dumps(blobs if args.command == "table" else blobs[0], indent=2))
    else:
        for cert in certs:
            print(f"{cert.family}: computed {cert.params} "
                  f"(c_product={cert.pair.c_product}, c_stack={cert.pair.c_stack}, "
                  f"slack={cert.params.slack}) predicted {cert.predicted} "
                  f"verified={cert.verified}")


def cmd_construct(args) -> int:
    params = _parse_kv(args.params)
    attr, names = _FAMILIES[args.family]
    needed = ("q",) + names
    missing = [k for k in needed if k not in params]
    extra = [k for k in params if k not in needed]
    if missing or extra:
        raise ValueError(f"family {args.family} takes {needed}; "
                         f"missing={missing} unexpected={extra}")
    field = _parse_field(params["q"])
    cert = getattr(families, attr)(field, *(int(params[k]) for k in names))
    _print_certificates([cert], args)
    return EXIT_OK if cert.verified else EXIT_FAILED


def cmd_table(args) -> int:
    certs = families.table1() if args.which == 1 else families.table2()
    _print_certificates(certs, args)
    for i, cert in enumerate(certs):
        if not cert.verified:
            print(f"row {i} failed verification: {cert.params} != {cert.predicted}",
                  file=sys.stderr)
            return EXIT_FAILED
    return EXIT_OK


def cmd_ebits(args) -> int:
    with open(args.g1_file) as g1, open(args.h2_file) as h2:
        G1, H2 = FMatrix.from_text(g1.read()), FMatrix.from_text(h2.read())
    C1, C2 = from_generator(G1), from_parity_check(H2)
    c_product = ebits_product(C1, C2, args.s)
    c_stack = ebits_stack(C1, C2, args.s)
    agree = c_product == c_stack
    if args.output == "text":
        print(f"c_product={c_product} c_stack={c_stack} "
              f"{'agree' if agree else 'DISAGREE'}")
    else:
        print(json.dumps({"c_product": c_product, "c_stack": c_stack,
                          "s": args.s, "agree": agree}))
    return EXIT_OK if agree else EXIT_MISMATCH


def cmd_verify(args) -> int:
    with open(args.code_file) as fh:
        code = LinearCode.from_text(fh.read())
    if args.k is not None and args.k != code.k:
        print(json.dumps({"claimed_k": args.k, "actual_k": code.k, "verdict": "refuted"}))
        return EXIT_FAILED
    report = min_distance(code, budget=args.budget)
    result = {"n": code.n, "k": code.k, "d": report.d, "method": report.method,
              "certificate": list(report.certificate) if report.certificate else None}
    if args.d is not None:
        result["claimed_d"] = args.d
        result["verdict"] = "confirmed" if args.d == report.d else "refuted"
    print(json.dumps(result))
    if args.d is not None and args.d != report.d:
        return EXIT_FAILED
    return EXIT_OK


def cmd_selftest(args) -> int:
    """Seeded consistency suites: both ebit formulas and both dual routes."""
    if args.trials < 0:
        raise ValueError(f"--trials must be >= 0, got {args.trials}")
    rng = random.Random(args.seed)
    field_shapes = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (13, 1), (3, 3)]
    failures = 0
    for trial in range(args.trials):
        p, e = field_shapes[rng.randrange(len(field_shapes))]
        field = field_new(p, e)
        n = rng.randint(2, 8)
        k1 = rng.randint(1, n)
        k2 = rng.randint(1, n)
        C1, C2 = (from_generator(FMatrix(field, [[rng.randrange(field.q) for _ in range(n)]
                                                 for _ in range(k)], n)) for k in (k1, k2))
        for s in range(field.e):
            cp = ebits_product(C1, C2, s)
            cs = ebits_stack(C1, C2, s)
            if cp != cs:
                failures += 1
                print(f"trial {trial}: formula mismatch product={cp} stack={cs}",
                      file=sys.stderr)
            dual_direct = galois_dual(C1, s)
            # independent route: x is in the twisted dual iff G^(p^(e-s)) x^T = 0
            dual_check = from_parity_check(C1.G.frobenius_entrywise(-s))
            if dual_direct.G != dual_check.G:
                failures += 1
                print(f"trial {trial}: dual route mismatch", file=sys.stderr)
    print(f"selftest: {args.trials} trials, {failures} failures (seed={args.seed})")
    return EXIT_OK if failures == 0 else EXIT_MISMATCH


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # main maps a usage error to bad input (exit 4)
        raise ValueError(message)


def _global_options(parser: argparse.ArgumentParser, after: bool = False) -> None:
    """--budget, --seed, --output and --emit-matrices, with their defaults
    before the subcommand; after it (after set) with none, so that a value
    given before the subcommand is kept unless it is given again."""
    def default(value):
        return argparse.SUPPRESS if after else value

    parser.add_argument("--budget", type=int, default=default(DEFAULT_BUDGET),
                        help="exhaustive-search budget (codewords)")
    parser.add_argument("--seed", type=int, default=default(0),
                        help="seed for randomized consistency checks")
    parser.add_argument("--output", choices=("json", "csv", "text"), default=default("json"))
    parser.add_argument("--emit-matrices", action="store_true", default=default(False),
                        help="include G1/H2 matrix text in certificates")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eaqeckit",
        description="Construct and verify entanglement-assisted MDS codes "
                    "over exact finite fields.")
    _global_options(parser)
    common = argparse.ArgumentParser(add_help=False)
    _global_options(common, after=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", parents=[common], help="build one family instance")
    p.add_argument("family", choices=sorted(_FAMILIES))
    p.add_argument("params", nargs="+", metavar="key=value")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("table", parents=[common], help="regenerate a published table")
    p.add_argument("which", type=int, choices=(1, 2))
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("ebits", parents=[common], help="ebit count from matrix files")
    p.add_argument("g1_file")
    p.add_argument("h2_file")
    p.add_argument("--s", type=int, default=0, help="Galois twist parameter")
    p.set_defaults(func=cmd_ebits)

    p = sub.add_parser("verify", parents=[common], help="certify or refute code parameters")
    p.add_argument("code_file")
    p.add_argument("--k", type=int, default=None, help="claimed dimension")
    p.add_argument("--d", type=int, default=None, help="claimed distance")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("selftest", parents=[common], help="seeded consistency suites")
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    """Run one command; every library error maps to its documented exit code."""
    try:
        args = build_parser().parse_args(argv)
        if args.budget < 1:
            raise ValueError("--budget must be >= 1")
        return args.func(args)
    except errors.ConstraintViolation as exc:
        print(f"constraint violation: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT
    except (errors.FormulaMismatch, errors.DualityFailure) as exc:
        print(f"internal mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except errors.Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (errors.CodingError, ValueError, OSError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
