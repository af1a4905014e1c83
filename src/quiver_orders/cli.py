"""Command-line front end.

Subcommands: roots, order, kp, calibrate, verify {ringel, baumann, mackey,
reflection, evenness}, count {fibers, z}.  Output is deterministic; exit code
0 on success, 1 when a verification fails or a cap is exceeded, 2 on usage
errors, and 141 (128 + SIGPIPE), with nothing on stderr, when the reader of
stdout closes it early, as `| head` does.  Only a ValueError raised while
reading command-line input and a file the command cannot read or write are
usage errors; any other exception is a bug and propagates with a traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .convex_order import adapted_order, build_order, pairing_sign_report
from .errors import CalibrationError, CapExceeded, VerificationError
from .fields import RATIONALS, field_order, galois_field
from .flag_fibers import (
    _enough_q_values,
    evenness_check,
    fiber_point_count,
    flag_degree_bound,
    z_point_count,
)
from .geometry import baumann_check, calibrate, default_test_nus, ringel_check
from .kostant import OrientationLedger, enumerate_kp, hasse_dot, mackey_dominance_check
from .pbw import in_ker_locus, order_compat, verify_reflection
from .quivers import parse_quiver_file, sinks
from .root_system import cartan_datum, positive_roots

DEFAULT_Q_LIST = (2, 3, 4, 5, 7, 8, 9, 11, 13)
# the default bound on the size of one Hasse diagram
HASSE_CAP = 200


class _UsageError(Exception):
    pass


def _read(parse, *args):
    """Call `parse` on command-line input; its ValueError is a usage error."""
    try:
        return parse(*args)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _read_text(path: str) -> str:
    """Contents of an input file; a file that cannot be read is a usage error."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(str(exc)) from exc


def _write_text(path: str, text: str) -> None:
    """Write an output file; a file that cannot be written is a usage error."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise _UsageError(str(exc)) from exc


def _load_quiver(path: str):
    return _read(parse_quiver_file, _read_text(path))


def _load_ledger(path: str | None) -> OrientationLedger:
    if path is None:
        raise _UsageError("this command needs --ledger (run `calibrate` first)")
    return _read(OrientationLedger.from_json, _read_text(path))


def _non_negative(text: str) -> int:
    """argparse type of --nu-max and --cap."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{value} is negative")
    return value


def _ints(text: str, what: str) -> tuple[int, ...]:
    """Comma-separated integers; anything else is a usage error naming `what`."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise _UsageError(f"bad {what} {text!r}") from exc


def _parse_nu(text: str, datum) -> tuple[int, ...]:
    nu = _ints(text, "dimension vector")
    if len(nu) != datum.n or any(x < 0 for x in nu):
        raise _UsageError(f"dimension vector needs {datum.n} non-negative entries")
    return nu


def _cmd_roots(args) -> int:
    datum = _read(cartan_datum, args.type)
    for root in positive_roots(datum):
        print(" ".join(str(c) for c in root))
    return 0


def _cmd_order(args) -> int:
    datum = _read(cartan_datum, args.type)
    if (args.word is None) == (args.adapted is None):
        raise _UsageError("give exactly one of WORD or --adapted QUIVERFILE")
    if args.adapted is not None:
        Q = _load_quiver(args.adapted)
        if Q.datum != datum:
            raise _UsageError("quiver file type does not match TYPE")
        order = adapted_order(Q)
    else:
        order = _read(build_order, datum, _ints(args.word, "word"))
    print("word: " + " ".join(str(i) for i in order.word))
    print("beta:")
    for k, b in enumerate(order.beta):
        print(f"  {k + 1}\t" + " ".join(str(c) for c in b))
    print("gamma:")
    for k, g in enumerate(order.gamma):
        print(f"  {k + 1}\t" + " ".join(str(c) for c in g))
    print("C:")
    for row in order.pairings:
        print("\t".join(str(v) for v in row))
    violations = pairing_sign_report(order)
    print(f"sign violations: {len(violations)}")
    return 1 if violations else 0


def _cmd_kp(args) -> int:
    Q = _load_quiver(args.quiver)
    datum = Q.datum
    nu = _parse_nu(args.nu, datum)
    # stray options and a missing --ledger are rejected before any output
    if args.hasse is None and (args.ledger is not None or args.cap is not None):
        raise _UsageError("--ledger and --cap apply only with --hasse")
    ledger = _load_ledger(args.ledger) if args.hasse is not None else None
    # the Hasse cap stops the enumeration, at cap + 1 partitions
    cap = HASSE_CAP if ledger is not None and args.cap is None else args.cap
    order = adapted_order(Q)
    kps = enumerate_kp(datum, nu, order, cap)
    if ledger is not None:
        # the DOT file is written before any output, so a failed write prints nothing
        _write_text(args.hasse, hasse_dot(kps, ledger))
    roots = ["(" + " ".join(map(str, b)) + ")" for b in order.beta]
    for lam in kps:
        parts = ", ".join(text for c, text in zip(lam.counts, roots) for _ in range(c))
        print(" ".join(map(str, lam.counts)) + "\t" + parts)
    print(f"kpf: {len(kps)}")
    if ledger is not None:
        print(f"hasse: wrote {args.hasse}")
    return 0


def _cmd_calibrate(args) -> int:
    Q = _load_quiver(args.quiver)
    # too small a --nu-max leaves the evidence without comparable pairs
    ledger = _read(calibrate, Q, default_test_nus(Q.datum, args.nu_max))
    if args.out is not None:
        _write_text(args.out, ledger.to_json() + "\n")
    print(f"order_direction: {ledger.order_direction}")
    print(f"hom_formula_direction: {ledger.hom_formula_direction}")
    print(f"res_large_side: {ledger.res_large_side}")
    if args.out is not None:
        print(f"ledger: wrote {args.out}")
    return 0


def _cmd_verify(args) -> int:
    Q = _load_quiver(args.quiver)
    datum = Q.datum
    order = adapted_order(Q)
    passed = []

    def note(ok: bool, desc: str) -> None:
        passed.append(ok)
        print(("ok" if ok else "FAIL") + f": {desc}")

    nus = ()
    if args.check == "ringel":  # ringel reads one Hom table and sweeps no nu
        directions = ringel_check(Q)
        direction = "both" if len(directions) == 2 else directions[0]
        note(True, f"hom formula direction: {direction}")
    else:
        nus = ((0,) * datum.n,) + default_test_nus(datum, args.nu_max)
    # the ledger and the q list are read before any output
    if args.check in ("baumann", "mackey", "reflection"):
        ledger = _load_ledger(args.ledger)
    elif args.check == "evenness":
        q_list = _parse_q_list(args.q_list)
        # a q list too short for the largest degree bound of the sweep is bad input
        _read(_enough_q_values, q_list, max(flag_degree_bound(nu) for nu in nus))
    if args.check == "reflection":
        fields = (galois_field(2), galois_field(3), RATIONALS)
    for nu in nus:
        kps = enumerate_kp(datum, nu, order)
        if args.check == "baumann":
            note(
                baumann_check(kps, ledger.order_direction),
                f"partition order equals closure order at nu={nu}",
            )
        elif args.check == "mackey":
            violations = mackey_dominance_check(kps, ledger.res_large_side)
            for m, bad in zip(kps, violations):
                note(not bad, f"achievable partitions dominate m={m.counts} at nu={nu}")
        elif args.check == "reflection":
            for i in sinks(Q):
                for lam in kps:
                    if not in_ker_locus(lam, i):
                        continue
                    for F in fields:
                        note(
                            verify_reflection(i, lam, F),
                            f"reflection at {i} matches on {lam.counts} over {F!r}",
                        )
                note(
                    order_compat(i, kps, ledger),
                    f"order compatible with reflection at {i}, nu={nu}",
                )
        else:
            for lam in kps:
                even = evenness_check(lam, q_list)
                verdict = "consistent-with-even" if even else "evidence-against"
                note(even, f"fiber counts of {lam.counts} interpolate ({verdict})")
    print(f"{sum(passed)}/{len(passed)} checks passed")
    return 0 if all(passed) else 1


def _parse_q_list(text: str | None):
    if text is None:
        return DEFAULT_Q_LIST
    qs = _ints(text, "q list")
    for q in qs:
        _read(field_order, q)
    return qs


def _cmd_count(args) -> int:
    Q = _load_quiver(args.quiver)
    datum = Q.datum
    nu = _parse_nu(args.nu, datum)
    order = adapted_order(Q)
    qs = _parse_q_list(args.q)
    if args.what == "fibers":
        print("lambda\tq\tcount")
        for lam in enumerate_kp(datum, nu, order):
            for q in qs:
                print(
                    " ".join(str(c) for c in lam.counts)
                    + f"\t{q}\t{fiber_point_count(lam, q)}"
                )
    else:
        print("nu\tq\tcount")
        for q in qs:
            print(
                " ".join(str(c) for c in nu) + f"\t{q}\t{z_point_count(Q, nu, q)}"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiver-orders",
        description="Convex orders, Kostant partitions, quiver orbits, and point counts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", help="positive roots of a type")
    p.add_argument("type")
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("order", help="convex order data of a reduced word of w0")
    p.add_argument("type")
    p.add_argument("word", nargs="?", default=None, help="comma-separated letters")
    p.add_argument("--adapted", metavar="QUIVERFILE", default=None)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("kp", help="Kostant partitions of a dimension vector")
    p.add_argument("quiver")
    p.add_argument("nu", help="comma-separated dimension vector")
    p.add_argument("--hasse", metavar="OUT.dot", default=None)
    p.add_argument("--ledger", default=None)
    p.add_argument(
        "--cap", type=_non_negative, default=None, help=f"with --hasse; default {HASSE_CAP}"
    )
    p.set_defaults(func=_cmd_kp)

    p = sub.add_parser("calibrate", help="fix order/hom/restriction conventions")
    p.add_argument("quiver")
    p.add_argument("--out", default=None, help="write the ledger JSON here")
    p.add_argument("--nu-max", type=_non_negative, default=3)
    p.set_defaults(func=_cmd_calibrate)

    checks = sub.add_parser("verify", help="run a verification sweep").add_subparsers(
        dest="check", required=True
    )
    for check in ("ringel", "baumann", "mackey", "reflection", "evenness"):
        p = checks.add_parser(check)
        p.add_argument("quiver")
        if check in ("baumann", "mackey", "reflection"):
            p.add_argument("--ledger", default=None)
        if check != "ringel":
            p.add_argument("--nu-max", type=_non_negative, default=4)
        if check == "evenness":
            p.add_argument("--q-list", default=None, help="comma-separated prime powers")
        p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("count", help="point counts over finite fields")
    p.add_argument("what", choices=("fibers", "z"))
    p.add_argument("quiver")
    p.add_argument("nu")
    p.add_argument("--q", default=None, help="comma-separated prime powers")
    p.set_defaults(func=_cmd_count)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here even for short output
        return code
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (CapExceeded, CalibrationError, VerificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout; what is still buffered goes to devnull so
        # the interpreter's last flush does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
