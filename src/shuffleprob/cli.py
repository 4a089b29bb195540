"""Command-line interface.

Subcommands: cumulants, moments, convert, convolve, subordinate, bp, series,
verify, verify-coalgebra.  All file formats are the JSON schemas of
:mod:`shuffleprob.io`; rationals travel as "p/q" strings.  Exit codes:
0 success, 1 verification failure, 2 bad input.  An ``-o`` path that cannot
be written exits 2 before any work.

The degree cap defaults to 8 and can be overridden with the environment
variable SHUFFLE_MAX_DEGREE.  The cap and the ``-o`` path are the only
input checked here; the library's own rules refuse a bad ``--t`` or value.

A process loads only what its command runs: :mod:`products` is imported by
convolve, subordinate and bp, and :mod:`verify` by the two verify commands.
So the parser knows no suite or letter names: :func:`verify.run_suites`
refuses an unknown suite or bad letter names, and an omitted ``--letters``
means the suites' ``DEFAULT_LETTERS``.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import io as sio
from .cumulants import Distribution, convert, from_cumulants, series, to_cumulants
from .errors import DomainError, ValidationError

DEFAULT_CAP = 8


def _degree_cap() -> int:
    raw = os.environ.get("SHUFFLE_MAX_DEGREE")
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValidationError(f"SHUFFLE_MAX_DEGREE must be an integer, got {raw!r}")
    if cap < 1:
        raise ValidationError("SHUFFLE_MAX_DEGREE must be >= 1")
    return cap


def _check_degree(n: int):
    cap = _degree_cap()
    if not 1 <= n <= cap:
        raise ValidationError(f"max_degree {n} outside 1..{cap} "
                              f"(override the cap with SHUFFLE_MAX_DEGREE)")
    return n


def _effective_degree(file_degree: int, override: int | None) -> int:
    n = file_degree if override is None else override
    if n > file_degree:
        raise ValidationError(f"--max-degree {n} exceeds the input's max_degree "
                              f"{file_degree}")
    return _check_degree(n)


def _truncate(d: Distribution, n: int) -> Distribution:
    if n == d.max_degree:
        return d
    return Distribution(d.letters, n,
                        {w: v for w, v in d.moments.items() if len(w) <= n})


def _check_writable(path: str):
    """Fails before any work when path cannot be written.  Append mode
    leaves an existing file as it is, and a file made here is removed again,
    so a command that fails later leaves no trace at path."""
    existed = os.path.lexists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None
    if not existed:
        os.remove(path)


def _emit(obj, path: str | None):
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                sio.dump_json(obj, fh)
        except OSError as exc:
            raise ValidationError(f"cannot write {path}: {exc}") from None
    else:
        sio.dump_json(obj, sys.stdout)


def _load_distribution(path: str, override: int | None) -> Distribution:
    d = sio.parse_distribution(sio.load_json_file(path))
    return _truncate(d, _effective_degree(d.max_degree, override))


def _load_cumulant_map(path: str, override: int | None):
    """(kind, letters, degree, values) of a cumulant file, at the degree
    chosen by the same rule as a distribution's; the library drops the
    values above it."""
    kind, letters, n, values = sio.parse_cumulant_map(sio.load_json_file(path))
    return kind, letters, _effective_degree(n, override), values


def cmd_cumulants(args) -> int:
    d = _load_distribution(args.input, args.max_degree)
    values = to_cumulants(d, args.kind)
    _emit(sio.cumulant_map_to_json(args.kind, d.letters, d.max_degree, values), args.output)
    return 0


def cmd_moments(args) -> int:
    kind, letters, n, values = _load_cumulant_map(args.input, args.max_degree)
    if args.kind:
        kind = args.kind
    d = from_cumulants(values, kind, letters, n)
    _emit(sio.distribution_to_json(d), args.output)
    return 0


def cmd_convert(args) -> int:
    kind, letters, n, values = _load_cumulant_map(args.input, args.max_degree)
    out = convert(values, kind, args.kind, n, letters)
    _emit(sio.cumulant_map_to_json(args.kind, letters, n, out), args.output)
    return 0


def cmd_convolve(args) -> int:
    from . import products as pr
    d1 = _load_distribution(args.first, args.max_degree)
    d2 = _load_distribution(args.second, args.max_degree)
    out = pr.convolve_distributions(d1, d2, args.kind)
    _emit(sio.distribution_to_json(out), args.output)
    return 0


def cmd_subordinate(args) -> int:
    from . import products as pr
    d1 = _load_distribution(args.first, args.max_degree)
    d2 = _load_distribution(args.second, args.max_degree)
    out = pr.subordinate_distributions(d1, d2, args.side)
    _emit(sio.distribution_to_json(out), args.output)
    return 0


def cmd_bp(args) -> int:
    from . import products as pr
    d = _load_distribution(args.input, args.max_degree)
    out = pr.bp_distribution(d, args.t)
    _emit(sio.distribution_to_json(out), args.output)
    return 0


def cmd_series(args) -> int:
    d = _load_distribution(args.input, args.max_degree)
    name = {"m": "M", "r": "R", "eta": "eta"}[args.kind.lower()]
    s = series(d, name)
    _emit(sio.series_to_json(name, s), args.output)
    return 0


def _parse_letter_names(raw: str | None):
    """The names in --letters, or the suites' default when it is not given;
    :func:`verify.run_suites` checks them."""
    if raw is None:
        from .verify import DEFAULT_LETTERS
        return DEFAULT_LETTERS
    return tuple(n.strip() for n in raw.split(",") if n.strip())


def cmd_verify(args) -> int:
    from .verify import run_suites
    n = _check_degree(args.max_degree)
    letters = _parse_letter_names(args.letters)
    reports = run_suites(args.suite, max_degree=n, seed=args.seed, letters=letters)
    for report in reports:
        for line in report.lines():
            print(line)
    payload = {"max_degree": n, "seed": args.seed,
               "passed": all(r.passed for r in reports),
               "suites": [r.to_json() for r in reports]}
    if args.output:
        _emit(payload, args.output)
    return 0 if payload["passed"] else 1


def cmd_verify_coalgebra(args) -> int:
    from .verify import run_suites
    n = _check_degree(args.max_degree)
    letters = _parse_letter_names(args.letters)
    [report] = run_suites(["coalgebra"], max_degree=n, letters=letters)
    for line in report.lines():
        print(line)
    if args.output:
        checks = [{"axiom": c.name, "status": c.status,
                   **({"witness": c.witness} if c.witness else {})}
                  for c in report.results]
        _emit({"letters": list(letters), "max_degree": n,
               "passed": report.passed, "checks": checks}, args.output)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shuffleprob",
        description="Exact moment/cumulant calculus on the double tensor algebra")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, output=True):
        p.add_argument("--max-degree", type=int, default=None,
                       help="truncate the computation at this degree")
        if output:
            p.add_argument("-o", "--output", default=None, help="write JSON here "
                           "(default: stdout)")

    p = sub.add_parser("cumulants", help="moments -> cumulants of one family")
    p.add_argument("input")
    p.add_argument("--kind", choices=["free", "boolean", "monotone"], required=True)
    add_common(p)
    p.set_defaults(func=cmd_cumulants)

    p = sub.add_parser("moments", help="cumulants -> moments (inverse transform)")
    p.add_argument("input")
    p.add_argument("--kind", choices=["free", "boolean", "monotone"], default=None,
                   help="override the kind recorded in the file")
    add_common(p)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("convert", help="cumulants -> cumulants of another family")
    p.add_argument("input")
    p.add_argument("--kind", choices=["free", "boolean", "monotone"], required=True,
                   help="target family")
    add_common(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("convolve", help="additive convolution of two distributions")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--kind", required=True,
                   choices=["free", "boolean", "monotone-left", "monotone-right"])
    add_common(p)
    p.set_defaults(func=cmd_convolve)

    p = sub.add_parser("subordinate", help="subordination product of two distributions")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--side", choices=["left", "right"], required=True)
    add_common(p)
    p.set_defaults(func=cmd_subordinate)

    p = sub.add_parser("bp", help="boolean-to-free bijection / its semigroup")
    p.add_argument("input")
    p.add_argument("--t", default="1", help="semigroup parameter (rational >= 0)")
    add_common(p)
    p.set_defaults(func=cmd_bp)

    p = sub.add_parser("series", help="generating series of a distribution")
    p.add_argument("input")
    p.add_argument("--kind", choices=["M", "R", "eta", "m", "r"], required=True)
    add_common(p)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("verify", help="run the verification suites")
    p.add_argument("--suite", action="append", default=None,
                   help="suite to run, or all (repeatable; default all)")
    p.add_argument("--max-degree", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--letters", default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("verify-coalgebra", help="coalgebra axioms only")
    p.add_argument("--letters", default=None)
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_verify_coalgebra)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "suite", None) is None and args.command == "verify":
        args.suite = "all"
    try:
        if args.output:
            _check_writable(args.output)
        return args.func(args)
    except (ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
