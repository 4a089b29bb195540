"""Command-line interface.

Subcommands: cumulants, moments, convert, convolve, subordinate, bp, series,
verify, verify-coalgebra.  All file formats are the JSON schemas of
:mod:`shuffleprob.io`; rationals travel as "p/q" strings.  Exit codes:
0 success, 1 verification failure, 2 bad input.  An ``-o`` path that cannot
be written exits 2 before any work.

Every command returns its JSON object, and :func:`main` writes it through
the one writer, :func:`_emit`: a data command's to ``-o`` or stdout, and a
verify command's, whose report goes to stdout, to ``-o`` only.  The three
products (convolve, subordinate, bp) share one body, and verify-coalgebra
is verify on the one suite coalgebra with seed 0, with a JSON of its own.

One degree rule, :func:`_degree`, holds for every command: the degree is
``--max-degree`` or else the input's max_degree, which it may lower but not
raise, and it lies under a cap that defaults to 8 and can be overridden
with the environment variable SHUFFLE_MAX_DEGREE.  The degree and the
``-o`` path are the only input checked here; the library's own rules
refuse a bad ``--t`` or value.

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
from .cumulants import CumulantKind, Distribution, convert, from_cumulants, series, to_cumulants
from .errors import DomainError, ValidationError

DEFAULT_CAP = 8


def _degree(n: int | None, file_degree: int | None = None) -> int:
    """The degree a command runs at: n, or the input's max_degree when n is
    None, never above that max_degree, and in 1..cap, where the cap is
    SHUFFLE_MAX_DEGREE or else DEFAULT_CAP."""
    if n is None:
        n = file_degree
    elif file_degree is not None and n > file_degree:
        raise ValidationError(f"--max-degree {n} exceeds the input's max_degree "
                              f"{file_degree}")
    raw = os.environ.get("SHUFFLE_MAX_DEGREE", str(DEFAULT_CAP))
    try:
        cap = int(raw)
    except ValueError:
        raise ValidationError(f"SHUFFLE_MAX_DEGREE must be an integer, got {raw!r}") from None
    if cap < 1:
        raise ValidationError("SHUFFLE_MAX_DEGREE must be >= 1")
    if not 1 <= n <= cap:
        raise ValidationError(f"max_degree {n} outside 1..{cap} "
                              f"(override the cap with SHUFFLE_MAX_DEGREE)")
    return n


def _check_writable(path: str):
    """Fails before any work when path cannot be written.  Append mode
    leaves an existing file as it is, and a file made here, at the end of
    any symlink, is removed again, so a command that fails later leaves no
    trace at path."""
    existed = os.path.exists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None
    if not existed:
        os.remove(os.path.realpath(path))


def _emit(obj, path: str | None):
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                sio.dump_json(obj, fh)
        except OSError as exc:
            raise ValidationError(f"cannot write {path}: {exc}") from None
    else:
        sio.dump_json(obj, sys.stdout)


def _load(path: str, n: int | None) -> Distribution:
    """The distribution file at path, truncated to the command's degree."""
    d = sio.parse_distribution(sio.load_json_file(path))
    n = _degree(n, d.max_degree)
    if n == d.max_degree:
        return d
    return Distribution(d.letters, n, {w: v for w, v in d.moments.items() if len(w) <= n})


def _load_cumulants(path: str, n: int | None):
    """(kind, letters, degree, values) of a cumulant file, at the command's
    degree; the library drops the values above it."""
    kind, letters, file_degree, values = sio.parse_cumulant_map(sio.load_json_file(path))
    return kind, letters, _degree(n, file_degree), values


def cmd_cumulants(args) -> dict:
    d = _load(args.input, args.max_degree)
    return sio.cumulant_map_to_json(args.kind, d.letters, d.max_degree,
                                    to_cumulants(d, args.kind))


def cmd_moments(args) -> dict:
    kind, letters, n, values = _load_cumulants(args.input, args.max_degree)
    return sio.distribution_to_json(from_cumulants(values, args.kind or kind, letters, n))


def cmd_convert(args) -> dict:
    kind, letters, n, values = _load_cumulants(args.input, args.max_degree)
    return sio.cumulant_map_to_json(args.kind, letters, n,
                                    convert(values, kind, args.kind, n, letters))


def cmd_series(args) -> dict:
    d = _load(args.input, args.max_degree)
    name = {"m": "M", "r": "R", "eta": "eta"}[args.kind.lower()]
    return sio.series_to_json(name, series(d, name))


def cmd_product(args) -> dict:
    """convolve, subordinate and bp: a product of :mod:`products` on the
    operands' distributions and the command's own option."""
    from . import products as pr
    product, operands, option = {
        "convolve": (pr.convolve_distributions, ("first", "second"), "kind"),
        "subordinate": (pr.subordinate_distributions, ("first", "second"), "side"),
        "bp": (pr.bp_distribution, ("input",), "t")}[args.command]
    ds = [_load(getattr(args, name), args.max_degree) for name in operands]
    return sio.distribution_to_json(product(*ds, getattr(args, option)))


def cmd_verify(args) -> dict:
    """Prints the suites' report and returns the JSON for ``-o``; that of
    verify-coalgebra lists its one suite's checks by axiom."""
    from .verify import DEFAULT_LETTERS, run_suites
    n = _degree(args.max_degree)
    # run_suites checks the names, an empty one too
    letters = DEFAULT_LETTERS if args.letters is None else tuple(
        name.strip() for name in args.letters.split(","))
    reports = run_suites(args.suite or "all", max_degree=n, seed=args.seed, letters=letters)
    for report in reports:
        for line in report.lines():
            print(line)
    passed = all(r.passed for r in reports)
    if args.command == "verify":
        return {"max_degree": n, "seed": args.seed, "passed": passed,
                "suites": [r.to_json() for r in reports]}
    checks = [{"axiom": c.name, "status": c.status,
               **({"witness": c.witness} if c.witness else {})}
              for c in reports[0].results]
    return {"letters": list(letters), "max_degree": n, "passed": passed, "checks": checks}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shuffleprob",
        description="Exact moment/cumulant calculus on the double tensor algebra")
    sub = parser.add_subparsers(dest="command", required=True)

    def data(name, what, func, operands, flag, **option):
        p = sub.add_parser(name, help=what)
        for operand in operands:
            p.add_argument(operand)
        p.add_argument(flag, **option)
        p.add_argument("--max-degree", type=int, default=None,
                       help="truncate the computation at this degree")
        p.add_argument("-o", "--output", default=None, help="write JSON here "
                       "(default: stdout)")
        p.set_defaults(func=func)

    families = [k.value for k in CumulantKind]
    data("cumulants", "moments -> cumulants of one family", cmd_cumulants, ["input"],
         "--kind", choices=families, required=True)
    data("moments", "cumulants -> moments (inverse transform)", cmd_moments, ["input"],
         "--kind", choices=families, help="override the kind recorded in the file")
    data("convert", "cumulants -> cumulants of another family", cmd_convert, ["input"],
         "--kind", choices=families, required=True, help="target family")
    data("convolve", "additive convolution of two distributions", cmd_product,
         ["first", "second"], "--kind", required=True,
         choices=["free", "boolean", "monotone-left", "monotone-right"])
    data("subordinate", "subordination product of two distributions", cmd_product,
         ["first", "second"], "--side", choices=["left", "right"], required=True)
    data("bp", "boolean-to-free bijection / its semigroup", cmd_product, ["input"],
         "--t", default="1", help="semigroup parameter (rational >= 0)")
    data("series", "generating series of a distribution", cmd_series, ["input"],
         "--kind", choices=["M", "R", "eta", "m", "r"], required=True)

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
    p.set_defaults(func=cmd_verify, suite=["coalgebra"], seed=0)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    verifies = args.command.startswith("verify")
    try:
        if args.output:
            _check_writable(args.output)
        out = args.func(args)
        # a verify command prints its report, so its JSON goes to -o only
        if args.output or not verifies:
            _emit(out, args.output)
        return 1 if verifies and not out["passed"] else 0
    except (ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
