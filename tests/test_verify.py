import importlib
import json
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

import pytest

import shuffleprob as sp
from shuffleprob import coproducts, functionals as fn
from shuffleprob import products, verify
from shuffleprob.errors import ValidationError
from shuffleprob.mutations import DEFECTS, inject_defect, is_active
from shuffleprob.reporting import CheckResult, Report
from shuffleprob.verify import SUITES, run_suite, run_suites
from shuffleprob.words import BarWord, Letter, Word

GOLDEN = Path(__file__).resolve().parent / "golden"


def _golden_lines(name: str) -> list[str]:
    return (GOLDEN / name).read_text(encoding="utf-8").splitlines()


def _witness_degree(result: CheckResult) -> int:
    element = result.witness["element"]
    return len([t for t in element.replace("|", ".").split(".") if t and t != "1"])


def test_all_suites_pass_at_degree_four():
    reports = run_suites("all", max_degree=4, seed=0)
    assert [r.suite for r in reports] == list(SUITES)
    for r in reports:
        assert r.passed, (r.suite, [c.name for c in r.failures])
    # the same stdout as ``verify --suite all --max-degree 4 --seed 0``
    lines = [line for r in reports for line in r.lines()]
    assert lines == _golden_lines("verify-all-degree-4-seed-0.txt")


def test_run_suites_takes_one_name_or_all_anywhere():
    # A string is one suite name, not a sequence of one-letter names; "all"
    # anywhere in the names runs the six suites once each, in order.
    assert [r.suite for r in run_suites("coalgebra", max_degree=2)] == ["coalgebra"]
    for names in ("all", ("all",), ["coalgebra", "all", "bp"]):
        assert [r.suite for r in run_suites(names, max_degree=2)] == list(SUITES)


def test_unknown_suite_rejected():
    # run_suite runs one suite and names only those; "all" is run_suites' name,
    # and a list is no name, though it holds one
    for name in ("nope", "all", ["shuffle"]):
        with pytest.raises(ValidationError) as info:
            run_suite(name, max_degree=3)
        assert str(info.value) == (f"unknown suite {name!r}; run_suite runs one of "
                                   f"{sorted(SUITES)}, and run_suites runs 'all'")
    for names in ("nope", [["shuffle"]]):
        with pytest.raises(ValidationError, match=r"expected one of .* or 'all'$"):
            run_suites(names, max_degree=3)


@pytest.mark.parametrize("given", [
    {"letters": ()}, {"letters": ("a", "a")}, {"letters": ("a.b",)},
    {"max_degree": 0}, {"max_degree": -2}, {"max_degree": True},
], ids=["no-letters", "duplicate-letters", "dotted-letter", "degree-0", "degree-minus-2",
        "degree-True"])
def test_bad_letters_and_degrees_refused_before_any_suite_runs(monkeypatch, given):
    # a certificate over no letters or no degree certifies nothing
    ran = []
    for name in SUITES:
        monkeypatch.setitem(verify._SUITE_FUNCS, name, lambda *a, **k: ran.append(name))
    kwargs = {"max_degree": 3, **given}
    with pytest.raises(ValidationError):
        run_suite("shuffle", **kwargs)
    with pytest.raises(ValidationError):
        run_suites("all", **kwargs)
    assert ran == []


def test_reports_deterministic_under_seed():
    a = [r.to_json() for r in run_suites(["cumulants"], max_degree=3, seed=9)]
    b = [r.to_json() for r in run_suites(["cumulants"], max_degree=3, seed=9)]
    assert json.dumps(a) == json.dumps(b)


def test_report_json_shape():
    [report] = run_suites(["coalgebra"], max_degree=2)
    payload = report.to_json()
    assert payload["suite"] == "coalgebra"
    assert payload["passed"] is True
    assert all(c["status"] == "pass" for c in payload["checks"])


@pytest.mark.parametrize("defect,suites", [
    ("drop-left-singleton", ["coalgebra", "shuffle"]),
    ("skip-bernoulli-2", ["magnus", "cumulants"]),
    ("flip-ad-conjugator", ["bp", "products"]),
])
def test_mutation_sensitivity(defect, suites):
    with inject_defect(defect):
        reports = run_suites(suites, max_degree=4, seed=0)
    failures = [c for r in reports for c in r.failures]
    assert failures, f"defect {defect} went unnoticed"
    assert min(_witness_degree(c) for c in failures) <= 4
    # the same failing checks, with the same witnesses
    lines = [line for r in reports for line in r.lines() if line.startswith("[FAIL]")]
    assert lines == _golden_lines(f"mutation-{defect}.txt")
    # and the world is intact again afterwards
    reports = run_suites(suites, max_degree=3, seed=0)
    assert all(r.passed for r in reports)


def test_unknown_defect_rejected():
    with pytest.raises(ValueError):
        with inject_defect("not-a-defect"):
            pass
    assert "drop-left-singleton" in DEFECTS


def test_a_defect_nested_in_itself_lasts_until_the_outer_exit():
    with inject_defect("skip-bernoulli-2"):
        with inject_defect("skip-bernoulli-2"):
            pass
        assert is_active("skip-bernoulli-2")
        [report] = run_suites(["magnus"], max_degree=4, seed=0)
    assert report.failures
    assert not is_active("skip-bernoulli-2")
    [report] = run_suites(["magnus"], max_degree=4, seed=0)
    assert report.passed


def _bindings():
    # every binding of a function that a defect corrupts; the package
    # attribute ``magnus`` is the function, so the module comes by name
    magnus_module = importlib.import_module("shuffleprob.magnus")
    return (coproducts._by_first_run, magnus_module._magnus_coeff,
            fn.ad_action, sp.ad_action)


#: The positions in ``_bindings()`` of the functions each defect swaps.
SWAPPED = {"drop-left-singleton": {0}, "skip-bernoulli-2": {1}, "flip-ad-conjugator": {2, 3}}


@pytest.mark.parametrize("defect", sorted(SWAPPED))
def test_each_defect_swaps_its_function_and_restores_it(defect):
    clean = _bindings()
    for fail in (False, True):
        with pytest.raises(RuntimeError) if fail else nullcontext():
            with inject_defect(defect):
                inside = _bindings()
                if fail:
                    raise RuntimeError("inside the defect")
        assert {i for i, f in enumerate(inside) if f is not clean[i]} == SWAPPED[defect]
        assert all(f is g for f, g in zip(_bindings(), clean))
        assert not is_active(defect)


def test_report_lines_format():
    [report] = run_suites(["coalgebra"], max_degree=2)
    lines = list(report.lines())
    assert lines and all(line.startswith("[PASS]") for line in lines)
    failing = Report("demo", [CheckResult.fail("identity", "a.a", 1, 2)])
    assert "[FAIL]" in next(iter(failing.lines()))


def test_left_exp_multiplicativity_is_not_decided_by_the_flag(monkeypatch):
    # An exponential flagged as a character but off by one at a|b: a check
    # that trusted the flag would factor a|b and pass.
    a, b = Word((Letter("a"),)), Word((Letter("b"),))
    real = fn.exp_left

    def off_at_a_bar_b(alpha):
        out = real(alpha) + fn.from_values({BarWord((a, b)): Fraction(1)})
        out.is_character = True
        return out

    monkeypatch.setattr(fn, "exp_left", off_at_a_bar_b)
    report = run_suite("shuffle", max_degree=3, seed=0)
    [check] = [c for c in report.results if c.name == "left-exp-is-multiplicative"]
    assert check.status == "fail" and check.witness["element"] == "a|b"


@pytest.mark.parametrize("suite, name", [
    ("shuffle", "exp-log-round-trip-star"),
    ("magnus", "magnus-is-star-log-of-left-exp"),
])
def test_agreement_checks_are_not_decided_by_the_flags(monkeypatch, suite, name):
    # A logarithm flagged as infinitesimal but off by one at a|b: if both
    # sides of a comparison read a|b through their flags, both read 0.
    a, b = Word((Letter("a"),)), Word((Letter("b"),))
    real = fn.log_star

    def off_at_a_bar_b(phi):
        out = real(phi) + fn.from_values({BarWord((a, b)): Fraction(1)})
        out.is_infinitesimal_character = True
        return out

    monkeypatch.setattr(fn, "log_star", off_at_a_bar_b)
    report = run_suite(suite, max_degree=3, seed=0)
    [check] = [c for c in report.results if c.name == name]
    assert check.status == "fail" and check.witness["element"] == "a|b"


# Each universal product swapped for a wrong one: the convolution in the
# other order, or the other logarithm pair.
WRONG_PRODUCTS = {
    "monotone_conv": lambda p, q: fn.conv(q, p),
    "antimonotone_conv": lambda p, q: fn.conv(p, q),
    "free_conv": lambda p, q: fn.exp_right(fn.log_right(p) + fn.log_right(q)),
    "boolean_conv": lambda p, q: fn.exp_left(fn.log_left(p) + fn.log_left(q)),
}


@pytest.mark.parametrize("name", WRONG_PRODUCTS)
def test_universal_product_references_are_not_tautological(monkeypatch, name):
    # The closed forms in verify are computed apart from the engine's
    # product, so the wrong product must fail its check, at x y x.
    monkeypatch.setattr(products, name, WRONG_PRODUCTS[name])
    report = run_suite("products", max_degree=4, seed=0)
    check_name = "universal-product-" + name.removesuffix("_conv")
    [check] = [c for c in report.results if c.name == check_name]
    assert check.status == "fail" and check.witness["element"] == "x#1.y#2.x#1"


# Each subordination draw builds free_conv(P1, P2) and the two subordinations
# once and hands them to all six checks.  A broken product must fail the same
# checks as when each check built its own: the boolean product in place of the
# free one, and a subordination with its operands swapped.
BROKEN_SUBORDINATION_PRODUCTS = {
    "free_conv": (lambda real: products.boolean_conv, {
        "decomposition", "decomposition-swapped", "change-of-product", "log-additivity"}),
    "subordinate": (lambda real: lambda a, b, side: real(b, a, side), {
        "decomposition", "decomposition-right", "decomposition-swapped",
        "distributivity"}),
}


@pytest.mark.parametrize("name", BROKEN_SUBORDINATION_PRODUCTS)
def test_shared_subordination_draws_still_catch_broken_products(monkeypatch, name):
    broken, expected = BROKEN_SUBORDINATION_PRODUCTS[name]
    monkeypatch.setattr(products, name, broken(getattr(products, name)))
    report = run_suite("products", max_degree=3, seed=0)
    failing = {c.name.removeprefix("subordination-") for c in report.results
               if c.status == "fail" and c.name.startswith("subordination-")}
    assert failing == expected
