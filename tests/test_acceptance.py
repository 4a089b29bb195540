"""Acceptance gate: every criterion at its stated degree, exact equality.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Suite reports are shared across criteria through a module cache,
so the expensive sweeps run once.
"""

import json
from pathlib import Path

from shuffleprob.cli import main as cli_main
from shuffleprob.mutations import inject_defect
from shuffleprob.verify import run_suite, run_suites

_REPORTS = {}


def suite(name, degree, seed=0):
    key = (name, degree, seed)
    if key not in _REPORTS:
        _REPORTS[key] = run_suite(name, max_degree=degree, seed=seed)
    return _REPORTS[key]


def conclude(num, description, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {description}")
    assert ok, f"criterion {num} ({description}) failed {detail}"


def require_pass(num, description, report, names=None):
    results = report.results
    if names is not None:
        missing = set(names) - {r.name for r in results}
        assert not missing, f"criterion {num}: checks never ran: {sorted(missing)}"
        results = [r for r in results if r.name in names]
    bad = [r for r in results if r.status != "pass"]
    conclude(num, description, not bad,
             detail=json.dumps([r.to_json() for r in bad]))


def test_criterion_01_coalgebra_axioms():
    require_pass(1, "coalgebra axioms on all bar words, 2 letters, degree <= 6",
                 suite("coalgebra", 6))


def test_criterion_02_shuffle_identities():
    require_pass(2, "shuffle identities / units / pre-Lie / exp-log round trips, degree <= 6",
                 suite("shuffle", 6))


def test_criterion_03_cumulant_oracle_equivalence():
    require_pass(3, "three cumulant families equal partition-oracle sums, degree <= 6",
                 suite("cumulants", 6),
                 names=["partition-oracle-free", "partition-oracle-boolean",
                        "partition-oracle-monotone", "semicircle-free-cumulants",
                        "semicircle-boolean-cumulants", "semicircle-monotone-h4",
                        "free-pair-cumulants-catalan"])


def test_criterion_03b_cumulant_suite_remainder():
    require_pass(3, "cumulant round trips, conversions and series identities",
                 suite("cumulants", 6))


def test_criterion_04_magnus():
    require_pass(4, "Magnus pair inverts, matches star-log, transports BCH, degree <= 6",
                 suite("magnus", 6))


def test_criterion_05_universal_products():
    require_pass(5, "universal products equal closed forms on alternating words <= 5",
                 suite("products", 5),
                 names=["universal-product-monotone", "universal-product-antimonotone",
                        "universal-product-free", "universal-product-boolean",
                        "free-product-recursion"])


def test_criterion_06_convolution_factorization():
    require_pass(6, "factorizations, linearisations, power laws, semicircle sum, degree <= 5",
                 suite("products", 5),
                 names=["factorization-left", "factorization-right",
                        "free-conv-linearises-left-log",
                        "boolean-conv-linearises-right-log",
                        "power-group-left", "power-group-right",
                        "semicircle-free-convolution"])


def test_criterion_07_bercovici_pata():
    require_pass(7, "bijection = self-subordination, R=eta, semigroup, fixed vector, degree <= 6",
                 suite("bp", 6))


def test_criterion_08_subordination_identities():
    require_pass(8, "subordination identities on 10 random pairs/triples, degree <= 5",
                 suite("products", 5),
                 names=["subordination-decomposition",
                        "subordination-decomposition-swapped",
                        "subordination-decomposition-right",
                        "subordination-distributivity",
                        "subordination-change-of-product",
                        "subordination-log-additivity",
                        "eta-series-additivity"])


def test_criterion_09_mutation_sensitivity():
    plan = (("drop-left-singleton", ("coalgebra",)),
            ("skip-bernoulli-2", ("magnus",)),
            ("flip-ad-conjugator", ("bp",)))
    caught = []
    for defect, suites in plan:
        with inject_defect(defect):
            reports = run_suites(list(suites), max_degree=4, seed=0)
        failures = [c for r in reports for c in r.failures]
        degrees = [len([t for t in c.witness["element"].replace("|", ".").split(".")
                        if t and t != "1"]) for c in failures]
        caught.append(bool(failures) and min(degrees, default=99) <= 4)
    conclude(9, "all three seeded defects caught with witness degree <= 4",
             all(caught), detail=repr(caught))


def test_criterion_10_cli_verify_and_byte_stability(tmp_path, capsys):
    report_path = str(tmp_path / "report.json")
    code = cli_main(["verify", "--suite", "all", "--max-degree", "5",
                     "--seed", "0", "-o", report_path])
    with open(report_path) as fh:
        payload = json.load(fh)
    ok = code == 0 and payload["passed"] is True

    # byte stability of emitted artifacts under a fixed seed
    src = tmp_path / "sem.json"
    src.write_text(json.dumps({"letters": ["a"], "max_degree": 6,
                               "moments": {"a.a": "1", "a.a.a.a": "2",
                                           "a.a.a.a.a.a": "5"}}))
    outs = []
    for name in ("o1.json", "o2.json"):
        out = str(tmp_path / name)
        cli_main(["cumulants", str(src), "--kind", "monotone", "-o", out])
        outs.append(Path(out).read_bytes())
    reports = []
    for name in ("r1.json", "r2.json"):
        out = str(tmp_path / name)
        cli_main(["verify", "--suite", "cumulants", "--max-degree", "4",
                  "--seed", "11", "-o", out])
        reports.append(Path(out).read_bytes())
    capsys.readouterr()
    ok = ok and outs[0] == outs[1] and reports[0] == reports[1]
    conclude(10, "CLI verify --suite all --max-degree 5 exits 0; outputs byte-stable", ok)
