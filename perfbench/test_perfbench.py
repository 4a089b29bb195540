"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import gen  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from shuffleprob import Letter, Word, oracle_moments  # noqa: E402
from shuffleprob.reporting import CheckResult, Report  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    first = json.dumps(gen.generate(name, 7, 3))
    assert first == json.dumps(gen.generate(name, 7, 3))
    # verify-suites fixes its suite seeds, so that every run times the same work
    assert (first == json.dumps(gen.generate(name, 8, 3))) == (name == "verify-suites")


def _random_seq(rng, n):
    return [Fraction(0)] + [Fraction(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(n)]


@pytest.mark.parametrize("kind", ref.KINDS)
def test_univariate_recursions_match_oracle(kind):
    a = Letter("a")
    rng = random.Random(kind)
    for _ in range(3):
        kappa = _random_seq(rng, 8)
        mom = ref.uni_moments(kappa, kind, 8)
        table = {Word((a,) * d): kappa[d] for d in range(1, 9)}
        for d in range(1, 9):
            assert mom[d] == oracle_moments(table, kind, Word((a,) * d))
        assert ref.uni_cumulants(mom, kind, 8) == kappa


@pytest.mark.parametrize("kind", ref.KINDS)
def test_multivariate_recursions_match_oracle(kind):
    letters = ("a", "b")
    table = {x: Letter(x) for x in letters}
    rng = random.Random(kind)
    kappa = {w: Fraction(rng.randint(-4, 4), rng.randint(1, 4))
             for w in ref.words_up_to(letters, 5)}
    mom = ref.moments(kappa, kind, letters, 5)
    sp_kappa = {Word(table[x] for x in w): v for w, v in kappa.items()}
    for w in ref.words_up_to(letters, 5):
        assert mom.get(w, 0) == oracle_moments(sp_kappa, kind, Word(table[x] for x in w))
    assert ref.cumulants(mom, kind, letters, 5) == {w: v for w, v in kappa.items() if v}


def _perturb(text):
    """Add 1 to the last coefficient of a JSON output."""
    obj = json.loads(text)
    values = obj["moments" if "moments" in obj else "values"]
    key = list(values)[-1]
    values[key] = gen.frac_str(Fraction(values[key]) + 1)
    return json.dumps(obj, indent=2) + "\n"


def _context(tmp_path):
    return {"root": str(BENCH.parent), "out": str(tmp_path), "child_env": run.child_env()}


def test_perturbed_library_output_is_a_failed_op(tmp_path):
    workload = workloads.LibMixed(_context(tmp_path))
    ops = gen.generate("lib-mixed", 3, 1)[0][:13]  # the first shape, 2 letters at degree 6
    results = [(op, workload.run(op, spans.NullTracer())) for op in ops]
    assert run.check_all(workload, results, strict=False) == []
    results[4] = (results[4][0], _perturb(results[4][1]))
    assert [i for i, _ in run.check_all(workload, results, strict=False)] == [4]


def test_a_later_pass_is_checked_on_its_own(tmp_path):
    workload = workloads.LibMixed(_context(tmp_path))
    ops = gen.generate("lib-mixed", 3, 1)[0][:3]
    first = [workload.run(op, spans.NullTracer()) for op in ops]
    outputs = [first, first[:1] + [_perturb(first[1]), ValueError("raised")]]
    failed = [(p, i) for p, i, _ in run.check_passes(workload, ops, outputs, strict=False)]
    assert failed == [(1, 1), (1, 2)]


def test_perturbed_cli_output_is_a_failed_op(tmp_path):
    workload = workloads.CliUnivariate(_context(tmp_path))
    op = min(workload.prepare(gen.generate("cli-univariate", 3, 1)[0]), key=lambda op: op[3])
    output = workload.run(op, spans.NullTracer())
    workload.close()
    assert list(tmp_path.iterdir()) == []
    assert run.check_all(workload, [(op, output)], strict=True) == []
    assert len(run.check_all(workload, [(op, _perturb(output))], strict=False)) == 1


def test_failed_suite_is_a_failed_op(tmp_path):
    workload = workloads.VerifySuites(_context(tmp_path))
    report = Report("bp", [CheckResult.ok("x"), CheckResult("y", "fail", {})])
    assert len(run.check_all(workload, [(("bp", 4, 0), report)], strict=False)) == 1


def test_self_time_subtracts_children_and_tail_keeps_ten_beyond():
    records = [["op", 0.0, 10.0, None, 0], ["io.parse", 1.0, 3.0, 0, 0],
               ["cumulants.x", 3.0, 9.0, 0, 0]]
    assert spans.self_times(records) == {"bench": 2.0, "io": 2.0, "cumulants": 6.0}
    value, pct = spans.tail(list(range(100)))
    assert value == 89 and pct == 90.0


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lib-mixed",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
