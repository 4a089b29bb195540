"""The verification surface: randomized identity suites and seeded defects.

Every theorem the engine relies on is re-derived on demand over a seeded
random corpus; a report carries one line per identity with the first
counterexample as witness.  To show the suites have teeth, the seeded-defect
context manager swaps a broken twin in for one primitive at a time and the
right suite calls it out at low degree.
"""

from shuffleprob import run_suites
from shuffleprob.mutations import inject_defect

print("clean run (degree <= 4):")
for report in run_suites(["coalgebra", "magnus"], max_degree=4, seed=0):
    ok = sum(1 for c in report.results if c.status == "pass")
    print(f"  {report.suite}: {ok}/{len(report.results)} identities hold")
print()

print("now drop one subset term from the left half-coproduct:")
with inject_defect("drop-left-singleton"):
    [report] = run_suites(["coalgebra"], max_degree=3, seed=0)
for line in report.lines():
    if "[FAIL]" in line:
        print(" ", line)
print()

print("skip one Bernoulli weight inside the Magnus recursion:")
with inject_defect("skip-bernoulli-2"):
    [report] = run_suites(["magnus"], max_degree=4, seed=0)
for line in list(report.lines())[:6]:
    print(" ", line)
print()

[report] = run_suites(["coalgebra"], max_degree=3, seed=0)
print("defects are scoped: after the context exits, everything passes again:",
      report.passed)
