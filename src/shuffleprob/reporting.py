"""Pass/fail records shared by the verification suites and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .io import rational_str


@dataclass
class CheckResult:
    """Outcome of one named identity over its whole test range."""

    name: str
    status: str = "pass"                 # "pass" | "fail"
    witness: dict | None = None          # element + both values on failure

    @classmethod
    def ok(cls, name: str) -> "CheckResult":
        return cls(name)

    @classmethod
    def fail(cls, name: str, element, lhs, rhs) -> "CheckResult":
        """element is shown by its repr, or as it is when it is already text;
        a value that is an int or a Fraction as "p" or "p/q", and any other,
        such as a structural witness of the coalgebra or series checks, by
        str."""
        if not isinstance(element, str):
            element = repr(element)
        show = lambda v: rational_str(v) if isinstance(v, (int, Fraction)) else str(v)
        return cls(name, "fail", {"element": element, "lhs": show(lhs), "rhs": show(rhs)})

    @classmethod
    def from_mismatch(cls, name: str, mismatch) -> "CheckResult":
        """mismatch is None (pass) or an (element, lhs, rhs) triple."""
        if mismatch is None:
            return cls.ok(name)
        return cls.fail(name, *mismatch)

    def to_json(self) -> dict:
        out = {"identity": self.name, "status": self.status}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


@dataclass
class Report:
    suite: str
    results: list[CheckResult] = field(default_factory=list)

    def add(self, result: CheckResult):
        self.results.append(result)

    def extend(self, results):
        self.results.extend(results)

    @property
    def passed(self) -> bool:
        return all(r.status == "pass" for r in self.results)

    @property
    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if r.status != "pass"]

    def to_json(self) -> dict:
        return {"suite": self.suite,
                "passed": self.passed,
                "checks": [r.to_json() for r in self.results]}

    def lines(self):
        for r in self.results:
            if r.status == "pass":
                yield f"[PASS] {self.suite}: {r.name}"
            else:
                yield (f"[FAIL] {self.suite}: {r.name} — witness {r.witness['element']}: "
                       f"{r.witness['lhs']} != {r.witness['rhs']}")
