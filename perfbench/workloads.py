"""The three workloads: how each op runs and how its output is checked.

Each workload makes one group of layers do most of the work:

- lib-mixed: a long-running library user.  Coproduct caches are warm after
  the first op of each shape, so functionals, magnus and Fraction arithmetic
  do the work; input sparsity matters because the pairing kernels skip zero
  legs.
- cli-univariate: one ``python -m shuffleprob`` process per op, so every op
  starts with cold caches; coproduct construction, words, cli and io
  dominate.  The same coproduct layer is warm in lib-mixed and cold here.
- verify-suites: ``run_suite`` over the six suites, the only workload that
  runs axioms, the partition oracle, verify and the LabeledContext closed
  forms.  It does no io or cli work.

``prepare`` turns the generated ops of one pass into runnable ones during
set-up;
``run`` executes one op with spans around every call into the package and
returns its output; ``check`` compares that output with an independent
reference outside the timed region and returns True when it agrees;
``close`` removes what ``prepare`` left behind.
"""

from __future__ import annotations

import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import gen
import reference as ref


def parse_map(raw):
    """A JSON value map to {tuple of letter names: Fraction}."""
    return {tuple(k.split(".")): Fraction(v) for k, v in raw.items()}


def read_distribution(text):
    obj = json.loads(text)
    return tuple(obj["letters"]), obj["max_degree"], parse_map(obj["moments"])


def read_cumulants(text):
    obj = json.loads(text)
    return obj["kind"], tuple(obj["letters"]), obj["max_degree"], parse_map(obj["values"])


class Reference:
    """Reference recursions; in strict mode every moment table they produce
    is also re-derived with the package's partition oracle (degree <= 10)."""

    def __init__(self, strict):
        self.strict = strict

    def moments(self, kappa, kind, letters, n):
        mom = ref.moments(kappa, kind, letters, n)
        self._oracle(kappa, kind, letters, n, mom)
        return mom

    def cumulants(self, mom, kind, letters, n):
        kappa = ref.cumulants(mom, kind, letters, n)
        self._oracle(kappa, kind, letters, n, mom)
        return kappa

    def univariate(self, kappa, kind, mom):
        """Sequences indexed by degree, checked in strict mode only."""
        n = len(mom) - 1
        word = lambda d: ("a",) * d
        self._oracle({word(d): kappa[d] for d in range(1, n + 1) if kappa[d]}, kind, ("a",), n,
                     {word(d): mom[d] for d in range(1, n + 1)})

    def _oracle(self, kappa, kind, letters, n, mom):
        if not self.strict:
            return
        from shuffleprob import Letter, Word, oracle_moments
        table = {name: Letter(name) for name in letters}
        as_word = lambda w: Word(table[x] for x in w)
        sp_kappa = {as_word(w): v for w, v in kappa.items()}
        for w in ref.words_up_to(letters, min(n, 10)):
            if oracle_moments(sp_kappa, kind, as_word(w)) != mom.get(w, 0):
                raise AssertionError(f"reference disagrees with the oracle at {w}")


class Workload:
    cycles = 1  # cycles of the op mix in one pass
    pass_s = 6.0  # a run makes round(--seconds / pass_s) passes, at least 3
    warm_up = False  # one untimed cycle before the timed passes
    gauge_reps = 10  # gauge kernel runs between two ops (see speed.py)

    def prepare(self, ops):
        return ops

    def probe_io(self, ops, outputs, tr):
        """Spans for io work done outside the parent process (none here)."""

    def close(self):
        pass


class LibMixed(Workload):
    name = "lib-mixed"
    shapes = gen.LIB_SHAPES
    probe_shape = (("a", "b"), 6)
    # two cycles, so that a pass has each op in every density and
    # coefficient size, and the median op does not hang on a few values
    cycles = 2
    pass_s = 8.0  # a pass takes about 8 s at a slowdown of 1.8
    gauge_reps = 2
    # a long-running process pays for filling the coproduct caches once
    # (cli-univariate measures that cold cost)
    warm_up = True

    def __init__(self, context):
        from shuffleprob import cumulants, io as sio, products
        self.cu, self.sio, self.pr = cumulants, sio, products

    def params(self):
        return {"shapes": [list(s) for s in self.shapes], "ops_per_cycle": 13 * len(self.shapes),
                "densities": ["dense", "sparse"], "coefficient_bounds": gen.COEFF_BOUNDS,
                "convert_pairs": gen.CONVERT_PAIRS, "bp_t": [str(t) for t in gen.BP_TS]}

    def run(self, op, tr):
        call, arg, texts = op
        cu, sio, pr = self.cu, self.sio, self.pr
        with tr.span("io.parse"):
            objs = [json.loads(t) for t in texts]
            if call in ("cumulants.from_cumulants", "cumulants.convert"):
                kind, letters, n, values = sio.parse_cumulant_map(objs[0])
            else:
                ds = [sio.parse_distribution(o) for o in objs]
        if call == "cumulants.to_cumulants":
            with tr.span(f"{call}.{arg}"):
                out = cu.to_cumulants(ds[0], arg)
            d = ds[0]
            make = lambda: sio.cumulant_map_to_json(arg, d.letters, d.max_degree, out)
        elif call == "cumulants.from_cumulants":
            with tr.span(f"{call}.{kind}"):
                out = cu.from_cumulants(values, kind, letters, n)
            make = lambda: sio.distribution_to_json(out)
        elif call == "cumulants.convert":
            with tr.span(f"{call}.{arg}"):
                out = cu.convert(values, kind, arg, n, letters)
            make = lambda: sio.cumulant_map_to_json(arg, letters, n, out)
        else:
            with tr.span(call):
                if call == "products.convolve":
                    out = pr.convolve_distributions(ds[0], ds[1], arg)
                elif call == "products.subordinate":
                    out = pr.subordinate_distributions(ds[0], ds[1], arg)
                else:
                    out = pr.bp_distribution(ds[0], Fraction(arg))
            make = lambda: sio.distribution_to_json(out)
        with tr.span("io.dump"):
            buf = io.StringIO()
            sio.dump_json(make(), buf)
            return buf.getvalue()

    def io_bytes(self, op, output):
        return sum(map(len, op[2])) + len(output)

    def check(self, op, output, refs):
        call, arg, texts = op
        if call in ("cumulants.from_cumulants", "cumulants.convert"):
            kind, letters, n, values = read_cumulants(texts[0])
        else:
            inputs = [read_distribution(t) for t in texts]
            letters, n = inputs[0][0], inputs[0][1]
            m1 = inputs[0][2]
            m2 = inputs[1][2] if len(inputs) > 1 else None
        if call.startswith("cumulants.") and call != "cumulants.from_cumulants":
            got_kind, got_letters, got_n, got = read_cumulants(output)
            if (got_kind, got_letters, got_n) != (arg, letters, n):
                return False
        else:
            got_letters, got_n, got = read_distribution(output)
            if (got_letters, got_n) != (letters, n):
                return False

        R = lambda m, k: refs.cumulants(m, k, letters, n)
        M = lambda c, k: refs.moments(c, k, letters, n)
        if call == "cumulants.to_cumulants":
            return got == R(m1, arg)
        if call == "cumulants.from_cumulants":
            return got == M(values, kind)
        if call == "cumulants.convert":
            return got == R(M(values, kind), arg)
        if call == "products.convolve":
            if arg in ("free", "boolean"):
                return got == M(ref.add(R(m1, arg), R(m2, arg)), arg)
            pair = (m1, m2) if arg == "monotone-left" else (m2, m1)
            return got == ref.conv_product(*pair, letters, n)
        if call == "products.subordinate":
            # left:  m1 (+)free m2    = m2 * result
            # right: m1 (+)boolean m2 = result * m1
            kind = "free" if arg == "left" else "boolean"
            target = M(ref.add(R(m1, kind), R(m2, kind)), kind)
            pair = (m2, got) if arg == "left" else (got, m1)
            return ref.conv_product(*pair, letters, n) == target
        # bp_t = boolean 1/(1+t) power of the free (1+t) power (Belinschi-Nica)
        t = Fraction(arg)
        free_power = M(ref.add(R(m1, "free"), scale=1 + t), "free")
        return got == M(ref.add(R(free_power, "boolean"), scale=1 / (1 + t)), "boolean")


class CliUnivariate(Workload):
    name = "cli-univariate"
    shapes = tuple((("a",), n) for n in sorted({op[3] for op in gen.CLI_CYCLE}))
    probe_shape = (("a",), 9)
    # with the default pass_s; a pass takes about 7 s at a slowdown of 1.8

    def __init__(self, context):
        from shuffleprob import Distribution, Letter, Word, io as sio
        self.sio, self.Distribution, self.Letter, self.Word = sio, Distribution, Letter, Word
        self.root = context["root"]
        self.env = context["child_env"]
        self.indir = Path(context["out"]) / f"cli-inputs-{os.getpid()}"

    def params(self):
        return {"cycle": [[sub, kind, family, n] for sub, kind, family, n in gen.CLI_CYCLE],
                "SHUFFLE_MAX_DEGREE": gen.CLI_MAX_DEGREE}

    def prepare(self, ops):
        """Each op's input file, written through the package's io in set-up
        so that an op times nothing but its CLI process."""
        self.indir.mkdir(parents=True, exist_ok=True)
        prepared = []
        for i, (sub, kind, text, n) in enumerate(ops):
            path = str(self.indir / f"{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                self.sio.dump_json(json.loads(text), fh)
            prepared.append((sub, kind, text, n, path))
        return prepared

    def close(self):
        shutil.rmtree(self.indir, ignore_errors=True)

    def run(self, op, tr):
        sub, kind, _, _, path = op
        args = [sys.executable, "-m", "shuffleprob", sub, path]
        if sub != "moments":
            args += ["--kind", kind if sub == "cumulants" else kind[1]]
        with tr.span("cli.process"):
            proc = subprocess.run(args, cwd=self.root, env=self.env,
                                  capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        return proc.stdout

    def probe_io(self, ops, outputs, tr):
        """The CLI's own io, repeated in-process on each op's files: the
        child loads and parses the input file and dumps its result."""
        for i, (op, output) in enumerate(zip(ops, outputs)):
            if isinstance(output, Exception):
                continue
            sub, path = op[0], op[4]
            parse = self.sio.parse_distribution if sub == "cumulants" else self.sio.parse_cumulant_map
            obj = json.loads(output)
            tr.op = i
            with tr.span("io.parse"):
                parse(self.sio.load_json_file(path))
            with tr.span("io.dump"):
                self.sio.dump_json(obj, io.StringIO())

    def io_bytes(self, op, output):
        return len(op[2]) + len(output)

    def check(self, op, output, refs):
        """Values from the classical univariate recursions, rendered through
        the package's io in-process; the CLI's stdout must match byte for byte."""
        sub, kind, text, n, _ = op
        if sub == "cumulants":
            letters, _, given = read_distribution(text)
        else:
            source, letters, _, given = read_cumulants(text)
        seq = [Fraction(0)] + [given.get(("a",) * d, Fraction(0)) for d in range(1, n + 1)]
        if sub == "cumulants":
            values, out_kind = ref.uni_cumulants(seq, kind, n), kind
            relations = [(kind, values, seq)]
        elif sub == "moments":
            values, out_kind = ref.uni_moments(seq, source, n), None
            relations = [(source, seq, values)]
        else:
            mom, out_kind = ref.uni_moments(seq, kind[0], n), kind[1]
            values = ref.uni_cumulants(mom, out_kind, n)
            relations = [(kind[0], seq, mom), (out_kind, values, mom)]
        for rel_kind, cum, mom in relations:
            refs.univariate(cum, rel_kind, mom)
        letter = self.Letter("a")
        table = {self.Word((letter,) * d): values[d] for d in range(1, n + 1) if values[d]}
        if out_kind is None:
            obj = self.sio.distribution_to_json(self.Distribution((letter,), n, table))
        else:
            obj = self.sio.cumulant_map_to_json(out_kind, (letter,), n, table)
        buf = io.StringIO()
        self.sio.dump_json(obj, buf)
        return output == buf.getvalue()


class VerifySuites(Workload):
    name = "verify-suites"
    shapes = tuple((gen.VERIFY_LETTERS, n) for n in sorted({n for _, n in gen.VERIFY_CYCLE}))
    probe_shape = (gen.VERIFY_LETTERS, 5)
    # a pass takes about 9 s at a slowdown of 1.8, but its 7 ops need 4
    # passes for a steady median
    gauge_reps = 20  # ops of up to seconds

    def __init__(self, context):
        from shuffleprob import run_suite
        self.run_suite = run_suite

    def params(self):
        return {"cycle": [list(op) for op in gen.VERIFY_CYCLE],
                "letters": list(gen.VERIFY_LETTERS)}

    def run(self, op, tr):
        suite, n, seed = op
        extra = "" if (suite, n) in gen.VERIFY_CYCLE[:6] else f".degree{n}"
        with tr.span(f"verify.{suite}{extra}"):
            return self.run_suite(suite, max_degree=n, seed=seed, letters=gen.VERIFY_LETTERS)

    def io_bytes(self, op, output):
        return 0

    def check(self, op, output, refs):
        return output.passed and len(output.results) > 0


WORKLOADS = {w.name: w for w in (LibMixed, CliUnivariate, VerifySuites)}
