import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from shuffleprob import Letter, Word, infinitesimal
from shuffleprob.words import words_up_to

AB = (Letter("a"), Letter("b"))


@pytest.fixture
def ab():
    return AB


def random_fraction(rng):
    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))


def random_inf(seed, letters=AB, max_degree=5):
    rng = random.Random(seed)
    values = {}
    for w in words_up_to(letters, max_degree):
        v = random_fraction(rng)
        if v:
            values[w] = v
    return infinitesimal(values)


def uword(letter_name, k, letters=AB):
    by_name = {l.name: l for l in letters}
    return Word((by_name[letter_name],) * k)


ROOT = Path(__file__).resolve().parents[1]


def run_python(*args, timeout=120):
    """Run a fresh interpreter on the package sources of this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=timeout)
