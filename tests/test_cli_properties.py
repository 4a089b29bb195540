"""Property test of the CLI's input boundary: a valid distribution or
cumulant file with one field corrupted makes every data command that reads
it exit 2 with ``error: ...`` on stderr, write nothing to stdout or to its
``-o`` path, and raise nothing; the same file uncorrupted exits 0."""

import contextlib
import io
import json
import os
import tempfile
from itertools import product

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from shuffleprob.cli import main  # noqa: E402

#: no example database in the checkout, and no deadline on a shared machine
SETTINGS = settings(max_examples=40, deadline=None, database=None)

#: each data command, 1 and 2 standing for its first and second input file
COMMANDS = {
    "distribution": [["cumulants", 1, "--kind", "free"], ["convolve", 1, 2, "--kind", "free"],
                     ["subordinate", 1, 2, "--side", "left"], ["bp", 1, "--t", "1/2"],
                     ["series", 1, "--kind", "M"]],
    "cumulant": [["moments", 1], ["convert", 1, "--kind", "boolean"]],
}
MAP_FIELD = {"distribution": "moments", "cumulant": "values"}

BAD_LETTERS = ["a", {"a": 1}, 3, [], ["a", "a"], ["a.b"], ["a|b"], ["a#"], ["a b"], ["1"]]
BAD_DEGREES = [0, -1, True, 2.0, "2"]
BAD_MAPS = [["a"], "a", 3]
BAD_VALUES = [1.5, True, [1], "1e3", "1/0", "x"]
UNKNOWN_FIELDS = ["moment", "value", "kinds", "comment", "max-degree"]
BAD_KINDS = ["gaussian", "Free", None, 1]


@st.composite
def valid_files(draw):
    """(format, file object) over 1-2 letters at degree <= 3."""
    fmt = draw(st.sampled_from(sorted(COMMANDS)))
    names = draw(st.lists(st.sampled_from(["a", "b", "x1"]), min_size=1, max_size=2,
                          unique=True))
    n = draw(st.integers(1, 3))
    words = [".".join(t) for k in range(1, n + 1) for t in product(names, repeat=k)]
    keys = draw(st.lists(st.sampled_from(words), max_size=6, unique=True))
    values = {k: draw(st.sampled_from(["1", "-2/3", "5/7", "0", 3])) for k in keys}
    obj = {"letters": names, "max_degree": n, MAP_FIELD[fmt]: values}
    if fmt == "cumulant":
        obj["kind"] = draw(st.sampled_from(["free", "boolean", "monotone"]))
    return fmt, obj


@st.composite
def corruptions(draw, fmt, obj):
    """obj with one field corrupted."""
    bad = json.loads(json.dumps(obj))
    field = MAP_FIELD[fmt]
    names, n = obj["letters"], obj["max_degree"]
    fields = ["letters", "max_degree", "map", "key", "value", "unknown"]
    what = draw(st.sampled_from(fields + (["kind"] if fmt == "cumulant" else [])))
    if what == "letters":
        bad["letters"] = draw(st.sampled_from(BAD_LETTERS))
    elif what == "max_degree":
        bad["max_degree"] = draw(st.sampled_from(BAD_DEGREES))
    elif what == "map":
        if draw(st.booleans()):
            del bad[field]
        else:
            bad[field] = draw(st.sampled_from(BAD_MAPS))
    elif what == "key":
        key = draw(st.sampled_from(["z", ".".join([names[0]] * (n + 1))]))
        bad[field][key] = "1"
    elif what == "value":
        bad[field][draw(st.sampled_from(names))] = draw(st.sampled_from(BAD_VALUES))
    elif what == "unknown":
        bad[draw(st.sampled_from(UNKNOWN_FIELDS))] = bad.get(field, {})
    elif draw(st.booleans()):
        del bad["kind"]
    else:
        bad["kind"] = draw(st.sampled_from(BAD_KINDS))
    return bad


def run(template, files, *extra):
    """(exit code, stdout, stderr) of main on the command template with
    its input files and the extra arguments."""
    argv = [files[a] if isinstance(a, int) else a for a in template] + list(extra)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@SETTINGS
@given(st.data())
def test_malformed_files_exit_two_from_every_data_command(data):
    fmt, obj = data.draw(valid_files())
    bad = data.draw(corruptions(fmt, obj))
    with tempfile.TemporaryDirectory() as tmp:
        good_path, bad_path, out_path = (os.path.join(tmp, f"{name}.json")
                                         for name in ("good", "bad", "out"))
        for path, content in ((good_path, obj), (bad_path, bad)):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(content, fh)
        for template in COMMANDS[fmt]:
            code, _, err = run(template, {1: good_path, 2: good_path})
            assert code == 0, (template, err)
            operand = data.draw(st.sampled_from([a for a in template if isinstance(a, int)]))
            extra = ["-o", out_path] if data.draw(st.booleans()) else []
            files = {1: good_path, 2: good_path, operand: bad_path}
            code, out, err = run(template, files, *extra)
            assert code == 2, (template, operand, bad, err)
            assert err.startswith("error: ") and err.endswith("\n"), err
            assert out == "", out
            assert not os.path.exists(out_path)
