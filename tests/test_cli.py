import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from shuffleprob import ValidationError, io as sio
from shuffleprob.cli import main
from shuffleprob.mutations import inject_defect

from conftest import run_python

SEMICIRCLE = {
    "letters": ["a"],
    "max_degree": 6,
    "moments": {"a.a": "1", "a.a.a.a": "2", "a.a.a.a.a.a": "5"},
}

BERNOULLI = {
    "letters": ["a"],
    "max_degree": 6,
    "moments": {"a.a": "1", "a.a.a.a": "1", "a.a.a.a.a.a": "1"},
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read(path):
    with open(path) as fh:
        return json.load(fh)


def test_cumulants_free(tmp_path):
    src = write(tmp_path, "sem.json", SEMICIRCLE)
    out = str(tmp_path / "free.json")
    assert main(["cumulants", src, "--kind", "free", "-o", out]) == 0
    payload = read(out)
    assert payload["kind"] == "free"
    assert payload["values"] == {"a.a": "1"}


def test_cumulants_monotone_half(tmp_path):
    src = write(tmp_path, "sem.json", SEMICIRCLE)
    out = str(tmp_path / "mono.json")
    assert main(["cumulants", src, "--kind", "monotone", "--max-degree", "4",
                 "-o", out]) == 0
    assert read(out)["values"]["a.a.a.a"] == "1/2"


def test_moments_inverts_cumulants(tmp_path):
    src = write(tmp_path, "sem.json", SEMICIRCLE)
    cums = str(tmp_path / "free.json")
    back = str(tmp_path / "back.json")
    main(["cumulants", src, "--kind", "free", "-o", cums])
    assert main(["moments", cums, "-o", back]) == 0
    assert read(back)["moments"] == SEMICIRCLE["moments"]


def test_convert(tmp_path):
    src = write(tmp_path, "sem.json", SEMICIRCLE)
    cums = str(tmp_path / "free.json")
    conv = str(tmp_path / "bool.json")
    main(["cumulants", src, "--kind", "free", "-o", cums])
    assert main(["convert", cums, "--kind", "boolean", "-o", conv]) == 0
    assert read(conv)["values"] == {"a.a": "1", "a.a.a.a": "1", "a.a.a.a.a.a": "2"}


def test_convolve_semicircles(tmp_path):
    src = write(tmp_path, "sem.json", SEMICIRCLE)
    out = str(tmp_path / "sum.json")
    assert main(["convolve", "--kind", "free", src, src, "-o", out]) == 0
    assert read(out)["moments"] == {"a.a": "2", "a.a.a.a": "8",
                                    "a.a.a.a.a.a": "40"}


def test_bp_bernoulli_to_semicircle(tmp_path):
    src = write(tmp_path, "bern.json", BERNOULLI)
    out = str(tmp_path / "img.json")
    assert main(["bp", src, "-o", out]) == 0
    assert read(out)["moments"] == SEMICIRCLE["moments"]


def test_bp_semigroup_parameter(tmp_path):
    src = write(tmp_path, "bern.json", BERNOULLI)
    half1 = str(tmp_path / "h1.json")
    half2 = str(tmp_path / "h2.json")
    whole = str(tmp_path / "w.json")
    assert main(["bp", src, "--t", "1/2", "-o", half1]) == 0
    assert main(["bp", half1, "--t", "1/2", "-o", half2]) == 0
    assert main(["bp", src, "--t", "1", "-o", whole]) == 0
    assert read(half2) == read(whole)


def test_subordinate_decomposition(tmp_path):
    # free convolution factors through the subordination product:
    # moments of d1 [+]< d2 match the convolution of d1 with (d2 |> d1)
    d1 = write(tmp_path, "d1.json", SEMICIRCLE)
    d2 = write(tmp_path, "d2.json", BERNOULLI)
    sub = str(tmp_path / "sub.json")
    conv = str(tmp_path / "conv.json")
    both = str(tmp_path / "both.json")
    assert main(["subordinate", "--side", "left", d2, d1, "-o", sub]) == 0
    assert main(["convolve", "--kind", "free", d1, d2, "-o", conv]) == 0
    assert main(["convolve", "--kind", "monotone-left", d1, sub, "-o", both]) == 0
    assert read(conv)["moments"] == read(both)["moments"]


def test_series(tmp_path):
    src = write(tmp_path, "sem.json", SEMICIRCLE)
    out = str(tmp_path / "r.json")
    assert main(["series", src, "--kind", "R", "-o", out]) == 0
    payload = read(out)
    assert payload["series"] == "R"
    assert payload["coefficients"] == {"a.a": "1"}


def test_round_trip_is_byte_stable(tmp_path):
    src = write(tmp_path, "sem.json", SEMICIRCLE)
    out1 = str(tmp_path / "o1.json")
    out2 = str(tmp_path / "o2.json")
    main(["cumulants", src, "--kind", "boolean", "-o", out1])
    main(["cumulants", src, "--kind", "boolean", "-o", out2])
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def test_verify_exits_zero(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    assert main(["verify", "--suite", "coalgebra", "--max-degree", "3",
                 "-o", out]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines and all(l.startswith("[PASS]") for l in lines)
    assert read(out)["passed"] is True


def test_verify_all_with_another_suite_runs_each_suite_once(capsys):
    assert main(["verify", "--suite", "all", "--suite", "coalgebra",
                 "--max-degree", "2"]) == 0
    mixed = capsys.readouterr().out
    assert main(["verify", "--max-degree", "2"]) == 0
    assert mixed == capsys.readouterr().out


def test_verify_reports_failure_with_nonzero_exit(tmp_path, capsys):
    with inject_defect("drop-left-singleton"):
        code = main(["verify", "--suite", "coalgebra", "--max-degree", "3"])
    assert code == 1
    assert "[FAIL]" in capsys.readouterr().out


def test_verify_coalgebra_subcommand(tmp_path):
    out = str(tmp_path / "report.json")
    assert main(["verify-coalgebra", "--letters", "a,b", "--max-degree", "3",
                 "-o", out]) == 0
    payload = read(out)
    assert payload["passed"] is True
    assert all(set(c) >= {"axiom", "status"} for c in payload["checks"])


def test_bad_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["cumulants", str(bad), "--kind", "free"]) == 2
    err = capsys.readouterr().err
    assert "line" in err


def test_validation_errors_exit_two(tmp_path):
    src = write(tmp_path, "bad.json", {"letters": ["a"], "max_degree": 2,
                                       "moments": {"a.b": "1"}})
    assert main(["cumulants", src, "--kind", "free"]) == 2
    src2 = write(tmp_path, "neg.json", SEMICIRCLE)
    assert main(["bp", src2, "--t", "-1"]) == 2
    assert main(["verify", "--max-degree", "0"]) == 2


def test_degree_cap_env_override(tmp_path, monkeypatch):
    src = write(tmp_path, "sem.json", SEMICIRCLE)
    monkeypatch.setenv("SHUFFLE_MAX_DEGREE", "4")
    assert main(["cumulants", src, "--kind", "free"]) == 2  # 6 > capped 4
    assert main(["cumulants", src, "--kind", "free", "--max-degree", "4",
                 "-o", str(tmp_path / "ok.json")]) == 0


def test_stdout_output(tmp_path, capsys):
    src = write(tmp_path, "sem.json", SEMICIRCLE)
    assert main(["series", src, "--kind", "eta"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["coefficients"]["a.a"] == "1"


def test_missing_file_exits_two(tmp_path, capsys):
    assert main(["cumulants", str(tmp_path / "nope.json"), "--kind", "free"]) == 2
    assert "error:" in capsys.readouterr().err


def test_unwritable_output_exits_two(tmp_path, capsys):
    # the -o path is checked before any value is computed or any suite runs
    src = write(tmp_path, "sem.json", SEMICIRCLE)
    out = str(tmp_path / "no-such-dir" / "x.json")
    for cmd in (["cumulants", src, "--kind", "free"],
                ["verify", "--suite", "coalgebra", "--max-degree", "2"]):
        assert main(cmd + ["-o", out]) == 2
        captured = capsys.readouterr()
        assert "error: cannot write" in captured.err
        assert captured.out == ""


def test_failed_command_leaves_output_path_as_it_was(tmp_path, capsys):
    bad = write(tmp_path, "bad.json", {"letters": ["a"], "max_degree": 2,
                                       "moments": {"a.b": "1"}})
    kept = tmp_path / "kept.json"
    kept.write_text("earlier output\n")
    fresh = tmp_path / "fresh.json"
    for out in (kept, fresh):
        assert main(["cumulants", bad, "--kind", "free", "-o", str(out)]) == 2
        assert "undeclared letter" in capsys.readouterr().err
    assert kept.read_text() == "earlier output\n"
    assert not fresh.exists()
    src = write(tmp_path, "sem.json", SEMICIRCLE)
    assert main(["cumulants", src, "--kind", "free", "-o", str(kept)]) == 0
    assert read(kept)["values"] == {"a.a": "1"}


def test_unknown_suite_exits_two_naming_the_suites(capsys):
    from shuffleprob.verify import SUITES
    for suites in (["bogus"], ["coalgebra", "bogus"]):
        argv = ["verify", "--max-degree", "2"]
        for name in suites:
            argv += ["--suite", name]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unknown suite 'bogus'" in captured.err
        assert all(name in captured.err for name in SUITES)


def test_empty_word_key_in_cumulant_file_exits_two(tmp_path, capsys):
    src = write(tmp_path, "bad.json", {"kind": "free", "letters": ["a"],
                                       "max_degree": 2, "values": {"1": "1"}})
    assert main(["moments", src]) == 2
    assert "empty word" in capsys.readouterr().err


def test_parse_rational_accepts_only_p_and_p_over_q():
    assert sio.parse_rational(" -3/4 ") == Fraction(-3, 4)
    assert sio.parse_rational("+7") == 7
    assert sio.parse_rational(7) == 7
    # Fraction itself takes exponents, and "1e30000000" would compute
    # 10**30000000; a small exponent shows the refusal without that cost.
    for bad in ("1e3", "0.5", "1_000", "inf", "", "1/0", "1/-2"):
        with pytest.raises(ValidationError):
            sio.parse_rational(bad)


def test_boolean_max_degree_exits_two(tmp_path):
    # JSON true is a Python int; it must not pass as max_degree 1
    src = write(tmp_path, "bool.json", {"letters": ["a"], "max_degree": True,
                                        "moments": {"a": "1/2"}})
    assert main(["cumulants", src, "--kind", "free"]) == 2


def test_exponent_literals_exit_two(tmp_path, capsys):
    src = write(tmp_path, "exp.json", {"letters": ["a"], "max_degree": 2,
                                       "moments": {"a.a": "1e3"}})
    assert main(["cumulants", src, "--kind", "free"]) == 2
    assert "bad rational literal" in capsys.readouterr().err
    sem = write(tmp_path, "sem.json", SEMICIRCLE)
    assert main(["bp", sem, "--t", "1e3"]) == 2


def test_non_utf8_json_exits_two(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"letters": ["\xe9"]}')
    assert main(["cumulants", str(bad), "--kind", "free"]) == 2
    assert "error:" in capsys.readouterr().err


def test_overlong_json_integer_exits_two(tmp_path, capsys):
    # json.load raises a bare ValueError past the int-string digit limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no limit on int-string digits")
    huge = tmp_path / "huge.json"
    huge.write_text('{"letters": ["a"], "max_degree": 2, "moments": {"a.a": 1'
                    + "0" * limit + "}}")
    assert main(["cumulants", str(huge), "--kind", "free"]) == 2
    assert "error:" in capsys.readouterr().err


def test_letter_named_one_exits_two(tmp_path, capsys):
    # "1" is the key of the empty word, so a letter named 1 could not state
    # its degree-1 moment
    for moments in ({"1.1": "1"}, {"1": "1/2", "1.1": "1"}):
        src = write(tmp_path, "one.json", {"letters": ["1"], "max_degree": 2,
                                           "moments": moments})
        assert main(["cumulants", src, "--kind", "free"]) == 2
        assert "reserved for the empty word" in capsys.readouterr().err
    with pytest.raises(ValidationError):
        sio.parse_cumulant_map({"kind": "free", "letters": ["a", "1"], "max_degree": 2})


def test_bad_letter_names_exit_two(capsys):
    # the letter-name rule of the input files: a duplicate would enumerate
    # every word twice, "1", "a.b" and "a|b" would print as other words, and
    # no name at all would certify every identity over no letters
    for raw in ("a,a", "1,b", "a.b,c", "a|b", ","):
        for cmd in (["verify", "--suite", "coalgebra"], ["verify-coalgebra"]):
            assert main(cmd + ["--letters", raw, "--max-degree", "2"]) == 2, (cmd, raw)
            assert "error:" in capsys.readouterr().err


def test_max_degree_above_cumulant_file_exits_two(tmp_path, capsys):
    # the same rule as for a distribution input: --max-degree may truncate,
    # never extend
    src = write(tmp_path, "sem.json", SEMICIRCLE)
    cums = str(tmp_path / "free.json")
    assert main(["cumulants", src, "--kind", "free", "--max-degree", "4", "-o", cums]) == 0
    for cmd in (["moments", cums], ["convert", cums, "--kind", "boolean"]):
        assert main(cmd + ["--max-degree", "9"]) == 2
        assert "exceeds the input's max_degree 4" in capsys.readouterr().err
        assert main(cmd + ["--max-degree", "2"]) == 0
        assert '"max_degree": 2' in capsys.readouterr().out
    assert main(["cumulants", src, "--kind", "free", "--max-degree", "9"]) == 2


# Golden outputs: each command's stdout on a fixed 2-letter degree-4
# distribution pair and cumulant file, compared byte for byte.
GOLDEN_CLI = Path(__file__).resolve().parent / "golden" / "cli"
KINDS = ("free", "boolean", "monotone")


def golden_cli_cases():
    """(name, argv) of each golden CLI run; its stdout is ``<name>.json``.
    convert reads the golden ``cumulants-<kind>.json`` files as its inputs."""
    d1, d2, cums = (str(GOLDEN_CLI / f"in-{n}.json")
                    for n in ("dist-1", "dist-2", "cumulants"))
    cases = [(f"cumulants-{k}", ["cumulants", d1, "--kind", k]) for k in KINDS]
    cases += [(f"moments-{k}", ["moments", cums, "--kind", k]) for k in KINDS]
    cases += [(f"convert-{a}-{b}",
               ["convert", str(GOLDEN_CLI / f"cumulants-{a}.json"), "--kind", b])
              for a in KINDS for b in KINDS]
    cases += [(f"convolve-{k}", ["convolve", d1, d2, "--kind", k])
              for k in ("free", "boolean", "monotone-left", "monotone-right")]
    cases += [(f"subordinate-{s}", ["subordinate", d1, d2, "--side", s])
              for s in ("left", "right")]
    cases += [(f"bp-{t.replace('/', '_')}", ["bp", d1, "--t", t])
              for t in ("1", "1/2", "0", "3")]
    cases += [(f"series-{k}", ["series", d1, "--kind", k]) for k in ("M", "R", "eta")]
    return cases


@pytest.mark.parametrize("name,argv", golden_cli_cases(), ids=[n for n, _ in golden_cli_cases()])
def test_cli_output_matches_golden(name, argv, capsys):
    assert main(argv) == 0
    expected = (GOLDEN_CLI / f"{name}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_cli_degree_forty_free_cumulants_match_golden(monkeypatch, capsys):
    # free cumulants at degree 40 take the boolean route, in well under a
    # second; the exponential direct route would not finish
    monkeypatch.setenv("SHUFFLE_MAX_DEGREE", "40")
    src = str(GOLDEN_CLI / "in-semicircle-40.json")
    assert main(["cumulants", src, "--kind", "free"]) == 0
    expected = (GOLDEN_CLI / "cumulants-free-semicircle-40.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("name,command,src,kind", [
    ("cumulants-monotone-semicircle-40", "cumulants", "in-semicircle-40", "monotone"),
    ("convert-free-boolean-semicircle-40", "convert", "cumulants-free-semicircle-40", "boolean"),
])
def test_cli_degree_forty_magnus_routes_match_golden(name, command, src, kind, monkeypatch,
                                                     capsys):
    # both read the Magnus map at degree 40, on leaves scaled by L^|w| with
    # L the 160-bit lcm of its coefficients' denominators
    monkeypatch.setenv("SHUFFLE_MAX_DEGREE", "40")
    assert main([command, str(GOLDEN_CLI / f"{src}.json"), "--kind", kind]) == 0
    expected = (GOLDEN_CLI / f"{name}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


IMPORT_PROBE = """
import contextlib, io, json, sys
from shuffleprob.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        if main(argv) != 0:
            sys.exit(f"{argv} failed")
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith("shuffleprob.") or m == "dataclasses")))
"""

#: The modules that the data commands must not load.
OFF_THE_DATA_PATH = {"shuffleprob.verify", "shuffleprob.products", "shuffleprob.partitions",
                     "shuffleprob.axioms", "shuffleprob.reporting", "dataclasses"}


def loaded_modules(argvs):
    """The shuffleprob modules and dataclasses loaded after main ran each
    argv in one fresh interpreter."""
    done = run_python("-c", IMPORT_PROBE, json.dumps(argvs))
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout))


def test_data_commands_load_only_the_engine():
    argvs = [argv for name, argv in golden_cli_cases()
             if name.split("-")[0] in ("cumulants", "moments", "convert")]
    loaded = loaded_modules(argvs)
    assert {"shuffleprob.cumulants", "shuffleprob.io"} <= loaded
    assert not loaded & OFF_THE_DATA_PATH, sorted(loaded & OFF_THE_DATA_PATH)


def test_convolve_loads_products_but_not_verify():
    d1, d2 = (str(GOLDEN_CLI / f"in-dist-{n}.json") for n in (1, 2))
    loaded = loaded_modules([["convolve", d1, d2, "--kind", "free"]])
    assert "shuffleprob.products" in loaded
    assert "shuffleprob.verify" not in loaded
