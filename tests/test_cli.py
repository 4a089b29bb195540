import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import shuffleprob as sp
from shuffleprob import CumulantKind, ValidationError, io as sio
from shuffleprob.cli import build_parser, main
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


def test_verify_coalgebra_subcommand(tmp_path, capsys):
    # the one-suite verify, with a JSON shape of its own: checks by axiom
    out = tmp_path / "report.json"
    assert main(["verify-coalgebra", "--letters", "a,b", "--max-degree", "3",
                 "-o", str(out)]) == 0
    golden = Path(__file__).resolve().parent / "golden"
    assert capsys.readouterr().out == (golden / "verify-coalgebra-a-b-degree-3.txt").read_text()
    assert out.read_bytes() == (golden / "verify-coalgebra-a-b-degree-3.json").read_bytes()


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


def test_failed_command_through_a_dangling_symlink_leaves_no_file(tmp_path, capsys):
    # the -o check makes the link's target to test it, and must remove it
    # again, not leave an empty file there
    link, target = tmp_path / "out.json", tmp_path / "target.json"
    try:
        os.symlink(target, link)
    except (NotImplementedError, OSError):
        pytest.skip("symlinks are not available here")
    bad = write(tmp_path, "bad.json", {"letters": ["a"], "max_degree": 2,
                                       "moments": {"a.b": "1"}})
    assert main(["cumulants", bad, "--kind", "free", "-o", str(link)]) == 2
    assert "undeclared letter" in capsys.readouterr().err
    assert link.is_symlink() and not target.exists()
    src = write(tmp_path, "sem.json", SEMICIRCLE)
    assert main(["cumulants", src, "--kind", "free", "-o", str(link)]) == 0
    assert link.is_symlink() and read(target)["values"] == {"a.a": "1"}


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


def test_overlong_output_value_exits_two(tmp_path, capsys):
    # moments of a quarter of the int-string digit limit are read, but the
    # degree-8 free cumulants hold their eighth powers, which the writer
    # cannot print: it refuses them as the reader would, before any output
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no limit on int-string digits")
    big = "7" * (limit // 4 + 1)
    src = write(tmp_path, "big.json", {"letters": ["a"], "max_degree": 8, "moments": {
        ".".join("a" * k): big for k in range(1, 9)}})
    out = tmp_path / "out.json"
    for extra in ([], ["-o", str(out)]):
        assert main(["cumulants", src, "--kind", "free", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert not out.exists()


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
    # no name at all would certify every identity over no letters; an empty
    # name is refused too, not dropped
    for raw in ("a,a", "1,b", "a.b,c", "a|b", ",", "a,,b", "a,"):
        for cmd in (["verify", "--suite", "coalgebra"], ["verify-coalgebra"]):
            assert main(cmd + ["--letters", raw, "--max-degree", "2"]) == 2, (cmd, raw)
            assert "error:" in capsys.readouterr().err


def test_letter_names_are_stripped(capsys):
    assert main(["verify-coalgebra", "--letters", " a , b ", "--max-degree", "3"]) == 0
    golden = Path(__file__).resolve().parent / "golden"
    assert capsys.readouterr().out == (golden / "verify-coalgebra-a-b-degree-3.txt").read_text()


def _choices(parser, command, flag):
    """The choices of one option of one command of the parser."""
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    [option] = [a for a in commands.choices[command]._actions if flag in a.option_strings]
    return option.choices


def test_cli_choices_are_accepted_by_the_library():
    # the CLI keeps its own lists, so that it need not import products at
    # start-up; every choice must reach a library call that takes it
    from shuffleprob import products as pr
    parser = build_parser()
    families = [k.value for k in CumulantKind]
    for command in ("cumulants", "moments", "convert"):
        assert _choices(parser, command, "--kind") == families, command
    d = sp.semicircle(3)
    for kind in families:
        values = sp.to_cumulants(d, kind)
        assert sp.from_cumulants(values, kind, d.letters, 3) == d
        for target in families:
            sp.convert(values, kind, target, 3, d.letters)
    for kind in _choices(parser, "convolve", "--kind"):
        pr.convolve_distributions(d, d, kind)
    for side in _choices(parser, "subordinate", "--side"):
        pr.subordinate_distributions(d, d, side)
    for name in _choices(parser, "series", "--kind"):
        sp.series(d, name)


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


@pytest.mark.parametrize("name,argv", golden_cli_cases(), ids=[n for n, _ in golden_cli_cases()])
def test_cli_output_file_matches_golden(name, argv, tmp_path, capsys):
    # -o goes through the same writer as stdout: the file holds the same bytes
    out = tmp_path / "out.json"
    assert main(argv + ["-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == (GOLDEN_CLI / f"{name}.json").read_bytes()


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
    # both read the Magnus map at degree 40, whose coefficients' denominators
    # (their lcm has 160 bits) ride in int pairs over the unscaled semicircle
    monkeypatch.setenv("SHUFFLE_MAX_DEGREE", "40")
    assert main([command, str(GOLDEN_CLI / f"{src}.json"), "--kind", kind]) == 0
    expected = (GOLDEN_CLI / f"{name}.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("name,src,n,kind", [
    ("convert-free-boolean-8", "in-cumulants-9", 8, "boolean"),
    ("convert-free-boolean-9", "in-cumulants-9", 9, "boolean"),
    ("convert-boolean-free-8", "convert-free-boolean-8", None, "free"),
    ("convert-boolean-free-9", "convert-free-boolean-9", None, "free"),
])
def test_cli_conversions_across_the_free_threshold_match_golden(name, src, n, kind,
                                                               monkeypatch, capsys):
    # two letters: free and boolean convert through moments at degree 8 and
    # through the Magnus maps at 9; the goldens predate the moment route
    monkeypatch.setenv("SHUFFLE_MAX_DEGREE", "9")
    argv = ["convert", str(GOLDEN_CLI / f"{src}.json"), "--kind", kind]
    assert main(argv + ([] if n is None else ["--max-degree", str(n)])) == 0
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
                     "shuffleprob.axioms", "shuffleprob.reporting", "shuffleprob.mutations",
                     "dataclasses"}


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


@pytest.mark.parametrize("command,payload,message", [
    ("cumulants", ["a"], "distribution file must be a JSON object"),
    ("moments", "free", "cumulant file must be a JSON object"),
    ("moments", {"letters": ["a"], "max_degree": 2}, "bad or missing 'kind': None"),
    ("moments", {"kind": "gaussian", "letters": ["a"], "max_degree": 2},
     "bad or missing 'kind': 'gaussian'"),
    ("cumulants", {"letters": [], "max_degree": 2},
     "'letters' must be a nonempty list of names"),
    ("cumulants", {"letters": "a", "max_degree": 2},
     "'letters' must be a nonempty list of names"),
    ("cumulants", {"letters": ["a"], "max_degree": 2, "moments": ["a"]},
     "'moments' must be an object mapping words to rationals"),
    ("moments", {"kind": "free", "letters": ["a"], "max_degree": 2, "values": "a"},
     "'values' must be an object mapping words to rationals"),
], ids=["distribution not an object", "cumulants not an object", "missing kind",
        "unknown kind", "empty letters", "letters not a list", "moments not an object",
        "values not an object"])
def test_malformed_input_files_exit_two(tmp_path, capsys, command, payload, message):
    argv = [command, write(tmp_path, "in.json", payload)]
    assert main(argv + (["--kind", "free"] if command == "cumulants" else [])) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


CUMULANT_FILE = {"kind": "free", "letters": ["a"], "max_degree": 2, "values": {"a.a": "1"}}
DISTRIBUTION_FIELDS = "expected letters, max_degree, moments"
CUMULANT_FIELDS = "expected kind, letters, max_degree, values"


def test_misspelt_map_field_exits_two(tmp_path, capsys):
    # read as all zeros, this file used to print "values": {} and exit 0
    payload = {"letters": ["a"], "max_degree": 4, "moment": {"a.a": "1"}}
    assert main(["cumulants", write(tmp_path, "in.json", payload), "--kind", "free"]) == 2
    assert capsys.readouterr() == ("", "error: distribution file has unknown field(s) "
                                   f"'moment'; {DISTRIBUTION_FIELDS}\n")


@pytest.mark.parametrize("argv", [
    ["cumulants", "{c}", "--kind", "free"], ["convolve", "{c}", "{d}", "--kind", "free"],
    ["subordinate", "{d}", "{c}", "--side", "left"], ["bp", "{c}"],
    ["series", "{c}", "--kind", "M"]], ids=lambda argv: argv[0])
def test_cumulant_file_given_to_a_distribution_command_exits_two(tmp_path, capsys, argv):
    paths = {"{c}": write(tmp_path, "c.json", CUMULANT_FILE),
             "{d}": write(tmp_path, "d.json", SEMICIRCLE)}
    assert main([paths.get(a, a) for a in argv]) == 2
    assert capsys.readouterr() == ("", "error: distribution file has unknown field(s) "
                                   f"'kind', 'values'; {DISTRIBUTION_FIELDS}\n")


@pytest.mark.parametrize("argv", [["moments"], ["convert", "--kind", "boolean"]],
                         ids=lambda argv: argv[0])
def test_distribution_file_given_to_a_cumulant_command_exits_two(tmp_path, capsys, argv):
    assert main(argv[:1] + [write(tmp_path, "d.json", SEMICIRCLE)] + argv[1:]) == 2
    assert capsys.readouterr() == ("", "error: cumulant file has unknown field(s) "
                                   f"'moments'; {CUMULANT_FIELDS}\n")


@pytest.mark.parametrize("command,payload,field", [
    ("cumulants", {k: v for k, v in SEMICIRCLE.items() if k != "moments"}, "moments"),
    ("moments", {k: v for k, v in CUMULANT_FILE.items() if k != "values"}, "values"),
], ids=["moments", "values"])
def test_missing_map_field_exits_two(tmp_path, capsys, command, payload, field):
    argv = [command, write(tmp_path, "in.json", payload)]
    assert main(argv + (["--kind", "free"] if command == "cumulants" else [])) == 2
    assert capsys.readouterr() == ("", f"error: missing '{field}'\n")


@pytest.mark.parametrize("raw,message", [
    ("abc", "SHUFFLE_MAX_DEGREE must be an integer, got 'abc'"),
    ("0", "SHUFFLE_MAX_DEGREE must be >= 1"),
])
def test_bad_degree_cap_exits_two(tmp_path, monkeypatch, capsys, raw, message):
    monkeypatch.setenv("SHUFFLE_MAX_DEGREE", raw)
    assert main(["cumulants", write(tmp_path, "sem.json", SEMICIRCLE), "--kind", "free"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_verify_report_and_json_match_golden(tmp_path, capsys):
    # the report of CI's -O step, and the -o JSON it writes beside it
    out = tmp_path / "verify.json"
    assert main(["verify", "--suite", "all", "--max-degree", "4", "--seed", "0",
                 "-o", str(out)]) == 0
    golden = GOLDEN_CLI.parent
    assert capsys.readouterr().out == (golden / "verify-all-degree-4-seed-0.txt").read_text()
    assert out.read_bytes() == (golden / "verify-all-degree-4-seed-0.json").read_bytes()
