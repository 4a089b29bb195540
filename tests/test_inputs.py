"""The input rules: every entry point that takes rationals, the JSON writers
included, reads them the way the JSON files are read, every max_degree is a
positive int, and maps take words over the declared letters."""

import io
import json
import random
import re
import sys
from decimal import Decimal
from fractions import Fraction as F

import pytest

import shuffleprob as sp
from shuffleprob import DomainError, Side, ValidationError, Word
from shuffleprob import cumulants
from shuffleprob import io as sio

from shuffleprob.words import words_up_to

from conftest import AB

A, B = AB
W1, W2, WB = Word((A,)), Word((A, A)), Word((B,))

#: What the rational rule refuses: exponent literals (Fraction would build
#: a 9,965,785-bit numerator for the first), decimals, floats and bools
#: (integral ones too) and Decimals.
REFUSED = ("1e3000000", "3E2", "0.5", 0.1, 2.0, True, False, Decimal("0.1"), Decimal(3))
#: What it accepts, with the rational each stands for; blanks around a
#: string are allowed.
ACCEPTED = ((3, F(3)), (F(3, 4), F(3, 4)), (" -3/4 ", F(-3, 4)), (" 3/4 ", F(3, 4)),
            ("+3", F(3)))


def _bp_fourth_moment(t):
    # bp_t of the symmetric Bernoulli law has fourth moment 1 + t
    # (Belinschi-Nica: the boolean 1/(1+t) power of the free (1+t) power)
    d = sp.bernoulli_symmetric(4)
    return sp.bp_distribution(d, t).moment(Word((A,) * 4))


#: name -> (call with the value, expected result for the rational r).
ENTRY_POINTS = {
    "Distribution": (lambda v: sp.Distribution((A,), 2, {W2: v}).moments,
                     lambda r: {W2: r}),
    "Distribution.univariate": (lambda v: sp.Distribution.univariate("a", [v]).moments,
                                lambda r: {W1: r}),
    "point_mass": (lambda v: sp.point_mass(v, 2).moments,
                   lambda r: {W1: r, W2: r * r}),
    "from_cumulants": (lambda v: sp.from_cumulants({W1: v}, "free", (A,), 2).moments,
                       lambda r: {W1: r, W2: r * r}),
    "convert": (lambda v: sp.convert({W1: v, W2: 1}, "free", "boolean", 2, (A,)),
                lambda r: {W1: r, W2: 1}),
    "character": (lambda v: sp.character({W1: v})(W1), lambda r: r),
    "infinitesimal": (lambda v: sp.infinitesimal({W1: v})(W1), lambda r: r),
    "from_values": (lambda v: sp.from_values({W1: v})(W1), lambda r: r),
    "f * s": (lambda v: (sp.infinitesimal({W1: 1}) * v)(W1), lambda r: r),
    "hs_power": (lambda v: sp.hs_power(sp.character({W1: 1}), v, Side.LEFT)(W1),
                 lambda r: r),
    "bp_distribution": (_bp_fourth_moment, lambda r: 1 + r if r >= 0 else DomainError),
    "TruncatedSeries": (lambda v: sp.TruncatedSeries((A,), 2, {W1: v}).coefficients,
                        lambda r: {W1: r}),
    "cumulant_map_to_json": (lambda v: sio.cumulant_map_to_json("free", (A,), 2, {W2: v})["values"],
                             lambda r: {"a.a": str(r)}),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_every_entry_point_reads_values_by_the_rational_rule(name):
    call, expected = ENTRY_POINTS[name]
    for bad in REFUSED:
        with pytest.raises(ValidationError):
            sio.parse_rational(bad)
        with pytest.raises(ValidationError):
            call(bad)
    for given, r in ACCEPTED:
        assert sio.parse_rational(given) == r
        want = expected(r)
        if want is DomainError:
            with pytest.raises(DomainError):
                call(given)
        else:
            assert call(given) == want, (name, given)


def test_degrees_follow_one_rule_and_survive_the_io_round_trip():
    d = sp.Distribution(AB, 3, {W1: F(1, 2), Word((A, B)): -2, Word((B, B, A)): "7/3"})
    for built in (d, sp.semicircle(5), sp.point_mass(F(-2, 3), 4)):
        text = json.dumps(sio.distribution_to_json(built))
        assert sio.parse_distribution(json.loads(text)) == built
    for n in (True, 2.5, 0):
        for build in (lambda: sp.Distribution((A,), n, {W1: 1}),
                      lambda: sp.Distribution.univariate("a", [1], n),
                      lambda: sp.point_mass(1, n), lambda: sp.semicircle(n),
                      lambda: sp.TruncatedSeries((A,), n, {W1: 1})):
            with pytest.raises(ValidationError):
                build()
    for n in (0, -3, 2.0):
        with pytest.raises(ValidationError):
            sp.convert({W2: 1}, "free", "boolean", n, (A,))
        with pytest.raises(ValidationError):
            sp.from_cumulants({W2: 1}, "free", (A,), n)


def test_distribution_letters_and_series_keys_follow_the_rules():
    # a plain tuple equals the Word of its letters, but is no Word key
    for build in (lambda: sp.Distribution(("a",), 2, {}),
                  lambda: sp.Distribution((A,), 2, {(A, A): 1}),
                  lambda: sp.TruncatedSeries((A,), 2, {"a.a": 1}),
                  lambda: sp.TruncatedSeries((A,), 2, {(A,): 1}),
                  lambda: sp.TruncatedSeries((A,), 2, {Word((B,)): 1})):
        with pytest.raises(ValidationError):
            build()


#: Each distribution-level entry point, called with an int for a Distribution.
OPERAND_CALLS = {
    "to_cumulants": lambda: sp.to_cumulants(1, "free"),
    "cumulant_functional": lambda: cumulants.cumulant_functional(1, "free"),
    "series": lambda: sp.series(1, "M"),
    "convolve_distributions": lambda: sp.convolve_distributions(1, 2, "free"),
    "subordinate_distributions": lambda: sp.subordinate_distributions(1, 2, "left"),
    "bp_distribution": lambda: sp.bp_distribution(1),
}


@pytest.mark.parametrize("name", OPERAND_CALLS)
def test_distribution_operands_follow_one_rule(name):
    with pytest.raises(ValidationError, match="Distribution"):
        OPERAND_CALLS[name]()


def test_from_values_stores_exact_values():
    f = sp.from_values({W1: F(4, 2), sp.BarWord((W1, W2)): "1/3", W2: 0})
    assert type(f(W1)) is int and f(W1) == 2
    assert f(sp.BarWord((W1, W2))) == F(1, 3)
    assert type(f(W2)) is int and f(W2) == 0
    assert type(f(Word((B,)))) is int and f(Word((B,))) == 0


def test_from_values_rejects_keys_that_are_not_words():
    for key in ("a", (A,), 1):
        with pytest.raises(DomainError):
            sp.from_values({key: 1})


def test_a_parsed_cumulant_file_is_read_by_the_rule_once():
    # parse_cumulant_map reads the values; from_cumulants and convert take
    # a copy of its map without a second read, unless it was read for other
    # letters or a higher degree, or has had a value stored into it since
    obj = {"kind": "free", "letters": ["a"], "max_degree": 2, "values": {"a": "1/2", "a.a": 1}}
    kind, letters, n, values = sio.parse_cumulant_map(obj)
    for read in (cumulants._word_map(values, letters, n, drop_above=True),
                 cumulants._word_map(values, AB, 3), cumulants._word_map(values, None, n)):
        assert read == values and read is not values
    assert cumulants._word_map(values, letters, 1, drop_above=True) == {W1: F(1, 2)}
    with pytest.raises(ValidationError):
        cumulants._word_map(values, letters, 1)
    values[W2] = "1/3"
    assert sp.from_cumulants(values, kind, letters, n).moments == {W1: F(1, 2), W2: F(7, 12)}
    # a store into the parsed map after the read does not reach what holds it
    values = sio.parse_cumulant_map(obj)[3]
    d, s = sp.Distribution(letters, n, values), sp.TruncatedSeries(letters, n, values)
    values[W1], values[W2] = 0.5, 0.25
    for held in (d.moments, s.coefficients):
        assert held == {W1: F(1, 2), W2: 1} and all(type(v) is F for v in held.values())
    stores = (lambda m: m.__setitem__(WB, 1), lambda m: m.update({WB: 1}),
              lambda m: m.setdefault(WB, 1), lambda m: m.__ior__({WB: 1}))
    for store in stores:
        values = sio.parse_cumulant_map(obj)[3]
        store(values)
        with pytest.raises(ValidationError, match="undeclared"):
            sp.convert(values, kind, "boolean", n, letters)


def test_engine_results_are_read_by_no_rule(monkeypatch):
    # the distribution API hands back maps marked as read by the word-map
    # rule, so a result that goes on to from_cumulants, convert or a
    # Distribution reads no value again
    from shuffleprob import functionals, products, words

    kinds = ("free", "boolean", "monotone")
    obj = {"letters": ["a", "b"], "max_degree": 3,
           "moments": {"a": "1/2", "b": -1, "a.a": 2, "a.b": "1/3", "b.a": "1/3", "a.b.a": "5/7"}}
    d1 = sio.parse_distribution(obj)
    d2 = sio.parse_distribution({**obj, "moments": {"a": 1, "b.b": "2/3", "a.b": "-1/5"}})
    n = d1.max_degree
    results = {k: sp.to_cumulants(d1, k) for k in kinds}

    def refuse(v):
        raise AssertionError(f"{v!r} read again")

    # the rule lives in words, which _exact reads; functionals re-exports it
    monkeypatch.setattr(words, "parse_rational", refuse)
    monkeypatch.setattr(functionals, "parse_rational", refuse)
    for k, c in results.items():
        assert sp.from_cumulants(c, k, d1.letters, n) == d1
        for dst in kinds:
            assert sp.convert(c, k, dst, n) == results[dst]
    for kind in ("free", "boolean", "monotone-left", "monotone-right"):
        assert products.convolve_distributions(d1, d2, kind).letters == d1.letters
    for side in ("left", "right"):
        assert products.subordinate_distributions(d1, d2, side).max_degree == n


def _fraction_parse(x):
    """The rational rule on a string as Fraction's own parser reads it: the
    "p"/"p/q" pattern as the gate, then Fraction(x).  Returns the Fraction,
    or the message of the ValidationError the rule raises."""
    if not re.fullmatch(r"\s*[+-]?[0-9]+(?:/[0-9]+)?\s*", x):
        return f"bad rational literal {x!r}: expected 'p' or 'p/q'"
    try:
        return F(x)
    except (ValueError, ZeroDivisionError) as exc:
        return f"bad rational literal {x!r}: {exc}"


#: literal -> what the rule gives: a Fraction, or None for a refusal.  The
#: 5000-digit numerals pass the pattern and are refused by the int-string
#: digit limit, which Fraction's parse and int() share; with the limit
#: lifted both accept them.
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LITERALS = {
    " +7 ": F(7), "-0/5": F(0), "007/010": F(7, 10), "\t-12/8\n": F(-3, 2),
    "3/0": None, "-3/0": None, "3/-4": None, "1/2/3": None, "1e3": None, "3.0": None,
    "": None, " ": None, "١٢": None, "12/١": None, "1_000": None, "+-1": None, "3 /4": None,
    "1" * 5000: None if _DIGIT_LIMIT else F(int("1" * 5000)),
    "-7/" + "9" * 5000: None if _DIGIT_LIMIT else F(-7, int("9" * 5000)),
}


@pytest.mark.parametrize("literal", sorted(LITERALS, key=len))
def test_parse_rational_from_the_pattern_groups_matches_fractions_parse(literal):
    # parse_rational builds the value from the pattern's groups; it must
    # give what Fraction's own parse of the literal gives, value, type and
    # error message alike
    want, rule = _fraction_parse(literal), LITERALS[literal]
    if rule is None:
        assert isinstance(want, str)
        with pytest.raises(ValidationError) as caught:
            sio.parse_rational(literal)
        assert str(caught.value) == want
    else:
        assert want == rule
        got = sio.parse_rational(literal)
        assert got == want and type(got) is F


def _old_sort_key(w):
    return (len(w.letters), tuple((l.name, l.tag) for l in w.letters))


def test_word_sort_key_is_graded_lexicographic_by_name_then_tag():
    # names tie across tags, and the tag decides only after the name
    letters = (sp.Letter("x", 2), sp.Letter("x", 0), sp.Letter("y", 1), sp.Letter("x", 1),
               sp.Letter("b", 2), sp.Letter("y", 0))
    words = list(words_up_to(letters, 3))
    rng = random.Random(7)
    rng.shuffle(words)
    assert sorted(words, key=Word.sort_key) == sorted(words, key=_old_sort_key)
    assert [str(l) for l in sorted(letters, key=lambda l: Word((l,)).sort_key())] == [
        "b#2", "x", "x#1", "x#2", "y", "y#1"]


def test_writer_keys_and_values_are_the_words_repr_and_lowest_terms():
    z, w, y, x = (sp.Letter(n) for n in "zwyx")
    values = {Word((y, z)): F(-6, 4), Word((w,)): 3, Word((z,)): F(0),
              Word((x, w, z)): F(10, 5),
              Word((z, z)): F(-1, 3), Word((x,)): F(7, 1)}
    text = io.StringIO()
    sio.dump_json(sio.cumulant_map_to_json("free", (z, w, y, x), 3, values), text)
    assert text.getvalue() == (
        '{\n  "kind": "free",\n  "letters": [\n    "z",\n    "w",\n    "y",\n    "x"\n  ],\n'
        '  "max_degree": 3,\n  "values": {\n    "w": "3",\n    "x": "7",\n'
        '    "y.z": "-3/2",\n    "z.z": "-1/3",\n    "x.w.z": "2"\n  }\n}\n')
    # the same as the repr of each word, with rational_str of each value
    old = {repr(u): sio.rational_str(v) for u, v in
           sorted(values.items(), key=lambda kv: _old_sort_key(kv[0])) if v}
    assert sio.cumulant_map_to_json("free", (z,), 3, values)["values"] == old


#: Each writer on the semicircle retagged into algebra 1, as a
#: LabeledContext holds it, or on one of its maps.
TAGGED = sp.semicircle(4).retag(1)
TAGGED_WRITERS = {
    "distribution_to_json": lambda: sio.distribution_to_json(TAGGED),
    "cumulant_map_to_json": lambda: sio.cumulant_map_to_json(
        "free", TAGGED.letters, 4, sp.to_cumulants(TAGGED, "free")),
    "cumulant_map_to_json, a tagged key only": lambda: sio.cumulant_map_to_json(
        "free", (A,), 4, {Word(TAGGED.letters): 1}),
    "series_to_json": lambda: sio.series_to_json("M", sp.series(TAGGED, "M")),
}


@pytest.mark.parametrize("name", sorted(TAGGED_WRITERS))
def test_writers_refuse_tagged_letters(name):
    # The format has no tags, and '#' is not allowed in a name: the file
    # written would be refused by the reader ("undeclared letter 'a#1'").
    with pytest.raises(ValidationError, match=r"letter a#1 carries algebra tag 1"):
        TAGGED_WRITERS[name]()


@pytest.mark.parametrize("name", ["a.b", "a b", "1", ""])
def test_writers_refuse_names_the_readers_refuse(name):
    # the library takes any Letter; a file takes only the names it can read back
    d = sp.Distribution((sp.Letter(name),), 2, {})
    with pytest.raises(ValidationError, match="letter name"):
        sio.distribution_to_json(d)
