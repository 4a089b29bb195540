"""Property tests of the JSON boundary: a cumulant file survives parse ->
write -> parse byte for byte, the writer keys and orders words over tagged
letters as their reprs in graded lexicographic order, and the rational rule
reads a "p"/"p/q" literal as Fraction does."""

import io
import json
from fractions import Fraction as F

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from shuffleprob import Letter, Word  # noqa: E402
from shuffleprob import io as sio  # noqa: E402
from shuffleprob.words import words_up_to  # noqa: E402

#: no example database in the checkout, and no deadline on a shared machine
SETTINGS = settings(max_examples=60, deadline=None, database=None)

NAMES = ("a", "b", "x", "y2")
numerals = st.integers(0, 10 ** 30).map(str)
#: "p" or "p/q" with an optional sign, leading zeros and blanks around it
literals = st.builds(lambda s, p, z, q, pad: f"{pad}{s}{z}{p}{'' if q is None else '/' + q}{pad}",
                     st.sampled_from(("", "+", "-")), numerals, st.sampled_from(("", "0", "00")),
                     st.none() | st.integers(1, 10 ** 30).map(str), st.sampled_from(("", " ", "\t")))


@st.composite
def word_maps(draw, tags):
    """(letters, max_degree, {word: value}) over 1-3 letters with tags drawn
    from tags, and signed p/q values, some of them 0."""
    if tags == (0,):
        letters = tuple(Letter(n) for n in draw(st.lists(st.sampled_from(NAMES), min_size=1,
                                                         max_size=3, unique=True)))
    else:
        letters = tuple(draw(st.lists(st.builds(Letter, st.sampled_from(NAMES[:2]),
                                                st.sampled_from(tags)),
                                      min_size=1, max_size=3, unique=True)))
    n = draw(st.integers(1, 4 if len(letters) < 3 else 3))
    words = list(words_up_to(letters, n))
    keys = draw(st.lists(st.sampled_from(words), max_size=12, unique=True))
    values = {w: F(draw(st.integers(-10 ** 12, 10 ** 12)), draw(st.integers(1, 10 ** 6)))
              for w in keys}
    return letters, n, values


def _text(obj):
    buf = io.StringIO()
    sio.dump_json(obj, buf)
    return buf.getvalue()


@SETTINGS
@given(word_maps((0,)), st.sampled_from(("free", "boolean", "monotone")))
def test_cumulant_file_survives_parse_write_parse(drawn, kind):
    letters, n, values = drawn
    # a hand-written file: keys in any order, values as unreduced "p/q"
    raw = {".".join(l.name for l in w.letters): f"{v.numerator * 3}/{v.denominator * 3}"
           for w, v in values.items()}
    source = {"kind": kind, "letters": [l.name for l in letters], "max_degree": n,
              "values": raw}
    first = _text(sio.cumulant_map_to_json(*sio.parse_cumulant_map(source)))
    again = sio.parse_cumulant_map(json.loads(first))
    assert again[3] == {w: v for w, v in values.items() if v}
    assert _text(sio.cumulant_map_to_json(*again)) == first


@SETTINGS
@given(word_maps((0, 1, 2)))
def test_writer_keys_are_reprs_in_graded_lexicographic_order(drawn):
    letters, n, values = drawn
    old_key = lambda w: (len(w.letters), tuple((l.name, l.tag) for l in w.letters))
    want = {repr(w): sio.rational_str(values[w])
            for w in sorted(values, key=old_key) if values[w]}
    got = sio.cumulant_map_to_json("free", letters, n, values)["values"]
    assert list(got.items()) == list(want.items())


@SETTINGS
@given(literals)
def test_parse_rational_equals_fraction_on_valid_literals(literal):
    got = sio.parse_rational(literal)
    assert got == F(literal) and type(got) is F
