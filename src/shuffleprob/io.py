"""JSON codecs for distributions, cumulant maps and series.

Rationals are serialized as strings "p" or "p/q" (never floats); integers are
accepted on input for convenience.  Words are dot-joined letter names, and
"1" is the empty word, so no letter may be named 1; all emitted maps are in
graded lexicographic order, so re-emitting a parsed file reproduces it byte
for byte.

This module only turns text into words and letters.  Values, degrees
and map keys are checked by the library's own rules (``parse_rational`` of
:mod:`functionals`, re-exported here, and the checks of :mod:`cumulants`),
once, so a file and a library call accept the same input.  The writers read
each value they are handed by the same rational rule.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Mapping

from .cumulants import Distribution, TruncatedSeries, _word_map
from .errors import ValidationError
from .functionals import parse_rational
from .words import Letter, Word


def rational_str(v) -> str:
    if type(v) is not Fraction:
        try:
            v = Fraction(v)
        except (TypeError, ValueError):
            return str(v)  # witnesses are occasionally structural, not numeric
    p, q = v.numerator, v.denominator
    return str(p) if q == 1 else f"{p}/{q}"


def parse_word(s: str, letters: Mapping[str, Letter]) -> Word:
    if s == "1":
        return Word()
    try:
        return Word([letters[p] for p in s.split(".")])
    except KeyError as exc:
        raise ValidationError(f"word {s!r} uses undeclared letter {exc.args[0]!r}") from None


def letters_from_names(names) -> tuple[Letter, ...]:
    """The letters with these names.  A name is a nonempty string free of
    '.', '|', '#' and blanks, it is not "1", and no two names are alike;
    anything else raises :class:`ValidationError`."""
    letters = []
    for name in names:
        if not isinstance(name, str) or not name or any(c in name for c in ".|# \t"):
            raise ValidationError(f"bad letter name {name!r}")
        if name == "1":
            raise ValidationError("the letter name '1' is reserved for the empty word")
        letters.append(Letter(name))
    if len(set(letters)) != len(letters):
        raise ValidationError("duplicate letter names")
    return tuple(letters)


def _parse_letters(obj) -> tuple[Letter, ...]:
    raw = obj.get("letters")
    if not isinstance(raw, list) or not raw:
        raise ValidationError("'letters' must be a nonempty list of names")
    return letters_from_names(raw)


def _sorted_value_map(values: Mapping[Word, Fraction]) -> dict[str, str]:
    """values by the rational rule, zeros dropped, in graded lexicographic
    order; a float or any other non-rational raises ValidationError.  A key
    is the word's repr, joined from its letters' strings, each made once."""
    out = {}
    names: dict[Letter, str] = {}
    for w in sorted(values, key=Word.sort_key):
        v = parse_rational(values[w])
        if v:
            letters = w.letters
            for l in letters:
                if l not in names:
                    names[l] = str(l)
            key = ".".join([names[l] for l in letters]) if letters else "1"
            out[key] = rational_str(v)
    return out


def _parse_value_map(obj, field: str, letters) -> dict[Word, Fraction]:
    raw = obj.get(field, {})
    if not isinstance(raw, dict):
        raise ValidationError(f"'{field}' must be an object mapping words to rationals")
    table = {l.name: l for l in letters}
    return {parse_word(key, table): val for key, val in raw.items()}


def distribution_to_json(d: Distribution) -> dict:
    return {"letters": [l.name for l in d.letters],
            "max_degree": d.max_degree,
            "moments": _sorted_value_map(d.moments)}


def parse_distribution(obj) -> Distribution:
    if not isinstance(obj, dict):
        raise ValidationError("distribution file must be a JSON object")
    letters = _parse_letters(obj)
    return Distribution(letters, obj.get("max_degree"), _parse_value_map(obj, "moments", letters))


def cumulant_map_to_json(kind: str, letters, max_degree: int,
                         values: Mapping[Word, Fraction]) -> dict:
    return {"kind": kind,
            "letters": [l.name for l in letters],
            "max_degree": max_degree,
            "values": _sorted_value_map(values)}


def parse_cumulant_map(obj):
    """Returns (kind, letters, max_degree, values)."""
    if not isinstance(obj, dict):
        raise ValidationError("cumulant file must be a JSON object")
    kind = obj.get("kind")
    if kind not in ("free", "boolean", "monotone"):
        raise ValidationError(f"bad or missing 'kind': {kind!r}")
    letters = _parse_letters(obj)
    n = obj.get("max_degree")
    return kind, letters, n, _word_map(_parse_value_map(obj, "values", letters), letters, n)


def series_to_json(name: str, s: TruncatedSeries) -> dict:
    return {"series": name,
            "letters": [l.name for l in s.letters],
            "max_degree": s.max_degree,
            "coefficients": _sorted_value_map(s.coefficients)}


def dump_json(obj, stream):
    json.dump(obj, stream, indent=2)
    stream.write("\n")


def load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError as exc:  # an integer past the int-string digit limit, or not UTF-8
        raise ValidationError(f"{path}: unreadable JSON: {exc}") from None
