"""JSON codecs for distributions, cumulant maps and series.

Rationals are serialized as strings "p" or "p/q" (never floats); integers are
accepted on input for convenience.  Words are dot-joined letter names, and
"1" is the empty word, so no letter may be named 1; all emitted maps are in
graded lexicographic order, so re-emitting a parsed file reproduces it byte
for byte.

This module only turns text into words and letters.  Values, degrees
and map keys are checked by the library's own rules (``parse_rational`` of
:mod:`words`, re-exported here, and the checks of :mod:`cumulants`),
once, so a file and a library call accept the same input.  The writers read
each value they are handed by the same rational rule, and each letter by the
readers' letter-name rule; the format has no algebra tags, so a tagged letter
raises :class:`ValidationError` rather than make a file no reader takes back.
A reader refuses a field outside its format, and a missing map field.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Mapping

from .cumulants import CumulantKind, Distribution, TruncatedSeries, _word_map
from .errors import DomainError, ValidationError
from .words import Letter, Word, parse_rational


def rational_str(v) -> str:
    """v, an int or a Fraction, as "p" or "p/q".  A numerator or denominator
    past the interpreter's int-string digit limit raises
    :class:`DomainError`, as the reader refuses such an integer."""
    if type(v) is not Fraction:
        v = Fraction(v)
    p, q = v.numerator, v.denominator
    try:
        return str(p) if q == 1 else f"{p}/{q}"
    except ValueError as exc:
        raise DomainError(f"a value too long to write: {exc}") from None


def parse_word(s: str, letters: Mapping[str, Letter]) -> Word:
    if s == "1":
        return Word()
    try:
        return Word([letters[p] for p in s.split(".")])
    except KeyError as exc:
        raise ValidationError(f"word {s!r} uses undeclared letter {exc.args[0]!r}") from None


def _check_name(name) -> str:
    """name, if a file may hold it as a letter's name: a nonempty string
    free of '.', '|', '#' and blanks, and not "1"."""
    if not isinstance(name, str) or not name or any(c in name for c in ".|# \t"):
        raise ValidationError(f"bad letter name {name!r}")
    if name == "1":
        raise ValidationError("the letter name '1' is reserved for the empty word")
    return name


def _letter_name(l: Letter) -> str:
    """The name that stands for l in a file.  The format has no algebra
    tags, so a tagged letter, which no reader would take back, raises
    :class:`ValidationError`, as does a name the readers refuse."""
    if l.tag != 0:
        raise ValidationError(f"letter {l} carries algebra tag {l.tag}, "
                              f"which the JSON format cannot hold")
    return _check_name(l.name)


def letters_from_names(names) -> tuple[Letter, ...]:
    """The letters with these names.  A name is a nonempty string free of
    '.', '|', '#' and blanks, it is not "1", and no two names are alike;
    anything else raises :class:`ValidationError`."""
    letters = [Letter(_check_name(name)) for name in names]
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
    is the word's repr, joined from its letters' names, each checked once.
    The order is Word.sort_key's: lexicographic, then stably by length."""
    out = {}
    names: dict[Letter, str] = {}
    for w in sorted(sorted(values), key=len):
        v = parse_rational(values[w])
        if v:
            for l in w:
                if l not in names:
                    names[l] = _letter_name(l)
            key = ".".join([names[l] for l in w]) if w else "1"
            out[key] = rational_str(v)
    return out


def _check_fields(obj, what: str, fields: tuple[str, ...]) -> None:
    """Refuse any top-level field of a file outside its format's fields."""
    unknown = sorted(set(obj) - set(fields))
    if unknown:
        raise ValidationError(f"{what} file has unknown field(s) "
                              f"{', '.join(map(repr, unknown))}; expected {', '.join(fields)}")


def _parse_value_map(obj, field: str, letters) -> dict[Word, Fraction]:
    if field not in obj:
        raise ValidationError(f"missing '{field}'")
    raw = obj[field]
    if not isinstance(raw, dict):
        raise ValidationError(f"'{field}' must be an object mapping words to rationals")
    table = {l.name: l for l in letters}
    return {parse_word(key, table): val for key, val in raw.items()}


def distribution_to_json(d: Distribution) -> dict:
    return {"letters": [_letter_name(l) for l in d.letters],
            "max_degree": d.max_degree,
            "moments": _sorted_value_map(d.moments)}


def parse_distribution(obj) -> Distribution:
    if not isinstance(obj, dict):
        raise ValidationError("distribution file must be a JSON object")
    _check_fields(obj, "distribution", ("letters", "max_degree", "moments"))
    letters = _parse_letters(obj)
    return Distribution(letters, obj.get("max_degree"), _parse_value_map(obj, "moments", letters))


def cumulant_map_to_json(kind: str, letters, max_degree: int,
                         values: Mapping[Word, Fraction]) -> dict:
    return {"kind": kind,
            "letters": [_letter_name(l) for l in letters],
            "max_degree": max_degree,
            "values": _sorted_value_map(values)}


def parse_cumulant_map(obj):
    """Returns (kind, letters, max_degree, values)."""
    if not isinstance(obj, dict):
        raise ValidationError("cumulant file must be a JSON object")
    _check_fields(obj, "cumulant", ("kind", "letters", "max_degree", "values"))
    kind = obj.get("kind")
    if kind not in [k.value for k in CumulantKind]:
        raise ValidationError(f"bad or missing 'kind': {kind!r}")
    letters = _parse_letters(obj)
    n = obj.get("max_degree")
    return kind, letters, n, _word_map(_parse_value_map(obj, "values", letters), letters, n)


def series_to_json(name: str, s: TruncatedSeries) -> dict:
    return {"series": name,
            "letters": [_letter_name(l) for l in s.letters],
            "max_degree": s.max_degree,
            "coefficients": _sorted_value_map(s.coefficients)}


def dump_json(obj, stream):
    stream.write(json.dumps(obj, indent=2) + "\n")


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
