"""Text formats for filtrations, pairs, covers, triples, and vertex maps.

Filtration files carry one simplex per line: a value (``3``, ``1/2``, or
``inf``) followed by vertex tokens.  ``#`` starts a comment.  Multi-part
files use ``[NAME]`` section headers.  Map files name their endpoint files
with ``domain:``/``codomain:`` headers and then list ``v -> w`` arrows.

Serialization is canonical (sorted simplices, reduced fractions), so equal
objects always produce identical bytes.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path
from typing import Iterable

from .filtration import (
    FiltrationError,
    FilteredSet,
    FiltValue,
    PreservingMap,
    RelativeFilteredPair,
    fin,
    pair_of,
)


class ParseError(ValueError):
    def __init__(self, source: str, line_no: int, message: str):
        super().__init__(f"{source}:{line_no}: {message}")
        self.source = source
        self.line_no = line_no


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def _lines(text: str) -> list[str]:
    """The text's lines, each cut at its ``#`` when the text has one."""
    lines = text.splitlines()
    return list(map(_strip, lines)) if "#" in text else lines


def _parse_lines(numbered: Iterable[tuple[int, str]], source: str,
                 coerced: dict[str, FiltValue], names: dict[str, str]) -> FilteredSet:
    """A checked filtered set from ``(file line number, comment-free line)`` pairs.

    ``coerced`` maps each value token already read from the file to its
    value, so a token is converted once and equal tokens share one object,
    on which comparisons short-circuit.  ``names`` does the same for vertex
    names, so equal names are one ``str`` throughout the file.  The keys are
    built canonical, so the set is checked without canonicalising them again.
    """
    values: dict[tuple[str, ...], FiltValue] = {}
    for line_no, line in numbered:
        tokens = line.split()
        if len(tokens) < 2:
            if not tokens:
                continue
            raise ParseError(source, line_no, "expected a value and at least one vertex")
        value = coerced.get(tokens[0])
        if value is None:
            try:
                value = coerced[tokens[0]] = fin(tokens[0])
            except (ValueError, TypeError):
                raise ParseError(source, line_no, f"bad value {tokens[0]!r}") from None
        verts = tokens[1:]
        if len(set(verts)) != len(verts):
            raise ParseError(source, line_no, "repeated vertex in simplex")
        key = tuple(sorted(map(names.setdefault, verts, verts)))
        # inf lines stay in the table too, so a finite value cannot override one
        prev = values.setdefault(key, value)
        if prev is not value and prev != value:
            raise ParseError(source, line_no, f"conflicting values for {key}")
    try:
        return FilteredSet._canonical(frozenset(chain.from_iterable(values)), values)
    except FiltrationError as exc:
        raise ParseError(source, 0, str(exc)) from exc


def parse_filtration_text(text: str, source: str = "<string>") -> FilteredSet:
    return _parse_lines(enumerate(_lines(text), start=1), source, {}, {})


# the sections each kind of multi-part file takes: (required, optional)
_SECTIONS = {
    "pair": (("X",), ("A",)),
    "triple": (("X", "A", "B"), ()),
    "cover": (("X1", "X2"), ("X",)),  # the ambient [X] is for --triad
    "Mayer-Vietoris": (("X1", "X2"), ()),
}


def _split_sections(text: str, source: str, kind: str) -> dict[str, tuple[int, list[str]]]:
    """Each section's first file line and its lines, cut at ``#``, as one slice
    of the text's lines; every header is the kind's, once."""
    required, optional = _SECTIONS[kind]
    lines = _lines(text)
    starts: dict[str, int] = {}  # section name -> index of its first line
    for i, line in enumerate(lines):
        if "[" in line:
            line = line.strip()
            if line.startswith("[") and line.endswith("]"):
                name = line[1:-1].strip()
                if name not in required + optional:
                    raise ParseError(source, i + 1, f"a {kind} file has no [{name}] section")
                if name in starts:
                    raise ParseError(source, i + 1, f"second [{name}] section")
                starts[name] = i + 1
                continue
        if not starts and line.strip():
            raise ParseError(source, i + 1, "content before any [SECTION] header")
    firsts = list(starts.values())
    stops = [first - 1 for first in firsts[1:]] + [len(lines)]  # the next header, or the end
    return {name: (first + 1, lines[first:stop])
            for (name, first), stop in zip(starts.items(), stops)}


def parse_sections_text(text: str, kind: str, source: str = "<string>") -> dict[str, FilteredSet]:
    """Every section of a multi-part file, which must hold the kind's required ones."""
    # shared, so all sections share their values and vertex names
    coerced: dict[str, FiltValue] = {}
    names: dict[str, str] = {}
    sections = {
        name: _parse_lines(enumerate(lines, start=first), f"{source}[{name}]", coerced, names)
        for name, (first, lines) in _split_sections(text, source, kind).items()
    }
    for name in _SECTIONS[kind][0]:
        if name not in sections:
            raise ParseError(source, 0, f"a {kind} file needs an [{name}] section")
    return sections


def parse_pair_text(text: str, source: str = "<string>") -> RelativeFilteredPair:
    sections = parse_sections_text(text, "pair", source)
    try:
        return pair_of(sections["X"], sections.get("A"))
    except FiltrationError as exc:
        raise ParseError(source, 0, str(exc)) from exc


def parse_filtration(path) -> FilteredSet:
    path = Path(path)
    return parse_filtration_text(path.read_text(), str(path))


def parse_pair(path) -> RelativeFilteredPair:
    path = Path(path)
    return parse_pair_text(path.read_text(), str(path))


def parse_any(path):
    """A pair when the file has sections, otherwise an absolute filtration."""
    path = Path(path)
    text = path.read_text()
    first = next((line for line in map(_strip, text.splitlines()) if line), "")
    if first.startswith("["):
        return parse_pair_text(text, str(path))
    return pair_of(parse_filtration_text(text, str(path)))


def parse_sections(path, kind: str) -> dict[str, FilteredSet]:
    """Every section of a multi-part file of the given kind."""
    path = Path(path)
    return parse_sections_text(path.read_text(), kind, str(path))


def parse_triple(path) -> tuple[FilteredSet, FilteredSet, FilteredSet]:
    sections = parse_sections(path, "triple")
    return sections["X"], sections["A"], sections["B"]


def parse_cover(path) -> tuple[FilteredSet, FilteredSet]:
    """The two parts of a Mayer-Vietoris file; it has no ambient [X] section."""
    sections = parse_sections(path, "Mayer-Vietoris")
    return sections["X1"], sections["X2"]


def parse_map(path) -> PreservingMap:
    """A vertex map file: ``domain:`` and ``codomain:`` once each, one image per vertex."""
    path = Path(path)
    ends = {}
    arrows = {}
    for line_no, raw in enumerate(path.read_text().splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        head, colon, rest = line.partition(":")
        if colon and head in ("domain", "codomain"):
            if head in ends:
                raise ParseError(str(path), line_no, f"second {head}: line")
            ends[head] = parse_any(path.parent / rest.strip())
            continue
        if "->" not in line:
            raise ParseError(str(path), line_no, "expected 'v -> w'")
        left, right = (part.strip() for part in line.split("->", 1))
        if not left or not right:
            raise ParseError(str(path), line_no, "expected 'v -> w'")
        if arrows.setdefault(left, right) != right:
            raise ParseError(str(path), line_no,
                             f"conflicting images for {left!r}: {arrows[left]!r} and {right!r}")
    if len(ends) != 2:
        raise ParseError(str(path), 0, "map files need domain: and codomain: lines")
    try:
        return PreservingMap(ends["domain"], ends["codomain"], arrows)
    except FiltrationError as exc:
        raise ParseError(str(path), 0, str(exc)) from exc


def serialize_filtration(x: FilteredSet) -> str:
    lines = []
    supported = set()
    for sk, val in x.entries:
        supported.update(sk)
        lines.append(f"{val} {' '.join(sk)}")
    for v in sorted(x.vertices - supported):
        lines.append(f"inf {v}")
    return "\n".join(lines) + ("\n" if lines else "")


def serialize_pair(pair: RelativeFilteredPair) -> str:
    return "[X]\n" + serialize_filtration(pair.total) + "[A]\n" + serialize_filtration(pair.sub)


def canonical_text(obj) -> str:
    """Canonical serialization of any supported object, for hashing."""
    if isinstance(obj, FilteredSet):
        return serialize_filtration(obj)
    if isinstance(obj, RelativeFilteredPair):
        return serialize_pair(obj)
    if isinstance(obj, PreservingMap):
        arrows = "\n".join(f"{v} -> {w}" for v, w in sorted(obj.vertex_map.items()))
        return (
            "[MAP DOMAIN]\n" + serialize_pair(obj.domain)
            + "[MAP CODOMAIN]\n" + serialize_pair(obj.codomain)
            + "[ARROWS]\n" + arrows + "\n"
        )
    if isinstance(obj, tuple):
        return "\n".join(canonical_text(part) for part in obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def instance_tag(obj) -> str:
    """Short stable identifier for an instance, from its canonical bytes."""
    import hashlib  # here, so that commands that tag no instance never load it

    return hashlib.sha256(canonical_text(obj).encode()).hexdigest()[:12]
