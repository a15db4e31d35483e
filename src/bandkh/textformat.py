"""The diagram text format: one declaration per line, ``#`` starts a comment::

    surface planar_holes 2        # or: surface orientable G B | surface moebius
    crossing x1
    crossing x2
    edge x1.0 x2.1 : a b'
    edge x1.1 x2.0 :
    edge x1.2 x2.3 : b
    edge x1.3 x2.2 :
    loop : a

Crossing declaration order is the crossing order used for signs.  Edge words
follow the ``:`` and may be empty; a trailing apostrophe marks an inverse
letter.
"""

from __future__ import annotations

import re

from .diagram import Diagram, DiagramError, Edge
from .surface import (
    SurfaceError,
    SurfaceModel,
    UNSUPPORTED_MESSAGE,
    UnsupportedSurfaceError,
    parse_word,
    word_text,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


#: Line breaks of the format: ``str.splitlines`` also breaks at form feeds,
#: NEL and U+2028, which may sit inside a ``#`` comment.
_LINE_BREAK = re.compile(r"\r\n|\r|\n")


def _lines(text: str) -> list[str]:
    lines = _LINE_BREAK.split(text)
    return lines[:-1] if lines[-1] == "" else lines


_OFF_CATALOGUE = {"rp2", "projective", "projective_plane", "sphere", "s2",
                  "torus", "klein", "klein_bottle", "closed"}


def parse_diagram(text: str) -> Diagram:
    surface: SurfaceModel | None = None
    crossings: dict[str, int] = {}  # id -> line of its declaration
    edges: list[Edge] = []
    loops: list = []
    used: set = set()

    def endpoint(token: str, lineno: int):
        parts = token.rsplit(".", 1)
        if len(parts) != 2 or parts[1] not in ("0", "1", "2", "3"):
            raise ParseError(f"bad slot reference {token!r}", lineno)
        cid, slot = parts[0], int(parts[1])
        if cid not in crossings:
            raise ParseError(f"unknown crossing {cid!r}", lineno)
        if (cid, slot) in used:
            raise ParseError(f"slot {token!r} used by more than one edge endpoint",
                             lineno)
        used.add((cid, slot))
        return (cid, slot)

    for lineno, raw in enumerate(_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "surface":
            if surface is not None:
                raise ParseError("duplicate surface declaration", lineno)
            name = tokens[1] if len(tokens) > 1 else ""
            if name in _OFF_CATALOGUE:
                raise UnsupportedSurfaceError(f"line {lineno}: {UNSUPPORTED_MESSAGE}")
            try:
                if name == "planar_holes" and len(tokens) == 3:
                    surface = SurfaceModel.planar_holes(int(tokens[2]))
                elif name == "orientable" and len(tokens) == 4:
                    surface = SurfaceModel.orientable(int(tokens[2]), int(tokens[3]))
                elif name == "moebius" and len(tokens) == 2:
                    surface = SurfaceModel.moebius_band()
                else:
                    raise ParseError(f"bad surface declaration {line!r}", lineno)
            except (ValueError, SurfaceError) as exc:
                if isinstance(exc, ParseError):
                    raise
                raise ParseError(str(exc), lineno) from None
            continue
        if surface is None:
            raise ParseError("the surface must be declared first", lineno)
        if kind == "crossing":
            if len(tokens) != 2:
                raise ParseError("expected: crossing <id>", lineno)
            if tokens[1] in crossings:
                raise ParseError(f"duplicate crossing id {tokens[1]!r}", lineno)
            crossings[tokens[1]] = lineno
        elif kind == "edge":
            if ":" not in tokens:
                raise ParseError("edge needs a ':' before its word", lineno)
            colon = tokens.index(":")
            if colon != 3:
                raise ParseError("expected: edge <c.s> <c.s> : <word>", lineno)
            a = endpoint(tokens[1], lineno)
            b = endpoint(tokens[2], lineno)
            try:
                word = parse_word(" ".join(tokens[colon + 1:]))
                surface.check_word(word)
            except (ValueError, SurfaceError) as exc:
                raise ParseError(str(exc), lineno) from None
            edges.append(Edge(a, b, word))
        elif kind == "loop":
            if not tokens[1:] or tokens[1] != ":":
                raise ParseError("expected: loop : <word>", lineno)
            try:
                word = parse_word(" ".join(tokens[2:]))
                surface.check_word(word)
            except (ValueError, SurfaceError) as exc:
                raise ParseError(str(exc), lineno) from None
            loops.append(word)
        else:
            raise ParseError(f"unknown declaration {kind!r}", lineno)
    if surface is None:
        raise ParseError("missing surface declaration", 1)
    unmatched = sorted((cid, s) for cid in crossings for s in range(4)
                       if (cid, s) not in used)
    if unmatched:
        raise ParseError(f"unmatched crossing slots: {unmatched}",
                         crossings[unmatched[0][0]])
    try:
        return Diagram(surface, tuple(crossings), tuple(edges), tuple(loops))
    except DiagramError as exc:
        raise ParseError(str(exc), len(_lines(text)) or 1) from None


def emit_diagram(diagram: Diagram) -> str:
    lines = [f"surface {diagram.surface.describe()}"]
    for c in diagram.crossings:
        lines.append(f"crossing {c}")
    for e in diagram.edges:
        word = word_text(e.word)
        lines.append(f"edge {e.a[0]}.{e.a[1]} {e.b[0]}.{e.b[1]} :"
                     + (f" {word}" if word else ""))
    for w in diagram.loops:
        word = word_text(w)
        lines.append("loop :" + (f" {word}" if word else ""))
    return "\n".join(lines) + "\n"


def load_diagram(path: str) -> Diagram:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text (byte 0x{data[exc.start]:02x})",
                         len(_LINE_BREAK.split(data[:exc.start].decode()))) from None
    return parse_diagram(text)
