"""Staircase diagrams for two-entry weight tuples.

Renders the lattice around the line a_1/d_1 + a_2/d_2 = 1: members of the
staircase set, its minimal generators (the staircase corners), and the line
itself, with an optional second tuple overlaid (dashed) for dominating-pair
pictures.  The first entry runs up the vertical axis, the second along the
horizontal, matching the usual figures.
"""

from __future__ import annotations

import math

from .errors import DomainError
from .lattice import LatticeIdeal, MultiOrder
from .poly import check_degree


def _grid(d: MultiOrder, overlay: MultiOrder | None):
    """The grid size (rows, cols) and the mark of a lattice point: G for a
    minimal generator, * for a member, o for a member of the overlay only,
    . outside.  The grid grows with the entries, and an entry's pure power
    is a minimal generator of degree ceil(entry), so the degree cap refuses
    an entry above it."""
    if len(d) != 2:
        raise DomainError("staircase diagrams need exactly two entries")
    for e in d.entries:
        check_degree(math.ceil(e), "staircase entry")
    lattice = LatticeIdeal(d)
    gens = set(lattice.minimal_generators())
    over = LatticeIdeal(overlay) if overlay is not None else None

    def mark(point: tuple[int, int]) -> str:
        if point in gens:
            return "G"
        if lattice.contains(point):
            return "*"
        if over is not None and over.contains(point):
            return "o"
        return "."

    return math.ceil(d.entries[0]) + 2, math.ceil(d.entries[1]) + 2, mark


def staircase_text(d: MultiOrder, overlay: MultiOrder | None = None) -> str:
    """ASCII rendering: G = minimal generator, * = member, . = outside;
    with an overlay, o marks points that are members for the overlay only."""
    rows, cols, mark = _grid(d, overlay)
    lines = [
        f"{a1:>3} " + " ".join(mark((a1, a2)) for a2 in range(cols + 1))
        for a1 in range(rows, -1, -1)
    ]
    lines.append("    " + " ".join(f"{a2 % 10}" for a2 in range(cols + 1)))
    header = [f"staircase of {d}"]
    if overlay is not None:
        header.append(f"overlay {overlay}")
    legend = "G minimal generator, * member, o overlay-only member, . outside"
    return "\n".join([" / ".join(header)] + lines + [legend])


def _svg_line(x1, y1, x2, y2, stroke, dash="") -> str:
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
        f'stroke="{stroke}" stroke-width="2"{dash_attr}/>'
    )


def staircase_svg(d: MultiOrder, overlay: MultiOrder | None = None) -> str:
    """Self-contained SVG: lattice dots, the value-one line, staircase hull."""
    rows, cols, mark = _grid(d, None)
    marks = {(a1, a2): mark((a1, a2)) for a1 in range(rows + 1) for a2 in range(cols + 1)}
    scale = 40
    margin = 30
    width = margin * 2 + cols * scale
    height = margin * 2 + rows * scale

    def X(a2) -> float:
        return margin + float(a2) * scale

    def Y(a1) -> float:
        return height - margin - float(a1) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        _svg_line(X(0), Y(0), X(cols), Y(0), "black"),
        _svg_line(X(0), Y(0), X(0), Y(rows), "black"),
    ]
    # the nu = 1 line through (d1, 0) and (0, d2)
    parts.append(_svg_line(X(0), Y(d.entries[0]), X(d.entries[1]), Y(0), "black"))
    if overlay is not None:
        parts.append(
            _svg_line(
                X(0), Y(overlay.entries[0]), X(overlay.entries[1]), Y(0), "blue", "6 4"
            )
        )
    # staircase hull through the minimal generators, sorted by first entry
    corners = sorted((p for p, m in marks.items() if m == "G"), key=lambda p: (-p[0], p[1]))
    for (a, b), (c, e) in zip(corners, corners[1:]):
        parts.append(_svg_line(X(b), Y(a), X(b), Y(c), "red"))
        parts.append(_svg_line(X(b), Y(c), X(e), Y(c), "red"))
    dots = {"G": ("black", 5), "*": ("red", 4)}
    for (a1, a2), m in marks.items():
        fill, r = dots.get(m, ("lightgray", 2))
        parts.append(f'<circle cx="{X(a2):.1f}" cy="{Y(a1):.1f}" r="{r}" fill="{fill}"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def staircase(d: MultiOrder, overlay: MultiOrder | None = None, fmt: str = "text") -> str:
    if fmt == "svg":
        return staircase_svg(d, overlay)
    if fmt == "text":
        return staircase_text(d, overlay)
    raise DomainError(f"unknown staircase format {fmt!r}")
