"""Deterministic SVG rendering of instances and move assignments.

Output is plain text assembled in a fixed order with fixed number
formatting, so identical inputs produce byte-identical documents.  Lattice
blocks are drawn as hatched rectangles, never as individual circles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .instance_io import Instance, Witness, check_witness_indices
from .numerics import approx_float, frac

__all__ = ["RenderOptions", "render_svg"]

PALETTE = {
    "fixed": "#3a66a8",
    "moved_origin": "#9aa3ad",
    "moved_target": "#c0503c",
    "arrow": "#444444",
    "block": "#8fa88f",
}


@dataclass(frozen=True)
class RenderOptions:
    scale: Fraction = Fraction(12)

    def __post_init__(self):
        if frac(self.scale) <= 0:
            raise ValueError("scale must be positive")


def _fmt(v: float) -> str:
    return f"{v:.3f}"


def render_svg(inst: Instance, w: Optional[Witness] = None,
               opts: Optional[RenderOptions] = None) -> str:
    """The SVG document of ``inst``, with ``w``'s moves drawn as arrows; a
    move of a disk the instance does not have, or a scale or coordinate
    beyond float range, raises ValueError, as does a drawing whose width or
    height no float holds."""
    opts = opts or RenderOptions()
    if w is not None:
        check_witness_indices(inst, w)
    try:
        scale = float(frac(opts.scale))
        pts = [(approx_float(d.x), approx_float(d.y)) for d in inst.disks]
        boxes = [(float(b.x0), float(b.y0), float(b.x1), float(b.y1))
                 for b in inst.blocks]
        targets = {} if w is None else {
            i: (approx_float(p.x), approx_float(p.y))
            for i, p in sorted(w.moves.items())}
    except OverflowError:
        raise ValueError("a scale or coordinate beyond float range") from None

    xs = [p[0] for p in pts] + [t[0] for t in targets.values()] + \
        [b[0] for b in boxes] + [b[2] for b in boxes]
    ys = [p[1] for p in pts] + [t[1] for t in targets.values()] + \
        [b[1] for b in boxes] + [b[3] for b in boxes]
    if not xs:
        xs, ys = [0.0], [0.0]
    pad = 2.0
    x0, x1 = min(xs) - pad, max(xs) + pad
    y0, y1 = min(ys) - pad, max(ys) + pad
    width = (x1 - x0) * scale
    height = (y1 - y0) * scale
    if not (math.isfinite(width) and math.isfinite(height)):
        raise ValueError("a scale or coordinate beyond float range")

    def tx(x: float) -> str:
        return _fmt((x - x0) * scale)

    def ty(y: float) -> str:
        return _fmt((y1 - y) * scale)

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" '
        f'height="{_fmt(height)}" viewBox="0 0 {_fmt(width)} {_fmt(height)}">')
    out.append(
        '<defs><pattern id="hatch" width="6" height="6" '
        'patternUnits="userSpaceOnUse" patternTransform="rotate(45)">'
        f'<line x1="0" y1="0" x2="0" y2="6" stroke="{PALETTE["block"]}" '
        'stroke-width="1.5"/></pattern>'
        '<marker id="tip" markerWidth="8" markerHeight="8" refX="6" refY="3" '
        f'orient="auto"><path d="M0,0 L6,3 L0,6 z" fill="{PALETTE["arrow"]}"/>'
        '</marker></defs>')

    for bx0, by0, bx1, by1 in boxes:
        out.append(
            f'<rect x="{tx(bx0)}" y="{ty(by1)}" '
            f'width="{_fmt((bx1 - bx0) * scale)}" '
            f'height="{_fmt((by1 - by0) * scale)}" fill="url(#hatch)" '
            f'stroke="{PALETTE["block"]}" stroke-width="1"/>')

    r = _fmt(scale)
    for i, (px, py) in enumerate(pts):
        if i in targets:
            out.append(
                f'<circle cx="{tx(px)}" cy="{ty(py)}" r="{r}" fill="none" '
                f'stroke="{PALETTE["moved_origin"]}" stroke-width="1" '
                'stroke-dasharray="4 3"/>')
        else:
            out.append(
                f'<circle cx="{tx(px)}" cy="{ty(py)}" r="{r}" '
                f'fill="{PALETTE["fixed"]}" fill-opacity="0.25" '
                f'stroke="{PALETTE["fixed"]}" stroke-width="1"/>')
    for i, (qx, qy) in targets.items():
        px, py = pts[i]
        out.append(
            f'<circle cx="{tx(qx)}" cy="{ty(qy)}" r="{r}" '
            f'fill="{PALETTE["moved_target"]}" fill-opacity="0.25" '
            f'stroke="{PALETTE["moved_target"]}" stroke-width="1"/>')
        out.append(
            f'<line x1="{tx(px)}" y1="{ty(py)}" x2="{tx(qx)}" y2="{ty(qy)}" '
            f'stroke="{PALETTE["arrow"]}" stroke-width="1" '
            'marker-end="url(#tip)"/>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
