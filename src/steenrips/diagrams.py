"""Persistence-diagram exports derived from barcode JSON.

The JSON is the source of truth; SVG and CSV are rendered views.
Infinite deaths are drawn at 1.1x the largest finite value with a
distinct marker.
"""

from __future__ import annotations

import math
from typing import TextIO

from .cohomology import Barcode

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def write_csv(barcode: Barcode, stream: TextIO) -> None:
    stream.write("degree,birth,death,multiplicity\n")
    for b in barcode.bars:
        death = "inf" if b.is_infinite else repr(b.death)
        stream.write(f"{b.degree},{b.birth!r},{death},{b.multiplicity}\n")


def write_svg(barcode: Barcode, stream: TextIO) -> None:
    finite = [v for b in barcode.bars for v in (b.birth, b.death)
              if math.isfinite(v)]
    top = max(finite, default=1.0)
    if top <= 0:
        top = 1.0
    lim = 1.1 * top
    pad, plot = 40.0, 420.0

    def sx(v: float) -> float:
        return pad + (v / lim) * plot

    def sy(v: float) -> float:
        return pad + plot - (v / lim) * plot

    w = h = 2 * pad + plot
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" height="{h:.0f}" '
        f'viewBox="0 0 {w:.0f} {h:.0f}">',
        f'<rect width="{w:.0f}" height="{h:.0f}" fill="white"/>',
        f'<line x1="{sx(0):.2f}" y1="{sy(0):.2f}" x2="{sx(lim):.2f}" '
        f'y2="{sy(lim):.2f}" stroke="#999" stroke-dasharray="4 3"/>',
        f'<line x1="{pad:.2f}" y1="{pad + plot:.2f}" x2="{pad + plot:.2f}" '
        f'y2="{pad + plot:.2f}" stroke="black"/>',
        f'<line x1="{pad:.2f}" y1="{pad:.2f}" x2="{pad:.2f}" '
        f'y2="{pad + plot:.2f}" stroke="black"/>',
        f'<text x="{pad + plot / 2:.2f}" y="{h - 8:.2f}" font-size="12" '
        f'text-anchor="middle">birth</text>',
        f'<text x="12" y="{pad + plot / 2:.2f}" font-size="12" '
        f'text-anchor="middle" transform="rotate(-90 12 {pad + plot / 2:.2f})">'
        f'death</text>',
    ]
    for b in barcode.bars:
        color = _PALETTE[b.degree % len(_PALETTE)]
        x = sx(b.birth)
        if b.is_infinite:
            y = sy(lim)
            out.append(
                f'<path d="M {x:.2f} {y - 5:.2f} L {x - 5:.2f} {y + 4:.2f} '
                f'L {x + 5:.2f} {y + 4:.2f} Z" fill="{color}">'
                f'<title>deg {b.degree}: ({b.birth:.9g}, inf) x{b.multiplicity}'
                f'</title></path>'
            )
        else:
            y = sy(b.death)
            r = 3.0 + 1.2 * (b.multiplicity - 1)
            out.append(
                f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r:.1f}" fill="{color}" '
                f'fill-opacity="0.8"><title>deg {b.degree}: ({b.birth:.9g}, '
                f'{b.death:.9g}) x{b.multiplicity}</title></circle>'
            )
    out.append("</svg>")
    stream.write("\n".join(out) + "\n")
