"""Hand-rolled deterministic SVG plots (no plotting dependency).

Fixed canvas, axes derived from data ranges, numbers formatted with a
fixed precision: identical input bytes give identical output bytes.
"""

from __future__ import annotations

import csv
import math
import io

WIDTH = 640
HEIGHT = 420
MARGIN = 56

# each plots the CSV of one command: perc, perc --tail and saw --z-grid
PLOT_KINDS = ("crossing-vs-p", "tail-loglog", "chi-ratio")


def _fmt(x: float) -> str:
    return f"{x:.4f}"


class PlotError(ValueError):
    pass


def _axes(xs, ys, logx=False, logy=False):
    if logx:
        xs = [math.log10(x) for x in xs if x > 0]
    if logy:
        ys = [math.log10(y) for y in ys if y > 0]
    if not xs or not ys:
        raise PlotError("no plottable points")
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x0 == x1:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y0 == y1:
        y0, y1 = y0 - 0.5, y1 + 0.5
    return x0, x1, y0, y1


class SvgCanvas:
    def __init__(self, x0, x1, y0, y1, logx=False, logy=False):
        self.x0, self.x1, self.y0, self.y1 = x0, x1, y0, y1
        self.logx, self.logy = logx, logy
        self.parts: list[str] = []

    def px(self, x: float) -> float:
        if self.logx:
            x = math.log10(x)
        return MARGIN + (x - self.x0) / (self.x1 - self.x0) * (WIDTH - 2 * MARGIN)

    def py(self, y: float) -> float:
        if self.logy:
            y = math.log10(y)
        return HEIGHT - MARGIN - (y - self.y0) / (self.y1 - self.y0) * (HEIGHT - 2 * MARGIN)

    def polyline(self, points, color="#1f5fa8", dash=""):
        pts = " ".join(f"{_fmt(self.px(x))},{_fmt(self.py(y))}" for x, y in points)
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5"{extra} points="{pts}"/>'
        )

    def dots(self, points, color="#1f5fa8", r=2.5):
        for x, y in points:
            self.parts.append(
                f'<circle cx="{_fmt(self.px(x))}" cy="{_fmt(self.py(y))}" r="{r}" fill="{color}"/>'
            )

    def text(self, x_px: float, y_px: float, s: str, anchor="middle", size=12):
        self.parts.append(
            f'<text x="{_fmt(x_px)}" y="{_fmt(y_px)}" font-size="{size}" '
            f'font-family="monospace" text-anchor="{anchor}">{s}</text>'
        )

    def frame(self, title: str, xlabel: str, ylabel: str):
        self.parts.append(
            f'<rect x="{MARGIN}" y="{MARGIN}" width="{WIDTH - 2 * MARGIN}" '
            f'height="{HEIGHT - 2 * MARGIN}" fill="none" stroke="#333"/>'
        )
        self.text(WIDTH / 2, MARGIN - 16, title)
        self.text(WIDTH / 2, HEIGHT - 12, xlabel)
        self.text(14, HEIGHT / 2, ylabel, anchor="middle")
        # corner tick labels
        lo_x = 10**self.x0 if self.logx else self.x0
        hi_x = 10**self.x1 if self.logx else self.x1
        lo_y = 10**self.y0 if self.logy else self.y0
        hi_y = 10**self.y1 if self.logy else self.y1
        self.text(MARGIN, HEIGHT - MARGIN + 16, f"{lo_x:.4g}", anchor="start", size=10)
        self.text(WIDTH - MARGIN, HEIGHT - MARGIN + 16, f"{hi_x:.4g}", anchor="end", size=10)
        self.text(MARGIN - 4, HEIGHT - MARGIN, f"{lo_y:.4g}", anchor="end", size=10)
        self.text(MARGIN - 4, MARGIN + 10, f"{hi_y:.4g}", anchor="end", size=10)

    def render(self) -> str:
        body = "\n".join(self.parts)
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">\n<rect width="{WIDTH}" height="{HEIGHT}" '
            f'fill="white"/>\n{body}\n</svg>\n'
        )


def _read_csv(text: str, required: tuple[str, ...]) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        raise PlotError("empty CSV")
    for col in required:
        if col not in rows[0]:
            raise PlotError(f"missing column {col!r}")
    return rows


def render_plot(kind: str, csv_text: str) -> str:
    """Render one of the supported plot kinds from its CSV schema."""
    if kind == "crossing-vs-p":
        rows = _read_csv(csv_text, ("p", "estimate", "ci_lo", "ci_hi"))
        pts = sorted((float(r["p"]), float(r["estimate"])) for r in rows)
        lo = sorted((float(r["p"]), float(r["ci_lo"])) for r in rows)
        hi = sorted((float(r["p"]), float(r["ci_hi"])) for r in rows)
        c = SvgCanvas(*_axes([x for x, _ in pts], [0.0, 1.0]))
        c.frame("crossing probability vs p", "p", "P(0-S_R)")
        c.polyline(lo, color="#999", dash="4 3")
        c.polyline(hi, color="#999", dash="4 3")
        c.polyline(pts)
        c.dots(pts)
        return c.render()
    if kind == "tail-loglog":
        rows = _read_csv(csv_text, ("n", "survival_fraction"))
        pts = sorted((float(r["n"]), float(r["survival_fraction"])) for r in rows
                     if float(r["survival_fraction"]) > 0)
        c = SvgCanvas(*_axes([x for x, _ in pts], [y for _, y in pts], True, True),
                      logx=True, logy=True)
        c.frame("cluster-size tail (log-log)", "n", "P(|C|>=n)")
        c.polyline(pts)
        c.dots(pts)
        # slope -1/2 reference anchored to the first point
        x0, y0 = pts[0]
        ref = [(x, y0 * (x / x0) ** -0.5) for x, _ in pts]
        c.polyline(ref, color="#c0392b", dash="6 3")
        return c.render()
    if kind == "chi-ratio":
        rows = _read_csv(csv_text, ("z", "ratio_lo"))
        pts = sorted((float(r["z"]), float(r["ratio_lo"])) for r in rows)
        c = SvgCanvas(*_axes([x for x, _ in pts], [y for _, y in pts]))
        c.frame("chi(z) * (1/mu - z)", "z", "ratio")
        c.polyline(pts)
        c.dots(pts)
        return c.render()
    raise PlotError(f"unknown plot kind {kind!r}; choose from {PLOT_KINDS}")
