"""Render :class:`GridAnalytics` into the paper's figures (Figs 4–9).

Every grid run now ends in artifacts a human can eyeball against the
paper instead of raw JSON: ``repro.cli plot`` (and
:func:`render_figures` underneath) turns loaded grid results into

- ``*_speedup``: speedup vs topology size — the Figure 4–5 shape, one
  line per precision;
- ``*_satisfied_cdf``: CDFs of per-matrix satisfied demand per scheme
  — the Figure 7 shape;
- ``*_failure_robustness``: mean satisfied demand vs simultaneous link
  failures per scheme — the Figure 8–9 shape.

The primary output is SVG through a built-in renderer with **no
third-party dependencies** — pure string assembly, deterministic to
the byte for the same inputs (no timestamps, no randomness), so
figures are diffable and safe to commit. SVG is the only output
format.

Chart conventions (held throughout): categorical colors come from one
fixed-order palette and follow the *scheme* (``SCHEME_SLOTS``) — a
filtered re-render never repaints survivors; every multi-series chart
carries both a legend and direct labels at the line ends; all text is
ink-colored (identity is carried by the 2px line and its swatch, never
by colored text); one y-axis per chart.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path
from xml.sax.saxutils import escape

from ..cache import atomic_write_text
from ..exceptions import ReproError
from .analytics import GridAnalytics, satisfied_samples
from .grid import GridResult

#: Fixed-order categorical palette (validated: adjacent-pair CVD
#: ΔE ≥ 9.1, normal-vision ΔE ≥ 19.6 on the light surface). Slots are
#: assigned in order and never cycled.
PALETTE = (
    "#2a78d6",  # blue
    "#eb6834",  # orange
    "#1baf7a",  # aqua
    "#eda100",  # yellow
    "#e87ba4",  # magenta
    "#008300",  # green
    "#4a3aa7",  # violet
    "#e34948",  # red
)

#: Color follows the entity: each known scheme owns a palette slot, so
#: the same scheme wears the same color in every figure and across
#: re-renders with different scheme subsets.
SCHEME_SLOTS = {
    "Teal": 0,
    "LP-all": 1,
    "LP-top": 2,
    "NCFlow": 3,
    "POP": 4,
    "TEAVAR*": 5,
}

#: Per-precision series of the speedup figure (same fixed-slot rule).
PRECISION_SLOTS = {"float32": 0, "float64": 1}

# Chart chrome (light surface).
SURFACE = "#fcfcfb"
INK = "#0b0b0b"
INK_SECONDARY = "#52514e"
INK_MUTED = "#898781"
GRIDLINE = "#e1e0d9"
AXIS = "#c3c2b7"
FONT = "system-ui, -apple-system, 'Segoe UI', sans-serif"


def scheme_colors(schemes: list[str]) -> dict[str, str]:
    """Palette assignment for a scheme set (fixed slots, never cycled).

    Known schemes take their :data:`SCHEME_SLOTS` color; unknown ones
    take the remaining slots in sorted-name order (deterministic). Past
    the palette, the last slot repeats — at that point fold series
    instead of plotting more.
    """
    colors: dict[str, str] = {}
    used: set[int] = set()
    for name in schemes:
        slot = SCHEME_SLOTS.get(name)
        if slot is not None:
            colors[name] = PALETTE[slot]
            used.add(slot)
    free = [i for i in range(len(PALETTE)) if i not in used]
    for name in sorted(n for n in schemes if n not in colors):
        colors[name] = PALETTE[free.pop(0)] if free else PALETTE[-1]
    return colors


@dataclass(frozen=True)
class Series:
    """One named line of a figure."""

    name: str
    x: tuple[float, ...]
    y: tuple[float, ...]
    color: str


@dataclass(frozen=True)
class FigureSpec:
    """Description of one figure, rendered by :func:`render_svg`."""

    slug: str
    title: str
    subtitle: str
    xlabel: str
    ylabel: str
    series: tuple[Series, ...]
    xlog: bool = False
    ylog: bool = False
    x_percent: bool = False
    y_percent: bool = False
    step: bool = False
    markers: bool = True
    xticks: tuple[float, ...] | None = None


# ----------------------------------------------------------------------
# Figure builders
# ----------------------------------------------------------------------
def speedup_figure(analytics: GridAnalytics) -> FigureSpec:
    """Speedup vs topology size (the Figure 4–5 shape), per precision."""
    by_precision: dict[str, list] = {}
    for point in analytics.curve:
        by_precision.setdefault(point.precision, []).append(point)
    if not by_precision:
        raise ReproError("analytics carry no speedup curve to plot")
    names = sorted(
        by_precision, key=lambda p: (PRECISION_SLOTS.get(p, len(PALETTE)), p)
    )
    series = []
    for index, precision in enumerate(names):
        points = sorted(by_precision[precision], key=lambda p: p.num_nodes)
        slot = PRECISION_SLOTS.get(precision, min(index, len(PALETTE) - 1))
        series.append(
            Series(
                name=precision,
                x=tuple(float(p.num_nodes) for p in points),
                y=tuple(float(p.speedup) for p in points),
                color=PALETTE[slot],
            )
        )
    xs = [v for s in series for v in s.x]
    ys = [v for s in series for v in s.y]
    return FigureSpec(
        slug="speedup",
        title="Speedup vs topology size (Figs. 4–5)",
        subtitle=(
            f"{analytics.accelerated} over {analytics.baseline}, "
            "mean compute time per traffic matrix"
        ),
        xlabel="topology size (nodes)",
        ylabel=f"speedup over {analytics.baseline} (×)",
        series=tuple(series),
        xlog=min(xs) > 0 and max(xs) / min(xs) >= 10,
        ylog=min(ys) > 0 and max(ys) / min(ys) >= 10,
    )


def cdf_figure(
    results: list[GridResult], failure_count: int | None = None
) -> FigureSpec:
    """Satisfied-demand CDFs per scheme (the Figure 7 shape)."""
    samples = satisfied_samples(results, failure_count)
    samples = {name: values for name, values in samples.items() if values}
    if not samples:
        raise ReproError("results carry no satisfied-demand samples to plot")
    colors = scheme_colors(list(samples))
    series = []
    for name in samples:
        xs = sorted(float(v) for v in samples[name])
        n = len(xs)
        # Step CDF: start at probability 0 at the smallest sample.
        series.append(
            Series(
                name=name,
                x=(xs[0], *xs),
                y=(0.0, *((i + 1) / n for i in range(n))),
                color=colors[name],
            )
        )
    scope = (
        "all failure levels pooled"
        if failure_count is None
        else f"failure level {failure_count}"
    )
    return FigureSpec(
        slug="satisfied_cdf",
        title="Satisfied demand CDF (Fig. 7)",
        subtitle=f"per-matrix satisfied demand across test instances, {scope}",
        xlabel="satisfied demand",
        ylabel="fraction of test matrices",
        series=tuple(series),
        x_percent=True,
        y_percent=True,
        step=True,
        markers=False,
    )


def robustness_figure(analytics: GridAnalytics) -> FigureSpec:
    """Mean satisfied demand vs failure count (the Figure 8–9 shape)."""
    by_scheme: dict[str, dict[int, float]] = {}
    for dist in analytics.distributions:
        by_scheme.setdefault(dist.scheme, {})[dist.failure_count] = (
            dist.mean_satisfied
        )
    if not by_scheme:
        raise ReproError("analytics carry no distributions to plot")
    colors = scheme_colors(sorted(by_scheme))
    series = []
    for name in sorted(by_scheme):
        levels = sorted(by_scheme[name])
        series.append(
            Series(
                name=name,
                x=tuple(float(level) for level in levels),
                y=tuple(by_scheme[name][level] for level in levels),
                color=colors[name],
            )
        )
    levels = sorted({v for s in series for v in s.x})
    return FigureSpec(
        slug="failure_robustness",
        title="Failure robustness (Figs. 8–9)",
        subtitle="mean satisfied demand per simultaneous link failures",
        xlabel="simultaneous link failures",
        ylabel="mean satisfied demand",
        series=tuple(series),
        y_percent=True,
        xticks=tuple(levels),
    )


def build_figures(
    results: list[GridResult],
    analytics: GridAnalytics,
    failure_count: int | None = None,
) -> list[FigureSpec]:
    """The paper-figure set one grid result collection supports."""
    return [
        speedup_figure(analytics),
        cdf_figure(results, failure_count),
        robustness_figure(analytics),
    ]


# ----------------------------------------------------------------------
# Scales and ticks
# ----------------------------------------------------------------------
def _linear_ticks(lo: float, hi: float, target: int = 5) -> list[float]:
    """Round tick positions covering [lo, hi] (at most ~target+1)."""
    span = hi - lo
    if span <= 0:
        return [lo]
    step = 10.0 ** math.floor(math.log10(span / target))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if span / (step * mult) <= target:
            step *= mult
            break
    first = math.ceil(lo / step - 1e-9)
    last = math.floor(hi / step + 1e-9)
    return [round(i * step, 10) for i in range(first, last + 1)]


def _log_ticks(lo: float, hi: float) -> list[float]:
    """Decade ticks covering [lo, hi]; 2×/5× fill sparse ranges."""
    ticks = []
    for k in range(math.floor(math.log10(lo)), math.ceil(math.log10(hi)) + 1):
        for mult in (1.0, 2.0, 5.0):
            value = mult * 10.0**k
            if lo * (1 - 1e-9) <= value <= hi * (1 + 1e-9):
                ticks.append(value)
    decades = [t for t in ticks if math.log10(t) % 1 == 0]
    return decades if len(decades) >= 3 else ticks


def _domain(values: list[float], log: bool) -> tuple[float, float]:
    """Padded axis domain around the data (log-space padding on log axes)."""
    lo, hi = min(values), max(values)
    if log:
        lo = max(lo, 1e-12)
        hi = max(hi, lo)
        if lo == hi:
            return lo / 2, hi * 2
        return lo / 1.15, hi * 1.15
    if lo == hi:
        pad = abs(lo) * 0.1 or 0.5
        return lo - pad, hi + pad
    pad = (hi - lo) * 0.06
    return lo - pad, hi + pad


def _fmt(value: float, percent: bool) -> str:
    """Tick label text (percent axes show whole percents)."""
    if percent:
        return f"{value * 100:g}%"
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value):d}"
    return f"{value:g}"


# ----------------------------------------------------------------------
# The built-in SVG renderer (no dependencies, deterministic)
# ----------------------------------------------------------------------
_WIDTH, _HEIGHT = 720, 440
_MARGIN = {"left": 70, "right": 150, "top": 78, "bottom": 54}


@dataclass
class _Svg:
    """Accumulates SVG elements in emission order."""

    parts: list[str] = field(default_factory=list)

    def add(self, element: str) -> None:
        self.parts.append(element)

    def text(
        self,
        x: float,
        y: float,
        content: str,
        *,
        size: float = 11,
        fill: str = INK_SECONDARY,
        anchor: str = "start",
        weight: str = "normal",
        transform: str | None = None,
    ) -> None:
        extra = f' transform="{transform}"' if transform else ""
        self.add(
            f'<text x="{x:.2f}" y="{y:.2f}" font-family="{FONT}" '
            f'font-size="{size:g}" font-weight="{weight}" fill="{fill}" '
            f'text-anchor="{anchor}"{extra}>{escape(content)}</text>'
        )


def render_svg(spec: FigureSpec) -> str:
    """Render one :class:`FigureSpec` as a standalone SVG document."""
    x0, y0 = _MARGIN["left"], _MARGIN["top"]
    x1, y1 = _WIDTH - _MARGIN["right"], _HEIGHT - _MARGIN["bottom"]

    xs = [v for s in spec.series for v in s.x]
    ys = [v for s in spec.series for v in s.y]
    if not xs:
        raise ReproError(f"figure {spec.slug!r} has no data")
    xlo, xhi = _domain(xs, spec.xlog)
    ylo, yhi = _domain(ys, spec.ylog)
    if spec.xticks:
        xticks = list(spec.xticks)
        xlo, xhi = _domain([*xs, *xticks], spec.xlog)
    else:
        xticks = _log_ticks(xlo, xhi) if spec.xlog else _linear_ticks(xlo, xhi)
    yticks = _log_ticks(ylo, yhi) if spec.ylog else _linear_ticks(ylo, yhi)

    def sx(v: float) -> float:
        if spec.xlog:
            frac = (math.log10(v) - math.log10(xlo)) / (
                math.log10(xhi) - math.log10(xlo)
            )
        else:
            frac = (v - xlo) / (xhi - xlo)
        return x0 + frac * (x1 - x0)

    def sy(v: float) -> float:
        if spec.ylog:
            frac = (math.log10(v) - math.log10(ylo)) / (
                math.log10(yhi) - math.log10(ylo)
            )
        else:
            frac = (v - ylo) / (yhi - ylo)
        return y1 - frac * (y1 - y0)

    svg = _Svg()
    svg.add(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}" '
        f'role="img" aria-label="{escape(spec.title)}">'
    )
    svg.add(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="{SURFACE}"/>')
    svg.text(16, 26, spec.title, size=14, fill=INK, weight="600")
    svg.text(16, 44, spec.subtitle, size=11.5, fill=INK_SECONDARY)

    # Legend row (always present for >= 2 series), under the subtitle.
    if len(spec.series) >= 2:
        lx = float(x0)
        for series in spec.series:
            svg.add(
                f'<rect x="{lx:.2f}" y="{y0 - 16:.2f}" width="10" '
                f'height="10" rx="2" fill="{series.color}"/>'
            )
            svg.text(lx + 14, y0 - 7, series.name, size=11)
            lx += 14 + 6.8 * len(series.name) + 18

    # Recessive horizontal gridlines + y tick labels.
    for tick in yticks:
        py = sy(tick)
        if not (y0 - 0.5 <= py <= y1 + 0.5):
            continue
        svg.add(
            f'<line x1="{x0}" y1="{py:.2f}" x2="{x1}" y2="{py:.2f}" '
            f'stroke="{GRIDLINE}" stroke-width="1"/>'
        )
        svg.text(
            x0 - 8, py + 3.5, _fmt(tick, spec.y_percent),
            fill=INK_MUTED, anchor="end",
        )
    # Baseline + x ticks.
    svg.add(
        f'<line x1="{x0}" y1="{y1}" x2="{x1}" y2="{y1}" '
        f'stroke="{AXIS}" stroke-width="1"/>'
    )
    for tick in xticks:
        px = sx(tick)
        if not (x0 - 0.5 <= px <= x1 + 0.5):
            continue
        svg.add(
            f'<line x1="{px:.2f}" y1="{y1}" x2="{px:.2f}" y2="{y1 + 4}" '
            f'stroke="{AXIS}" stroke-width="1"/>'
        )
        svg.text(
            px, y1 + 17, _fmt(tick, spec.x_percent),
            fill=INK_MUTED, anchor="middle",
        )
    # Axis titles.
    svg.text(
        (x0 + x1) / 2, _HEIGHT - 14, spec.xlabel, anchor="middle",
        size=11.5,
    )
    svg.text(
        16, (y0 + y1) / 2, spec.ylabel, anchor="middle", size=11.5,
        transform=f"rotate(-90 16 {(y0 + y1) / 2:.2f})",
    )

    # Series lines (2px), then markers with a surface ring on top.
    for series in spec.series:
        points = list(zip(series.x, series.y))
        if spec.step:
            path = [f"M {sx(points[0][0]):.2f} {sy(points[0][1]):.2f}"]
            for (_, _), (bx, by) in zip(points, points[1:]):
                path.append(f"H {sx(bx):.2f}")
                path.append(f"V {sy(by):.2f}")
            svg.add(
                f'<path d="{" ".join(path)}" fill="none" '
                f'stroke="{series.color}" stroke-width="2" '
                f'stroke-linejoin="round"/>'
            )
        else:
            coords = " ".join(
                f"{sx(px):.2f},{sy(py):.2f}" for px, py in points
            )
            svg.add(
                f'<polyline points="{coords}" fill="none" '
                f'stroke="{series.color}" stroke-width="2" '
                f'stroke-linejoin="round"/>'
            )
        if spec.markers:
            for px, py in points:
                svg.add(
                    f'<circle cx="{sx(px):.2f}" cy="{sy(py):.2f}" r="4" '
                    f'fill="{series.color}" stroke="{SURFACE}" '
                    f'stroke-width="1.5"/>'
                )

    # Direct labels at the line ends (right margin), nudged apart so
    # identity never rests on color alone.
    ends = sorted(
        (sy(s.y[-1]), s.name, s.color) for s in spec.series
    )
    placed: list[float] = []
    for py, name, color in ends:
        label_y = py
        if placed and label_y < placed[-1] + 15:
            label_y = placed[-1] + 15
        placed.append(label_y)
        svg.add(
            f'<rect x="{x1 + 8:.2f}" y="{label_y - 4:.2f}" width="8" '
            f'height="8" rx="2" fill="{color}"/>'
        )
        svg.text(x1 + 20, label_y + 4, name, size=11.5, fill=INK)

    svg.add("</svg>")
    return "\n".join(svg.parts) + "\n"


# ----------------------------------------------------------------------
# The file-writing entry point
# ----------------------------------------------------------------------
def render_figures(
    results: list[GridResult],
    analytics: GridAnalytics,
    output_dir: str | os.PathLike,
    prefix: str = "grid",
    failure_count: int | None = None,
) -> list[Path]:
    """Render the paper-figure set into ``output_dir``.

    Args:
        results: Loaded grid results (raw CDF samples come from here).
        analytics: Their :func:`~repro.sweep.analytics.analyze` record.
        output_dir: Destination directory (created if needed).
        prefix: Filename prefix: ``{prefix}_{slug}.svg``.
        failure_count: Restrict the CDF figure to one failure level.

    Returns:
        The written paths, in figure order.
    """
    output_dir = Path(output_dir)
    written: list[Path] = []
    for spec in build_figures(results, analytics, failure_count):
        path = output_dir / f"{prefix}_{spec.slug}.svg"
        atomic_write_text(path, render_svg(spec))
        written.append(path)
    return written
