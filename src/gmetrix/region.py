"""Envelope checks for plateau functions, with an SVG rendering of the region.

A function that vanishes at zero and sits constant at a > 0 on (0, b] is
checked interval by interval: on (n*b, (n+1)*b] the value must stay within
[a/2, 2^n * a]. The bounds grow geometrically with n, so the region forms a
staircase; the plot draws the staircase, the function, and any violations.
"""

from __future__ import annotations

import html
import math
import os
from dataclasses import dataclass
from typing import ClassVar, Optional

from .classify import REL_TOL, verify_plateau
from .dsl import RealFn, eval_fn
from .errors import OutOfRange, PlateauNotVerified, PreconditionViolated
from .model import Verdict, Witness, fails, holds


@dataclass(frozen=True)
class RegionSpec:
    """Declared plateau value a on (0, b], checked out to interval n_max."""

    a: float
    b: float
    n_max: int
    samples_per_interval: int = 16

    #: Most samples per interval. An envelope that fits a float ends at
    #: 2^n_max * a, so n_max stays near 2,100 and the samples near 2e6.
    MAX_SAMPLES: ClassVar[int] = 1_000

    def __post_init__(self) -> None:
        if not (isinstance(self.a, (int, float)) and math.isfinite(self.a)
                and self.a > 0):
            raise PreconditionViolated("plateau value a must be positive")
        if not (isinstance(self.b, (int, float)) and math.isfinite(self.b)
                and self.b > 0):
            raise PreconditionViolated("plateau edge b must be positive")
        if not (isinstance(self.n_max, int) and self.n_max >= 1):
            raise PreconditionViolated("n_max must be an integer >= 1")
        try:
            math.ldexp(self.a, self.n_max)
        except OverflowError:
            raise PreconditionViolated(
                f"upper envelope 2^{self.n_max} * a overflows") from None
        if not (isinstance(self.samples_per_interval, int)
                and self.samples_per_interval >= 2):
            raise PreconditionViolated("samples_per_interval must be >= 2")
        if self.samples_per_interval > self.MAX_SAMPLES:
            raise PreconditionViolated(
                f"samples_per_interval {self.samples_per_interval} exceeds "
                f"the cap of {self.MAX_SAMPLES}")
        # interval samples reach (n_max + 1) * b, and their offsets
        # (end - start) * i reach (samples_per_interval - 1) * b before the
        # division; each must stay finite
        reach = max(self.n_max + 1, self.samples_per_interval)
        if math.isinf(reach * self.b):
            raise PreconditionViolated(
                f"plateau edge b = {self.b!r} overflows the sampled range "
                f"({reach} * b)")

    def plot_steps(self) -> int:
        """Segments of the plotted function path, 64 per interval; raises
        PreconditionViolated when a path point x_span * i would overflow."""
        steps = 64 * (self.n_max + 1)
        x_span = (self.n_max + 1) * self.b
        if math.isinf(x_span * steps):
            raise PreconditionViolated(
                f"the plot's x range {x_span!r} overflows in {steps} steps")
        return steps

    def to_json(self):
        return {"a": float(self.a), "b": float(self.b), "n_max": self.n_max,
                "samples_per_interval": self.samples_per_interval}


def region_bounds(spec: RegionSpec, n: int) -> tuple[float, float]:
    """(lower, upper) envelope on the n-th interval (n*b, (n+1)*b]."""
    if not (isinstance(n, int) and 1 <= n <= spec.n_max):
        raise OutOfRange(f"n = {n!r} is outside 1..{spec.n_max}")
    return (spec.a / 2.0, math.ldexp(spec.a, n))


@dataclass(frozen=True)
class IntervalCheck:
    n: int
    lower: float
    upper: float
    verdict: Verdict

    def to_json(self):
        return {"n": self.n, "lower": self.lower, "upper": self.upper,
                "verdict": self.verdict.to_json()}


@dataclass(frozen=True)
class RegionReport:
    source: str
    spec: RegionSpec
    plateau_value: float
    intervals: tuple[IntervalCheck, ...]
    # (n, x, value, side) for every violating sample, in scan order
    violations: tuple[tuple[int, float, float, str], ...]

    @property
    def all_hold(self) -> bool:
        return all(item.verdict.holds for item in self.intervals)

    def to_json(self):
        return {
            "source": self.source,
            "spec": self.spec.to_json(),
            "plateau_value": self.plateau_value,
            "all_hold": self.all_hold,
            "intervals": [item.to_json() for item in self.intervals],
            "violations": [{"n": n, "x": x, "value": v, "side": side}
                           for n, x, v, side in self.violations],
        }


def _interval_samples(spec: RegionSpec, n: int) -> list[float]:
    # left edge is open: nudge the first sample just past n*b; the right
    # edge (n+1)*b belongs to the interval and is sampled exactly
    start = n * spec.b * (1.0 + 1e-6)
    end = (n + 1) * spec.b
    count = spec.samples_per_interval
    xs = [start + (end - start) * i / (count - 1) for i in range(count)]
    xs[0] = start
    xs[-1] = end
    return xs


def region_check(f: RealFn, spec: RegionSpec) -> RegionReport:
    """Check the staircase envelope interval by interval.

    Raises PlateauNotVerified unless f(0) = 0 and f is constant on (0, b]
    at the declared value a; the envelope is meaningless without that base.
    """
    f0 = eval_fn(f, 0.0)
    if f0 != 0.0:
        raise PlateauNotVerified(f"f(0) = {f0!r}, expected exactly 0")
    plateau = verify_plateau(f, spec.b)
    if plateau is None:
        raise PlateauNotVerified(
            f"f is not constant and positive on (0, {spec.b!r}]")
    observed = plateau[0]
    if abs(observed - spec.a) > REL_TOL * max(1.0, abs(spec.a)):
        raise PlateauNotVerified(
            f"plateau value {observed!r} does not match declared {spec.a!r}")

    intervals = []
    violations = []
    for n in range(1, spec.n_max + 1):
        lower, upper = region_bounds(spec, n)
        lower_slack = REL_TOL * max(1.0, abs(lower))
        upper_slack = REL_TOL * max(1.0, abs(upper))
        first: Optional[Witness] = None
        xs = _interval_samples(spec, n)
        for x, value in zip(xs, f.runner(xs)):
            side = None
            if value < lower - lower_slack:
                side = "lower"
            elif value > upper + upper_slack:
                side = "upper"
            if side is None:
                continue
            violations.append((n, x, value, side))
            if first is None:
                bound = lower if side == "lower" else upper
                relation = "<" if side == "lower" else ">"
                first = Witness(
                    description=(f"f({x!r}) = {value!r} {relation} {bound!r}, "
                                 f"the {side} envelope on interval {n}"),
                    lhs=value, rhs=bound,
                    data={"n": n, "x": x, "value": value, "side": side})
        if first is None:
            verdict = holds({"lower": lower, "upper": upper},
                            note=f"{spec.samples_per_interval} samples")
        else:
            verdict = fails(first, {"lower": lower, "upper": upper})
        intervals.append(IntervalCheck(n, lower, upper, verdict))
    return RegionReport(source=f.source, spec=spec, plateau_value=observed,
                        intervals=tuple(intervals),
                        violations=tuple(violations))


# --- SVG rendering -----------------------------------------------------------------

_WIDTH = 640.0
_HEIGHT = 400.0
_PLOT_LEFT = 40.0
_PLOT_RIGHT = 620.0
_PLOT_TOP = 20.0
_PLOT_BOTTOM = 380.0


def _fmt(value: float) -> str:
    return f"{value:.3f}"


def render_region_svg(f: RealFn, spec: RegionSpec,
                      report: RegionReport) -> str:
    """Deterministic SVG text for the envelope, function path, and violations.

    The vertical axis is capped at 4a so the first two steps stay readable;
    taller steps and larger values are clipped to the cap line.
    """
    x_span = (spec.n_max + 1) * spec.b
    y_cap = 4.0 * spec.a

    def px(x: float) -> float:
        return _PLOT_LEFT + (_PLOT_RIGHT - _PLOT_LEFT) * (x / x_span)

    def py(y: float) -> float:
        clipped = min(max(y, 0.0), y_cap)
        return _PLOT_BOTTOM - (_PLOT_BOTTOM - _PLOT_TOP) * (clipped / y_cap)

    def hline(element_id: str, y: float, x0: float, x1: float,
              stroke: str, dash: Optional[str] = None) -> str:
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        return (f'<line id="{element_id}" x1="{_fmt(px(x0))}" '
                f'y1="{_fmt(py(y))}" x2="{_fmt(px(x1))}" y2="{_fmt(py(y))}" '
                f'stroke="{stroke}" stroke-width="1.5"{dash_attr}/>')

    source = html.escape(f.source, quote=False)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {_WIDTH:.0f} {_HEIGHT:.0f}">',
        f'<title>{source}</title>',
        f'<rect x="{_fmt(_PLOT_LEFT)}" y="{_fmt(_PLOT_TOP)}" '
        f'width="{_fmt(_PLOT_RIGHT - _PLOT_LEFT)}" '
        f'height="{_fmt(_PLOT_BOTTOM - _PLOT_TOP)}" '
        f'fill="none" stroke="#888" stroke-width="1"/>',
    ]
    parts.append(hline("guide-half-a", spec.a / 2.0, 0.0, x_span,
                       "#999", dash="4 4"))
    parts.append(hline("guide-a", spec.a, 0.0, x_span, "#999", dash="4 4"))
    parts.append(hline("guide-two-a", 2.0 * spec.a, 0.0, x_span,
                       "#999", dash="4 4"))
    parts.append(hline("lower-bound", spec.a / 2.0, spec.b, x_span, "#06a"))
    for n in range(1, spec.n_max + 1):
        upper = region_bounds(spec, n)[1]
        parts.append(hline(f"step-{n}", min(upper, y_cap),
                           n * spec.b, (n + 1) * spec.b, "#06a"))

    steps = spec.plot_steps()
    xs = [x_span * i / steps for i in range(steps + 1)]
    coords = [f"{_fmt(px(x))},{_fmt(py(value))}"
              for x, value in zip(xs, f.runner(xs))]
    parts.append(f'<polyline id="fn-path" points="{" ".join(coords)}" '
                 f'fill="none" stroke="#c22" stroke-width="1.5"/>')

    for k, (n, x, value, side) in enumerate(report.violations):
        parts.append(f'<circle id="violation-{k}" cx="{_fmt(px(x))}" '
                     f'cy="{_fmt(py(value))}" r="4" fill="none" '
                     f'stroke="#c22" stroke-width="2">'
                     f'<title>interval {n}, {side} bound</title></circle>')

    parts.append(f'<text x="{_fmt(_PLOT_LEFT)}" y="{_fmt(_HEIGHT - 6.0)}" '
                 f'font-family="monospace" font-size="12" fill="#444">'
                 f'{source} on (0, {_fmt(x_span)}]</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_region_svg(f: RealFn, spec: RegionSpec, path) -> RegionReport:
    """Check the envelope and write the plot atomically; returns the report.

    Output is byte-stable for fixed (f, spec): same text, same file.
    """
    report = region_check(f, spec)
    text = render_region_svg(f, spec, report)
    tmp = f"{os.fspath(path)}.tmp"
    handle = open(tmp, "w", encoding="utf-8")
    try:
        with handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:  # no half-written plot is left behind
        os.remove(tmp)
        raise
    return report
