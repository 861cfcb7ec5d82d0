"""Shared numeric policy knobs.

The divergence heuristic is configured here once and used by both the function
classifier (pair ratios) and the preservation search (image triplet constants),
so the two modules cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Relative tolerance used by float-side comparisons (monotonicity, defects,
#: region bounds). Exact rational paths never use it.
REL_TOL = 1e-9


@dataclass(frozen=True)
class DivergenceConfig:
    """When a running sup of ratios counts as divergence.

    Fires only if the sup exceeds ``absolute_threshold`` and grew by at least
    ``octave_growth`` between the top scale octave and everything below it.
    Large-but-bounded functions plateau across octaves and never fire.
    """

    absolute_threshold: float = 1e6
    octave_growth: float = 10.0

    def diverged(self, sup: float, sup_top: float, sup_below: float) -> bool:
        """Does a running sup count as divergence, given its maxima over the
        top scale octave and over everything below it?"""
        return (sup > self.absolute_threshold
                and (sup_below <= 0.0
                     or sup_top >= self.octave_growth * sup_below))


DEFAULT_DIVERGENCE = DivergenceConfig()
