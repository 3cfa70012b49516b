"""Symmetric quadrature rules on the reference triangle.

Points are stored in reference coordinates ``(x, y)`` on the triangle with
vertices ``(0,0), (1,0), (0,1)``; weights include the reference area, so
``sum(weights) == 1/2`` and a physical integral is
``det(J) * sum(w_q * f(x_q))``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np


@dataclass(frozen=True)
class TriangleRule:
    degree: int
    points: np.ndarray   # (nq, 2)
    weights: np.ndarray  # (nq,)

    @property
    def num_points(self) -> int:
        return self.points.shape[0]


def _orbit1() -> list[tuple[float, float, float]]:
    return [(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)]


def _orbit3(a: float) -> list[tuple[float, float, float]]:
    b = 1.0 - 2.0 * a
    return [(b, a, a), (a, b, a), (a, a, b)]


def _orbit6(a: float, b: float) -> list[tuple[float, float, float]]:
    c = 1.0 - a - b
    return [(a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a)]


def _make_rule(degree: int, groups) -> TriangleRule:
    pts, wts = [], []
    for weight, bary_points in groups:
        for bary in bary_points:
            # reference coordinates are the second and third barycentric
            # coordinates: (x, y) = (b1, b2)
            pts.append((bary[1], bary[2]))
            wts.append(weight)
    points = np.array(pts)
    weights = 0.5 * np.array(wts)  # normalized weights sum to 1; ref area is 1/2
    points.setflags(write=False)
    weights.setflags(write=False)
    return TriangleRule(degree=degree, points=points, weights=weights)


_S15 = sqrt(15.0)

# 7-point rule, exact for polynomials of total degree <= 5.
RULE_DEGREE5 = _make_rule(5, [
    (9.0 / 40.0, _orbit1()),
    ((155.0 - _S15) / 1200.0, _orbit3((6.0 - _S15) / 21.0)),
    ((155.0 + _S15) / 1200.0, _orbit3((6.0 + _S15) / 21.0)),
])

# 12-point rule, exact for polynomials of total degree <= 6.
RULE_DEGREE6 = _make_rule(6, [
    (0.116786275726379, _orbit3(0.249286745170910)),
    (0.050844906370207, _orbit3(0.063089014491502)),
    (0.082851075618374, _orbit6(0.053145049844816, 0.310352451033785)),
])
