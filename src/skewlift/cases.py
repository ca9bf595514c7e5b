"""Built-in benchmark cases with skewed concentration interfaces.

All three cases share the cosine transition profile

    s(t) = 1                                    t < 0.8
         = 0.55 + 0.45*cos(10*pi*(t - 0.8))     0.8 <= t <= 0.9
         = 0.1                                  t > 0.9

evaluated along the skew coordinate t = y + 0.4x, so the interface band is the
strip 0.8 <= y + 0.4x <= 0.9.

* case 1 -- Poisson (optionally advective) with the closed-form solution
  p~ = p + h, p = 5y^2(1-y)^2(0.75-y) * x(2-x)exp(sin(2*pi*x)), on (0,2)x(0,1).
* case 2 -- Poisson on (0,2)x(0,1.1) with F = -Lap(h) plus six box sources;
  no closed form.
* case 3 -- Poisson on (0,2)x(0,1) whose exact interface is bent by the bump
  j(x) = 0.1 sin^2(5*pi/3*(x-1)) on [1, 1.6]; the solver is handed only the
  straight approximation h, so the model has to recover the bend.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .interface import Profile1D
from .problem import LiftingFunction, ProblemData

_BAND = (0.8, 0.9)
_SLOPE = 0.4
_OMEGA = 10.0 * np.pi


def _s(t):
    t = np.asarray(t, dtype=float)
    band = 0.55 + 0.45 * np.cos(_OMEGA * (t - _BAND[0]))
    return np.where(t < _BAND[0], 1.0, np.where(t > _BAND[1], 0.1, band))


def _sp(t):
    t = np.asarray(t, dtype=float)
    band = -0.45 * _OMEGA * np.sin(_OMEGA * (t - _BAND[0]))
    return np.where((t >= _BAND[0]) & (t <= _BAND[1]), band, 0.0)


def _spp(t):
    t = np.asarray(t, dtype=float)
    band = -0.45 * _OMEGA ** 2 * np.cos(_OMEGA * (t - _BAND[0]))
    return np.where((t >= _BAND[0]) & (t <= _BAND[1]), band, 0.0)


def cosine_profile():
    """Transverse concentration profile s(t) with derivatives."""
    return Profile1D(value=_s, deriv=_sp, second_deriv=_spp)


def skew_lifting():
    """Straight-interface lifting h(x, y) = s(y + 0.4x)."""
    t = lambda x, y: np.asarray(y, dtype=float) + _SLOPE * np.asarray(x, dtype=float)
    return LiftingFunction(
        value=lambda x, y: _s(t(x, y)),
        dx=lambda x, y: _SLOPE * _sp(t(x, y)),
        dy=lambda x, y: _sp(t(x, y)),
        laplacian=lambda x, y: (1.0 + _SLOPE ** 2) * _spp(t(x, y)),
    )


# Separable factors of the smooth solution part p = A(y) B(x) and their
# derivatives (expanded by hand; A = 5y^2(1-y)^2(0.75-y)).

def _A(y):
    y = np.asarray(y, dtype=float)
    return 3.75 * y ** 2 - 12.5 * y ** 3 + 13.75 * y ** 4 - 5.0 * y ** 5


def _Ap(y):
    y = np.asarray(y, dtype=float)
    return 7.5 * y - 37.5 * y ** 2 + 55.0 * y ** 3 - 25.0 * y ** 4


def _App(y):
    y = np.asarray(y, dtype=float)
    return 7.5 - 75.0 * y + 165.0 * y ** 2 - 100.0 * y ** 3


def _B(x):
    x = np.asarray(x, dtype=float)
    return x * (2.0 - x) * np.exp(np.sin(2.0 * np.pi * x))


def _Bp(x):
    x = np.asarray(x, dtype=float)
    v = np.exp(np.sin(2.0 * np.pi * x))
    vp = 2.0 * np.pi * np.cos(2.0 * np.pi * x) * v
    return (2.0 - 2.0 * x) * v + x * (2.0 - x) * vp


def _Bpp(x):
    x = np.asarray(x, dtype=float)
    s2 = np.sin(2.0 * np.pi * x)
    c2 = np.cos(2.0 * np.pi * x)
    v = np.exp(s2)
    vp = 2.0 * np.pi * c2 * v
    vpp = 4.0 * np.pi ** 2 * v * (c2 ** 2 - s2)
    return -2.0 * v + 2.0 * (2.0 - 2.0 * x) * vp + x * (2.0 - x) * vpp


def smooth_part(x, y):
    """The interface-free solution component p(x, y)."""
    return _A(y) * _B(x)


# Bump that bends the exact interface of case 3 on [1, 1.6].
_C3 = 5.0 * np.pi / 3.0


def _j(x):
    x = np.asarray(x, dtype=float)
    inside = (x >= 1.0) & (x <= 1.6)
    return np.where(inside, 0.1 * np.sin(_C3 * (x - 1.0)) ** 2, 0.0)


def _jp(x):
    x = np.asarray(x, dtype=float)
    inside = (x >= 1.0) & (x <= 1.6)
    return np.where(inside, 0.1 * _C3 * np.sin(2.0 * _C3 * (x - 1.0)), 0.0)


def _jpp(x):
    x = np.asarray(x, dtype=float)
    inside = (x >= 1.0) & (x <= 1.6)
    return np.where(inside, 0.2 * _C3 ** 2 * np.cos(2.0 * _C3 * (x - 1.0)), 0.0)


@dataclass(frozen=True)
class CaseSpec:
    """A benchmark problem bundled with its lifting and (optional) exact
    solution."""

    name: str
    problem: ProblemData
    lift: LiftingFunction
    profile: Profile1D
    exact_total: Optional[Callable] = None  # closed-form p~ = p + interface


def _constant(c):
    """The callback of the constant c, an array of the points' shape."""
    return lambda x, y: np.full(np.broadcast(x, y).shape, c)


def _problem(F, omega_y, b=(0.0, 0.0)):
    """The ProblemData of every case: k = 1, the constant b and the source F
    on (0, 2) x omega_y."""
    return ProblemData(k=_constant(1.0), b1=_constant(b[0]),
                       b2=_constant(b[1]), F=F, omega_x=(0.0, 2.0),
                       omega_y=omega_y)


def case1(b=(0.0, 0.0)):
    """Skewed cosine interface plus a separable smooth part; closed form."""
    b1c, b2c = float(b[0]), float(b[1])
    lift = skew_lifting()

    def F(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        t = y + _SLOPE * x
        out = -(_A(y) * _Bpp(x) + _App(y) * _B(x)) \
            - (1.0 + _SLOPE ** 2) * _spp(t)
        if b1c:
            out = out + b1c * (_A(y) * _Bp(x) + _SLOPE * _sp(t))
        if b2c:
            out = out + b2c * (_Ap(y) * _B(x) + _sp(t))
        return out

    pd = _problem(F, (0.0, 1.0), (b1c, b2c))
    exact = lambda x, y: smooth_part(x, y) + lift.value(x, y)
    return CaseSpec("case1", pd, lift, cosine_profile(), exact)


_BOXES = (
    (0.15, 0.35, 0.05, 0.25, 2.25),
    (0.55, 0.75, 0.60, 0.80, 2.25),
    (0.95, 1.05, 0.15, 0.35, 4.0),
    (0.95, 1.05, 0.75, 0.95, 4.0),
    (1.25, 1.45, 0.35, 0.55, 4.0),
    (1.25, 1.45, 0.55, 0.75, 2.0),
    (1.65, 1.85, 0.85, 1.05, 2.25),
)


def box_source(x, y):
    """Sum of the six rectangular source patches (one split over two
    y-ranges); adjoining boxes meet half-open so no point is counted twice."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.zeros(np.broadcast(x, y).shape)
    for i, (x0, x1, y0, y1, val) in enumerate(_BOXES):
        hit_y = (y >= y0) & (y < y1) if i == 4 else (y >= y0) & (y <= y1)
        out = np.where((x >= x0) & (x <= x1) & hit_y, out + val, out)
    return out


def case2():
    """Discontinuous box sources under the same interface; no closed form."""
    lift = skew_lifting()

    def F(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        t = y + _SLOPE * x
        return -(1.0 + _SLOPE ** 2) * _spp(t) + box_source(x, y)

    return CaseSpec("case2", _problem(F, (0.0, 1.1)), lift, cosine_profile(),
                    None)


def case3():
    """Bent exact interface, straight lifting handed to the solver, whose
    trace is still the boundary data: the bump is zero at x = 0 and x = 2,
    and the bent band stays clear of y = 0 and y = 1."""
    lift = skew_lifting()

    def exact_total(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        tb = y + _SLOPE * x - _j(x)
        return smooth_part(x, y) + _s(tb)

    def F(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        tb = y + _SLOPE * x - _j(x)
        lap_bent = _spp(tb) * ((_SLOPE - _jp(x)) ** 2 + 1.0) - _sp(tb) * _jpp(x)
        return -(_A(y) * _Bpp(x) + _App(y) * _B(x)) - lap_bent

    return CaseSpec("case3", _problem(F, (0.0, 1.0)), lift, cosine_profile(),
                    exact_total)


CASES = {1: case1, 2: case2, 3: case3}


def get_case(ident, **kwargs):
    try:
        builder = CASES[int(ident)]
    except (KeyError, ValueError):
        raise KeyError(f"unknown case {ident!r}; choose from {sorted(CASES)}")
    return builder(**kwargs)


DETECTION_DATA = {
    "case1-f": case1().problem.F,
    "case1-f-adv": case1(b=(100.0, 0.0)).problem.F,
    "step": lambda x, y: np.where(np.asarray(y, dtype=float) < 0.5, 1.0, 0.0),
}


def detection_data(name):
    """Named 2D data functions for interface-detection runs."""
    if name not in DETECTION_DATA:
        raise KeyError(f"unknown data function {name!r}; choose from "
                       f"{list(DETECTION_DATA)}")
    return DETECTION_DATA[name]
