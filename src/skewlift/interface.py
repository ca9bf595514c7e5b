"""Locate skewed interfaces in gridded data and turn them into liftings.

An "interface" here is a thin band across which a data function (a source
term, a diffusivity, or a groundwater table height) changes steeply. The
locator samples the data on a coarse-in-x / fine-in-y grid of cell midpoints,
takes discrete y-derivatives and records the element(s) of extremal
derivative per x-station. Whether the relevant extremum is the maximum, the
minimum, or both can be read off the shape of the Dirichlet trace (a profile
dropping in y produces a negative derivative spike).

The located polyline w(x) is then swept along the transverse boundary profile
to build a Dirichlet lifting h(x, y) = profile(y - w(x) + w(anchor)).

The smooth (PCHIP) midline needs scipy.interpolate, which pulls in
scipy.special and scipy.optimize; it is imported on the first smooth
lifting, not with this module, so `skewlift run` and `skewlift detect`,
which build no smooth lifting, do not load it.
"""

import csv
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .mesh import Partition1D
from .problem import LiftingFunction
from .transverse import band_solve, block_band, block_pairs

DETECT_MODES = ("max", "min", "both")  # extrema locate_interface can track


class InterfaceNotFoundError(RuntimeError):
    """Raised when the sampled data has no transverse extremum to track."""


@dataclass
class InterfaceCurve:
    """Interface polyline(s): x stations with one or two y midlines.

    ys_hi is None for single-extremum detections.
    """

    xs: np.ndarray
    ys_lo: np.ndarray
    ys_hi: Optional[np.ndarray] = None

    def midline(self):
        if self.ys_hi is None:
            return self.ys_lo
        return 0.5 * (self.ys_lo + self.ys_hi)

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["x", "y_lo", "y_hi"])
            for i, x in enumerate(self.xs):
                hi = "" if self.ys_hi is None else f"{self.ys_hi[i]:.17g}"
                w.writerow([f"{x:.17g}", f"{self.ys_lo[i]:.17g}", hi])


def locate_interface(data, coarse_x, fine_y, mode="both"):
    """Track the band of extremal transverse variation of a data function.

    Parameters
    ----------
    data : callable(x, y)
        Vectorized data function.
    coarse_x : Partition1D
        Coarse partition in the dominant direction; the polyline is sampled
        at its element midpoints.
    fine_y : Partition1D
        Fine transverse partition; candidate locations are its element
        midpoints and derivatives are forward differences between them.
    mode : {"max", "min", "both"}
        Which extremum of the (signed) discrete derivative to track. "both"
        selects the two elements with the strongest variation (largest
        derivative magnitude) and returns two lines ordered by y position,
        bracketing the band whichever sign its edges carry.
    """
    if mode not in DETECT_MODES:
        raise ValueError(f"unknown detection mode {mode!r}")
    xs = coarse_x.midpoints()
    ym = fine_y.midpoints()
    vals = np.asarray(data(xs[:, None], ym[None, :]), dtype=float)
    vals = np.broadcast_to(vals, (xs.size, ym.size))
    d = np.diff(vals, axis=1) / fine_y.h  # difference j -> element j
    spread = d.max(axis=1) - d.min(axis=1)
    scale = max(np.abs(d).max(), 1.0)
    if np.all(spread <= 1e-13 * scale):
        raise InterfaceNotFoundError(
            "data has no transverse variation; nothing to locate"
        )
    if mode == "max":
        return InterfaceCurve(xs, ym[np.argmax(d, axis=1)])
    if mode == "min":
        return InterfaceCurve(xs, ym[np.argmin(d, axis=1)])
    top2 = np.argsort(-np.abs(d), axis=1, kind="stable")[:, :2]
    y_a, y_b = ym[top2[:, 0]], ym[top2[:, 1]]
    return InterfaceCurve(xs, np.minimum(y_a, y_b), np.maximum(y_a, y_b))


@dataclass(frozen=True)
class Profile1D:
    """Transverse profile s(t) with its analytic derivative s' and, when
    known, s'' (build_lifting attaches a Laplacian only then). domain
    declares the t-range on which s is defined."""

    value: Callable
    deriv: Callable
    second_deriv: Optional[Callable] = None
    domain: tuple = (-np.inf, np.inf)


def build_lifting(curve, boundary_profile, omega_x, omega_y,
                  anchor_x=None, smooth=False):
    """Sweep a boundary profile along an interface polyline.

    h(x, y) = s(y - w(x) + w(anchor_x)) where w linearly interpolates the
    curve midline (linearly extrapolated to the domain ends) and s is the
    transverse profile read off the Dirichlet trace at x = anchor_x. With
    smooth=True, w is replaced by a monotone cubic (PCHIP) interpolant, which
    has a piecewise second derivative, so a Laplacian callback is attached
    when the profile supplies s''. PCHIP comes from scipy.interpolate, which
    is imported here on the first smooth call so that importing this module
    stays light.

    Raises ValueError when the curve has fewer than two stations or its
    stations are not finite and strictly increasing, and when the profile's
    declared domain does not cover the argument range swept by the
    translation.
    """
    xs = np.asarray(curve.xs, dtype=float)
    ws = np.asarray(curve.midline(), dtype=float)
    if xs.size < 2:
        raise ValueError("need at least two curve stations to build a lifting")
    if not (np.all(np.isfinite(xs)) and np.all(np.diff(xs) > 0)):
        raise ValueError(
            "curve stations must be finite and strictly increasing"
        )
    if anchor_x is None:
        anchor_x = omega_x[0]

    if smooth:
        from scipy.interpolate import PchipInterpolator

        interp = PchipInterpolator(xs, ws, extrapolate=True)
        dinterp = interp.derivative()
        d2interp = interp.derivative(2)
        w_of = lambda x: interp(x)
        dw_of = lambda x: dinterp(x)
        d2w_of = lambda x: d2interp(x)
    else:
        slopes = np.diff(ws) / np.diff(xs)

        def w_of(x):
            x = np.asarray(x, dtype=float)
            seg = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, xs.size - 2)
            return ws[seg] + slopes[seg] * (x - xs[seg])

        def dw_of(x):
            x = np.asarray(x, dtype=float)
            seg = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, xs.size - 2)
            return slopes[seg]

        d2w_of = None

    w_anchor = float(w_of(anchor_x))
    s = boundary_profile

    # coverage check: the translation sweeps t over [y0 - max w, y1 - min w]
    xg = np.linspace(omega_x[0], omega_x[1], 257)
    wg = w_of(xg)
    t_lo = omega_y[0] - wg.max() + w_anchor
    t_hi = omega_y[1] - wg.min() + w_anchor
    if t_lo < s.domain[0] or t_hi > s.domain[1]:
        raise ValueError(
            f"profile domain {s.domain} does not cover required range "
            f"[{t_lo:.6g}, {t_hi:.6g}]"
        )

    def arg(x, y):
        return np.asarray(y) - w_of(x) + w_anchor

    value = lambda x, y: s.value(arg(x, y))
    dy = lambda x, y: s.deriv(arg(x, y))
    dx = lambda x, y: -dw_of(x) * s.deriv(arg(x, y))

    laplacian = None
    if smooth and s.second_deriv is not None:
        def laplacian(x, y):
            t = arg(x, y)
            dw = dw_of(x)
            return s.second_deriv(t) * (1.0 + dw**2) - s.deriv(t) * d2w_of(x)

    return LiftingFunction(value=value, dx=dx, dy=dy, laplacian=laplacian)


@dataclass
class WaterTable:
    """Boussinesq water-table state: dw/dt - (K/2) Lap(w^2) + N = 0."""

    part: Partition1D
    w: np.ndarray
    K: float
    N: float

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=float)
        if self.w.shape != (self.part.n + 1,):
            raise ValueError("initial heights must be nodal on the partition")


def solve_boussinesq(wt, dt, t_end, bc):
    """March the semi-implicit Boussinesq scheme to t_end.

    The quadratic term is linearized as w^n * w^{n+1}, giving one tridiagonal
    solve per step:

        (I/dt - (K/2) D2 diag(w^n)) w^{n+1} = w^n / dt - N

    with Dirichlet values pinned at both ends. Returns (times, heights) with
    heights of shape (nsteps+1, n+1). Raises ValueError unless t_end / dt is
    a positive whole number of steps (to 1e-9 relative).
    """
    if dt <= 0 or t_end <= 0:
        raise ValueError("dt and t_end must be positive")
    ratio = t_end / dt
    nsteps = round(ratio)
    if nsteps < 1 or abs(ratio - nsteps) > 1e-9 * nsteps:
        raise ValueError(
            f"t_end / dt = {ratio:.12g} is not a whole number of steps"
        )
    part = wt.part
    n = part.n
    h2 = part.h**2
    times = np.arange(nsteps + 1) * dt
    W = np.empty((nsteps + 1, n + 1))
    W[0] = wt.w
    W[0, 0], W[0, -1] = bc
    w = W[0].copy()
    c = 0.5 * wt.K / h2
    rows, cols = block_pairs(n + 1)
    diagonal = rows == cols
    pinned = (rows == 0) | (rows == n)  # rows holding the boundary values
    for step in range(1, nsteps + 1):
        blocks = np.where(diagonal, 1.0 / dt + 2.0 * c * w[cols], -c * w[cols])
        blocks[pinned] = diagonal[pinned]
        rhs = w / dt - wt.N
        rhs[0], rhs[-1] = bc
        w = band_solve(block_band(blocks[:, None, None]), rhs,
                       f"Boussinesq step {step}")
        W[step] = w
    return times, W


def boussinesq_steady_profile(part, K, N, bc):
    """Closed-form steady state: w^2 is the quadratic with (w^2)'' = 2N/K
    matching the squared boundary values. Returns nodal heights (requires the
    quadratic to stay positive)."""
    x = (part.nodes - part.a) / part.length
    wl2, wr2 = bc[0] ** 2, bc[1] ** 2
    c = N / K * part.length**2
    q = wl2 + (wr2 - wl2) * x + c * 0.5 * x * (x - 1.0) * 2.0
    if q.min() < 0:
        raise ValueError("steady-state water table would be imaginary")
    return np.sqrt(q)

