"""Independent numerical verification kernels.

Two tools, deliberately decoupled from the symbolic pipeline so they can
serve as oracles for it:

* composite 16-point Gauss-Legendre quadrature with worst-panel
  refinement and geometric truncation-window expansion for infinite
  endpoints (panel error from the embedded 8-point rule, tail error from
  the measured geometric decay of successive window blocks); the
  integrand gets the nodes of many panels in one array, so it must act
  elementwise: the core panels share a call with the first blocks of
  each infinite side, and each refinement round evaluates in one call
  the halves of every panel the stop rules already commit the loop to
  split, then replays the splits one at a time; each Gauss rule sums
  over all the panels of a call in one ``np.vecdot``, the per-row
  kernel of a 1-D ``np.dot``, so every sum and count is the
  one-panel-at-a-time algorithm's, bit for bit;

* a three-point finite-difference Hamiltonian -d^2/dx^2 + V(x) with
  Dirichlet (or ratio-matched) boundaries, two arrays (diagonal and
  couplings) built by one symmetrized stencil on a uniform mesh or on a
  mesh graded toward a singular endpoint at x = 0; its eigenvalues are
  located by Sturm-sequence counting plus bisection, so the count of
  eigenvalues below any shift is exact; a count stops at the first row
  past which every row is diagonally dominant at the shift and whose
  incoming pivot is at least its coupling, since no later pivot can then
  be negative (about two thirds of an oscillator's rows are swept), and a
  shift that meets an exact zero pivot is swept again with the pivot
  taken as a tiny positive number; each level is bisected on its own,
  its decisions replayed from one shared record of monotone counts and
  located flip points, each found by a pole-plus-constant step fitted to
  the level's last two sweeps of d/ds log|det(T - s)|, so about 43% of
  the row sweeps give the plain bisection's result bit for bit; a NaN
  entry or shift is named.

A uniform mesh cannot resolve an r^gamma cusp at a regular-singular
endpoint (for the cube-root potential, gamma = 1/6): its error stalls near
1e-1 whatever the wall.  The graded mesh of ``indicial_grading`` removes
the leading truncation term on r^gamma, so the error falls as N^-2 again.
"""

from __future__ import annotations

import heapq
import math
import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import NamedTuple
from itertools import accumulate, islice

import numpy as np

from .errors import (
    BisectionNoConverge, DomainError, InvalidParameter, NonFiniteValue,
    QuadratureNoConverge, require_finite,
)
from .expr import Expr, as_function, differentiate, evaluate

__all__ = [
    "QuadResult", "integrate", "FDHamiltonian", "fd_nodes", "fd_hamiltonian",
    "indicial_grading", "sturm_count", "eigenvalues_below", "residual",
    "residual_norm", "residual_grid",
]

_GL16 = np.polynomial.legendre.leggauss(16)
_GL8 = np.polynomial.legendre.leggauss(8)
_NODES = np.concatenate([_GL16[0], _GL8[0]])  # of one panel on [-1, 1]
# refinement stops once the panels hold this many nodes
_MAX_NODES = 1 << 20


def _panels(f, bounds):
    """16-point value and |GL16 - GL8| error estimate of each panel [a, b]
    in ``bounds``, from one call of f on the 24 nodes of every panel.

    Each rule's weighted sums over all panels are one ``np.vecdot``,
    which runs the per-row kernel of a 1-D ``np.dot``, so every sum is
    the one a panel-by-panel dot gives, bit for bit; the scaling by the
    half-width stays in Python floats, which overflow to inf silently.
    """
    mids = [0.5 * (a + b) for a, b in bounds]
    halves = [0.5 * (b - a) for a, b in bounds]
    xs = np.array(mids)[:, None] + np.array(halves)[:, None] * _NODES
    y = np.asarray(f(xs.ravel()), dtype=float).reshape(xs.shape)
    finite = np.isfinite(y).all(axis=1).tolist()
    sums16 = np.vecdot(y[:, :16], _GL16[1]).tolist()
    sums8 = np.vecdot(y[:, 16:], _GL8[1]).tolist()
    out = []
    for h, s16, s8, ok in zip(halves, sums16, sums8, finite):
        v16, v8 = h * s16, h * s8
        out.append((v16, abs(v16 - v8) if ok else math.inf))
    return out


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    nodes: int
    window: tuple = (0.0, 0.0)
    calls: int = 0  # calls of the integrand


class _PanelHeap:
    """Max-heap on panel error with deterministic tie-breaking.

    Panels evaluated ahead of their turn wait in ``_ahead``, keyed by
    their bounds, until ``evaluate`` is asked for them.  A heap entry is
    (-error, counter, a, b, value).
    """

    def __init__(self, f):
        self._f = f
        self._heap = []
        self._counter = 0
        self._ahead = {}  # (a, b) -> (value, error)
        self._merge = True  # False once a call joining several sets raised
        self.value = 0.0
        self.abs_value = 0.0
        self.error = 0.0
        self.nodes = 0
        self.calls = 0

    def evaluate(self, bounds):
        """(value, error) of each panel in ``bounds``: the results
        evaluated ahead, or those of one call of f."""
        if bounds[0] in self._ahead:
            return [self._ahead.pop(p) for p in bounds]
        self.calls += 1
        return _panels(self._f, bounds)

    def evaluate_ahead(self, sets):
        """Evaluate two or more ``sets`` (lists of panel bounds) in one
        call of f and keep the results for ``evaluate``.  The sets are
        those a set-by-set evaluation would pass to f one call each, the
        first of them next.  With one set, or once a joint call has
        raised, nothing is evaluated, so each set is evaluated when its
        turn comes and only the exception of that call can surface."""
        if not (self._merge and len(sets) > 1):
            return
        bounds = [p for s in sets for p in s]
        try:
            self._ahead.update(zip(bounds, self.evaluate(bounds)))
        except Exception:
            # whatever f raised, the set-by-set calls from here on
            # raise it again where that evaluation meets it
            self._merge = False

    def add(self, a, b, v, e):
        self.value += v
        self.abs_value += abs(v)
        self.error += e
        self.nodes += 24
        heapq.heappush(self._heap, (-e, self._counter, a, b, v))
        self._counter += 1

    def worst_error(self):
        return -self._heap[0][0] if self._heap else 0.0

    def certain_splits(self, tail_error, half_target):
        """The panels the loop of ``integrate`` is certain to split while
        its sums stand as they do (``tail_error`` and half the target are
        the loop's), worst first in the heap's own order.

        While panel i of that order is in the heap, every panel popped
        before it has an error of at least e_i, so the loop goes on to
        split it if the errors from i on still exceed half the target,
        the i splits before it stay below ``_MAX_NODES``, and e_i is above
        the double-precision floor.  A panel of infinite error is split
        only at the top: taking it out turns the error sum into NaN,
        which ends the loop.
        """
        if not math.isfinite(self._heap[0][0]):
            return [self._heap[0]]
        ranked = sorted(self._heap)
        errors = [-item[0] for item in ranked]
        rest = list(accumulate(reversed(errors)))[::-1]
        floor = 6e-17 * self.abs_value
        for i in range(1, len(ranked)):
            if not (tail_error + rest[i] > half_target
                    and self.nodes + 48 * i < _MAX_NODES
                    and errors[i] > floor):
                return ranked[:i]
        return ranked

    def refine_worst(self, tail_error, half_target):
        """Split the worst panel.  Unless its halves were evaluated ahead,
        evaluate them in one call with those of every other panel in
        ``certain_splits`` whose halves were not."""
        halves = _split(self._heap[0])
        if halves[0] not in self._ahead:
            sets = map(_split, self.certain_splits(tail_error, half_target))
            self.evaluate_ahead([s for s in sets if s[0] not in self._ahead])
        neg_e, _, _, _, v = heapq.heappop(self._heap)
        self.value -= v
        self.abs_value -= abs(v)
        self.error += neg_e  # neg_e == -e
        for (a, b), (v, e) in zip(halves, self.evaluate(halves)):
            self.add(a, b, v, e)


def _split(item):
    """The bounds of the two halves of the panel in heap entry ``item``."""
    mid = 0.5 * (item[2] + item[3])
    return (item[2], mid), (mid, item[3])


def _march_blocks(core, side):
    """The geometrically growing blocks, at most 70, of a march from its
    own end of ``core`` toward side +1 (hi) or -1 (lo), the first as wide
    as the core, each made when the march takes it."""
    edge, width = core[1 if side > 0 else 0], core[1] - core[0]
    for _ in range(70):
        a, b = (edge, edge + width) if side > 0 else (edge - width, edge)
        yield a, b
        edge = b if side > 0 else a
        width *= 2.0


def integrate(f, interval, tol: float = 1e-10) -> QuadResult:
    """Integrate f over the (possibly infinite) interval.

    f is an Expr or a vectorized callable: each call gets the nodes of
    one or more whole panels in one array, all strictly inside the
    interval, so f must act elementwise.  The first call holds the 4
    core panels and the first 3 blocks of each infinite side's march;
    each later call holds a march batch the stop rule is certain to need,
    or the halves of the worst panel together with those of every panel
    the refinement loop is then certain to split.  No panel is evaluated
    ahead of that certainty, and the march or split that needs a panel
    set takes it from the heap's one store of panels evaluated ahead, so
    value, error, nodes and window are those of evaluating one panel set
    per call; ``QuadResult.calls`` counts the calls.  The 16- and 8-point
    sums of all the panels of a call are one ``np.vecdot`` per rule, each
    row's sum the one a 1-D ``np.dot`` of that panel gives.  Should a call
    joining several sets raise, the sets are evaluated one call each from
    then on, so the exception is the one that evaluation raises.
    Convergence target is max(tol, tol * |integral|), so large-magnitude
    integrals are held to relative accuracy.  Finite endpoints are used
    as given; infinite sides are truncated by marching geometrically
    growing blocks until their contribution is negligible and decaying.
    Raises QuadratureNoConverge when the error estimate still exceeds the
    target at the refinement cap of ``_MAX_NODES`` nodes.  Gauss nodes
    are strictly interior, so integrable endpoint singularities are
    allowed.
    """
    lo, hi = float(interval[0]), float(interval[1])
    heap = _PanelHeap(as_function(f))

    if math.isinf(lo) and math.isinf(hi):
        core = (-1.0, 1.0)
    elif math.isinf(hi):
        core = (lo, lo + 1.0)
    elif math.isinf(lo):
        core = (hi - 1.0, hi)
    else:
        core = (lo, hi)
    span = core[1] - core[0]
    starts = [core[0] + span * k / 4.0 for k in range(4)]
    panels = [(a, a + span / 4.0) for a in starts]
    sides = [side for side, end in ((+1, hi), (-1, lo)) if math.isinf(end)]
    # a march always evaluates its first 3 blocks, so they are known
    # before anything is evaluated and share the core's call
    heap.evaluate_ahead(
        [panels] + [list(islice(_march_blocks(core, side), 3))
                    for side in sides])
    for (a, b), (v, e) in zip(panels, heap.evaluate(panels)):
        heap.add(a, b, v, e)

    tail_error = 0.0
    window = list(core)

    def target():
        return max(tol, tol * abs(heap.value))

    def march(side):
        # side = +1 (toward hi) or -1 (toward lo)
        nonlocal tail_error
        todo = _march_blocks(core, side)
        batch = list(islice(todo, 3))
        prev = None
        quiet = 0
        while batch:
            for (a, b), (v, e) in zip(batch, heap.evaluate(batch)):
                heap.add(a, b, v, e)
                # stop once three consecutive blocks are negligible and the
                # measured block-to-block decay bounds the remaining tail
                # (a single small block may just straddle a sign change)
                if prev is not None and prev > 0 and abs(v) > 0:
                    ratio = abs(v) / prev
                else:
                    ratio = 0.0 if abs(v) == 0.0 else 0.5
                tail = (abs(v) * ratio / (1.0 - ratio) if ratio < 0.9
                        else math.inf)
                if abs(v) <= target() / 8.0 and tail <= target() / 8.0:
                    quiet += 1
                    if quiet >= 3:
                        tail_error += tail
                        break
                else:
                    quiet = 0
                if abs(v) > 0:
                    prev = abs(v)
            if quiet >= 3:
                break
            # the march stops only after three quiet blocks in a row, so
            # the next 3 - quiet blocks are evaluated whatever they hold
            batch = list(islice(todo, 3 - quiet))
        else:
            tail_error = math.inf  # the 70 blocks ran out
        # (a, b) is the last block added
        if side > 0:
            window[1] = b
        else:
            window[0] = a

    for side in sides:
        march(side)

    while (heap.error + tail_error > target() / 2.0
           and heap.nodes < _MAX_NODES):
        if heap.worst_error() <= 6e-17 * heap.abs_value:
            break  # refinement is below the double-precision floor
        heap.refine_worst(tail_error, target() / 2.0)

    err = heap.error + tail_error
    if not math.isfinite(err) or err > max(target(),
                                           1e-14 * heap.abs_value):
        raise QuadratureNoConverge(
            f"error estimate {err:.3g} exceeds target {target():.3g} "
            f"after {heap.nodes} nodes")
    return QuadResult(heap.value, err, heap.nodes, tuple(window),
                      heap.calls)


# --- finite-difference Hamiltonian ---------------------------------------

@dataclass(frozen=True)
class FDHamiltonian:
    """Symmetric tridiagonal discretization of -d^2/dx^2 + V with
    Dirichlet walls, as two float arrays on either mesh: ``diag`` holds
    the n diagonal entries and ``off`` the n - 1 couplings of
    neighbouring rows.

    The arrays are held as read-only views, so a shared instance cannot
    be changed by any of its readers.  InvalidParameter names a diagonal
    that is not 1-D and non-empty, or an ``off`` that is not 1-D of
    length diag.size - 1.
    """

    diag: np.ndarray = field(repr=False)
    off: np.ndarray = field(repr=False)

    def __post_init__(self):
        diag = np.asarray(self.diag, dtype=float)
        off = np.asarray(self.off, dtype=float)
        if diag.ndim != 1 or diag.size == 0 or off.shape != (diag.size - 1,):
            raise InvalidParameter(
                f"need a 1-D diagonal of n >= 1 entries and a 1-D "
                f"off-diagonal of n - 1, got shapes {diag.shape} and "
                f"{off.shape}")
        for name, value in (("diag", diag), ("off", off)):
            view = value.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)


def indicial_grading(gamma: float) -> float:
    """Grading exponent p = 4/(1+gamma) of ``fd_nodes`` for a solution
    that behaves as r^gamma at a singular endpoint r = 0.

    The three-point stencil on nodes r_i = r(i/n) misses u'' by
    (h_i - h_(i-1)) u'''/3 + (h_i^2 - h_i h_(i-1) + h_(i-1)^2) u''''/12,
    with h ~ r'/n and h_i - h_(i-1) ~ r''/n^2.  On r(t) = (a + b t)^p,
    r' = p b r^(1-1/p) and r'' = p (p-1) b^2 r^(1-2/p), so for u = r^gamma
    both terms scale as r^(gamma-2-2/p) / n^2 and their sum carries the
    factor p (1 + gamma) - 4.  It vanishes at p = 4/(1+gamma): 24/7 for
    the r^(1/6) cusp of the cube-root potential.
    """
    if not -1.0 < gamma <= 3.0:
        raise InvalidParameter("need -1 < gamma <= 3 for a grading p >= 1")
    return 4.0 / (1.0 + gamma)


def fd_nodes(x_lo: float, x_hi: float, n: int,
             grading: float = 1.0) -> np.ndarray:
    """The n+1 mesh nodes x_lo = x_0 < x_1 < ... < x_n = x_hi.

    grading 1 spaces them uniformly; grading p > 1 spaces them uniformly
    in x^(1/p), so the spacing shrinks as x^(1-1/p) toward a singular
    endpoint at x = 0 (this needs 0 <= x_lo).
    """
    if n < 1:
        raise InvalidParameter(f"need at least one subinterval, got {n}")
    if not x_lo < x_hi:
        raise DomainError(f"need x_lo < x_hi, got [{x_lo:g}, {x_hi:g}]")
    if grading == 1.0:
        nodes = x_lo + (x_hi - x_lo) / n * np.arange(n + 1)
    elif grading < 1.0:
        raise InvalidParameter("need grading >= 1")
    elif x_lo < 0.0:
        raise DomainError(f"a mesh graded toward x = 0 needs x_lo >= 0, "
                          f"got {x_lo:g}")
    else:
        a, b = x_lo ** (1.0 / grading), x_hi ** (1.0 / grading)
        nodes = (a + (b - a) / n * np.arange(n + 1)) ** grading
    nodes[0], nodes[-1] = x_lo, x_hi
    return nodes


def fd_hamiltonian(potential, x_lo: float, x_hi: float, n: int,
                   left_ratio: float = 0.0,
                   grading: float = 1.0) -> FDHamiltonian:
    """FD Hamiltonian on the ``fd_nodes(x_lo, x_hi, n, grading)`` mesh;
    the potential is an Expr or a vectorized callable, and must be finite
    at every interior node (NonFiniteValue names the first that is not):
    the Sturm count would read a NaN pivot as "not below".  Every mesh
    spacing h needs a normal, finite h^2, so that 1/h^2 is finite and
    the stencil's products of spacings do not overflow.

    One stencil serves both meshes:
    -(2/(h_(i-1)+h_i)) [(u_(i+1)-u_i)/h_i - (u_i-u_(i-1))/h_(i-1)] + V_i u_i
    symmetrized by sqrt(w_i), w_i = (h_(i-1) + h_i)/2, which keeps its
    eigenvalues: the diagonal is 2/(h_(i-1) h_i) + V_i, the coupling
    -1/(h_i sqrt(w_i w_(i+1))).  Every h_i of a uniform mesh is the one
    spacing h = (x_hi - x_lo)/n, so the entries are 2/h^2 + V_i and -1/h^2.

    A finite left_ratio r imposes u_0 = r * u_1 instead of u_0 = 0, which
    matches a known power-law behavior at a singular left endpoint."""
    if n < 16:
        raise InvalidParameter("need at least 16 subintervals")
    nodes = fd_nodes(x_lo, x_hi, n, grading)
    # np.diff of a uniform mesh's nodes rounds its spacings apart
    h = np.full(n, (x_hi - x_lo) / n) if grading == 1.0 else np.diff(nodes)
    h_min, h_max = float(np.min(h)), float(np.max(h))
    if not h_min * h_min >= sys.float_info.min:
        raise InvalidParameter(
            f"mesh spacing {h_min:g} is too small: its square underflows")
    if not h_max * h_max < math.inf:
        raise InvalidParameter(
            f"mesh spacing {h_max:g} is too large: its square overflows")
    require_finite(("left_ratio", left_ratio))
    grid = nodes[1:-1]
    v = np.broadcast_to(np.asarray(as_function(potential)(grid),
                                   dtype=float), grid.shape)
    finite = np.isfinite(v)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NonFiniteValue(f"potential is {v[i]:g} at x={grid[i]:g}")
    w = 0.5 * (h[:-1] + h[1:])
    diag = 2.0 / (h[:-1] * h[1:]) + v
    diag[0] -= left_ratio / (h[0] * w[0])
    return FDHamiltonian(diag, -1.0 / (h[1:-1] * np.sqrt(w[:-1] * w[1:])))


# a zero pivot is not counted, so it goes on as the pivot at a shift just
# below s, which is positive: every pivot falls as s grows
_TINY = 1e-290
# row i is dominant at s when d_i - s exceeds |o_(i-1)| + |o_i| by this
# share of |d_i| + |o_(i-1)| + |o_i|, 16 units of rounding: more than the
# rounding of that bound and of one pivot step can take
_MARGIN = 8.0 * np.finfo(float).eps
# a nonzero off-diagonal outside this range may square to a subnormal or
# to inf, which the margin does not cover, so its rows are never dominant
_SAFE_OFF = (2.0 ** -500, 2.0 ** 500)
# bisection stops once every bracket is within this share of max(1, |E|)
_RTOL = 1e-10
# an index is located by steps once counts j and j + 1 bracket its flip
# point within this share of max(1, |midpoint of that bracket|)
_ISOLATED = 0.1
# the steps stop at one of this share of the bisection's final width
# w = _RTOL * max(1, |E|), and probe this share of w either side of the
# root; they give up after _NEWTON_STEPS sweeps: a bisection from the
# isolating bracket, at most _ISOLATED max(1, |s|) wide, down to w makes
# log2(_ISOLATED / _RTOL), about 30 passes, and the step that converges
# superlinearly from it within 3 to 5 sweeps stops short of half of them
_NEWTON_STOP = 0.125
_PROBE = 0.125
_NEWTON_STEPS = 12


class _Rows(NamedTuple):
    """The sweeps' view of an FDHamiltonian, as Python floats so that a
    zero pivot raises ZeroDivisionError.

    floor[r] is the least row-wise Gershgorin lower bound
    d_i - |o_(i-1)| - |o_i|, less the margin, over the rows i >= r: every
    row from r on is dominant at a shift s <= floor[r].  ``bracket`` holds
    Gershgorin bounds (lo, hi) of the whole spectrum.
    """

    d0: float
    rest: list          # d_1, ..., d_(n-1)
    # the one squared coupling when every coupling is equal (a uniform
    # mesh), which _sweep and _newton_sweep loop over apart: one loop for
    # every mesh lost all 6 spectrum benchmark pairs (tasks_per_s 44.2
    # against 50.0, 2 vCPUs)
    o2: float | None
    off2: list          # o_i^2, i < n - 1
    abs_off: list       # |o_i|, i < n - 1
    floor: list
    bracket: tuple


def _rows(ham):
    """The rows of ``ham``; NonFiniteValue names its first NaN entry, which
    would count as "not below" at every shift.

    The bracket is row-wise, min/max(d_i -+ (|o_(i-1)| + |o_i|)), on every
    mesh: on a graded one min(d) - 2 max|o| would sit near -1/h_0^2 and
    cost dozens of extra bisection passes."""
    diag, off = ham.diag, ham.off
    for name, values in (("diagonal", diag), ("off-diagonal", off)):
        nan = np.isnan(values)
        if nan.any():
            raise NonFiniteValue(f"FD Hamiltonian {name} entry "
                                 f"{int(np.argmax(nan))} is nan")
    a = np.abs(off)
    a_in, a_out = np.append(0.0, a), np.append(a, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        low = diag - a_in - a_out
        bound = low - _MARGIN * (np.abs(diag) + a_in + a_out)
        if a.size and (off == off[0]).all():
            o2 = float(off[0]) * float(off[0])
            off2 = [o2] * a.size
        else:
            o2 = None
            off2 = (off * off).tolist()
        bracket = (float(np.min(low)), float(np.max(diag + a_in + a_out)))
    safe = (a == 0.0) | ((a >= _SAFE_OFF[0]) & (a <= _SAFE_OFF[1]))
    bound[~(np.isfinite(bound) & np.append(True, safe)
            & np.append(safe, True))] = -math.inf
    floor = np.minimum.accumulate(bound[::-1])[::-1].tolist()
    return _Rows(float(diag[0]), diag[1:].tolist(), o2, off2, a.tolist(),
                 floor, bracket)


def _tiny_count(rows, s):
    """The Sturm count at s over every row, a zero pivot taken as _TINY."""
    d0, rest, _, off2, _, _, _ = rows
    q = d0 - s
    count = int(q < 0.0)
    for d, o2 in zip(rest, off2):
        if q == 0.0:
            q = _TINY
        q = (d - s) - o2 / q
        if q < 0.0:
            count += 1
    return count


def _sweep(rows, s):
    """The Sturm count at the float s, and the number of rows swept.

    The sweep stops at the first row r >= bisect_left(floor, s) whose
    incoming pivot has q_(r-1) >= |o_(r-1)|.  Every row i >= r is
    dominant at s, so q_i >= (d_i - s) - |o_(i-1)| >= |o_i| by induction,
    and no later pivot is negative: the count is the full sweep's.  A zero
    pivot raises ZeroDivisionError, and the shift is swept again with the
    _TINY rule.
    """
    d0, rest, o2, off2, abs_off, floor, _ = rows
    stop = bisect_left(floor, s)
    if stop == 0:
        return 0, 0  # every pivot is at least its row's |o_i|
    q = d0 - s
    count = int(q < 0.0)
    try:
        if o2 is not None:
            for d in rest[:stop - 1]:
                q = (d - s) - o2 / q
                if q < 0.0:
                    count += 1
        else:
            for d, t in zip(rest[:stop - 1], off2[:stop - 1]):
                q = (d - s) - t / q
                if q < 0.0:
                    count += 1
        for i in range(stop - 1, len(rest)):  # rest[i] is row i + 1
            if q >= abs_off[i]:
                break
            q = (rest[i] - s) - off2[i] / q
            if q < 0.0:
                count += 1
        else:
            i = len(rest)
    except ZeroDivisionError:
        return _tiny_count(rows, s), len(rest) + 1
    return count, i + 1


def _counts(rows, shifts):
    """Sturm count at each shift, one plain-float sweep of the rows each
    (the recurrence is sequential in the rows).  A numpy scalar shift
    would divide by a zero pivot without raising, so each is a float."""
    return [_sweep(rows, float(s))[0] for s in shifts]


def _newton_sweep(rows, s):
    """The Sturm count at s and d/ds log|det(T - s)|, the sum of q_i'/q_i
    over the count's pivots with q_i' = -1 + o_i^2 q_(i-1)'/q_(i-1)^2, in
    one sweep of every row, since the slope is the whole matrix's; None
    where a pivot is zero.  Without a zero pivot the pivots are the
    count's own, so the count is too."""
    d0, rest, o2, off2, _, _, _ = rows
    q, dq = d0 - s, -1.0
    count, total = 0, 0.0
    try:
        if o2 is not None:
            for d in rest:
                if q < 0.0:
                    count += 1
                u = dq / q
                total += u
                t = o2 / q
                q = (d - s) - t
                dq = -1.0 + t * u
        else:
            for d, o2 in zip(rest, off2):
                if q < 0.0:
                    count += 1
                u = dq / q
                total += u
                t = o2 / q
                q = (d - s) - t
                dq = -1.0 + t * u
        return count + int(q < 0.0), total + dq / q
    except ZeroDivisionError:
        return None


def sturm_count(ham: FDHamiltonian, shifts):
    """Number of eigenvalues strictly below each shift (exact count via
    the sign changes of the Sturm sequence)."""
    shifts = np.atleast_1d(np.asarray(shifts, dtype=float))
    if np.isnan(shifts).any():
        raise InvalidParameter(f"shift {np.argmax(np.isnan(shifts))} is nan")
    return np.array(_counts(_rows(ham), shifts.tolist()), dtype=np.int64)


def _pole_step(s2, f2, s1, f1, newton):
    """The step x = s2 - lam of the model f(s) = 1/(s - lam) + B through
    the slopes f1 at s1 and f2 at s2, which makes x^2 + h x - h/df = 0
    with h = s1 - s2 and df = f2 - f1: of its two roots, the one nearer
    the Newton step.  The Newton step where df is 0 or the roots are not
    finite and real."""
    h, df = s1 - s2, f2 - f1
    if df == 0.0 or not (disc := h * h + 4.0 * h / df) >= 0.0:
        return newton
    # the root of larger size without cancellation; the product of the
    # roots is -h/df
    big = -0.5 * (h + math.copysign(math.sqrt(disc), h))
    if big == 0.0 or not math.isfinite(big):
        return newton
    x = min((big, -h / df / big), key=lambda r: abs(r - newton))
    return x if math.isfinite(x) else newton


class _Replay:
    """A Sturm bisection of each index j < k on its own, in plain floats,
    ``brackets[j]`` its [lo, hi], deciding count(mid) >= j + 1 from as few
    counts as possible.

    The floating-point count is monotone in the shift (Demmel, Dhillon &
    Ren, ETNA 3, 1995), so the shifts counted so far give the highest
    ``low[j]`` with count <= j and the lowest ``high[j]`` with count >= j +
    1: a midpoint at or below low[j] is not below, one at or above high[j]
    is, and one in between is counted and narrows every index's record.
    Once counts j and j + 1 isolate the flip point, steps on the slope of
    log|det(T - s)| locate it: Newton's from the first sweep, then that of
    a pole plus a constant fitted to the last two (``_pole_step``); the
    probes either side that the counts have not settled are counted at
    once.  Every decision rests on a count, so neither the order of the
    indices nor the shifts counted change a result.
    """

    def __init__(self, rows, k, lo, hi):
        self.rows = rows
        self.brackets = [(lo, hi)] * k
        self.low, self.low_count = [-math.inf] * k, [-1] * k
        self.high, self.high_count = [hi] * k, [k] * k
        self.located = [False] * k

    def count(self, shifts):
        """The Sturm count at each shift, each recorded."""
        counts = _counts(self.rows, shifts)
        for shift, count in zip(shifts, counts):
            self.record(shift, count)
        return counts

    def record(self, shift, count):
        # low and high never fall as j grows, so each loop stops at the
        # first index whose record the shift does not move
        for j in range(count, len(self.low)):
            if not shift > self.low[j]:
                break
            self.low[j], self.low_count[j] = shift, count
        for j in range(min(count, len(self.high)) - 1, -1, -1):
            if not shift < self.high[j]:
                break
            self.high[j], self.high_count[j] = shift, count

    def passes(self, j):
        """Index j's passes; after each, whether it is within tolerance."""
        lo, hi = self.brackets[j]
        while True:
            mid = 0.5 * (lo + hi)
            below = mid >= self.high[j] or (
                mid > self.low[j] and self.count([mid])[0] >= j + 1)
            lo, hi = self.brackets[j] = (lo, mid) if below else (mid, hi)
            self.locate(j)
            yield hi - lo <= _RTOL * max(1.0, abs(mid))

    def locate(self, j):
        """Steps toward index j's flip point once the counts isolate it,
        then probes either side.  The first sweep takes a Newton step, each
        later one the pole-plus-constant step through it and the sweep
        before.  Each sweep counts its shift as well, and a step that would
        leave the counted bracket bisects it instead."""
        a, b = self.low[j], self.high[j]
        s = 0.5 * (a + b)  # the scale, not the pass's far-off midpoint
        if (self.located[j] or (self.low_count[j], self.high_count[j])
                != (j, j + 1) or not b - a <= _ISOLATED * max(1.0, abs(s))):
            return
        self.located[j] = True
        last = None  # (s, slope) of the level's previous sweep
        for _ in range(_NEWTON_STEPS):
            swept = _newton_sweep(self.rows, s)
            if swept is None:
                break
            count, slope = swept
            self.record(s, count)
            a, b = self.low[j], self.high[j]
            if b - a <= 2.0 * _PROBE * _RTOL * max(1.0, abs(s)):
                break  # the counts alone pin the flip point
            step = 1.0 / slope if slope != 0.0 else math.inf
            if last is not None:
                step = _pole_step(s, slope, *last, step)
            last = s, slope
            if not a < s - step < b:
                s = 0.5 * (a + b)
                continue
            s -= step
            w = _RTOL * max(1.0, abs(s))
            if abs(step) <= _NEWTON_STOP * w:
                self.count([p for p in (s - _PROBE * w, s + _PROBE * w)
                            if a < p < b])
                break


def eigenvalues_below(ham: FDHamiltonian, e_max: float) -> list:
    """All eigenvalues below e_max, each bracketed by Sturm counts and
    polished by bisection to 1e-10 max(1, |E|); the bracket's top is
    e_max or, if lower, the Gershgorin upper bound.  Raises
    BisectionNoConverge if 200 passes do not reach that tolerance.

    Each index is bisected on its own from shared counts (``_Replay``),
    so far fewer rows are swept, up to the pass at which the last is
    within the tolerance: the result is bit for bit the plain lockstep
    bisection's.
    """
    require_finite(("e_max", e_max))
    rows = _rows(ham)
    k = _counts(rows, [float(e_max)])[0]
    if k == 0:
        return []
    lo0, top = rows.bracket
    # no eigenvalue lies above the upper bound, so a larger e_max would
    # only add passes (at 1e300, more than the 200 allowed)
    top = min(float(e_max), top)
    replay = _Replay(rows, k, lo0, top)
    runs = [replay.passes(j) for j in range(k)]
    # a bracket stays within the tolerance once it is, as it only narrows
    firsts = [next((n for n, within in enumerate(islice(run, 200), 1)
                    if within), math.inf) for run in runs]
    last = max(firsts)
    if last > 200:
        raise BisectionNoConverge(
            f"bisection of {k} eigenvalues in [{lo0:.6g}, {top:.6g}] not "
            f"within rtol {_RTOL:g} after 200 passes")
    for run, first in zip(runs, firsts):
        list(islice(run, last - first))
    return [0.5 * (lo + hi) for lo, hi in replay.brackets]


# --- residual of candidate eigenpairs -------------------------------------

def residual_grid(interval, n: int = 400):
    """Evaluation grid clamped strictly inside the interval.

    Infinite ends default to |x| <= 10 (or 30 on half lines); a left
    endpoint at 0 is clamped to 1e-3 because generated systems carry
    genuine 1/r^2 terms there.
    """
    lo, hi = interval
    if math.isinf(lo) and math.isinf(hi):
        return np.linspace(-10.0, 10.0, n)
    if math.isinf(hi):
        lo_c = lo + 1e-3 if lo == 0.0 else lo + 1e-6 * max(1.0, abs(lo))
        return np.linspace(lo_c, lo + 30.0, n)
    if math.isinf(lo):
        hi_c = hi - 1e-6 * max(1.0, abs(hi))
        return np.linspace(hi - 30.0, hi_c, n)
    eps = 1e-6 * (hi - lo)
    return np.linspace(lo + eps, hi - eps, n)


def residual(potential: Expr, lam: float, psi: Expr, x):
    """-psi''(x) + V(x) psi(x) - lam psi(x) at a point or an array of
    points, with psi'' computed symbolically; raises DomainError where
    V or psi is undefined.  Like ``evaluate``, it lets inf * 0 pass as
    NaN without a warning."""
    psi2 = differentiate(differentiate(psi))
    pv, d2, v = evaluate(psi, x), evaluate(psi2, x), evaluate(potential, x)
    with np.errstate(over="ignore", invalid="ignore"):
        return -d2 + v * pv - lam * pv


def residual_norm(system, pair=None, n: int = 400) -> float:
    """max over a clamped grid of |residual| / (1 + |lam psi|).

    ``system`` needs ``potential`` (Expr) and ``interval`` attributes;
    ``pair`` is (lam, psi_expr), or None for the only known eigenpair of
    a ``SchrodingerSystem`` (its ``energy`` and ``psi``).  NonFiniteValue
    names the first grid point where the residual or lam psi is not finite.
    """
    lam, psi = (system.energy, system.psi) if pair is None else pair
    xs = residual_grid(system.interval, n)
    vals = residual(system.potential, lam, psi, xs)
    with np.errstate(over="ignore", invalid="ignore"):
        lam_psi = lam * evaluate(psi, xs)
    xs, vals, lam_psi = np.broadcast_arrays(xs, vals, lam_psi)
    if not (finite := np.isfinite(vals) & np.isfinite(lam_psi)).all():
        i = np.argmin(finite)
        raise NonFiniteValue(
            f"residual {vals[i]:g} and lam psi {lam_psi[i]:g} at "
            f"x={xs[i]:g}: both must be finite")
    return float(np.max(np.abs(vals) / (1.0 + np.abs(lam_psi))))
