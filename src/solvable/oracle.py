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
  split, then replays the splits one at a time, so every sum and count
  is the one-panel-at-a-time algorithm's, bit for bit;

* a three-point finite-difference Hamiltonian -d^2/dx^2 + V(x) with
  Dirichlet (or ratio-matched) boundaries on a uniform mesh, or on a mesh
  graded toward a singular endpoint at x = 0, whose eigenvalues are
  located by Sturm-sequence counting plus bisection, so the count of
  eigenvalues below any shift is exact; a count stops at the first row
  past which every row is diagonally dominant at the shift and whose
  incoming pivot is at least its coupling, since no later pivot can then
  be negative (about two thirds of an oscillator's rows are swept), and a
  shift that meets an exact zero pivot is swept again with the pivot
  taken as a tiny positive number; the bisection's below/above decisions
  are replayed from monotone counts and Newton-located flip points, so
  about half the row sweeps give the plain bisection's result bit for
  bit.

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
from itertools import accumulate, islice, zip_longest

import numpy as np

from .errors import (
    BisectionNoConverge, DomainError, InvalidParameter, NonFiniteValue,
    QuadratureNoConverge, SingularPoint, require_finite,
)
from .expr import Expr, differentiate, evaluate

__all__ = [
    "QuadResult", "integrate", "FDHamiltonian", "fd_nodes", "fd_hamiltonian",
    "indicial_grading", "sturm_count", "eigenvalues_below",
    "richardson_eigenvalues", "residual", "residual_norm", "residual_grid",
]

_GL16 = np.polynomial.legendre.leggauss(16)
_GL8 = np.polynomial.legendre.leggauss(8)
_NODES = np.concatenate([_GL16[0], _GL8[0]])  # of one panel on [-1, 1]
# refinement stops once the panels hold this many nodes
_MAX_NODES = 1 << 20


def _as_array_function(f):
    """An Expr as a function of an array; a callable as it is, so it must
    take an array of points."""
    if isinstance(f, Expr):
        return lambda xs: evaluate(f, xs)
    return f


def _panels(f, bounds):
    """16-point value and |GL16 - GL8| error estimate of each panel [a, b]
    in ``bounds``, from one call of f on the 24 nodes of every panel."""
    a, b = np.array(bounds).T
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    xs = mid[:, None] + half[:, None] * _NODES
    y = np.asarray(f(xs.ravel()), dtype=float).reshape(xs.shape)
    finite = np.isfinite(y).all(axis=1).tolist()
    out = []
    for h, row, ok in zip(half.tolist(), y, finite):
        v16 = h * float(np.dot(_GL16[1], row[:16]))
        v8 = h * float(np.dot(_GL8[1], row[16:]))
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

    The halves of a panel may be evaluated before it is popped; they wait
    in ``_halves`` under the panel's counter until ``refine_worst`` pops
    it.  A heap entry is (-error, counter, a, b, value).
    """

    def __init__(self, f):
        self._f = f
        self._heap = []
        self._counter = 0
        self._halves = {}
        self._merge = True  # False once a call joining several sets raised
        self.value = 0.0
        self.abs_value = 0.0
        self.error = 0.0
        self.nodes = 0
        self.calls = 0

    def evaluate(self, bounds):
        """(value, error) of each panel in ``bounds``, in one call of f."""
        self.calls += 1
        return _panels(self._f, bounds)

    def evaluate_sets(self, sets):
        """(value, error) lists of a prefix of ``sets`` (lists of panel
        bounds), from one call of f: of every set, or, once a call joining
        several sets has raised, of the first set alone.  The sets are
        those a set-by-set evaluation would pass to f one call each, the
        first of them next, so only the exception of that call can
        surface."""
        if self._merge and len(sets) > 1:
            try:
                out = iter(self.evaluate([p for s in sets for p in s]))
            except Exception:
                # whatever f raised, the set-by-set calls from here on
                # raise it again where that evaluation meets it
                self._merge = False
            else:
                return [[next(out) for _ in s] for s in sets]
        return [self.evaluate(sets[0])]

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
        if not (self._merge and math.isfinite(self._heap[0][0])):
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
        """Split the worst panel.  Unless its halves are known, evaluate
        them in one call with those of every other panel in
        ``certain_splits`` whose halves are not known either."""
        if self._heap[0][1] not in self._halves:
            ranked = [item for item in self.certain_splits(
                tail_error, half_target) if item[1] not in self._halves]
            sets = [((a, 0.5 * (a + b)), (0.5 * (a + b), b))
                    for _, _, a, b, _ in ranked]
            for item, halves in zip(ranked, self.evaluate_sets(sets)):
                self._halves[item[1]] = halves
        neg_e, counter, a, b, v = heapq.heappop(self._heap)
        self.value -= v
        self.abs_value -= abs(v)
        self.error += neg_e  # neg_e == -e
        mid = 0.5 * (a + b)
        (v1, e1), (v2, e2) = self._halves.pop(counter)
        self.add(a, mid, v1, e1)
        self.add(mid, b, v2, e2)


def _march_blocks(edge, width, side):
    """The geometrically growing blocks, at most 70, of a march from
    ``edge`` toward side +1 (hi) or -1 (lo), the first ``width`` wide,
    each made when the march takes it."""
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
    ahead of that certainty, and the splits are replayed one at a time,
    so value, error, nodes and window are those of evaluating one panel
    set per call; ``QuadResult.calls`` counts the calls.  Should a call
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
    heap = _PanelHeap(_as_array_function(f))

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
    # a march starts at its own end of the core (march(+1) never moves
    # window[0]) and always evaluates its first 3 blocks, so they are
    # known before anything is evaluated and share the core's call
    sides = [side for side, end in ((+1, hi), (-1, lo)) if math.isinf(end)]
    plans = [_march_blocks(core[1] if side > 0 else core[0], span, side)
             for side in sides]
    batches = [list(islice(blocks, 3)) for blocks in plans]
    first = heap.evaluate_sets([panels] + batches)
    for (a, b), (v, e) in zip(panels, first[0]):
        heap.add(a, b, v, e)

    tail_error = 0.0
    window = list(core)

    def target():
        return max(tol, tol * abs(heap.value))

    def march(side, blocks, batch, results):
        # side = +1 (toward hi) or -1 (toward lo); batch is the first 3
        # blocks, taken from the iterator blocks, and results are theirs
        # if they are already evaluated, else None
        nonlocal tail_error
        prev = None
        quiet = 0
        while batch:
            if results is None:
                results = heap.evaluate(batch)
            for (a, b), (v, e) in zip(batch, results):
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
            batch, results = list(islice(blocks, 3 - quiet)), None
        else:
            tail_error = math.inf  # the 70 blocks ran out
        # (a, b) is the last block added
        if side > 0:
            window[1] = b
        else:
            window[0] = a

    for side, blocks, batch, results in zip_longest(sides, plans, batches,
                                                    first[1:]):
        march(side, blocks, batch, results)

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
    """Symmetric tridiagonal discretization of -d^2/dx^2 + V on the
    interior nodes ``grid`` of [x_lo, x_hi], with Dirichlet walls; n is
    the subinterval count.

    On a uniform mesh ``h`` is the spacing and ``off`` the one
    off-diagonal -1/h^2.  On a graded mesh ``h`` holds the n spacings and
    ``off`` the n-2 off-diagonals, one per pair of neighbouring rows: the
    non-uniform three-point stencil symmetrized by the node weights
    w_i = (h_(i-1) + h_i)/2, which keeps its eigenvalues.

    left_ratio r imposes u_0 = r * u_1 instead of u_0 = 0, which matches
    a known power-law behavior at a singular left endpoint.

    The arrays are held as read-only views, so a shared instance cannot
    be changed by any of its readers.
    """

    x_lo: float
    x_hi: float
    n: int
    grid: np.ndarray = field(repr=False)
    h: float | np.ndarray
    diag: np.ndarray = field(repr=False)
    off: float | np.ndarray

    def __post_init__(self):
        for name in ("grid", "h", "diag", "off"):
            value = getattr(self, name)
            if isinstance(value, np.ndarray):
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
    spacing h needs a normal h^2, so that 1/h^2 is finite."""
    if n < 16:
        raise InvalidParameter("need at least 16 subintervals")
    nodes = fd_nodes(x_lo, x_hi, n, grading)
    h_min = (x_hi - x_lo) / n if grading == 1.0 else float(
        np.min(np.diff(nodes)))
    if not h_min * h_min >= sys.float_info.min:
        raise InvalidParameter(
            f"mesh spacing {h_min:g} is too small: its square underflows")
    grid = nodes[1:-1]
    v = np.broadcast_to(np.asarray(_as_array_function(potential)(grid),
                                   dtype=float), grid.shape)
    finite = np.isfinite(v)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NonFiniteValue(f"potential is {v[i]:g} at x={grid[i]:g}")
    if grading == 1.0:
        h = (x_hi - x_lo) / n
        diag = 2.0 / h ** 2 + v
        diag[0] -= left_ratio / h ** 2
        return FDHamiltonian(x_lo, x_hi, n, grid, h, diag, -1.0 / h ** 2)
    h, diag, off = _nonuniform_stencil(nodes, v, left_ratio)
    return FDHamiltonian(x_lo, x_hi, n, grid, h, diag, off)


def _nonuniform_stencil(nodes, v, left_ratio):
    """Spacings, diagonal and off-diagonals of
    -(2/(h_(i-1)+h_i)) [(u_(i+1)-u_i)/h_i - (u_i-u_(i-1))/h_(i-1)] + V_i u_i
    symmetrized by sqrt(w_i): the diagonal is 2/(h_(i-1) h_i) + V_i, the
    off-diagonal -1/(h_i sqrt(w_i w_(i+1)))."""
    h = np.diff(nodes)
    w = 0.5 * (h[:-1] + h[1:])
    diag = 2.0 / (h[:-1] * h[1:]) + v
    diag[0] -= left_ratio / (h[0] * w[0])
    off = -1.0 / (h[1:-1] * np.sqrt(w[:-1] * w[1:]))
    return h, diag, off


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
# an index goes to Newton once counts j and j + 1 bracket its flip point
# within this share of max(1, |midpoint|)
_ISOLATED = 0.1
# Newton stops at a step of this share of the bisection's final width
# w = _RTOL * max(1, |E|), and probes this share of w either side of its
# root; it gives up after _NEWTON_STEPS sweeps, under half the passes a
# bisection from the isolating bracket down to w makes
_NEWTON_STOP = 0.125
_PROBE = 0.125
_NEWTON_STEPS = 12


class _Rows(NamedTuple):
    """The sweeps' view of an FDHamiltonian, as Python floats so that a
    zero pivot raises ZeroDivisionError.

    floor[r] is the least row-wise Gershgorin lower bound
    d_i - |o_(i-1)| - |o_i|, less the margin, over the rows i >= r: every
    row from r on is dominant at a shift s <= floor[r].
    """

    d0: float
    rest: list          # d_1, ..., d_(n-1)
    o2: float | None    # the one squared off-diagonal of a uniform mesh
    off2: list          # o_i^2, i < n - 1
    abs_off: list       # |o_i|, i < n - 1
    floor: list


def _rows(ham):
    diag = np.asarray(ham.diag, dtype=float)
    off = np.asarray(ham.off, dtype=float)
    a = np.broadcast_to(np.abs(off), diag.size - 1)
    if off.ndim == 0:
        o2 = float(off) * float(off)
        off2 = [o2] * a.size
    else:
        o2 = None
        with np.errstate(over="ignore"):  # as the float product above
            off2 = (off * off).tolist()
    a_in, a_out = np.append(0.0, a), np.append(a, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        bound = (diag - a_in - a_out
                 - _MARGIN * (np.abs(diag) + a_in + a_out))
    safe = (a == 0.0) | ((a >= _SAFE_OFF[0]) & (a <= _SAFE_OFF[1]))
    bound[~(np.isfinite(bound) & np.append(True, safe)
            & np.append(safe, True))] = -math.inf
    floor = np.minimum.accumulate(bound[::-1])[::-1].tolist()
    return _Rows(float(diag[0]), diag[1:].tolist(), o2, off2, a.tolist(),
                 floor)


def _tiny_count(rows, s):
    """The Sturm count at s over every row, a zero pivot taken as _TINY."""
    d0, rest, _, off2, _, _ = rows
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
    d0, rest, o2, off2, abs_off, floor = rows
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
    """Sturm count at each shift, one plain-float sweep of the rows each.

    The recurrence is sequential in the rows, so each shift is swept on
    its own; for the few shifts a bisection pass sends, that is cheaper
    than one numpy call per row on a short array.  A numpy scalar shift
    would divide by a zero pivot without raising, so each is a float.
    """
    return [_sweep(rows, float(s))[0] for s in shifts]


def _newton_sweep(rows, s):
    """The Sturm count at s and d/ds log|det(T - s)|, the sum of q_i'/q_i
    over the count's pivots with q_i' = -1 + o_i^2 q_(i-1)'/q_(i-1)^2, in
    one sweep of every row, since the slope is the whole matrix's; None
    where a pivot is zero.  Without a zero pivot the pivots are the
    count's own, so the count is too."""
    d0, rest, o2, off2, _, _ = rows
    s = float(s)
    q, dq = d0 - s, -1.0
    count = 0
    total = 0.0
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
    return np.array(_counts(_rows(ham), shifts.tolist()), dtype=np.int64)


class _Replay:
    """The decisions count(mid_j) >= j + 1 of a Sturm bisection over the
    indices j < k, from as few counts as possible.

    The floating-point count is monotone in the shift (Demmel, Dhillon &
    Ren, ETNA 3, 1995), so for each j the counts taken so far give the
    highest shift ``low[j]`` with count <= j and the lowest ``high[j]``
    with count >= j + 1: a midpoint at or below low[j] is not below the
    flip point, one at or above high[j] is, and only those in between are
    counted, each distinct one once per pass.  Once two counts j and j + 1
    isolate the flip point, a Newton iteration on log|det(T - s)| locates
    it, and the probes either side of it that the counts have not settled
    join the next pass's counts.  Newton only chooses shifts to count;
    every decision rests on a count.
    """

    def __init__(self, rows, k, e_max):
        self.rows = rows
        self.idx = np.arange(k)
        self.low = np.full(k, -math.inf)
        self.low_count = np.full(k, -1)
        self.high = np.full(k, e_max)
        self.high_count = np.full(k, k)
        self.located = np.zeros(k, dtype=bool)
        self.probes = []

    def record(self, shift, count):
        at_most = count <= self.idx
        raise_low = at_most & (shift > self.low)
        self.low[raise_low] = shift
        self.low_count[raise_low] = count
        drop_high = ~at_most & (shift < self.high)
        self.high[drop_high] = shift
        self.high_count[drop_high] = count

    def below(self, mid):
        """count(mid_j) >= j + 1 for each j."""
        below = mid >= self.high
        open_ = ~below & (mid > self.low)
        shifts = sorted(set(mid[open_].tolist()).union(self.probes))
        self.probes = []
        counted = dict(zip(shifts, _counts(self.rows, shifts)))
        for shift, count in counted.items():
            self.record(shift, count)
        for j in np.flatnonzero(open_).tolist():
            below[j] = counted[float(mid[j])] >= j + 1
        self.locate(mid)
        return below

    def locate(self, mid):
        """Newton probes for each index whose flip point the counts have
        just isolated.  Each Newton sweep counts its shift as well, and a
        step that would leave the counted bracket bisects it instead."""
        ready = (~self.located & (self.low_count == self.idx)
                 & (self.high_count == self.idx + 1)
                 & (self.high - self.low
                    <= _ISOLATED * np.maximum(1.0, np.abs(mid))))
        for j in np.flatnonzero(ready).tolist():
            self.located[j] = True
            s = 0.5 * (float(self.low[j]) + float(self.high[j]))
            for _ in range(_NEWTON_STEPS):
                swept = _newton_sweep(self.rows, s)
                if swept is None:
                    break
                count, slope = swept
                self.record(s, count)
                a, b = float(self.low[j]), float(self.high[j])
                if b - a <= 2.0 * _PROBE * _RTOL * max(1.0, abs(s)):
                    break  # the counts alone pin the flip point
                step = 1.0 / slope if slope != 0.0 else math.inf
                if not a < s - step < b:
                    s = 0.5 * (a + b)
                    continue
                s -= step
                w = _RTOL * max(1.0, abs(s))
                if abs(step) <= _NEWTON_STOP * w:
                    self.probes += [p for p in (s - _PROBE * w,
                                                s + _PROBE * w)
                                    if a < p < b]
                    break


def eigenvalues_below(ham: FDHamiltonian, e_max: float) -> list:
    """All eigenvalues below e_max, each bracketed by Sturm counts and
    polished by bisection to 1e-10 max(1, |E|); the bracket's top is
    e_max or, if lower, the Gershgorin upper bound.  Raises
    BisectionNoConverge if 200 passes do not reach that tolerance.

    The bisection's below/above decisions are replayed from monotone
    counts and Newton-located flip points (see ``_Replay``), so far fewer
    rows are swept, and the result is bit for bit the plain bisection's.
    """
    require_finite(("e_max", e_max))
    rows = _rows(ham)
    k = _counts(rows, [float(e_max)])[0]
    if k == 0:
        return []
    if np.ndim(ham.off) == 0:
        # Gershgorin bounds, whatever the sign of the off-diagonal
        lo0 = float(np.min(ham.diag)) - 2.0 * abs(ham.off)
        top = float(np.max(ham.diag)) + 2.0 * abs(ham.off)
    else:
        # row-wise Gershgorin bounds: on a graded mesh min(diag) + 2 min(off)
        # would sit near -1/h_0^2 and cost dozens of extra passes
        a = np.abs(ham.off)
        lo0 = float(np.min(ham.diag - np.append(0.0, a)
                           - np.append(a, 0.0)))
        top = float(np.max(ham.diag + np.append(0.0, a)
                           + np.append(a, 0.0)))
    # no eigenvalue lies above the upper bound, so a larger e_max would
    # only add passes (at 1e300, more than the 200 allowed)
    top = min(float(e_max), top)
    lo = np.full(k, lo0)
    hi = np.full(k, top)
    replay = _Replay(rows, k, top)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = replay.below(mid)
        hi = np.where(below, mid, hi)
        lo = np.where(below, lo, mid)
        if np.all(hi - lo <= _RTOL * np.maximum(1.0, np.abs(mid))):
            return [float(v) for v in 0.5 * (lo + hi)]
    raise BisectionNoConverge(
        f"bisection of {k} eigenvalues in [{lo0:.6g}, {top:.6g}] not "
        f"within rtol {_RTOL:g} after 200 passes")


def richardson_eigenvalues(potential, x_lo, x_hi, n, e_max):
    """Raw eigenvalues at n and n/2 plus their h^2 Richardson combination
    (4 E_n - E_{n/2}) / 3, reported for the common low-lying states."""
    fine = eigenvalues_below(fd_hamiltonian(potential, x_lo, x_hi, n), e_max)
    coarse = eigenvalues_below(
        fd_hamiltonian(potential, x_lo, x_hi, n // 2), e_max)
    m = min(len(fine), len(coarse))
    extrap = [(4.0 * fine[i] - coarse[i]) / 3.0 for i in range(m)]
    return fine[:m], coarse[:m], extrap


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
    points, with psi'' computed symbolically; raises SingularPoint where
    V or psi is undefined.  Like ``evaluate``, it lets inf * 0 pass as
    NaN without a warning."""
    psi2 = differentiate(differentiate(psi))
    try:
        pv = evaluate(psi, x)
        d2, v = evaluate(psi2, x), evaluate(potential, x)
    except DomainError as exc:
        raise SingularPoint(str(exc)) from exc
    with np.errstate(over="ignore", invalid="ignore"):
        return -d2 + v * pv - lam * pv


def residual_norm(system, pair=None, n: int = 400) -> float:
    """max over a clamped grid of |residual| / (1 + |lam psi|).

    ``system`` needs ``potential`` (Expr) and ``interval`` attributes;
    ``pair`` is (lam, psi_expr), or None for the only known eigenpair of
    a ``SchrodingerSystem`` (its ``energy`` and ``psi``).
    """
    lam, psi = (system.energy, system.psi) if pair is None else pair
    xs = residual_grid(system.interval, n)
    vals = residual(system.potential, lam, psi, xs)
    scale = 1.0 + np.abs(lam * evaluate(psi, xs))
    return float(np.max(np.abs(vals) / scale))
