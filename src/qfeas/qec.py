"""Surface-code logical error law and code-size selection.

The logical error per logical operation for a code block of n_c
physical qubits is modeled as

    eps_L(n_c) = A * (eps2/eps_th)^sqrt(n_c) + B * eps_nc * n_c

with prefactors A, B = 1 by default.  The first term is the
exponentially suppressed correctable part (only meaningful below the
threshold eps_th); the second is the non-correctable floor, which grows
with block size and caps the achievable gain.

Code-size selection returns what a scan of every n_c in [1, nc_max]
would return from ``logical_error_rate`` (the first minimum, ties toward
the smaller size; the first size at or below a target), but evaluates
eps_L O(log nc_max) times.  Write s = B * eps_nc.

* With s = 0, eps_L never increases with n_c, so both answers are the
  first size at or below a level, found by bisection.  So too when the
  floor term at nc_max is below half an ulp of the correctable term
  there: no evaluation of eps_L then sees the floor term.
* Otherwise eps_L is convex in n_c.  A bisection finds a size whose
  successor evaluates higher (nc_max if none does), and a window grows
  from there, one size at a time, until each edge is worse than the
  best size inside by more than twice the rounding error of eps_L
  (convexity then rules out every size beyond it), or, on the right,
  until the floor term alone reaches the best value.  The first minimum
  inside the window is the answer, wherever the window starts.  The
  first size at or below a target comes from a bisection with the same
  margin, then a short walk through the sizes inside it.

The margin assumes IEEE-754 doubles and a ``pow`` good to an ulp.  The
window is a few sizes wide in practice; it widens only where eps_L is
flat to within rounding, as when eps_nc is subnormal.

Known, kept behaviour: with eps_nc = 0 the correctable term underflows
to 0.0 at some size, and the first such size counts as the optimum.  So
the floor depends on nc_max: sc-2020 with shor-2048 and eps_nc 0
reports a floor of 5.918804e-317 at nc_max 10^5 and 0.0 at 10^7.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

from .model import Record


class AboveThresholdError(ValueError):
    """eps2 at or above threshold: increasing the code size cannot help."""


class FloorUnreachableError(ValueError):
    """No code size within range reaches the requested logical error."""


class QecCode(Record):
    """Code family parameters and overhead multipliers.

    ``eps_nc`` is the non-correctable error rate per physical qubit per
    logical operation; ``nc_max`` bounds the code sizes considered.
    ``ops_per_logical_gate`` collapses gate synthesis, distillation and
    syndrome cycles into one physical-ops-per-logical-gate multiplier;
    ``factory_overhead`` multiplies the physical qubit count for
    magic-state factories.
    """

    eps_th: float = 0.01
    eps_nc: float = 0.0
    nc_max: int = 10 ** 6
    ops_per_logical_gate: int | float = 10 ** 4
    factory_overhead: int | float = 10
    correctable_prefactor: float = 1.0
    floor_prefactor: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.eps_th < 1.0:
            raise ValueError(f"eps_th must lie in (0, 1), got {self.eps_th!r}")
        if not self.eps_nc >= 0:
            raise ValueError(f"eps_nc must be >= 0, got {self.eps_nc!r}")
        if not (isinstance(self.nc_max, int) and self.nc_max >= 1):
            raise ValueError(f"nc_max must be an integer >= 1, got {self.nc_max!r}")
        if self.nc_max > sys.float_info.max:  # code-size selection takes its sqrt
            raise ValueError("nc_max must be at most the float range (about 1.8e308)")
        if not self.ops_per_logical_gate >= 1:
            raise ValueError("ops_per_logical_gate must be >= 1")
        if not self.factory_overhead >= 1:
            raise ValueError("factory_overhead must be >= 1")
        if not self.correctable_prefactor > 0:
            raise ValueError("correctable_prefactor must be positive")
        if not self.floor_prefactor > 0:
            raise ValueError("floor_prefactor must be positive")


class CodeOptimum(NamedTuple):
    n_c: int
    eps_l: float


class FloorValue(float):
    """error_floor result; ``nc_limited`` is True when the minimum sits at
    nc_max itself, so a larger nc_max could do better."""

    nc_limited: bool

    def __new__(cls, value: float, nc_limited: bool) -> "FloorValue":
        obj = super().__new__(cls, value)
        obj.nc_limited = nc_limited
        return obj


def logical_error_rate(eps2: float, code: QecCode, n_c: int) -> float:
    """eps_L for one block: correctable term plus non-correctable floor."""
    if not eps2 >= 0:
        raise ValueError(f"eps2 must be >= 0, got {eps2!r}")
    if n_c < 1:
        raise ValueError(f"n_c must be >= 1, got {n_c!r}")
    # The floor term is (floor_prefactor * eps_nc) * n_c: code-size
    # selection reads that first product as the floor's slope.
    return _correctable(eps2, code, n_c) + code.floor_prefactor * code.eps_nc * n_c


def _correctable(eps2: float, code: QecCode, n_c: int) -> float:
    return code.correctable_prefactor * (eps2 / code.eps_th) ** math.sqrt(n_c)


def _check_below_threshold(eps2: float, code: QecCode) -> None:
    if not eps2 >= 0:
        raise ValueError(f"eps2 must be >= 0, got {eps2!r}")
    if eps2 >= code.eps_th:
        raise AboveThresholdError(
            f"eps2={eps2!r} is at or above the threshold {code.eps_th!r}; "
            "error correction gains nothing from larger codes")


def _bisect(lo: int, hi: int, holds: Callable[[int], bool]) -> int:
    """A size in (lo, hi] where ``holds`` turns true (``holds(hi)`` is
    assumed, not asked); the first one if it never turns back."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _first_at_or_below(eps2: float, code: QecCode, level: float,
                       cutoff: float, n_c: int) -> CodeOptimum:
    """First size whose eps_L is at or below ``level``, given a size
    ``n_c`` at or below it.

    Bisects for the first size at or below ``cutoff >= level``, then
    walks up to ``level``.  Exact when eps_L never increases up to n_c
    (``cutoff == level``), or when it is convex and ``cutoff - level`` is
    at least twice its rounding error: the size just below the bisection
    point is then above the cutoff, so every smaller size is above the
    level.
    """
    n_c = _bisect(0, n_c, lambda k: logical_error_rate(eps2, code, k) <= cutoff)
    value = logical_error_rate(eps2, code, n_c)
    while not value <= level:
        n_c += 1
        value = logical_error_rate(eps2, code, n_c)
    return CodeOptimum(n_c, value)


def _rounding_margin(eps2: float, code: QecCode) -> Callable[[float], float]:
    """``level -> margin``: twice a bound on how far logical_error_rate,
    near ``level``, can sit from the real-valued law.

    Each operation is good to half an ulp and ``pow`` to one, but
    rounding sqrt(n_c) moves the power by |ln r| sqrt(n_c) half-ulps (at
    most ~745 + ln A before it underflows), and a subnormal power is off
    by up to A smallest subnormals.  The bound is doubled for safety.
    """
    ratio = eps2 / code.eps_th
    a = code.correctable_prefactor
    spread = 0.0 if ratio == 0.0 else min(
        -math.log(ratio) * math.sqrt(code.nc_max), 745.0 + max(0.0, math.log(a)))
    relative, absolute = 2.0 * (8.0 + spread) * 2.0 ** -52, 2.0 * (a + 2.0) * 5e-324
    return lambda level: relative * level + absolute


def _floor_slope(eps2: float, code: QecCode) -> float:
    """B * eps_nc, or 0.0 when no evaluation of eps_L sees the floor term:
    the floor term at nc_max is below half an ulp of the correctable term
    there (strictly, as a tie can round up), and at smaller sizes the one
    only shrinks and the other only grows."""
    slope = code.floor_prefactor * code.eps_nc
    if 2.0 * (slope * code.nc_max) < math.ulp(_correctable(eps2, code, code.nc_max)):
        return 0.0
    return slope


def _convex_minimum(eps2: float, code: QecCode, slope: float) -> CodeOptimum:
    """First minimum of eps_L when its floor term is positive."""
    # a size whose successor evaluates higher, or nc_max
    start = _bisect(0, code.nc_max, lambda n: logical_error_rate(eps2, code, n + 1)
                    > logical_error_rate(eps2, code, n))
    best = CodeOptimum(start, logical_error_rate(eps2, code, start))
    margin = _rounding_margin(eps2, code)

    for step in (-1, 1):  # widen the window leftward, then rightward
        n_c = start
        while 1 <= n_c + step <= code.nc_max:
            n_c += step
            if step > 0 and slope * n_c >= best.eps_l:
                break  # the floor term alone is no better from here on
            value = logical_error_rate(eps2, code, n_c)
            if value > best.eps_l + margin(best.eps_l):
                break
            # a tie goes to the smaller size, which only the leftward walk meets
            if value < best.eps_l or (step < 0 and value == best.eps_l):
                best = CodeOptimum(n_c, value)
    return best


def optimal_code_size(eps2: float, code: QecCode) -> CodeOptimum:
    """Block size in [1, nc_max] minimizing eps_L, ties toward smaller.

    Returns what an exhaustive scan of logical_error_rate would, from
    O(log nc_max) evaluations (see the module docstring).
    """
    _check_below_threshold(eps2, code)
    first = logical_error_rate(eps2, code, 1)
    if not first < math.inf:
        # An infinite prefactor or floor slope: no size gets below inf,
        # and nan never wins a comparison.
        return CodeOptimum(1, first)
    slope = _floor_slope(eps2, code)
    if slope > 0.0:
        return _convex_minimum(eps2, code, slope)
    last = logical_error_rate(eps2, code, code.nc_max)
    return _first_at_or_below(eps2, code, last, last, code.nc_max)


def error_floor(eps2: float, code: QecCode) -> FloorValue:
    """Minimum achievable eps_L over code sizes up to nc_max."""
    n_c, eps_l = optimal_code_size(eps2, code)
    return FloorValue(eps_l, nc_limited=(n_c == code.nc_max))


#: Relative slack on the target comparison.  "eps_L <= target" is meant
#: in real arithmetic; one part in 1e12 absorbs float rounding (for
#: example (1/10)^6 evaluates 2 ulp above the decimal 1e-6).
_TARGET_SLACK = 1e-12


def required_code_size(eps2: float, code: QecCode, target_eps_l: float) -> int:
    """Smallest block size whose eps_L is at or below the target.

    Returns what a scan of logical_error_rate from n_c = 1 up would,
    from O(log nc_max) evaluations: below the minimum's size eps_L
    falls (see the module docstring).  Raises
    :class:`FloorUnreachableError` when no n_c in [1, nc_max] reaches
    the target (the non-correctable floor, or nc_max, is in the way)
    and :class:`AboveThresholdError` at or above threshold.
    """
    _check_below_threshold(eps2, code)
    if not target_eps_l >= 0:
        raise ValueError(f"target_eps_l must be >= 0, got {target_eps_l!r}")
    target = target_eps_l * (1.0 + _TARGET_SLACK)
    best = optimal_code_size(eps2, code)
    if not best.eps_l <= target:
        raise FloorUnreachableError(
            f"no code size in [1, {code.nc_max}] reaches eps_L <= {target_eps_l!r} "
            f"at eps2={eps2!r} (floor {best.eps_l:.4g})")
    cutoff = target
    if _floor_slope(eps2, code) > 0.0:
        cutoff += _rounding_margin(eps2, code)(target)
    return _first_at_or_below(eps2, code, target, cutoff, best.n_c).n_c


def physical_resources(n_logical: int, n_c: int, code: QecCode) -> int | float:
    """Total physical qubits: n_logical * n_c * factory_overhead."""
    if n_logical < 1:
        raise ValueError(f"n_logical must be >= 1, got {n_logical!r}")
    if n_c < 1:
        raise ValueError(f"n_c must be >= 1, got {n_c!r}")
    return n_logical * n_c * code.factory_overhead


def logical_runtime(n_logical_ops: int | float, code: QecCode,
                    cycle_time: float) -> float:
    """Seconds to execute the logical ops through the full QEC stack."""
    if n_logical_ops < 0:
        raise ValueError(f"n_logical_ops must be >= 0, got {n_logical_ops!r}")
    if not cycle_time > 0:
        raise ValueError(f"cycle_time must be positive, got {cycle_time!r}")
    return n_logical_ops * code.ops_per_logical_gate * cycle_time
