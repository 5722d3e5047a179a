"""Sampling distributions for processing times, lead times and yields.

Parameters are validated when a distribution is constructed (i.e. at config
load), never at sample time. Constant draws consume no random numbers; every
stochastic variant consumes exactly one uniform (lognormal: one normal) per
sample so that substream consumption is easy to reason about.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .engine import HashStream


class DistributionError(ValueError):
    """Invalid distribution parameters."""


@dataclass(frozen=True)
class Distribution:
    """Tagged distribution: constant, triangular, lognormal or uniform.

    Lognormal is parameterized by (median, multiplicative scale): a draw is
    ``median * exp(ln(scale) * Z)`` with Z standard normal, so the median is
    the config value and ``scale`` controls spread (scale=1 degenerates to the
    median exactly).
    """

    kind: str
    params: tuple[float, ...]

    def __post_init__(self) -> None:
        p = self.params
        if not all(math.isfinite(x) for x in p):
            raise DistributionError(f"{self.kind} parameters must be finite, got {p}")
        if self.kind == "constant":
            if len(p) != 1:
                raise DistributionError("constant takes exactly one value")
        elif self.kind == "triangular":
            if len(p) != 3:
                raise DistributionError("triangular takes (min, mode, max)")
            lo, mode, hi = p
            if not (lo <= mode <= hi):
                raise DistributionError(
                    f"triangular requires min <= mode <= max, got {p}")
        elif self.kind == "lognormal":
            if len(p) != 2:
                raise DistributionError("lognormal takes (median, scale)")
            median, scale = p
            if median <= 0:
                raise DistributionError(f"lognormal median must be > 0, got {median}")
            if scale < 1:
                raise DistributionError(
                    f"lognormal scale must be >= 1, got {scale}")
        elif self.kind == "uniform":
            if len(p) != 2:
                raise DistributionError("uniform takes (lo, hi)")
            if p[0] > p[1]:
                raise DistributionError(f"uniform requires lo <= hi, got {p}")
        else:
            raise DistributionError(f"unknown distribution kind {self.kind!r}")

    def is_zero(self) -> bool:
        """A constant 0: the step it times is skipped, not sampled."""
        return self.kind == "constant" and self.params[0] == 0.0

    def sample(self, rng: HashStream):
        """Draw one value from a substream (``RngRegistry.derived``).

        Every draw is a Python float. The lognormal uses the C library's
        ``math.exp``, not numpy's exp, which picks a vector kernel by CPU
        feature: on AVX-512 hardware that kernel differs in the last bit on a
        few percent of inputs, so stores would depend on the CPU that wrote
        them.
        """
        kind = self.kind
        if kind == "triangular":  # most draws: the inverse CDF, inline
            lo, mode, hi = self.params
            u = rng.random()  # drawn even when lo == hi
            span = hi - lo
            if span == 0.0:
                return lo
            if u < (mode - lo) / span:
                return lo + math.sqrt(u * span * (mode - lo))
            return hi - math.sqrt((1.0 - u) * span * (hi - mode))
        if kind == "constant":
            return self.params[0]
        if kind == "lognormal":
            median, scale = self.params
            return median * math.exp(math.log(scale) * rng.standard_normal())
        lo, hi = self.params  # uniform
        return lo + (hi - lo) * rng.random()

    def mean(self) -> float:
        """Analytic mean, used by statistical self-checks."""
        p = self.params
        if self.kind == "constant":
            return p[0]
        if self.kind == "triangular":
            return sum(p) / 3.0
        if self.kind == "lognormal":
            median, scale = p
            sigma = math.log(scale)
            return median * math.exp(sigma * sigma / 2.0)
        return (p[0] + p[1]) / 2.0  # uniform

    def variance(self) -> float:
        p = self.params
        if self.kind == "constant":
            return 0.0
        if self.kind == "triangular":
            a, m, b = p
            return (a * a + m * m + b * b - a * m - a * b - m * b) / 18.0
        if self.kind == "lognormal":
            median, scale = p
            s2 = math.log(scale) ** 2
            return (math.exp(s2) - 1.0) * median * median * math.exp(s2)
        return (p[1] - p[0]) ** 2 / 12.0  # uniform

    def scaled(self, factor: float) -> "Distribution":
        """Distribution with every location parameter multiplied by ``factor``."""
        if factor <= 0:
            raise DistributionError(f"scale factor must be > 0, got {factor}")
        if self.kind == "lognormal":
            median, scale = self.params
            return Distribution("lognormal", (median * factor, scale))
        return Distribution(self.kind, tuple(p * factor for p in self.params))

    def support(self) -> tuple[float, float]:
        p = self.params
        if self.kind == "constant":
            return (p[0], p[0])
        if self.kind == "triangular":
            return (p[0], p[2])
        if self.kind == "lognormal":
            return (0.0, math.inf)
        return (p[0], p[1])  # uniform


def constant(v: float) -> Distribution:
    return Distribution("constant", (float(v),))


def triangular(lo: float, mode: float, hi: float) -> Distribution:
    return Distribution("triangular", (float(lo), float(mode), float(hi)))


def lognormal(median: float, scale: float) -> Distribution:
    return Distribution("lognormal", (float(median), float(scale)))


def uniform(lo: float, hi: float) -> Distribution:
    return Distribution("uniform", (float(lo), float(hi)))


def is_number(value) -> bool:
    # the bound also rules out nan, inf and integers too large for a float
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def read_number(value) -> float:
    """A YAML number as a float; config values are read with it as well."""
    if not is_number(value):
        raise DistributionError(f"expected a number, got {value!r}")
    return float(value)


def from_config(node) -> Distribution:
    """Parse a distribution from its config form.

    Accepted forms::

        {constant: 2.0}
        {triangular: [6, 8, 12]}
        {lognormal: {median: 1.5, scale: 1.4}}   # or [median, scale]
        {uniform: [0, 1]}
        3.5                                       # shorthand for constant
    """
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return constant(read_number(node))
    if not isinstance(node, dict) or len(node) != 1:
        raise DistributionError(f"malformed distribution spec: {node!r}")
    kind, args = next(iter(node.items()))
    if kind == "constant":
        return constant(_scalar(args))
    if kind == "triangular":
        a, m, b = _triple(args)
        return triangular(a, m, b)
    if kind == "lognormal":
        if isinstance(args, dict):
            if set(args) != {"median", "scale"}:
                raise DistributionError(
                    f"lognormal takes exactly median and scale, got {list(args)}")
            return lognormal(read_number(args["median"]), read_number(args["scale"]))
        a, b = _pair(args)
        return lognormal(a, b)
    if kind == "uniform":
        a, b = _pair(args)
        return uniform(a, b)
    raise DistributionError(f"unknown distribution kind {kind!r}")


def to_config(dist: Distribution):
    """Inverse of ``from_config``, used when echoing configs into reports."""
    if dist.kind == "constant":
        return {"constant": dist.params[0]}
    if dist.kind == "lognormal":
        return {"lognormal": {"median": dist.params[0], "scale": dist.params[1]}}
    return {dist.kind: list(dist.params)}


def _scalar(args) -> float:
    if isinstance(args, (list, tuple)):
        if len(args) != 1:
            raise DistributionError(f"expected a single value, got {args!r}")
        args = args[0]
    return read_number(args)


def _pair(args) -> tuple[float, float]:
    if not isinstance(args, (list, tuple)) or len(args) != 2:
        raise DistributionError(f"expected [a, b], got {args!r}")
    return read_number(args[0]), read_number(args[1])


def _triple(args) -> tuple[float, float, float]:
    if not isinstance(args, (list, tuple)) or len(args) != 3:
        raise DistributionError(f"expected [min, mode, max], got {args!r}")
    return read_number(args[0]), read_number(args[1]), read_number(args[2])
