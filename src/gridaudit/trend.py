"""Trend deviation: a rolling z-score of a monitored cell's new value
against its recent numeric history.

This is the one part of the control policies that the `trend` command
runs, so it lives apart from controls.py: `trend` compiles this module and
not the policy engine.  controls re-exports TrendRule, TrendVerdict and
trend_deviation.
"""

from __future__ import annotations

from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from math import isfinite
from typing import TYPE_CHECKING

from .grid import CellAddress, Number, record

if TYPE_CHECKING:
    from .ledger import CellSeries


@record
class TrendRule:
    address: CellAddress
    window: int = 20
    z_threshold: float = 3.0
    min_points: int = 5

    def __post_init__(self):
        if self.window < 5:
            raise ValueError("trend window must be >= 5")
        if not (isfinite(self.z_threshold) and self.z_threshold > 0):
            raise ValueError("z threshold must be a finite number > 0")
        if self.min_points < 5:
            raise ValueError("min_points must be >= 5")
        if self.min_points > self.window:
            raise ValueError("min_points must not exceed window")


@record
class TrendVerdict:
    """A trend judgement; mean, stddev and z are Decimals when the values
    did not fit a float (see trend_deviation)."""

    address: CellAddress
    new_value: Decimal
    mean: float | Decimal
    stddev: float | Decimal
    z: float | Decimal
    violated: bool


def trend_deviation(series: "CellSeries", new_value: Decimal, rule: TrendRule) -> TrendVerdict:
    """Judge a new value against up to `window` most recent prior numeric
    points.  Mean and sample standard deviation (n-1) are computed in
    float.  When a value does not fit a float (past ±1.8e308, or so small
    it reads as 0) or a sum overflows one, all three are computed in
    Decimal instead, to 50 significant digits, and the verdict's numbers
    are Decimals.  Too few points: no verdict.  Constant history (stddev
    0): any departure from the constant is a violation, z reported as 0."""
    from statistics import fmean, stdev  # only here: only trend rules need it, and it loads fractions

    prior = [v.value for _, v in series.points if isinstance(v, Number)][-rule.window :]
    values = [*prior, new_value]
    floats = [float(v) for v in values]
    if all(isfinite(f) and (f or not v) for f, v in zip(floats, values)):
        try:
            return _trend_verdict(series.address, new_value, rule, floats[:-1], floats[-1], fmean, stdev)
        except OverflowError:  # a sum in fmean or stdev past the float range
            pass
    with localcontext(_TREND_CONTEXT):
        return _trend_verdict(series.address, new_value, rule, prior, new_value, _decimal_mean, _decimal_stdev)


# wide enough for any snapshot number, its square and their sums
_TREND_CONTEXT = Context(prec=50, Emax=MAX_EMAX, Emin=MIN_EMIN)


def _decimal_mean(values: list[Decimal]) -> Decimal:
    return sum(values, Decimal(0)) / len(values)


def _decimal_stdev(values: list[Decimal]) -> Decimal:
    mean = _decimal_mean(values)
    return (sum(((v - mean) ** 2 for v in values), Decimal(0)) / (len(values) - 1)).sqrt()


def _trend_verdict(
    address: CellAddress, new_value: Decimal, rule: TrendRule, prior: list, new, mean_of, stdev_of
) -> TrendVerdict:
    """trend_deviation's verdict, with prior and new in one number type
    (float or Decimal) and mean_of and stdev_of computing in it."""
    if len(prior) < rule.min_points:
        return TrendVerdict(address, new_value, mean_of(prior) if prior else 0.0, 0.0, 0.0, False)
    mean = mean_of(prior)
    sd = stdev_of(prior)
    if sd > 0:
        z = (new - mean) / sd
        return TrendVerdict(address, new_value, mean, sd, z, abs(z) > rule.z_threshold)
    return TrendVerdict(address, new_value, mean, 0.0, 0.0, new != mean)
