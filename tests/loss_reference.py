"""The loss model's formulas in 50-digit ``decimal`` arithmetic: a reference for the float code.

Stdlib only, so a script can use it as well as a test. Each input is the
exact value of its float, so the reference differs from the package only
by the package's own rounding. The caller names the foliage branch: where
the foliage is within a rounding of 14 m deep, the float split and the
exact product can fall on different sides of the edge, and the model steps
there, so the reference evaluates the branch the float split took.
"""

from decimal import Decimal, localcontext


def _power(base: Decimal, exponent: str) -> Decimal:
    return (base.ln() * Decimal(exponent)).exp()


def losses(d_km: float, delta: float, f_mhz: float, regime: str) -> tuple[Decimal, Decimal, Decimal]:
    """Foliage, free-space and total loss in dB on the branch ``regime``: zero, linear or power.

    Foliage: ``0.45 f^0.284 d_f`` (linear) or ``1.33 f^0.284 d_f^0.588``
    (power), ``f`` in GHz and the depth ``d_f = delta d`` in meters. Free
    space: ``32.45 + 20 log10((1 - delta) d_km) + 20 log10(f_mhz)``.
    """
    with localcontext() as context:
        context.prec = 50
        d_km, delta, f_mhz = Decimal(d_km), Decimal(delta), Decimal(f_mhz)
        f_factor = _power(f_mhz / 1000, "0.284")
        d_f_m = delta * d_km * 1000
        if regime == "zero":
            foliage = Decimal(0)
        elif regime == "linear":
            foliage = Decimal("0.45") * f_factor * d_f_m
        else:
            foliage = Decimal("1.33") * f_factor * _power(d_f_m, "0.588")
        free_space = Decimal("32.45") + 20 * ((1 - delta) * d_km).log10() + 20 * f_mhz.log10()
        return foliage, free_space, foliage + free_space
