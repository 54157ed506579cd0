"""Registered closed-form coefficient fields and the series container.

A nonlinearity is stored through its Taylor coefficients
``V(x, z) = sum_k V_k(x) z^k / k!`` with ``V_0 == 0`` structural.  Coefficient
fields are callables ``(x0, xp) -> complex`` vectorized over broadcastable
inputs; experiment configs pick them from the registry below.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigInvalid

__all__ = ["PotentialSeries", "make_field", "field_from_config"]


class PotentialSeries:
    """Taylor coefficients of the nonlinearity as closed-form callables."""

    def __init__(self, coeffs):
        self.coeffs = dict(coeffs)
        self.kmax = max(self.coeffs, default=0)

    def coeff(self, k):
        fn = self.coeffs.get(k)
        if fn is None:
            return lambda x0, xp: np.zeros(np.broadcast(np.asarray(x0),
                                                        np.asarray(xp)[..., 0]).shape)
        return fn

    def eval_k(self, k, x0, xp):
        return self.coeff(k)(np.asarray(x0), np.asarray(xp))

    def value(self, x0, xp, z):
        """V(x, z) summed through kmax; z may be a complex array."""
        z = np.asarray(z)
        out = np.zeros(np.broadcast(np.asarray(x0), np.asarray(xp)[..., 0], z).shape,
                       dtype=complex)
        fact = 1.0
        for k in range(1, self.kmax + 1):
            fact *= k
            if k in self.coeffs:
                out = out + self.coeffs[k](x0, xp) * z ** k / fact
        return out

    def tilde_value(self, x0, xp, z):
        """V(x,z) - V_1(x) z, the superlinear part."""
        lin = self.eval_k(1, x0, xp) * np.asarray(z) if 1 in self.coeffs else 0.0
        return self.value(x0, xp, z) - lin


# ---------------------------------------------------------------------------
# field registry
# ---------------------------------------------------------------------------

def _smooth_bump(s):
    """C-infinity bump of compact support: 1 at s=0, 0 for |s| >= 1."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    u = np.clip(1.0 - s[inside] ** 2, 1e-300, None)
    out[inside] = np.exp(1.0 - 1.0 / u)
    return out


def make_field(kind, **kw):
    """Closed-form scalar fields on the cylinder.

    kinds:
      constant(value) | gaussian(amp, center, width) |
      trig_gaussian(amp, freq, c0, c1, s1, width, center, support)
          (c0 + c1 cos + s1 sin)(freq x0) * gaussian(x') [* bump taper] |
      poly_x0(coeffs)                      polynomial in x0 only
    Any other kind raises ``ConfigInvalid``.
    """
    if kind == "constant":
        val = complex(kw.get("value", 1.0))
        return lambda x0, xp: val * np.ones(
            np.broadcast(np.asarray(x0), np.asarray(xp)[..., 0]).shape, dtype=type(val))
    if kind == "gaussian":
        amp = kw.get("amp", 1.0)
        center = np.asarray(kw.get("center", (0.5, 0.0, 0.0)), dtype=float)
        width = float(kw.get("width", 0.35))

        def fn(x0, xp):
            xp = np.asarray(xp)
            d2 = (np.asarray(x0) - center[0]) ** 2
            d2 = d2 + np.sum((xp - center[1:1 + xp.shape[-1]]) ** 2, axis=-1)
            return amp * np.exp(-d2 / width ** 2)
        return fn
    if kind == "trig_gaussian":
        # separable: trigonometric profile in x0 times a transversal gaussian
        amp = kw.get("amp", 1.0)
        freq = float(kw.get("freq", 1.5))
        c0 = float(kw.get("c0", 0.0))
        c1 = float(kw.get("c1", 1.0))
        s1 = float(kw.get("s1", 0.0))
        width = float(kw.get("width", 0.5))
        center = np.asarray(kw.get("center", (0.0, 0.0)), dtype=float)

        support = kw.get("support")   # optional compact taper radius

        def fn(x0, xp):
            xp = np.asarray(xp)
            d2 = np.sum((xp - center[:xp.shape[-1]]) ** 2, axis=-1)
            x0a = np.asarray(x0)
            prof = c0 + c1 * np.cos(freq * x0a) + s1 * np.sin(freq * x0a)
            # the point-only factor first: one product with the x0 profile
            trans = np.exp(-d2 / width ** 2)
            if support is not None:
                trans = trans * _smooth_bump(np.sqrt(d2) / float(support))
            return amp * prof * trans
        return fn
    if kind == "poly_x0":
        coeffs = [complex(c) for c in kw.get("coeffs", [1.0])]

        def fn(x0, xp):
            x0 = np.asarray(x0)
            out = np.zeros(np.broadcast(x0, np.asarray(xp)[..., 0]).shape, dtype=complex)
            for j, c in enumerate(coeffs):
                out = out + c * x0 ** j
            return out
        return fn
    raise ConfigInvalid("potential.kind", f"unknown field kind {kind!r}")


def field_from_config(cfg):
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigInvalid("potential", "expected an object with a 'kind'")
    kw = {k: v for k, v in cfg.items() if k != "kind"}
    return make_field(cfg["kind"], **kw)


def series_from_config(cfg):
    """Build a PotentialSeries from ``{"1": {...}, "3": {...}}`` style config."""
    coeffs = {}
    for key, sub in cfg.items():
        try:
            k = int(key)
        except (TypeError, ValueError):
            raise ConfigInvalid("potentials", f"coefficient key {key!r} not an integer")
        if k < 1:
            raise ConfigInvalid("potentials", "coefficient orders start at 1")
        coeffs[k] = field_from_config(sub)
    return PotentialSeries(coeffs)
