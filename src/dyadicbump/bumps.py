"""Bump functions, their companion decay profiles, and Orlicz norms.

A bump is an increasing convex function Phi on [0, infinity) used to
strengthen L^1 averages to Orlicz (Luxemburg) norms.  Each catalog bump
carries a companion function Psi defined parametrically by

    s = 1 / (Phi(t) Phi'(t)),    Psi(s) = Phi'(t),

a gap function eps measuring how much smaller a weaker bump's Psi is, and
the increasing map phi(x) = x / eps(1/x) whose inverse drives the
four-variable Bellman function.

Catalog closed forms use the log-shifted representative of each
asymptotic class, e.g. Psi(s) = ((1+sigma) + log(1/s))^(1+sigma) for the
log bump, so that Psi stays decreasing and s*Psi(s) increasing on all of
(0, 1]; beyond s = 1 both are frozen at their s = 1 value.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy.integrate import quad

from .dyadic import DyadicIndex, LeafWeight, StepDistribution

BISECT_TOL = 1e-12
BISECT_MAXITER = 200


class DivergentIntegralError(ValueError):
    """A required improper integral diverges for this family."""


# ---------------------------------------------------------------------------
# The gap function eps and the map phi(x) = x / eps(1/x)
# ---------------------------------------------------------------------------

class EpsilonModel:
    """A decay profile eps(t) on [2, infinity) together with everything the
    Bellman construction derives from it: phi, its inverse f, and the tail
    mass W(z) = integral_{1/z}^infinity f(1/x) dx = integral_0^z f(y)/y^2 dy.

    kind "power":  eps(t) = coeff * t**(-beta), 0 < beta < 1
    kind "logpow": eps(t) = coeff * (log t)**(-kappa)
    kind "const":  eps(t) = coeff  (the no-gap case; W diverges)
    kind "custom": eps given as a callable, numerics only
    """

    # the parameters each kind uses, in serialization order
    PARAMS = {"power": ("beta", "coeff"), "logpow": ("kappa", "coeff"),
              "const": ("coeff",), "custom": ()}

    def __init__(self, kind, *, beta=None, kappa=None, coeff=1.0, func=None):
        if kind not in self.PARAMS:
            raise ValueError(f"unknown epsilon kind {kind!r}")
        if kind == "power" and not 0 < beta < 1:
            raise ValueError("power epsilon needs 0 < beta < 1")
        if kind == "logpow" and (kappa is None or kappa <= 0):
            raise ValueError("logpow epsilon needs kappa > 0")
        if kind == "custom" and func is None:
            raise ValueError("custom epsilon needs a callable")
        self.kind = kind
        self.beta = beta
        self.kappa = kappa
        self.coeff = float(coeff)
        self.func = func

    def to_json(self) -> dict:
        """The kind and the parameters that kind uses."""
        return {"kind": self.kind,
                **{k: getattr(self, k) for k in self.PARAMS[self.kind]}}

    def epsilon_model(self) -> "EpsilonModel":
        """The model itself, so that callers taking a family or a model
        can ask either one for its model."""
        return self

    def eps(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "power":
            return self.coeff * t ** (-self.beta)
        if self.kind == "logpow":
            return self.coeff * np.log(t) ** (-self.kappa)
        if self.kind == "const":
            return np.full_like(t, self.coeff)
        return np.asarray(self.func(t), dtype=float)

    # -- phi and its inverse ------------------------------------------------

    @property
    def x_max(self) -> float:
        """Right end of the interval where phi is guaranteed increasing."""
        if self.kind == "logpow":
            # phi(x) = (x/coeff) log(1/x)^kappa increases for log(1/x) > kappa
            return math.exp(-self.kappa - 1.0)
        if self.kind == "custom":
            return math.exp(-2.0)
        return 1.0

    @property
    def z_cap(self) -> float:
        """Largest argument where f = phi^{-1} is available."""
        if self.kind in ("power", "const"):
            return math.inf
        return 0.95 * float(self.phi(self.x_max))

    def phi(self, x):
        """phi(x) = x / eps(1/x), strictly increasing on (0, x_max]."""
        x = np.asarray(x, dtype=float)
        if self.kind == "power":
            return x ** (1.0 - self.beta) / self.coeff
        if self.kind == "logpow":
            xs = np.maximum(x, 1e-300)
            return np.where(x > 0,
                            xs * np.log(1.0 / xs) ** self.kappa / self.coeff,
                            0.0)
        if self.kind == "const":
            return x / self.coeff
        return x / self.eps(1.0 / x)

    def phi_prime(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "power":
            return (1.0 - self.beta) * x ** (-self.beta) / self.coeff
        if self.kind == "logpow":
            ell = np.log(1.0 / x)
            return ell ** (self.kappa - 1.0) * (ell - self.kappa) / self.coeff
        if self.kind == "const":
            return np.ones_like(x) / self.coeff
        h = 1e-6
        return (self.phi(x * (1 + h)) - self.phi(x * (1 - h))) / (2 * h * x)

    def inverse(self, y):
        """f(y) = phi^{-1}(y); closed form for power eps, bisection otherwise."""
        y = np.asarray(y, dtype=float)
        if np.any(y < 0):
            raise ValueError("phi inverse defined for y >= 0 only")
        if self.kind == "power":
            return (self.coeff * y) ** (1.0 / (1.0 - self.beta))
        if self.kind == "const":
            return self.coeff * y
        y_top = float(self.phi(self.x_max))
        if np.any(y > y_top * (1 + 1e-12)):
            raise ValueError(f"y outside range of phi (max {y_top:.3e})")
        scalar = y.ndim == 0
        ys = np.atleast_1d(y)
        # bisect in log x to stay stable down to the underflow horizon
        llo = np.full_like(ys, -700.0)
        lhi = np.full_like(ys, math.log(self.x_max))
        for _ in range(BISECT_MAXITER):
            lmid = 0.5 * (llo + lhi)
            below = self.phi(np.exp(lmid)) < ys
            llo = np.where(below, lmid, llo)
            lhi = np.where(below, lhi, lmid)
            if np.all(lhi - llo <= BISECT_TOL):
                break
        out = np.where(ys == 0.0, 0.0, np.exp(0.5 * (llo + lhi)))
        return float(out[0]) if scalar else out

    def f_prime(self, y):
        """Derivative of f = phi^{-1}: 1 / phi'(f(y))."""
        return 1.0 / self.phi_prime(self.inverse(y))

    def f_second(self, y):
        """Second derivative of f; positive exactly where phi is concave."""
        x = self.inverse(y)
        fp = 1.0 / self.phi_prime(x)
        if self.kind == "power":
            e = 1.0 / (1.0 - self.beta)
            return e * (e - 1.0) * (self.coeff ** e) * np.asarray(y, float) ** (e - 2.0)
        if self.kind == "logpow":
            ell = np.log(1.0 / x)
            # phi'' = -(kappa ell^(kappa-2) / (coeff x)) * (ell - (kappa - 1))
            phi2 = -(self.kappa * ell ** (self.kappa - 2.0) / (self.coeff * x)) \
                * (ell - (self.kappa - 1.0))
            return -phi2 * fp ** 3
        if self.kind == "const":
            return np.zeros_like(np.asarray(y, dtype=float))
        h = 1e-4
        y = np.asarray(y, dtype=float)
        return (self.inverse(y * (1 + h)) - 2 * self.inverse(y)
                + self.inverse(y * (1 - h))) / (h * y) ** 2

    # -- tail mass ------------------------------------------------------------

    def tail_mass(self, z):
        """W(z) = integral_0^z f(y) / y^2 dy, finite iff eps/t is integrable."""
        z = np.asarray(z, dtype=float)
        if self.kind == "power":
            b = self.beta
            return ((1.0 - b) / b) * self.coeff ** (1.0 / (1.0 - b)) \
                * z ** (b / (1.0 - b))
        if self.kind == "const":
            raise DivergentIntegralError(
                "tail mass diverges for constant eps (the no-gap case)")
        if self.kind == "logpow" and self.kappa <= 1:
            raise DivergentIntegralError(
                "tail mass diverges: logpow eps needs kappa > 1")
        # the bisection inverse and the quadrature take one point at a time
        at = self._logpow_tail_mass if self.kind == "logpow" else self.tail_mass_quad
        return np.vectorize(lambda s: at(s) if s > 0 else 0.0, otypes=[float])(z)

    def _logpow_tail_mass(self, z):
        # substitute w = f(y), r = log(1/w):
        # W(z) = coeff * int_R^inf (r - kappa) r^{-kappa-1} dr
        r0 = np.log(1.0 / self.inverse(z))
        k = self.kappa
        return self.coeff * (r0 ** (1.0 - k) / (k - 1.0) - r0 ** (-k))

    def tail_mass_quad(self, z, floor=1e-280):
        """Quadrature evaluation of W(z), used as an independent cross-check."""
        z = float(z)
        if self.kind == "const":
            raise DivergentIntegralError("tail mass diverges for constant eps")
        if z == 0.0:
            return 0.0
        # substitute y = z e^{-r}: W(z) = int_0^inf f(z e^{-r}) e^r / z dr;
        # the integrand decays slowly (like r^{-kappa} for logpow), so
        # integrate piecewise over geometric r-windows and bound the rest
        # by monotonicity of f(y)/y.
        def body(r):
            y = z * math.exp(-r)
            return float(self.inverse(y)) / y if y > floor else 0.0
        total = 0.0
        r_hi = math.log(z / floor)
        edges = [0.0]
        step = 1.0
        while edges[-1] < r_hi:
            edges.append(min(edges[-1] + step, r_hi))
            step *= 2.0
        converged = False
        for a, b in zip(edges[:-1], edges[1:]):
            seg, _ = quad(body, a, b, epsabs=1e-14, epsrel=1e-12, limit=200)
            total += seg
            if seg < 1e-15 * max(total, 1e-300):
                converged = True
                break
        if not converged:
            # power-law tail extrapolation beyond the underflow horizon
            r1, r2 = 0.7 * r_hi, 0.98 * r_hi
            g1, g2 = body(r1), body(r2)
            if g1 > 0 and g2 > 0 and g2 < g1:
                k_eff = -math.log(g2 / g1) / math.log(r2 / r1)
                if k_eff > 1.001:
                    total += body(r_hi) * r_hi / (k_eff - 1.0)
        return total

    def truncated_tail_mass(self, z, y_floor):
        """integral_{y_floor}^z f(y)/y^2 dy, defined even when W diverges."""
        if self.kind == "const":
            return self.coeff * math.log(float(z) / y_floor)
        def body(y):
            return float(self.inverse(y)) / y ** 2
        val, _ = quad(body, y_floor, float(z), epsabs=1e-12, epsrel=1e-10,
                      limit=400)
        return val

    # -- integrability of eps(t)/t -------------------------------------------

    def integral_over_t(self, t0: float = 2.0) -> dict:
        """Verdict and value for integral_{t0}^infinity eps(t)/t dt."""
        if self.kind == "power":
            return {"verdict": "finite",
                    "value": self.coeff * t0 ** (-self.beta) / self.beta}
        if self.kind == "logpow":
            if self.kappa > 1:
                val = self.coeff * math.log(t0) ** (1.0 - self.kappa) / (self.kappa - 1.0)
                return {"verdict": "finite", "value": val}
            return {"verdict": "infinite", "value": None}
        if self.kind == "const":
            return {"verdict": "infinite", "value": None}
        body, _ = quad(lambda t: float(self.eps(t)) / t, t0, 1e8, limit=400)
        return {"verdict": "inconclusive", "value": body}

    def curv_counterpart(self) -> "EpsilonModel":
        """eps_{A0,A}(t) = sqrt(eps(t^2)), the two-exponent normalization."""
        if self.kind == "power":
            return EpsilonModel("power", beta=self.beta,
                                coeff=math.sqrt(self.coeff))
        if self.kind == "logpow":
            return EpsilonModel("logpow", kappa=self.kappa / 2.0,
                                coeff=math.sqrt(self.coeff) * 2.0 ** (-self.kappa / 2.0))
        if self.kind == "const":
            return EpsilonModel("const", coeff=math.sqrt(self.coeff))
        return EpsilonModel("custom",
                            func=lambda t: np.sqrt(self.eps(np.asarray(t) ** 2)))

    def squared(self) -> "EpsilonModel":
        if self.kind == "power":
            b2 = 2 * self.beta
            if b2 >= 1:
                return EpsilonModel("custom", func=lambda t: self.eps(t) ** 2)
            return EpsilonModel("power", beta=b2, coeff=self.coeff ** 2)
        if self.kind == "logpow":
            return EpsilonModel("logpow", kappa=2 * self.kappa,
                                coeff=self.coeff ** 2)
        if self.kind == "const":
            return EpsilonModel("const", coeff=self.coeff ** 2)
        return EpsilonModel("custom", func=lambda t: self.eps(t) ** 2)


# ---------------------------------------------------------------------------
# Bump families
# ---------------------------------------------------------------------------

class BumpFamily:
    """A bump Phi with its companion Psi, gap function eps and weaker twin.

    Tags: "power" (Phi = t^p), "log" (Phi ~ t log^{1+sigma} t),
    "loglog" (Phi ~ t log t (loglog t)^{1+sigma}), "custom" (tabulated Phi).
    """

    # the parameters each tag takes, in serialization order
    PARAMS = {"power": ("p",), "log": ("sigma",), "loglog": ("sigma", "delta"),
              "custom": ("phi_table",)}

    def __init__(self, tag, *, p=None, sigma=None, delta=None, phi_table=None):
        self.tag = tag
        if tag == "power":
            if p is None or p < 1:
                raise ValueError("power bump needs p >= 1")
            self.p = float(p)
        elif tag == "log":
            if sigma is None or sigma <= 0:
                raise ValueError("log bump needs sigma > 0")
            self.sigma = float(sigma)
        elif tag == "loglog":
            if sigma is None or sigma <= 0:
                raise ValueError("loglog bump needs sigma > 0")
            self.sigma = float(sigma)
            self.delta = 0.1 if delta is None else float(delta)
            if not 0 < self.delta < 1:
                raise ValueError("loglog bump needs delta in (0, 1)")
        elif tag == "custom":
            table = np.asarray(phi_table, dtype=float)
            if table.ndim != 2 or table.shape[1] != 2 or table.shape[0] < 4:
                raise ValueError("custom bump needs a (t, Phi) table, >= 4 rows")
            if np.any(np.diff(table[:, 0]) <= 0) or np.any(np.diff(table[:, 1]) <= 0):
                raise ValueError("custom phi table must be strictly increasing")
            self.phi_table = table
        else:
            raise ValueError(f"unknown bump tag {tag!r}")

    def __repr__(self):
        params = "".join(f", {k}={v}" for k, v in self.to_json().items()
                         if k not in ("tag", "phi_table"))
        return f"BumpFamily({self.tag}{params})"

    # -- Phi and Phi' ----------------------------------------------------------

    def phi(self, t):
        t = np.asarray(t, dtype=float)
        if self.tag == "power":
            return t ** self.p
        if self.tag == "log":
            c = 1.0 + self.sigma
            return t * (c + np.log(np.maximum(t, 1.0))) ** c
        if self.tag == "loglog":
            ell = math.e ** (1.0 + self.sigma) + np.log(np.maximum(t, 1.0))
            return t * ell * np.log(ell) ** (1.0 + self.sigma)
        logt = np.log(np.maximum(t, self.phi_table[0, 0]))
        return np.exp(np.interp(logt, np.log(self.phi_table[:, 0]),
                                np.log(self.phi_table[:, 1])))

    def phi_prime(self, t):
        t = np.asarray(t, dtype=float)
        if self.tag == "power":
            return self.p * t ** (self.p - 1.0)
        if self.tag == "log":
            c = 1.0 + self.sigma
            ell = c + np.log(np.maximum(t, 1.0))
            return np.where(t >= 1.0, ell ** (c - 1.0) * (ell + c), c ** c)
        if self.tag == "loglog":
            e0 = math.e ** (1.0 + self.sigma)
            ell = e0 + np.log(np.maximum(t, 1.0))
            lg = np.log(ell)
            base = ell * lg ** (1.0 + self.sigma)
            bump = lg ** (1.0 + self.sigma) + (1.0 + self.sigma) * lg ** self.sigma
            return np.where(t >= 1.0, base + bump, e0 * math.log(e0) ** (1.0 + self.sigma))
        h = 1e-6
        return (self.phi(t * (1 + h)) - self.phi(t * (1 - h))) / (2 * h * t)

    # -- Psi (closed forms; frozen at the s = 1 value beyond 1) ----------------

    def psi(self, s):
        s = np.asarray(s, dtype=float)
        if np.any(s <= 0):
            raise ValueError("Psi is defined for s > 0")
        sc = np.minimum(s, 1.0)
        if self.tag == "power":
            if self.p == 1.0:
                return np.ones_like(s)
            alpha = (self.p - 1.0) / (2.0 * self.p - 1.0)
            return self.p * (self.p * sc) ** (-alpha)
        if self.tag == "log":
            c = 1.0 + self.sigma
            return (c + np.log(1.0 / sc)) ** c
        if self.tag == "loglog":
            ell = math.e ** (1.0 + self.sigma) + np.log(1.0 / sc)
            return ell * np.log(ell) ** (1.0 + self.sigma)
        scalar = s.ndim == 0
        out = np.array([psi_from_phi(self, float(x)) for x in np.atleast_1d(sc)])
        return float(out[0]) if scalar else out

    def j(self, x):
        """J(x) = integral_0^x ds / (s Psi(s)) by closed-form antiderivative
        (quadrature for custom Phi).  Psi is constant beyond s = 1, so J
        grows logarithmically there."""
        x = np.asarray(x, dtype=float)
        if np.any(x < 0):
            raise ValueError("J is defined for x >= 0")
        xc = np.minimum(np.maximum(x, 1e-300), 1.0)
        if self.tag == "power":
            if self.p <= 1.0:
                raise DivergentIntegralError(
                    "J diverges for the linear bump (Psi constant near 0)")
            alpha = (self.p - 1.0) / (2.0 * self.p - 1.0)
            inner = self.p ** (alpha - 1.0) * xc ** alpha / alpha
        elif self.tag == "log":
            k = self.sigma
            inner = ((1.0 + k) + np.log(1.0 / xc)) ** (-k) / k
        elif self.tag == "loglog":
            k = self.sigma
            inner = np.log(math.e ** (1.0 + k) + np.log(1.0 / xc)) ** (-k) / k
        else:
            inner = np.vectorize(self._j_quad)(xc)
        out = np.where(x > 1.0, inner + np.log(np.maximum(x, 1.0))
                       / float(self.psi(1.0)), inner)
        return out if out.ndim else float(out)

    def _j_quad(self, x):
        # custom families only: J with the lower limit floored at s = 1e-12,
        # the omitted piece being below quadrature accuracy whenever the
        # table's Psi grows fast enough for J to be useful at all
        body, _ = quad(lambda r: 1.0 / float(self.psi(math.exp(-r))),
                       math.log(1.0 / x), math.log(1e12), limit=400)
        return body

    def psi_logderiv(self, x):
        """x Psi'(x) / Psi(x), zero on the constant branch x > 1."""
        x = np.asarray(x, dtype=float)
        xc = np.minimum(np.maximum(x, 1e-300), 1.0)
        if self.tag == "power":
            inner = np.full_like(xc, -(self.p - 1.0) / (2.0 * self.p - 1.0))
        elif self.tag == "log":
            k = self.sigma
            inner = -(1.0 + k) / ((1.0 + k) + np.log(1.0 / xc))
        elif self.tag == "loglog":
            k = self.sigma
            big = math.e ** (1.0 + k) + np.log(1.0 / xc)
            inner = -(1.0 + (1.0 + k) / np.log(big)) / big
        else:
            h = 1e-6
            inner = (np.log(self.psi(xc * (1 + h))) -
                     np.log(self.psi(xc * (1 - h)))) / (2 * h)
        out = np.where(x > 1.0, 0.0, inner)
        return out if out.ndim else float(out)

    def psi0(self, s):
        comp = self.companion()
        if comp is None:
            raise ValueError(f"{self!r} has no companion family")
        return comp.psi(s)

    def companion(self):
        """The weaker bump Phi_0 whose Psi_0 <= C Psi eps(Psi)."""
        if self.tag == "log":
            return BumpFamily("log", sigma=self.sigma / 2.0)
        if self.tag == "loglog":
            return BumpFamily("loglog", sigma=self.delta * self.sigma,
                              delta=self.delta)
        return None

    def epsilon_model(self):
        """The gap function between this family and its companion."""
        if self.tag == "log":
            return EpsilonModel("power",
                                beta=self.sigma / (2.0 * (1.0 + self.sigma)))
        if self.tag == "loglog":
            return EpsilonModel("logpow", kappa=(1.0 - self.delta) * self.sigma)
        return None

    def epsilon(self, t):
        model = self.epsilon_model()
        if model is None:
            raise ValueError(f"{self!r} carries no epsilon")
        return model.eps(t)

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        return {"tag": self.tag, **{k: np.asarray(getattr(self, k)).tolist()
                                    for k in self.PARAMS[self.tag]}}

    @classmethod
    def from_json(cls, obj: dict) -> "BumpFamily":
        tag = obj["tag"]  # delta is optional; the other parameters are not
        return cls(tag, **{k: obj.get(k) if k == "delta" else obj[k]
                           for k in cls.PARAMS.get(tag, ())})

    @classmethod
    def load(cls, path) -> "BumpFamily":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


def log_bump(sigma: float) -> BumpFamily:
    return BumpFamily("log", sigma=sigma)


def loglog_bump(sigma: float, delta: float = 0.1) -> BumpFamily:
    return BumpFamily("loglog", sigma=sigma, delta=delta)


def power_bump(p: float) -> BumpFamily:
    return BumpFamily("power", p=p)


# ---------------------------------------------------------------------------
# The parametric construction of Psi and integrability verdicts
# ---------------------------------------------------------------------------

def psi_from_phi(family: BumpFamily, s: float) -> float:
    """Psi(s) for s in the parametric range: the catalog closed form when one
    exists (exact for power tags, same asymptotic class for log tags), the
    parametric solve for tabulated Phi."""
    if s <= 0:
        raise ValueError("s must be positive")
    if family.tag != "custom":
        s_cut = 1.0 / (float(family.phi(1.0)) * float(family.phi_prime(1.0)))
        if s > s_cut * (1 + 1e-12):
            raise ValueError(f"s={s:.3e} outside parametric range (0, {s_cut:.3e}]")
        return float(family.psi(s))
    return psi_parametric(family, s)


def psi_parametric(family: BumpFamily, s: float) -> float:
    """Solve s = 1/(Phi(t) Phi'(t)) for t >= 1 and return Phi'(t)."""
    if s <= 0:
        raise ValueError("s must be positive")
    def h(t):
        return float(family.phi(t)) * float(family.phi_prime(t))
    s_cut = 1.0 / h(1.0)
    if s > s_cut * (1 + 1e-12):
        raise ValueError(f"s={s:.3e} outside parametric range (0, {s_cut:.3e}]")
    target = 1.0 / s
    lo, hi = 1.0, 2.0
    for _ in range(2000):
        if h(hi) >= target:
            break
        lo, hi = hi, hi * 2.0
    else:
        raise ValueError("parametric map failed to bracket (Phi not convex?)")
    if h(lo) > h(hi):
        raise ValueError("parametric map is not monotone for this Phi")
    for _ in range(BISECT_MAXITER):
        mid = math.sqrt(lo * hi)
        if h(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * hi:
            break
    return float(family.phi_prime(math.sqrt(lo * hi)))


def integrability_phi(family: BumpFamily, t_cut: float = 1e6) -> dict:
    """Verdict for integral_1^infinity dt / Phi(t), with a certified analytic
    tail for catalog tags and quadrature on the body."""
    body, _ = quad(lambda t: 1.0 / float(family.phi(t)), 1.0, t_cut, limit=400)
    if family.tag == "power":
        if family.p > 1.0:
            tail = t_cut ** (1.0 - family.p) / (family.p - 1.0)
            return {"verdict": "finite", "value": body + tail, "tail": tail}
        return {"verdict": "infinite", "value": None, "tail": math.inf}
    if family.tag == "log":
        c = 1.0 + family.sigma
        tail = (c + math.log(t_cut)) ** (-family.sigma) / family.sigma
        return {"verdict": "finite", "value": body + tail, "tail": tail}
    if family.tag == "loglog":
        ell = math.e ** (1.0 + family.sigma) + math.log(t_cut)
        tail = math.log(ell) ** (-family.sigma) / family.sigma
        return {"verdict": "finite", "value": body + tail, "tail": tail}
    return {"verdict": "inconclusive", "value": body, "tail": None}


def epsilon_integrability(family_or_model, t0: float = 2.0) -> dict:
    """Verdict for integral^infinity eps(t)/t dt."""
    model = family_or_model.epsilon_model()
    if model is None:
        return {"verdict": "inconclusive", "value": None}
    return model.integral_over_t(t0)


def curv_translate(family_or_model) -> dict:
    """Translate eps into the two-exponent normalization eps_{A0,A}(t) =
    sqrt(eps(t^2)) and compare the integrability requirements: ours is
    integral eps_curv(y)^2 / y dy (equivalently integral eps(t)/t dt), the
    older stopping-time route needs integral eps_curv(y)/y dy."""
    model = family_or_model.epsilon_model()
    if model is None:
        raise ValueError("family carries no epsilon to translate")
    curv = model.curv_counterpart()
    ours = curv.squared().integral_over_t()
    older = curv.integral_over_t()
    if ours["verdict"] == "finite" and older["verdict"] == "infinite":
        regime = "ours-only"
    elif ours["verdict"] == "finite":
        regime = "both"
    elif ours["verdict"] == "infinite":
        regime = "neither"
    else:
        regime = "inconclusive"
    return {"epsilon_curv": curv.to_json(), "integral_ours": ours,
            "integral_curv": older, "regime": regime}


# ---------------------------------------------------------------------------
# Orlicz norms, two ways
# ---------------------------------------------------------------------------

def orlicz_norm_def(w: LeafWeight, index: DyadicIndex, family: BumpFamily,
                    tol: float = BISECT_TOL) -> float:
    """Luxemburg norm inf{lambda : <Phi(w/lambda)>_I <= 1} by bisection."""
    lo_idx, hi_idx = index.leaf_range(w.depth)
    vals = w.values[lo_idx:hi_idx]
    return float(_luxemburg_rows(vals[None, :], family, tol)[0])


def orlicz_norm_def_batch(rows: np.ndarray, family: BumpFamily,
                          tol: float = BISECT_TOL) -> np.ndarray:
    """Luxemburg norms of many step weights at once (rows of a matrix)."""
    return _luxemburg_rows(np.asarray(rows, dtype=float), family, tol)


def _luxemburg_rows(rows, family, tol):
    n_rows = rows.shape[0]
    means = rows.mean(axis=1)
    out = np.zeros(n_rows)
    live = means > 0
    if not np.any(live):
        return out
    sub = rows[live]

    def constraint(lam):
        return family.phi(sub / lam[:, None]).mean(axis=1)

    hi = np.maximum(sub.max(axis=1), means[live])
    for _ in range(200):
        bad = constraint(hi) > 1.0
        if not np.any(bad):
            break
        hi = np.where(bad, hi * 2.0, hi)
    else:
        raise RuntimeError(f"Luxemburg bracket failure (upper); hi={hi}")
    lo = means[live] * 1e-6
    for _ in range(200):
        bad = constraint(lo) <= 1.0
        if not np.any(bad):
            break
        lo = np.where(bad, lo / 4.0, lo)
    else:
        raise RuntimeError(f"Luxemburg bracket failure (lower); lo={lo}")
    for _ in range(BISECT_MAXITER):
        mid = np.sqrt(lo * hi)
        feasible = constraint(mid) <= 1.0
        hi = np.where(feasible, mid, hi)
        lo = np.where(feasible, lo, mid)
        if np.all(hi - lo <= tol * hi):
            break
    out[live] = 0.5 * (lo + hi)
    return out


def orlicz_norm_dist(w: LeafWeight, index: DyadicIndex,
                     family: BumpFamily) -> float:
    """The distribution-function form: sum over steps of N Psi(N) dt."""
    dist = StepDistribution.of(w, index)
    widths, fracs = dist.steps()
    if widths.size == 0:
        return 0.0
    return float(np.dot(widths, fracs * family.psi(fracs)))


def self_improvement_check(w: LeafWeight, index: DyadicIndex,
                           family: BumpFamily,
                           family0: BumpFamily | None = None,
                           bound: float | None = None) -> dict | None:
    """Measure the constant in ||u||_{Phi_0} <= C ||u||_Phi eps(||u||_Phi / <u>),
    with both norms in distribution form.  Returns None on zero average."""
    avg = w.average(index)
    if avg == 0.0:
        return None
    if family0 is None:
        family0 = family.companion()
    model = family.epsilon_model()
    base = orlicz_norm_dist(w, index, family)
    lhs = orlicz_norm_dist(w, index, family0)
    gap = float(model.eps(max(base / avg, 1.0 + 1e-12)))
    rhs_unit = base * gap
    ratio = lhs / rhs_unit
    return {"lhs": lhs, "rhs_unit": rhs_unit, "ratio": ratio,
            "bound": bound, "pass": None if bound is None else ratio <= bound,
            "norm_quotient": base / avg}


def psi_gap_check(family: BumpFamily, bound: float,
                  s_lo: float = 1e-12, n: int = 400) -> dict:
    """Sample Psi_0(s) <= bound * Psi(s) * eps(Psi(s)) on a log-spaced grid."""
    model = family.epsilon_model()
    if model is None:
        raise ValueError(f"{family!r} has no companion/epsilon pair")
    s = np.geomspace(s_lo, 1.0, n)
    psi = family.psi(s)
    rhs = bound * psi * model.eps(np.maximum(psi, 2.0))
    lhs = family.psi0(s)
    worst = float(np.max(lhs / rhs))
    return {"worst_ratio": worst * bound, "pass": bool(np.all(lhs <= rhs)),
            "bound": bound}


def weak_concavity_probe(f, domain: tuple[float, float], trials: int,
                         rng: np.random.Generator, n_max: int = 64) -> dict:
    """Estimate the weak-concavity constant inf f(sum l_j x_j)/sum l_j f(x_j)
    over random convex combinations of up to n_max points of the domain."""
    lo, hi = domain
    if not 0 < lo < hi:
        raise ValueError("domain must satisfy 0 < lo < hi")
    worst = math.inf
    worst_at = None
    for _ in range(trials):
        n = int(rng.integers(2, n_max + 1))
        x = np.exp(rng.uniform(math.log(lo), math.log(hi), size=n))
        lam = rng.dirichlet(np.ones(n))
        fx = np.asarray(f(x), dtype=float)
        if np.any(fx <= 0):
            raise ValueError("probe requires f > 0 on the domain")
        denom = float(np.dot(lam, fx))
        ratio = float(f(float(np.dot(lam, x)))) / denom
        if ratio < worst:
            worst = ratio
            worst_at = (x.tolist(), lam.tolist())
    return {"constant": worst, "witness": worst_at, "trials": trials}
