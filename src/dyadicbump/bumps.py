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

import math

import numpy as np

from .dyadic import (_NUMBER, DyadicIndex, LeafWeight, _average_pyramid,
                     _check_leaves, _json_values, _step_table)

BISECT_TOL = 1e-12
BISECT_MAXITER = 200
# the largest Phi(1) of a family: it bounds the Luxemburg bracket doublings
PHI_ONE_MAX = 2.0 ** 440
# the most leaf values one grouped Luxemburg bisection holds: of 2^14 to
# 2^17, the fastest size at depths 10-14 that keeps the peak RSS (2^17
# raised it by 4% at depth 14; README)
LEVEL_GROUP = 1 << 16
# The half-width M, relative to a row's root estimate lam^, of the window
# (a, b) = lam^ (1 -+ M) outside which `_certified_bracket` settles the
# bisection's verdicts without Phi: CERTIFY_MARGIN for a window the secant
# measures, PROOF_MARGIN (512 units of 2^-53) for one certified by proof,
# and the most secant steps it takes.
CERTIFY_MARGIN = 1e-12
PROOF_MARGIN = 2.0 ** -44
SECANT_MAXITER = 8
QUAD_NODES = 20
# a quadrature oracle whose error bound exceeds this share of its value is
# flagged uncertified
QUAD_RTOL = 1e-10


class DivergentIntegralError(ValueError):
    """A required improper integral diverges for this family."""


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

# Gauss-Legendre nodes on [-1, 1]: the value's rule, then the embedded one
_GL_NODES = np.concatenate([np.polynomial.legendre.leggauss(n)[0]
                            for n in (QUAD_NODES, QUAD_NODES // 2)])
_GL_WEIGHTS = np.polynomial.legendre.leggauss(QUAD_NODES)[1]
_GL_WEIGHTS_LO = np.polynomial.legendre.leggauss(QUAD_NODES // 2)[1]


def quad(f, a: float, b: float) -> tuple[float, float]:
    """Composite Gauss-Legendre integral of a vectorised f over [a, b].

    [a, b] is cut into equal panels about one unit wide: every caller
    integrates in a log variable.  The QUAD_NODES-node rule gives the
    value; the rule with half the nodes on the same panels gives the error
    estimate, the sum over panels of the two rules' difference, which
    bounds the lower rule's error and so, once the rules converge, the
    value's.  f is called once, on every node of both rules.  Returns
    (value, error).
    """
    panels = max(1, math.ceil(abs(b - a)))
    half = 0.5 * (b - a) / panels
    mids = a + half * (2.0 * np.arange(panels) + 1.0)
    vals = np.asarray(f((mids[:, None] + half * _GL_NODES).ravel()),
                      dtype=float).reshape(panels, -1)
    hi = half * (vals[:, :QUAD_NODES] @ _GL_WEIGHTS)
    lo = half * (vals[:, QUAD_NODES:] @ _GL_WEIGHTS_LO)
    return float(hi.sum()), float(np.abs(hi - lo).sum())


class QuadValue(float):
    """A quadrature value with its error bound (embedded estimate plus the
    bound on what the window leaves out) and whether that bound stays
    within QUAD_RTOL of the value."""

    def __new__(cls, value: float, error: float):
        out = super().__new__(cls, value)
        out.error = float(error)
        out.uncertified = not error <= QUAD_RTOL * abs(value)
        return out


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

    phi^{-1} is closed form for power and const eps; for logpow it is the
    Newton solve `_logpow_ell` in l = log(1/x).
    """

    # the parameters each kind uses, in serialization order
    PARAMS = {"power": ("beta", "coeff"), "logpow": ("kappa", "coeff"),
              "const": ("coeff",)}

    def __init__(self, kind, *, beta=None, kappa=None, coeff=1.0):
        if kind not in self.PARAMS:
            raise ValueError(f"unknown epsilon kind {kind!r}")
        if kind == "power" and (beta is None or not 0 < beta < 1):
            raise ValueError("power epsilon needs 0 < beta < 1")
        if kind == "logpow" and (kappa is None or kappa <= 0):
            raise ValueError("logpow epsilon needs kappa > 0")
        if not coeff > 0:
            raise ValueError("epsilon needs coeff > 0")
        self.kind = kind
        self.beta = beta
        self.kappa = kappa
        self.coeff = float(coeff)

    def to_json(self) -> dict:
        """The kind and the parameters that kind uses."""
        return {"kind": self.kind,
                **{k: getattr(self, k) for k in self.PARAMS[self.kind]}}

    def eps(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "power":
            return self.coeff * t ** (-self.beta)
        if self.kind == "logpow":
            return self.coeff * np.log(t) ** (-self.kappa)
        return np.full_like(t, self.coeff)

    # -- phi and its inverse ------------------------------------------------

    @property
    def x_max(self) -> float:
        """Right end of the interval where phi is guaranteed increasing."""
        if self.kind == "logpow":
            # phi(x) = (x/coeff) log(1/x)^kappa increases for log(1/x) > kappa
            return math.exp(-self.kappa - 1.0)
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
        return x / self.coeff

    def phi_prime(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "power":
            return (1.0 - self.beta) * x ** (-self.beta) / self.coeff
        if self.kind == "logpow":
            ell = np.log(1.0 / x)
            return ell ** (self.kappa - 1.0) * (ell - self.kappa) / self.coeff
        return np.ones_like(x) / self.coeff

    def inverse(self, y):
        """f(y) = phi^{-1}(y): closed form for power and const eps, e^{-l}
        with l from `_logpow_ell` for logpow; f(0) = 0."""
        y = np.asarray(y, dtype=float)
        # array methods, not np.any/np.all: on the scalar calls the module
        # functions' dispatch costs more than the test
        if (y < 0).any():
            raise ValueError("phi inverse defined for y >= 0 only")
        if self.kind == "power":
            return (self.coeff * y) ** (1.0 / (1.0 - self.beta))
        if self.kind == "const":
            return self.coeff * y
        y_top = float(self.phi(self.x_max))
        if (y > y_top * (1 + 1e-12)).any():
            raise ValueError(f"y outside range of phi (max {y_top:.3e})")
        pos = y > 0
        ell = self._logpow_ell(np.log(np.where(pos, y, 1.0)))
        out = np.where(pos, np.exp(-ell), 0.0)
        return float(out) if y.ndim == 0 else out

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
        return np.zeros_like(np.asarray(y, dtype=float))

    def _log_domain(self, log_y):
        """(l, log eps(e^l)) for l = log(1/f(y)), from log y without forming
        y; since phi(x) = x / eps(1/x), f(y) / y = eps(e^l).  Closed form for
        power eps, the Newton solve `_logpow_ell` for logpow; const eps,
        whose W diverges, never comes here."""
        log_y = np.asarray(log_y, dtype=float)
        if self.kind == "power":
            ell = -(math.log(self.coeff) + log_y) / (1.0 - self.beta)
            return ell, math.log(self.coeff) - self.beta * ell
        ell = self._logpow_ell(log_y)
        return ell, math.log(self.coeff) - self.kappa * np.log(ell)

    def _logpow_ell(self, log_y):
        # phi(e^-l) = y  <=>  h(l) = l - kappa log l - T = 0, T = -log(coeff y);
        # h increases and is convex on l > kappa, so Newton from the right of
        # the root descends to it; a step that leaves the bracket bisects.
        # Each point stops at its own step, so its l does not depend on the
        # other points of the batch
        k = self.kappa
        target = -math.log(self.coeff) - log_y
        lo = np.full_like(target, k + 1.0)
        hi = np.maximum(target, k + 1.0)
        for _ in range(BISECT_MAXITER):
            short = hi - k * np.log(hi) < target
            if not short.any():
                break
            hi = np.where(short, 2.0 * hi, hi)
        ell = hi
        live = np.ones(ell.shape, dtype=bool)
        for _ in range(BISECT_MAXITER):
            h = ell - k * np.log(ell) - target
            lo = np.where(h < 0, ell, lo)
            hi = np.where(h < 0, hi, ell)
            new = ell - h / (1.0 - k / ell)
            new = np.where((lo <= new) & (new <= hi), new, 0.5 * (lo + hi))
            moved = np.abs(new - ell) > 1e-15 * ell
            ell = np.where(live, new, ell)
            live &= moved
            if not live.any():
                break
        return ell

    # -- tail mass ------------------------------------------------------------

    def tail_mass(self, z):
        """W(z) = integral_0^z f(y) / y^2 dy, finite iff eps/t is integrable."""
        z = np.asarray(z, dtype=float)
        if self.kind == "power":
            b = self.beta
            return ((1.0 - b) / b) * self.coeff ** (1.0 / (1.0 - b)) \
                * z ** (b / (1.0 - b))
        self._check_tail_mass()
        # one vector solve for every positive point; each point's Newton
        # stops at its own step, so each value is its scalar one
        out = np.zeros_like(z)
        pos = z > 0
        out[pos] = self._logpow_tail_mass(z[pos])
        return out

    def _check_tail_mass(self):
        # W is finite exactly when eps(t)/t is integrable
        if self.integral_over_t()["verdict"] == "infinite":
            raise DivergentIntegralError(
                f"tail mass diverges: eps(t)/t is not integrable ({self.kind})")

    def _logpow_tail_mass(self, z):
        # substitute w = f(y), r = log(1/w):
        # W(z) = coeff * int_R^inf (r - kappa) r^{-kappa-1} dr
        r0 = np.log(1.0 / self.inverse(z))
        k = self.kappa
        return self.coeff * (r0 ** (1.0 - k) / (k - 1.0) - r0 ** (-k))

    def tail_mass_quad(self, z):
        """Quadrature evaluation of W(z): an independent cross-check of the
        closed forms, which it never uses.

        With y = z e^{-r} and r = e^s, W(z) = int_0^inf f(y)/y dr
        = int eps(e^l) r ds, where l = log(1/f(y)) comes from log y =
        log z - r, so y never underflows.  s runs over a finite window in
        unit panels.  The result is a QuadValue whose error adds the
        embedded estimate and bounds on the two pieces the window omits:
        below it at most (f(z)/z) e^{s_lo}, as f(y)/y decreases in r; above
        it at most int_{l_hi}^inf eps(e^l) dl, as r = log z + l +
        log eps(e^l) gives dr/dl <= 1.
        """
        z = float(z)
        self._check_tail_mass()
        if z < 0.0 or (self.kind != "power"
                       and z > float(self.phi(self.x_max)) * (1 + 1e-12)):
            raise ValueError(f"tail mass argument {z:.3e} outside phi's range")
        if z == 0.0:
            return QuadValue(0.0, 0.0)
        log_z, s_lo = math.log(z), -40.0
        if self.kind == "power":
            # eps(e^l) underflows for beta l > 745
            r_hi = 750.0 * (1.0 - self.beta) / self.beta
        else:
            # the omitted piece is about r_hi^(1 - kappa)
            r_hi = math.exp(min(690.0, max(50.0, 40.0 / (self.kappa - 1.0))))
        value, err = quad(
            lambda s: np.exp(self._log_domain(log_z - np.exp(s))[1] + s),
            s_lo, math.log(r_hi))
        ell_hi, log_eps_hi = self._log_domain(log_z - r_hi)
        if self.kind == "power":
            above = math.exp(log_eps_hi) / self.beta
        else:
            above = math.exp(log_eps_hi) * ell_hi / (self.kappa - 1.0)
        below = math.exp(self._log_domain(log_z)[1] + s_lo)
        return QuadValue(value, err + above + below)

    def truncated_tail_mass(self, z, y_floor):
        """integral_{y_floor}^z f(y)/y^2 dy for const eps, whose W diverges:
        f(y) = coeff y, so it is coeff log(z / y_floor)."""
        if self.kind != "const":
            raise ValueError("the truncated tail mass is for const eps only")
        ratio = np.asarray(z, dtype=float) / y_floor
        if (ratio <= 0).any():  # where math.log raises, np.log warns
            raise ValueError("the truncated tail mass needs z / y_floor > 0")
        out = self.coeff * np.log(ratio)
        return float(out) if out.ndim == 0 else out

    # -- integrability of eps(t)/t -------------------------------------------

    def integral_over_t(self) -> dict:
        """Verdict and value for integral_{t0}^infinity eps(t)/t dt, t0 = 2."""
        t0 = 2.0
        if self.kind == "power":
            return {"verdict": "finite",
                    "value": self.coeff * t0 ** (-self.beta) / self.beta}
        if self.kind == "logpow":
            if self.kappa > 1:
                val = self.coeff * math.log(t0) ** (1.0 - self.kappa) / (self.kappa - 1.0)
                return {"verdict": "finite", "value": val}
        return {"verdict": "infinite", "value": None}

    def curv_counterpart(self) -> "EpsilonModel":
        """eps_{A0,A}(t) = sqrt(eps(t^2)), the two-exponent form."""
        if self.kind == "power":
            return EpsilonModel("power", beta=self.beta,
                                coeff=math.sqrt(self.coeff))
        if self.kind == "logpow":
            return EpsilonModel("logpow", kappa=self.kappa / 2.0,
                                coeff=math.sqrt(self.coeff) * 2.0 ** (-self.kappa / 2.0))
        return EpsilonModel("const", coeff=math.sqrt(self.coeff))

    def squared(self) -> "EpsilonModel":
        """eps(t)^2; a power model needs 2 beta < 1 (ValueError otherwise)."""
        if self.kind == "power":
            return EpsilonModel("power", beta=2 * self.beta,
                                coeff=self.coeff ** 2)
        if self.kind == "logpow":
            return EpsilonModel("logpow", kappa=2 * self.kappa,
                                coeff=self.coeff ** 2)
        return EpsilonModel("const", coeff=self.coeff ** 2)


# ---------------------------------------------------------------------------
# Bump families
# ---------------------------------------------------------------------------

class BumpFamily:
    """A bump Phi with its companion Psi, gap function eps and weaker twin.

    Tags: "power" (Phi = t^p), "log" (Phi ~ t log^{1+sigma} t),
    "loglog" (Phi ~ t log t (loglog t)^{1+sigma}); each has closed forms for
    Phi, Phi', Psi, J and x Psi'/Psi.
    """

    # the parameters each tag takes, in serialization order
    PARAMS = {"power": ("p",), "log": ("sigma",), "loglog": ("sigma", "delta")}

    def __init__(self, tag, *, p=None, sigma=None, delta=None):
        self.tag = tag
        self._psi_one = None  # Psi(1), set by the first call to j
        # every check is written so that NaN fails it
        if tag == "power":
            # p <= 512 keeps eps_f under M/12 in `_certified_bracket`
            if p is None or not 1 <= p <= 512:
                raise ValueError("power bump needs 1 <= p <= 512")
            self.p = float(p)
        elif tag in ("log", "loglog"):
            if sigma is None or not sigma > 0:
                raise ValueError(f"{tag} bump needs sigma > 0")
            self.sigma = float(sigma)
        else:
            raise ValueError(f"unknown bump tag {tag!r}")
        if tag == "loglog":
            self.delta = 0.1 if delta is None else float(delta)
            if not 0 < self.delta < 1:
                raise ValueError("loglog bump needs delta in (0, 1)")
        # Phi(1) = 1, c^c, (e c)^c (power, log, loglog; c = 1 + sigma)
        c = 1.0 + getattr(self, "sigma", 0.0)
        log2_phi_one = c * math.log2(c * (math.e if tag == "loglog" else 1.0))
        if not log2_phi_one <= math.log2(PHI_ONE_MAX):
            raise ValueError(f"{tag} bump needs Phi(1) <= 2^440, got "
                             f"2^{log2_phi_one:.1f} at sigma = {sigma}")
        # Phi(t) = Phi(1) t for 0 <= t <= linear_up_to: 1 for the log and
        # loglog bumps, every t for t^1, and 0 for t^p, p > 1
        self.linear_up_to = (1.0 if tag != "power" else
                             math.inf if self.p == 1.0 else 0.0)

    def __repr__(self):
        params = "".join(f", {k}={v}" for k, v in self.to_json().items()
                         if k != "tag")
        return f"BumpFamily({self.tag}{params})"

    # -- Phi and Phi' ----------------------------------------------------------

    def phi(self, t):
        t = np.asarray(t, dtype=float)
        if self.tag == "power":
            return t ** self.p
        if self.tag == "log":
            c = 1.0 + self.sigma
            return t * (c + np.log(np.maximum(t, 1.0))) ** c
        ell = math.e ** (1.0 + self.sigma) + np.log(np.maximum(t, 1.0))
        return t * ell * np.log(ell) ** (1.0 + self.sigma)

    def phi_prime(self, t):
        t = np.asarray(t, dtype=float)
        if self.tag == "power":
            return self.p * t ** (self.p - 1.0)
        if self.tag == "log":
            c = 1.0 + self.sigma
            ell = c + np.log(np.maximum(t, 1.0))
            return np.where(t >= 1.0, ell ** (c - 1.0) * (ell + c), c ** c)
        e0 = math.e ** (1.0 + self.sigma)
        ell = e0 + np.log(np.maximum(t, 1.0))
        lg = np.log(ell)
        base = ell * lg ** (1.0 + self.sigma)
        bump = lg ** (1.0 + self.sigma) + (1.0 + self.sigma) * lg ** self.sigma
        return np.where(t >= 1.0, base + bump, e0 * math.log(e0) ** (1.0 + self.sigma))

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
        ell = math.e ** (1.0 + self.sigma) + np.log(1.0 / sc)
        return ell * np.log(ell) ** (1.0 + self.sigma)

    def j(self, x):
        """J(x) = integral_0^x ds / (s Psi(s)) by closed-form antiderivative.
        Psi is constant beyond s = 1, so J grows logarithmically there."""
        x = np.asarray(x, dtype=float)
        if x.min(initial=0.0) < 0:
            raise ValueError("J is defined for x >= 0")
        return self._j(x)

    def _j(self, x: np.ndarray):
        """j on a float array x >= 0, without j's argument checks."""
        if self._psi_one is None:
            self._psi_one = float(self.psi(1.0))
        xc = x.clip(1e-300, 1.0)
        # zero for x <= 1, so adding it changes nothing there
        beyond = np.log(np.maximum(x, 1.0)) / self._psi_one
        if self.tag == "power":
            if self.p <= 1.0:
                raise DivergentIntegralError(
                    "J diverges for the linear bump (Psi constant near 0)")
            alpha = (self.p - 1.0) / (2.0 * self.p - 1.0)
            inner = self.p ** (alpha - 1.0) * xc ** alpha / alpha
        elif self.tag == "log":
            k = self.sigma
            inner = ((1.0 + k) + np.log(1.0 / xc)) ** (-k) / k
        else:
            k = self.sigma
            inner = np.log(math.e ** (1.0 + k) + np.log(1.0 / xc)) ** (-k) / k
        out = inner + beyond
        return out if out.ndim else float(out)

    def psi_logderiv(self, x):
        """x Psi'(x) / Psi(x), zero on the constant branch x > 1."""
        x = np.asarray(x, dtype=float)
        xc = np.minimum(np.maximum(x, 1e-300), 1.0)
        if self.tag == "power":
            inner = np.full_like(xc, -(self.p - 1.0) / (2.0 * self.p - 1.0))
        elif self.tag == "log":
            k = self.sigma
            inner = -(1.0 + k) / ((1.0 + k) + np.log(1.0 / xc))
        else:
            k = self.sigma
            big = math.e ** (1.0 + k) + np.log(1.0 / xc)
            inner = -(1.0 + (1.0 + k) / np.log(big)) / big
        out = np.where(x > 1.0, 0.0, inner)
        return out if out.ndim else float(out)

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

    def b2_model(self) -> EpsilonModel:
        """The gap function B2 is built on: the family's own, or the power
        model beta = 1/4 for a family that carries none."""
        return self.epsilon_model() or EpsilonModel("power", beta=0.25)

    # -- serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        """The tag and the parameters that tag takes."""
        return {"tag": self.tag,
                **{k: getattr(self, k) for k in self.PARAMS[self.tag]}}

    @classmethod
    def from_json(cls, obj: dict) -> "BumpFamily":
        """Each parameter must be a JSON number, not a bool or a string
        (ValueError otherwise); an absent or null delta takes its default."""
        tag = obj["tag"]  # delta is optional; the other parameters are not
        params = cls.PARAMS.get(tag, ())
        values = {k: obj.get(k) if k == "delta" else obj[k] for k in params}
        _json_values([x for x in values.values() if x is not None], _NUMBER,
                     f"bump tag {tag!r} parameters")
        family = cls(tag, **values)
        unknown = sorted(set(obj) - {"tag", *params})
        if unknown:  # a misspelt optional key would silently take its default
            raise ValueError(f"bump tag {tag!r} takes no {unknown}")
        return family


def log_bump(sigma: float) -> BumpFamily:
    return BumpFamily("log", sigma=sigma)


def loglog_bump(sigma: float, delta: float = 0.1) -> BumpFamily:
    return BumpFamily("loglog", sigma=sigma, delta=delta)


def power_bump(p: float) -> BumpFamily:
    return BumpFamily("power", p=p)


# ---------------------------------------------------------------------------
# Integrability verdicts
# ---------------------------------------------------------------------------

def integrability_phi(family: BumpFamily) -> dict:
    """Verdict for integral_1^infinity dt / Phi(t), with a certified analytic
    tail beyond t_cut = 1e6 and quadrature on the body."""
    t_cut = 1e6
    # in u = log t the body is int e^u / Phi(e^u) du
    body, _ = quad(lambda u: np.exp(u) / family.phi(np.exp(u)), 0.0,
                   math.log(t_cut))
    if family.tag == "power":
        if family.p > 1.0:
            tail = t_cut ** (1.0 - family.p) / (family.p - 1.0)
            return {"verdict": "finite", "value": body + tail, "tail": tail}
        return {"verdict": "infinite", "value": None, "tail": math.inf}
    if family.tag == "log":
        c = 1.0 + family.sigma
        tail = (c + math.log(t_cut)) ** (-family.sigma) / family.sigma
        return {"verdict": "finite", "value": body + tail, "tail": tail}
    ell = math.e ** (1.0 + family.sigma) + math.log(t_cut)
    tail = math.log(ell) ** (-family.sigma) / family.sigma
    return {"verdict": "finite", "value": body + tail, "tail": tail}


def curv_translate(model: EpsilonModel) -> dict:
    """Translate eps into the two-exponent form eps_{A0,A}(t) =
    sqrt(eps(t^2)) and compare the integrability requirements: ours is
    integral eps_curv(y)^2 / y dy (equivalently integral eps(t)/t dt), the
    older stopping-time route needs integral eps_curv(y)/y dy."""
    curv = model.curv_counterpart()
    ours = curv.squared().integral_over_t()
    older = curv.integral_over_t()
    if ours["verdict"] == "finite" and older["verdict"] == "infinite":
        regime = "ours-only"
    elif ours["verdict"] == "finite":
        regime = "both"
    else:
        regime = "neither"
    return {"epsilon_curv": curv.to_json(), "integral_ours": ours,
            "integral_curv": older, "regime": regime}


# ---------------------------------------------------------------------------
# Orlicz norms, two ways
# ---------------------------------------------------------------------------

def orlicz_norm_def(w: LeafWeight, index: DyadicIndex,
                    family: BumpFamily) -> float:
    """Luxemburg norm inf{lambda : <Phi(w/lambda)>_I <= 1} by bisection."""
    lo_idx, hi_idx = index.leaf_range(w.depth)
    return float(_luxemburg([w.values[None, None, lo_idx:hi_idx]],
                            family)[0][0, 0])


def orlicz_norm_def_batch(rows: np.ndarray, family: BumpFamily) -> np.ndarray:
    """Luxemburg norms of many step weights at once, one per row (last
    axis) of a (blocks, rows, n) stack.  A block bisects until all of its
    rows meet BISECT_TOL and then stops, so each block's norms are those of
    a separate call on that block alone."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 3 or not rows.shape[-1]:
        raise ValueError("rows must be a (blocks, rows, n) stack, n >= 1")
    _check_leaves(rows)
    return _luxemburg([rows], family)[0]


def orlicz_norm_levels(values: np.ndarray,
                       family: BumpFamily) -> list[np.ndarray]:
    """Luxemburg norms of every dyadic node of a (blocks, 2**depth) array
    of leaf values: one (blocks, 2**k) array per level k = 0..depth.  Each
    (block, level) pair is one block of `orlicz_norm_def_batch`, with the
    norms of a separate call on it.  The levels share bisections in groups
    of at most LEVEL_GROUP values (at least one level each): for a u, v
    pair, depth <= 11 is one group and depth 12 two (8 + 5 levels)."""
    values = np.ascontiguousarray(values, dtype=float)  # levels are views
    depth = values.shape[-1].bit_length() - 1 if values.ndim == 2 else -1
    if depth < 0 or values.shape[1] != 2 ** depth or not len(values):
        raise ValueError("values must be a (blocks, 2**depth) array")
    _check_leaves(values)
    per = max(1, LEVEL_GROUP // values.size)
    out = []
    for first in range(0, depth + 1, per):
        out += _luxemburg([values.reshape(len(values), 2 ** k, -1) for k in
                           range(first, min(first + per, depth + 1))], family)
    return out


def _luxemburg(stacks, family):
    """Norms of every row of each (blocks, rows, n) stack, one (blocks,
    rows) array per stack, from one bracket-and-bisection loop.  The stacks
    may differ in n: the values of every live row are copied once into one
    flat array, and each stack's row sums keep its (rows, n) layout, so
    every row has the bits of a call on its own stack.  A block that has
    stopped keeps its place: a mask freezes its brackets.  Phi runs only on
    the running rows whose lam is inside the window `_certified_bracket`
    gives them (half-width 2^-44 by proof, 1e-12 by measure), one call per
    stack on their quotients in one reused buffer.

    A row whose largest leaf is outside [2^-64, 2^64] is bisected scaled by
    the power of two that puts that leaf in [1/2, 1), and its norm scaled
    back: every step commutes with it, and a norm that overflows in the
    scaling back is a ValueError.  With n <= 2^24 leaves and Phi(1) <=
    PHI_ONE_MAX, brackets stay in [2^-108, 2^506] (README)."""
    outs, rows, tops, sizes = [], [], [], []
    for stack in stacks:
        top = stack.max(axis=-1)
        ok = top > 0
        outs.append((np.zeros(ok.shape), ok))
        sizes.append(ok.sum(axis=1))  # each block's live rows
        rows.append(stack[ok])
        tops.append(top[ok])
    top, sizes = np.concatenate(tops), np.concatenate(sizes)
    del tops  # each per-row array held past here costs 16 MB at depth 20
    if not top.size:
        return [out for out, _ in outs]
    far = np.flatnonzero((top < 2.0 ** -64) | (top > 2.0 ** 64))
    top[far], shift = np.frexp(top[far])
    layout = [r.shape for r in rows]
    flat = np.concatenate([r.ravel() for r in rows])
    del rows
    views, v = [], 0  # each stack's (rows, n) view of flat
    for r, n in layout:
        views.append(flat[v:v + r * n].reshape(r, n))
        v += r * n
    stack_ends = np.cumsum([r for r, _ in layout])  # last row + 1
    # the quotients w/lam of one stack's rows: a fresh array per Phi pass
    # took 10-40% more time where every row is in doubt (t^p, p > 1)
    buf = np.empty(max(view.size for view in views))

    def constraint(lam, rows):
        """<Phi(w/lam)> of the rows at the sorted indices `rows`, lam
        holding theirs: their quotients lie (k, n) per stack, as in the
        stack's (rows, n) view, so each row sum has the bits of a call on
        its own stack"""
        out, i = np.empty(rows.size), 0
        for view, end, j in zip(views, stack_ends,
                                np.searchsorted(rows, stack_ends)):
            if j > i:
                pick = (slice(None) if j - i == len(view)  # all: no copy
                        else rows[i:j] - (end - len(view)))
                vals = buf[:(j - i) * view.shape[1]].reshape(j - i, -1)
                np.divide(view[pick], lam[i:j, None], out=vals)
                family.phi(vals).sum(axis=1, out=out[i:j])
                out[i:j] /= float(view.shape[1])
            i = j
        return out

    if far.size:  # the far rows times 2^-shift, in place in flat
        e = np.zeros(top.shape, shift.dtype)
        e[far] = -shift
        for view, end in zip(views, stack_ends):
            np.ldexp(view, e[end - len(view):end, None], out=view)
        del e
    # the row means, bit for bit mean()
    mean = np.concatenate([view.sum(axis=1) / float(view.shape[1])
                           for view in views])
    hi = np.maximum(top, mean)
    lo = mean * 1e-6  # infeasible: <Phi(w/lo)> >= Phi(10^6) by Jensen
    phi_one = float(family.phi(1.0))
    a, b = _certified_bracket(constraint, hi, top, mean, phi_one,
                              family.linear_up_to)
    del top, mean

    def feasible(lam, live=None):
        """constraint(lam) <= 1.0, calling Phi only on the rows (of the
        live ones, if given) whose verdict is not certified"""
        doubt = (lam > a) & (lam < b)
        if live is not None:
            doubt &= live
        fits = lam >= b
        rows = doubt.nonzero()[0]
        if rows.size:
            fits[rows] = constraint(lam[rows], rows) <= 1.0
        return fits

    # Phi(t) <= t Phi(1) on [0, 1], so the constraint at hi = 2^k top is at
    # most 2^-k Phi(1): feasible by the last doubling, rows on their own
    for _ in range(math.ceil(math.log2(phi_one)) + 1):
        bad = ~feasible(hi)
        if not bad.any():
            break
        hi = np.where(bad, hi * 2.0, hi)
    # a block stops once all of its rows meet the tolerance; from then on
    # a mask freezes its brackets, so its norms are those of a call on it
    # alone (a block's live rows are consecutive)
    sizes = sizes[sizes > 0]
    starts = np.cumsum(sizes) - sizes
    # each midpoint halves log(hi / lo) to within a few ulp, so no row can
    # meet the tolerance before step `quiet`: the stop test starts there
    quiet = int(min(math.log2(np.log(hi / lo).min() / BISECT_TOL) - 3,
                    BISECT_MAXITER))
    mid = np.empty(hi.shape)
    run = None  # no mask while every block still bisects
    for step in range(BISECT_MAXITER):
        np.sqrt(np.multiply(lo, hi, out=mid), out=mid)
        fits = feasible(mid, run)
        up = fits if run is None else fits & run
        keep = fits if run is None else fits | ~run
        hi, lo = np.where(up, mid, hi), np.where(keep, lo, mid)
        if step < quiet:
            continue
        wide = np.logical_or.reduceat(~(hi - lo <= BISECT_TOL * hi), starts)
        if not wide.any():
            break
        if not wide.all():
            run = np.repeat(wide, sizes)
    norms = 0.5 * (lo + hi)
    with np.errstate(over="ignore"):  # an overflow is raised just below
        norms[far] = np.ldexp(norms[far], shift)
    if np.isinf(norms).any():
        raise ValueError("a Luxemburg norm overflows the float range")
    for (out, ok), part in zip(outs, np.split(norms, stack_ends[:-1])):
        out[ok] = part
    return [out for out, _ in outs]


def _certified_bracket(constraint, hi, top, mean, phi_one, linear_up_to):
    """Per row, a < b with the float verdict F(lam) <= 1 of `constraint`
    known outside (a, b): False for lam <= a, True for lam >= b.  A row it
    cannot certify gets (-inf, inf), so all its verdicts go through Phi.
    `top` and `mean` are each row's largest leaf and mean, and Phi(t) =
    Phi(1) t = phi_one t for 0 <= t <= linear_up_to.

    Why a window (a, b) settles every verdict: C(lam) = <Phi(w/lam)> is
    decreasing, and the float F is within eps_f (relative) of it at every
    lam, so F(lam) > 1 for every lam <= a once (1 - eps_f) C(a) > 1, and
    F(lam) <= 1 for every lam >= b once (1 + eps_f) C(b) <= 1.  The eps_f
    budget, in units of 2^-53: 1 for w/lam, times c = max t Phi'(t)/Phi(t)
    (p for t^p, at most 2 for the log and loglog bumps); a few for Phi's
    own log and products, and up to 1 + sigma for the power in a log or
    loglog bump beyond t = 1; at most 16 + log2 n for numpy's pairwise row
    sum of n nonnegative terms; 1 for the division by n.  Each window is
    lam^ (1 -+ M) about a root estimate lam^, found one of two ways.

    By proof, with no Phi pass, when linear_up_to >= 1, and M =
    PROOF_MARGIN = 2^-44: Phi(t)/t is nondecreasing, so C(lam) >= lam*/lam
    for every lam, where lam* = Phi(1)<w>, with equality once top/lam <=
    linear_up_to.  lam^ = Phi(1) * mean in floats is lam* (1 + d), |d| <=
    delta: 16 + log2 n units for the row sum, and a few for the division
    by n, Phi(1) and the product.  A row with top <= a linear_up_to, a =
    lam^ (1 - M), then has C(a) >= 1/((1 + delta)(1 - M)) and C(lam) =
    lam*/lam <= 1/((1 - delta)(1 + M)) for lam >= b, which settle it once
    M > eps_f + delta.  On the linear piece c = 1, so for n <= 2^24 that
    is at most about 90 units (eps_f 1 + 3 + 40 + 1, delta 40 + 3), and M
    is 512: also below a, where a leaf may pass t = 1 and eps_f gains at
    most 1 + 72 more (c = 2, and the power of a log bump).  The power
    bump t^1 certifies every row so; on [0, 1] alone it would certify
    none, as no row's top is below its mean.  Where linear_up_to = 0 (t^p,
    p > 1) no row passes the test, as every row's top is positive, and the
    secant gets them all.

    By measure, for the rows the proof leaves, with M = CERTIFY_MARGIN =
    1e-12: a secant on g(x) = log F(e^x), x = log lam, from x = log hi
    finds lam^; then a row is certified when F(a) > 1 + M/4 and F(b) <= 1
    - M/4, since (1 - eps_f) C(a) >= F(a) (1 - eps_f)/(1 + eps_f) > 1 once
    M/4 >= 3 eps_f, and the mirror holds at b.  M/4 is 2,252 units; for n
    <= 2^24, eps_f is at most about p + 44 for t^p, p <= 512 (`BumpFamily`),
    and 118 for a log or loglog bump.  Phi(t)/t is nondecreasing, so g has
    slope <= -1: a secant slope is clamped to at most -1, which bounds a
    step by |g|, and each step is clipped to +-1.  The secant stops when
    every |g| <= M/16, which puts lam^ within about M/16 of the root; it
    cannot resolve |g| far below 1e-14, hence the wider M."""
    lam = mean * phi_one
    a = lam * (1.0 - PROOF_MARGIN)
    b = np.multiply(lam, 1.0 + PROOF_MARGIN, out=lam)
    rows = np.flatnonzero(~(top <= a * linear_up_to))  # left to the secant
    hi = hi[rows]
    with np.errstate(all="ignore"):  # a failed row ends up NaN, not raised
        # in place where it can be: at depth 20 a row array is 16 MB
        x = np.log(hi)
        g = np.log(constraint(hi, rows))
        step = np.clip(g, -1.0, 1.0)
        for _ in range(SECANT_MAXITER):
            if not ((g > CERTIFY_MARGIN / 16).any()
                    or (g < -CERTIFY_MARGIN / 16).any()):
                break
            x += step
            g_new = constraint(np.exp(x), rows)
            np.log(g_new, out=g_new)
            g -= g_new
            g /= step  # minus the secant slope; NaN where step was 0
            np.fmax(g, 1.0, out=g)  # fmax takes 1 over NaN
            np.divide(g_new, g, out=step)
            np.clip(step, -1.0, 1.0, out=step)
            g = g_new
        del g, step
        np.exp(x, out=x)
        lo = x * (1.0 - CERTIFY_MARGIN)
        up = np.multiply(x, 1.0 + CERTIFY_MARGIN, out=x)
        doubt = ~(constraint(lo, rows) > 1.0 + CERTIFY_MARGIN / 4)
        doubt |= ~(constraint(up, rows) <= 1.0 - CERTIFY_MARGIN / 4)
    lo[doubt], up[doubt] = -np.inf, np.inf
    a[rows], b[rows] = lo, up
    return a, b


def orlicz_norm_dist(rows: np.ndarray, family: BumpFamily,
                     table=None) -> np.ndarray:
    """The distribution-function form, sum over steps of N Psi(N) dt, of
    each row of a (rows, n) array of leaves: one Psi call over every row's
    steps and one batched dot product per run of rows with the same step
    count; 0.0 for a row with no mass.  `table` is `_step_table(rows)`,
    built here unless the caller has it."""
    if table is None:
        table = _step_table(_leaf_rows(rows))
    fracs, widths, offsets = table[1:]
    terms = fracs * family.psi(fracs)
    steps = np.diff(offsets)
    # rows i:j of m steps each own widths[offsets[i]:offsets[j]] as a
    # (j - i, m) view; a 1 x m by m x 1 matmul is numpy's dot on each
    firsts = np.flatnonzero(np.diff(steps, prepend=-1))
    out = np.zeros(len(steps))
    for i, j in zip(firsts, np.r_[firsts[1:], len(steps)]):
        m = steps[i]
        if m:
            lo, hi = offsets[i], offsets[j]
            out[i:j] = (widths[lo:hi].reshape(-1, 1, m)
                        @ terms[lo:hi].reshape(-1, m, 1)).ravel()
    return out


def self_improvement_check(rows: np.ndarray, family: BumpFamily,
                           norms=None) -> np.ndarray:
    """Measure the constant in ||u||_{Phi_0} <= C ||u||_Phi eps(||u||_Phi / <u>),
    with both norms in distribution form, for each row of a (rows, 2**depth)
    array of leaves: the ratios C of the rows with a positive average, in
    row order.  `norms` are the rows' `orlicz_norm_dist` under the family
    and under its companion, computed here from one step table unless the
    caller has them."""
    rows = _leaf_rows(rows)
    n = rows.shape[1]
    if n & (n - 1):
        raise ValueError(f"rows must have 2**depth leaves, got {n}")
    if norms is None:
        table = _step_table(rows)
        norms = [orlicz_norm_dist(rows, f, table)
                 for f in (family, family.companion())]
    avg = _average_pyramid(rows)[0][:, 0]
    live = avg > 0
    avg = avg[live].tolist()
    model = family.epsilon_model()
    base, lhs = (x[live].tolist() for x in norms)
    # one scalar eps per row: an array call to logpow's pow can differ in
    # the last bit
    return np.array([l / (b * float(model.eps(max(b / a, 1.0 + 1e-12))))
                     for l, b, a in zip(lhs, base, avg)])


def _leaf_rows(rows) -> np.ndarray:
    """rows as a float (rows, n) array, n >= 1, of finite nonnegative
    leaves, else ValueError."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or not rows.shape[1]:
        raise ValueError("rows must be a (rows, n) array, n >= 1")
    _check_leaves(rows)
    return rows


def psi_gap_check(family: BumpFamily, bound: float) -> dict:
    """Sample Psi_0(s) <= bound * Psi(s) * eps(Psi(s)) on 400 log-spaced
    points of [1e-12, 1]."""
    model = family.epsilon_model()
    if model is None:
        raise ValueError(f"{family!r} has no companion/epsilon pair")
    s = np.geomspace(1e-12, 1.0, 400)
    psi = family.psi(s)
    rhs = bound * psi * model.eps(np.maximum(psi, 2.0))
    lhs = family.companion().psi(s)
    worst = float(np.max(lhs / rhs))
    return {"worst_ratio": worst * bound, "pass": bool(np.all(lhs <= rhs)),
            "bound": bound}

