"""The explicit Bellman functions B1 and B2 and their property sweeps.

B1(N, A) = C N - N * J(N/A) with J(x) = integral_0^x ds/(s Psi0(s)) lives on
the square Omega1 = {0 <= N <= 1, 0 <= A <= 1}; B2(u, v, L, A) =
C u - (L^2/v) W(L/(A+1)) with W(z) = integral_0^z f(y)/y^2 dy, f = phi^{-1},
lives on Omega2 = {uv <= delta, L <= P sqrt(uv), 0 <= A <= 1}.

Structure used throughout: B2 - Cu is 1-homogeneous in (v, L, A+1), so its
3x3 Hessian is singular identically, and its leading 2x2 minor in (v, L)
equals (A+1)^2 g(z) / v^4 where g is the positivity function
g(s) = -f(s)^2 + 2 s^2 f'(s) W(s); concavity of B2 reduces to g >= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bumps import BumpFamily, EpsilonModel, quad
from .dyadic import StepDistribution


class DataIntegrityError(ValueError):
    """Node data violates the exact dyadic dynamics."""


# ---------------------------------------------------------------------------
# Budgets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantBudget:
    """Constants and tolerances shared by the Bellman sweeps.

    c1 and c2 are the additive constants in B1 and B2; c_drop the target in
    the combined drop bound; delta1 the allowed negativity of uv (B2)'_L,
    c_drop / 10 unless given; derivative_floor the factor in
    (B1)'_A >= floor * N / Psi0(N); delta and P cut out Omega2.
    """

    c1: float
    c2: float
    c_drop: float = 0.05
    delta1: float | None = None
    derivative_floor: float = 1.0
    delta: float = 1e-3
    P: float = 100.0

    def __post_init__(self):
        if self.delta1 is None:
            object.__setattr__(self, "delta1", self.c_drop / 10.0)
        if min(self.c1, self.c2, self.c_drop, self.delta1,
               self.derivative_floor, self.delta, self.P) <= 0:
            raise ValueError("all budget entries must be positive")
        if self.delta1 >= self.c_drop:
            raise ValueError("delta1 must stay below c_drop")


def default_budget(family: BumpFamily, c2: float | None = None,
                   **fields) -> ConstantBudget:
    """The budget with the given ConstantBudget fields and C1 = 1 + J(1)
    (so B1 >= 0 on {N <= A}); C2, unless given, = 1 + sup of the B2 tail
    term over Omega2, attained at uv = delta, L = P sqrt(uv), A = 0.  A
    caller that never builds B2 passes c2 = inf: the sup needs the tail
    mass W, which diverges for some families that B1 handles."""
    # c1 and c2 are placeholders until the fields give delta and P
    budget = ConstantBudget(c1=1.0, c2=1.0, **fields)
    c1 = 1.0 + B1(family, C=1.0).j(1.0)
    if c2 is None:
        model = family.b2_model()
        P = budget.P
        c2 = 1.0 + P * P * model.tail_mass(
            min(P * math.sqrt(budget.delta), model.z_cap))
    return replace(budget, c1=float(c1), c2=float(c2))


# ---------------------------------------------------------------------------
# B1
# ---------------------------------------------------------------------------

class B1:
    """B1(N, A) = C N - N J(N/A), J(x) = integral_0^x ds / (s Psi0(s)).

    Psi0 is the companion's closed form (the family itself when it has no
    weaker twin), constant beyond s = 1, so J grows logarithmically there.
    """

    def __init__(self, family: BumpFamily, C: float = 1.0):
        self.family = family
        self.C = float(C)
        self.base = family.companion() or family
        # Psi0 is the base family's Psi; J and Psi0's log-derivative are its own
        self.psi0, self.j = self.base.psi, self.base.j
        self.psi0_logderiv = self.base.psi_logderiv
        self.j(1.0)  # raises DivergentIntegralError where J diverges

    def j_increment_quad(self, x0, x1):
        """Quadrature oracle for J(x1) - J(x0) in r = log(1/s), independent
        of the closed form.  Restricted to a finite window because the
        integrand's tail (for the log and loglog kinds) decays too slowly for
        quadrature to resolve an absolute value of J reliably."""
        if not 0 < x0 <= x1 <= 1:
            raise ValueError("quadrature oracle covers 0 < x0 <= x1 <= 1")
        body, _ = quad(lambda r: 1.0 / self.psi0(np.exp(-r)),
                       math.log(1.0 / x1), math.log(1.0 / x0))
        return body

    def value(self, N, A):
        N = np.asarray(N, dtype=float)
        A = np.asarray(A, dtype=float)
        val = self._formula(N, np.maximum(A, 1e-300))
        # B1 = 0 on N = 0, and B1 -> -inf as A -> 0 with N > 0 held
        out = np.where((N == 0.0) | (A > 0), val, -np.inf)
        return out if out.ndim else float(out)

    def _formula(self, N, A):
        """C N - N J(N/A), which is B1 for A > 0; the callers clamp A to
        at least 1e-300."""
        return self.C * N - N * self.j(N / A)

    def grad(self, N, A):
        """(dB1/dN, dB1/dA); dA = N / (A Psi0(N/A)), dN = C - J(x) - 1/Psi0(x)."""
        N = np.asarray(N, dtype=float)
        A = np.asarray(A, dtype=float)
        x = N / A
        gN = self.C - self.j(x) - 1.0 / self.psi0(x)
        gA = N / (A * self.psi0(x))
        gN = np.where(N == 0.0, self.C - self.j(0.0 * x), gN)
        gA = np.where(N == 0.0, 0.0, gA)
        if gN.ndim == 0:
            return float(gN), float(gA)
        return gN, gA

    def hessian(self, N, A):
        """Analytic Hessian entries (F_NN, F_NA, F_AA); the determinant
        vanishes identically (1-homogeneity of B1 - CN in (N, A))."""
        N = np.asarray(N, dtype=float)
        A = np.asarray(A, dtype=float)
        x = N / A
        # 2 J' + x J'' = J' (1 - x Psi0'/Psi0), J' = 1/(x Psi0)
        core = (1.0 - self.psi0_logderiv(x)) / (x * self.psi0(x))
        f_nn = -core / A
        f_na = core * x / A
        f_aa = -core * x * x / A
        return f_nn, f_na, f_aa

    def integral_over(self, dist: StepDistribution, A: float) -> float:
        """integral_0^infinity B1(N(t), A) dt as a finite sum over steps."""
        widths, fracs = dist.steps()
        if widths.size == 0:
            return 0.0
        if not A > 0:
            # value's mask: -inf on every step with mass, and the fractions
            # do not increase, so some step has mass iff the first one does
            return -math.inf if fracs[0] > 0 else 0.0
        # _formula with the unchecked J: fracs / A is a float array >= 0
        x = fracs / max(A, 1e-300)
        return float(np.dot(widths, self.C * fracs - fracs * self.base._j(x)))


# ---------------------------------------------------------------------------
# B2
# ---------------------------------------------------------------------------

class B2:
    """B2(u, v, L, A) = C u - (L^2 / v) W(L / (A+1))."""

    def __init__(self, model: EpsilonModel, C: float = 1.0):
        self.model = model
        self.C = float(C)

    def value(self, u, v, L, A):
        # W(0) = 0, so the term vanishes with L; tail_mass takes z through
        # numpy, so its power is numpy's for scalar input too
        out = self.C * u - L * L / np.maximum(v, 1e-300) \
            * self.model.tail_mass(L / (A + 1.0))
        return out if out.ndim else float(out)

    def value_quad(self, u, v, L, A):
        """Quadrature cross-check of the tail integral."""
        if L <= 0 or v <= 0:
            return self.C * u
        z = L / (A + 1.0)
        return self.C * u - L * L / v * self.model.tail_mass_quad(z)

    def grad(self, u, v, L, A):
        """(dB2/du, dB2/dv, dB2/dL, dB2/dA), analytic."""
        u, v, L, A = map(lambda t: np.asarray(t, dtype=float), (u, v, L, A))
        z = L / (A + 1.0)
        W = self.model.tail_mass(z)
        fz = self.model.inverse(z)
        du = np.full(np.broadcast(u, v, L, A).shape or (), self.C)
        dv = L * L / (v * v) * W
        dL = -(2.0 * L / v) * W - (A + 1.0) * fz / v
        dA = L / v * fz
        if dv.ndim == 0:
            return float(du), float(dv), float(dL), float(dA)
        return du, dv, dL, dA

    def hessian(self, u, v, L, A) -> np.ndarray:
        """Analytic Hessian of B2 - Cu in the variables (v, L, A): shape
        (3, 3) at one point, (n, 3, 3) for arrays of n points, and each
        matrix of a stack equals its one-point Hessian.

        Singular by 1-homogeneity in (v, L, A+1); the (v, L) minor equals
        (A+1)^2 g(z) / v^4.
        """
        u, v, L, A = np.broadcast_arrays(*(np.asarray(t, dtype=float)
                                           for t in (u, v, L, A)))
        shape = v.shape
        v, L, A = v.ravel(), L.ravel(), A.ravel()
        z = L / (A + 1.0)
        W = self.model.tail_mass(z)
        fz = self.model.inverse(z)
        pos = z > 0
        # f'(z) = 1 / phi'(f(z)), from the f(z) above: no second solve; on
        # z = 0 rows x_max stands in for f(z), inside phi's domain
        fp = np.where(pos, 1.0 / self.model.phi_prime(
            np.where(pos, fz, self.model.x_max)), 0.0)
        h_vv = -2.0 * L * L * W / v ** 3
        h_vL = (2.0 * L * W + (A + 1.0) * fz) / v ** 2
        h_vA = -L * fz / v ** 2
        h_LL = -(2.0 * W + np.divide(2.0 * fz, z, out=np.zeros_like(z),
                                     where=pos) + fp) / v
        h_LA = (fz + z * fp) / v
        h_AA = -z * z * fp / v
        H = np.stack([h_vv, h_vL, h_vA, h_vL, h_LL, h_LA, h_vA, h_LA, h_AA],
                     axis=-1)
        return H.reshape(shape + (3, 3))


def g_function(model: EpsilonModel, s):
    """g(s) = -f(s)^2 + 2 s^2 f'(s) W(s), the concavity margin of B2."""
    s = np.asarray(s, dtype=float)
    f = model.inverse(s)
    fp = model.f_prime(s)
    return -f * f + 2.0 * s * s * fp * model.tail_mass(s)


def g_positivity(model: EpsilonModel, s_range: tuple[float, float],
                 n: int = 200) -> dict:
    """Check g > 0 and g nondecreasing on a log-spaced grid of s_range."""
    lo, hi = s_range
    cap = model.z_cap
    if hi > cap:
        raise ValueError(f"s_range exceeds the range of phi^{{-1}} (max {cap:.3e})")
    s = np.geomspace(lo, hi, n)
    fp = model.f_prime(s)
    fs = model.f_second(s)
    if np.any(fp <= 0) or np.any(fs <= 0):
        raise ValueError("f' or f'' <= 0 on the range: phi^{-1} not strictly "
                         "convex here, g-positivity argument does not apply")
    g = g_function(model, s)
    increasing = bool(np.all(np.diff(g) >= -1e-12 * np.abs(g[1:])))
    return {"s": s, "g": g, "min_g": float(g.min()),
            "positive": bool(np.all(g > 0)), "nondecreasing": increasing,
            "limit_zero": bool(g[0] < 1e-3 * g[-1] + 1e-30)}


# ---------------------------------------------------------------------------
# Sylvester-style NSD verdicts and finite-difference Hessians
# ---------------------------------------------------------------------------

def sylvester_nsd(M: np.ndarray, tol: float = 1e-9) -> dict:
    """Nonpositive-definiteness of each matrix of a stack of symmetric 3x3
    matrices, shape (n, 3, 3), by the largest eigenvalue, with the
    determinant that the singular Sylvester criterion (m11 < 0, leading
    2x2 minor > 0, det = 0) asks to vanish.  Each entry of the result is
    an array over the stack."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 3 or M.shape[1:] != (3, 3):
        raise ValueError("sylvester_nsd expects a stack of 3x3 matrices")
    absmax = np.abs(M).max(axis=(1, 2))
    if not np.isclose(M, M.transpose(0, 2, 1),
                      atol=(tol * (1 + absmax))[:, None, None]).all():
        raise ValueError("sylvester_nsd expects symmetric matrices")
    scale = np.maximum(absmax, 1e-300)
    max_eig = np.linalg.eigvalsh(M).max(axis=1)
    return {"verdict": np.where(max_eig <= tol * scale, "nsd", "not-nsd"),
            "max_eigenvalue": max_eig, "det": np.linalg.det(M)}


def hessian_fd(f, x: np.ndarray, rel_step: float = 1e-4) -> np.ndarray:
    """Symmetric second-difference Hessian with per-coordinate relative steps."""
    x = np.asarray(x, dtype=float)
    n = x.size
    h = rel_step * np.maximum(np.abs(x), 1e-2)
    H = np.empty((n, n))
    f0 = f(x)
    for i in range(n):
        ei = np.zeros(n); ei[i] = h[i]
        H[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / h[i] ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n); ej[j] = h[j]
            mixed = (f(x + ei + ej) - f(x + ei - ej)
                     - f(x - ei + ej) + f(x - ei - ej)) / (4.0 * h[i] * h[j])
            H[i, j] = H[j, i] = mixed
    return H


# ---------------------------------------------------------------------------
# Property sweeps
# ---------------------------------------------------------------------------

def b1_property_check(family: BumpFamily, budget: ConstantBudget,
                      n_n: int = 128, n_a: int = 128,
                      a_min: float = 1e-3) -> dict:
    """Sweep B1 over the triangle {N <= A, A >= a_min}: bound
    0 <= B1 <= C N, derivative floor, and 2x2 Hessian NSD by second
    differences; also map the A -> 0 violation region."""
    b1 = B1(family, budget.c1)
    N = np.linspace(0.0, 1.0, n_n)
    A = np.linspace(a_min, 1.0, n_a)
    NN, AA = np.meshgrid(N, A, indexing="ij")
    mask = NN <= AA
    NN, AA = NN[mask], AA[mask]
    vals = b1.value(NN, AA)
    upper_margin = budget.c1 * NN - vals
    lower_margin = vals.copy()
    pos = NN > 0
    # the N = 0 points, the corner A = 0 among them, are masked out of the
    # derivative and Hessian margins; (1/2, 1) stands in for them there so
    # that x = N/A stays finite
    n_in, a_in = np.where(pos, NN, 0.5), np.where(pos, AA, 1.0)
    gA = b1.grad(n_in, a_in)[1]
    floor = budget.derivative_floor * NN / b1.psi0(np.maximum(NN, 1e-300))
    floor_margin = np.where(pos, gA - floor, np.inf)

    # analytic 2x2 Hessians; second differences are kept as an offline
    # cross-check since their roundoff exceeds the 1e-7 NSD tolerance
    h_nn, h_na, h_aa = b1.hessian(n_in, a_in)
    tr = h_nn + h_aa
    gap = np.sqrt((h_nn - h_aa) ** 2 + 4 * h_na ** 2)
    max_eig = (tr + gap) / 2.0
    scale = np.maximum.reduce([np.abs(h_nn), np.abs(h_aa), np.abs(h_na),
                               np.full_like(h_nn, 1e-12)])
    hess_margin = np.where(pos, 1e-7 * scale - max_eig, np.inf)

    def _worst(margins):
        i = int(np.argmin(margins))
        return {"margin": float(margins[i]), "at": (float(NN[i]), float(AA[i])),
                "pass": bool(margins[i] >= 0.0)}

    # concavity across the seam, stencil-free: midpoint inequality for
    # random segments crossing N = A
    rng = np.random.default_rng(1)
    a_mid = rng.uniform(max(2 * a_min, 0.05), 1.0, 512)
    n_mid = a_mid * rng.uniform(0.9, 1.0, 512)
    dn = rng.uniform(0.0, 0.05, 512)
    da = rng.uniform(0.0, 0.05, 512) * a_mid
    p_val = b1.value(np.minimum(n_mid + dn, 1.0), np.maximum(a_mid - da, a_min))
    q_val = b1.value(np.maximum(n_mid - dn, 0.0), np.minimum(a_mid + da, 1.0))
    m_val = b1.value((np.minimum(n_mid + dn, 1.0) + np.maximum(n_mid - dn, 0.0)) / 2,
                     (np.maximum(a_mid - da, a_min) + np.minimum(a_mid + da, 1.0)) / 2)
    seam_margin = m_val - (p_val + q_val) / 2.0

    # the A -> 0 breakdown: B1 < 0 once J(N/A) > C, i.e. A < N exp(-(C - J(1)) Psi0(1))
    x_star = math.exp((budget.c1 - float(b1.j(1.0))) * float(b1.psi0(1.0)))
    report = {
        "points": int(NN.size),
        "bound_upper": _worst(upper_margin),
        "bound_lower": _worst(lower_margin),
        "derivative_floor": _worst(floor_margin),
        "hessian_nsd": _worst(hess_margin),
        "seam_midpoint_concavity": {"margin": float(seam_margin.min()),
                                    "pass": bool(seam_margin.min() >= -1e-12)},
        "violation_region": {
            "description": "B1 < 0 when A < N / x*, i.e. J(N/A) exceeds C",
            "x_star": x_star,
            "a_boundary_at_N1": 1.0 / x_star,
        },
    }
    report["pass"] = all(report[k]["pass"] for k in
                         ("bound_upper", "bound_lower", "derivative_floor",
                          "hessian_nsd", "seam_midpoint_concavity"))
    return report


def sample_omega2(budget: ConstantBudget, n: int, rng: np.random.Generator,
                  model: EpsilonModel, uv_floor: float = 1e-6) -> np.ndarray:
    """Seeded rejection sample of Omega2; columns (u, v, L, A).  L spans
    [phi(uv)/10, min(P sqrt(uv), z-cap)] log-uniformly so both sides of the
    combined-drop region are populated; ValueError if that slab is empty
    on a grid of the whole sampled uv range, where no point is accepted."""
    cap = model.z_cap
    uv = np.geomspace(uv_floor, min(budget.delta, 1.0), 1025)
    if uv_floor >= budget.delta or not np.any(
            model.phi(uv) / 10.0 < np.minimum(budget.P * np.sqrt(uv), cap)):
        raise ValueError("the L-slab [phi(uv)/10, min(P sqrt(uv), z-cap)] "
                         f"is empty for uv in [{uv_floor:g}, {budget.delta:g}]")
    out = np.empty((n, 4))
    got = 0
    lo = 0.5 * math.log(uv_floor)
    while got < n:
        m = 2 * (n - got) + 16
        u = np.exp(rng.uniform(lo, 0.0, m))
        v = np.exp(rng.uniform(lo, 0.0, m))
        keep = u * v <= budget.delta
        u, v = u[keep], v[keep]
        uv = u * v
        phi_uv = np.asarray(model.phi(uv), dtype=float)
        hi_L = np.minimum(budget.P * np.sqrt(uv), cap)
        ok = phi_uv / 10.0 < hi_L
        u, v, uv, phi_uv, hi_L = u[ok], v[ok], uv[ok], phi_uv[ok], hi_L[ok]
        L = np.exp(rng.uniform(np.log(phi_uv / 10.0), np.log(hi_L)))
        A = rng.uniform(0.0, 1.0, u.size)
        take = min(u.size, n - got)
        out[got:got + take] = np.column_stack([u, v, L, A])[:take]
        got += take
    return out


def b2_property_check(model: EpsilonModel, budget: ConstantBudget,
                      n_points: int = 10000, seed: int = 0) -> dict:
    """Sampled verification of every B2 condition on Omega2."""
    b2 = B2(model, budget.c2)
    rng = np.random.default_rng(seed)
    uv_floor = min(1e-6, 1e-3 * budget.delta)
    pts = sample_omega2(budget, n_points, rng, model=model, uv_floor=uv_floor)
    # adversarial boundary slice: the combined-drop margin is worst at
    # L = phi(uv) with A at its endpoints, so check that edge exactly
    uv_edge = np.geomspace(uv_floor, budget.delta, 128)
    cap = model.z_cap
    edge = []
    for a_edge in (0.0, 1.0):
        for l_edge in (np.asarray(model.phi(uv_edge), dtype=float),
                       np.minimum(budget.P * np.sqrt(uv_edge), cap)):
            edge.append(np.column_stack([np.sqrt(uv_edge), np.sqrt(uv_edge),
                                         l_edge, np.full_like(uv_edge, a_edge)]))
    pts = np.vstack([pts] + edge)
    u, v, L, A = pts.T
    uv = u * v

    vals = b2.value(u, v, L, A)
    du, dv, dL, dA = b2.grad(u, v, L, A)

    # 0 <= B2 <= C u
    upper = budget.c2 * u - vals
    lower = vals
    # (B2)'_A >= 0
    a_monotone = dA
    # combined drop on {L >= phi(uv)}, normalized by uL; the tolerance keeps
    # exact edge points in the region despite last-ulp roundoff in phi(uv)
    combined = dA / (u * L) + v * dL / L
    drop_region = L >= np.asarray(model.phi(uv), dtype=float) * (1.0 - 1e-9)
    combined_inf = float(np.min(combined[drop_region])) if drop_region.any() else math.inf
    # uv (B2)'_L >= -delta1 u L, normalized
    l_term = uv * dL / (u * L)

    # Hessian NSD via the singular Sylvester criterion at a subsample
    idx = rng.choice(n_points, size=min(400, n_points), replace=False)
    H = b2.hessian(u[idx], v[idx], L[idx], A[idx])
    scale = np.maximum(np.abs(H).max(axis=(1, 2)), 1e-300)
    res = sylvester_nsd(H, tol=1e-9)
    worst_eig = float(np.max(res["max_eigenvalue"] / scale))
    dets = res["det"] / scale ** 3
    vv_ok = bool(np.all(H[:, 0, 0] < 0))
    report = {
        "points": int(u.size),
        "bound_upper": {"margin": float(upper.min()), "pass": bool(upper.min() >= 0)},
        "bound_lower": {"margin": float(lower.min()), "pass": bool(lower.min() >= 0)},
        "a_monotone": {"margin": float(a_monotone.min()),
                       "pass": bool(a_monotone.min() >= 0)},
        "combined_drop": {"c": combined_inf, "pass": bool(combined_inf >= budget.c_drop),
                          "region_points": int(drop_region.sum())},
        "l_derivative": {"inf": float(l_term.min()),
                         "pass": bool(l_term.min() >= -budget.delta1)},
        "hessian_nsd": {"max_scaled_eigenvalue": worst_eig,
                        "max_scaled_det": float(np.max(np.abs(dets))),
                        "vv_negative": vv_ok,
                        "pass": bool(worst_eig <= 1e-7
                                     and np.max(np.abs(dets)) <= 1e-6 and vv_ok)},
    }
    report["pass"] = all(report[k]["pass"] for k in
                         ("bound_upper", "bound_lower", "a_monotone",
                          "combined_drop", "l_derivative", "hessian_nsd"))
    return report


# ---------------------------------------------------------------------------
# The auxiliary function T
# ---------------------------------------------------------------------------

#: The constant c in T = c sqrt(uv) - uv/(A+1).  It is T's own, not the
#: budget's P: T'_A = uv/(A+1)^2 and the zero 3x3 determinant (sqrt(uv) is
#: 1-homogeneous) do not depend on c, and the (v, A) determinant
#: (u / (v (A+1)^4)) ((c/2)(A+1) sqrt(uv) - uv) is positive on the relaxed
#: domain uv <= 2 for every c > 2 sqrt(2), so aux_T_check passes for any
#: such c.  c/2 and c/4 are exact in floating point.
T_CONSTANT = 100.0


def t_value(u, v, A):
    """T(u, v, A) = c sqrt(uv) - uv / (A + 1) with c = T_CONSTANT."""
    u, v, A = map(lambda t: np.asarray(t, dtype=float), (u, v, A))
    out = T_CONSTANT * np.sqrt(u * v) - u * v / (A + 1.0)
    return out if out.ndim else float(out)


def t_grad(u, v, A):
    u, v, A = map(lambda t: np.asarray(t, dtype=float), (u, v, A))
    s = np.sqrt(u * v)
    gu = T_CONSTANT / 2 * s / u - v / (A + 1.0)
    gv = T_CONSTANT / 2 * s / v - u / (A + 1.0)
    gA = u * v / (A + 1.0) ** 2
    if gu.ndim == 0:
        return float(gu), float(gv), float(gA)
    return gu, gv, gA


def t_hessian(u, v, A) -> np.ndarray:
    """Analytic Hessian of T in the order (u, v, A): shape (3, 3) at one
    point, (n, 3, 3) for arrays of n points, and each matrix of a stack
    equals its one-point Hessian."""
    u, v, A = np.broadcast_arrays(*(np.asarray(t, dtype=float)
                                    for t in (u, v, A)))
    shape = u.shape
    u, v, A = u.ravel(), v.ravel(), A.ravel()
    s = np.sqrt(u * v)
    a1 = A + 1.0
    a1_sq = a1 ** 2
    h_uu = -(T_CONSTANT / 4) * s / u ** 2
    h_vv = -(T_CONSTANT / 4) * s / v ** 2
    h_uv = T_CONSTANT / 4 / s - 1.0 / a1
    h_uA = v / a1_sq
    h_vA = u / a1_sq
    h_AA = -2.0 * u * v / a1 ** 3
    H = np.stack([h_uu, h_uv, h_uA, h_uv, h_vv, h_vA, h_uA, h_vA, h_AA],
                 axis=-1)
    return H.reshape(shape + (3, 3))


def aux_T_check(n_points: int = 10000, seed: int = 0) -> dict:
    """Random sweep over the relaxed domain {0 <= A <= 1, uv <= 2}:
    T'_A >= uv/4, the (v, A) 2x2 determinant positive, 3x3 determinant 0."""
    rng = np.random.default_rng(seed)
    chunks, got = [], 0
    while got < n_points:
        u = np.exp(rng.uniform(math.log(1e-3), math.log(2.0), 4 * n_points))
        v = np.exp(rng.uniform(math.log(1e-3), math.log(2.0), 4 * n_points))
        A = rng.uniform(0.0, 1.0, 4 * n_points)
        keep = u * v <= 2.0
        chunks.append(np.column_stack([u, v, A])[keep][:n_points - got])
        got += len(chunks[-1])
    u, v, A = np.concatenate(chunks).T

    floor_margin = t_grad(u, v, A)[2] - u * v / 4.0
    # the factored closed form: the Hessian entries' own products round
    # differently in the last bit
    det2 = (u / (v * (A + 1.0) ** 4)) * (
        T_CONSTANT / 2 * (A + 1.0) * np.sqrt(u * v) - u * v)
    H_all = t_hessian(u, v, A)
    t_aa = H_all[:, 2, 2]

    idx = np.random.default_rng(seed + 1).choice(len(u), size=min(500, len(u)),
                                                 replace=False)
    H = H_all[idx]
    det3 = np.abs(np.linalg.det(H)) / np.abs(H).max(axis=(1, 2)) ** 3
    # order (v, A, u) puts a strictly negative entry first for the lemma
    perm = [1, 2, 0]
    nsd_ok = bool(np.all(
        sylvester_nsd(H[:, perm][:, :, perm], tol=1e-8)["verdict"] == "nsd"))
    report = {
        "points": int(len(u)),
        "a_derivative_floor": {"margin": float(floor_margin.min()),
                               "pass": bool(floor_margin.min() >= -1e-15)},
        "det2_positive": {"min": float(det2.min()), "pass": bool(det2.min() > 0)},
        "t_aa_negative": {"max": float(t_aa.max()), "pass": bool(t_aa.max() < 0)},
        "det3_zero": {"max_scaled": float(np.max(det3)),
                      "pass": bool(np.max(det3) <= 1e-9)},
        "sylvester_nsd": {"pass": nsd_ok},
    }
    report["pass"] = all(report[k]["pass"] for k in
                         ("a_derivative_floor", "det2_positive", "t_aa_negative",
                          "det3_zero", "sylvester_nsd"))
    return report


# ---------------------------------------------------------------------------
# The master Bellman function on tree nodes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BellmanNode:
    """Averaged data of one dyadic interval: the Omega2 coordinates plus the
    distribution function of u on the interval."""
    u: float
    v: float
    L: float
    A: float
    dist: StepDistribution


def master_bellman_eval(node: BellmanNode, b1: B1, b2: B2) -> float:
    """curly-B(I) = B2(u, v, L, A) + integral of B1(N(t), A) dt."""
    return float(b2.value(node.u, node.v, node.L, node.A)) \
        + b1.integral_over(node.dist, node.A)


def _check_dynamics(parent: BellmanNode, left: BellmanNode, right: BellmanNode,
                    a: float) -> None:
    def close(x, y, scale):
        return abs(x - y) <= 1e-10 * max(1.0, abs(scale))
    if not close(parent.u, (left.u + right.u) / 2.0, parent.u):
        raise DataIntegrityError("u is not the midpoint of its children")
    if not close(parent.v, (left.v + right.v) / 2.0, parent.v):
        raise DataIntegrityError("v is not the midpoint of its children")
    if not close(parent.A, a + (left.A + right.A) / 2.0, 1.0):
        raise DataIntegrityError("A does not satisfy A = a + (A+ + A-)/2")
    expect_L = a * parent.u * parent.v + (left.L + right.L) / 2.0
    if not close(parent.L, expect_L, max(parent.L, 1.0)):
        raise DataIntegrityError("L does not satisfy its midpoint dynamics")
    mixed = StepDistribution.midpoint_mix(left.dist, right.dist)
    ts = np.concatenate([parent.dist.thresholds, mixed.thresholds])
    for t in np.unique(ts):
        if abs(parent.dist.eval(float(t)) - mixed.eval(float(t))) > 1e-10:
            raise DataIntegrityError("N is not the midpoint mix of its children")


def node_drop_check(parent: BellmanNode, left: BellmanNode, right: BellmanNode,
                    a: float, b1: B1, b2: B2) -> dict:
    """Drop of the master Bellman function across one node split, compared
    with the required multiple of a * u * L."""
    _check_dynamics(parent, left, right, a)
    drop = master_bellman_eval(parent, b1, b2) \
        - (master_bellman_eval(left, b1, b2) + master_bellman_eval(right, b1, b2)) / 2.0
    required = a * parent.u * parent.L
    ratio = drop / required if required > 0 else math.inf
    return {"drop": drop, "required": required, "ratio": ratio,
            "pass": drop >= 0 if required == 0 else ratio > 0}
