"""Reference computations the benchmark checks dyadicbump against.

Nothing here imports dyadicbump: each function recomputes a quantity from
its definition, by a route other than the one the package takes.

* ``layer_cake``: integral over t > 0 of F(N(t)) for the distribution
  N(t) = |{leaves >= t}| / m, straight from the sorted leaves.
* ``node_data`` / ``master_log1``: the master Bellman value of one dyadic
  node for the log bump with sigma = 1, from explicit formulas (B2 with
  W(z) = 3 z^(1/3); B1 with the companion's J for sigma = 1/2).
* ``glav_sum``: sum over J of |J| a_J u_J L_J, each L_J summed directly.
* ``sparse_matrix`` / ``testing_ratios``: the sparse operator as a dense
  matrix and the testing ratios ||chi_J T(u chi_J)||^2_{L^2(v)} / u(J).
* ``PowerProfile`` / ``LogPowProfile`` with ``tail_mass``: the tail mass
  W(z) = int_0^z f(y) / y^2 dy, integrated after the substitution
  y = phi(x), x = exp(-l), by composite Gauss-Legendre.
"""

from __future__ import annotations

import math

import numpy as np

# log bump, sigma = 1: eps(t) = t^(-1/4), phi(x) = x^(3/4), f(y) = y^(4/3)
LOG1_SIGMA0 = 0.5            # companion sigma
LOG1_PSI0_AT_1 = 1.5 ** 1.5  # Psi0(1) = (1 + sigma0)^(1 + sigma0)


def layer_cake(leaves, F) -> float:
    """int_0^inf F(N(t)) dt for N(t) = #{leaves >= t} / m (F(0) = 0).

    With the leaves sorted, s_1 <= ... <= s_m, N equals (m - i + 1) / m on
    (s_(i-1), s_i], so the integral is a sum of m steps; tied leaves give
    steps of width zero.
    """
    s = np.sort(np.asarray(leaves, dtype=float))
    m = s.size
    widths = np.diff(np.concatenate(([0.0], s)))
    fracs = (m - np.arange(m)) / m
    return float(np.dot(widths, F(fracs)))


def j_log1(x):
    """J(x) = int_0^x ds / (s Psi0(s)) for the companion log bump with
    sigma0 = 1/2: Psi0(s) = (3/2 + log(1/s))^(3/2) on (0, 1], constant
    beyond, so J(x) = 2 (3/2 + log(1/x))^(-1/2) up to x = 1 and grows like
    log(x) / Psi0(1) after it."""
    x = np.asarray(x, dtype=float)
    xc = np.minimum(x, 1.0)
    inner = (1.0 + LOG1_SIGMA0 + np.log(1.0 / xc)) ** (-LOG1_SIGMA0) \
        / LOG1_SIGMA0
    return inner + np.log(np.maximum(x, 1.0)) / LOG1_PSI0_AT_1


def c1_log1() -> float:
    """C1 = 1 + J(1)."""
    return 1.0 + float(j_log1(1.0))


def c2_log1(delta: float, P: float) -> float:
    """C2 = 1 + P^2 W(P sqrt(delta)) with W(z) = 3 z^(1/3)."""
    return 1.0 + P * P * 3.0 * (P * math.sqrt(delta)) ** (1.0 / 3.0)


def b2_log1(u, v, L, A, C2):
    """B2(u, v, L, A) = C2 u - (L^2 / v) 3 (L / (A + 1))^(1/3)."""
    return C2 * u - L * L / v * 3.0 * (L / (A + 1.0)) ** (1.0 / 3.0)


def node_data(u_leaves, v_leaves, a_levels, level: int, pos: int) -> dict:
    """Averages u_I, v_I and the intensities A_I = (1/|I|) sum_{J in I}
    a_J |J| and L_I = (1/|I|) sum_{J in I} a_J u_J v_J |J| of the node
    I = (level, pos), summed level by level over the subtree."""
    depth = len(a_levels) - 1
    n = u_leaves.size
    A = L = 0.0
    for j in range(level, depth + 1):
        span = 2 ** (j - level)          # descendants of I at level j
        first = pos * span
        a = np.asarray(a_levels[j][first:first + span], dtype=float)
        width = n // 2 ** j
        lo = first * width
        uj = u_leaves[lo:lo + span * width].reshape(span, width).mean(axis=1)
        vj = v_leaves[lo:lo + span * width].reshape(span, width).mean(axis=1)
        A += a.sum() / span
        L += float(np.dot(a, uj * vj)) / span
    width = n // 2 ** level
    leaves = u_leaves[pos * width:(pos + 1) * width]
    return {"u": float(leaves.mean()),
            "v": float(v_leaves[pos * width:(pos + 1) * width].mean()),
            "A": A, "L": L, "leaves": leaves}


def glav_sum(u_leaves, v_leaves, a_levels) -> float:
    """sum over dyadic J of |J| a_J u_J L_J, with every L_J summed over its
    own subtree (no midpoint recursion)."""
    u_leaves = np.asarray(u_leaves, dtype=float)
    v_leaves = np.asarray(v_leaves, dtype=float)
    depth = len(a_levels) - 1
    u_avg = [u_leaves.reshape(2 ** k, -1).mean(axis=1) for k in range(depth + 1)]
    v_avg = [v_leaves.reshape(2 ** k, -1).mean(axis=1) for k in range(depth + 1)]
    b = [np.asarray(a_levels[k], dtype=float) * u_avg[k] * v_avg[k]
         for k in range(depth + 1)]
    total = 0.0
    for k in range(depth + 1):
        L = sum(2.0 ** (k - j) * b[j].reshape(2 ** k, -1).sum(axis=1)
                for j in range(k, depth + 1))
        total += 2.0 ** -k * float(np.dot(np.asarray(a_levels[k]) * u_avg[k], L))
    return total


def master_log1(node: dict, C1: float, C2: float) -> float:
    """curly-B(I) = B2(u, v, L, A) + int_0^inf B1(N(t), A) dt, with
    B1(N, A) = C1 N - N J(N / A)."""
    A = node["A"]
    b1 = layer_cake(node["leaves"], lambda N: C1 * N - N * j_log1(N / A))
    return b2_log1(node["u"], node["v"], node["L"], A, C2) + b1


def sparse_matrix(a_levels) -> np.ndarray:
    """Dense matrix of T f = sum_I a_I <f>_I chi_I acting on leaf values:
    M[x, y] = sum over I containing both leaves of a_I / (leaves in I)."""
    depth = len(a_levels) - 1
    n = 2 ** depth
    M = np.zeros((n, n))
    for k, a in enumerate(a_levels):
        width = n // 2 ** k
        M += np.kron(np.diag(np.asarray(a, dtype=float) / width),
                     np.ones((width, width)))
    return M


def testing_ratios(M: np.ndarray, u, v) -> dict:
    """{(level, pos): ||chi_J T(u chi_J)||^2_{L^2(v)} / u(J)} over every
    dyadic J with u(J) > 0; leaves carry measure 1/n."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    n = u.size
    depth = n.bit_length() - 1
    out = {}
    for k in range(depth + 1):
        width = n // 2 ** k
        for p in range(2 ** k):
            sl = slice(p * width, (p + 1) * width)
            mass = u[sl].sum() / n
            if mass <= 0.0:
                continue
            g = M[sl, sl] @ u[sl]
            out[(k, p)] = float(np.dot(g * g, v[sl]) / n) / mass
    return out


# ---------------------------------------------------------------------------
# Tail mass by substitution
# ---------------------------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(40)
_POWER = 5     # l = l0 / t^_POWER
_PANELS = 8    # equal Gauss-Legendre panels on t in (0, 1]


class PowerProfile:
    """eps(t) = coeff t^(-beta): phi(x) = x^(1 - beta) / coeff."""

    def __init__(self, beta: float, coeff: float = 1.0):
        self.beta, self.coeff = float(beta), float(coeff)

    def ell_of(self, z: float) -> float:
        """l with phi(exp(-l)) = z."""
        return -math.log(self.coeff * z) / (1.0 - self.beta)

    def integrand(self, ell):
        """x^2 phi'(x) / phi(x)^2 at x = exp(-l)."""
        return (1.0 - self.beta) * self.coeff * np.exp(-self.beta * ell)


class LogPowProfile:
    """eps(t) = coeff (log t)^(-kappa): phi(x) = x log(1/x)^kappa / coeff,
    increasing for log(1/x) > kappa."""

    def __init__(self, kappa: float, coeff: float = 1.0):
        self.kappa, self.coeff = float(kappa), float(coeff)

    def phi(self, x):
        x = np.asarray(x, dtype=float)
        return x * np.log(1.0 / x) ** self.kappa / self.coeff

    def ell_of(self, z: float) -> float:
        """Newton on h(l) = l - kappa log(l) + log(coeff z) = 0, l > kappa
        (h is increasing and convex there, so Newton from the right end
        of any bracket converges monotonically)."""
        k = self.kappa
        target = math.log(self.coeff * z)
        ell = max(2.0 * k + 1.0, -target)
        while ell - k * math.log(ell) + target < 0.0:
            ell *= 2.0
        for _ in range(200):
            h = ell - k * math.log(ell) + target
            step = h / (1.0 - k / ell)
            ell -= step
            if abs(step) <= 1e-15 * ell:
                break
        return ell

    def integrand(self, ell):
        """x^2 phi'(x) / phi(x)^2 = coeff (l - kappa) / l^(kappa + 1)."""
        ell = np.asarray(ell, dtype=float)
        return self.coeff * (ell - self.kappa) / ell ** (self.kappa + 1.0)


def tail_mass(profile, z: float) -> float:
    """W(z) = int_0^z f(y) / y^2 dy.

    With y = phi(x) and x = exp(-l), W(z) = int_{l0}^inf x^2 phi'(x) /
    phi(x)^2 dl where phi(exp(-l0)) = z.  The map l = l0 / t^5 sends the
    infinite range to t in (0, 1] and turns an algebraic tail l^(-kappa)
    into a power of t, which composite Gauss-Legendre integrates to
    rounding.
    """
    ell0 = profile.ell_of(z)
    if not ell0 > 0.0:
        raise ValueError("tail_mass oracle needs f(z) < 1")
    total = 0.0
    edges = np.linspace(0.0, 1.0, _PANELS + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        t = 0.5 * (b - a) * _GL_X + 0.5 * (a + b)
        w = 0.5 * (b - a) * _GL_W
        ell = ell0 / t ** _POWER
        total += float(np.dot(w, profile.integrand(ell)
                              * _POWER * ell0 / t ** (_POWER + 1)))
    return total
