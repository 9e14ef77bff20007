"""A tour of the bump-function catalog: the families, their companions,
the gap profile eps, and what integrability of eps(t)/t buys.

Run:  python demos/bump_families.py
"""

import numpy as np

from dyadicbump.bumps import (integrability_phi, log_bump, loglog_bump,
                              power_bump, psi_gap_check)
from dyadicbump.bellman import g_function, g_positivity


def main():
    print("Three catalog families and their key verdicts")
    print("=" * 60)
    for fam in (log_bump(1.0), loglog_bump(2.0, 0.1), power_bump(1.5)):
        print(f"\n{fam!r}")
        print(f"  1/Phi integrable:   {integrability_phi(fam)['verdict']}")
        model = fam.epsilon_model()
        if model is not None:
            print(f"  eps(t)/t integrable: "
                  f"{model.integral_over_t()['verdict']}")
            gap = psi_gap_check(fam, bound=4.0)
            print(f"  companion gap Psi0 <= 4 Psi eps(Psi): "
                  f"{'holds' if gap['pass'] else 'fails'}")
        else:
            print("  eps(t)/t and companion gap: n/a (power bumps have no "
                  "eps profile)")

    print("\nThe concavity margin g(s) = -f^2 + 2 s^2 f' W")
    print("=" * 60)
    fam = log_bump(1.0)
    model = fam.epsilon_model()
    s = np.geomspace(1e-6, 1e-1, 7)
    g = g_function(model, s)
    print("for log sigma=1 the gap profile is eps(t) = t^(-1/4) and g is")
    print("exactly 7 s^(8/3):")
    for si, gi in zip(s, g):
        print(f"  s = {si:9.2e}   g = {gi:12.5e}   7 s^(8/3) = "
              f"{7 * si ** (8 / 3):12.5e}")
    rep = g_positivity(model, (1e-6, 1e-1))
    print(f"positive: {rep['positive']}, nondecreasing: "
          f"{rep['nondecreasing']}, vanishes at 0: {rep['limit_zero']}")
    print("\ng > 0 is exactly what makes the flow part of the Bellman")
    print("function concave; it vanishes as s -> 0, so there is no slack")
    print("to absorb a constant gap profile (see the obstruction demo).")


if __name__ == "__main__":
    main()
