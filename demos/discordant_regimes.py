"""Regime map for the discordant two-parameter family under emission.

Three behaviours show up as (w, s) moves around:

  * below the critical coupling the measures only ever decay,
  * above it the trace-norm discord revives after an initial fall,
  * for w > 1/4 it passes exactly through zero at t0 = ln(4 w) / gamma0
    and is reborn on the other side of the crossing.

Run from the repository root:

    PYTHONPATH=src python3 demos/discordant_regimes.py
"""

import numpy as np

from discordlab import FamilyParams
from discordlab.families import find_critical_w, regime, s_max


def main():
    cases = [(0.076, 0.179), (0.2, 0.2), (0.4, 0.2)]
    print("regime flags under emission on the measured atom:")
    print("   w      s     d1 grows  d2 grows  zero crossing (gamma0 t)")
    for w, s in cases:
        r = regime(FamilyParams("discordant", w=w, s=s))
        t0 = "-" if r.t_zero is None else f"{r.t_zero:.6f}"
        print(f"  {w:.3f}  {s:.3f}   {str(r.d1_increases_under_A):5s}     "
              f"{str(r.d2_increases_under_A):5s}     {t0}")
    print(f"\nfor w = 0.4 the crossing sits at ln(1.6) = {np.log(1.6):.6f}:")
    print("the coherence part of the state decays while the population part")
    print("flips sign at 4 w exp(-gamma0 t) = 1, so the curve touches zero")

    wc = find_critical_w("d2")
    print(f"\ncritical coupling for d2 growth:  w_c    = {wc:.12f}")
    print(f"analytic value (2 - sqrt(2)) / 8  =        {(2 - np.sqrt(2)) / 8:.12f}")
    wbar = find_critical_w("d1")
    print(f"critical coupling for d1 growth:  w_bar_c = {wbar:.6f}")
    print("w_bar_c > w_c: there is a window of couplings where the")
    print("Hilbert-Schmidt measure grows but the trace-norm one does not")

    print("\nscan across w at maximal coherence s = s_max(w):")
    print("   w      s_max    d1 grows  d2 grows")
    for w in (0.05, 0.07, 0.08, 0.10, 0.20, 0.30, 0.40):
        s = s_max(w)
        r = regime(FamilyParams("discordant", w=w, s=s))
        print(f"  {w:.2f}   {s:.4f}    {str(r.d1_increases_under_A):5s}     "
              f"{str(r.d2_increases_under_A):5s}")


if __name__ == "__main__":
    main()
