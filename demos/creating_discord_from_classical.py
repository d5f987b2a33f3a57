"""Spontaneous emission manufactures discord out of a classical state.

The seed state here is an equal mixture of |+>|+> and |->|->: it has a
measurement that leaves it untouched, so both discord measures start at
exactly zero.  Letting one atom decay breaks that symmetry, and both
measures climb to a maximum before dying off again.  Decay of the
unmeasured atom, by contrast, creates nothing at all.

Run from the repository root:

    PYTHONPATH=src python3 demos/creating_discord_from_classical.py
"""

import numpy as np

from discordlab import FamilyParams
from discordlab.families import (
    d1_timeseries_A,
    d1_timeseries_B,
    d2_timeseries_A,
    d2_timeseries_B,
)


def main():
    p = FamilyParams("classical", w=0.25, s=0.25)
    gt = np.linspace(0.0, 8.0, 8001)

    d1 = d1_timeseries_A(p, gt).values
    d2 = d2_timeseries_A(p, gt).values
    print("emission on the measured atom:")
    print(f"  start           d1 = {d1[0]:.3g}, d2 = {d2[0]:.3g}")
    k1, k2 = int(np.argmax(d1)), int(np.argmax(d2))
    print(f"  d1 peak         {d1[k1]:.6f} at gamma0 t = {gt[k1]:.3f}")
    print(f"  d2 peak         {d2[k2]:.6f} at gamma0 t = {gt[k2]:.3f}")
    print(f"  at gamma0 t = 8 d1 = {d1[-1]:.3e}, d2 = {d2[-1]:.3e}")

    # the late-time laws differ: d1 ~ 4 s exp(-gamma0 t / 2), d2 ~ 8 s^2 exp(-gamma0 t)
    print("\nlate-time decay, d1 halves per unit time twice as slowly as d2:")
    for t in (10.0, 20.0, 30.0):
        v1 = d1_timeseries_A(p, [t]).values[0]
        v2 = d2_timeseries_A(p, [t]).values[0]
        print(f"  gamma0 t = {t:4.0f}: d1 = {v1:.3e} "
              f"(x exp(t/2) = {v1 * np.exp(t / 2):.6f}), d2 = {v2:.3e}")

    b1 = np.max(np.abs(d1_timeseries_B(p, gt).values))
    b2 = np.max(np.abs(d2_timeseries_B(p, gt).values))
    print(f"\nemission on the unmeasured atom: max d1 = {b1:.1e}, max d2 = {b2:.1e}")

    # sweeping the family: the attainable d1 peak saturates on a plateau
    print("\npeak d1 over the family at maximal coherence s = s_max(w):")
    from discordlab.families import s_max
    for w in (0.05, 0.10, 0.25, 0.40, 0.45):
        vals = d1_timeseries_A(FamilyParams("classical", w=w, s=s_max(w)), gt).values
        print(f"  w = {w:.2f}: peak {np.max(vals):.12f}")
    print("the interior values agree to machine precision: the w-dependence")
    print("cancels on the branch that is active at the peak")


if __name__ == "__main__":
    main()
