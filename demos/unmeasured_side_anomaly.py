"""Decay of the unmeasured atom can pump up Hilbert-Schmidt discord.

Trace-norm discord is contractive under any channel acting on the
unmeasured side: it can only fall.  The Hilbert-Schmidt version carries
a purity factor that the channel can raise, so the same evolution that
leaves d1 monotone makes d2 grow.  This is the standard argument for
preferring the trace norm as a distance measure.

Run from the repository root:

    PYTHONPATH=src python3 demos/unmeasured_side_anomaly.py
"""

import numpy as np

from discordlab import FamilyParams
from discordlab.families import (
    d1_timeseries_B,
    d2_timeseries_A,
    d2_timeseries_B,
    regime,
    s_max,
)


def main():
    w = 0.4
    s = s_max(w)  # = 0.2
    p = FamilyParams("discordant", w=w, s=s)
    gt = np.linspace(0.0, 10.0, 2001)

    d2B = d2_timeseries_B(p, gt).values
    d2A = d2_timeseries_A(p, gt).values
    d1B = d1_timeseries_B(p, gt).values

    print(f"family point w = {w}, s = s_max(w) = {s:.6g}")
    kB = int(np.argmax(d2B))
    print(f"\nd2 with emission on the unmeasured atom:")
    print(f"  start {d2B[0]:.6f}, max {d2B[kB]:.6f} at gamma0 t = {gt[kB]:.3f}"
          f"  (excess {d2B[kB] - d2B[0]:.3e})")
    print(f"d2 with emission on the measured atom:")
    print(f"  start {d2A[0]:.6f}, max {np.max(d2A):.6f}"
          f"  (excess {np.max(d2A) - d2A[0]:.3e}, never above the start)")

    diffs = np.diff(d1B)
    print(f"\nd1 with emission on the unmeasured atom is monotone:")
    print(f"  start {d1B[0]:.6f}, end {d1B[-1]:.6f},"
          f" largest upward step {np.max(diffs):.3e}")

    r = regime(p)
    print(f"\nregime flags at this point: d2 grows on the unmeasured side ="
          f" {r.d2_increases_under_B}, on the measured side ="
          f" {r.d2_increases_under_A}")

    # the growth window in w at s = s_max has a top edge too
    print("\nd2 growth on the unmeasured side along s = s_max(w):")
    hi = (2 + np.sqrt(2)) / 8
    print(f"  closed condition: (2 - sqrt(2))/8 < w < (2 + sqrt(2))/8 = {hi:.4f},"
          f" excluding w = 1/4")
    for w in (0.05, 0.08, 0.25, 0.30, 0.42, 0.44):
        r = regime(FamilyParams("discordant", w=w, s=s_max(w)))
        print(f"  w = {w:.2f}: grows = {r.d2_increases_under_B}")


if __name__ == "__main__":
    main()
