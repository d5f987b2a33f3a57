"""Tour of the three correlation measures on a one-parameter family.

The family interpolates from a classical-looking state at theta = 0 to a
maximally discordant one at theta = pi/4 and back down.  Negativity,
the Hilbert-Schmidt measure and the trace-norm measure order the states
differently along the way: strictly d1 > sqrt(d2) > negativity below
pi/4, and d1 = sqrt(d2) at and above it.

Run from the repository root:

    PYTHONPATH=src python3 demos/correlation_measures_tour.py
"""

import numpy as np

from discordlab import FamilyParams, make_state
from discordlab.families import theta_states
from discordlab.measures import d1_oracle, d2_oracle, measure_batch


def family_measures(thetas):
    """d1, sqrt(d2), negativity and the d1 route along the family, in one
    call of the measure pipeline."""
    d1, d2, neg, route = measure_batch(theta_states(thetas))
    return d1, np.sqrt(d2), neg, route


def main():
    print("theta/pi    d1        sqrt(d2)  negativity")
    fracs = np.linspace(0.0, 0.5, 11)
    for frac, d1, sq, neg in zip(fracs, *family_measures(np.pi * fracs)[:3]):
        marker = "  (equality region)" if frac >= 0.25 else ""
        print(f"  {frac:4.2f}    {d1:.6f}  {sq:.6f}  {neg:.6f}{marker}")

    # the closed forms against the brute-force sphere search
    print("\nclosed form vs minimization over all measurement axes:")
    fracs = np.array([0.1, 0.25, 0.4])
    for frac, d1, sq, _, method in zip(fracs, *family_measures(np.pi * fracs)):
        rho = make_state(FamilyParams("theta", theta=np.pi * frac))
        d1_brute, axis = d1_oracle(rho)
        d2_brute, _ = d2_oracle(rho)
        # round first and add +0.0, so a rounding residue prints as +0.000
        # whatever its sign
        axis = [round(float(c), 3) + 0.0 for c in axis]
        print(f"  theta = {frac:.2f} pi: d1 {d1:.8f} vs oracle {d1_brute:.8f} "
              f"({method}), d2 {sq**2:.8f} vs {d2_brute:.8f}, "
              f"minimizing axis ({axis[0]:+.3f}, {axis[1]:+.3f}, {axis[2]:+.3f})")


if __name__ == "__main__":
    main()
