"""Shaking force/moment profiles of the default mechanism.

Walks the four profiles p1..p4 over one revolution, first for the
unbalanced machine, then with the counterweight that exactly cancels the
disk-2 unbalance (same plane, same m*r, half a turn away).
"""

import math

import numpy as np

from shakebal import DecisionVector, MechanismConfig, profile_arrays, theta_grid

cfg = MechanismConfig()
print("mechanism:", cfg)
theta = theta_grid(360)


def print_peaks(dv):
    p1, p2, p3, p4 = (np.abs(p).max() for p in profile_arrays(cfg, dv, theta))
    print(f"  |p1| peak {p1:9.2f}   |p2| peak {p2:9.2f}")
    print(f"  |p3| peak {p3:9.2f}   |p4| peak {p4:9.2f}")


print("\nunbalanced, over one revolution (N / N*m):")
print_peaks(DecisionVector.zero())

# cancel the unbalance m_0*R_0 with m_1*r_1 in antiphase on the same disk
m_1 = cfg.m_0 * cfg.R_0 / cfg.r_1
antiphase = DecisionVector(m_1=m_1, m_2=0.0, phi_1=cfg.alpha + math.pi, phi_2=0.0)
print(f"\nantiphase counterweight: m_1 = {m_1:.3f} at phi_1 = {antiphase.phi_1:.3f} rad")

print("after balancing (slider/crank forces remain, the unbalance is gone):")
print_peaks(antiphase)
