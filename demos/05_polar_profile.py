"""Polar cost profiles: the curve whose enclosed area the cost measures.

Optimizes the crank/slider-free mechanism briefly, writes polar.csv for
the unbalanced vs balanced states, and (if matplotlib is importable)
renders the classic polar comparison to polar.png.
"""

import numpy as np

from shakebal import DecisionVector, MechanismConfig, ObjectiveSpec, make_objective, optimize_pso
from shakebal.bench import emit_polar
from shakebal.objective import default_search_bounds
from shakebal.optimizers import PsoParams

cfg = MechanismConfig(m_c=0.0, m_p=0.0)
spec = ObjectiveSpec(bounds=default_search_bounds(cfg))
result = optimize_pso(make_objective(cfg, spec), spec.bounds,
                      PsoParams(population=40, iterations=150), seed=1)
balanced = DecisionVector.from_array(result.best_x)
print(f"balanced at m_1={balanced.m_1:.4f}, phi_1={balanced.phi_1:.4f}, "
      f"m_2={balanced.m_2:.4f}, phi_2={balanced.phi_2:.4f}")

emit_polar(cfg, [("pso", balanced)], 360, "polar.csv")
print("wrote polar.csv (theta_rad, r_unbalanced, r_pso)")

data = np.genfromtxt("polar.csv", delimiter=",", names=True)
print(f"peak radius: unbalanced {data['r_unbalanced'].max():.1f}, "
      f"balanced {data['r_pso'].max():.3f}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed; skipping polar.png")
else:
    ax = plt.subplot(projection="polar")
    ax.plot(data["theta_rad"], data["r_unbalanced"], label="unbalanced")
    ax.plot(data["theta_rad"], data["r_pso"], label="pso balanced")
    ax.legend(loc="lower left", bbox_to_anchor=(0.9, 0.9))
    plt.savefig("polar.png", dpi=120, bbox_inches="tight")
    print("wrote polar.png")
