"""Build the kNN similarity graph that anchors structure preservation.

The graph lives in the fuzzy feature space, is symmetrized, and its
Laplacian turns "neighbors should embed together" into the quadratic
penalty tr(Z^T L Z).
"""

import numpy as np

from mvfuzzy import build_graph
from mvfuzzy.antecedent import Standardizer, fit_antecedents, fuzzy_map

rng = np.random.default_rng(1)

# Two tight blobs: within-blob similarities should dwarf cross-blob ones.
x = np.vstack([rng.normal(0, 0.3, size=(20, 3)),
               rng.normal(6, 0.3, size=(20, 3))])
xs = Standardizer.fit(x).transform(x)
xg = fuzzy_map(xs, fit_antecedents(xs, 3))

# The graph is held as each point's 4 neighbour columns and weights; at
# this size it can be expanded to dense S and L.
g = build_graph(xg, n_neighbors=4)
s, lap = g.dense()
print("similarity range:", s.min(), "to", round(s.max(), 4))
print("cross-blob mass:", s[:20, 20:].sum(), "(no edges between blobs)")
print("max |row sum| of Laplacian:", np.abs(lap.sum(axis=1)).max())
print("smallest eigenvalue:", np.linalg.eigvalsh(lap).min())

# The trace penalty is small for a cluster-respecting embedding and
# large for one that tears neighbors apart.
z_good = np.repeat([[0.0], [1.0]], 20, axis=0)
z_bad = rng.normal(size=(40, 1))
for name, z in (("cluster-respecting", z_good), ("random", z_bad)):
    print(f"tr(Z^T L Z) for {name} embedding:",
          round(float(np.trace(g.quadratic(z))), 4))
