"""Per-point reference for ``experiment.boundary_grid``'s CSV text.

The lattice is built from a list of (x1, x2) tuples, labels come from
``predict_labels`` over the whole lattice at once, and each machine's
decision values are then computed a second time for the summed signed
value; every field is formatted per point.  Decision values are row-local,
so the banded export must match this text byte for byte at any band size
and any BLAS thread count.
"""

import numpy as np

from dsvkernel.experiment import BOUNDARY_PADDING
from dsvkernel.svm import decision_values, predict_labels


def reference_boundary_csv(model, bounds, resolution: int) -> str:
    (x1_lo, x1_hi), (x2_lo, x2_hi) = bounds
    pad1 = BOUNDARY_PADDING * (x1_hi - x1_lo)
    pad2 = BOUNDARY_PADDING * (x2_hi - x2_lo)
    xs = np.linspace(x1_lo - pad1, x1_hi + pad1, resolution)
    ys = np.linspace(x2_lo - pad2, x2_hi + pad2, resolution)
    grid = np.array([(x, y) for y in ys for x in xs])

    labels = predict_labels(model, grid)
    values = np.zeros(len(grid))
    for (neg, pos), machine in model.machines:
        d = decision_values(machine, grid)
        values += np.where(labels == pos, d, 0.0) - np.where(labels == neg, d, 0.0)

    lines = ["x1,x2,decision_value,label"]
    for (x, y), v, lab in zip(grid, values, labels):
        lines.append(f"{float(x)!r},{float(y)!r},{float(v)!r},{int(lab)}")
    return "\n".join(lines) + "\n"
