"""The CSV text ``dsvkernel kernel gram`` writes, built from the library."""

import numpy as np

from dsvkernel.kernel import data_fingerprint, gram


def gram_csv_text(features: np.ndarray, gamma: float) -> str:
    """The whole text ``kernel gram`` writes: two header lines, then the rows."""
    values = gram(features, gamma).values
    lines = [f"# gamma={gamma!r}", f"# fingerprint={data_fingerprint(features)}"]
    lines += [",".join(repr(float(v)) for v in row) for row in values]
    return "\n".join(lines) + "\n"
