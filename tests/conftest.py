"""Oracles shared by the test modules."""

import numpy as np


def frame(ops, M, space="dirac"):
    """The similarity transform W^{1/2} M W^{-1/2} of an assembled dense
    operator M on ``space`` (node, cell, dirac or generator), in which the
    weighted inner product is Euclidean: the dense oracle of the library's
    band-built frame forms."""
    s = np.sqrt(ops.weights(space))
    return s[:, None] * M / s[None, :]
