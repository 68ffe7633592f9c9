"""Helpers shared by the test modules."""

import numpy as np


def random_state(g, d, mix=0.0):
    """A random full-rank d×d density matrix drawn from g, mixed with weight mix toward I/d."""
    a = g.normal(size=(d, d)) + 1j * g.normal(size=(d, d))
    m = a @ a.conj().T
    m = m / np.trace(m)
    return (1 - mix) * m + mix * np.eye(d) / d if mix else m
