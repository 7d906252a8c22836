"""A fixed reference kernel that gauges how fast the host runs right now.

The shared cloud hosts this benchmark runs on change speed by up to 1.7x
from one stretch of seconds to the next (a sibling hardware thread busy or
idle, frequency states), so the wall time of the same op moves with them.
run.py times this kernel before and after every op and scales the op's
wall time by NOMINAL_S / (the mean of those two kernel times): the op's time
on a host that runs the kernel in exactly NOMINAL_S. The kernel does what
the program's hot path does, on arrays of the same shape (delete one row of
an (n, q, d) sample, mean, resultant lengths, a small covariance and its
eigenvalues), so it slows down with the host as the program does. It never
calls opshape, so a change to the program cannot move it.
"""

import math
import time

import numpy as np

NOMINAL_S = 0.050  # the kernel's time on the reference host
ROUNDS = 1000
_N, _Q, _D = 200, 2, 3


def _sample():
    t = np.linspace(0.0, 6.0, _N * _Q * _D).reshape(_N, _Q, _D)
    x = np.stack([np.cos(t[..., 0]), np.sin(t[..., 1]), 1.0 + 0.1 * t[..., 2]], axis=-1)
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


_X = _sample()


def kernel():
    """The fixed work: ROUNDS leave-one-out summaries of one sample."""
    acc = 0.0
    for i in range(ROUNDS):
        y = np.delete(_X, i % _N, axis=0)
        mean = y.mean(axis=0)
        resultant = np.linalg.norm(mean, axis=-1)
        flat = y.reshape(len(y), -1) - mean.reshape(-1)
        cov = flat.T @ flat / (len(y) - 1)
        acc += float(np.linalg.eigvalsh(cov)[-1]) + math.fsum(resultant.tolist())
    return acc


def seconds():
    """Wall time of one kernel run."""
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t
