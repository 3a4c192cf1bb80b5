"""A fixed piece of work whose duration measures how fast the host runs now.

The reference host's speed drifts by up to half, in phases of tens of seconds
to minutes, with the CPU busy the whole time (no steal, no waiting): the
processor itself runs slower.  Timing the program alone then measures the
phase as much as the program.  ``reference_s`` is timed between the children
of a run, so that their times can be expressed at a fixed host speed.

The work mixes the three kinds that anisofem spends its time on: sparse
matrix-vector products (the Krylov solves), sorting and scattering of index
arrays (face table, assembly) and interpreted Python loops (the per-tet
loops of ``verify``).  It imports nothing from anisofem, so no change to the
library can change it.
"""

import time

import numpy as np
import scipy.sparse as sp

_N = 32             # 7-point Laplacian on an N^3 grid: 32768 rows
_MATVECS = 400
_SORT_SIZE = 200_000
_SORTS = 2
_LOOP = 1_000_000


def _laplacian(n):
    eye = sp.identity(n, format="csr")
    line = sp.diags_array([np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
                          offsets=[-1, 0, 1], format="csr")
    return (sp.kron(sp.kron(line, eye), eye) + sp.kron(sp.kron(eye, line), eye)
            + sp.kron(sp.kron(eye, eye), line)).tocsr()


_MATRIX = _laplacian(_N)
_KEYS = np.random.default_rng(0).integers(0, _SORT_SIZE // 4, size=_SORT_SIZE)


def reference_work():
    """The fixed work; returns a checksum so that none of it can be skipped."""
    x = np.ones(_MATRIX.shape[0])
    for _ in range(_MATVECS):
        y = _MATRIX @ x
        x = y / np.linalg.norm(y)
    total = float(x[0])
    for _ in range(_SORTS):
        order = np.argsort(_KEYS, kind="stable")
        uniq, inverse = np.unique(_KEYS[order], return_inverse=True)
        total += float(np.bincount(inverse, weights=order.astype(float))[-1]) + len(uniq)
    acc = 0
    for i in range(_LOOP):
        acc += i * i % 7
    return total + acc


def reference_s():
    """Wall time of one ``reference_work`` call, in seconds."""
    start = time.perf_counter()
    reference_work()
    return time.perf_counter() - start
