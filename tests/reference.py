"""Slow loop-by-loop transcriptions of the model's equations.

Each function spells out one equation element by element with plain Python
floats, so it shares no vectorized code with the package. Tests compare the
package against these at 1e-12. Covered so far: the ELU-activated adjacency
with self-loops, its clamped |row-sum| degrees, the symmetric normalization
D^-1/2 Ã D^-1/2 (Kipf & Welling, ICLR 2017) and graph propagation.
"""

from __future__ import annotations

import math

import numpy as np


def elu(v: float) -> float:
    return v if v > 0.0 else math.expm1(v)


def self_looped_adjacency(a) -> list[list[float]]:
    """Ã_ij = ELU(A_ij) + [i == j]."""
    c = len(a)
    return [[elu(float(a[i][j])) + (1.0 if i == j else 0.0) for j in range(c)]
            for i in range(c)]


def clamped_degrees(tilde, eps_deg: float) -> list[float]:
    """d_i = max(sum_j |Ã_ij|, eps_deg)."""
    degrees = []
    for row in tilde:
        total = 0.0
        for v in row:
            total += abs(v)
        degrees.append(max(total, eps_deg))
    return degrees


def normalize_adjacency(a, eps_deg: float = 1e-6) -> np.ndarray:
    """Â_ij = d_i^-1/2 Ã_ij d_j^-1/2."""
    tilde = self_looped_adjacency(a)
    deg = clamped_degrees(tilde, eps_deg)
    c = len(tilde)
    out = np.empty((c, c))
    for i in range(c):
        for j in range(c):
            out[i, j] = tilde[i][j] / math.sqrt(deg[i]) / math.sqrt(deg[j])
    return out


def graph_propagate(o, a_hat) -> np.ndarray:
    """Z[b, i, f] = sum_j Â_ij o[b, j, f]."""
    batch, c, width = np.shape(o)
    out = np.empty((batch, c, width))
    for b in range(batch):
        for i in range(c):
            for f in range(width):
                total = 0.0
                for j in range(c):
                    total += float(a_hat[i][j]) * float(o[b][j][f])
                out[b, i, f] = total
    return out
