"""Gradients of the whole model at real shapes, checked along random directions.

`mscgc gradcheck` checks one coordinate at a time, at tiny shapes. Here the
full model runs at the desk geometry and at the paper head width, in train
mode with dropout 0, on a batch of 8, and the gradient's component along
each of 20 random unit directions v over all parameters, <grad L, v>, is
compared with a Richardson-extrapolated central difference of L along v
(Baydin et al., JMLR 2018). B, C, S and D all exceed 1 and all differ, so a
slip of order or layout that tiny shapes hide shows here. A second test
pins the layout of every parameter gradient, which the optimizer spends in
place.
"""

import numpy as np
import pytest

from mscgc.model import ModelConfig, MscgcKanModel
from mscgc.tensor import softmax_cross_entropy

GEOMETRIES = {
    "desk": dict(C=16, S=10, D=32, P=24, M=4, hidden=48, out_dim=24),
    "paper_head": dict(C=16, S=10, D=32, P=24, M=4, hidden=512, out_dim=64),
}
DIRECTIONS = 20
STEP = 1e-3
RTOL = 1e-7


def directional_derivatives(geometry: dict, batch: int = 8):
    """(analytic, numeric) derivative of the loss along each direction."""
    model = MscgcKanModel(ModelConfig(dropout=0.0, seed=4, **geometry))
    rng = np.random.default_rng(5)
    x = rng.normal(size=(batch, geometry["C"], geometry["S"], geometry["P"]))
    labels = np.arange(batch) % geometry["M"]
    params = [p for _, p in model.named_parameters()]
    softmax_cross_entropy(model.forward(x), labels).backward()
    grads = [p.grad for p in params]
    origin = [p.data.copy() for p in params]

    def loss_at(direction, h):
        for p, p0, v in zip(params, origin, direction):
            np.multiply(v, h, out=p.data)
            p.data += p0
        return float(softmax_cross_entropy(model.forward(x), labels).data)

    def central(direction, h):
        return (loss_at(direction, h) - loss_at(direction, -h)) / (2.0 * h)

    analytic, numeric = [], []
    for _ in range(DIRECTIONS):
        direction = [rng.normal(size=p.shape) for p in params]
        norm = np.sqrt(sum(float((v * v).sum()) for v in direction))
        direction = [v / norm for v in direction]
        analytic.append(sum(float((g * v).sum()) for g, v in zip(grads, direction)))
        # the O(h^2) terms of the two central differences cancel
        numeric.append((4.0 * central(direction, STEP / 2) - central(direction, STEP)) / 3.0)
    return np.array(analytic), np.array(numeric)


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
def test_gradient_matches_directional_difference(geometry):
    analytic, numeric = directional_derivatives(GEOMETRIES[geometry])
    rel = np.abs(analytic - numeric) / np.maximum(np.abs(analytic), np.abs(numeric))
    assert rel.max() <= RTOL, (rel.max(), analytic, numeric)


LAYOUT_GEOMETRIES = {
    "desk": GEOMETRIES["desk"],
    "paper_head_identity": dict(GEOMETRIES["paper_head"], block="identity"),
    "odd": dict(C=4, S=6, D=5, P=7, M=3, hidden=9, out_dim=6, harmonics=3, kernels=(1, 2, 7)),
}


@pytest.mark.parametrize("geometry", sorted(LAYOUT_GEOMETRIES))
def test_every_parameter_gradient_is_c_contiguous(geometry):
    """AdamW spends each gradient in place and accepts only C-contiguous,
    writeable arrays, so a real backward must leave every gradient so."""
    cfg = LAYOUT_GEOMETRIES[geometry]
    model = MscgcKanModel(ModelConfig(seed=4, **cfg))
    rng = np.random.default_rng(6)
    x = rng.normal(size=(5, cfg["C"], cfg["S"], cfg["P"]))
    softmax_cross_entropy(model.forward(x), np.arange(5) % cfg["M"]).backward()
    named = model.named_parameters()
    bad = [n for n, p in named if p.grad is None or p.grad.shape != p.shape
           or not (p.grad.flags.c_contiguous and p.grad.flags.writeable)]
    assert not bad, bad
