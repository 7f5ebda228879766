"""AdamW and gradient clipping held to the textbook transcriptions in
`reference.py`, over five steps on the real parameters and gradients of two
models.

Each step clips the model's gradients, and the oracle clips a copy of the
same raw gradients. The optimizer then spends the clipped gradients, and the
oracle steps on a copy of them, from its own copy of the parameters and
moments. Every comparison is per array: the largest elementwise gap
relative to the largest element of the oracle's array. Measured worst gaps,
desk model: pre-clip norm 9.5e-15, clipped gradients 9.4e-15, parameter
displacement after five steps 4.7e-15, first moment 0, second moment
3.3e-16. The harmonics-2 model with `decay_biases` stays below 1.4e-14.
They come from the norm's summation order and the package's rearranged
step, m c / (sqrt(v) + eps sqrt(1 - beta2^t)) against m̂ / (sqrt(v̂) + eps).
RTOL leaves about 70x room. An elementwise relative bound does not work:
where five updates of mixed sign nearly cancel, a displacement differs by
up to 1.2e-11 of itself. Seeded mutations of the package fail both cases
with gaps of 0.8 or more: bias correction dropped, decay routed through the
gradient, eps moved inside the square root, and the clip scale squared.
"""

import numpy as np
import pytest

import reference
from mscgc.model import ModelConfig, MscgcKanModel
from mscgc.tensor import softmax_cross_entropy
from mscgc.training import AdamW, TrainConfig, clip_gradients

RTOL = 1e-12
STEPS = 5
MAX_NORM = 0.05  # below every pre-clip norm here, so each step scales

MODELS = {
    "desk": (dict(C=16, S=10, D=32, P=24, M=4, hidden=48, out_dim=24), {}),
    "harmonics2_decay_biases": (dict(C=4, S=6, D=5, P=7, M=3, hidden=9, out_dim=6, harmonics=2),
                                dict(decay_biases=True)),
}


def gap(got, want) -> float:
    """max |got - want| / max |want|, and 0 when both are all zero."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    err, scale = float(np.max(np.abs(got - want))), float(np.max(np.abs(want)))
    return err / scale if scale else (0.0 if err == 0.0 else np.inf)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_five_steps_match_the_textbook_oracle(name):
    geometry, train_overrides = MODELS[name]
    model = MscgcKanModel(ModelConfig(dropout=0.0, seed=3, **geometry))
    cfg = TrainConfig(lr_backbone=2e-3, lr_head=5e-3, seed=0, **train_overrides)
    groups = model.parameter_groups()
    lrs = {"backbone": cfg.lr_backbone, "head": cfg.lr_head}
    optimizer = AdamW(groups, cfg)
    named = [(group, n, p) for group, pairs in groups.items() for n, p in pairs]
    params = [p for _, _, p in named]
    origin = [p.data.copy() for p in params]
    theta = [a.copy() for a in origin]
    moments = [(np.zeros(p.shape), np.zeros(p.shape)) for p in params]
    b1, b2 = cfg.betas
    rng = np.random.default_rng(8)
    for t in range(1, STEPS + 1):
        x = rng.normal(size=(6, geometry["C"], geometry["S"], geometry["P"]))
        model.zero_grads()
        softmax_cross_entropy(model.forward(x), rng.integers(0, geometry["M"], 6)).backward()
        raw = [p.grad.copy() for p in params]
        norm = clip_gradients(params, MAX_NORM)
        want_norm, want_clipped = reference.clip_gradients(raw, MAX_NORM)
        assert want_norm > MAX_NORM
        assert abs(norm - want_norm) <= RTOL * want_norm
        for (_, n, p), want in zip(named, want_clipped):
            assert gap(p.grad, want) <= RTOL, n
        clipped = [p.grad.copy() for p in params]
        optimizer.step(lrs)
        assert all(p.grad is None for p in params)
        for i, ((group, n, _), g) in enumerate(zip(named, clipped)):
            decay = reference.weight_decay_of(n, cfg.weight_decay, cfg.decay_biases)
            theta[i], m, v = reference.adamw_step(
                theta[i], g, *moments[i], t, lrs[group], decay, b1, b2, cfg.adam_eps)
            moments[i] = (m, v)
    for (_, n, p), x0, want, (m, v), slot in zip(named, origin, theta, moments, optimizer.slots):
        assert gap(p.data - x0, want - x0) <= RTOL, n
        assert gap(slot.m, m) <= RTOL, n
        assert gap(slot.v, v) <= RTOL, n
