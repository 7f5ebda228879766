"""Analytic-basis feature mapping and the final classifier.

The mapping projects flattened features to a hidden vector, layer-normalizes,
applies SiLU, expands with the fixed basis [h, h^2, sin h, tanh h] (in that
order, so serialized weights stay portable), and linearly projects to the
output width. Higher-order harmonics sin(n*h), cos(n*h) for n = 2..`harmonics`
can be switched on with harmonics 2 or 3; they are appended after the four
core bases.
"""

from __future__ import annotations

import numpy as np

from .checks import check
from .errors import ConfigError, DimensionError
from .layers import Layer, LinearLayer, layer_norm
from .tensor import Tensor, as_tensor, concat, cos, silu, sin, square, tanh

BASIS_NAMES = ("h", "h2", "sin", "tanh")
HARMONICS = (0, 2, 3)
LN_EPS = 1e-5  # layer-norm epsilon of the mapping's hidden vector


def basis_names(harmonics: int = 0) -> tuple[str, ...]:
    """Names of the groups `basis_expand` concatenates, in order, each `hidden` wide."""
    if harmonics not in HARMONICS:
        raise ConfigError(f"harmonics must be one of {HARMONICS}, got {harmonics!r}")
    return BASIS_NAMES + tuple(f"{f}{n}" for n in range(2, harmonics + 1) for f in ("sin", "cos"))


def basis_expand(h: Tensor, harmonics: int = 0) -> Tensor:
    """Concatenate [h, h^2, sin h, tanh h] (plus optional harmonics) on the last axis."""
    h = as_tensor(h)
    parts = [h, square(h), sin(h), tanh(h)]
    for n in range(2, harmonics + 1):
        parts.append(sin(h * float(n)))
        parts.append(cos(h * float(n)))
    return concat(parts, axis=-1)


class KanLayer(Layer):
    """Projection -> layer norm -> SiLU -> basis expansion -> projection."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator,
                 hidden: int = 512, harmonics: int = 0):
        hidden = check("hidden", hidden, int, "[1, inf)")
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.hidden = hidden
        self.harmonics = harmonics
        self.basis_names = basis_names(harmonics)
        self.num_bases = len(self.basis_names)
        self.in_proj = LinearLayer(in_dim, hidden, rng)
        self.ln_gamma = Tensor(np.ones(hidden), requires_grad=True)
        self.ln_beta = Tensor(np.zeros(hidden), requires_grad=True)
        self.out_proj = LinearLayer(self.num_bases * hidden, out_dim, rng)

    def hidden_activations(self, x_flat: Tensor) -> Tensor:
        """The SiLU output fed to the bases; used by interpretability exports."""
        x_flat = as_tensor(x_flat)
        if x_flat.ndim != 2 or x_flat.shape[1] != self.in_dim:
            raise DimensionError(f"kan layer expects (B, {self.in_dim}), got {x_flat.shape}")
        h = layer_norm(self.in_proj(x_flat), self.ln_gamma, self.ln_beta, LN_EPS)
        return silu(h)

    def __call__(self, x_flat: Tensor) -> Tensor:
        return self.out_proj(basis_expand(self.hidden_activations(x_flat), self.harmonics))


class ClassifierHead(Layer):
    """Affine map from the mapped feature space to class logits."""

    def __init__(self, in_dim: int, num_classes: int, rng: np.random.Generator):
        self.num_classes = num_classes
        self.linear = LinearLayer(in_dim, num_classes, rng)

    def __call__(self, features: Tensor) -> Tensor:
        return self.linear(features)
