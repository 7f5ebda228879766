"""End-to-end model assembly with a pluggable feature provider.

The provider stands in for a pre-trained backbone: `stub_projection` applies
one seeded affine map per temporal window (raw width P -> feature width D),
optionally trainable; `file_features` passes precomputed features through
unchanged (requires P == D). Providers form the "backbone" parameter group;
block, mapping, and classifier form the "head" group.

Flatten order is (C, S, D) row-major; checkpoint portability depends on it.
"""

from __future__ import annotations

import hashlib
import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from .data import is_whole_number
from .errors import ConfigError, DimensionError
from .graph import MCRBlock
from .kan import ClassifierHead, KanLayer, basis_names
from .layers import LinearLayer, check_mode
from .tensor import Tensor, as_tensor

PROVIDER_KINDS = ("stub_projection", "file_features")
BLOCK_MODES = ("mcr", "identity")
KAN_MODES = ("kan", "affine")

ABLATION_VARIANTS = {
    "Baseline (CBraMod+Linear)": ("identity", "affine"),
    "+KAN": ("identity", "kan"),
    "+MCRBlock-GCN": ("mcr", "affine"),
    "MSCGC-KAN (full model)": ("mcr", "kan"),
}


def is_int(value, minimum: int) -> bool:
    """An int or numpy integer, not a bool, of at least `minimum`."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= minimum


@dataclass
class ModelConfig:
    C: int = 16
    S: int = 10
    D: int = 32
    P: int = 24
    M: int = 4
    hidden: int = 512
    out_dim: int = 64
    kernels: tuple = (3, 5)
    dropout: float = 0.1
    harmonics: int = 0
    provider: str = "stub_projection"
    provider_trainable: bool = True
    block: str = "mcr"
    kan: str = "kan"
    bn_momentum: float = 0.1
    bn_eps: float = 1e-5
    seed: int = 0

    def __post_init__(self):
        for name in ("C", "S", "D", "P", "M", "hidden", "out_dim", "harmonics", "seed"):
            value = getattr(self, name)
            minimum = 0 if name in ("harmonics", "seed") else 1
            if not is_int(value, minimum):
                raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")
            setattr(self, name, int(value))  # a numpy integer would not hash
        for name, within, what in (("bn_eps", lambda v: 0 < v < math.inf, "> 0 and finite"),
                                   ("bn_momentum", lambda v: 0 <= v <= 1, "in [0, 1]"),
                                   ("dropout", lambda v: 0 <= v < 1, "in [0, 1)")):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not within(value):
                raise ConfigError(f"{name} must be a number {what}, got {value!r}")
        if not isinstance(self.provider_trainable, bool):
            raise ConfigError(f"provider_trainable must be a bool, got {self.provider_trainable!r}")
        if self.provider not in PROVIDER_KINDS:
            raise ConfigError(f"provider must be one of {PROVIDER_KINDS}, got {self.provider!r}")
        if self.block not in BLOCK_MODES:
            raise ConfigError(f"block must be one of {BLOCK_MODES}, got {self.block!r}")
        if self.kan not in KAN_MODES:
            raise ConfigError(f"kan must be one of {KAN_MODES}, got {self.kan!r}")
        if self.provider == "file_features" and self.P != self.D:
            raise ConfigError(f"file_features provider requires P == D, got P={self.P}, D={self.D}")
        basis_names(self.harmonics)  # raises ConfigError unless harmonics is 0, 2 or 3
        if not (isinstance(self.kernels, (list, tuple)) and self.kernels
                and all(is_whole_number(k, 1) for k in self.kernels)):
            raise ConfigError(f"kernels must be a nonempty list of integers >= 1, got {self.kernels!r}")
        self.kernels = tuple(int(k) for k in self.kernels)

    def config_hash(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class FeatureProvider:
    """Window-wise feature encoder standing in for the backbone."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.kind = cfg.provider
        self.p = cfg.P
        self.d = cfg.D
        self.trainable = bool(cfg.provider_trainable) and self.kind == "stub_projection"
        if self.kind == "stub_projection":
            self.stub = LinearLayer(cfg.P, cfg.D, rng)
            if not self.trainable:
                self.stub.weight.requires_grad = False
                self.stub.bias.requires_grad = False
        else:
            self.stub = None

    def encode(self, x: Tensor) -> Tensor:
        x = as_tensor(x)
        if x.ndim != 4:
            raise DimensionError(f"provider expects (B, C, S, P), got {x.shape}")
        b, c, s, p = x.shape
        if p != self.p:
            raise DimensionError(f"provider configured for P={self.p}, got P={p}")
        if self.kind == "file_features":
            return x
        flat = x.reshape(b * c * s, p)
        return self.stub(flat).reshape(b, c, s, self.d)

    def named_parameters(self, prefix: str = ""):
        if self.stub is None:
            return []
        return self.stub.named_parameters(prefix + "stub.")


class MscgcKanModel:
    """Provider -> block -> flatten -> mapping -> classifier."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        init_rng = np.random.default_rng([cfg.seed, 0])
        self._dropout_rng = np.random.default_rng([cfg.seed, 1])
        self.mode = "train"
        # Block output of the last forward, read by the interpretability
        # exports. It keeps that forward's tape alive until the next forward,
        # so forwards that are never differentiated run under `no_grad`.
        self.last_block_output: Tensor | None = None

        self.provider = FeatureProvider(cfg, init_rng)
        if cfg.block == "mcr":
            self.block = MCRBlock(cfg.C, cfg.D, kernels=cfg.kernels, dropout_rate=cfg.dropout,
                                  rng=init_rng, dropout_rng=self._dropout_rng,
                                  bn_momentum=cfg.bn_momentum, bn_eps=cfg.bn_eps)
        else:
            self.block = None
        flat_dim = cfg.C * cfg.S * cfg.D
        if cfg.kan == "kan":
            self.kan = KanLayer(flat_dim, cfg.out_dim, init_rng, hidden=cfg.hidden,
                                harmonics=cfg.harmonics)
        else:
            self.kan = LinearLayer(flat_dim, cfg.out_dim, init_rng)
        self.clf = ClassifierHead(cfg.out_dim, cfg.M, init_rng)

    def set_mode(self, mode: str) -> None:
        self.mode = check_mode(mode)

    @contextmanager
    def eval_mode(self):
        """Run the body in eval mode; the prior mode is restored on exit, also on error."""
        prior = self.mode
        self.mode = "eval"
        try:
            yield self
        finally:
            self.mode = prior

    def forward(self, x) -> Tensor:
        cfg = self.cfg
        x = as_tensor(x)
        feats = self._stage("provider", self.provider.encode, x)
        if self.block is not None:
            h = self._stage("block", self.block, feats, self.mode)
        else:
            h = feats
        self.last_block_output = h
        b = h.shape[0]
        flat = self._stage("flatten", h.reshape, (b, cfg.C * cfg.S * cfg.D))
        mapped = self._stage("kan", self.kan, flat)
        return self._stage("classifier", self.clf, mapped)

    __call__ = forward

    @staticmethod
    def _stage(name, fn, *args):
        try:
            return fn(*args)
        except DimensionError as exc:
            raise DimensionError(f"{name}: {exc}") from exc

    def named_parameters(self):
        named = self.provider.named_parameters("provider.")
        if self.block is not None:
            named.extend(self.block.named_parameters("block."))
        named.extend(self.kan.named_parameters("kan."))
        named.extend(self.clf.named_parameters("clf."))
        return named

    def named_buffers(self):
        if self.block is None:
            return []
        return self.block.named_buffers("block.")

    def parameter_groups(self):
        """Disjoint, exhaustive partition of trainable parameters.

        Provider parameters form the "backbone" group (empty when frozen);
        everything else is the "head" group.
        """
        backbone = [(n, p) for n, p in self.provider.named_parameters("provider.") if p.requires_grad]
        head = [(n, p) for n, p in self.named_parameters()
                if not n.startswith("provider.") and p.requires_grad]
        return {"backbone": backbone, "head": head}

    def zero_grads(self) -> None:
        for _, p in self.named_parameters():
            p.zero_grad()

