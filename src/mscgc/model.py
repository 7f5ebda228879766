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
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from .checks import check, check_fields, check_items
from .errors import ConfigError, DimensionError, NumericalError
from .graph import MCRBlock
from .kan import ClassifierHead, KanLayer, basis_names
from .layers import Layer, LinearLayer, check_mode
from .tensor import Tensor, as_tensor, no_grad

PROVIDER_KINDS = ("stub_projection", "file_features")
BLOCK_MODES = ("mcr", "identity")
KAN_MODES = ("kan", "affine")

ABLATION_VARIANTS = {
    "Baseline (CBraMod+Linear)": ("identity", "affine"),
    "+KAN": ("identity", "kan"),
    "+MCRBlock-GCN": ("mcr", "affine"),
    "MSCGC-KAN (full model)": ("mcr", "kan"),
}


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

    INTERVALS = {**dict.fromkeys(("C", "S", "D", "P", "M", "hidden", "out_dim"), "[1, inf)"),
                 "harmonics": "[0, inf)", "seed": "[0, inf)", "dropout": "[0, 1)",
                 "bn_momentum": "[0, 1]", "bn_eps": "(0, inf)"}

    def __post_init__(self):
        check_fields(self)
        for name, choices in (("provider", PROVIDER_KINDS), ("block", BLOCK_MODES),
                              ("kan", KAN_MODES)):
            if getattr(self, name) not in choices:
                raise ConfigError(f"{name} must be one of {choices}, got {getattr(self, name)!r}")
        if self.provider == "file_features" and self.P != self.D:
            raise ConfigError(f"file_features provider requires P == D, got P={self.P}, D={self.D}")
        basis_names(self.harmonics)  # raises ConfigError unless harmonics is 0, 2 or 3
        self.kernels = check_items("kernels", self.kernels, int, "[1, inf)")

    def config_hash(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


class FeatureProvider(Layer):
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


class MscgcKanModel(Layer):
    """Provider -> block -> flatten -> mapping -> classifier."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        init_rng = np.random.default_rng([cfg.seed, 0])
        self._dropout_rng = np.random.default_rng([cfg.seed, 1])
        self.mode = "train"

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

    @contextmanager
    def frozen_head(self):
        """Run the body with `requires_grad` off for every mapping and
        classifier parameter, so a backward still reaches the block output
        but builds no gradient for the head's weights. Each parameter gets
        its prior value back on exit, also on error."""
        head = [p for _, p in self.kan.named_parameters() + self.clf.named_parameters()]
        prior = [p.requires_grad for p in head]
        for p in head:
            p.requires_grad = False
        try:
            yield self
        finally:
            for p, flag in zip(head, prior):
                p.requires_grad = flag

    def features(self, x) -> Tensor:
        """Provider, then block: the block output H as (B, C, S, D)."""
        feats = self._stage("provider", self.provider.encode, as_tensor(x))
        return feats if self.block is None else self._stage("block", self.block, feats, self.mode)

    def head(self, h: Tensor) -> Tensor:
        """The (C, S, D) flatten of H, then mapping and classifier: the logits."""
        cfg = self.cfg
        flat = self._stage("flatten", h.reshape, (h.shape[0], cfg.C * cfg.S * cfg.D))
        mapped = self._stage("kan", self.kan, flat)
        return self._stage("classifier", self.clf, mapped)

    def forward(self, x) -> Tensor:
        return self.head(self.features(x))

    __call__ = forward

    def infer(self, samples, reduce, stage: str = "forward", batch_size: int = 256,
              index=None) -> list:
        """`reduce` of each batch's `stage` output ("forward": logits, "features":
        H) as a numpy array, run in eval mode under `no_grad`, both restored on
        exit, also on error. With `index`, reads the rows `samples[index]` in
        that order, one batch at a time. Raises NumericalError naming the first
        sample, by its row in `samples`, whose output is not all finite."""
        batch_size = check("batch_size", batch_size, int, "[1, inf)")
        output = {"forward": "logits", "features": "features"}[stage]
        run = getattr(self, stage)  # looked up per call, so a patched method is the one run
        rows = len(samples) if index is None else len(index)
        reduced = []
        with self.eval_mode(), no_grad():
            for start in range(0, rows, batch_size):
                batch = slice(start, start + batch_size)
                y = run(samples[batch] if index is None else samples[index[batch]]).data
                finite = np.isfinite(y).reshape(len(y), -1).all(axis=1)
                if not finite.all():
                    row = start + int(np.argmin(finite))
                    raise NumericalError(f"non-finite {output} for sample "
                                         f"{row if index is None else int(index[row])}")
                reduced.append(reduce(y))
        return reduced

    @staticmethod
    def _stage(name, fn, *args):
        try:
            return fn(*args)
        except DimensionError as exc:
            raise DimensionError(f"{name}: {exc}") from exc

    def parameter_groups(self):
        """Trainable parameters, split into the provider's "backbone" group
        (empty when frozen) and the "head" group of everything else."""
        groups = {"backbone": [], "head": []}
        for name, p in self.named_parameters():
            if p.requires_grad:
                groups["backbone" if name.startswith("provider.") else "head"].append((name, p))
        return groups

    def zero_grads(self) -> None:
        for _, p in self.named_parameters():
            p.zero_grad()

