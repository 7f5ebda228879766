"""The checkpoint format, pinned: parameter and buffer names, shapes and order,
each AdamW slot's weight decay, and the bytes `save_checkpoint` writes.

A parameter's dotted name is its checkpoint key and picks its weight decay,
and the order of the names is the order of AdamW's slots and of the clip-norm
sum, so none of them may move when the layers change shape in code.
"""

import hashlib

import pytest

from mscgc.data import read_checkpoint_header, save_checkpoint
from mscgc.model import ABLATION_VARIANTS, ModelConfig, MscgcKanModel
from mscgc.training import AdamW, TrainConfig

GEOMETRY = dict(C=3, S=4, D=2, P=3, M=2, hidden=3, out_dim=2, kernels=(3, 5), seed=7)
DECAY = TrainConfig().weight_decay

# (name, shape, AdamW weight decay) of the full model at GEOMETRY, in order
FULL_PARAMETERS = [
    ("provider.stub.weight", (2, 3), DECAY),
    ("provider.stub.bias", (2,), 0.0),
    ("block.branches.0.kernels", (2, 2, 3), DECAY),
    ("block.branches.0.bias", (2,), 0.0),
    ("block.branches.0.bn.gamma", (2,), 0.0),
    ("block.branches.0.bn.beta", (2,), 0.0),
    ("block.branches.1.kernels", (2, 2, 5), DECAY),
    ("block.branches.1.bias", (2,), 0.0),
    ("block.branches.1.bn.gamma", (2,), 0.0),
    ("block.branches.1.bn.beta", (2,), 0.0),
    ("block.adjacency.A", (3, 3), 0.0),
    ("block.post_bn.gamma", (3,), 0.0),
    ("block.post_bn.beta", (3,), 0.0),
    ("kan.in_proj.weight", (3, 24), DECAY),
    ("kan.in_proj.bias", (3,), 0.0),
    ("kan.ln_gamma", (3,), 0.0),
    ("kan.ln_beta", (3,), 0.0),
    ("kan.out_proj.weight", (2, 12), DECAY),
    ("kan.out_proj.bias", (2,), 0.0),
    ("clf.linear.weight", (2, 2), DECAY),
    ("clf.linear.bias", (2,), 0.0),
]
BLOCK_BUFFERS = [
    "block.branches.0.bn.running_mean", "block.branches.0.bn.running_var",
    "block.branches.1.bn.running_mean", "block.branches.1.bn.running_var",
    "block.post_bn.running_mean", "block.post_bn.running_var",
]

PROVIDER = ["provider.stub.weight", "provider.stub.bias"]
BLOCK = [n for n, _, _ in FULL_PARAMETERS if n.startswith("block.")]
KAN = [n for n, _, _ in FULL_PARAMETERS if n.startswith("kan.")]
AFFINE = ["kan.weight", "kan.bias"]
CLF = ["clf.linear.weight", "clf.linear.bias"]
VARIANT_NAMES = {
    ("identity", "affine"): PROVIDER + AFFINE + CLF,
    ("identity", "kan"): PROVIDER + KAN + CLF,
    ("mcr", "affine"): PROVIDER + BLOCK + AFFINE + CLF,
    ("mcr", "kan"): PROVIDER + BLOCK + KAN + CLF,
}

# sha256 of the checkpoint of the untrained model at GEOMETRY with a step-0
# AdamW; every initial value comes from Generator.uniform or .normal
CHECKPOINT_DIGESTS = {
    ("identity", "affine"): "f7a51ea8841dec06093068f5268607231d317d14fe690723ae06da3826c33887",
    ("identity", "kan"): "bb3c7e079ab2a22031bd061601644b738d28e2032fb53bf0c641b509da2811f9",
    ("mcr", "affine"): "1687cb031fa108ff006f331abbbac49bca2f2a57e701dfb9f69509f60ac1a879",
    ("mcr", "kan"): "6e6fffa328cba0d68a61262908cdb051ec3771b7b4007508cb0e8be97d38df95",
}


def model(**overrides):
    return MscgcKanModel(ModelConfig(**{**GEOMETRY, **overrides}))


def names(named):
    return [n for n, _ in named]


class TestNames:
    def test_full_model_parameters_buffers_and_decay(self):
        m = model()
        assert [(n, p.data.shape) for n, p in m.named_parameters()] == [
            (n, shape) for n, shape, _ in FULL_PARAMETERS]
        assert names(m.named_buffers()) == BLOCK_BUFFERS
        slots = AdamW(m.parameter_groups(), TrainConfig()).slots
        assert [(s.name, s.param.data.shape, s.decay) for s in slots] == FULL_PARAMETERS

    @pytest.mark.parametrize("variant", sorted(VARIANT_NAMES))
    def test_variant_names(self, variant):
        m = model(block=variant[0], kan=variant[1])
        assert names(m.named_parameters()) == VARIANT_NAMES[variant]
        assert names(m.named_buffers()) == (BLOCK_BUFFERS if variant[0] == "mcr" else [])
        groups = m.parameter_groups()
        assert names(groups["backbone"]) == PROVIDER
        assert names(groups["head"]) == VARIANT_NAMES[variant][len(PROVIDER):]

    def test_frozen_stub_is_named_but_in_no_group(self):
        m = model(provider_trainable=False)
        assert names(m.named_parameters()) == VARIANT_NAMES["mcr", "kan"]
        groups = m.parameter_groups()
        assert groups["backbone"] == []
        assert names(groups["head"]) == BLOCK + KAN + CLF

    def test_file_features_provider_has_no_parameters(self):
        m = model(provider="file_features", P=2)
        assert names(m.named_parameters()) == BLOCK + KAN + CLF
        assert names(m.named_buffers()) == BLOCK_BUFFERS
        groups = m.parameter_groups()
        assert groups["backbone"] == []
        assert names(groups["head"]) == BLOCK + KAN + CLF


class TestCheckpointBytes:
    @pytest.mark.parametrize("variant", sorted(ABLATION_VARIANTS.values()))
    def test_untrained_checkpoint_is_pinned(self, variant, tmp_path):
        m = model(block=variant[0], kan=variant[1])
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, m, AdamW(m.parameter_groups(), TrainConfig()))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == CHECKPOINT_DIGESTS[variant]
        params = VARIANT_NAMES[variant]
        buffers = BLOCK_BUFFERS if variant[0] == "mcr" else []
        keys = (["param." + n for n in params] + ["buffer." + n for n in buffers]
                + ["opt.step_count"] + [f"opt.{k}.{n}" for n in params for k in "mv"])
        assert [e["name"] for e in read_checkpoint_header(path)["tensors"]] == keys
