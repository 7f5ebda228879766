"""Synthetic planted-structure datasets, split protocols, and file formats.

Generated samples are Gaussian noise plus, per sample: a class-specific
temporal motif pair (length 3 and length 5, front-loaded, zero-mean over
time) injected at one random onset into every channel, with an independent
random sign per channel community, so within-community content is coherent
while cross-community mixing only adds randomly signed interference; a
shared random offset per community (correlated nuisance that makes the
connectivity structure recoverable); and, when the nonlinearity flag is
set, a per-sample latent z injected along a fixed direction whose sin-sign
carries half the label (label = 2 * motif_class + latent_bit). Signs,
onsets, and the latent construction are arranged so every class has an
identical mean field and a purely affine readout decodes almost nothing.

Motif lengths deliberately match the default kernel set {3, 5}. Tensor files
(".mstf") are magic line + one JSON header line + little-endian row-major
payload, lossless for float64, and are read through a copy-on-write mapping.
"""

from __future__ import annotations

import json
import math
import mmap
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .checks import FINITE, check_fields, check_items
from .errors import CompatibilityError, ConfigError, FormatError
from .tensor import Tensor

MSTF_MAGIC = b"MSTF1"
CKPT_MAGIC = b"MSCP1"

_DTYPES = {"f8": "<f8", "f4": "<f4", "i8": "<i8"}

# Envelopes are strongly front-loaded so the injected bump (and with it the
# activation of the trained model) concentrates at the onset window itself.
SHORT_MOTIF_LEN = 3
LONG_MOTIF_LEN = 5
_SHORT_ENVELOPE = np.array([2.0, 0.55, 0.35])
_LONG_ENVELOPE = np.array([2.0, 0.60, 0.40, 0.28, 0.18])


# -- synthetic generation --------------------------------------------------


@dataclass
class SynthSpec:
    n_subjects: int = 50
    trials_per_subject: int = 80
    sessions_per_subject: int = 4
    C: int = 16
    S: int = 10
    P: int = 24
    M: int = 4
    seed: int = 7
    communities: int = 2
    noise_scale: float = 1.0
    motif_amp: float = 3.0
    community_scale: float = 0.7
    latent_scale: float = 2.5
    nonlinearity: bool = True
    sign_flips: bool = True

    INTERVALS = {**dict.fromkeys(("n_subjects", "trials_per_subject", "sessions_per_subject",
                                  "C", "P", "M", "communities"), "[1, inf)"),
                 "S": f"[{LONG_MOTIF_LEN}, inf)", "seed": "[0, inf)",
                 "noise_scale": "[0, inf)", "community_scale": "[0, inf)",
                 "motif_amp": FINITE, "latent_scale": FINITE}

    def __post_init__(self):
        check_fields(self)
        if self.C < self.communities:
            raise ConfigError(f"need 1 <= communities <= C, got {self.communities} vs C={self.C}")
        if self.trials_per_subject % self.sessions_per_subject != 0:
            raise ConfigError("trials_per_subject must divide evenly into sessions")
        if self.nonlinearity and self.M % 2 != 0:
            raise ConfigError(f"nonlinearity flag requires an even class count, got M={self.M}")

    @property
    def motif_classes(self) -> int:
        return self.M // 2 if self.nonlinearity else self.M


@dataclass
class SynthDataset:
    samples: np.ndarray
    labels: np.ndarray
    meta: dict


def _make_motifs(rng: np.random.Generator, count: int):
    """Per-class (short, long) temporal shapes: front-loaded, zero mean."""
    shorts, longs = [], []
    for _ in range(count):
        for envelope, sink in ((_SHORT_ENVELOPE, shorts), (_LONG_ENVELOPE, longs)):
            signs = rng.choice([-1.0, 1.0], size=envelope.size)
            signs[0] = 1.0
            motif = envelope * signs
            motif = motif - motif.mean()
            sink.append(motif / np.abs(motif).max())
    return np.array(shorts), np.array(longs)


def community_map(channels: int, communities: int) -> np.ndarray:
    """Contiguous partition of channel indices into communities."""
    return (np.arange(channels) * communities) // channels


# Latent interval mixture: bit = 1 draws z from (0, pi) with weight 3/4 and
# from (-2pi, -pi) with weight 1/4; bit = 0 negates the draw. Both conditional
# distributions have mean zero and mirror-matched even moments, so no affine
# readout of z carries the bit, while sign(sin z) equals the bit exactly and
# alternates over four intervals of (-2pi, 2pi).
_LATENT_BASES = np.array([0.0, -2.0 * np.pi])
_LATENT_CDF = np.cumsum([0.75, 0.25])


def gen_synthetic(spec: SynthSpec) -> SynthDataset:
    rng = np.random.default_rng(spec.seed)
    n_motif = spec.motif_classes
    comm_of_channel = community_map(spec.C, spec.communities)
    bounds = np.searchsorted(comm_of_channel, np.arange(spec.communities + 1))
    shorts, longs = _make_motifs(rng, n_motif)
    directions = rng.normal(size=(n_motif, spec.P))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    latent_dir = rng.normal(size=spec.P)
    latent_dir /= np.linalg.norm(latent_dir)

    trials_per_session = spec.trials_per_subject // spec.sessions_per_subject
    n_total = spec.n_subjects * spec.trials_per_subject
    samples = np.zeros((n_total, spec.C, spec.S, spec.P))
    labels = np.zeros(n_total, dtype=np.int64)
    onsets = np.zeros(n_total, dtype=np.int64)
    # samples run subject by subject, session by session, trial by trial
    subjects = np.repeat(np.arange(1, spec.n_subjects + 1), spec.trials_per_subject)
    sessions = np.tile(np.repeat(np.arange(spec.sessions_per_subject), trials_per_session),
                       spec.n_subjects)
    trials = np.tile(np.arange(trials_per_session), spec.n_subjects * spec.sessions_per_subject)
    motif_of_label = np.arange(spec.M) // 2 if spec.nonlinearity else np.arange(spec.M)

    onset_max = spec.S - LONG_MOTIF_LEN
    shapes = np.zeros((n_motif, spec.S))
    for m in range(n_motif):
        shapes[m, :LONG_MOTIF_LEN] = longs[m]
        shapes[m, :SHORT_MOTIF_LEN] += shorts[m]
    # bumps[m, onset] is the (S, P) motif field of class m rolled to the onset
    fields = np.stack([np.roll(shapes, onset, axis=1) for onset in range(onset_max + 1)], axis=1)
    bumps = spec.motif_amp * fields[..., None] * directions[:, None, None, :]
    offset = np.empty(spec.P)
    # Each draw fills its destination in place with the values, order and
    # arithmetic of `normal(0, scale)` (scale * z + 0.0) and `choice`.
    i = 0
    for _ in range(spec.n_subjects):
        # Balanced within each subject (+-1): cycle the classes, then shuffle
        # within each session so trial order carries no label information.
        subject_labels = np.tile(np.arange(spec.M), spec.trials_per_subject // spec.M + 1)
        subject_labels = subject_labels[:spec.trials_per_subject]
        for session in range(spec.sessions_per_subject):
            block = subject_labels[session * trials_per_session:(session + 1) * trials_per_session].copy()
            rng.shuffle(block)
            for label in block:
                x = samples[i]
                if spec.noise_scale > 0:
                    rng.standard_normal(out=x)
                    x *= spec.noise_scale
                    x += 0.0
                onset = int(rng.integers(0, onset_max + 1))
                bump = bumps[motif_of_label[label], onset]
                for g in range(spec.communities):
                    members = x[bounds[g]:bounds[g + 1]]
                    if spec.community_scale > 0:
                        rng.standard_normal(out=offset)
                        offset *= spec.community_scale
                        offset += 0.0
                        members += offset
                    # equiprobable sign keeps every class's mean field at zero
                    sign = (-1.0, 1.0)[rng.integers(0, 2)] if spec.sign_flips else 1.0
                    members += sign * bump
                if spec.nonlinearity:
                    # sign(sin z) equals the assigned label's low bit, so the
                    # per-subject class balance stays exact.
                    z = _LATENT_BASES[_LATENT_CDF.searchsorted(rng.random(), side="right")]
                    z += rng.uniform(0.0, np.pi)
                    x += spec.latent_scale * (z if label % 2 == 1 else -z) * latent_dir
                labels[i] = label
                onsets[i] = onset
                i += 1

    meta = {
        "n_samples": n_total,
        "M": spec.M,
        "C": spec.C,
        "S": spec.S,
        "P": spec.P,
        "subjects": subjects.tolist(),
        "sessions": sessions.tolist(),
        "trials": trials.tolist(),
        "shapes": {"samples": list(samples.shape), "labels": [n_total]},
        "onsets": onsets.tolist(),
        "motif_classes": motif_of_label[labels].tolist(),
        "community_map": comm_of_channel.tolist(),
        "spec": asdict(spec),
    }
    return SynthDataset(samples, labels, meta)


# -- split protocols ---------------------------------------------------------


@dataclass
class DatasetSplit:
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray
    protocol: str


def split_dataset(meta: dict, protocol: str, ratios) -> DatasetSplit:
    """Partition sample indices.

    subject_wise: `ratios` are subject counts (train, val, test) summing to
    the subject population; each split takes a contiguous range of sorted
    subject ids. within_session: `ratios` are trial counts summing to the
    trials in every (subject, session) group, assigned in trial order.
    `ratios` must be three integers >= 0; an integral float such as 6.0 counts.
    """
    ratios = check_items("ratios", ratios, int, "[0, inf)", 3)
    subjects = np.asarray(meta["subjects"])
    sessions = np.asarray(meta["sessions"])
    trials = np.asarray(meta["trials"])

    if protocol == "subject_wise":
        unique = np.unique(subjects)
        if sum(ratios) != unique.size:
            raise ConfigError(f"subject counts {ratios} do not sum to {unique.size} subjects")
        bounds = np.cumsum(ratios)
        groups = (unique[:bounds[0]], unique[bounds[0]:bounds[1]], unique[bounds[1]:bounds[2]])
        parts = [np.where(np.isin(subjects, g))[0] for g in groups]
    elif protocol == "within_session":
        parts = [[], [], []]
        for subject in np.unique(subjects):
            for session in np.unique(sessions[subjects == subject]):
                mask = (subjects == subject) & (sessions == session)
                idx = np.where(mask)[0]
                idx = idx[np.argsort(trials[idx], kind="stable")]
                if sum(ratios) != idx.size:
                    raise ConfigError(
                        f"trial counts {ratios} do not sum to {idx.size} trials "
                        f"in subject {subject}, session {session}")
                bounds = np.cumsum(ratios)
                parts[0].append(idx[:bounds[0]])
                parts[1].append(idx[bounds[0]:bounds[1]])
                parts[2].append(idx[bounds[1]:bounds[2]])
        parts = [np.concatenate(p) if p else np.zeros(0, dtype=np.int64) for p in parts]
    else:
        raise ConfigError(f"unknown protocol {protocol!r}")

    return DatasetSplit(np.sort(parts[0]), np.sort(parts[1]), np.sort(parts[2]), protocol)


# -- tensor files ------------------------------------------------------------


def _write_file(path, magic: bytes, header: dict, arrays) -> None:
    """Write a magic line, a sorted JSON header line and C-order payloads to a temporary
    file in the same directory, then rename it over `path`: a failed write leaves no trace."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(magic + b"\n" + json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
            for arr in arrays:
                fh.write(np.ascontiguousarray(arr))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_tensor(path, tensor, name: str = "tensor", dtype: str = "f8") -> None:
    """Write one tensor: magic line, JSON header line, little-endian payload."""
    if dtype not in _DTYPES:
        raise ConfigError(f"unsupported dtype {dtype!r}; expected one of {sorted(_DTYPES)}")
    arr = tensor.data if isinstance(tensor, Tensor) else np.asarray(tensor)
    _write_file(path, MSTF_MAGIC, {"dtype": dtype, "shape": list(arr.shape), "name": name},
                [np.asarray(arr, dtype=_DTYPES[dtype])])


def _read_header(fh, magic: bytes, keys: tuple[str, ...]) -> dict:
    """Check the magic line of an open .mstf/.ckpt file and parse its JSON
    header line, which must be an object holding `keys`."""
    found = fh.readline().rstrip(b"\n")
    if found != magic:
        raise FormatError(f"bad magic {found!r} at offset 0; expected {magic.decode()!r}")
    try:
        header = json.loads(fh.readline().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"unparseable header at offset {len(magic) + 1}: {exc}") from exc
    if not isinstance(header, dict):
        raise FormatError(f"header at offset {len(magic) + 1} is not a JSON object")
    for key in keys:
        if key not in header:
            raise FormatError(f"header missing key {key!r}")
    return header


def _shape(value, what: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(
            isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in value):
        raise FormatError(f"{what}: shape {value!r} is not a list of nonnegative ints")
    return tuple(value)


def _payload_start(fh, expected: int) -> int:
    """Check that exactly `expected` payload bytes follow the header; return their offset."""
    offset = fh.tell()
    held = os.fstat(fh.fileno()).st_size - offset
    if held != expected:
        problem = "truncated payload" if held < expected else "trailing bytes"
        raise FormatError(f"{problem}: payload length {held} != expected {expected} bytes "
                          f"at offset {offset}")
    return offset


def _readinto(fh, arr: np.ndarray) -> None:
    """Fill C-contiguous `arr` from the file with no intermediate bytes object. The
    caller has checked the file size, so a short read means the file changed under us."""
    if fh.readinto(arr.reshape(-1).view(np.uint8)) != arr.nbytes:
        raise FormatError(f"payload ended early at offset {fh.tell()}")


def read_tensor(path):
    """Check a tensor file's header and payload length, then return the payload as a
    writable C-order array over a copy-on-write mapping of the file: pages are read on
    first touch, writes stay private to the process, and dropping the array unmaps it."""
    with open(path, "rb") as fh:
        header = _read_header(fh, MSTF_MAGIC, ("dtype", "shape", "name"))
        if header["dtype"] not in _DTYPES:
            raise FormatError(f"unsupported dtype {header['dtype']!r} in header")
        shape = _shape(header["shape"], "tensor header")
        dtype = np.dtype(_DTYPES[header["dtype"]])
        count = math.prod(shape)
        start = _payload_start(fh, count * dtype.itemsize)
        if count == 0:
            return np.empty(shape, dtype)
        mapped = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
    return np.frombuffer(mapped, dtype, count, offset=start).reshape(shape)


# -- datasets on disk --------------------------------------------------------


def save_dataset(dirpath, dataset: SynthDataset) -> None:
    dirpath = Path(dirpath)
    dirpath.mkdir(parents=True, exist_ok=True)
    write_tensor(dirpath / "samples.mstf", dataset.samples, name="samples", dtype="f8")
    write_tensor(dirpath / "labels.mstf", dataset.labels, name="labels", dtype="i8")
    (dirpath / "meta.json").write_text(json.dumps(dataset.meta, sort_keys=True, indent=1) + "\n",
                                       encoding="utf-8")


def load_dataset(dirpath) -> SynthDataset:
    dirpath = Path(dirpath)
    for required in ("samples.mstf", "labels.mstf", "meta.json"):
        if not (dirpath / required).exists():
            raise FormatError(f"dataset directory missing {required}")
    samples = read_tensor(dirpath / "samples.mstf")
    if samples.ndim != 4:
        raise FormatError(f"samples.mstf has shape {samples.shape}, expected (N, C, S, P)")
    labels = read_tensor(dirpath / "labels.mstf")
    meta = _read_meta(dirpath / "meta.json", len(samples))
    geometry = tuple(meta[key] for key in ("C", "S", "P"))
    if samples.shape[1:] != geometry:
        raise FormatError(f"samples.mstf has shape {samples.shape}, expected (C, S, P) = "
                          f"{geometry} from meta.json")
    if labels.shape != (len(samples),):
        raise FormatError(f"labels.mstf has shape {labels.shape}, expected one label "
                          f"for each of {len(samples)} samples")
    # a non-integral or non-finite value fails the first test
    if labels.size and not ((labels == np.round(labels)).all()
                            and labels.min() >= 0 and labels.max() < meta["M"]):
        raise FormatError(f"labels.mstf must hold integers in [0, {meta['M']}) "
                          f"(M from meta.json)")
    return SynthDataset(samples, labels.astype(np.int64), meta)


def _read_meta(path: Path, n_samples: int) -> dict:
    """Parse meta.json and check the keys that config and splits read.

    JSON decodes integers to `int` and booleans to `bool`, so an exact type
    test accepts the one and rejects the other.
    """
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"meta.json is not valid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise FormatError("meta.json does not hold a JSON object")
    for key in ("C", "S", "P", "M"):
        if type(meta.get(key)) is not int or meta[key] < 1:
            raise FormatError(f"meta.json: {key!r} is {meta.get(key)!r}, not a positive int")
    for key in ("subjects", "sessions", "trials"):
        values = meta.get(key)
        if not isinstance(values, list) or not set(map(type, values)) <= {int}:
            raise FormatError(f"meta.json: {key!r} is missing or not a list of ints")
        if len(values) != n_samples:
            raise FormatError(f"meta.json: {key!r} has {len(values)} entries "
                              f"for {n_samples} samples")
    return meta


# -- checkpoints --------------------------------------------------------------


def _collect_checkpoint_tensors(model, optimizer=None):
    named = [("param." + n, p.data) for n, p in model.named_parameters()]
    named += [("buffer." + n, b) for n, b in model.named_buffers()]
    if optimizer is not None:
        named += [("opt." + n, b) for n, b in optimizer.named_state()]
    return named


def save_checkpoint(path, model, optimizer=None, epoch: int = 0, val_kappa: float = 0.0) -> None:
    """Persist model parameters, norm buffers, and optimizer state bit-exactly,
    written atomically (see `_write_file`)."""
    named = _collect_checkpoint_tensors(model, optimizer)
    header = {"config": asdict(model.cfg), "config_hash": model.cfg.config_hash(),
              "epoch": int(epoch), "val_kappa": float(val_kappa),
              "tensors": [{"name": n, "dtype": "f8", "shape": list(np.asarray(a).shape)}
                          for n, a in named]}
    _write_file(path, CKPT_MAGIC, header, (np.asarray(a, dtype="<f8") for _, a in named))


def _read_checkpoint_header(fh) -> dict:
    header = _read_header(fh, CKPT_MAGIC, ("config", "config_hash", "epoch", "val_kappa", "tensors"))
    entries = header["tensors"]
    if not isinstance(entries, list) or not all(
            isinstance(e, dict) and isinstance(e.get("name"), str) for e in entries):
        raise FormatError("header key 'tensors' is not a list of named entries")
    for e in entries:
        _shape(e.get("shape"), f"tensor {e['name']}")
    return header


def read_checkpoint_header(path) -> dict:
    with open(path, "rb") as fh:
        return _read_checkpoint_header(fh)


def _check_config_hash(header: dict, cfg) -> None:
    if header["config_hash"] != cfg.config_hash():
        raise CompatibilityError(
            f"checkpoint config hash {header['config_hash']} does not match "
            f"model config hash {cfg.config_hash()}")


def load_checkpoint(path, model, optimizer=None) -> dict:
    """Restore state saved by save_checkpoint into the live arrays; returns the header.

    Names, shapes, lengths and the step count are checked before any array is
    filled, so a rejected file changes nothing. Unrestored payloads are skipped."""
    with open(path, "rb") as fh:
        header = _read_checkpoint_header(fh)
        _check_config_hash(header, model.cfg)
        listed, size = {}, 0  # name -> (offset within the payload, shape)
        for e in header["tensors"]:
            listed[e["name"]] = (size, tuple(e["shape"]))
            size += math.prod(e["shape"]) * 8
        live = _collect_checkpoint_tensors(model, optimizer)
        for key, target in live:
            if key not in listed:
                raise CompatibilityError(f"checkpoint missing {key}")
            if listed[key][1] != target.shape:
                raise CompatibilityError(f"{key}: shape {listed[key][1]} != {target.shape}")
            # a non-contiguous target would be filled through a copy and lose the data
            if target.dtype != np.dtype("<f8") or not target.flags.c_contiguous:
                raise CompatibilityError(f"{key}: live array is not C-contiguous float64")
        start = _payload_start(fh, size)
        if optimizer is not None:
            fh.seek(start + listed["opt.step_count"][0])
            step = float(np.frombuffer(fh.read(8), "<f8")[0])
            if not step.is_integer() or step < 0:
                raise FormatError(f"optimizer step count {step} is not a nonnegative integer")
        for key, target in live:
            fh.seek(start + listed[key][0])
            _readinto(fh, target)
    if optimizer is not None:
        optimizer.step_count = int(step)
    return header


def build_model_from_checkpoint(path):
    """Construct a model from the embedded config and load its state."""
    from .model import ModelConfig, MscgcKanModel

    header = read_checkpoint_header(path)
    try:
        cfg = ModelConfig(**header["config"])
    except (TypeError, ValueError) as exc:
        raise FormatError(f"checkpoint holds no valid model config: {exc}") from exc
    _check_config_hash(header, cfg)
    model = MscgcKanModel(cfg)
    load_checkpoint(path, model)
    return model, header
