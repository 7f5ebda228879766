"""Slow loop-by-loop transcriptions of the model's equations.

Each function spells out one equation element by element with plain Python
floats, so it shares no vectorized code with the package. Tests compare the
package against these at 1e-12. Covered so far: the ELU-activated adjacency
with self-loops, its clamped |row-sum| degrees, the symmetric normalization
D^-1/2 Ã D^-1/2 (Kipf & Welling, ICLR 2017), graph propagation, the causal
convolution, batch norm in train and eval mode, the causal branch, the
residual post-norm and the whole MCR block (dropout at rate 0 or in eval
mode, where it is the identity). The optimizer half transcribes one AdamW
step in textbook form and the global-norm gradient clip; the tests hold the
package to those at a measured tolerance instead, since the package computes
the step in a rearranged form that rounds differently. The last section
keeps the synthetic generator as a plain per-sample loop of `Generator`
calls, so tests can hold the package's draw order and arithmetic to it bit
for bit.
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


def causal_conv(x, kernels, bias) -> np.ndarray:
    """Zero left pad k-1, then
    y[n, t, o] = b_o + sum_j sum_i W[o, i, j] * x[n, t - (k-1) + j, i].

    x is (N, T, ch_in), kernels (ch_out, ch_in, k); y is (N, T, ch_out).
    """
    n_seq, length, ch_in = np.shape(x)
    ch_out, _, k = np.shape(kernels)
    out = np.empty((n_seq, length, ch_out))
    for n in range(n_seq):
        for t in range(length):
            for o in range(ch_out):
                total = float(bias[o])
                for j in range(k):
                    src = t - (k - 1) + j
                    if src < 0:
                        continue  # a zero of the left pad
                    for i in range(ch_in):
                        total += float(kernels[o][i][j]) * float(x[n][src][i])
                out[n, t, o] = total
    return out


def batch_norm(x, axis: int, gamma, beta, running_mean, running_var,
               momentum: float, eps: float, mode: str):
    """Per channel c (the index on `axis`), over every other index:
    train: xhat = (x - mean_c) / sqrt(var_c + eps) with the biased batch
    variance, and running = (1 - momentum) * running + momentum * batch;
    eval: xhat = (x - running_mean_c) / sqrt(running_var_c + eps).
    Returns (gamma_c * xhat + beta_c, new running mean, new running var).
    """
    x = np.asarray(x)
    channels = x.shape[axis]
    members = [[] for _ in range(channels)]
    for index in np.ndindex(*x.shape):
        members[index[axis]].append(index)
    out = np.empty(x.shape)
    new_mean, new_var = [], []
    for c in range(channels):
        values = [float(x[index]) for index in members[c]]
        if mode == "train":
            mean = sum(values) / len(values)
            var = sum((v - mean) * (v - mean) for v in values) / len(values)
            new_mean.append((1 - momentum) * float(running_mean[c]) + momentum * mean)
            new_var.append((1 - momentum) * float(running_var[c]) + momentum * var)
        else:
            mean, var = float(running_mean[c]), float(running_var[c])
            new_mean.append(mean)
            new_var.append(var)
        scale = 1.0 / math.sqrt(var + eps)
        for index, v in zip(members[c], values):
            out[index] = float(gamma[c]) * ((v - mean) * scale) + float(beta[c])
    return out, np.array(new_mean), np.array(new_var)


def elu_all(x) -> np.ndarray:
    x = np.asarray(x)
    out = np.empty(x.shape)
    for index in np.ndindex(*x.shape):
        out[index] = elu(float(x[index]))
    return out


def causal_branch(x, branch: dict, momentum: float, eps: float, mode: str):
    """ELU(BN(causal_conv(x))) on (N, T, D), batch norm per feature d over (N, T).

    `branch` holds kernels, bias, gamma, beta, running_mean and running_var.
    Returns (output, new running mean, new running var).
    """
    y = causal_conv(x, branch["kernels"], branch["bias"])
    y, mean, var = batch_norm(y, 2, branch["gamma"], branch["beta"], branch["running_mean"],
                              branch["running_var"], momentum, eps, mode)
    return elu_all(y), mean, var


def residual_postnorm(z, x, post: dict, momentum: float, eps: float, mode: str):
    """ELU(BN(Z + x)) on (B, C, F), batch norm per channel c over (B, F)."""
    z, x = np.asarray(z), np.asarray(x)
    total = np.empty(z.shape)
    for index in np.ndindex(*z.shape):
        total[index] = float(z[index]) + float(x[index])
    y, mean, var = batch_norm(total, 1, post["gamma"], post["beta"], post["running_mean"],
                              post["running_var"], momentum, eps, mode)
    return elu_all(y), mean, var


def mcr_block(f, branches: list[dict], a, post: dict, momentum: float, eps: float,
              mode: str, eps_deg: float = 1e-6):
    """H = ELU(BN(Â · sum_k branch_k(f) + f)) for f (B, C, S, D).

    Each branch runs along S on every (b, c) sequence, with its batch norm
    pooling all B*C sequences. Â mixes channels at each (b, s, d).
    Returns (H, [(mean, var) per branch], (post mean, post var)).
    """
    f = np.asarray(f)
    b_n, c_n, s_n, d_n = f.shape
    seqs = np.empty((b_n * c_n, s_n, d_n))
    for b in range(b_n):
        for c in range(c_n):
            for s in range(s_n):
                for d in range(d_n):
                    seqs[b * c_n + c, s, d] = f[b, c, s, d]
    fused = np.zeros((b_n * c_n, s_n, d_n))
    stats = []
    for branch in branches:
        y, mean, var = causal_branch(seqs, branch, momentum, eps, mode)
        stats.append((mean, var))
        for index in np.ndindex(*fused.shape):
            fused[index] += float(y[index])
    width = s_n * d_n
    o = np.empty((b_n, c_n, width))
    x = np.empty((b_n, c_n, width))
    for b in range(b_n):
        for c in range(c_n):
            for s in range(s_n):
                for d in range(d_n):
                    o[b, c, s * d_n + d] = fused[b * c_n + c, s, d]
                    x[b, c, s * d_n + d] = f[b, c, s, d]
    z = graph_propagate(o, normalize_adjacency(a, eps_deg))
    h, post_mean, post_var = residual_postnorm(z, x, post, momentum, eps, mode)
    out = np.empty(f.shape)
    for b in range(b_n):
        for c in range(c_n):
            for s in range(s_n):
                for d in range(d_n):
                    out[b, c, s, d] = h[b, c, s * d_n + d]
    return out, stats, (post_mean, post_var)


def weight_decay_of(name: str, weight_decay: float, decay_biases: bool) -> float:
    """Decay applies to every parameter except biases, norm scales and shifts,
    and the adjacency logits, unless `decay_biases` is set."""
    exempt = (name.endswith(".bias") or name.endswith(".gamma") or name.endswith(".beta")
              or name.endswith("ln_gamma") or name.endswith("ln_beta")
              or name.endswith("adjacency.A"))
    return 0.0 if exempt and not decay_biases else weight_decay


def adamw_step(theta, grad, m, v, t: int, lr: float, weight_decay: float,
               beta1: float, beta2: float, eps: float):
    """One decoupled-weight-decay Adam step (Loshchilov & Hutter, ICLR 2019)
    at step t >= 1, per element i:
        m_i = beta1 m_i + (1 - beta1) g_i
        v_i = beta2 v_i + (1 - beta2) g_i^2
        m̂_i = m_i / (1 - beta1^t),  v̂_i = v_i / (1 - beta2^t)
        theta_i = theta_i - lr (m̂_i / (sqrt(v̂_i) + eps) + weight_decay theta_i)
    Returns the new (theta, m, v); the inputs are not written.
    """
    theta, grad, m, v = (np.asarray(a, dtype=float) for a in (theta, grad, m, v))
    new_theta, new_m, new_v = np.empty(theta.shape), np.empty(theta.shape), np.empty(theta.shape)
    for i in np.ndindex(*theta.shape):
        g = float(grad[i])
        m_i = beta1 * float(m[i]) + (1.0 - beta1) * g
        v_i = beta2 * float(v[i]) + (1.0 - beta2) * (g * g)
        m_hat = m_i / (1.0 - beta1 ** t)
        v_hat = v_i / (1.0 - beta2 ** t)
        x = float(theta[i])
        new_theta[i] = x - lr * (m_hat / (math.sqrt(v_hat) + eps) + weight_decay * x)
        new_m[i], new_v[i] = m_i, v_i
    return new_theta, new_m, new_v


def clip_gradients(grads, max_norm: float):
    """Global-norm clip: ||g|| = sqrt(sum over every gradient and element of
    g_i^2); each g_i becomes g_i * max_norm / ||g|| when ||g|| > max_norm.
    Returns (||g||, the clipped gradients)."""
    total = 0.0
    for g in grads:
        for value in np.asarray(g, dtype=float).flat:
            total += float(value) * float(value)
    norm = math.sqrt(total)
    scale = max_norm / norm if norm > max_norm else 1.0
    clipped = []
    for g in grads:
        g = np.asarray(g, dtype=float)
        out = np.empty(g.shape)
        for i in np.ndindex(*g.shape):
            out[i] = float(g[i]) * scale
        clipped.append(out)
    return norm, clipped


# -- the synthetic generator's draw order --------------------------------------

SHORT_MOTIF_LEN = 3
LONG_MOTIF_LEN = 5
_SHORT_ENVELOPE = np.array([2.0, 0.55, 0.35])
_LONG_ENVELOPE = np.array([2.0, 0.60, 0.40, 0.28, 0.18])
_LATENT_BASES = np.array([0.0, -2.0 * np.pi])
_LATENT_WEIGHTS = np.array([0.75, 0.25])


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


def _draw_latent(rng: np.random.Generator, bit: int) -> float:
    base = _LATENT_BASES[rng.choice(len(_LATENT_BASES), p=_LATENT_WEIGHTS)]
    z = base + rng.uniform(0.0, np.pi)
    return z if bit == 1 else -z


def gen_synthetic(spec):
    """The generator's per-sample loop as it stood before its draws were
    rewritten in place: fancy-indexed community updates, a fresh bump per
    sample, `choice` for the sign and the latent interval. Returns
    (samples, labels, onsets); the package must match it bit for bit."""
    rng = np.random.default_rng(spec.seed)
    n_motif = spec.motif_classes
    comm_of_channel = community_map(spec.C, spec.communities)
    comm_members = [np.where(comm_of_channel == g)[0] for g in range(spec.communities)]
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
                motif_class = motif_of_label[label]
                x = rng.normal(0.0, spec.noise_scale, (spec.C, spec.S, spec.P)) \
                    if spec.noise_scale > 0 else np.zeros((spec.C, spec.S, spec.P))
                onset = int(rng.integers(0, onset_max + 1))
                field = np.roll(shapes[motif_class], onset)
                bump = spec.motif_amp * field[:, None] * directions[motif_class][None, :]
                for g in range(spec.communities):
                    if spec.community_scale > 0:
                        offset = rng.normal(0.0, spec.community_scale, spec.P)
                        x[comm_members[g]] += offset[None, None, :]
                    # equiprobable sign keeps every class's mean field at zero
                    sign = float(rng.choice([-1.0, 1.0])) if spec.sign_flips else 1.0
                    x[comm_members[g]] += sign * bump[None]
                if spec.nonlinearity:
                    # sign(sin z) equals the assigned label's low bit, so the
                    # per-subject class balance stays exact.
                    z = _draw_latent(rng, label % 2)
                    x += spec.latent_scale * z * latent_dir[None, None, :]
                samples[i] = x
                labels[i] = label
                onsets[i] = onset
                i += 1
    return samples, labels, onsets
