"""Work per training step computed from the geometry, not measured.

FLOPs count multiply and add separately. Bytes are the float64 operands and
results of each GEMM, or for AdamW the ideal one pass over parameter,
gradient and both moments (read 4 arrays, write 3); caches and numpy
temporaries are ignored, so real traffic is higher. No roofline ratio is
given, because peak bandwidth is not measured.
"""

from __future__ import annotations

F64 = 8
ADAMW_FLOPS_PER_PARAM = 15    # finiteness test, two moment updates, sqrt, divide, decay, step
ADAMW_BYTES_PER_PARAM = 7 * F64


def _gemm(m: int, k: int, n: int) -> tuple[int, int]:
    """FLOPs and operand/result bytes of an (m x k) @ (k x n) product."""
    return 2 * m * k * n, F64 * (m * k + k * n + m * n)


def _sum(*pairs) -> tuple[int, int]:
    return sum(p[0] for p in pairs), sum(p[1] for p in pairs)


def step_work(cfg, batch: int, n_params: int) -> dict:
    """Forward + backward + AdamW work of one training step, per kernel family."""
    b, c, s, d = batch, cfg.C, cfg.S, cfg.D
    rows = {}
    if cfg.block == "mcr":
        n = b * c
        # conv1d: forward and weight gradient over S outputs, input gradient
        # over the S + k - 1 padded positions, each one im2col GEMM.
        rows["causal_conv"] = _sum(*(
            _sum(_gemm(n * s, d * k, d), _gemm(d, n * s, d * k), _gemm(n * (s + k - 1), d * k, d))
            for k in cfg.kernels))
        # Z[b] = A_hat @ O[b]: forward, dA and dO.
        rows["graph_propagate"] = _sum(*(_gemm(c, c, b * d * s) for _ in range(3)))
    flat = c * s * d
    nb = 4 + 2 * max(0, cfg.harmonics - 1)
    if cfg.kan == "kan":
        rows["kan_projections"] = _sum(
            *(_gemm(b, flat, cfg.hidden) for _ in range(3)),
            *(_gemm(b, nb * cfg.hidden, cfg.out_dim) for _ in range(3)))
    rows["adamw"] = (ADAMW_FLOPS_PER_PARAM * n_params, ADAMW_BYTES_PER_PARAM * n_params)
    return {name: {"flops": flops, "bytes": nbytes, "ops_per_byte": flops / nbytes}
            for name, (flops, nbytes) in rows.items()}
