"""Benchmark of the mscgc package: one workload, one seed, one process.

Run from the repository root:

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats rounds of the workload, each followed by set-ups for
about ``SETUP_BUDGET_S`` seconds, until ``--seconds`` have passed, and reports
the end-to-end metrics named in BENCHMARK.json. ``--trace 1`` runs a warm-up
set-up and round, then ``TRACE_PAIRS`` pairs of an untraced and a traced
set-up + round, alternated, with the traced ones under timing spans (see
spans.py). It reports the per-layer metrics: calls and self time per span for
the last traced set-up plus round, tape-node counts, and the tracing overhead
as the median over the pairs of traced / untraced round time. ``--smoke``
runs the same code at a tiny geometry, with one round, for the tests.

Every run prints provenance and the computed work per training step, then,
as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Scratch files go to ``.bench_work/`` in the
repository and are removed on exit. BLAS threads are set to the number of
CPUs this process may use, before numpy loads.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK_ROOT = ROOT / ".bench_work"
WORKLOAD_NAMES = ("desk_train", "wide_head_train", "checkpoint_eval")
# Set-up time each untraced round is followed by: set-ups repeat until it
# is used, at least once.
SETUP_BUDGET_S = 1.5
TRACE_PAIRS = 3
PREPARE_TIMEOUT_S = 170


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny geometry, one round")
    ap.add_argument("--prepare", metavar="DIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mscgc" / "__init__.py").is_file():
        print(f"perfbench: no mscgc package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    w = workloads.get_workload(args.workload, args.smoke)
    if args.prepare:
        workloads.prepare_checkpoint(w, args.seed, Path(args.prepare))
        return 0

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK_ROOT))
    try:
        run = workloads.Run(w, args.seed, workdir)
        if not w.train:
            run.record_preparation(prepare(args, workdir))
        print(json.dumps({"provenance": provenance(args, w, declared, nproc)}, sort_keys=True))
        if args.trace:
            values = traced(args, run)
        else:
            values = untraced(args, run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in declared[kind]:
        if m["name"] not in values:
            print(f"perfbench: no measurement for {m['name']}", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    tally = run.tally
    for reason in tally.reasons:
        print(f"FAILED: {reason}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def prepare(args, workdir: Path) -> dict:
    """Train the checkpoint in a child process, so this process's peak
    memory is that of evaluation alone."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--prepare", str(workdir)]
    if args.smoke:
        cmd.append("--smoke")
    subprocess.run(cmd, check=True, timeout=PREPARE_TIMEOUT_S)
    return json.loads((workdir / "prep.json").read_text(encoding="utf-8"))


def untraced(args, run):
    # The first set-up pays one-off costs (first touch of memory and files)
    # and is not counted; the timed ones are spread over the run.
    run.setup()
    run.m.setup_s.clear()
    start = time.perf_counter()
    while True:
        run.round()
        setups_start = time.perf_counter()
        while True:
            run.setup()
            if args.smoke or time.perf_counter() - setups_start >= SETUP_BUDGET_S:
                break
        if args.smoke or time.perf_counter() - start >= args.seconds:
            break
    run.check_predictions()
    m = run.m
    missing = [name for name in ("train_samples_per_s", "eval_samples_per_s", "saliency_ms")
               if not getattr(m, name)]
    if missing:
        raise SystemExit(f"perfbench: nothing measured for {missing}; see FAILED lines")
    ms = m.saliency_ms
    values = {
        "setup_s": statistics.median(m.setup_s),
        "train_samples_per_s": statistics.median(m.train_samples_per_s),
        "eval_samples_per_s": statistics.median(m.eval_samples_per_s),
        "saliency_ms_p50": statistics.median(ms),
        "saliency_ms_p90": statistics.quantiles(ms, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"{run.w.name}: {len(m.round_s)} rounds in {sum(m.round_s):.2f} s, "
          f"{len(m.setup_s)} set-ups, {len(m.eval_samples_per_s)} eval passes, "
          f"{len(ms)} saliency maps")
    for name, value in values.items():
        print(f"  {name:22s} {value:.6g}")
    return values


def traced(args, run):
    import spans

    # Warm-up, then untraced and traced set-up + round pairs, alternated so
    # that drift in the host's speed falls on both sides alike.
    run.setup()
    run.round()
    untraced_s, traced_s = [], []
    for _ in range(TRACE_PAIRS):
        run.setup()
        run.round()
        untraced_s.append(run.m.round_s[-1])
        tracer, wall = trace_once(run, spans)
        traced_s.append(run.m.round_s[-1])
    run.check_predictions()

    calls, self_s = tracer.totals()
    counts = tracer.counts
    values = {}
    for name in spans.SPAN_NAMES:
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.self_s"] = self_s[name]
    values.update({
        "data.save_checkpoint.bytes": counts["data.save_checkpoint.bytes"],
        "tensor.tape_nodes_per_step": ratio(counts["step_nodes"], counts["step_backwards"]),
        "tensor.tape_nodes_per_saliency": ratio(counts["saliency_nodes"],
                                                counts["saliency_backwards"]),
        "tensor.eval_tape_nodes_per_batch": ratio(counts["eval_nodes"], counts["eval_batches"]),
        "trace.untraced_round_s": statistics.median(untraced_s),
        "trace.traced_round_s": statistics.median(traced_s),
        "trace.overhead_pct": 100.0 * (statistics.median(
            t / u for t, u in zip(traced_s, untraced_s)) - 1.0),
    })
    print_span_table(run.w.name, calls, self_s, wall, values, traced_s, untraced_s)
    return values


def trace_once(run, spans):
    """One set-up + round under spans, with the self-checks of the spans.
    Returns the tracer and the traced wall time."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        rec = tracer.open("bench.setup")
        run.setup()
        tracer.close(rec)
        rec = tracer.open("bench.round")
        run.round()
        tracer.close(rec)
        wall = time.perf_counter() - start
    finally:
        restored = tracer.restore()

    calls, self_s = tracer.totals()
    tally = run.tally
    coverage = spans.coverage_problems(run.w.name, calls)
    tally.check(not coverage, "; ".join(coverage))
    self_sum = sum(self_s.values())
    tally.check(abs(self_sum - wall) <= spans.SELF_SUM_TOLERANCE * wall
                and min(self_s.values()) >= 0 and not tracer.stack,
                f"span self times sum to {self_sum:.6f} s, traced wall time {wall:.6f} s, "
                f"{len(tracer.stack)} spans left open")
    tally.check(restored, "an original function was not restored after tracing")
    return tracer, wall


def print_span_table(workload, calls, self_s, wall, values, traced_s, untraced_s) -> None:
    print(f"per-layer self time, {workload}: traced set-up + round {wall:.3f} s "
          f"(self times sum to {sum(self_s.values()):.3f} s)")
    print(f"  {'span':34s} {'calls':>8s} {'self_s':>10s} {'share':>7s}")
    for name in sorted(self_s, key=self_s.get, reverse=True):
        print(f"  {name:34s} {calls[name]:8d} {self_s[name]:10.4f} "
              f"{100 * self_s[name] / wall:6.1f}%")
    groups = {
        "MCR block forward (graph.*, layers.*)":
            [n for n in self_s if n.startswith(("graph.", "layers."))],
        "MCR-only backward (conv1d, batch_norm, elu, pad_left)":
            [f"tensor.backward.{op}" for op in ("conv1d", "batch_norm", "elu", "pad_left")],
        "optimizer (training.adamw_step + training.clip_gradients)":
            ["training.adamw_step", "training.clip_gradients"],
        "KAN forward (kan.*)": [n for n in self_s if n.startswith("kan.")],
    }
    for label, names in groups.items():
        share = sum(self_s[n] for n in names) / wall
        print(f"  group {label}: {100 * share:.1f}%")
    pairs = ", ".join(f"{t:.3f}/{u:.3f}" for t, u in zip(traced_s, untraced_s))
    print(f"  tracing overhead {values['trace.overhead_pct']:.1f}%, median over pairs of "
          f"traced/untraced round s: {pairs}")


def ratio(num, den) -> float:
    return num / den if den else 0.0


# -- provenance ----------------------------------------------------------------


def provenance(args, w, declared, nproc: int) -> dict:
    import numpy as np
    import workcount
    from mscgc.model import MscgcKanModel
    from workloads import model_config, synth_spec

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cfg = model_config(w, synth_spec(w, args.seed), args.seed)
    n_params = sum(p.data.size for _, p in MscgcKanModel(cfg).named_parameters()
                   if p.requires_grad)
    work = workcount.step_work(cfg, w.batch_size, n_params)
    print(f"computed work per training step, batch {w.batch_size} (not measured):")
    for name, row in work.items():
        print(f"  {name:16s} {row['flops']:14d} FLOP {row['bytes']:12d} B "
              f"{row['ops_per_byte']:7.2f} FLOP/B")
    why = {x["name"]: x["why"] for x in declared["workloads"]}
    return {
        "workload": w.name,
        "seed": args.seed,
        "why": why[w.name],
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": nproc,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "git_sha": git_sha(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((ROOT / "src").rglob("*.py"))),
        "trainable_params": n_params,
        "computed_work_per_step": work,
    }


def blas_threads(np):
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_sha():
    """Commit of the checkout when it is a git work tree, else None. Git does
    not look above the checkout for a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


if __name__ == "__main__":
    sys.exit(main())
