"""Alternating benchmark runs of a parent commit against this checkout.

Run from anywhere inside the repository:

    python3 tools/bench_pairs.py --parent HEAD --workloads checkpoint_eval \\
        --seeds 901-910 --out BENCH_9.json

Both sides run from copies in a temporary directory, which is removed
afterwards: the parent commit is extracted with ``git archive``, and the
change side is a copy of the files ``git ls-files --cached --others
--exclude-standard`` lists in this checkout, as they stand on disk
(uncommitted edits and new untracked files included, ignored files such as
caches left out). So the two sides differ only in their files, not in where
they run from. For every workload and seed
the command that BENCHMARK.json declares runs once on each side, for the run
length it declares, the parent first on even-numbered pairs and the change
first on odd ones. Both sides must hold identical benchmark files
(BENCHMARK.json and its ``paths``), or nothing runs.

The output file holds a list of series, one per invocation; an existing file
gains a new series, so it keeps every run made. A series holds each run's
metrics, failures and wall time, and per workload and metric: each side's
median and quartiles (linear interpolation), the parent's interquartile
range, the number of pairs the change wins (ties count for neither), the
median gain, the benchmark's regression bound, and whether a gain is
claimable (wins in at least nine tenths of the pairs, median gain above the
parent's interquartile range). Each metric with a bound gets a verdict:
``within`` or ``outside`` the bound by the medians, or ``unresolved`` where
the parent's interquartile range exceeds the bound times its median, unless
every change run beats every parent run. The summary printed at the end
shows each verdict, then both sides' source line counts. The file is
rewritten after every pair. Stopped by SIGTERM, it stops the run in flight
and every process that run started, removes the temporary directory and
exits with status 143. Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

RUN_TIMEOUT_S = 900
PROVENANCE_KEYS = ("nproc", "blas", "blas_threads", "numpy", "python", "git_sha", "src_lines")


def parse_seeds(text: str) -> list[int]:
    """'901-910' or '901,905,907' (or a mix) to a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError("no seeds given")
    return seeds


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    ap.add_argument("--workloads", required=True, help="comma-separated workload names")
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="e.g. 901-910 or 901,903")
    ap.add_argument("--out", required=True, help="JSON file to create or append a series to")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", *args], cwd=root, check=True, capture_output=True,
                          text=True).stdout.strip()


def extract(root: Path, rev: str, dest: Path) -> None:
    """Write the files of commit `rev` into `dest`."""
    archive = dest.with_suffix(".tar")
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), rev], cwd=root,
                   check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()


def copy_checkout(root: Path, dest: Path) -> None:
    """Copy the files git would see in this checkout, as they stand on disk,
    into `dest`; listed files that were deleted on disk are skipped."""
    for rel in git(root, "ls-files", "--cached", "--others", "--exclude-standard", "-z").split("\0"):
        path = root / rel
        if rel and path.is_file():
            (dest / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(path, dest / rel)


def bench_files(root: Path, declared: dict) -> dict[str, bytes]:
    files = {"BENCHMARK.json": (root / "BENCHMARK.json").read_bytes()}
    for top in declared["paths"]:
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                files[str(path.relative_to(root))] = path.read_bytes()
    return files


def src_lines(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def run_once(root: Path, command: list[str], workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One benchmark process; its result line, provenance and failure lines."""
    cmd = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(trace)]
    start = time.perf_counter()
    # in a session of its own, so that stopping it stops its children too
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {RUN_TIMEOUT_S} s",
                "wall_s": time.perf_counter() - start}
    finally:
        if proc.returncode is None:  # timed out, or this process is being stopped
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    record = {"ok": False, "returncode": proc.returncode, "wall_s": time.perf_counter() - start}
    lines = stdout.splitlines()
    for line in lines:
        if line.startswith('{"provenance"'):
            prov = json.loads(line)["provenance"]
            record["provenance"] = {k: prov.get(k) for k in PROVENANCE_KEYS}
    record["failed_reasons"] = [line for line in lines if line.startswith("FAILED:")]
    record["rounds"] = next((line for line in lines if " rounds in " in line), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if proc.returncode == 0 and isinstance(result, dict) and "metrics" in result:
        record.update(ok=True, correct=result["correct"], attempted=result["attempted"],
                      failed=result["failed"],
                      metrics={k: v["value"] for k, v in result["metrics"].items()})
    else:
        record["error"] = (stderr or stdout)[-2000:]
    return record


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list[dict], declared: dict, trace: int) -> dict:
    """Per metric of one workload: both sides' spread, change wins, claim and bound."""
    kind = "per_layer" if trace else "end_to_end"
    spec = {m["name"]: m for m in declared[kind]}
    pairs = {}
    for r in runs:
        pairs.setdefault(r["seed"], {})[r["side"]] = r
    complete = [p for p in pairs.values()
                if p.get("parent", {}).get("ok") and p.get("change", {}).get("ok")]
    out = {"pairs": len(pairs), "complete_pairs": len(complete)}
    for side in ("parent", "change"):
        done = [r for r in runs if r["side"] == side]
        out[side] = {"runs": len(done), "runs_failed": sum(not r["ok"] for r in done),
                     "attempted": sum(r.get("attempted", 0) for r in done),
                     "failed": sum(r.get("failed", 0) for r in done)}
    metrics = {}
    for name, m in spec.items():
        if not complete or name not in complete[0]["parent"]["metrics"]:
            continue
        sign = 1.0 if m["better"] == "higher" else -1.0
        par = [p["parent"]["metrics"][name] for p in complete]
        chg = [p["change"]["metrics"][name] for p in complete]
        pq, cq = quartiles(par), quartiles(chg)
        gain = sign * (cq[1] - pq[1])
        row = {
            "unit": m["unit"], "better": m["better"],
            "parent": {"values": par, "median": pq[1], "q1": pq[0], "q3": pq[2]},
            "change": {"values": chg, "median": cq[1], "q1": cq[0], "q3": cq[2]},
            "parent_iqr": pq[2] - pq[0],
            "change_wins": sum(sign * (c - p) > 0 for p, c in zip(par, chg)),
            "ties": sum(c == p for p, c in zip(par, chg)),
            "median_gain": gain,
            "ratio": cq[1] / pq[1] if pq[1] else None,
        }
        row["gain_claimable"] = (row["change_wins"] >= 0.9 * len(pairs)
                                 and gain > row["parent_iqr"])
        if "bound" in m:
            row["bound"] = m["bound"]
            row["within_bound"] = -gain <= m["bound"] * abs(pq[1])
            beats_all = min(sign * c for c in chg) > max(sign * p for p in par)
            if row["parent_iqr"] > m["bound"] * abs(pq[1]) and not beats_all:
                row["verdict"] = "unresolved"
            else:
                row["verdict"] = "within" if row["within_bound"] else "outside"
        metrics[name] = row
    out["metrics"] = metrics
    return out


def src_lines_summary(series: dict) -> str:
    """The source line counts of both sides, as the series recorded them."""
    return (f"src lines: parent {series['parent']['src_lines']} → change "
            f"{series['change']['src_lines']}")


def write_json(path: Path, doc: dict) -> None:
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    os.replace(tmp, path)


def stop(signum, frame):
    """Turn SIGTERM into SystemExit, so the cleanup in `main` runs."""
    sys.exit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, stop)
    args = parse_args(argv)
    root = Path(git(Path.cwd(), "rev-parse", "--show-toplevel"))
    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workloads.split(",")
    known = {w["name"] for w in declared["workloads"]}
    if not set(workloads) <= known:
        print(f"bench_pairs: unknown workloads {sorted(set(workloads) - known)}", file=sys.stderr)
        return 2
    out = Path(args.out)
    doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {"series": []}
    if not isinstance(doc, dict) or not isinstance(doc.get("series"), list):
        print(f"bench_pairs: {out} exists and holds no series list", file=sys.stderr)
        return 2
    seconds = declared["run_seconds"]

    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        sides = {"parent": tmp / "parent", "change": tmp / "change"}
        extract(root, args.parent, sides["parent"])
        copy_checkout(root, sides["change"])
        if bench_files(sides["parent"], declared) != bench_files(sides["change"], declared):
            print("bench_pairs: the benchmark files differ between the parent and this "
                  "checkout", file=sys.stderr)
            return 2
        series = {
            "command": declared["command"] + ["--workload", "W", "--seed", "N", "--seconds",
                                              str(seconds), "--trace", str(args.trace)],
            "invocation": [Path(sys.argv[0]).name] + list(sys.argv[1:] if argv is None else argv),
            "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "host": {"platform": platform.platform(), "python": platform.python_version(),
                     "nproc": len(os.sched_getaffinity(0))},
            "parent": {"rev": args.parent, "git_sha": git(root, "rev-parse", args.parent),
                       "src_lines": src_lines(sides["parent"])},
            "change": {"git_sha": git(root, "rev-parse", "HEAD"),
                       "uncommitted_edits": bool(git(root, "status", "--porcelain")),
                       "src_lines": src_lines(sides["change"])},
            "order": "pair i runs the parent first when i is even, the change first when odd",
            "runs": [], "workloads": {},
        }
        doc["series"].append(series)
        i = 0
        for workload in workloads:
            for seed in args.seeds:
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                for position, side in enumerate(order):
                    record = run_once(sides[side], declared["command"], workload, seed,
                                      seconds, args.trace)
                    record.update(workload=workload, seed=seed, side=side, position=position)
                    series["runs"].append(record)
                    status = "ok" if record["ok"] else "FAILED"
                    print(f"{workload} seed {seed} {side}: {status} in {record['wall_s']:.0f} s",
                          flush=True)
                i += 1
                series["workloads"][workload] = summarize(
                    [r for r in series["runs"] if r["workload"] == workload], declared,
                    args.trace)
                write_json(out, doc)
        series["finished"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        write_json(out, doc)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for workload, summary in series["workloads"].items():
        print(f"{workload}: {summary['complete_pairs']}/{summary['pairs']} pairs complete")
        for name, row in summary["metrics"].items():
            print(f"  {name:34s} parent {row['parent']['median']:.6g} change "
                  f"{row['change']['median']:.6g} wins {row['change_wins']}/"
                  f"{summary['complete_pairs']} iqr {row['parent_iqr']:.3g}"
                  + (f"  {row['verdict']}" if "verdict" in row else ""))
    print(src_lines_summary(series))
    return 0


if __name__ == "__main__":
    sys.exit(main())
