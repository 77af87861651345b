"""qdissect benchmark: time to verdict of ``qdissect verify``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from ``src``.
One client runs ``python -m qdissect.cli verify ... --format json`` as a child
process, in a closed loop: the next run starts when the last one has exited,
if it is expected (from the last one) to end within ``--seconds``; there is
always at least one.  Wall time, CPU time and peak RSS of each run come from
``os.wait4``.  Every report is
compared, row by row, with the committed verdict file
``verdicts/<workload>.json``.

``--trace 1`` makes one run of the same CLI in-process under ``tracer.py``
instead, and reports the per-layer metrics.

The seed permutes the order of the ``--case``, ``--chain`` and ``--family``
ids passed (always the whole non-slow catalog).  The last line of stdout is
the JSON result; the lines before it give the machine facts, the sample count
and the per-run details.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
VERDICTS = BENCH / "verdicts"

# Every run must end within 180 s; runs are stopped and counted as failed
# once this much time has passed since the benchmark started.
DEADLINE_S = 170.0
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
ID_FLAGS = {"cases": "--case", "chains": "--chain", "families": "--family"}
CLI = [sys.executable, "-m", "qdissect.cli"]
TRACED_CLI = [sys.executable, str(BENCH / "tracer.py")]


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]
    kinds: tuple[str, ...]  # which catalog ids are passed, in this order
    cache: Optional[str]    # None, "fresh" (new empty dir) or "warm" (filled in set-up)


WORKLOADS = {
    "families-cold": Workload(("--suite", "families"), ("families",), "fresh"),
    "identities-z": Workload(("--suite", "identities", "--order", "1000", "--jobs", "1"),
                             ("cases",), None),
    "chains-modp": Workload(("--suite", "chains", "--order", "2048", "--jobs", "2"),
                            ("chains",), None),
    "all-warm": Workload(("--suite", "all"), ("cases", "chains", "families"), "warm"),
}


class SetupError(RuntimeError):
    """The benchmark cannot run here (no sources, or set-up failed)."""


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def _exponent(mismatch) -> Optional[int]:
    return None if mismatch is None else mismatch["exponent"]


def verdict_rows(report: dict) -> dict[str, dict]:
    """The auditable outcome of each report row, keyed by ``kind:id`` (a chain
    and a family may share an id)."""
    rows = {}
    for row in report["cases"]:
        v = {"status": row["status"]}
        if row["kind"] == "identity":
            v["first_mismatch"] = _exponent(row["first_mismatch"])
        elif row["kind"] == "chain":
            v["stages"] = [[st["stage"], st["status"], _exponent(st["first_mismatch"])]
                           for st in row["stages"]]
        else:
            v["n_violations"] = row["n_violations"]
            v["first_violation"] = row["violations"][0]["index"] if row["violations"] else None
        rows[f'{row["kind"]}:{row["id"]}'] = v
    return rows


def failed_rows(expected: dict[str, dict], report: Optional[dict]) -> int:
    """Rows whose verdict differs from the expected one; a missing report
    (crash, timeout, nonzero exit, unreadable output) fails every row."""
    if report is None:
        return len(expected)
    try:
        actual = verdict_rows(report)
    except (KeyError, TypeError, IndexError):
        return len(expected)
    wrong = sum(1 for rid, v in expected.items() if actual.get(rid) != v)
    wrong += sum(1 for rid in actual if rid not in expected)
    return min(wrong, len(expected))


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: Optional[int]  # None when stopped at the deadline
    report: Optional[dict]


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    """Hermetic environment: package from this checkout, no table cache from
    the caller, numeric libraries capped at the available cores."""
    env = dict(os.environ)
    env.pop("QDISSECT_CACHE", None)
    env["PYTHONPATH"] = str(SRC)
    cores = nproc()
    for var in THREAD_VARS:
        try:
            have = int(env.get(var, ""))
        except ValueError:
            have = cores
        env[var] = str(min(max(have, 1), cores))
    return env


def run_child(argv: list[str], env: dict, out: Path, deadline: float) -> Outcome:
    """Run ``argv`` to completion (or kill it at ``deadline``), stdout to ``out``."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return Outcome(0.0, 0.0, 0.0, None, None)
    lock = threading.Lock()
    state = {"reaped": False, "killed": False}
    with open(out, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, env=env, cwd=ROOT)

        def kill() -> None:
            with lock:
                if not state["reaped"]:
                    os.kill(proc.pid, signal.SIGKILL)
                    state["killed"] = True

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            with lock:
                state["reaped"] = True
            timer.cancel()
            timer.join()
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code  # reaped by wait4; keep Popen from waiting again
    report = None
    if code == 0 and not state["killed"]:
        try:
            report = json.loads(out.read_text(encoding="utf-8"))
        except (ValueError, UnicodeDecodeError):
            report = None
    return Outcome(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                   None if state["killed"] else code, report)


def list_catalog(env: dict, work: Path, deadline: float) -> dict:
    out = work / "catalog.json"
    res = run_child([sys.executable, str(BENCH / "catalog.py")], env, out, deadline)
    if res.exit_code != 0:
        raise SetupError("listing the catalog failed")
    return json.loads(out.read_text(encoding="utf-8"))


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "qdissect").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def warm_cache(env: dict, work: Path, deadline: float) -> tuple[Path, float]:
    """The table cache that ``verify --suite families`` fills, built once per
    source tree (like a build step) and reused by later runs.  Returns the
    directory and the seconds spent building it here (0 when reused)."""
    final = WORK / f"warm-{source_digest()[:16]}"
    if final.is_dir():
        return final, 0.0
    tmp = WORK / f"warm-tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    t0 = time.perf_counter()
    res = run_child(CLI + ["verify", "--suite", "families", "--cache-dir", str(tmp),
                                  "--format", "json"], env, work / "warm.json", deadline)
    if res.exit_code != 0:
        shutil.rmtree(tmp, ignore_errors=True)
        raise SetupError("building the warm table cache failed")
    try:
        tmp.rename(final)
    except OSError:  # another run finished first
        shutil.rmtree(tmp, ignore_errors=True)
    return final, time.perf_counter() - t0


def prepare_cache(kind: Optional[str], warm: Optional[Path], dest: Path) -> list[str]:
    """Cache arguments for one run: a new empty dir, or a copy of the warm one."""
    if kind is None:
        return []
    shutil.rmtree(dest, ignore_errors=True)
    if kind == "warm":
        shutil.copytree(warm, dest)
    else:
        dest.mkdir()
    return ["--cache-dir", str(dest)]


def workload_ids(workload: Workload, catalog: dict, seed: int) -> list[str]:
    rng = random.Random(seed)
    args: list[str] = []
    for kind in workload.kinds:
        ids = list(catalog[kind])
        rng.shuffle(ids)
        for rid in ids:
            args += [ID_FLAGS[kind], rid]
    return args


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def machine_facts(catalog: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
        with open("/proc/meminfo", encoding="utf-8") as fh:
            mem_kb = int(fh.readline().split()[1])
    except (OSError, ValueError, IndexError):
        mem_kb = 0
    try:
        # the ceiling keeps git from reporting an enclosing repository
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10,
                                env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                                ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"nproc": nproc(), "mem_gb": round(mem_kb / 2**20, 2), "cpu": cpu,
            "python": catalog["python"], "numpy": catalog["numpy"],
            "qdissect": catalog["qdissect"], "git_commit": commit,
            "source_sha256": source_digest(), "platform": platform.platform()}


def high_percentile(values: list[float]) -> Optional[tuple[int, float]]:
    """The highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 20:
        return None
    pct = math.floor(100 * (n - 10) / n)
    return pct, statistics.quantiles(values, n=100)[pct - 1]


def result_line(declared: dict, values: dict[str, float], attempted: int, failed: int) -> dict:
    """The final JSON object: exactly the declared metrics, with their units."""
    missing = set(declared) - set(values)
    extra = set(values) - set(declared)
    if missing or extra:
        raise ValueError(f"metrics differ from BENCHMARK.json: missing {sorted(missing)}, "
                         f"extra {sorted(extra)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in declared.items()}}


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def run(name: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "qdissect" / "cli.py").is_file():
        raise SetupError(f"no qdissect sources under {SRC}")
    workload = WORKLOADS[name]
    expected = json.loads((VERDICTS / f"{name}.json").read_text(encoding="utf-8"))["rows"]
    declared = declared_metrics(trace)
    env = child_env()
    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        warm, warm_build_s = (warm_cache(env, work, deadline) if workload.cache == "warm"
                              else (None, 0.0))
        # set-up, repeated: list and permute the catalog, prepare the cache dir
        setup_s = []
        for i in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            catalog = list_catalog(env, work, deadline)
            ids = workload_ids(workload, catalog, seed)
            prepare_cache(workload.cache, warm, work / f"setup-cache-{i}")
            setup_s.append(time.perf_counter() - t0)
            shutil.rmtree(work / f"setup-cache-{i}", ignore_errors=True)

        argv = ["verify", *workload.args, *ids, "--format", "json"]
        runs: list[Outcome] = []
        failed = 0

        def invoke(prefix: list[str]) -> Outcome:
            nonlocal failed
            cache_args = prepare_cache(workload.cache, warm, work / "cache")
            res = run_child(prefix + argv + cache_args, env, work / "report.json", deadline)
            shutil.rmtree(work / "cache", ignore_errors=True)
            failed += failed_rows(expected, res.report)
            runs.append(res)
            return res

        if trace:
            spans_file = work / "spans.json"
            traced = invoke(TRACED_CLI + [str(spans_file)])
            if traced.report is None:
                raise SetupError("the traced run did not complete")
            spans = json.loads(spans_file.read_text(encoding="utf-8"))
            values = layers.layer_metrics(spans["spans"], spans["counters"], traced.wall_s)
            values.update({
                "process.cpu_s": traced.cpu_s,
                "process.cpu_util": traced.cpu_s / traced.wall_s,
                "check_fail_ratio": failed / len(expected),
            })
        else:
            t_start = time.monotonic()
            while True:
                res = invoke(CLI)
                elapsed = time.monotonic() - t_start
                if elapsed + res.wall_s > seconds or res.exit_code is None:
                    break
            values = {"verdict_wall_s": statistics.median(r.wall_s for r in runs),
                      "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
                      "setup_s": statistics.median(setup_s)}

        attempted = len(runs) * len(expected)
        walls = [r.wall_s for r in runs]
        detail = {
            "workload": name, "seed": seed, "trace": int(trace), "runs": len(runs),
            "wall_s": walls, "cpu_s": [r.cpu_s for r in runs],
            "peak_rss_mb": [r.rss_mb for r in runs],
            "verdict_wall_s_median": statistics.median(walls),
            "verdict_wall_s_high_percentile": high_percentile(walls),
            "check_fail_ratio": failed / attempted, "setup_s": setup_s,
            "warm_cache_build_s": warm_build_s, "ids": ids,
            "machine": machine_facts(catalog),
            "excluded": "slow-suite families (--slow): one (81,17) table to 2.48e7 "
                        "takes over 15 min with today's oracle",
        }
        print(json.dumps(detail))
        return result_line(declared, values, attempted, failed)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (SetupError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
