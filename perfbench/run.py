"""End-to-end benchmark of the wtnrank CLI, with a traced per-layer breakdown.

    python3 perfbench/run.py --workload pipeline-paper --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` and nothing needs to be built. Inputs are generated from the seed
into ``.perfbench-work/`` (removed at the end). Whole ``wtnrank`` processes
run one at a time in a closed loop: the next starts only after the previous
one has exited, and no new one starts once it would end past ``--seconds``
(at least one always runs). Each process is started through ``launch.py``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics, as
medians over the processes of the run. With ``--trace 1`` untraced and
traced processes alternate, and it reports the per-layer metrics of
``layers.py`` instead. Every process's artifacts are checked
(``checks.py``); a process fails when it exits non-zero, misses an
artifact, fails a check or writes bytes that differ from the run's first.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

LAUNCHER = Path(__file__).resolve().parent / "launch.py"

#: Import-only launches top the start-up samples of a run up to this many.
MIN_SETUP_SAMPLES = 5

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class Process:
    """One finished child: what the parent measured and what the child reported."""

    out: Path
    stderr: Path
    wall: float
    cpu: float
    exit_code: int
    setup: float | None = None
    peak_rss_kb: int | None = None
    spans: list | None = None
    problems: list | None = None


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    threads = str(len(os.sched_getaffinity(0)))
    env.update({var: threads for var in BLAS_THREAD_VARS})
    return env


def launch(argv: list[str], work: Path, index: int, mode: str, env: dict) -> Process:
    out = work / f"out{index}"
    result = work / f"result{index}.json"
    command = [sys.executable, str(LAUNCHER), str(result), mode, "--", *argv, "--out", out.name]
    stderr = work / f"stderr{index}.txt"
    with open(stderr, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(command, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    done = Process(out, stderr, wall, usage.ru_utime + usage.ru_stime, proc.returncode)
    if result.is_file():
        with open(result, encoding="utf-8") as fh:
            reported = json.load(fh)
        done.setup = reported["imported_at"] - start
        done.peak_rss_kb = reported["peak_rss_kb"]
        done.spans = reported["spans"]
        result.unlink()
    return done


def measure(prep, work: Path, seconds: float, trace: bool, env: dict) -> list[Process]:
    """Closed loop: one process at a time; traced and untraced alternate when tracing."""
    modes = ["0", "1"] if trace else ["0"]
    done: list[Process] = []
    deadline = time.monotonic() + seconds
    while True:
        for mode in modes:
            done.append(launch(prep.argv, work, len(done), mode, env))
        cycle = sum(statistics.median(p.wall for p in done[k::len(modes)]) for k in range(len(modes)))
        if time.monotonic() + cycle > deadline:
            return done


def judge(done: list[Process], prep) -> None:
    """Set each process's problems. The run's first artifact set is checked in
    full; any later set must be byte-identical to it and shares its verdict."""
    from checks import check_outputs, digests

    reference = verdict = None
    for proc in done:
        if proc.exit_code != 0 or proc.setup is None:
            proc.problems = [f"exit code {proc.exit_code}"]
            continue
        found = digests(proc.out)
        if reference is None:
            reference, verdict = found, check_outputs(proc.out, prep)
        proc.problems = verdict if found == reference else ["artifacts differ from the run's first"]


def setup_samples(done: list[Process], work: Path, env: dict) -> list[float]:
    """Start-up times of the run, topped up by import-only launches."""
    samples = [p.setup for p in done]
    while len(samples) < MIN_SETUP_SAMPLES:
        probe = launch([], work, len(done) + len(samples), "-1", env)
        if probe.exit_code != 0 or probe.setup is None:
            raise RuntimeError(f"import-only launch failed: {probe.stderr.read_text(errors='replace')[-2000:]}")
        samples.append(probe.setup)
    return samples


def end_to_end(done: list[Process], setups: list[float]) -> dict:
    med = statistics.median
    return {
        "wall_s": {"value": med(p.wall for p in done), "unit": "s"},
        "setup_s": {"value": med(setups), "unit": "s"},
        "cpu_s": {"value": med(p.cpu for p in done), "unit": "s"},
        "peak_rss_mb": {"value": med(p.peak_rss_kb * 1024 / 1e6 for p in done), "unit": "MB"},
    }


def per_layer(done: list[Process], prep) -> dict:
    from checks import reduced_errors
    from layers import METRICS, layer_metrics

    first = next(p for p in done if p.spans)
    files = sorted(first.out.iterdir())
    restriction = max((reduced_errors(f, prep)[2] for f in files if f.name.startswith("gr_")), default=0.0)
    size = sum(f.stat().st_size for f in files)
    traced = [layer_metrics(p.spans, p.wall, prep.properties, len(files), size, restriction)
              for p in done if p.spans]
    untraced = statistics.median(p.wall for p in done if not p.spans)
    values = {name: statistics.median(m[name] for m in traced) for name in traced[0]}
    values["trace.overhead_s"] = values["trace.wall_s"] - untraced
    return {name: {"value": values[name], "unit": unit} for name, (unit, _) in METRICS.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "wtnrank" / "__init__.py").is_file():
        print("perfbench: run from the root of a wtnrank checkout (src/wtnrank missing)", file=sys.stderr)
        return 2
    # children import cached bytecode, as from an installed package, whatever
    # PYTHONDONTWRITEBYTECODE says
    compileall.compile_dir(root / "src" / "wtnrank", quiet=1)
    sys.path.insert(0, str(root / "src"))
    from inputs import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    work = root / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        env = child_env(root)
        prep = WORKLOADS[args.workload](args.seed, work)
        done = measure(prep, work, args.seconds, bool(args.trace), env)
        judge(done, prep)
        failed = [p for p in done if p.problems]
        for proc in failed:
            print(f"perfbench: {proc.out.name}: {'; '.join(proc.problems)}", file=sys.stderr)
            print(proc.stderr.read_text(errors="replace")[-2000:], file=sys.stderr)
        print(json.dumps({"workload": args.workload, "seed": args.seed, "processes": len(done),
                          "inputs": prep.properties}))
        if failed:
            metrics = {}
        elif args.trace:
            metrics = per_layer(done, prep)
        else:
            metrics = end_to_end(done, setup_samples(done, work, env))
        print(json.dumps({"correct": not failed, "attempted": len(done),
                          "failed": len(failed), "metrics": metrics}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
