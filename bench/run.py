"""Run one workload of the benchmark and print its metrics as JSON.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {report,scan} --seed N \
        --seconds S --trace {0,1} [--smoke]

The run sets up five times from scratch and reports the median as
``setup_s``. Each set-up writes the inputs first, untimed, then times the
program's own set-up (``uca fixtures`` for ``report``) and a worker process
that imports the program and runs the warm-up ops. The last worker then
runs whole rounds of ops for at least ``--seconds`` and the workload's
minimum op count. The program's outputs are checked against the
generator's arithmetic, and the last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the per-layer ones, from spans around the program's public
functions. ``--smoke`` runs tiny inputs with every check, and no minimum op
count. Scratch files live under ``.bench_work/`` and are removed at the end,
except the last result and span file of each workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sqlite3
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

SETUP_REPS = 5
WORKER = Path(__file__).resolve().parent / "worker.py"


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def import_ms(src: Path) -> float:
    """Median cumulative time of ``import uca.cli``, from ``-X importtime``."""
    samples = []
    for _ in range(5):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import uca.cli"],
                              env=dict(os.environ, PYTHONPATH=str(src)),
                              capture_output=True, text=True, check=True)
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "uca.cli":
                samples.append(int(fields[1]) / 1e3)
    return statistics.median(samples)


def store_bytes_per_run(path: Path) -> float:
    size = sum(p.stat().st_size for p in path.parent.glob(path.name + "*"))
    connection = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        runs = connection.execute("SELECT COUNT(*) FROM audit_runs").fetchone()[0]
    finally:
        connection.close()
    return size / runs if runs else 0.0


def stop(proc: subprocess.Popen | None) -> None:
    if proc is not None and proc.poll() is None:
        proc.kill()
        proc.wait()


def worker_timeout(seconds: float) -> float:
    """Seconds to wait for the timed phase: the loop's own limit of
    2 * seconds + 30, one more round, and the traced run's layer pass."""
    return 2 * seconds + 90


def setup_once(workload, work: Path, args, src: Path, out_dir: Path):
    """One set-up from scratch: inputs, untimed; then the program's set-up
    and a worker that reports ready, timed. Returns the config, the worker
    and the timed seconds."""
    work.mkdir(parents=True)
    cfg = workload.generate(work, args.seed, args.smoke)
    cfg.update(src=str(src), trace=bool(args.trace), seconds=args.seconds,
               min_ops=1 if args.smoke else workload.min_ops,
               result_path=str(work / "result.json"),
               spans_path=str(out_dir / f"spans-{workload.name}.jsonl"))
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    start = time.perf_counter()
    workload.set_up(cfg, src)
    proc = subprocess.Popen([sys.executable, str(WORKER), str(cfg_path)],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    if proc.stdout.readline().strip() != "ready":
        stop(proc)
        raise RuntimeError(f"{workload.name}: worker failed during set-up")
    return cfg, proc, time.perf_counter() - start


def run(args) -> dict:
    root = Path.cwd()
    src = root / "src"
    if not (src / "uca" / "__init__.py").is_file():
        raise RuntimeError(f"no program sources at {src / 'uca'}; run from the repository root")
    workload = workloads.WORKLOADS[args.workload]
    out_dir = root / ".bench_work"
    run_dir = out_dir / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    proc = None
    try:
        setups = []
        for rep in range(SETUP_REPS):
            if proc is not None:
                proc.communicate("quit\n", timeout=60)
                shutil.rmtree(cfg["work"])
            cfg, proc, elapsed = setup_once(workload, run_dir / f"setup{rep}", args, src, out_dir)
            setups.append(elapsed)
        proc.communicate("go\n", timeout=worker_timeout(args.seconds))
        if proc.returncode != 0:
            raise RuntimeError(f"{workload.name}: worker exited with {proc.returncode}")
        with open(cfg["result_path"]) as handle:
            result = json.load(handle)
        errors = (workload.check(cfg, result) + result["pass_errors"]
                  + [f"output changed between rounds: {key}" for key in result["changed_outputs"]])
        latencies = result["latencies_ms"]
        if args.trace:
            metrics = dict(result["layers"])
            metrics["repository.store_bytes_per_run"] = store_bytes_per_run(
                Path(cfg["work"]) / cfg["store"])
            metrics["cli.import_ms"] = import_ms(src)
            units = tracing.UNITS
        else:
            metrics = {
                "setup_s": statistics.median(setups),
                "ops_per_s": result["attempted"] / result["elapsed_s"],
                "op_p50_ms": statistics.median(latencies),
                "op_tail_ms": percentile(latencies, workload.tail_pct),
                "peak_rss_mb": result["peak_rss_kb"] / 1024,
            }
            units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                     "op_tail_ms": "ms", "peak_rss_mb": "MB"}
        tail = percentile(latencies, workload.tail_pct)
        beyond = sum(1 for x in latencies if x > tail)
        print(f"{workload.name}: {result['attempted']} ops in {result['rounds']} rounds, "
              f"{result['elapsed_s']:.2f} s; "
              + ", ".join(f"p{p} {percentile(latencies, p):.3f}" for p in (50, 90, 95, 99))
              + f" ms; {beyond} beyond p{workload.tail_pct}; "
              f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s"
              + (" (traced)" if args.trace else ""), file=sys.stderr)
        if beyond < 10 and not args.smoke:
            print(f"warning: fewer than ten ops beyond p{workload.tail_pct}", file=sys.stderr)
        for line in errors[:20] + result["errors"]:
            print(f"check: {line}", file=sys.stderr)
        for name in result.get("unwrapped", []):
            print(f"trace: {name} not found, its layer reads 0", file=sys.stderr)
        summary = {
            "correct": not errors,
            "attempted": result["attempted"],
            "failed": len(result["failed_ops"]),
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }
        (out_dir / f"last-{workload.name}-trace{args.trace}.json").write_text(
            json.dumps(summary, indent=2) + "\n")
        return summary
    finally:
        stop(proc)
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, every check, no minimum op count")
    args = parser.parse_args(argv)
    # The program runs with bytecode caches, as an installed package does; an
    # environment that turns them off would make every `uca` process compile
    # the package from source.
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        summary = run(args)
    except (RuntimeError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
