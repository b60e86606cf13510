"""The timed phase of one benchmark run, in a process of its own.

Usage: python3 bench/worker.py CONFIG_JSON  (run.py starts it)

The worker imports the program, runs the workload's warm-up ops and prints
``ready``. It then reads one line from stdin: on ``go`` it runs whole rounds
of ops until the run length has passed and the workload's minimum op count
is reached, and writes its result to the config's ``result_path``; on
anything else it exits. Its peak resident memory is that of the timed phase,
since the inputs it reads were written by another process.

Every op runs in-process, through ``uca.cli.main.main``. With tracing on,
the program's public functions are wrapped before the warm-up, and one layer
pass follows the loop.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

import tracing
import workloads


class OpFailed(Exception):
    pass


class Runner:
    def __init__(self, cfg: dict, workload: workloads.Workload):
        from uca.cli import main as cli_main

        self.cli_main = cli_main
        self.keep_outputs = workload.keep_outputs
        self.outputs: dict[str, str] = {}
        self.changed: list[str] = []
        self.tracer = None
        # One pair of buffers for every call: click caches each stream it
        # writes to, so a new buffer per call would grow the worker's memory.
        self.out, self.err = io.StringIO(), io.StringIO()
        if cfg["trace"]:
            self.tracer = tracing.Tracer()
            self.tracer.install()

    def _in_process(self, argv: list[str]) -> str:
        for buffer in (self.out, self.err):
            buffer.seek(0)
            buffer.truncate()
        with contextlib.redirect_stdout(self.out), contextlib.redirect_stderr(self.err):
            try:
                self.cli_main.main(argv, standalone_mode=False)
            except SystemExit as exc:
                if exc.code not in (None, 0):
                    raise OpFailed(f"exit {exc.code}: {self.err.getvalue().strip()}") from None
            except Exception as exc:
                raise OpFailed(f"{type(exc).__name__}: {exc}") from None
        return self.out.getvalue()

    def call(self, command: str, argv: list[str]) -> str:
        if self.tracer is not None:
            return self.tracer.call(f"cli:{command}", self._in_process, argv)
        return self._in_process(argv)

    def run_op(self, op: list) -> None:
        for command, argv in op:
            text = self.call(command, argv)
            if self.keep_outputs:
                key = json.dumps(argv)
                if self.outputs.get(key, text) != text:
                    self.changed.append(key)
                self.outputs[key] = text


def main() -> int:
    with open(sys.argv[1]) as handle:
        cfg = json.load(handle)
    sys.path.insert(0, cfg["src"])
    os.chdir(cfg["work"])
    workload = workloads.WORKLOADS[cfg["workload"]]
    runner = Runner(cfg, workload)
    for op in workload.warmup_ops(cfg):
        runner.run_op(op)
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    tracer = runner.tracer
    if tracer is not None:
        tracer.phase = "loop"
    latencies: list[float] = []
    failed_ops: list[int] = []
    errors: list[str] = []
    seconds, min_ops = cfg["seconds"], cfg["min_ops"]
    rounds = 0
    start = time.perf_counter()
    while True:
        for op in workload.round_ops(cfg, rounds):
            op_start = time.perf_counter()
            try:
                runner.run_op(op)
            except OpFailed as exc:
                failed_ops.append(len(latencies))
                if len(errors) < 5:
                    errors.append(f"{op[0][1]}: {exc}")
            latencies.append((time.perf_counter() - op_start) * 1e3)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and (len(latencies) >= min_ops or elapsed >= 2 * seconds + 30):
            break
    result = {
        "latencies_ms": latencies,
        "elapsed_s": elapsed,
        "rounds": rounds,
        "attempted": len(latencies),
        "failed_ops": failed_ops,
        "errors": errors,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "changed_outputs": runner.changed,
        "outputs": runner.outputs,
        "pass_errors": [],
    }
    if tracer is not None:
        tracer.phase = "pass"
        os.makedirs("pass", exist_ok=True)
        for command, argv in workload.layer_pass(cfg):
            try:
                runner.call(command, argv)
            except OpFailed as exc:
                result["pass_errors"].append(f"layer pass {argv}: {exc}")
        result["layers"] = tracing.layer_metrics(tracer)
        result["unwrapped"] = tracer.missing
        tracer.dump(cfg["spans_path"])
    with open(cfg["result_path"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
