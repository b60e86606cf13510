"""The two workloads: their inputs, the program's set-up, the ops of one
round, and the checks of the program's outputs against the generator's own
arithmetic.

An op is a list of CLI calls, each a (command, argv) pair; argv is what a
user types after ``uca``. Paths are relative to the run's work directory,
which is the working directory of every call. A round is a fixed sequence of
ops, and every run attempts whole rounds.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import re
import sqlite3
import subprocess
import sys
import warnings
from pathlib import Path

import gen

TOOLS = ("lynis", "openscap", "aide")
TOOL_FILES = {"lynis": "lynis.dat", "openscap": "openscap.xml", "aide": "aide.txt"}


def close(a: float, b: float, tol: float = 1e-9) -> bool:
    return abs(a - b) <= tol


def printed(value: float, expected: float, digits: int = 2) -> bool:
    """A value printed to ``digits`` decimals agrees with the exact one."""
    return abs(value - expected) <= 0.5 * 10 ** -digits + 1e-6


def ingest_calls(store: str, node: str, iteration: int, inputs: str,
                 snapshot: str | None) -> list:
    calls = [("ingest", ["--store", store, "ingest", node, tool, f"{inputs}/{TOOL_FILES[tool]}",
                         "--iteration", str(iteration)]) for tool in TOOLS]
    if snapshot is not None:
        calls.append(("score", ["--store", store, "score", node, "--iteration", str(iteration),
                                "--snapshot", snapshot]))
    return calls


def write_small_host(work: Path, rng: random.Random, profile: str, name: str) -> dict:
    host = gen.draw_host(rng, profile, gen.SMALL_SCAP_RULES)
    gen.write_file(work / "inputs" / name / "lynis.dat", gen.small_lynis(host))
    gen.write_file(work / "inputs" / name / "openscap.xml", gen.small_xccdf(rng, host, name))
    gen.write_file(work / "inputs" / name / "aide.txt", gen.small_aide(host))
    return host


def write_snapshots(work: Path) -> None:
    for profile in gen.PROFILES:
        gen.write_snapshot(work / "snapshots" / profile, profile)


def fixtures_call(store: str, out_dir: str, seed: int, spec: str | None) -> tuple:
    args = ["--spec", spec] if spec else ["--seed", str(seed)]
    return ("fixtures", ["--store", store, "fixtures", "--out-dir", out_dir, *args])


def report_calls(store: str, out: str, low: str, high: str, tool: str) -> list:
    """The read-only rotation: three report builds, an export and a stats."""
    return [
        ("report", ["--store", store, "report"]),
        ("report", ["--store", store, "--format", "json", "report"]),
        ("report", ["--store", store, "--format", "csv-dir", "report", "--out-dir", f"{out}/csv"]),
        ("export", ["--store", store, "export", "--out-dir", f"{out}/export"]),
        ("stats", ["--store", store, "--format", "json", "stats", tool, low, high]),
    ]


class Workload:
    name = ""
    tail_pct = 90
    min_ops = 100
    keep_outputs = False   # the worker returns each call's output

    def generate(self, work: Path, seed: int, smoke: bool) -> dict:
        """Write the run's inputs under ``work``; not part of ``setup_s``."""
        raise NotImplementedError

    def set_up(self, cfg: dict, src: Path) -> None:
        """The program's own set-up before the worker starts, timed."""

    def round_ops(self, cfg: dict, rnd: int) -> list:
        raise NotImplementedError

    def warmup_ops(self, cfg: dict) -> list:
        return []

    def layer_pass(self, cfg: dict) -> list:
        """CLI calls that reach every layer once, for the traced run."""
        spec = cfg.get("spec")
        low, high = cfg.get("pass_nodes", ("baseline", "full"))
        return ([fixtures_call("pass/fx.db", "pass/corpus", cfg["seed"], spec)]
                + report_calls("pass/fx.db", "pass", low, high, "openscap")
                + ingest_calls("pass/in.db", "pass0", 0, "inputs/pass", "snapshots/full"))

    def check(self, cfg: dict, result: dict) -> list[str]:
        raise NotImplementedError

    def _common(self, work: Path, seed: int, smoke: bool) -> tuple[dict, random.Random]:
        rng = random.Random(seed)
        write_snapshots(work)
        write_small_host(work, rng, "full", "pass")
        return {"workload": self.name, "seed": seed, "smoke": smoke, "work": str(work)}, rng


def store_rows(path: Path, query: str) -> list:
    connection = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
    try:
        return connection.execute(query).fetchall()
    finally:
        connection.close()


def check_runs(store: Path, ops: dict, hosts: dict) -> list[str]:
    """Compare the stored runs of each op (node, iteration) with the
    generator's arithmetic. ``ops`` maps (node, iteration) to a host key.
    Ingest alone stores no aggregate and no rule result."""
    errors = []
    runs: dict = {}
    for node, tool, iteration, raw, norm in store_rows(
            store, "SELECT node, tool, iteration, raw_score, normalized_score FROM audit_runs"):
        runs.setdefault((node, iteration), []).append((tool, raw, norm))
    if set(runs) != set(ops):
        errors.append(f"audit runs cover {len(runs)} node-iterations, expected {len(ops)}")
    for key, host_key in ops.items():
        want = gen.expected_scores(hosts[host_key])
        got = runs.get(key, [])
        if sorted(t for t, _, _ in got) != sorted(TOOLS):
            errors.append(f"{key}: runs {sorted(t for t, _, _ in got)}, expected one per tool")
            continue
        for tool, raw, norm in got:
            if not (close(raw, want["raw"][tool]) and close(norm, want["normalized"][tool])):
                errors.append(f"{key} {tool}: stored {raw}/{norm}, expected "
                              f"{want['raw'][tool]}/{want['normalized'][tool]}")
    for table in ("aggregate_scores", "custom_rule_results"):
        if store_rows(store, f"SELECT COUNT(*) FROM {table}")[0][0]:
            errors.append(f"ingest-only run wrote rows to {table}")
    return errors


class Scan(Workload):
    """Full-size tool outputs: XCCDF with the Benchmark's Rule definitions."""

    name = "scan"
    tail_pct = 90
    min_ops = 100
    RULES = (1500, 2500, 3500, 4500, 6000)
    SMOKE_RULES = (60, 90, 120)

    def generate(self, work, seed, smoke):
        cfg, rng = self._common(work, seed, smoke)
        hosts = {}
        for k, rules in enumerate(self.SMOKE_RULES if smoke else self.RULES):
            name = f"s{k}"
            host = gen.draw_host(rng, gen.PROFILES[k % 3], rules)
            gen.write_file(work / "inputs" / name / "openscap.xml", gen.full_xccdf(rng, host, name))
            gen.write_file(work / "inputs" / name / "lynis.dat", gen.full_lynis(rng, host, name))
            gen.write_file(work / "inputs" / name / "aide.txt", gen.full_aide(rng, host))
            hosts[str(k)] = host
        cfg.update(store="scan.db", warm_store="warm.db", hosts=hosts)
        return cfg

    def round_ops(self, cfg, rnd):
        return [ingest_calls(cfg["store"], f"s{k}", rnd, f"inputs/s{k}", None)
                for k in range(len(cfg["hosts"]))]

    def warmup_ops(self, cfg):
        return [ingest_calls(cfg["warm_store"], "s0", 0, "inputs/s0", None)]

    def check(self, cfg, result):
        count = len(cfg["hosts"])
        keys = {(f"s{i % count}", i // count): str(i % count)
                for i in range(result["attempted"]) if i not in result["failed_ops"]}
        return check_runs(Path(cfg["work"]) / cfg["store"], keys, cfg["hosts"])


def corpus_scores(corpus: Path) -> dict:
    """node -> tool -> normalized scores by iteration, from the corpus files,
    by a minimal count of their contents."""
    scores: dict = {}
    for node_dir in sorted((corpus / "runs").iterdir()):
        iterations = sorted(node_dir.iterdir(), key=lambda p: int(p.name))
        per_tool = scores.setdefault(node_dir.name, {t: [] for t in TOOLS})
        for it_dir in iterations:
            lynis = int(re.search(r"^hardening_index=(\d+)$",
                                  (it_dir / "lynis.dat").read_text(), re.M).group(1))
            statuses = re.findall(r"<(?:\w+:)?result>(\w+)</", (it_dir / "openscap.xml").read_text())
            aide_text = (it_dir / "aide.txt").read_text()
            changes = sum(int(n) for n in re.findall(
                r"^\s*(?:Added|Removed|Changed) entries:\s*(\d+)\s*$", aide_text, re.M))
            per_tool["lynis"].append(float(lynis))
            per_tool["openscap"].append(gen.openscap_pct(statuses.count("pass"),
                                                         statuses.count("fail")))
            per_tool["aide"].append(gen.aide_score(changes))
    return scores


def read_csv(path: Path) -> list[dict]:
    if not path.exists():
        return []
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def ttest(low: list, high: list) -> tuple:
    """Pooled t-test of high - low by scipy: (t, df, two-tailed p)."""
    from scipy import stats as scipy_stats

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result = scipy_stats.ttest_ind(high, low)
    t, p = float(result.statistic), float(result.pvalue)
    if math.isnan(t):  # two equal constant groups, which uca reports as t=0, p=1
        t, p = 0.0, 1.0
    return t, len(low) + len(high) - 2, p


def check_report_outputs(outputs: dict, scores: dict, profiles: dict, iterations: int,
                         store: str, out: str) -> list[str]:
    """Checks of the report rotation's outputs against the corpus files."""
    errors = []
    mean = {n: {t: math.fsum(v) / len(v) for t, v in per.items()} for n, per in scores.items()}
    standard = {n: math.fsum(gen.standard_uca(*(per[t][i] for t in TOOLS))
                             for i in range(iterations)) / iterations
                for n, per in scores.items()}
    key = json.dumps(["--store", store, "--format", "json", "report"])
    if key not in outputs:
        return ["json report output missing"]
    report = json.loads(outputs[key])
    if sorted(report["nodes"]) != sorted(scores):
        errors.append("report nodes differ from the corpus")
    for node in scores:
        for tool in TOOLS:
            if not printed(report["scores"][tool][node], mean[node][tool]):
                errors.append(f"{node} {tool} mean {report['scores'][tool][node]}, "
                              f"corpus {mean[node][tool]:.4f}")
        if not printed(report["scores"]["standard_uca"][node], standard[node]):
            errors.append(f"{node} standard mean {report['scores']['standard_uca'][node]}")
        extended = gen.extended_uca(standard[node], profiles[node])
        if not printed(report["scores"]["extended_uca"][node], extended):
            errors.append(f"{node} extended mean {report['scores']['extended_uca'][node]}, "
                          f"expected {extended:.4f}")
        if report["scores"]["custom"][node] != gen.RULE_SCORE[profiles[node]]:
            errors.append(f"{node} custom {report['scores']['custom'][node]}")
    for row in report["custom_rules"]:
        if row["score_pct"] != gen.RULE_SCORE[profiles[row["node"]]]:
            errors.append(f"{row['node']} rule score {row['score_pct']}")
    count = len(scores) * iterations
    for tool in TOOLS:
        entry = report["runtime"]["per_tool"][tool]
        expected = count * gen.RUNTIME_TOTALS[tool] / 36
        if entry["runs"] != count or not printed(entry["total_seconds"], expected):
            errors.append(f"{tool} runtime {entry}, expected {count} runs {expected:.2f} s")
    low, high = report["significance"]["node_low"], report["significance"]["node_high"]
    for row in report["significance"]["rows"]:
        t, df, p = ttest(scores[low][row["tool"]], scores[high][row["tool"]])
        if not (printed(row["t"], t, 4) and row["df"] == df and printed(row["p_two_tailed"], p, 6)):
            errors.append(f"significance {row} vs scipy t={t} df={df} p={p}")
    sig_csv = Path(out) / "csv" / "table_significance.csv"
    sig_rows = read_csv(sig_csv)
    if len(sig_rows) != len(report["significance"]["rows"]):
        errors.append(f"table_significance.csv has {len(sig_rows)} rows")
    for row in sig_rows:
        t, df, p = ttest(scores[row["node_low"]][row["tool"]],
                         scores[row["node_high"]][row["tool"]])
        if not (printed(float(row["t"]), t, 4) and printed(float(row["p_two_tailed"]), p, 6)):
            errors.append(f"table_significance.csv {row['tool']} vs scipy")
    text_key = json.dumps(["--store", store, "report"])
    runtime_line = re.compile(r"^\s+(lynis|openscap|aide)\s+([\d.]+)\s+([\d.]+)\s+(\d+)$", re.M)
    found = {m.group(1): float(m.group(3)) for m in runtime_line.finditer(outputs.get(text_key, ""))}
    for tool in TOOLS:
        if not printed(found.get(tool, -1.0), count * gen.RUNTIME_TOTALS[tool] / 36):
            errors.append(f"text report {tool} runtime total {found.get(tool)}")
    for key, text in outputs.items():
        argv = json.loads(key)
        if "stats" not in argv:
            continue
        tool, node_a, node_b = argv[-3:]
        got = json.loads(text)
        t, df, p = ttest(scores[node_a][tool], scores[node_b][tool])
        if not (printed(got["t"], t, 4) and got["df"] == df and printed(got["p_two_tailed"], p, 6)):
            errors.append(f"stats {tool} {got} vs scipy t={t} p={p}")
    export = Path(out) / "export" / "audit_runs.csv"
    rows = read_csv(export)
    if len(rows) != 3 * count:
        errors.append(f"audit_runs.csv has {len(rows)} rows, expected {3 * count}")
    for row in rows:
        value = scores[row["node"]][row["tool"]][int(row["iteration"])]
        if not printed(float(row["normalized_score"]), value):
            errors.append(f"audit_runs.csv {row['node']}/{row['tool']}/{row['iteration']}")
            break
    return errors


class Report(Workload):
    """Read-only commands on a many-node store built by `uca fixtures`."""

    name = "report"
    tail_pct = 95
    min_ops = 200
    keep_outputs = True
    NODES, ITERATIONS = 100, 3
    SMOKE_NODES, SMOKE_ITERATIONS = 6, 3

    def generate(self, work, seed, smoke):
        cfg, _ = self._common(work, seed, smoke)
        nodes, iterations = ((self.SMOKE_NODES, self.SMOKE_ITERATIONS) if smoke
                             else (self.NODES, self.ITERATIONS))
        spec = gen.corpus_spec(nodes, iterations, seed)
        gen.write_file(work / "spec.json", json.dumps(spec))
        cfg.update(store="report.db", spec="spec.json", iterations=iterations,
                   profiles={n["name"]: n["profile"] for n in spec["nodes"]},
                   pass_nodes=("n000", "n002"))
        return cfg

    def set_up(self, cfg, src):
        _, argv = fixtures_call(cfg["store"], "corpus", cfg["seed"], cfg["spec"])
        subprocess.run([sys.executable, "-m", "uca.cli", *argv], cwd=cfg["work"], check=True,
                       env=dict(os.environ, PYTHONPATH=str(src)),
                       stdout=subprocess.DEVNULL)

    def round_ops(self, cfg, rnd):
        # Three passes over the three report builds, with the export and the
        # stats among them: nine of eleven ops build a report, so the median
        # op lies inside the report builds rather than at their edge.
        calls = report_calls(cfg["store"], "out", "n000", "n002", TOOLS[rnd % 3])
        builds, export, stats = calls[:3], calls[3], calls[4]
        return [[call] for call in builds + [export] + builds + [stats] + builds]

    def warmup_ops(self, cfg):
        return self.round_ops(cfg, 0)

    def check(self, cfg, result):
        work = Path(cfg["work"])
        scores = corpus_scores(work / "corpus")
        return check_report_outputs(result["outputs"], scores, cfg["profiles"],
                                    cfg["iterations"], cfg["store"], str(work / "out"))


WORKLOADS = {w.name: w for w in (Report(), Scan())}
