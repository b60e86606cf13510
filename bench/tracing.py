"""Spans around the program's public functions, and the per-layer metrics
computed from them.

Every layer is timed from outside: ``install`` replaces each public function
with a wrapper wherever a ``uca`` module holds a reference to it, so names
imported with ``from .rules import evaluate_rules`` are wrapped too. Spans
stay in memory as lists and are written out once, at the end of the run.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import tracemalloc

NAME, PHASE, START, END, PARENT, COUNT = range(6)

# (module, attribute) -> span name
FUNCTIONS = {
    ("uca.parsers", "parse_lynis_report"): "parsers.lynis",
    ("uca.parsers", "parse_xccdf_results"): "parsers.xccdf",
    ("uca.parsers", "parse_aide_report"): "parsers.aide",
    ("uca.scoring", "score_tool_document"): "scoring.document",
    ("uca.rules", "load_snapshot"): "rules.load_snapshot",
    ("uca.rules", "evaluate_rules"): "rules.evaluate",
    ("uca.report", "build_report"): "report.build",
    ("uca.report", "render_text"): "report.render_text",
    ("uca.report", "bundle_to_dict"): "report.render_json",
    ("uca.report", "write_csv_tables"): "report.write_csv",
    ("uca.report", "write_plot_data"): "report.write_csv",
    ("uca.stats", "pooled_t_test"): "stats.t_test",
    ("uca.fixtures", "make_lynis_fixture"): "fixtures.lynis_fixture",
    ("uca.fixtures", "make_xccdf_fixture"): "fixtures.xccdf_fixture",
    ("uca.fixtures", "make_aide_fixture"): "fixtures.aide_fixture",
    ("uca.fixtures", "make_snapshot"): "fixtures.snapshot",
    ("uca.fixtures", "make_corpus"): "fixtures.make_corpus",
}

# Units of the metrics returned by layer_metrics, in its order.
UNITS = {
    "parsers.xccdf_ms": "ms/call",
    "parsers.xccdf_mb_per_s": "MB/s",
    "parsers.xccdf_peak_mb": "MB",
    "parsers.lynis_us": "us/call",
    "parsers.aide_us": "us/call",
    "scoring.document_self_us": "us/call",
    "rules.load_snapshot_ms": "ms/call",
    "rules.evaluate_us": "us/call",
    "repository.open_ms": "ms/call",
    "repository.write_ms_per_row": "ms/row",
    "repository.query_calls_per_report": "count",
    "repository.query_ms_per_report": "ms",
    "repository.store_bytes_per_run": "B",
    "report.build_self_ms": "ms/call",
    "report.render_text_ms": "ms/call",
    "report.render_json_ms": "ms/call",
    "report.write_csv_ms": "ms/call",
    "stats.t_test_us": "us/call",
    "fixtures.xccdf_fixture_us": "us/call",
    "fixtures.make_corpus_s": "s/call",
    "cli.import_ms": "ms",
    "cli.command_self_ms": "ms/call",
}


class Tracer:
    """Collects one span per wrapped call: name, phase, start, end, the index
    of the enclosing span and a count (bytes parsed or rows written)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.phase = "warm"
        self.largest_xccdf = ""
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        def wrapper(*args, **kwargs):
            record = [name, self.phase, 0.0, 0.0,
                      self._stack[-1] if self._stack else -1, 0]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                record[COUNT] = count(args)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def call(self, name, fn, *args):
        """Run ``fn(*args)`` as a span of its own (the benchmark's CLI calls)."""
        return self.wrap(name, fn)(*args)

    def _xccdf_bytes(self, args) -> int:
        document = args[0]
        if len(document) > len(self.largest_xccdf):
            self.largest_xccdf = document
        return len(document)

    def install(self) -> None:
        """Wrap the public functions and the Store methods of loaded uca modules."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "uca" or n.startswith("uca."))]
        for (module_name, attr), name in FUNCTIONS.items():
            fn = getattr(sys.modules.get(module_name), attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            count = self._xccdf_bytes if name == "parsers.xccdf" else None
            wrapper = self.wrap(name, fn, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)
        store = sys.modules["uca.repository"].Store
        for attr, value in list(vars(store).items()):
            if not callable(value) or isinstance(value, type):
                continue
            if attr == "__init__":
                setattr(store, attr, self.wrap("repository.open", value))
            elif attr.startswith("record_"):
                setattr(store, attr, self.wrap("repository.write", value, _rows))
            elif not (attr.startswith(("_", "import_", "export_")) or attr == "close"):
                setattr(store, attr, self.wrap("repository.query", value))

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for name, phase, start, end, parent, count in self.spans:
                handle.write(json.dumps({"name": name, "phase": phase, "start": start,
                                         "duration_ms": (end - start) * 1e3,
                                         "parent": parent, "count": count}) + "\n")


def _rows(args) -> int:
    # record_rules(ruleset) and record_rule_results(results) write one row per
    # element; record_audit_run and record_aggregate write one.
    target = args[1]
    target = getattr(target, "rules", target)
    return len(target) if isinstance(target, (list, tuple)) else 1


def xccdf_peak_mb(tracer: Tracer) -> float:
    """tracemalloc peak while parsing the largest XCCDF document seen."""
    document = tracer.largest_xccdf
    if not document:
        return 0.0
    parse = sys.modules["uca.parsers"].parse_xccdf_results
    parse = getattr(parse, "__wrapped__", parse)
    tracemalloc.start()
    try:
        parse(document)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer figures. A layer's spans come from the timed loop when the
    loop called it, otherwise from the layer pass that follows the loop."""
    spans = tracer.spans
    child = [0.0] * len(spans)
    cli_of = [-1] * len(spans)
    for index, span in enumerate(spans):
        parent = span[PARENT]
        if parent >= 0:
            child[parent] += span[END] - span[START]
            cli_of[index] = cli_of[parent]
        if span[NAME].startswith("cli:"):
            cli_of[index] = index

    def pick(predicate):
        for phase in ("loop", "pass"):
            chosen = [i for i, s in enumerate(spans) if s[PHASE] == phase and predicate(s)]
            if chosen:
                return chosen
        return []

    def named(name):
        return pick(lambda s: s[NAME] == name)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def mean_dur(name, scale, self_time=False):
        chosen = named(name)
        if not chosen:
            return 0.0
        return statistics.fmean(dur(i) - (child[i] if self_time else 0.0)
                                for i in chosen) * scale

    xccdf = named("parsers.xccdf")
    xccdf_s = sum(dur(i) for i in xccdf)
    writes = named("repository.write")
    write_rows = sum(spans[i][COUNT] for i in writes)
    reports = pick(lambda s: s[NAME] == "cli:report")
    report_set = set(reports)
    report_queries = [i for i, s in enumerate(spans)
                      if s[NAME] == "repository.query" and cli_of[i] in report_set
                      and spans[s[PARENT]][NAME] != "repository.query"]
    commands = pick(lambda s: s[NAME].startswith("cli:"))
    return {
        "parsers.xccdf_ms": mean_dur("parsers.xccdf", 1e3),
        "parsers.xccdf_mb_per_s": (sum(spans[i][COUNT] for i in xccdf) / 2**20 / xccdf_s
                                   if xccdf_s else 0.0),
        "parsers.xccdf_peak_mb": xccdf_peak_mb(tracer),
        "parsers.lynis_us": mean_dur("parsers.lynis", 1e6),
        "parsers.aide_us": mean_dur("parsers.aide", 1e6),
        "scoring.document_self_us": mean_dur("scoring.document", 1e6, self_time=True),
        "rules.load_snapshot_ms": mean_dur("rules.load_snapshot", 1e3),
        "rules.evaluate_us": mean_dur("rules.evaluate", 1e6),
        "repository.open_ms": mean_dur("repository.open", 1e3),
        "repository.write_ms_per_row": (sum(dur(i) for i in writes) * 1e3 / write_rows
                                        if write_rows else 0.0),
        "repository.query_calls_per_report": (len(report_queries) / len(reports)
                                              if reports else 0.0),
        "repository.query_ms_per_report": (sum(dur(i) for i in report_queries) * 1e3
                                           / len(reports) if reports else 0.0),
        "report.build_self_ms": mean_dur("report.build", 1e3, self_time=True),
        "report.render_text_ms": mean_dur("report.render_text", 1e3),
        "report.render_json_ms": mean_dur("report.render_json", 1e3),
        "report.write_csv_ms": mean_dur("report.write_csv", 1e3, self_time=True),
        "stats.t_test_us": mean_dur("stats.t_test", 1e6),
        "fixtures.xccdf_fixture_us": mean_dur("fixtures.xccdf_fixture", 1e6),
        "fixtures.make_corpus_s": mean_dur("fixtures.make_corpus", 1.0),
        "cli.command_self_ms": (statistics.fmean(dur(i) - child[i] for i in commands) * 1e3
                                if commands else 0.0),
    }
