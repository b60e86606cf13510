"""Deterministic synthetic audit corpora.

Generates tool-output documents that the real parsers invert exactly,
profile snapshots whose rule evaluation matches the canonical pass/fail
patterns, and full corpora shaped like the reference experiment: 3 nodes x
3 tools x 12 iterations = 108 runs, with iteration 0 labelled ``pre`` and
iteration 1 ``post``.

Determinism: one ``random.Random(seed)`` (Mersenne Twister) drives every
draw, consumed in a fixed order (for each iteration, node and tool the
score draws come first, then the runtime draw). Timestamps derive from the
spec start time, so two corpora from the same spec are byte-identical.

Default distributions are anchored to the reference experiment: per-node
score means from its per-tool averages, standard deviations back-solved
from its effect sizes, and per-tool runtimes fixed at total/count so the
runtime totals reproduce exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from enum import Enum
from functools import partial
from pathlib import Path

from . import pipeline, scoring
from .errors import OutOfRangeError, SpecError
from .jsondoc import known_keys, load, typed
from .repository import Phase, open_store
from .rules import FirewallState, NodeSnapshot, default_rules, evaluate_rules, save_snapshot
from .scoring import Tool, WeightConfig

__all__ = [
    "Profile",
    "NodeSpec",
    "CorpusSpec",
    "CorpusResult",
    "make_lynis_fixture",
    "make_xccdf_fixture",
    "make_aide_fixture",
    "make_snapshot",
    "make_corpus",
    "TOOL_FILE_NAMES",
]


class Profile(str, Enum):
    BASELINE = "baseline"
    PARTIAL = "partial"
    FULL = "full"


TOOL_FILE_NAMES = {
    Tool.LYNIS: "lynis.dat",
    Tool.OPENSCAP: "openscap.xml",
    Tool.AIDE: "aide.txt",
}

_XCCDF_NS = "http://checklists.nist.gov/xccdf/1.2"


def make_lynis_fixture(index: int) -> str:
    """A Lynis key=value report carrying the given hardening index."""
    if not 0 <= int(index) <= 100:
        raise OutOfRangeError(f"hardening index must lie in [0, 100], got {index!r}")
    return (
        "# Lynis report (synthetic)\n"
        "report_version_major=1\n"
        "report_version_minor=0\n"
        "lynis_version=3.0.9\n"
        "os=Linux\n"
        "os_name=Ubuntu\n"
        "os_version=22.04\n"
        f"hardening_index={int(index)}\n"
        "tests_executed=261\n"
        "plugins_enabled=0\n"
    )


def make_xccdf_fixture(
    pass_count: int,
    fail_count: int,
    extras: dict[str, int] | None = None,
) -> str:
    """An XCCDF results document with the given status tallies.

    ``extras`` maps additional result statuses (e.g. notapplicable) to
    counts; ``pass`` and ``fail`` are reserved for the explicit arguments.
    """
    if pass_count < 0 or fail_count < 0:
        raise OutOfRangeError("pass/fail counts must be non-negative")
    extras = dict(extras or {})
    for status, count in extras.items():
        if status in ("pass", "fail"):
            raise OutOfRangeError(f"status {status!r} must use the explicit argument")
        if count < 0:
            raise OutOfRangeError(f"count for {status!r} must be non-negative")

    sequence = [("pass", pass_count), ("fail", fail_count)]
    sequence.extend(sorted(extras.items()))
    # XML character data escaping, as xml.sax.saxutils.escape does; that module
    # is not imported because it pulls in urllib.request and http.client
    statuses = [status.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
                for status, count in sequence for _ in range(count)]
    return "".join([
        f'<Benchmark xmlns="{_XCCDF_NS}" id="synthetic_benchmark">'
        '<TestResult id="synthetic_testresult"><target>synthetic-node</target>',
        *(f'<rule-result idref="xccdf_rule_{number:05d}"><result>{status}'
          '</result></rule-result>' for number, status in enumerate(statuses, 1)),
        "</TestResult></Benchmark>",
    ])


def make_aide_fixture(added: int, removed: int, changed: int) -> str:
    """An AIDE comparison report; (0, 0, 0) renders as a clean-match report."""
    if added < 0 or removed < 0 or changed < 0:
        raise OutOfRangeError("change counts must be non-negative")
    header = "Start timestamp: 2025-03-03 00:00:00 +0000 (AIDE 0.17.4)\n"
    if added == removed == changed == 0:
        return (
            header
            + "AIDE found NO differences between database and filesystem. Looks okay!!\n"
            + "\nNumber of entries:\t1523\n"
        )
    return (
        header
        + "AIDE found differences between database and filesystem!!\n"
        + "\nSummary:\n"
        + "  Total number of entries:\t1523\n"
        + f"  Added entries:\t\t{added}\n"
        + f"  Removed entries:\t\t{removed}\n"
        + f"  Changed entries:\t\t{changed}\n"
    )


_SSHD_BASE = """# OpenSSH server configuration (synthetic snapshot)
Include /etc/ssh/sshd_config.d/*.conf
Port 22
PermitRootLogin no
PermitEmptyPasswords no
MaxAuthTries {max_auth_tries}
X11Forwarding {x11_forwarding}
UsePAM yes
Subsystem sftp /usr/lib/openssh/sftp-server
"""

_LOGIN_DEFS = """# /etc/login.defs (synthetic snapshot)
MAIL_DIR\t/var/mail
PASS_MAX_DAYS\t99999
PASS_MIN_DAYS\t0
PASS_WARN_AGE\t7
UMASK\t\t022
ENCRYPT_METHOD\tSHA512
"""


def make_snapshot(profile: Profile, node: str | None = None) -> NodeSnapshot:
    """Snapshot for a hardening profile.

    Against the default rule set, baseline passes the SSH root-login,
    empty-password and firewall rules; partial additionally passes the
    auth-tries, X11 and shadow-mode rules; full adds auditd. The password
    max-age rule fails on every profile.
    """
    profile = Profile(profile)
    hardened_ssh = profile in (Profile.PARTIAL, Profile.FULL)
    sshd_config = _SSHD_BASE.format(
        max_auth_tries=3 if hardened_ssh else 6,
        x11_forwarding="no" if hardened_ssh else "yes",
    )
    services = {
        "ssh": "active",
        "cron": "active",
        "rsyslog": "active",
        "auditd": "active" if profile is Profile.FULL else "inactive",
    }
    if profile is Profile.FULL:
        services["cups"] = "inactive"
    permissions = {
        "/etc/passwd": (0o644, "root", "root"),
        "/etc/shadow": (0o640 if hardened_ssh else 0o644, "root", "shadow"),
        "/etc/ssh/sshd_config": (0o644, "root", "root"),
    }
    return NodeSnapshot(
        node=node or profile.value,
        files={
            "/etc/ssh/sshd_config": sshd_config,
            "/etc/login.defs": _LOGIN_DEFS,
        },
        services=services,
        permissions=permissions,
        firewall_state=FirewallState.ACTIVE,
    )


@dataclass(frozen=True)
class NodeSpec:
    name: str
    profile: Profile


def _typed(kind, value: object, where: str):
    """A spec value read as ``kind`` (``jsondoc.typed``), at ``where`` in the document;
    a tuple, as a Python caller gives it, reads as the JSON array it stands for."""
    value = list(value) if isinstance(value, tuple) else value
    return typed(value, kind, SpecError, f"invalid spec document: {where}")


def _node(node: object, where: str) -> NodeSpec:
    """A spec's node entry, a NodeSpec or its object, whose missing fields read as null."""
    node = _typed(dict, vars(node) if isinstance(node, NodeSpec) else node, where)
    known_keys(node, NodeSpec.__dataclass_fields__, SpecError,
               f"invalid spec document: {where}")
    return NodeSpec(_typed(str, node.get("name"), f"{where}.name"),
                    _typed(Profile, node.get("profile"), f"{where}.profile"))


def _mean_sd(pair: object, where: str) -> tuple[float, float]:
    """A spec's (mean, sd) entry, which must be exactly two numbers."""
    try:
        mean, sd = (_typed(float, value, where) for value in _typed(list, pair, where))
        return mean, sd
    except (SpecError, ValueError):  # ValueError: not two values to unpack
        raise SpecError(f"invalid spec document: {where} is {pair!r}, not [mean, sd]") from None


def _per_tool(per_tool: object, where: str) -> dict[Tool, tuple[float, float]]:
    return {_typed(Tool, tool, f"{where}.{tool}"): _mean_sd(pair, f"{where}.{tool}")
            for tool, pair in _typed(dict, per_tool, where).items()}


# Score means follow the reference per-tool node averages; sds are
# back-solved from the reference effect sizes (diff/d), identical across
# nodes per tool. Runtimes are total/count so 36 runs reproduce the
# reference per-tool totals exactly.
_PROFILE_SCORE_DISTRIBUTIONS: dict[Profile, dict[Tool, tuple[float, float]]] = {
    Profile.BASELINE: {
        Tool.LYNIS: (63.08, 2.5205),
        Tool.OPENSCAP: (39.73, 5.367),
        Tool.AIDE: (45.83, 13.086),
    },
    Profile.PARTIAL: {
        Tool.LYNIS: (64.00, 2.5205),
        Tool.OPENSCAP: (41.20, 5.367),
        Tool.AIDE: (45.83, 13.086),
    },
    Profile.FULL: {
        Tool.LYNIS: (64.92, 2.5205),
        Tool.OPENSCAP: (71.82, 5.367),
        Tool.AIDE: (36.67, 13.086),
    },
}

_DEFAULT_RUNTIME_DISTRIBUTIONS: dict[Tool, tuple[float, float]] = {
    Tool.LYNIS: (1303.59 / 36, 0.0),
    Tool.OPENSCAP: (107.91 / 36, 0.0),
    Tool.AIDE: (3368.91 / 36, 0.0),
}

_DEFAULT_NODES = (
    NodeSpec("baseline", Profile.BASELINE),
    NodeSpec("partial", Profile.PARTIAL),
    NodeSpec("full", Profile.FULL),
)


# The reader of each CorpusSpec field, of its value as a document or a Python caller gives it
_SPEC_FIELDS = {
    "nodes": lambda nodes, where: tuple(
        _node(node, f"{where}[{index}]") for index, node in enumerate(_typed(list, nodes, where))),
    "iterations": partial(_typed, int),
    "seed": partial(_typed, int),
    "score_distributions": lambda per_node, where: {
        name: _per_tool(per_tool, f"{where}.{name}")
        for name, per_tool in _typed(dict, per_node, where).items()},
    "runtime_distributions": _per_tool,
    "scap_total_rules": partial(_typed, int),
    "start_time": lambda start, where: (
        start if isinstance(start, datetime) else _typed(datetime.fromisoformat, start, where)),
}


@dataclass(frozen=True)
class CorpusSpec:
    """Parameters for one synthetic corpus; identical specs yield identical corpora.
    Frozen, and checked when made by the field readers of ``from_dict``: a field
    takes its Python value or, by design, its spec-document form (a list, a node
    object, an ISO-8601 string, a tool name), and a value of neither raises the
    document's SpecError. An invalid value raises OutOfRangeError, and a node name
    that is no single directory name, a repeated one or a score distribution of an
    unknown node SpecError."""

    nodes: tuple[NodeSpec, ...] = _DEFAULT_NODES
    iterations: int = 12
    # default seed chosen so every node/tool sample mean lands within two
    # standard errors of its configured mean and the baseline-vs-full
    # significance pattern matches the reference experiment
    seed: int = 155
    # per node name -> tool -> (mean, sd); nodes without an entry fall back
    # to their profile defaults
    score_distributions: dict[str, dict[Tool, tuple[float, float]]] = field(
        default_factory=dict
    )
    runtime_distributions: dict[Tool, tuple[float, float]] = field(
        default_factory=lambda: dict(_DEFAULT_RUNTIME_DISTRIBUTIONS)
    )
    scap_total_rules: int = 183
    start_time: datetime = datetime(2025, 3, 3, tzinfo=timezone.utc)

    def distribution(self, node: NodeSpec, tool: Tool) -> tuple[float, float]:
        override = self.score_distributions.get(node.name)
        if override and tool in override:
            return override[tool]
        return _PROFILE_SCORE_DISTRIBUTIONS[node.profile][tool]

    def __post_init__(self) -> None:
        for name, read in _SPEC_FIELDS.items():
            object.__setattr__(self, name, read(getattr(self, name), name))
        names = [node.name for node in self.nodes]
        for index, name in enumerate(names):
            # a name is a directory of the corpus, which must stay under --out-dir,
            # and a file system takes no name longer than 255 bytes of UTF-8; a
            # lone surrogate (U+D800-U+DFFF) has no UTF-8 form
            if (name in ("", ".", "..") or "/" in name or "\0" in name
                    or any("\ud800" <= char <= "\udfff" for char in name)
                    or len(name.encode("utf-8")) > 255):
                raise SpecError(f"invalid spec document: nodes[{index}].name: {name!r}"
                                f" is not a directory name")
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise SpecError(f"invalid spec document: duplicate node names {duplicates}")
        unknown = sorted(set(self.score_distributions) - set(names))
        if unknown:
            raise SpecError(f"invalid spec document: score_distributions of unknown"
                            f" nodes {unknown}")
        if not self.nodes:
            raise OutOfRangeError("corpus needs at least one node")
        if self.iterations < 1:
            raise OutOfRangeError("iterations must be >= 1")
        if self.scap_total_rules < 1:
            raise OutOfRangeError("scap_total_rules must be >= 1")
        for node in self.nodes:
            for tool in Tool:
                _, sd = self.distribution(node, tool)
                if sd < 0:
                    raise OutOfRangeError(f"negative sd for {node.name}/{tool.value}")
        for tool in Tool:
            if tool not in self.runtime_distributions:
                raise OutOfRangeError(f"missing runtime distribution for {tool.value}")
            if self.runtime_distributions[tool][1] < 0:
                raise OutOfRangeError(f"negative runtime sd for {tool.value}")

    @classmethod
    def from_dict(cls, data: dict) -> "CorpusSpec":
        """Build a spec from parsed JSON, keeping defaults for absent keys; a key
        that is no field, a value not of its field's JSON type, a distribution entry
        that is not two numbers, or one for a node not in the spec raises SpecError."""
        known_keys(data, _SPEC_FIELDS, SpecError, "invalid spec document")
        return cls(**data)

    @classmethod
    def from_json(cls, document: str | bytes) -> "CorpusSpec":
        """Build a spec from JSON text or bytes; a malformed one raises SpecError."""
        return cls.from_dict(load(document, dict, SpecError, "invalid spec document"))


@dataclass(frozen=True)
class CorpusResult:
    corpus_dir: Path
    store_path: Path
    runs_recorded: int
    aggregates_recorded: int
    rule_results_recorded: int


def _phase_for(iteration: int) -> Phase:
    if iteration == 0:
        return Phase.PRE
    if iteration == 1:
        return Phase.POST
    return Phase.ITERATION


def _clamp(value: float, low: float, high: float) -> float:
    return min(high, max(low, value))


def _draw_documents(
    rng: random.Random, spec: CorpusSpec, node: NodeSpec, tool: Tool, penalty: float
) -> str:
    mean, sd = spec.distribution(node, tool)
    if tool is Tool.LYNIS:
        index = int(round(_clamp(rng.gauss(mean, sd), 0, 100)))
        return make_lynis_fixture(index)
    if tool is Tool.OPENSCAP:
        pct = _clamp(rng.gauss(mean, sd), 0, 100)
        passed = int(round(spec.scap_total_rules * pct / 100.0))
        failed = spec.scap_total_rules - passed
        extras = {
            "notapplicable": rng.randint(5, 15),
            "notselected": rng.randint(10, 30),
            "notchecked": rng.randint(0, 5),
        }
        return make_xccdf_fixture(passed, failed, extras)
    score = _clamp(rng.gauss(mean, sd), 0, 100)
    total = int(round((100.0 - score) / penalty))
    added = rng.randint(0, total)
    removed = rng.randint(0, total - added)
    changed = total - added - removed
    return make_aide_fixture(added, removed, changed)


def make_corpus(
    spec: CorpusSpec,
    out_dir: Path | str,
    store_path: Path | str | None = None,
    weights: WeightConfig = scoring.DEFAULT_WEIGHTS,
) -> CorpusResult:
    """Generate fixture files and record them into a store in one transaction,
    through the same steps as ``uca ingest`` and ``uca score --snapshot``
    (``pipeline.parse_run`` and ``pipeline.score_iteration``): runs,
    per-iteration aggregates and rule results. Generating into the same store
    again replaces those rows.

    Layout: ``runs/<node>/<iteration>/<tool file>`` plus ``snapshots/<node>/``.
    The default spec yields 3 tools x 3 nodes x 12 iterations = 108 runs and
    36 aggregate rows.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    store_path = Path(store_path) if store_path is not None else out_dir / "uca.db"
    rng = random.Random(spec.seed)
    ruleset = default_rules()
    start_iso = spec.start_time.isoformat()

    snapshots = {node.name: make_snapshot(node.profile, node=node.name)
                 for node in spec.nodes}
    # an evaluation depends on the rules and the snapshot alone: once per node
    evaluations = {name: evaluate_rules(ruleset, snapshot)
                   for name, snapshot in snapshots.items()}
    # open and lock the store first, so a store that cannot be written leaves no file
    with open_store(store_path) as store, store.transaction():
        for name, snapshot in snapshots.items():
            save_snapshot(snapshot, out_dir / "snapshots" / name, captured_at=start_iso)
        for iteration in range(spec.iterations):
            phase = _phase_for(iteration)
            for node_index, node in enumerate(spec.nodes):
                run_dir = out_dir / "runs" / node.name / str(iteration)
                run_dir.mkdir(parents=True, exist_ok=True)
                for tool_index, tool in enumerate(Tool):
                    # the bytes written are the bytes parsed, as ``uca ingest`` reads them
                    document = _draw_documents(rng, spec, node, tool,
                                               weights.aide_penalty_per_change).encode()
                    (run_dir / TOOL_FILE_NAMES[tool]).write_bytes(document)
                    runtime_mean, runtime_sd = spec.runtime_distributions[tool]
                    runtime = max(0.0, rng.gauss(runtime_mean, runtime_sd))
                    timestamp = (spec.start_time + timedelta(
                        hours=iteration, minutes=10 * node_index, seconds=120 * tool_index)
                    ).isoformat()
                    store.record_audit_run(pipeline.parse_run(
                        node.name, tool, document, iteration=iteration, phase=phase,
                        runtime_seconds=runtime, timestamp=timestamp, weights=weights,
                    ))

                agg_timestamp = (spec.start_time + timedelta(
                    hours=iteration, minutes=10 * node_index + 9)).isoformat()
                pipeline.score_iteration(
                    store, node.name, iteration, weights=weights,
                    timestamp=agg_timestamp, results=evaluations[node.name],
                )

    scored = len(spec.nodes) * spec.iterations  # one aggregate per node and iteration
    return CorpusResult(
        corpus_dir=out_dir,
        store_path=store_path,
        runs_recorded=scored * len(Tool),
        aggregates_recorded=scored,
        rule_results_recorded=scored * len(ruleset.rules),
    )
