"""Declarative weighted security rules evaluated against node snapshots.

A rule set is an ordered list of weighted checks (config directives, service
states, file modes, firewall state). Rules never shell into hosts: they read
a NodeSnapshot, a captured view of the node's configuration, so evaluation
is deterministic and testable offline. Absence of a file, key or service is
a failing observation, not an error.

The compliance score is 100 * (weight of passed rules) / (total weight).

Each value checks itself when made, so a rules document, the built-in set and a
library caller meet one definition of a valid rule, and evaluation checks nothing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path, PurePosixPath
from typing import Iterator, Sequence

from .errors import (
    DuplicateIdError,
    NonPositiveWeightError,
    SchemaError,
    SnapshotError,
)
from .jsondoc import dumps, known_keys, load, typed

__all__ = [
    "CheckType",
    "FirewallState",
    "Rule",
    "RuleSet",
    "RuleResult",
    "NodeSnapshot",
    "load_rules",
    "default_rules",
    "evaluate_rule",
    "evaluate_rules",
    "score_rules",
    "save_snapshot",
    "load_snapshot",
]

MISSING_EVIDENCE = "not present"


class CheckType(str, Enum):
    CONFIG_DIRECTIVE = "config_directive"
    SERVICE_ACTIVE = "service_active"
    FILE_MODE = "file_mode"
    FIREWALL_ACTIVE = "firewall_active"


class FirewallState(str, Enum):
    ACTIVE = "active"
    INACTIVE = "inactive"
    UNKNOWN = "unknown"


def _check_weight(weight: object, where: str) -> None:
    if typed(weight, int, SchemaError, f"{where}: weight") < 1:
        raise NonPositiveWeightError(f"{where}: weight must be >= 1, got {weight}")


@dataclass(frozen=True)
class Rule:
    """One weighted check; ``check_type`` may be given as its string value. A field
    not of its JSON type, an empty id, a weight below 1 (NonPositiveWeightError), a
    missing param, a param its check type does not read, a bad regex or a
    ``max_mode`` outside [0000, 7777] raise SchemaError."""

    id: str
    name: str
    check_type: CheckType
    weight: int
    params: dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.id, str) or not self.id:
            raise SchemaError("rule id must be a non-empty string")
        where = f"rule {self.id!r}"
        typed(self.name, str, SchemaError, f"{where}: name")
        check_type = typed(self.check_type, CheckType, SchemaError, f"{where}: check_type")
        object.__setattr__(self, "check_type", check_type)
        _check_weight(self.weight, where)
        params = typed(self.params, dict, SchemaError, f"{where}: params")
        required, optional, _ = _CHECKS[check_type]
        known_keys(params, required + optional, SchemaError, f"{where}: params")
        for key in required:
            if key not in params:
                raise SchemaError(f"{where}: params missing {key!r} for {check_type.value}")
        if typed(params.get("expected_is_regex", False), bool, SchemaError,
                 f"{where}: params.expected_is_regex"):
            try:
                re.compile(str(params["expected"]))
            except (re.error, OverflowError, RecursionError) as exc:
                raise SchemaError(f"{where}: bad expected regex: {exc}") from None
        if check_type is CheckType.FILE_MODE:
            _parse_mode(str(params["max_mode"]), f"{where} max_mode", SchemaError)


@dataclass(frozen=True)
class RuleSet:
    """At least one rule, no two with one id (DuplicateIdError)."""

    rules: tuple[Rule, ...]

    def __post_init__(self) -> None:
        if not self.rules:
            raise SchemaError("a rule set must list at least one rule")
        seen: set[str] = set()
        for rule in self.rules:
            if not isinstance(rule, Rule):
                raise SchemaError(f"a rule set entry must be a Rule, got {rule!r}")
            if rule.id in seen:
                raise DuplicateIdError(f"duplicate rule id {rule.id!r}")
            seen.add(rule.id)

    @property
    def total_weight(self) -> int:
        return sum(rule.weight for rule in self.rules)


@dataclass(frozen=True)
class RuleResult:
    """One rule's outcome on a snapshot, with the weight of the rule that made it."""

    rule_id: str
    passed: bool
    evidence: str
    weight: int

    def __post_init__(self) -> None:
        _check_weight(self.weight, f"rule {self.rule_id!r}")


@dataclass
class NodeSnapshot:
    """Captured configuration state of one node.

    ``files`` maps absolute paths to text content, ``services`` maps service
    names to state strings (active/inactive), ``permissions`` maps absolute
    paths to (int mode, owner, group), each taken as typed. A ``node`` that is
    not a non-empty str, a map that is not a dict, an entry of another type, a
    bool mode among them, or a ``firewall_state`` that is not a FirewallState
    raises SnapshotError.
    """

    node: str
    files: dict[str, str] = field(default_factory=dict)
    services: dict[str, str] = field(default_factory=dict)
    permissions: dict[str, tuple[int, str, str]] = field(default_factory=dict)
    firewall_state: FirewallState = FirewallState.UNKNOWN

    def __post_init__(self) -> None:
        if not (isinstance(self.node, str) and self.node):
            raise SnapshotError(f"node {self.node!r} is not a non-empty str")
        if not isinstance(self.firewall_state, FirewallState):
            raise SnapshotError(f"firewall_state {self.firewall_state!r} is not a FirewallState")
        for what, entries in (("files", self.files), ("services", self.services),
                              ("permissions", self.permissions)):
            if not isinstance(entries, dict):
                raise SnapshotError(f"{what} {entries!r} is not a dict")
        for what, entries in (("files", self.files), ("services", self.services)):
            for key, value in entries.items():
                if not (isinstance(key, str) and isinstance(value, str)):
                    raise SnapshotError(f"{what}: {key!r}: {value!r} is not text to text")
        for path, entry in self.permissions.items():
            if not (isinstance(path, str) and isinstance(entry, tuple) and len(entry) == 3
                    and type(entry[0]) is int and all(isinstance(name, str) for name in entry[1:])):
                raise SnapshotError(f"permissions: {path!r}: {entry!r} is not"
                                    f" (int mode, owner, group)")


def _validate_rule_dict(entry: object, position: int) -> Rule:
    entry = typed(entry, dict, SchemaError, f"rule #{position}")
    known_keys(entry, Rule.__dataclass_fields__, SchemaError, f"rule #{position}")
    for name in ("id", "name", "check_type", "weight"):
        if name not in entry:
            raise SchemaError(f"rule #{position}: missing required field {name!r}")
    if not typed(entry["id"], str, SchemaError, f"rule #{position}: id"):
        raise SchemaError(f"rule #{position}: id must be a non-empty string")
    return Rule(**entry)


def _parse_mode(text: str, what: str, error: type[Exception]) -> int:
    try:
        mode = int(text, 8)
    except ValueError:
        raise error(f"{what}: {text!r} is not an octal mode") from None
    if not 0 <= mode <= 0o7777:
        raise error(f"{what}: {text!r} outside [0000, 7777]")
    return mode


def load_rules(document: str | bytes) -> RuleSet:
    """Parse a JSON rules document (top-level list of rules) into a RuleSet; each
    entry's fields are checked by the Rule it makes, and the list by the RuleSet."""
    data = load(document, list, SchemaError, "rules document")
    return RuleSet(tuple(_validate_rule_dict(entry, position)
                         for position, entry in enumerate(data)))


def default_rules() -> RuleSet:
    """The built-in eight-rule baseline policy (total weight 61)."""
    sshd = "/etc/ssh/sshd_config"
    return RuleSet(rules=(
        Rule(
            id="ssh_root_login",
            name="SSH root login disabled",
            check_type=CheckType.CONFIG_DIRECTIVE,
            weight=8,
            params={"path": sshd, "key": "PermitRootLogin", "expected": "no"},
        ),
        Rule(
            id="ssh_empty_passwords",
            name="SSH empty passwords disabled",
            check_type=CheckType.CONFIG_DIRECTIVE,
            weight=8,
            params={"path": sshd, "key": "PermitEmptyPasswords", "expected": "no"},
        ),
        Rule(
            id="ssh_max_auth_tries",
            name="SSH authentication attempts limited",
            check_type=CheckType.CONFIG_DIRECTIVE,
            weight=6,
            params={
                "path": sshd,
                "key": "MaxAuthTries",
                "expected": "[1-4]",
                "expected_is_regex": True,
            },
        ),
        Rule(
            id="x11_forwarding_disabled",
            name="X11 forwarding disabled",
            check_type=CheckType.CONFIG_DIRECTIVE,
            weight=7,
            params={"path": sshd, "key": "X11Forwarding", "expected": "no"},
        ),
        Rule(
            id="firewall_active",
            name="Host firewall active",
            check_type=CheckType.FIREWALL_ACTIVE,
            weight=8,
            params={},
        ),
        Rule(
            id="auditd_active",
            name="auditd service active",
            check_type=CheckType.SERVICE_ACTIVE,
            weight=7,
            params={"service": "auditd"},
        ),
        Rule(
            id="shadow_file_mode",
            name="/etc/shadow permissions restricted",
            check_type=CheckType.FILE_MODE,
            weight=7,
            params={"path": "/etc/shadow", "max_mode": "0640"},
        ),
        Rule(
            id="password_max_days",
            name="Password maximum age enforced",
            check_type=CheckType.CONFIG_DIRECTIVE,
            weight=10,
            params={
                "path": "/etc/login.defs",
                "key": "PASS_MAX_DAYS",
                "expected": "([1-9]|[1-8][0-9]|90)",
                "expected_is_regex": True,
            },
        ),
    ))


def _find_directive(content: str, key: str, sshd: bool) -> tuple[str, str] | None:
    """The ``key value`` line in effect, as (line, value). With ``sshd`` the
    first one before any ``Match`` line (sshd_config(5)), otherwise the last
    one, as shadow-utils' getdef reads login.defs."""
    found = None
    for raw in content.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = re.split(r"[=\s]+", line, maxsplit=1)
        word = parts[0].lower()
        if sshd and word == "match":
            break
        if word == key.lower():
            found = (line, parts[1].strip() if len(parts) > 1 else "")
            if sshd:
                break
    return found


def _check_config_directive(rule: Rule, snapshot: NodeSnapshot) -> tuple[bool, str]:
    path = str(rule.params["path"])
    content = snapshot.files.get(path)
    if content is None:
        return False, MISSING_EVIDENCE
    sshd = PurePosixPath(path).name == "sshd_config"
    hit = _find_directive(content, str(rule.params["key"]), sshd)
    if hit is None:
        return False, MISSING_EVIDENCE
    line, value = hit
    expected = str(rule.params["expected"])
    if rule.params.get("expected_is_regex"):
        return re.fullmatch(expected, value) is not None, line
    return value == expected, line


def _check_service_active(rule: Rule, snapshot: NodeSnapshot) -> tuple[bool, str]:
    service = str(rule.params["service"])
    state = snapshot.services.get(service)
    if state is None:
        return False, MISSING_EVIDENCE
    return state == "active", f"{service} {state}"


def _check_file_mode(rule: Rule, snapshot: NodeSnapshot) -> tuple[bool, str]:
    path = str(rule.params["path"])
    entry = snapshot.permissions.get(path)
    if entry is None:
        return False, MISSING_EVIDENCE
    mode, owner, group = entry
    max_mode = int(str(rule.params["max_mode"]), 8)
    return (mode & ~max_mode) == 0, f"{path} {mode:04o} {owner}:{group}"


def _check_firewall_active(rule: Rule, snapshot: NodeSnapshot) -> tuple[bool, str]:
    state = snapshot.firewall_state
    return state is FirewallState.ACTIVE, f"firewall {state.value}"


# Each check type's required params, its optional ones and its check; a rule
# whose params hold any other key is refused.
_CHECKS = {
    CheckType.CONFIG_DIRECTIVE: (("path", "key", "expected"), ("expected_is_regex",),
                                 _check_config_directive),
    CheckType.SERVICE_ACTIVE: (("service",), (), _check_service_active),
    CheckType.FILE_MODE: (("path", "max_mode"), (), _check_file_mode),
    CheckType.FIREWALL_ACTIVE: ((), (), _check_firewall_active),
}


def evaluate_rule(rule: Rule, snapshot: NodeSnapshot) -> RuleResult:
    """Evaluate one rule against a snapshot; absence fails, never raises."""
    passed, evidence = _CHECKS[rule.check_type][2](rule, snapshot)
    return RuleResult(rule.id, passed, evidence, rule.weight)


def evaluate_rules(ruleset: RuleSet, snapshot: NodeSnapshot) -> list[RuleResult]:
    """Evaluate every rule in order; deterministic over a fixed snapshot."""
    return [evaluate_rule(rule, snapshot) for rule in ruleset.rules]


def score_rules(results: Sequence[RuleResult]) -> float:
    """Weighted compliance percentage of one evaluation, from its results' own
    weights: integer sums and one float division, as the store's node summary
    scores them. No results raise SchemaError."""
    if not results:
        raise SchemaError("no rule results to score")
    passed = sum(result.weight for result in results if result.passed)
    return 100.0 * passed / sum(result.weight for result in results)


# --- snapshot directory format ----------------------------------------------
#
# manifest.json        {"node": ..., "captured_at": ...}
# files/<path>         node files mirrored under their absolute paths
# services.tsv         name <TAB> state
# permissions.tsv      path <TAB> octal mode <TAB> owner <TAB> group
# firewall.txt         one word: active | inactive


def save_snapshot(
    snapshot: NodeSnapshot, directory: Path | str, captured_at: str = ""
) -> None:
    """Write a snapshot to its on-disk directory layout."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {"node": snapshot.node, "captured_at": captured_at}
    (directory / "manifest.json").write_text(dumps(manifest) + "\n", encoding="utf-8")
    for path in sorted(snapshot.files):
        rel = PurePosixPath(path)
        if not rel.is_absolute():
            raise SnapshotError(f"snapshot file path must be absolute: {path!r}")
        dest = directory.joinpath("files", *rel.parts[1:])
        dest.parent.mkdir(parents=True, exist_ok=True)
        dest.write_text(snapshot.files[path], encoding="utf-8")
    with open(directory / "services.tsv", "w", encoding="utf-8") as handle:
        for name in sorted(snapshot.services):
            handle.write(f"{name}\t{snapshot.services[name]}\n")
    with open(directory / "permissions.tsv", "w", encoding="utf-8") as handle:
        for path in sorted(snapshot.permissions):
            mode, owner, group = snapshot.permissions[path]
            handle.write(f"{path}\t{mode:04o}\t{owner}\t{group}\n")
    (directory / "firewall.txt").write_text(snapshot.firewall_state.value + "\n",
                                            encoding="utf-8")


def _read_snapshot_file(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SnapshotError(f"{path}: not UTF-8: {exc}") from None


def _tsv_rows(path: Path, columns: str) -> Iterator[tuple[str, list[str]]]:
    """("path:line", fields) for each non-blank row of a table file, if any."""
    if not path.is_file():
        return
    for lineno, line in enumerate(_read_snapshot_file(path).splitlines(), 1):
        if line.strip():
            fields = line.split("\t")
            if len(fields) != columns.count("<TAB>") + 1:
                raise SnapshotError(f"{path}:{lineno}: expected {columns}")
            yield f"{path}:{lineno}", fields


def load_snapshot(directory: Path | str) -> NodeSnapshot:
    """Read a snapshot directory back into a NodeSnapshot.

    Raises SnapshotError for a missing/invalid manifest, a file that is not
    UTF-8 or malformed table rows; a missing firewall.txt loads as ``unknown``.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.is_file():
        raise SnapshotError(f"{directory}: missing manifest.json")
    manifest = load(_read_snapshot_file(manifest_path), dict, SnapshotError, str(manifest_path))
    node = typed(manifest.get("node", ""), str, SnapshotError, f"{manifest_path}: node")
    if not node:
        raise SnapshotError(f"{manifest_path}: missing node id")

    files: dict[str, str] = {}
    files_root = directory / "files"
    if files_root.is_dir():
        for file_path in sorted(files_root.rglob("*")):
            if file_path.is_file():
                rel = file_path.relative_to(files_root)
                files["/" + rel.as_posix()] = _read_snapshot_file(file_path)

    services = {name: state for _, (name, state)
                in _tsv_rows(directory / "services.tsv", "name<TAB>state")}

    permissions = {path: (_parse_mode(mode, where, SnapshotError), owner, group)
                   for where, (path, mode, owner, group) in _tsv_rows(
                       directory / "permissions.tsv", "path<TAB>mode<TAB>owner<TAB>group")}

    firewall = FirewallState.UNKNOWN
    firewall_path = directory / "firewall.txt"
    if firewall_path.is_file():
        word = _read_snapshot_file(firewall_path).strip()
        try:
            firewall = FirewallState(word)
        except ValueError:
            raise SnapshotError(f"{firewall_path}: expected 'active' or 'inactive', got {word!r}") from None

    return NodeSnapshot(node, files, services, permissions, firewall)
