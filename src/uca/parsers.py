"""Parsers for the three audit tool output formats.

Each parser is a pure function from a document to a structured report.
They tolerate format noise (comments, unknown keys, extra sections) but fail
loudly when a required field is missing or unusable, or when the bytes of a
document cannot be decoded.

Every parser takes its document as text, as bytes, or as an iterable of byte
pieces, such as a file read in 64 KiB pieces (``FileChunks``).

Formats:
  - Lynis machine report: ``key=value`` lines (the ``lynis-report.dat`` style
    file), required key ``hardening_index``. Bytes are UTF-8; the pieces are
    joined, then decoded.
  - XCCDF scan results: XML with ``rule-result`` elements each carrying one
    result status; element matching is by local name so any XCCDF namespace
    version is accepted. The document is streamed through expat in one
    pass that builds no tree, so memory does not grow with its size, and
    the encoding of bytes comes from the XML declaration. Only the last
    ``TestResult`` is scored.
    Bytes declared UTF-8 or US-ASCII, with no entity declaration, run no
    Python callback on the elements before the piece where the bytes
    ``rule-result`` first occur (the Benchmark's Profile, Group and Rule
    definitions in ``oscap`` output): no result can start there, so the
    tally cannot change, and expat still checks every byte.
  - AIDE comparison report: summary block with added/removed/changed counts,
    or a clean-match marker when the database matched the filesystem. Bytes
    are UTF-8, as for Lynis.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator
from xml.parsers import expat

from .errors import (
    EncodingError,
    MalformedReportError,
    MalformedValueError,
    MissingFieldError,
    NoResultsError,
    UndefinedComplianceError,
    XmlError,
)

__all__ = [
    "LynisReport",
    "ScapReport",
    "AideReport",
    "FileChunks",
    "parse_lynis_report",
    "parse_xccdf_results",
    "parse_aide_report",
    "OTHER_STATUSES",
]

# Result statuses that do not enter the compliance denominator. ``fixed`` is
# folded into pass_count but still surfaced here for auditability.
OTHER_STATUSES = (
    "notapplicable",
    "notchecked",
    "notselected",
    "informational",
    "error",
    "unknown",
    "fixed",
)


@dataclass(frozen=True)
class LynisReport:
    """Parsed Lynis machine report."""

    hardening_index: int
    raw_key_count: int


@dataclass(frozen=True)
class ScapReport:
    """Tallied XCCDF rule results with the derived compliance percentage."""

    pass_count: int
    fail_count: int
    other_counts: dict[str, int] = field(default_factory=dict)
    compliance_pct: float = 0.0


@dataclass(frozen=True)
class AideReport:
    """Added/removed/changed entry counts from an AIDE comparison report."""

    added: int
    removed: int
    changed: int

    @property
    def total_changes(self) -> int:
        return self.added + self.removed + self.changed


def _text(document: str | bytes | Iterable[bytes]) -> str:
    """The text of a document; bytes, or byte pieces joined, are strict UTF-8
    with any newline convention, read as a text-mode file would."""
    if isinstance(document, str):
        return document
    if not isinstance(document, bytes):
        document = b"".join(document)
    try:
        text = document.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError(
            f"not UTF-8 text: {exc.reason} at byte offset {exc.start}"
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def parse_lynis_report(document: str | bytes | Iterable[bytes]) -> LynisReport:
    """Extract the hardening index from a Lynis ``key=value`` report, given as
    text, bytes or byte pieces (such as ``FileChunks``).

    Comments (``#``) and blank lines are skipped; lines without ``=`` are
    ignored as noise. Duplicate keys resolve to the last occurrence, which
    mirrors append-style report files.

    Raises:
        EncodingError: bytes that are not UTF-8.
        MissingFieldError: no ``hardening_index`` key in the document.
        MalformedValueError: its value is not an integer in [0, 100].
    """
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    key_count = 0
    for lineno, line in enumerate(_text(document).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            continue
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not key:
            continue
        key_count += 1
        values[key] = value.strip()
        lines[key] = lineno
    if "hardening_index" not in values:
        raise MissingFieldError("hardening_index key not found")
    raw = values["hardening_index"]
    try:
        index = int(raw)
    except ValueError:
        raise MalformedValueError(
            f"line {lines['hardening_index']}: hardening_index={raw!r} is not an integer"
        ) from None
    if not 0 <= index <= 100:
        raise MalformedValueError(
            f"line {lines['hardening_index']}: hardening_index {index} outside [0, 100]"
        )
    return LynisReport(hardening_index=index, raw_key_count=key_count)


_CHUNK_BYTES = 64 * 1024
# the one element name a tally starts at, as bytes, and the encodings whose
# bytes hold every element name as written
_RULE_RESULT = b"rule-result"
_SPLIT = len(_RULE_RESULT) - 1  # the most of the name a piece can end with, not whole
_ASCII_NAMES = ("utf-8", "us-ascii")


class FileChunks:
    """A file read in 64 KiB pieces, from the start on every iteration.

    ``len()`` is the file's size in bytes. Passed to a parser in place of
    the file's contents; ``parse_xccdf_results`` never holds the document
    whole in memory.
    """

    __slots__ = ("path",)

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = path

    def __len__(self) -> int:
        return os.stat(self.path).st_size

    def __iter__(self) -> Iterator[bytes]:
        with open(self.path, "rb") as handle:
            while chunk := handle.read(_CHUNK_BYTES):
                yield chunk


class _LocalNames(dict):
    """Expat names ("uri}local" or "local") to local names, on demand."""

    def __missing__(self, name: str) -> str:
        local = self[name] = name.rpartition("}")[2]
        return local


def parse_xccdf_results(document: str | bytes | Iterable[bytes]) -> ScapReport:
    """Tally rule-result statuses from an XCCDF results document.

    The document is given as text, as bytes, or as an iterable of byte
    chunks (such as ``FileChunks``). It is parsed in one streaming pass
    that keeps no tree, so memory does not grow with the document's size.
    Bytes are decoded by the XML declaration (UTF-8 without one); text is
    parsed as given.

    Matching is by local element name, ignoring namespaces, since SCAP
    content ships under several namespace versions; prefixes must still be
    bound. A ``rule-result``'s status is the text of its first ``result``
    child up to that child's first child element, stripped and lower-cased.
    Only the rule-results that start after the last ``TestResult`` start
    are scored: each TestResult is one evaluation (NIST IR 7275 r4,
    XCCDF 1.2), so a document carrying several is scored by its latest.
    ``fixed`` counts as a pass; statuses outside the known set are tallied
    under ``unknown``. The compliance percentage covers pass+fail only.

    Before the first rule-result no result is open and the tally is empty,
    so an element there changes nothing. When the document is bytes (or byte
    chunks) whose XML declaration names UTF-8 or US-ASCII, every element
    name is its own bytes, so the Python start callback runs only from the
    first piece whose bytes, with the 10 before them, hold ``rule-result``;
    expat still parses and checks every byte before it. Text, other
    encodings, no declaration, or any ``<!ENTITY`` declaration (whose
    replacement text could hold a rule-result the bytes do not spell out)
    keep the callback on every element.

    Raises:
        XmlError: malformed XML, including an undefined or external entity.
        NoResultsError: no rule-result elements to score.
        UndefinedComplianceError: zero pass and zero fail results.
    """
    parser = expat.ParserCreate(namespace_separator="}")
    local_names = _LocalNames()
    # status -> count for the current TestResult (None: no result child). A
    # new TestResult starts a new dict; a rule-result is added to the dict
    # current at its start, so it belongs where it starts in document order.
    counts: dict[str | None, int] = {}
    # one [depth, counts] per open rule-result whose first result child has
    # not ended; end events are handled only while there is one
    frames: list[list] = []
    depth = 0        # open elements from the outermost frame's rule-result down
    text_depth = 0   # depth of the result element whose text is read, or 0
    text: list[str] = []

    def finish_text() -> None:
        nonlocal text_depth
        parser.CharacterDataHandler = None
        text_depth = 0
        tally = frames.pop()[1]
        status = "".join(text).strip().lower()
        text.clear()
        tally[status] = tally.get(status, 0) + 1
        if not frames:
            parser.EndElementHandler = None

    def start(name: str, attrs: list) -> None:
        nonlocal counts, depth, text_depth
        local = local_names[name]
        if text_depth:
            finish_text()  # a child element ends the result's text
        if frames:
            depth += 1
            if local == "result" and depth == frames[-1][0] + 1:
                text_depth = depth
                parser.CharacterDataHandler = text.append
        if local == "rule-result":
            if not frames:
                depth = 1
                parser.EndElementHandler = end
            frames.append([depth, counts])
        elif local == "TestResult":
            counts = {}

    def end(name: str) -> None:
        nonlocal depth
        if depth == text_depth:
            finish_text()
        elif depth == frames[-1][0]:
            tally = frames.pop()[1]  # no result child
            tally[None] = tally.get(None, 0) + 1
            if not frames:
                parser.EndElementHandler = None
        depth -= 1

    def skipped_entity(name: str, is_parameter_entity: bool) -> None:
        # expat skips an undeclared entity when the DTD has an external
        # part it does not read; its replacement text is unknown
        if not is_parameter_entity:
            raise XmlError(
                f"not well-formed XML: undefined entity &{name};: line "
                f"{parser.CurrentLineNumber}, column {parser.CurrentColumnNumber}"
            )

    searching = True  # start may still be skipped until a piece holds a rule-result
    tail = b""  # the last bytes searched, for a name split across pieces

    def install_start(*_) -> None:
        # for good: from a piece holding the name, or at an entity declaration
        nonlocal searching
        searching = False
        parser.StartElementHandler = start
        parser.XmlDeclHandler = parser.EntityDeclHandler = None

    def xml_decl(version: str, encoding: str | None, standalone: int) -> None:
        if encoding and encoding.lower() in _ASCII_NAMES:
            parser.StartElementHandler = None

    parser.ordered_attributes = True  # a list is cheaper to build; unused
    parser.StartElementHandler = start
    parser.XmlDeclHandler = xml_decl
    parser.EntityDeclHandler = install_start
    parser.SkippedEntityHandler = skipped_entity
    # an external entity is refused, never fetched: expat then fails the parse
    parser.ExternalEntityRefHandler = lambda *_: 0
    chunks = (document,) if isinstance(document, (str, bytes)) else document
    try:
        for chunk in chunks:
            if searching:
                if (not isinstance(chunk, bytes) or _RULE_RESULT in chunk
                        or _RULE_RESULT in tail + chunk[:_SPLIT]):
                    install_start()
                else:
                    tail = (tail + chunk[-_SPLIT:])[-_SPLIT:]
            parser.Parse(chunk, False)
        parser.Parse(b"", True)
    except expat.ExpatError as exc:
        raise XmlError(f"not well-formed XML: {exc}") from None
    finally:
        # the handlers close over the parser; clearing them frees both now
        parser.StartElementHandler = parser.EndElementHandler = None
        parser.CharacterDataHandler = parser.SkippedEntityHandler = None
        parser.ExternalEntityRefHandler = None
        parser.XmlDeclHandler = parser.EntityDeclHandler = None

    if not counts:
        raise NoResultsError(
            "no rule-result elements in the document or after its last TestResult start"
        )
    passes = 0
    fails = 0
    others = {status: 0 for status in OTHER_STATUSES}
    for status, count in counts.items():
        if status == "pass":
            passes += count
        elif status == "fail":
            fails += count
        elif status == "fixed":
            others["fixed"] += count
            passes += count
        elif status in others:
            others[status] += count
        else:
            others["unknown"] += count
    evaluated = passes + fails
    if evaluated == 0:
        raise UndefinedComplianceError(
            "no pass or fail results; compliance percentage is undefined"
        )
    return ScapReport(
        pass_count=passes,
        fail_count=fails,
        other_counts=others,
        compliance_pct=100.0 * passes / evaluated,
    )


# Accepts both AIDE wordings ("Added entries: 2" and "Added files: 2");
# section headers without a count deliberately do not match.
_AIDE_COUNT_RE = re.compile(
    r"^\s*(Added|Removed|Changed)\s+(?:entries|files):\s*(\d+)\s*$",
    re.IGNORECASE | re.MULTILINE,
)
_AIDE_CLEAN_RE = re.compile(
    r"found\s+NO\s+differences|Looks\s+okay", re.IGNORECASE
)


def parse_aide_report(document: str | bytes | Iterable[bytes]) -> AideReport:
    """Extract added/removed/changed counts from an AIDE comparison report,
    given as text, bytes or byte pieces (such as ``FileChunks``).

    A clean-match report (database matches, no summary counts) yields
    (0, 0, 0). If summary count lines are present, all three must be; a
    partial summary is rejected rather than silently zero-filled.

    Raises:
        EncodingError: bytes that are not UTF-8.
        MalformedReportError: neither a complete summary nor a clean-match
            marker was found.
    """
    document = _text(document)
    counts: dict[str, int] = {}
    for match in _AIDE_COUNT_RE.finditer(document):
        kind = match.group(1).lower()
        # First occurrence wins: the summary block precedes detail sections.
        counts.setdefault(kind, int(match.group(2)))
    if counts:
        missing = [k for k in ("added", "removed", "changed") if k not in counts]
        if missing:
            raise MalformedReportError(
                f"incomplete summary: missing {', '.join(missing)} count(s)"
            )
        return AideReport(counts["added"], counts["removed"], counts["changed"])
    if _AIDE_CLEAN_RE.search(document):
        return AideReport(0, 0, 0)
    raise MalformedReportError(
        "no summary counts and no clean-match marker found"
    )
