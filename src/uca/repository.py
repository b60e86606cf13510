"""Single-file SQLite repository for audit runs, scores and rule outcomes.

Schema version 4 (``PRAGMA user_version``), four tables:
  audit_runs           one row per (node, tool, iteration)
  aggregate_scores     one row per (node, iteration) with the unified scores
  custom_rule_results  one row per (node, iteration, rule_id), with its rule's
                       weight in the evaluation that recorded it
  node_summary         one row per node with runs: the numbers the report
                       shows for it (``SUMMARY_COLUMNS``), derived from the
                       rows of the other three by one statement (``_DERIVATION``)

Row invariants are the schema's: UNIQUE keys, CHECK ranges, standard_uca
between its components and a weight >= 1 on every result. Opening an older
store upgrades it in one transaction. A version-1 store (user_version 0) keeps
the highest id of each key, and each result takes its rule's weight from the
table of rule definitions, which is then dropped; a result of no stored rule
raises CorruptStoreError and leaves the file as it was. A version-2 store drops
that table, which nothing read. Every upgrade adds node_summary and its
triggers, and its transaction fills the table.

Summary contract: a trigger on each insert, update and delete of the other
three tables deletes the summary of the row's node, whichever SQLite client
writes, and a write transaction refills before it commits: one statement
derives every node that has runs and no summary. So a stored summary always
equals the derivation over the committed rows. A read never writes: the same
statement derives a summary that another client's write deleted, on the spot.

Error contract: every statement runs under ``Store._errors()``, which raises a
rejected row, unbindable text or an integer past 64 bits as
ConstraintViolationError, a store that cannot be opened or is locked,
read-only, failing or full as StoreIOError, and any other database error (not a
database, malformed) as CorruptStoreError. A streamed query maps a failure at
any of its rows the same way.

Write contract: every write runs in ``Store.transaction()``, which commits
once at the end of its outermost block, so a command that wraps its writes in
one block writes all or nothing. Recording a run or an aggregate updates the
row of its key in place, so the row keeps its id; recording an evaluation
replaces the results of its one (node, iteration), each with the weight it
carries, so a rule score read back is ``rules.score_rules`` of the results.

Concurrency contract: opening a version-4 store takes no write lock, so a
read-only file opens and reads see the committed state while another process
writes; an older store must be writable once, to be upgraded. A read command
runs all its queries in one ``Store.read_transaction()``, so it sees one
committed state. Writes are serialized by a lock on the store handle, which may
be passed between threads.
Timestamps are stored as ISO-8601 text. Queries return plain rows and values,
no record objects; only the writes take records, whose fields are the columns
of one list per table, from which its CSV header, insert, export and import derive.
The read of every run (``score_rows``) yields rows as the cursor does, and
the exports write each row as it is read, so a reader that keeps no per-run
rows holds memory by node count, not run count. The read of every summary
(``summary_rows``) is one statement: the stored rows, and the derivation of
each node that has runs and no row.
A file whose rows are read from the store as it is written can be written
under the temporary name that ``replace_together``'s ``stage`` gives it; the
block moves it into place with a command's other staged files only when every
one is complete, and undoes the moves if one fails, so no file changes halfway.
"""

from __future__ import annotations

import csv
import io
import math
import os
import sqlite3
import stat
import threading
from collections.abc import Callable, Iterable, Iterator
from contextlib import AbstractContextManager, contextmanager, suppress
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from itertools import chain
from pathlib import Path

from .errors import (
    ConstraintViolationError,
    CorruptStoreError,
    EmptyStoreError,
    StoreIOError,
)
from .rules import RuleResult
from .scoring import AggregateScore, Tool

__all__ = [
    "Phase",
    "AuditRun",
    "Store",
    "open_store",
    "write_csv",
    "replace_together",
    "AUDIT_CSV_HEADER",
    "AGGREGATE_CSV_HEADER",
    "SUMMARY_COLUMNS",
]


class Phase(str, Enum):
    PRE = "pre"
    POST = "post"
    ITERATION = "iteration"


@dataclass
class AuditRun:
    """One tool execution record.

    ``raw_score`` holds the tool-native value (hardening index, compliance
    percentage, or total AIDE change count); ``normalized_score`` the derived
    0-100 value.
    """

    node: str
    tool: Tool
    timestamp: str
    iteration: int
    phase: Phase
    raw_score: float
    normalized_score: float
    runtime_seconds: float


def _optional_float(text: str) -> float | None:
    return float(text) if text else None


# The columns of each exported table, in table and CSV order, as (name, parser
# of its CSV text). A column's name is also its record's field. The CSV headers,
# the inserts, the exports and the imports are all derived from these. The
# export writes each value as SQLite returns it: a float by ``repr``, which
# reads back exactly, and a NULL as an empty cell.
_RUN_COLUMNS = (("node", str), ("tool", Tool), ("timestamp", str), ("iteration", int),
                ("phase", Phase), ("raw_score", float), ("normalized_score", float),
                ("runtime_seconds", float))
_AGG_COLUMNS = (("node", str), ("iteration", int), ("lynis", float), ("openscap", float),
                ("aide", float), ("custom", _optional_float), ("standard_uca", float),
                ("extended_uca", _optional_float), ("timestamp", str))
AUDIT_CSV_HEADER = [name for name, _ in _RUN_COLUMNS]
AGGREGATE_CSV_HEADER = [name for name, _ in _AGG_COLUMNS]
# The columns of each table's UNIQUE key, whose row a record updates in place,
# and the order in which its rows are read and exported
_RUN_KEY = ("node", "tool", "iteration")
_AGG_KEY = ("node", "iteration")
_RUN_ORDER = f" ORDER BY {', '.join(_RUN_KEY)}"
_AGG_ORDER = f" ORDER BY {', '.join(_AGG_KEY)}"

# The columns of a node's summary: the mean of each tool's runs and of each
# aggregate score, and the tally of its latest evaluation, as the report shows them
SUMMARY_COLUMNS = ("node", "lynis", "openscap", "aide", "custom", "standard_uca",
                   "extended_uca", "passed", "failed", "score_pct")


class _Mean(list):
    """The SQL aggregate ``mean(x)``: the fsum of the non-NULL values over
    their count, or NULL when there are none, whatever the order of the rows."""
    step = list.append

    def finalize(self) -> float | None:
        values = [value for value in self if value is not None]
        return math.fsum(values) / len(values) if values else None


# The one statement that derives the SUMMARY_COLUMNS of the nodes named by the
# CTE ``wanted``; it binds no parameter. The tally is that of the
# latest evaluation, scored as ``rules.score_rules`` does: integer sums and one
# float division. A node with no aggregate or no result has NULL there.
_DERIVATION = f"""SELECT {', '.join(SUMMARY_COLUMNS)} FROM (
    SELECT node, {', '.join(f"mean(normalized_score) FILTER (WHERE tool = '{tool.value}')"
                            f" AS {tool.value}" for tool in Tool)}
    FROM audit_runs WHERE node IN wanted GROUP BY node
) LEFT JOIN (
    SELECT node, mean(custom) AS custom, mean(standard_uca) AS standard_uca,
        mean(extended_uca) AS extended_uca
    FROM aggregate_scores WHERE node IN wanted GROUP BY node
) USING (node) LEFT JOIN (
    SELECT node, SUM(passed) AS passed, COUNT(*) - SUM(passed) AS failed,
        100.0 * SUM(passed * weight) / SUM(weight) AS score_pct
    FROM custom_rule_results WHERE (node, iteration) IN (
        SELECT node, MAX(iteration) FROM custom_rule_results WHERE node IN wanted GROUP BY node)
    GROUP BY node
) USING (node)"""
# It derives every node with runs, or those of them with no summary row; the
# read of every summary is the stored rows and the derivation of the missing ones
_NODES_WITH_RUNS = "SELECT DISTINCT node FROM audit_runs"
_MISSING = (f"WITH wanted AS (SELECT node FROM ({_NODES_WITH_RUNS})"
            f" WHERE node NOT IN (SELECT node FROM node_summary)) ")
_DERIVE_ALL = f"WITH wanted AS ({_NODES_WITH_RUNS}) {_DERIVATION} ORDER BY node"
_DERIVE_MISSING = f"{_MISSING}{_DERIVATION} ORDER BY node"
_READ_SUMMARIES = (f"{_MISSING}SELECT {', '.join(SUMMARY_COLUMNS)} FROM node_summary"
                   f" UNION ALL {_DERIVATION} ORDER BY node")

# A change to any row of a node deletes its summary; the write's transaction
# derives it again before it commits (``Store._refill_summaries``)
_SUMMARY = """CREATE TABLE node_summary (
    node TEXT PRIMARY KEY,
    lynis REAL, openscap REAL, aide REAL, custom REAL, standard_uca REAL, extended_uca REAL,
    passed INTEGER, failed INTEGER, score_pct REAL
)""" + "".join(
    f""";
CREATE TRIGGER {table}_{event.lower()} AFTER {event} ON {table}
    BEGIN DELETE FROM node_summary WHERE {where}; END"""
    for table in ("audit_runs", "aggregate_scores", "custom_rule_results")
    # "=", not "IN (...)", which builds a table at each firing and slowed writes by a third
    for event, where in (("INSERT", "node = NEW.node"),
                         ("UPDATE", "node = OLD.node OR node = NEW.node"),
                         ("DELETE", "node = OLD.node")))


# Schema version 4, the text of every store, new or upgraded. Its statements are
# run one at a time, split at each ";" that ends a line, so a trigger's body
# keeps its own "; END" on one line.
_VERSION = 4
_SCHEMA = """
CREATE TABLE audit_runs (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    node TEXT NOT NULL,
    tool TEXT NOT NULL CHECK (tool IN ('lynis', 'openscap', 'aide')),
    timestamp TEXT NOT NULL,
    iteration INTEGER NOT NULL CHECK (iteration >= 0),
    phase TEXT NOT NULL CHECK (phase IN ('pre', 'post', 'iteration')),
    raw_score REAL NOT NULL,
    normalized_score REAL NOT NULL
        CHECK (normalized_score >= 0 AND normalized_score <= 100),
    runtime_seconds REAL NOT NULL CHECK (runtime_seconds >= 0),
    UNIQUE (node, tool, iteration)
);
CREATE TABLE aggregate_scores (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    node TEXT NOT NULL,
    iteration INTEGER NOT NULL CHECK (iteration >= 0),
    lynis REAL NOT NULL CHECK (lynis >= 0 AND lynis <= 100),
    openscap REAL NOT NULL CHECK (openscap >= 0 AND openscap <= 100),
    aide REAL NOT NULL CHECK (aide >= 0 AND aide <= 100),
    custom REAL CHECK (custom IS NULL OR (custom >= 0 AND custom <= 100)),
    standard_uca REAL NOT NULL CHECK (standard_uca >= 0 AND standard_uca <= 100),
    extended_uca REAL
        CHECK (extended_uca IS NULL OR (extended_uca >= 0 AND extended_uca <= 100)),
    timestamp TEXT NOT NULL,
    CHECK ((custom IS NULL) = (extended_uca IS NULL)),
    CONSTRAINT standard_uca_between_components CHECK (standard_uca BETWEEN
        min(lynis, openscap, aide) - 1e-9 AND max(lynis, openscap, aide) + 1e-9),
    UNIQUE (node, iteration)
);
CREATE TABLE custom_rule_results (
    id INTEGER PRIMARY KEY AUTOINCREMENT,
    rule_id TEXT NOT NULL,
    node TEXT NOT NULL,
    iteration INTEGER NOT NULL CHECK (iteration >= 0),
    passed INTEGER NOT NULL CHECK (passed IN (0, 1)),
    evidence TEXT NOT NULL,
    weight INTEGER NOT NULL CHECK (weight >= 1),
    UNIQUE (node, iteration, rule_id)
);
""" + _SUMMARY

# Version 1 (user_version 0) had no keys and no result weights: keep the
# highest id of each key, give each result its rule's stored weight, then
# drop the table of rule definitions.
_MIGRATE_V1 = """
ALTER TABLE audit_runs RENAME TO v1_runs;
ALTER TABLE aggregate_scores RENAME TO v1_aggregates;
ALTER TABLE custom_rule_results RENAME TO v1_results;
""" + _SCHEMA + """;
INSERT INTO audit_runs SELECT * FROM v1_runs
    WHERE id IN (SELECT MAX(id) FROM v1_runs GROUP BY node, tool, iteration);
INSERT INTO aggregate_scores SELECT * FROM v1_aggregates
    WHERE id IN (SELECT MAX(id) FROM v1_aggregates GROUP BY node, iteration);
INSERT INTO custom_rule_results SELECT *,
    (SELECT weight FROM custom_rules WHERE rule_id = v1_results.rule_id) FROM v1_results
    WHERE id IN (SELECT MAX(id) FROM v1_results GROUP BY node, iteration, rule_id);
DROP TABLE v1_runs;
DROP TABLE v1_aggregates;
DROP TABLE v1_results;
DROP TABLE custom_rules
"""

# The statements that bring a store of each user_version to _VERSION: a new
# file (a version-1 store also reads 0 and runs _MIGRATE_V1 instead), a
# version-2 or -3 store, and one another process upgraded while this one
# waited. The upgrade's transaction then derives every node's summary.
_UPGRADES = {0: _SCHEMA, 2: "DROP TABLE custom_rules;\n" + _SUMMARY, 3: _SUMMARY, _VERSION: ""}


def open_store(path: Path | str, *, create: bool = True) -> "Store":
    """Open the store at ``path``, creating it unless ``create`` is False."""
    return Store(path, create=create)


class Store:
    """Handle to one store file. Use as a context manager or call close()."""

    def __init__(self, path: Path | str, *, create: bool = True):
        self.path = Path(path)
        self._lock = threading.RLock()
        if not create and not self.path.exists():
            raise EmptyStoreError(f"no audit runs recorded: no store at {self.path}")
        with self._errors():
            # autocommit outside transaction(): no implicit BEGIN
            self._conn = sqlite3.connect(str(self.path), check_same_thread=False,
                                         isolation_level=None)
            # before the upgrade, whose transaction derives every summary
            self._conn.create_aggregate("mean", 1, _Mean)
        try:
            # a current store opens under no write lock; an older or new one is
            # checked again under BEGIN IMMEDIATE, so of two processes, one upgrades it
            if self._schema_version() != _VERSION:
                with self.transaction():
                    version = self._schema_version()
                    v1 = version == 0 and self._sql(
                        "SELECT 1 FROM sqlite_master WHERE name = 'audit_runs'")
                    # not executescript, which commits first
                    for statement in (_MIGRATE_V1 if v1 else _UPGRADES[version]).split(";\n"):
                        self._conn.execute(statement)
                    self._conn.execute(f"PRAGMA user_version = {_VERSION}")
        except ConstraintViolationError as exc:
            # a version-1 row the schema rejects, such as a result of no stored rule
            raise CorruptStoreError(f"{self.path}: cannot migrate: {exc}") from None

    @contextmanager
    def _errors(self) -> Iterator[None]:
        """Raise SQLite's failures in the block as the store's typed errors."""
        try:
            yield
        except sqlite3.IntegrityError as exc:
            raise ConstraintViolationError(str(exc)) from None
        except UnicodeEncodeError as exc:  # a str with a lone surrogate, as from argv
            raise ConstraintViolationError(f"{exc.object!r} is not UTF-8 text") from None
        except OverflowError as exc:  # an int outside SQLite's 64-bit INTEGER
            raise ConstraintViolationError(str(exc)) from None
        except sqlite3.OperationalError as exc:
            # cannot open; locked, read-only, I/O error or full
            raise StoreIOError(f"{self.path}: {exc}") from None
        except sqlite3.DatabaseError as exc:
            # not a database, malformed
            raise CorruptStoreError(f"{self.path}: {exc}") from None

    def _sql(self, query: str, *params: object) -> list:
        """Every row of one query."""
        with self._errors():
            return self._conn.execute(query, params).fetchall()

    def _stream(self, query: str, *params: object) -> Iterator[tuple]:
        """The rows of one query, run at the call and read in batches of 64,
        so that no list of every row is held; a failure at the call or at any
        later row maps as in ``_sql``."""
        with self._errors():
            cursor = self._conn.execute(query, params)

        def batches() -> Iterator[list]:
            with self._errors():
                while batch := cursor.fetchmany(64):
                    yield batch
        # rows pass through C iterators, not one generator step each
        return chain.from_iterable(batches())

    def _schema_version(self) -> int:
        """The store's user_version; CorruptStoreError if no upgrade is known."""
        version = self._sql("PRAGMA user_version")[0][0]
        if version not in _UPGRADES:
            raise CorruptStoreError(f"{self.path}: unknown schema version {version}")
        return version

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # --- recording ---------------------------------------------------------

    def transaction(self) -> AbstractContextManager[None]:
        """One write transaction; its reads see the state its writes replace.
        Before it commits, it derives the summary of every node that lacks one."""
        return self._transaction("BEGIN IMMEDIATE", self._refill_summaries)

    def read_transaction(self) -> AbstractContextManager[None]:
        """One deferred read transaction: one committed state, no write lock."""
        return self._transaction("BEGIN", lambda: None)

    @contextmanager
    def _transaction(self, begin: str, before_commit: Callable[[], None]) -> Iterator[None]:
        """One transaction under the handle's lock; an inner block joins the outer."""
        with self._lock, self._errors():
            if self._conn.in_transaction:
                yield
                return
            self._conn.execute(begin)
            with self._conn:  # commits, or rolls back on any exception
                yield
                before_commit()

    def _refill_summaries(self) -> None:
        """Insert the derived summary of each node that has runs and no summary row."""
        self._conn.execute("INSERT INTO node_summary " + _DERIVE_MISSING)

    def record_audit_run(self, run: AuditRun) -> int:
        """Record one run, replacing any run of its (node, tool, iteration)."""
        return self._record("audit_runs", AUDIT_CSV_HEADER, _RUN_KEY, run)

    def record_aggregate(self, agg: AggregateScore) -> int:
        """Record one aggregate, replacing any aggregate of its (node, iteration)."""
        agg.id = self._record("aggregate_scores", AGGREGATE_CSV_HEADER, _AGG_KEY, agg)
        return agg.id

    def _record(self, table: str, columns: list[str], key: tuple, record: object) -> int:
        """Insert ``record`` or update its ``key``'s row in place; returns the row id. A
        non-finite number or a non-ISO-8601 timestamp raises ConstraintViolationError."""
        values = [getattr(record, name) for name in columns]
        for name, value in zip(columns, values):
            # an infinity would pass the schema where no CHECK bounds it, and
            # reach the report as Infinity, which is not JSON, or the export as inf
            if isinstance(value, float) and not math.isfinite(value):
                raise ConstraintViolationError(f"{name} must be finite, got {value!r}")
        try:
            datetime.fromisoformat(record.timestamp)
        except (TypeError, ValueError):
            raise ConstraintViolationError(
                f"timestamp must be ISO-8601, got {record.timestamp!r}") from None
        # not the key's columns: setting them would update the key's index too
        updates = ", ".join(f"{name} = excluded.{name}" for name in columns if name not in key)
        with self.transaction():
            return self._conn.execute(
                f"INSERT INTO {table} ({', '.join(columns)})"
                f" VALUES ({', '.join('?' * len(columns))}) ON CONFLICT ({', '.join(key)})"
                f" DO UPDATE SET {updates} RETURNING id", values).fetchall()[0][0]

    def record_evaluation(self, results: list[RuleResult], node: str, iteration: int) -> int:
        """Replace the results of (node, iteration) with ``results``, each with its
        weight. Returns results recorded."""
        with self.transaction():
            self._conn.execute("DELETE FROM custom_rule_results WHERE node = ? AND iteration = ?",
                               (node, iteration))
            self._conn.executemany(
                "INSERT INTO custom_rule_results"
                " (rule_id, node, iteration, passed, evidence, weight)"
                " VALUES (?, ?, ?, ?, ?, ?)",
                [(r.rule_id, node, iteration, r.passed, r.evidence, r.weight) for r in results],
            )
        return len(results)

    # --- queries -------------------------------------------------------------

    def score_rows(self, *nodes: str) -> Iterator[tuple[str, str, int, float]]:
        """(node, tool, iteration, normalized_score) per run of ``nodes``, or of
        every node, by (node, tool, iteration), as the cursor yields them."""
        where = f" WHERE node IN ({', '.join('?' * len(nodes))})" if nodes else ""
        return self._stream("SELECT node, tool, iteration, normalized_score FROM audit_runs"
                            + where + _RUN_ORDER, *nodes)

    def runs_for(self, node: str, iteration: int) -> dict[str, float]:
        """{tool: normalized_score} of the runs of (node, iteration)."""
        return dict(self._sql(
            "SELECT tool, normalized_score FROM audit_runs WHERE node = ? AND iteration = ?",
            node, iteration))

    def derive_summaries(self) -> list[tuple]:
        """The SUMMARY_COLUMNS of every node with runs, by node, derived from
        its rows by the statement that fills node_summary."""
        return self._sql(_DERIVE_ALL)

    def summary_rows(self) -> list[tuple]:
        """The SUMMARY_COLUMNS of every node with runs, by node, as stored. The
        nodes with no stored summary, as after a write by another SQLite
        client, are derived from their rows in the same statement."""
        return self._sql(_READ_SUMMARIES)

    def summarize_runtime(self) -> list[tuple[str, float, float, int]]:
        """(tool, average, total, count) of the runtimes of each tool's runs."""
        rows = self._sql("SELECT tool, AVG(runtime_seconds), SUM(runtime_seconds), COUNT(*)"
                         " FROM audit_runs GROUP BY tool ORDER BY tool")
        if not rows:
            raise EmptyStoreError("no audit runs recorded")
        return rows

    # --- CSV export/import ---------------------------------------------------

    def export_audit_csv(self, path: Path | str) -> int:
        """Write audit_runs.csv ordered by (node, tool, iteration); returns rows."""
        return self._export_csv(path, "audit_runs", _RUN_COLUMNS, _RUN_ORDER)

    def export_aggregate_csv(self, path: Path | str) -> int:
        """Write aggregate_scores.csv ordered by (node, iteration); returns rows."""
        return self._export_csv(path, "aggregate_scores", _AGG_COLUMNS, _AGG_ORDER)

    def import_audit_csv(self, path: Path | str) -> int:
        """Load rows from an audit_runs.csv export; returns rows recorded."""
        return self._import_csv(path, _RUN_COLUMNS, AuditRun, self.record_audit_run)

    def import_aggregate_csv(self, path: Path | str) -> int:
        """Load rows from an aggregate_scores.csv export; returns rows recorded."""
        return self._import_csv(path, _AGG_COLUMNS, AggregateScore, self.record_aggregate)

    def _export_csv(self, path: Path | str, table: str, columns: tuple, order: str) -> int:
        """Write ``table`` in ``order`` as CSV; returns rows written."""
        header = [name for name, _ in columns]
        # each row written as the cursor yields it
        return write_csv(path, header,
                         self._stream(f"SELECT {', '.join(header)} FROM {table}{order}"))

    def _import_csv(self, path: Path | str, columns: tuple, record_type: type,
                    record: Callable[[object], int]) -> int:
        """Record every row of a UTF-8 CSV export in one transaction, so a bad
        row leaves the store as it was; a line that does not decode, a row that
        is short or long, does not parse or is rejected raises ConstraintViolationError
        naming ``path:line``. Returns rows recorded."""
        data = Path(path).read_bytes()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise ConstraintViolationError(f"{path}:{line}: {exc}") from None
        count = 0
        with self.transaction():
            reader = csv.reader(io.StringIO(text, newline=""))
            found = next(reader, None)
            if found != [name for name, _ in columns]:
                raise ConstraintViolationError(f"{path}: unexpected header {found!r}")
            lineno = reader.line_num + 1  # a row's first line: a quoted field may span lines
            for row in reader:
                try:
                    if len(row) != len(columns):
                        raise ValueError(f"{len(row)} fields, expected {len(columns)}")
                    record(record_type(**{name: parse(cell) for (name, parse), cell
                                          in zip(columns, row)}))
                except (ValueError, ConstraintViolationError) as exc:
                    raise ConstraintViolationError(f"{path}:{lineno}: {exc}") from None
                count += 1
                lineno = reader.line_num + 1
        return count


def write_csv(path: Path | str, header: list[str], rows: Iterable[Iterable]) -> int:
    """Write ``header`` and ``rows`` as a UTF-8 CSV file; returns rows written."""
    count = 0
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for count, row in enumerate(rows, 1):
            writer.writerow(row)
    return count


@contextmanager
def replace_together() -> Iterator[Callable[[Path | str], str]]:
    """Yield ``stage(path)``, which names a temporary file beside ``path`` to
    write in its place. When the block ends without error, each staged file
    replaces its path with ``os.replace``; a file there before keeps a hard
    link until every one is in place, so a later rename that fails puts it
    back. On any error each staged file is removed, a partly written one too,
    so a block that fails leaves every path as it was. A replaced path gets a
    new file: one there before loses its mode and links, and a symlink there
    is replaced, not written through."""
    staged: list[tuple[str, Path | str]] = []
    undo: list[tuple[Path | str, Path | str]] = []

    def stage(path: Path | str) -> str:
        # a str, not a Path, whose parse would intern each new name
        head, tail = os.path.split(path)
        temporary = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
        staged.append((temporary, path))
        return temporary
    try:
        yield stage
        for temporary, path in staged:
            kept = temporary + ".kept"
            with suppress(FileNotFoundError):
                # a directory has no second name, and the rename fails on it
                if not stat.S_ISDIR(os.lstat(path).st_mode):
                    os.link(path, kept, follow_symlinks=False)
            os.replace(temporary, path)
            # the rename that puts back the earlier file, or moves the new one out
            undo.append((kept, path) if os.path.lexists(kept) else (path, temporary))
    except BaseException:
        for source, target in reversed(undo):
            os.replace(source, target)
        raise
    finally:
        for temporary, _ in staged:
            for name in (temporary, temporary + ".kept"):
                with suppress(FileNotFoundError):  # moved, never written or nothing kept
                    os.unlink(name)
