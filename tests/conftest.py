import json
import math
import shutil
import sqlite3

import pytest

from uca.fixtures import CorpusSpec, make_corpus
from uca.repository import open_store
from uca.rules import default_rules


@pytest.fixture(scope="session")
def default_corpus(tmp_path_factory):
    """One default corpus shared by read-only tests."""
    out = tmp_path_factory.mktemp("corpus")
    return make_corpus(CorpusSpec(), out / "corpus")


@pytest.fixture()
def corpus_store(default_corpus):
    store = open_store(default_corpus.store_path)
    yield store
    store.close()


@pytest.fixture()
def corpus_store_copy(default_corpus, tmp_path):
    """A private copy of the default corpus store for mutating tests."""
    path = tmp_path / "store-copy.db"
    shutil.copy(default_corpus.store_path, path)
    store = open_store(path)
    yield store
    store.close()


def exact_group(mean: float, sd: float, n: int) -> list[float]:
    """A sample of size n (even) with exactly the given mean and sample sd."""
    assert n % 2 == 0
    spread = sd * math.sqrt((n - 1) / n)
    return [mean - spread, mean + spread] * (n // 2)


# The three tables of schema versions 2 and 3, as their releases created them.
_V3_TABLES = """
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
"""
# Version 2 also had a table of rule definitions, which nothing read.
_V2_SCHEMA = _V3_TABLES + """CREATE TABLE IF NOT EXISTS custom_rules (
    rule_id TEXT PRIMARY KEY,
    name TEXT NOT NULL,
    check_type TEXT NOT NULL,
    weight INTEGER NOT NULL CHECK (weight >= 1),
    params TEXT NOT NULL,
    description TEXT NOT NULL DEFAULT ''
);
PRAGMA user_version = 2;
"""
_V3_SCHEMA = _V3_TABLES + "PRAGMA user_version = 3;"


def _old_store(path, schema: str, seed_path):
    """A store of ``schema`` holding the rows of the store at ``seed_path``."""
    conn = sqlite3.connect(path, isolation_level=None)
    conn.executescript(schema)
    conn.execute("ATTACH ? AS seed", (str(seed_path),))
    for table in ("audit_runs", "aggregate_scores", "custom_rule_results"):
        conn.execute(f"INSERT INTO {table} SELECT * FROM seed.{table}")
    return conn


@pytest.fixture()
def v2_store(default_corpus, tmp_path):
    """A version-2 store holding the rows of the seed-155 store, with the
    default rule set in its custom_rules table."""
    path = tmp_path / "v2.db"
    conn = _old_store(path, _V2_SCHEMA, default_corpus.store_path)
    conn.executemany("INSERT INTO custom_rules VALUES (?, ?, ?, ?, ?, ?)", [
        (r.id, r.name, r.check_type.value, r.weight, json.dumps(dict(r.params), sort_keys=True),
         "") for r in default_rules().rules])
    conn.close()
    return path


@pytest.fixture()
def v3_store(default_corpus, tmp_path):
    """A version-3 store, which has no node_summary table, holding the rows of
    the seed-155 store."""
    path = tmp_path / "v3.db"
    _old_store(path, _V3_SCHEMA, default_corpus.store_path).close()
    return path


def damage_key_index(path, table: str) -> None:
    """Overwrite the root page of ``table``'s key index with 0xFF bytes, so a
    statement that reads or checks that key finds a malformed page. In the
    seed-155 store the audit_runs key index is page 3, at offset 8192."""
    conn = sqlite3.connect(path)
    (page_size,) = conn.execute("PRAGMA page_size").fetchone()
    (root,) = conn.execute("SELECT rootpage FROM sqlite_master WHERE name = ?",
                           (f"sqlite_autoindex_{table}_1",)).fetchone()
    conn.close()
    with open(path, "r+b") as handle:
        handle.seek((root - 1) * page_size)
        handle.write(b"\xff" * page_size)
