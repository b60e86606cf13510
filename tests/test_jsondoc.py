"""The one reader of JSON input documents, and the one type rule every document
it reads follows: a value of another JSON type than its field's ends in that
document's own error, never in another exception. The one writer of JSON
output, whose text is that of ``json.dumps(value, indent=2)``."""

import ast
import copy
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uca.cli import _load_weights
from uca.errors import InvalidWeightsError, SchemaError, SpecError
from uca.fixtures import CorpusSpec, NodeSpec, Profile
from uca.jsondoc import dumps, load, typed
from uca.rules import load_rules
from uca.scoring import WeightConfig

# the JSON name of each type a parsed document holds
_NAMES = {dict: "object", list: "array", str: "string", int: "integer", float: "number",
          bool: "boolean", type(None): "null"}


class TestTyped:
    @pytest.mark.parametrize("value, kind", [
        (3, int), (-7, int), (3, float), (2.5, float), (1e2, float), ("x", str),
        ([], list), ({}, dict), (True, bool), (False, bool),
    ])
    def test_value_of_its_kind_passes(self, value, kind):
        assert typed(value, kind, SchemaError, "f") == value

    def test_number_field_returns_a_float(self):
        assert type(typed(3, float, SchemaError, "f")) is float

    @pytest.mark.parametrize("value, kind, got", [
        (2.5, int, "number"), (1e2, int, "number"), (True, int, "boolean"),
        ("3", int, "string"), (False, float, "boolean"), ("0.4", float, "string"),
        (5, str, "integer"), (None, str, "null"), ({}, list, "object"),
        ([1], dict, "array"), (1, bool, "integer"), ("false", bool, "string"),
        (None, bool, "null"),
    ])
    def test_value_of_another_kind_raises_one_wording(self, value, kind, got):
        with pytest.raises(SchemaError) as raised:
            typed(value, kind, SchemaError, "rule 'x': weight")
        assert str(raised.value) == f"rule 'x': weight: expected a JSON {_NAMES[kind]}, got {got}"

    def test_another_kind_reads_a_string(self):
        assert typed("full", Profile, SpecError, "p") is Profile.FULL
        with pytest.raises(SpecError, match=r"^p: 'hard' is not a valid Profile$"):
            typed("hard", Profile, SpecError, "p")
        with pytest.raises(SpecError, match="^p: expected a JSON string, got integer$"):
            typed(3, Profile, SpecError, "p")

    def test_integer_past_a_float_raises_the_error(self):
        with pytest.raises(SpecError, match="^seed: int too large to convert to float$"):
            typed(10 ** 400, float, SpecError, "seed")


class TestLoad:
    @pytest.mark.parametrize("document", ["[", '["\\ud800', b'["\xff"]', "[" * 100_000],
                             ids=["malformed", "unterminated", "not-utf8", "too-deep"])
    def test_unreadable_json_raises_the_error(self, document):
        with pytest.raises(SpecError, match="^invalid spec document: invalid JSON: "):
            load(document, dict, SpecError, "invalid spec document")

    def test_top_level_of_another_kind(self):
        with pytest.raises(SchemaError) as raised:
            load(b'{"id": 1}', list, SchemaError, "rules document")
        assert str(raised.value) == "rules document: expected a JSON array, got object"


def test_only_the_reader_parses_json():
    """Every JSON input document is parsed by ``uca.jsondoc``: no other module
    calls ``json.loads``."""
    src = Path(__file__).resolve().parent.parent / "src" / "uca"
    callers = sorted(path.name for path in src.glob("*.py")
                     if "json.loads" in path.read_text(encoding="utf-8"))
    assert callers == ["jsondoc.py"]


def test_only_the_writer_writes_json():
    """Every JSON output is written by ``uca.jsondoc``: no other module calls
    ``json.dumps`` or ``json.dump``, or makes a ``json.JSONEncoder``."""
    def writes(tree) -> bool:
        return any(isinstance(node, ast.ImportFrom) and node.module == "json"
                   or isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id == "json" and node.attr in ("dump", "dumps", "JSONEncoder")
                   for node in ast.walk(tree))

    src = Path(__file__).resolve().parent.parent / "src" / "uca"
    callers = sorted(path.name for path in src.glob("*.py")
                     if writes(ast.parse(path.read_text(encoding="utf-8"))))
    assert callers == ["jsondoc.py"]


# --- the one writer: the text of json.dumps(value, indent=2) ------------------

class _Dict(dict):
    pass


class _List(list):
    pass


# strings with what JSON escapes (quotes, backslashes, control characters,
# non-ASCII text, lone surrogates) and what its layout uses (brackets, commas,
# colons, spaces), beside any other character
_TEXT = st.text(st.sampled_from('"\\\n\t\x00\x1f\x7f \xe9\u20ac\U0001f600\ud800\udfff{}[],:0')
                | st.characters(exclude_categories=()), max_size=8)
_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e16, 5e-324])
_SCALAR = (st.none() | st.booleans() | st.integers() | st.integers(min_value=2 ** 64)
           | st.integers(max_value=-2 ** 64) | _FLOATS | _TEXT)
# keys are str in every uca payload; json.dumps also takes int, float, bool and
# None keys, and dumps writes them as it does
_KEY = _TEXT | st.integers() | _FLOATS | st.booleans() | st.none()
_TREES = st.recursive(_SCALAR, lambda inner: (
    st.lists(inner, max_size=4) | st.dictionaries(_KEY, inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.lists(inner, max_size=3).map(_List) | st.dictionaries(_TEXT, inner, max_size=3).map(_Dict)
    # rows, the shape of a table: a list of flat dicts
    | st.lists(st.dictionaries(_KEY, _SCALAR, max_size=4), max_size=4)
    | st.dictionaries(_TEXT, st.lists(inner, max_size=3), max_size=3)
), max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(value=_TREES)
def test_the_writer_writes_what_json_dumps_writes(value):
    assert dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    None, True, 0, -2 ** 70, 2.5, math.nan, -math.inf, "", 'a"\\\ud800\xe9',
    {}, [], (), [[]], [{}], {"a": {}}, [[[[[[]]]]]], {"a": [{"b": [{"c": {}}]}]},
    [{"a": 1}, {}], [{"a": 1}, {"b": [1]}], [{"a": 1}, 2], ({"a": "},\n  {"}, {"b": None}),
    [{"a": _Dict(b=1)}], [_Dict(a=1)], {"a": _List([[1]])}, _Dict(a=[1]), _List([{"a": 1}]),
    {1: {2: [3]}, 1.5: [], None: {"x": 1}, True: (1, 2)},
], ids=repr)
def test_the_writer_at_each_shape(value):
    """Top-level scalars and empty containers, rows beside other lists, and dict
    and list subclasses where a flat container's values would be."""
    assert dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [{(1,): 1}, {"a": {(1,): 1}}, {"a": [object()]}, object()],
                         ids=["key", "nested-key", "nested-value", "value"])
def test_the_writer_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError) as expected:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as raised:
        dumps(value)
    assert str(raised.value) == str(expected.value)


# --- the one type rule, at every field of every document ---------------------

_RULES = [{"id": "fw", "name": "firewall", "check_type": "firewall_active", "weight": 3,
           "params": {}},
          {"id": "tries", "name": "tries", "check_type": "config_directive", "weight": 2,
           "params": {"path": "/etc/ssh/sshd_config", "key": "MaxAuthTries", "expected": "3",
                      "expected_is_regex": False}}]
_SPEC = {
    "nodes": [{"name": "a", "profile": "full"}],
    "iterations": 2,
    "seed": 1,
    "score_distributions": {"a": {"lynis": [60, 2.5]}},
    "runtime_distributions": {"lynis": [30, 0], "openscap": [3, 0], "aide": [90, 0]},
    "scap_total_rules": 10,
    "start_time": "2025-06-01T00:00:00+00:00",
}
_CONFIG = {"w_lynis": 0.4, "w_openscap": 0.4, "w_aide": 0.2, "w_custom": 0.2,
           "aide_penalty_per_change": 5}

# (path to a field, the JSON type it takes, the place its error names); () is
# the top level. A [mean, sd] entry and its numbers keep the spec's own message,
# "<entry> is <value>, not [mean, sd]".
_RULES_FIELDS = [
    ((), list, "rules document"), ((0,), dict, "rule #0"), ((0, "id"), str, "rule #0: id"),
    ((0, "name"), str, "rule 'fw': name"), ((0, "check_type"), str, "rule 'fw': check_type"),
    ((0, "weight"), int, "rule 'fw': weight"), ((0, "params"), dict, "rule 'fw': params"),
    ((1, "params", "expected_is_regex"), bool, "rule 'tries': params.expected_is_regex"),
]
_SPEC_FIELDS = [
    ((), dict, ""), (("nodes",), list, "nodes"), (("nodes", 0), dict, "nodes[0]"),
    (("nodes", 0, "name"), str, "nodes[0].name"),
    (("nodes", 0, "profile"), str, "nodes[0].profile"),
    (("iterations",), int, "iterations"), (("seed",), int, "seed"),
    (("score_distributions",), dict, "score_distributions"),
    (("score_distributions", "a"), dict, "score_distributions.a"),
    (("score_distributions", "a", "lynis"), list, "score_distributions.a.lynis is"),
    (("score_distributions", "a", "lynis", 0), float, "score_distributions.a.lynis is"),
    (("score_distributions", "a", "lynis", 1), float, "score_distributions.a.lynis is"),
    (("runtime_distributions",), dict, "runtime_distributions"),
    (("runtime_distributions", "aide"), list, "runtime_distributions.aide is"),
    (("runtime_distributions", "aide", 1), float, "runtime_distributions.aide is"),
    (("scap_total_rules",), int, "scap_total_rules"), (("start_time",), str, "start_time"),
]
_CONFIG_FIELDS = [((), dict, "weights.json"), *(((key,), float, key) for key in _CONFIG)]

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


def _is_kind(value, kind) -> bool:
    """Whether a parsed JSON value is of the field type ``kind``."""
    return type(value) in ((int, float) if kind is float else (kind,))


def _with(document, path, value):
    """A copy of ``document`` with ``value`` at ``path``."""
    if not path:
        return value
    document = copy.deepcopy(document)
    parent = document
    for step in path[:-1]:
        parent = parent[step]
    parent[path[-1]] = value
    return document


def _load_config(text: str):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "weights.json")
        path.write_text(text)
        return _load_weights(path, {})


# document -> (a valid one, its fields, its reader, its error, its messages' prefix)
_DOCUMENTS = {
    "rules": (_RULES, _RULES_FIELDS, load_rules, SchemaError, "rule"),
    "spec": (_SPEC, _SPEC_FIELDS, CorpusSpec.from_json, SpecError, "invalid spec document"),
    "config": (_CONFIG, _CONFIG_FIELDS, _load_config, InvalidWeightsError, ""),
}


@pytest.mark.parametrize("name", _DOCUMENTS)
def test_the_valid_documents_read(name):
    document, _, read, _, _ = _DOCUMENTS[name]
    read(json.dumps(document))


@pytest.mark.parametrize("name", _DOCUMENTS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_value_of_another_type_raises_the_documents_error(name, data):
    """Any JSON value of another type, at any field, raises the document's own
    error, which names the field; no other exception escapes."""
    document, fields, read, error, prefix = _DOCUMENTS[name]
    path, kind, where = data.draw(st.sampled_from(fields))
    value = data.draw(_JSON.filter(lambda v: not _is_kind(v, kind)))
    with pytest.raises(error) as raised:
        read(json.dumps(_with(document, path, value)))
    message = str(raised.value)
    assert message.startswith(prefix), message
    if where.endswith(" is"):
        assert message.startswith(f"invalid spec document: {where} "), message
        assert message.endswith(", not [mean, sd]"), message
    else:
        assert message.endswith(f"{where}: expected a JSON {_NAMES[kind]},"
                                f" got {_NAMES[type(value)]}"), message


@pytest.mark.parametrize("make, fields, document, message", [
    (CorpusSpec, {"iterations": 2.5}, '{"iterations": 2.5}',
     "invalid spec document: iterations: expected a JSON integer, got number"),
    (CorpusSpec, {"iterations": True}, '{"iterations": true}',
     "invalid spec document: iterations: expected a JSON integer, got boolean"),
    (CorpusSpec, {"start_time": "2025"}, '{"start_time": "2025"}',
     "invalid spec document: start_time: Invalid isoformat string: '2025'"),
    (CorpusSpec, {"nodes": ("a",)}, '{"nodes": ["a"]}',
     "invalid spec document: nodes[0]: expected a JSON object, got string"),
    (CorpusSpec, {"nodes": (NodeSpec("a", "bogus"),)},
     '{"nodes": [{"name": "a", "profile": "bogus"}]}',
     "invalid spec document: nodes[0].profile: 'bogus' is not a valid Profile"),
    (WeightConfig, {"w_lynis": "0.4"}, '{"w_lynis": "0.4"}',
     "w_lynis: expected a JSON number, got string"),
    (WeightConfig, {"w_lynis": True, "w_openscap": 0.0, "w_aide": 0.0},
     '{"w_lynis": true, "w_openscap": 0.0, "w_aide": 0.0}',
     "w_lynis: expected a JSON number, got boolean"),
], ids=["spec-float-iterations", "spec-bool-iterations", "spec-start-time-text",
        "spec-node-text", "spec-unknown-profile", "weights-text", "weights-bool"])
def test_a_python_caller_gets_the_documents_error(make, fields, document, message):
    """A value a document could not hold raises, from a Python caller, the typed
    error and message that the document gets."""
    error = SpecError if make is CorpusSpec else InvalidWeightsError
    with pytest.raises(error) as raised:
        make(**fields)
    assert str(raised.value) == message
    read = CorpusSpec.from_json if make is CorpusSpec else _load_config
    with pytest.raises(error) as raised:
        read(document)
    assert str(raised.value) == message
