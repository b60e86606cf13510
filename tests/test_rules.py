import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uca.errors import (
    DuplicateIdError,
    NonPositiveWeightError,
    SchemaError,
    SnapshotError,
    UcaError,
)
from uca.fixtures import Profile, make_snapshot
from uca.rules import (
    CheckType,
    FirewallState,
    NodeSnapshot,
    Rule,
    RuleResult,
    RuleSet,
    default_rules,
    evaluate_rule,
    evaluate_rules,
    load_rules,
    load_snapshot,
    save_snapshot,
    score_rules,
)


def _rule_doc(*entries):
    return json.dumps(list(entries))


_MINIMAL = {
    "id": "fw", "name": "firewall", "check_type": "firewall_active",
    "weight": 10, "params": {},
}


class TestLoadRules:
    def test_single_rule(self):
        ruleset = load_rules(_rule_doc(_MINIMAL))
        assert ruleset.total_weight == 10
        assert ruleset.rules[0].check_type is CheckType.FIREWALL_ACTIVE

    def test_default_document_round_trip(self):
        default = default_rules()
        reloaded = load_rules(json.dumps([
            {"id": r.id, "name": r.name, "check_type": r.check_type.value,
             "weight": r.weight, "params": dict(r.params)}
            for r in default.rules]))
        assert reloaded == default
        assert reloaded.total_weight == 61

    def test_empty_list_rejected(self):
        with pytest.raises(SchemaError, match="at least one rule"):
            load_rules("[]")

    def test_duplicate_id(self):
        with pytest.raises(DuplicateIdError):
            load_rules(_rule_doc(_MINIMAL, _MINIMAL))

    def test_unknown_check_type(self):
        with pytest.raises(SchemaError):
            load_rules(_rule_doc({**_MINIMAL, "check_type": "selinux_enforcing"}))

    @pytest.mark.parametrize("weight", [0, -3])
    def test_non_positive_weight(self, weight):
        with pytest.raises(NonPositiveWeightError):
            load_rules(_rule_doc({**_MINIMAL, "weight": weight}))

    @pytest.mark.parametrize("weight", ["5", 2.5, True])
    def test_non_integer_weight(self, weight):
        with pytest.raises(SchemaError):
            load_rules(_rule_doc({**_MINIMAL, "weight": weight}))

    def test_missing_required_param(self):
        entry = {
            "id": "svc", "name": "svc", "check_type": "service_active",
            "weight": 1, "params": {},
        }
        with pytest.raises(SchemaError):
            load_rules(_rule_doc(entry))

    def test_bad_regex(self):
        entry = {
            "id": "cfg", "name": "cfg", "check_type": "config_directive", "weight": 1,
            "params": {"path": "/etc/x", "key": "K", "expected": "[",
                       "expected_is_regex": True},
        }
        with pytest.raises(SchemaError):
            load_rules(_rule_doc(entry))

    def test_bad_mode(self):
        entry = {
            "id": "fm", "name": "fm", "check_type": "file_mode", "weight": 1,
            "params": {"path": "/etc/shadow", "max_mode": "9999"},
        }
        with pytest.raises(SchemaError):
            load_rules(_rule_doc(entry))

    @pytest.mark.parametrize("entry, message", [
        (["fw"], "rule #0: expected a JSON object, got array"),
        ({key: value for key, value in _MINIMAL.items() if key != "check_type"},
         "rule #0: missing required field 'check_type'"),
        ({**_MINIMAL, "id": ""}, "rule #0: id must be a non-empty string"),
        ({**_MINIMAL, "params": ["x"]}, "rule 'fw': params: expected a JSON object, got array"),
        ({"id": "fm", "name": "fm", "check_type": "file_mode", "weight": 1,
          "params": {"path": "/etc/shadow", "max_mode": "17777"}},
         "rule 'fm' max_mode: '17777' outside [0000, 7777]"),
        ({**_MINIMAL, "weight": 3, "wieght": 9}, "rule #0: unknown keys ['wieght']"),
        # read as text, "[1-4]" failed MaxAuthTries 3 on the full snapshot
        ({"id": "tries", "name": "tries", "check_type": "config_directive", "weight": 6,
          "params": {"path": "/etc/ssh/sshd_config", "key": "MaxAuthTries",
                     "expected": "[1-4]", "expected_regex": True}},
         "rule 'tries': params: unknown keys ['expected_regex']"),
        # each check type reads its own params, and no other check type's
        ({**_MINIMAL, "params": {"expected": "no"}}, "rule 'fw': params: unknown keys ['expected']"),
        ({"id": "fm", "name": "fm", "check_type": "file_mode", "weight": 1,
          "params": {"path": "/etc/shadow", "max_mode": "0640", "expected_is_regex": False}},
         "rule 'fm': params: unknown keys ['expected_is_regex']"),
    ], ids=["not-an-object", "missing-field", "empty-id", "params-not-an-object",
            "mode-outside-range", "unknown-entry-key", "unknown-param",
            "firewall-param-of-config", "file-mode-param-of-config"])
    def test_malformed_entry_named(self, entry, message):
        with pytest.raises(SchemaError) as raised:
            load_rules(_rule_doc(entry))
        assert str(raised.value) == message

    def test_not_a_list(self):
        with pytest.raises(SchemaError):
            load_rules('{"id": "x"}')

    def test_invalid_json(self):
        with pytest.raises(SchemaError):
            load_rules("[")


def _snapshot(**kwargs) -> NodeSnapshot:
    defaults = dict(node="n1", files={}, services={}, permissions={},
                    firewall_state=FirewallState.UNKNOWN)
    defaults.update(kwargs)
    return NodeSnapshot(**defaults)


def _rule(rule_id):
    """The default rule set's rule ``rule_id``."""
    return next(rule for rule in default_rules().rules if rule.id == rule_id)


class TestEvaluateRule:
    def test_config_directive_pass_with_line_evidence(self):
        rule = _rule("ssh_root_login")
        snapshot = _snapshot(files={
            "/etc/ssh/sshd_config": "Port 22\nPermitRootLogin no\n",
        })
        result = evaluate_rule(rule, snapshot)
        assert result.passed
        assert result.evidence == "PermitRootLogin no"

    @pytest.mark.parametrize("first, second", [("yes", "no"), ("no", "yes")])
    def test_config_directive_sshd_first_value_wins(self, first, second):
        # sshd keeps the first value of a keyword; leading blanks do not
        # matter, comments do not count
        rule = _rule("ssh_root_login")
        content = (
            f"# PermitRootLogin {second}\n"
            f"  PermitRootLogin {first}\n"
            f"PermitRootLogin {second}\n"
        )
        result = evaluate_rule(rule, _snapshot(files={"/etc/ssh/sshd_config": content}))
        assert result.passed is (first == "no")
        assert result.evidence == f"PermitRootLogin {first}"

    @pytest.mark.parametrize("first, second", [("30", "99999"), ("99999", "30")])
    def test_config_directive_login_defs_last_value_wins(self, first, second):
        # shadow-utils' getdef overwrites a repeated key
        rule = _rule("password_max_days")
        content = (
            f"PASS_MAX_DAYS\t{first}\n"
            f"  PASS_MAX_DAYS\t{second}\n"
            f"# PASS_MAX_DAYS\t{first}\n"
        )
        result = evaluate_rule(rule, _snapshot(files={"/etc/login.defs": content}))
        assert result.passed is (second == "30")
        assert result.evidence == f"PASS_MAX_DAYS\t{second}"

    @pytest.mark.parametrize("content, passed, evidence", [
        ("Port 22\nMatch User backup\n    PermitRootLogin no\n", False, "not present"),
        ("PermitRootLogin yes\nMatch Address 10.0.0.0/8\n  PermitRootLogin no\n",
         False, "PermitRootLogin yes"),
        ("PermitRootLogin no\nmatch all\nPermitRootLogin yes\n", True, "PermitRootLogin no"),
    ])
    def test_config_directive_sshd_match_block_is_conditional(self, content, passed,
                                                              evidence):
        rule = _rule("ssh_root_login")
        result = evaluate_rule(rule, _snapshot(files={"/etc/ssh/sshd_config": content}))
        assert (result.passed, result.evidence) == (passed, evidence)

    def test_config_directive_bare_key_has_no_value(self):
        rule = _rule("ssh_root_login")
        result = evaluate_rule(rule, _snapshot(files={_SSHD: "PermitRootLogin\n"}))
        assert (result.passed, result.evidence) == (False, "PermitRootLogin")

    def test_config_directive_key_case_insensitive(self):
        rule = _rule("ssh_root_login")
        result = evaluate_rule(
            rule, _snapshot(files={"/etc/ssh/sshd_config": "permitrootlogin no\n"})
        )
        assert result.passed

    def test_config_directive_missing_file(self):
        rule = _rule("ssh_root_login")
        result = evaluate_rule(rule, _snapshot())
        assert not result.passed
        assert result.evidence == "not present"

    def test_config_directive_missing_key(self):
        rule = _rule("ssh_root_login")
        result = evaluate_rule(
            rule, _snapshot(files={"/etc/ssh/sshd_config": "Port 22\n"})
        )
        assert not result.passed
        assert result.evidence == "not present"

    def test_config_directive_regex(self):
        rule = _rule("ssh_max_auth_tries")
        ok = _snapshot(files={"/etc/ssh/sshd_config": "MaxAuthTries 3\n"})
        bad = _snapshot(files={"/etc/ssh/sshd_config": "MaxAuthTries 6\n"})
        assert evaluate_rule(rule, ok).passed
        assert not evaluate_rule(rule, bad).passed

    def test_config_directive_equals_separator(self):
        rule = _rule("ssh_root_login")
        result = evaluate_rule(
            rule, _snapshot(files={"/etc/ssh/sshd_config": "PermitRootLogin=no\n"})
        )
        assert result.passed

    def test_service_active(self):
        rule = _rule("auditd_active")
        assert evaluate_rule(rule, _snapshot(services={"auditd": "active"})).passed
        inactive = evaluate_rule(rule, _snapshot(services={"auditd": "inactive"}))
        assert not inactive.passed
        assert inactive.evidence == "auditd inactive"
        missing = evaluate_rule(rule, _snapshot())
        assert not missing.passed
        assert missing.evidence == "not present"

    def test_file_mode_containment(self):
        rule = _rule("shadow_file_mode")
        tight = _snapshot(permissions={"/etc/shadow": (0o600, "root", "shadow")})
        loose = _snapshot(permissions={"/etc/shadow": (0o644, "root", "shadow")})
        assert evaluate_rule(rule, tight).passed  # 0600 within 0640
        assert not evaluate_rule(rule, loose).passed
        assert evaluate_rule(rule, _snapshot()).evidence == "not present"

    def test_firewall_states(self):
        rule = _rule("firewall_active")
        assert evaluate_rule(rule, _snapshot(firewall_state=FirewallState.ACTIVE)).passed
        assert not evaluate_rule(rule, _snapshot(firewall_state=FirewallState.INACTIVE)).passed
        unknown = evaluate_rule(rule, _snapshot(firewall_state=FirewallState.UNKNOWN))
        assert not unknown.passed
        assert unknown.evidence == "firewall unknown"

    def test_evidence_always_non_empty(self):
        snapshot = make_snapshot(Profile.PARTIAL)
        for result in evaluate_rules(default_rules(), snapshot):
            assert result.evidence


class TestEvaluateRules:
    @pytest.mark.parametrize("profile,expected_passed", [
        (Profile.BASELINE, 3),
        (Profile.PARTIAL, 6),
        (Profile.FULL, 7),
    ])
    def test_profile_pass_counts(self, profile, expected_passed):
        results = evaluate_rules(default_rules(), make_snapshot(profile))
        assert sum(r.passed for r in results) == expected_passed
        assert len(results) == 8

    def test_password_max_days_fails_everywhere(self):
        for profile in Profile:
            results = evaluate_rules(default_rules(), make_snapshot(profile))
            by_id = {r.rule_id: r.passed for r in results}
            assert not by_id["password_max_days"]

    def test_empty_ruleset(self):
        # an empty set cannot be made, so no evaluation is without results
        with pytest.raises(SchemaError, match="at least one rule"):
            RuleSet(rules=())

    def test_weight_recorded(self):
        ruleset = default_rules()
        results = evaluate_rules(ruleset, make_snapshot(Profile.FULL))
        assert [(r.rule_id, r.weight) for r in results] == [
            (rule.id, rule.weight) for rule in ruleset.rules]


class TestScoreRules:
    @pytest.mark.parametrize("profile,expected", [
        (Profile.BASELINE, 39.34),
        (Profile.PARTIAL, 72.13),
        (Profile.FULL, 83.61),
    ])
    def test_profile_scores(self, profile, expected):
        ruleset = default_rules()
        results = evaluate_rules(ruleset, make_snapshot(profile))
        assert score_rules(results) == pytest.approx(expected, abs=0.01)

    def test_all_passed_is_100(self):
        ruleset = default_rules()
        snapshot = make_snapshot(Profile.FULL)
        results = evaluate_rules(ruleset, snapshot)
        forced = [r if r.passed else RuleResult(r.rule_id, True, "x", r.weight)
                  for r in results]
        assert score_rules(forced) == pytest.approx(100.0)

    def test_scores_results_alone(self):
        # each result counts the weight it carries; no rule set is consulted
        results = [RuleResult("a", True, "x", 3), RuleResult("no_such_rule", False, "x", 1)]
        assert score_rules(results) == 75.0


_SSHD = "/etc/ssh/sshd_config"
_TRIES = {"path": _SSHD, "key": "MaxAuthTries", "expected": "[1-4]",
          "expected_is_regex": True}
_FILE_MODE = {"id": "fm", "name": "fm", "check_type": "file_mode", "weight": 1,
              "params": {"path": "/etc/shadow", "max_mode": "0640"}}

# The invalid entries of TestLoadRules, an overflowing repeat count and a string flag
_INVALID_ENTRIES = {
    "unknown-check-type": ({**_MINIMAL, "check_type": "selinux_enforcing"}, SchemaError),
    "weight-0": ({**_MINIMAL, "weight": 0}, NonPositiveWeightError),
    "weight-negative": ({**_MINIMAL, "weight": -3}, NonPositiveWeightError),
    "weight-string": ({**_MINIMAL, "weight": "5"}, SchemaError),
    "weight-float": ({**_MINIMAL, "weight": 2.5}, SchemaError),
    "weight-bool": ({**_MINIMAL, "weight": True}, SchemaError),
    "missing-param": ({**_MINIMAL, "check_type": "service_active"}, SchemaError),
    "bad-regex": ({**_MINIMAL, "check_type": "config_directive",
                   "params": {**_TRIES, "expected": "["}}, SchemaError),
    "regex-repeat-too-large": ({**_MINIMAL, "check_type": "config_directive",
                                "params": {**_TRIES, "expected": "a{99999999999999999999}"}},
                               SchemaError),
    "flag-not-a-bool": ({**_MINIMAL, "check_type": "config_directive",
                         "params": {**_TRIES, "expected_is_regex": "false"}}, SchemaError),
    "bad-mode": ({**_FILE_MODE, "params": {"path": "/etc/shadow", "max_mode": "9999"}},
                 SchemaError),
    "mode-outside-range": ({**_FILE_MODE, "params": {"path": "/etc/shadow",
                                                     "max_mode": "17777"}}, SchemaError),
    "unknown-param": ({**_MINIMAL, "check_type": "config_directive",
                       "params": {**_TRIES, "expected_regex": True}}, SchemaError),
    "empty-id": ({**_MINIMAL, "id": ""}, SchemaError),
    "params-not-an-object": ({**_MINIMAL, "params": ["x"]}, SchemaError),
}


class TestValuesCheckThemselves:
    """A Rule, RuleSet, RuleResult or NodeSnapshot built in Python is checked
    when made, by the one definition that also reads the rules document."""

    @pytest.mark.parametrize("entry, error", _INVALID_ENTRIES.values(),
                             ids=_INVALID_ENTRIES.keys())
    def test_built_rule_raises_as_its_document_does(self, entry, error):
        with pytest.raises(SchemaError) as from_document:
            load_rules(_rule_doc(entry))
        with pytest.raises(SchemaError) as built:
            Rule(**entry)
        assert type(from_document.value) is type(built.value) is error
        if entry["id"]:  # the document names an entry without an id by position
            assert str(built.value) == str(from_document.value)

    def test_check_type_given_as_its_value(self):
        assert Rule(**_MINIMAL) == Rule(**{**_MINIMAL, "check_type": CheckType.FIREWALL_ACTIVE})
        assert Rule(**_MINIMAL).check_type is CheckType.FIREWALL_ACTIVE

    def test_file_mode_rule_without_path(self):
        with pytest.raises(SchemaError, match="rule 'fm': params missing 'path' for file_mode"):
            Rule("fm", "fm", CheckType.FILE_MODE, 1, {"max_mode": "0640"})

    def test_max_mode_not_octal(self):
        with pytest.raises(SchemaError, match="rule 'fm' max_mode: '999' is not an octal mode"):
            Rule("fm", "fm", CheckType.FILE_MODE, 1, {"path": "/etc/shadow", "max_mode": "999"})

    def test_params_of_another_check_type(self):
        # a rule written for the wrong check type: a firewall rule reads no params
        with pytest.raises(SchemaError) as raised:
            Rule("fw", "fw", CheckType.FIREWALL_ACTIVE, 1, {"expected": "no", "max_mode": "0640"})
        assert str(raised.value) == "rule 'fw': params: unknown keys ['expected', 'max_mode']"

    def test_expected_is_regex_not_a_bool(self):
        # a truthy string would make "[1-4]" a regex that passes against MaxAuthTries 3
        with pytest.raises(SchemaError, match="params.expected_is_regex: expected a JSON"
                                              " boolean, got string"):
            Rule("tries", "tries", CheckType.CONFIG_DIRECTIVE, 6,
                 {**_TRIES, "expected_is_regex": "false"})

    @pytest.mark.parametrize("max_mode", ["0000", "7777"])
    def test_max_mode_bounds_accepted(self, max_mode):
        rule = Rule("fm", "fm", CheckType.FILE_MODE, 1,
                    {"path": "/etc/shadow", "max_mode": max_mode})
        assert rule.params["max_mode"] == max_mode

    def test_literal_expected_is_no_regex(self):
        # only a regex is compiled: "[" is a value to compare
        rule = Rule("banner", "banner", CheckType.CONFIG_DIRECTIVE, 1,
                    {"path": _SSHD, "key": "Banner", "expected": "["})
        assert evaluate_rule(rule, _snapshot(files={_SSHD: "Banner [\n"})).passed

    @pytest.mark.parametrize("expected", ["[", "(" * 2000 + ")" * 2000],
                             ids=["unclosed", "nested-too-deep"])
    def test_regex_that_does_not_compile(self, expected):
        with pytest.raises(SchemaError, match="rule 'cfg': bad expected regex"):
            Rule("cfg", "cfg", CheckType.CONFIG_DIRECTIVE, 1, {**_TRIES, "expected": expected})

    @pytest.mark.parametrize("weight, error", [
        (0, NonPositiveWeightError), (-1, NonPositiveWeightError), (True, SchemaError),
        (2.5, SchemaError)])
    def test_result_weight_is_an_int_of_at_least_1(self, weight, error):
        # weights 2 (pass) and -1 (fail) would score 200.0, and a lone 0 divide by zero
        with pytest.raises(error) as raised:
            RuleResult("r", False, "e", weight)
        assert type(raised.value) is error

    def test_score_of_no_results(self):
        with pytest.raises(SchemaError, match="no rule results to score"):
            score_rules([])

    def test_rule_set_of_repeated_id(self):
        with pytest.raises(DuplicateIdError, match="duplicate rule id 'fw'"):
            RuleSet((Rule(**_MINIMAL), Rule(**{**_MINIMAL, "name": "other"})))

    @pytest.mark.parametrize("state", ["active", None])
    def test_firewall_state_not_a_firewall_state(self, state):
        with pytest.raises(SnapshotError, match="is not a FirewallState"):
            NodeSnapshot("n1", firewall_state=state)

    @pytest.mark.parametrize("entries", [
        {"files": {_SSHD: 5}}, {"files": {5: "PermitRootLogin no"}},
        {"services": {"auditd": None}}, {"services": {("auditd",): "active"}}])
    def test_file_or_service_that_is_not_text_to_text(self, entries):
        # a content of 5 ended evaluation in AttributeError: 'int' has no 'splitlines'
        with pytest.raises(SnapshotError, match="is not text to text"):
            NodeSnapshot("n1", **entries)

    @pytest.mark.parametrize("node", [5, "", None])
    def test_node_that_is_not_a_non_empty_str(self, node):
        # NodeSnapshot(5) and NodeSnapshot('') each evaluated all 8 rules
        with pytest.raises(SnapshotError, match="is not a non-empty str"):
            NodeSnapshot(node)

    @pytest.mark.parametrize("what", ["files", "services", "permissions"])
    @pytest.mark.parametrize("entries", [None, [("/etc/hosts", "x")]])
    def test_map_that_is_not_a_dict(self, what, entries):
        # files=None ended in AttributeError: 'NoneType' object has no attribute 'items'
        with pytest.raises(SnapshotError, match=f"{what} .* is not a dict"):
            NodeSnapshot("n1", **{what: entries})

    @pytest.mark.parametrize("entry", [
        ("0640", "root", "shadow"), (True, "root", "shadow"), (0o640, "root"),
        (0o640, "root", 0), [0o640, "root", "shadow"], 0o640])
    def test_permission_that_is_not_an_int_mode_owner_and_group(self, entry):
        # a '0640' mode ended evaluation in TypeError at ``mode & ~max_mode``
        with pytest.raises(SnapshotError, match=r"is not \(int mode, owner, group\)"):
            NodeSnapshot("n1", permissions={"/etc/shadow": entry})

    @pytest.mark.parametrize("entry", ["x", None, {"id": "fw"}])
    def test_rule_set_entry_that_is_not_a_rule(self, entry):
        # RuleSet(("x",)) ended in AttributeError: 'str' object has no attribute 'id'
        with pytest.raises(SchemaError, match="must be a Rule"):
            RuleSet((Rule(**_MINIMAL), entry) if entry is None else (entry,))


_PARAM_VALUES = st.one_of(st.text(max_size=3), st.sampled_from([
    _SSHD, "/etc/shadow", "MaxAuthTries", "auditd", "no", "[1-4]", "[",
    "a{99999999999999999999}", "0640", "0o640", "999", "17777", "-1", True, False,
    "false", 0, 2.5, None]))
_JUNK_FIELDS = {"id": ["", 5], "name": [5, None], "check_type": ["selinux", None],
                "weight": [0, -1, True, 2.5, "5"], "params": [[], None]}


_OWN_PARAMS = {CheckType.CONFIG_DIRECTIVE: ("path", "key", "expected"),
               CheckType.SERVICE_ACTIVE: ("service",), CheckType.FILE_MODE: ("path", "max_mode"),
               CheckType.FIREWALL_ACTIVE: ()}


@st.composite
def _drawn_rule_fields(draw):
    """Rule fields of every check type: valid ones, params with junk values, a
    key missing or a key of another check type, or one field of junk."""
    check_type = draw(st.sampled_from([*CheckType, "file_mode"]))
    values = {"path": draw(st.sampled_from([_SSHD, "/etc/shadow"])), "key": "MaxAuthTries",
              "expected": "[1-4]", "service": "auditd", "max_mode": "0640"}
    params = {key: values[key] for key in _OWN_PARAMS[CheckType(check_type)]}
    keys = [*values, "expected_is_regex"]
    params.update(draw(st.dictionaries(st.sampled_from(keys), _PARAM_VALUES, max_size=2)))
    for key in draw(st.sets(st.sampled_from(keys), max_size=1)):
        params.pop(key, None)
    fields = {"id": draw(st.sampled_from("abcdef")), "name": "rule", "check_type": check_type,
              "weight": draw(st.integers(1, 20)), "params": params}
    spoiled = draw(st.one_of(st.none(), st.sampled_from(list(_JUNK_FIELDS))))
    if spoiled:
        fields[spoiled] = draw(st.sampled_from(_JUNK_FIELDS[spoiled]))
    return fields


@st.composite
def _drawn_snapshot_fields(draw):
    lines = st.sampled_from(["MaxAuthTries 3", "maxauthtries=9", "# MaxAuthTries 1",
                             "Match all", "X11Forwarding no", ""])
    return {
        "node": "n1",
        "files": {_SSHD: "\n".join(draw(st.lists(lines, max_size=4)))},
        "services": draw(st.dictionaries(st.sampled_from(["auditd", "sshd"]),
                                         st.sampled_from(["active", "inactive", ""]))),
        "permissions": {"/etc/shadow": (draw(st.integers(0, 0o7777)), "root", "shadow")},
        "firewall_state": draw(st.sampled_from([*FirewallState, "active", None])),
    }


class TestBuiltValuesProperties:
    @settings(max_examples=300, deadline=None)
    @given(rules=st.lists(_drawn_rule_fields(), min_size=1, max_size=3),
           snapshot=_drawn_snapshot_fields())
    def test_refused_when_made_or_evaluated_and_scored_in_0_100(self, rules, snapshot):
        try:
            ruleset = RuleSet(tuple(Rule(**fields) for fields in rules))
            node = NodeSnapshot(**snapshot)
        except UcaError:
            return
        results = evaluate_rules(ruleset, node)
        assert 0.0 <= score_rules(results) <= 100.0

    @given(outcomes=st.lists(st.tuples(st.booleans(), st.one_of(
        st.integers(-2, 20), st.sampled_from([True, 2.5]))), max_size=4))
    def test_results_refused_when_made_or_scored_in_0_100(self, outcomes):
        try:
            score = score_rules([RuleResult(f"r{i}", passed, "e", weight)
                                 for i, (passed, weight) in enumerate(outcomes)])
        except UcaError:
            return
        assert 0.0 <= score <= 100.0


@st.composite
def _random_ruleset_outcomes(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    weights = draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
    passed = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    rules = tuple(
        Rule(id=f"rule_{i}", name=f"rule {i}", check_type=CheckType.FIREWALL_ACTIVE,
             weight=w, params={})
        for i, w in enumerate(weights)
    )
    return RuleSet(rules=rules), passed


class TestScoreProperties:
    @given(data=_random_ruleset_outcomes())
    def test_score_bounds_and_flip_increase(self, data):
        ruleset, passed = data
        results = [
            RuleResult(rule_id=rule.id, passed=flag, evidence="e", weight=rule.weight)
            for rule, flag in zip(ruleset.rules, passed)
        ]
        score = score_rules(results)
        assert 0.0 <= score <= 100.0
        if not any(passed):
            assert score == 0.0
        if all(passed):
            assert score == pytest.approx(100.0)
        for index, result in enumerate(results):
            if not result.passed:
                flipped = results.copy()
                flipped[index] = RuleResult(result.rule_id, True, "e", result.weight)
                assert score_rules(flipped) > score
                break

    @given(data=_random_ruleset_outcomes(), seed=st.integers(0, 2**16))
    def test_rule_order_does_not_change_outcomes(self, data, seed):
        ruleset, _ = data
        snapshot = make_snapshot(Profile.PARTIAL)
        baseline = {r.rule_id: r.passed for r in evaluate_rules(default_rules(), snapshot)}
        shuffled_rules = list(default_rules().rules)
        random.Random(seed).shuffle(shuffled_rules)
        shuffled = RuleSet(rules=tuple(shuffled_rules))
        results = evaluate_rules(shuffled, snapshot)
        assert {r.rule_id: r.passed for r in results} == baseline
        assert score_rules(results) == pytest.approx(
            score_rules(evaluate_rules(default_rules(), snapshot)))


class TestSnapshotIO:
    def test_round_trip(self, tmp_path):
        snapshot = make_snapshot(Profile.FULL, node="node-7")
        save_snapshot(snapshot, tmp_path / "snap", captured_at="2025-03-03T00:00:00+00:00")
        loaded = load_snapshot(tmp_path / "snap")
        assert loaded == snapshot

    def test_relative_file_path_rejected(self, tmp_path):
        snapshot = _snapshot(files={"etc/ssh/sshd_config": "PermitRootLogin no\n"})
        with pytest.raises(SnapshotError) as raised:
            save_snapshot(snapshot, tmp_path / "snap")
        assert str(raised.value) == (
            "snapshot file path must be absolute: 'etc/ssh/sshd_config'")
        assert not (tmp_path / "snap" / "files").exists()

    def test_missing_manifest(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(SnapshotError):
            load_snapshot(tmp_path / "empty")

    def test_manifest_without_node(self, tmp_path):
        save_snapshot(make_snapshot(Profile.BASELINE), tmp_path / "snap")
        (tmp_path / "snap" / "manifest.json").write_text('{"captured_at": "x"}')
        with pytest.raises(SnapshotError, match="missing node id"):
            load_snapshot(tmp_path / "snap")

    def test_bad_firewall_word(self, tmp_path):
        snapshot = make_snapshot(Profile.BASELINE)
        save_snapshot(snapshot, tmp_path / "snap")
        (tmp_path / "snap" / "firewall.txt").write_text("maybe\n")
        with pytest.raises(SnapshotError):
            load_snapshot(tmp_path / "snap")

    def test_missing_firewall_is_unknown(self, tmp_path):
        snapshot = make_snapshot(Profile.BASELINE)
        save_snapshot(snapshot, tmp_path / "snap")
        (tmp_path / "snap" / "firewall.txt").unlink()
        assert load_snapshot(tmp_path / "snap").firewall_state is FirewallState.UNKNOWN

    def test_malformed_permissions_row(self, tmp_path):
        snapshot = make_snapshot(Profile.BASELINE)
        save_snapshot(snapshot, tmp_path / "snap")
        (tmp_path / "snap" / "permissions.tsv").write_text("/etc/shadow\tnot-octal\tr\tg\n")
        with pytest.raises(SnapshotError):
            load_snapshot(tmp_path / "snap")

    @pytest.mark.parametrize("manifest", ["[1, 2]", '"node"', "null", "7"])
    def test_manifest_not_an_object(self, tmp_path, manifest):
        save_snapshot(make_snapshot(Profile.BASELINE), tmp_path / "snap")
        (tmp_path / "snap" / "manifest.json").write_text(manifest)
        with pytest.raises(SnapshotError, match="expected a JSON object"):
            load_snapshot(tmp_path / "snap")

    def test_manifest_nested_too_deep(self, tmp_path):
        save_snapshot(make_snapshot(Profile.BASELINE), tmp_path / "snap")
        (tmp_path / "snap" / "manifest.json").write_text("[" * 100_000)
        with pytest.raises(SnapshotError, match="invalid JSON"):
            load_snapshot(tmp_path / "snap")

    @pytest.mark.parametrize("name", ["manifest.json", "services.tsv", "permissions.tsv",
                                      "firewall.txt", "files/etc/login.defs"])
    def test_file_not_utf8(self, tmp_path, name):
        save_snapshot(make_snapshot(Profile.BASELINE), tmp_path / "snap")
        (tmp_path / "snap" / name).write_bytes(b"active\xff\xfe\n")
        with pytest.raises(SnapshotError, match="not UTF-8|invalid JSON"):
            load_snapshot(tmp_path / "snap")


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)
_TABLE_TEXT = st.text(alphabet="\t\n\r 0178/abé:-", max_size=40)


def _entry(text):
    """File contents as bytes or text, or None for a directory in its place."""
    return st.one_of(st.none(), st.binary(max_size=40), text)


# Each snapshot file may be absent, a directory, arbitrary bytes, or text
# shaped like its format, so that generated directories get past the manifest.
_SNAPSHOT_DIRS = st.fixed_dictionaries({}, optional={
    "manifest.json": _entry(st.one_of(
        _JSON.map(json.dumps),
        st.fixed_dictionaries({"node": _JSON | st.text(min_size=1)}).map(json.dumps),
    )),
    "services.tsv": _entry(_TABLE_TEXT),
    "permissions.tsv": _entry(_TABLE_TEXT),
    "firewall.txt": _entry(st.sampled_from(["active\n", "inactive", "maybe"]) | st.text()),
    "files/etc/login.defs": _entry(st.text()),
})


class TestSnapshotFuzz:
    @settings(max_examples=200, deadline=None)
    @given(entries=_SNAPSHOT_DIRS)
    def test_arbitrary_directories_raise_only_typed_errors(self, entries):
        with tempfile.TemporaryDirectory() as tmp:
            for name, content in entries.items():
                path = Path(tmp, name)
                if content is None:
                    path.mkdir(parents=True)
                    continue
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(content if isinstance(content, bytes) else content.encode())
            try:
                assert isinstance(load_snapshot(tmp), NodeSnapshot)
            except UcaError:
                pass
