import builtins
import sys
import xml.etree.ElementTree as ET
from xml.parsers import expat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uca import parsers
from uca.errors import (
    EncodingError,
    MalformedReportError,
    MalformedValueError,
    MissingFieldError,
    NoResultsError,
    UcaError,
    UndefinedComplianceError,
    XmlError,
)
from uca.fixtures import make_aide_fixture, make_lynis_fixture, make_xccdf_fixture
from uca.parsers import (
    OTHER_STATUSES,
    FileChunks,
    ScapReport,
    parse_aide_report,
    parse_lynis_report,
    parse_xccdf_results,
)
from uca.rules import load_rules


class TestLynisParser:
    def test_extracts_hardening_index(self):
        report = parse_lynis_report("os=Linux\nhardening_index=64\n")
        assert report.hardening_index == 64
        assert report.raw_key_count == 2

    def test_last_duplicate_wins(self):
        document = (
            "# comment line\n"
            "hardening_index=63\n"
            "\n"
            "hardening_index=65\n"
        )
        assert parse_lynis_report(document).hardening_index == 65

    def test_missing_index(self):
        with pytest.raises(MissingFieldError):
            parse_lynis_report("os=Linux\nlynis_version=3.0.9\n")

    @pytest.mark.parametrize("value", ["abc", "64.5", "101", "-3", "0x40", ""])
    def test_malformed_index(self, value):
        with pytest.raises(MalformedValueError):
            parse_lynis_report(f"hardening_index={value}\n")

    def test_noise_lines_ignored(self):
        document = "noise without separator\nhardening_index=50\n   \n# x\n"
        report = parse_lynis_report(document)
        assert report.hardening_index == 50
        assert report.raw_key_count == 1

    def test_boundary_values(self):
        assert parse_lynis_report("hardening_index=0\n").hardening_index == 0
        assert parse_lynis_report("hardening_index=100\n").hardening_index == 100

    def test_value_with_whitespace(self):
        assert parse_lynis_report("hardening_index = 64 \n").hardening_index == 64


def _xccdf(*statuses: str, ns: str = "http://checklists.nist.gov/xccdf/1.2") -> str:
    xmlns = f' xmlns="{ns}"' if ns else ""
    results = "".join(
        f'<rule-result idref="r{i}"><result>{s}</result></rule-result>'
        for i, s in enumerate(statuses)
    )
    return f"<Benchmark{xmlns}><TestResult>{results}</TestResult></Benchmark>"


class TestXccdfParser:
    def test_compliance_over_pass_and_fail(self):
        report = parse_xccdf_results(_xccdf(*(["pass"] * 28 + ["fail"] * 12)))
        assert report.pass_count == 28
        assert report.fail_count == 12
        assert report.compliance_pct == pytest.approx(70.0)

    def test_notapplicable_excluded_from_denominator(self):
        report = parse_xccdf_results(
            _xccdf(*(["pass"] * 5 + ["fail"] * 5 + ["notapplicable"] * 10))
        )
        assert report.compliance_pct == pytest.approx(50.0)
        assert report.other_counts["notapplicable"] == 10

    def test_no_evaluated_rules_is_undefined(self):
        with pytest.raises(UndefinedComplianceError):
            parse_xccdf_results(_xccdf(*(["notchecked"] * 4)))

    def test_zero_rule_results(self):
        with pytest.raises(NoResultsError):
            parse_xccdf_results("<Benchmark><TestResult/></Benchmark>")

    def test_malformed_xml(self):
        with pytest.raises(XmlError):
            parse_xccdf_results("<Benchmark><TestResult>")

    def test_fixed_counts_as_pass(self):
        report = parse_xccdf_results(_xccdf("pass", "pass", "pass", "fixed", "fail"))
        assert report.pass_count == 4
        assert report.fail_count == 1
        assert report.other_counts["fixed"] == 1
        assert report.compliance_pct == pytest.approx(80.0)

    def test_unexpected_status_tallied_as_unknown(self):
        report = parse_xccdf_results(_xccdf("pass", "weird-status", "error"))
        assert report.other_counts["unknown"] == 1
        assert report.other_counts["error"] == 1
        assert report.compliance_pct == pytest.approx(100.0)

    @pytest.mark.parametrize("ns", [
        "http://checklists.nist.gov/xccdf/1.1",
        "http://checklists.nist.gov/xccdf/1.2",
        "",
    ])
    def test_namespace_agnostic(self, ns):
        report = parse_xccdf_results(_xccdf("pass", "fail", ns=ns))
        assert (report.pass_count, report.fail_count) == (1, 1)

    def test_status_case_and_whitespace(self):
        document = (
            "<Benchmark><TestResult>"
            "<rule-result><result> PASS </result></rule-result>"
            "<rule-result><result>fail</result></rule-result>"
            "</TestResult></Benchmark>"
        )
        report = parse_xccdf_results(document)
        assert (report.pass_count, report.fail_count) == (1, 1)


class TestAideParser:
    def test_summary_counts(self):
        report = parse_aide_report(make_aide_fixture(2, 1, 4))
        assert (report.added, report.removed, report.changed) == (2, 1, 4)
        assert report.total_changes == 7

    def test_clean_match_is_zero(self):
        document = (
            "AIDE found NO differences between database and filesystem. Looks okay!!\n"
        )
        assert parse_aide_report(document).total_changes == 0

    def test_partial_summary_rejected(self):
        with pytest.raises(MalformedReportError):
            parse_aide_report("Added entries: 3\n")

    def test_empty_document_rejected(self):
        with pytest.raises(MalformedReportError):
            parse_aide_report("nothing relevant here\n")

    def test_files_wording_variant(self):
        document = (
            "Summary:\n"
            "  Added files: 1\n"
            "  Removed files: 0\n"
            "  Changed files: 9\n"
        )
        report = parse_aide_report(document)
        assert (report.added, report.removed, report.changed) == (1, 0, 9)

    def test_section_headers_do_not_confuse(self):
        document = (
            "Summary:\n"
            "  Added entries:\t2\n"
            "  Removed entries:\t0\n"
            "  Changed entries:\t1\n"
            "\n"
            "---------------------------------------------------\n"
            "Added entries:\n"
            "---------------------------------------------------\n"
            "f++++: /etc/new-file\n"
        )
        report = parse_aide_report(document)
        assert (report.added, report.removed, report.changed) == (2, 0, 1)


# Statuses that pass straight into other_counts without folding into pass.
_NON_FOLD_STATUSES = st.sampled_from(
    ["notapplicable", "notchecked", "notselected", "informational", "error", "unknown"]
)


class TestRoundTripProperties:
    @given(index=st.integers(min_value=0, max_value=100))
    def test_lynis_inversion(self, index):
        assert parse_lynis_report(make_lynis_fixture(index)).hardening_index == index

    @given(
        passed=st.integers(min_value=0, max_value=150),
        failed=st.integers(min_value=0, max_value=150),
        extras=st.dictionaries(_NON_FOLD_STATUSES, st.integers(0, 20), max_size=4),
    )
    def test_xccdf_inversion(self, passed, failed, extras):
        if passed + failed == 0:
            expected = (
                UndefinedComplianceError if sum(extras.values()) else NoResultsError
            )
            with pytest.raises(expected):
                parse_xccdf_results(make_xccdf_fixture(passed, failed, extras))
            return
        report = parse_xccdf_results(make_xccdf_fixture(passed, failed, extras))
        assert report.pass_count == passed
        assert report.fail_count == failed
        for status, count in extras.items():
            assert report.other_counts[status] == count

    @given(
        added=st.integers(min_value=0, max_value=300),
        removed=st.integers(min_value=0, max_value=300),
        changed=st.integers(min_value=0, max_value=300),
        wording=st.sampled_from(["entries", "files"]),
    )
    def test_aide_inversion(self, added, removed, changed, wording):
        report = parse_aide_report(make_aide_fixture(added, removed, changed, wording))
        assert (report.added, report.removed, report.changed) == (added, removed, changed)

    @settings(max_examples=30)
    @given(index=st.integers(min_value=0, max_value=100))
    def test_parsers_are_pure(self, index):
        document = make_lynis_fixture(index)
        assert parse_lynis_report(document) == parse_lynis_report(document)


# --- XCCDF streaming: semantics against the tree-building parser ----------

_XCCDF_NS = "http://checklists.nist.gov/xccdf/1.2"


def _tree_tally(document: str):
    """The tree-building algorithm the streaming parser replaced, kept as the
    reference: ElementTree, every element in document order, the first
    ``result`` child's ``.text``, plus the reset at each TestResult start."""
    try:
        root = ET.fromstring(document)
    except ET.ParseError:
        return XmlError
    tag = lambda elem: elem.tag.rsplit("}", 1)[-1] if isinstance(elem.tag, str) else ""
    passes = fails = seen = 0
    others = {status: 0 for status in OTHER_STATUSES}
    for elem in root.iter():
        if tag(elem) == "TestResult":
            passes = fails = seen = 0
            others = {status: 0 for status in OTHER_STATUSES}
        if tag(elem) != "rule-result":
            continue
        seen += 1
        status = None
        for child in elem:
            if tag(child) == "result":
                status = (child.text or "").strip().lower()
                break
        if status == "pass":
            passes += 1
        elif status == "fail":
            fails += 1
        elif status == "fixed":
            others["fixed"] += 1
            passes += 1
        elif status in others:
            others[status] += 1
        else:
            others["unknown"] += 1
    if seen == 0:
        return NoResultsError
    if passes + fails == 0:
        return UndefinedComplianceError
    return ScapReport(passes, fails, others, 100.0 * passes / (passes + fails))


def _stream_tally(document):
    try:
        return parse_xccdf_results(document)
    except (XmlError, NoResultsError, UndefinedComplianceError) as exc:
        return type(exc)


_STATUS_WORDS = st.sampled_from([
    "pass", "fail", "fixed", "notapplicable", "notchecked", "notselected",
    "informational", "error", "unknown", "", "weird-status", "pässt",
])


@st.composite
def _status_text(draw, entities):
    """A status with random case and padding, written with any of the ways
    XML can spell character data, and sometimes a child element and tail.
    Internal entities it uses are added to ``entities``."""
    word = "".join(c.upper() if draw(st.booleans()) else c for c in draw(_STATUS_WORDS))
    pad = st.sampled_from(["", " ", "\n  ", "\t"])
    text = draw(pad) + word + draw(pad)
    cut = draw(st.integers(0, len(text)))
    head, tail = text[:cut], text[cut:]
    joint = draw(st.sampled_from(["", "<!-- note -->", "<?pi data?>"]))
    spelled = draw(st.sampled_from(["plain", "cdata", "entity", "charref"]))
    if spelled == "cdata":
        tail = f"<![CDATA[{tail}]]>"
    elif spelled == "entity":
        entities.append(tail)
        tail = f"&e{len(entities)};"
    elif spelled == "charref" and tail:
        tail = f"&#{ord(tail[0])};{tail[1:]}"
    after = draw(st.sampled_from(["", "<sub>fail</sub>", "<sub/>junk pass", "<!--c--> fail"]))
    return head + joint + tail + after


@st.composite
def xccdf_documents(draw):
    mode = draw(st.sampled_from(["default", "prefixed", "none"]))
    q = "x:" if mode == "prefixed" else ""
    xmlns = {"default": f' xmlns="{_XCCDF_NS}"',
             "prefixed": f' xmlns:x="{_XCCDF_NS}"', "none": ""}[mode]
    entities: list[str] = []

    def rule_result(number):
        children = []
        if draw(st.booleans()):
            children.append(f"<{q}ident>CCE-{number} pass</{q}ident>")
        if draw(st.booleans()):
            children.append(f"<{q}check><{q}result>fail</{q}result></{q}check>")
        if draw(st.integers(0, 9)):
            children.append(f"<{q}result>{draw(_status_text(entities))}</{q}result>")
        if draw(st.booleans()):
            children.append(f"<{q}message>fail</{q}message><{q}result>pass</{q}result>")
        if draw(st.booleans()):
            children.insert(draw(st.integers(0, len(children))), "<!-- comment -->\n  ")
        return f'<{q}rule-result idref="r{number}" ré="ü">{"".join(children)}</{q}rule-result>'

    test_results = []
    for t in range(draw(st.integers(1, 2))):
        results = "\n".join(rule_result(i) for i in range(draw(st.integers(0, 6))))
        test_results.append(f'<{q}TestResult id="t{t}"><{q}title>Scan ✓ {t}</{q}title>'
                            f"{results}</{q}TestResult>")
    rules = "".join(f'<{q}Rule id="r{i}"><{q}title>Règle {i}</{q}title>'
                    f"<{q}description>result: <b>fail</b> €</{q}description></{q}Rule>"
                    for i in range(draw(st.integers(0, 3))))
    declaration = draw(st.sampled_from(["", '<?xml version="1.0" encoding="UTF-8"?>\n']))
    subset = "".join(f'<!ENTITY e{n} "{value}">' for n, value in enumerate(entities, 1))
    return (f"{declaration}<!DOCTYPE Benchmark [{subset}]>\n"
            f"<!-- results -->\n<{q}Benchmark{xmlns}>{rules}"
            f'{"".join(test_results)}</{q}Benchmark>\n')


def _split(data: bytes, cuts: list[int]) -> list[bytes]:
    points = sorted({0, len(data), *(c % (len(data) + 1) for c in cuts)})
    return [data[a:b] for a, b in zip(points, points[1:])]


class TestXccdfStreaming:
    @settings(max_examples=300, deadline=None)
    @given(document=xccdf_documents(), cuts=st.lists(st.integers(0, 10**6), max_size=12))
    def test_same_report_as_tree_parser(self, document, cuts):
        expected = _tree_tally(document)
        data = document.encode("utf-8")
        assert _stream_tally(document) == expected
        assert _stream_tally(data) == expected
        assert _stream_tally(_split(data, cuts)) == expected

    @settings(max_examples=200, deadline=None)
    @given(document=xccdf_documents(), position=st.integers(0, 10**6))
    def test_same_outcome_with_one_character_deleted(self, document, position):
        position %= len(document)
        damaged = document[:position] + document[position + 1:]
        assert _stream_tally(damaged) == _tree_tally(damaged)

    def test_every_split_point_of_one_document(self):
        document = (
            '<?xml version="1.0" encoding="UTF-8"?>'
            f'<x:Benchmark xmlns:x="{_XCCDF_NS}"><x:title>Prüfung ✓ €</x:title>'
            '<x:TestResult><x:rule-result idref="ä"><x:result> Pass </x:result>'
            "</x:rule-result><x:rule-result><x:result>fa<![CDATA[il]]></x:result>"
            "</x:rule-result></x:TestResult></x:Benchmark>"
        )
        data = document.encode("utf-8")
        assert len(data) > len(document)  # multi-byte characters to split
        expected = parse_xccdf_results(document)
        assert (expected.pass_count, expected.fail_count) == (1, 1)
        for cut in range(len(data) + 1):
            assert parse_xccdf_results([data[:cut], data[cut:]]) == expected, cut

    def test_last_test_result_only(self):
        one = ("<TestResult><rule-result><result>pass</result></rule-result>"
               "<rule-result><result>fail</result></rule-result></TestResult>")
        report = parse_xccdf_results(f"<Benchmark>{one}{one}</Benchmark>")
        assert (report.pass_count, report.fail_count) == (1, 1)
        rescan = ("<Benchmark><TestResult><rule-result><result>fail</result>"
                  "</rule-result></TestResult><TestResult><rule-result><result>pass"
                  "</result></rule-result></TestResult></Benchmark>")
        assert parse_xccdf_results(rescan).compliance_pct == pytest.approx(100.0)
        with pytest.raises(NoResultsError):
            parse_xccdf_results(f"<Benchmark>{one}<TestResult/></Benchmark>")

    def test_text_after_a_child_of_result_is_not_status(self):
        document = ("<Benchmark><TestResult><rule-result><result>pass<x/>fail</result>"
                    "</rule-result><rule-result><result>fail</result></rule-result>"
                    "</TestResult></Benchmark>")
        report = parse_xccdf_results(document)
        assert (report.pass_count, report.fail_count) == (1, 1)

    def test_encoding_from_declaration(self):
        document = ('<?xml version="1.0" encoding="ISO-8859-1"?><Benchmark><TestResult>'
                    '<rule-result idref="r\xe9"><result>pass</result></rule-result>'
                    "</TestResult></Benchmark>")
        assert parse_xccdf_results(document.encode("latin-1")).pass_count == 1

    @pytest.mark.parametrize("document", [
        '<!DOCTYPE Benchmark SYSTEM "xccdf.dtd"><Benchmark><TestResult><rule-result>'
        "<result>&undefined;</result></rule-result></TestResult></Benchmark>",
        '<x:Benchmark><x:TestResult/></x:Benchmark>',
        _xccdf("pass", "fail")[:-12],
        "",
        "   ",
    ], ids=["undefined-entity", "unbound-prefix", "truncated", "empty", "blank"])
    def test_malformed_is_xml_error(self, document):
        for form in (document, document.encode("utf-8")):
            with pytest.raises(XmlError):
                parse_xccdf_results(form)

    def test_external_entity_refused_and_not_read(self, tmp_path, monkeypatch):
        target = tmp_path / "status.txt"
        target.write_text("pass")
        opened = []
        real_open = builtins.open

        def spy(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", spy)
        document = (f'<!DOCTYPE Benchmark [<!ENTITY e SYSTEM "{target.as_uri()}">]>'
                    "<Benchmark><TestResult><rule-result><result>&e;</result>"
                    "</rule-result></TestResult></Benchmark>")
        with pytest.raises(XmlError, match="external entity"):
            parse_xccdf_results(document)
        assert str(target) not in opened

    def test_file_chunks_read_again_on_each_pass(self, tmp_path):
        document = make_xccdf_fixture(3000, 1000, {"notapplicable": 7})
        path = tmp_path / "results.xml"
        path.write_text(document)
        chunks = FileChunks(path)
        assert len(chunks) == len(document.encode("utf-8"))
        pieces = list(chunks)
        assert len(pieces) > 1 and {len(p) for p in pieces[:-1]} == {64 * 1024}
        expected = parse_xccdf_results(document)
        assert parse_xccdf_results(chunks) == expected
        assert parse_xccdf_results(chunks) == expected

    def test_missing_file_is_os_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            parse_xccdf_results(FileChunks(tmp_path / "absent.xml"))


# --- XCCDF: no start callback before the first rule-result ------------------

_UTF8_DECLARATION = '<?xml version="1.0" encoding="UTF-8"?>\n'


def _oscap(*test_results, rules=40, q="", doctype=""):
    """An ``oscap xccdf eval --results``-shaped document: the Benchmark's
    Profile and Rule definitions, then one TestResult per list of statuses.
    Only the rule-results spell ``rule-result``."""
    ns = f' xmlns{":" + q[:-1] if q else ""}="{_XCCDF_NS}"'
    selects = "".join(f'<{q}select idref="r{i}" selected="true"/>\n' for i in range(rules))
    definitions = "".join(
        f'<{q}Rule id="r{i}" severity="medium">\n<{q}title>Règle {i} €</{q}title>\n'
        f"<{q}description>Result: <{q}b>fail</{q}b> unless set.</{q}description>\n"
        f'<{q}check system="oval"><{q}check-content-ref name="oval:{i}:def:1"/></{q}check>\n'
        f"</{q}Rule>\n" for i in range(rules))
    results = "".join(
        f'<{q}TestResult id="t{t}">\n<{q}title>Scan {t}</{q}title>\n' + "".join(
            f'<{q}rule-result idref="r{i}"><{q}result>{status}</{q}result></{q}rule-result>\n'
            for i, status in enumerate(statuses)) + f"</{q}TestResult>\n"
        for t, statuses in enumerate(test_results))
    return (f"{_UTF8_DECLARATION}{doctype}<{q}Benchmark{ns}>\n<{q}Profile id=\"p\">\n{selects}"
            f"</{q}Profile>\n{definitions}{results}</{q}Benchmark>\n")


def _start_calls(document) -> tuple:
    """The outcome of parsing ``document`` and the number of calls of the
    parser's Python ``start`` handler."""
    calls = []

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name == "start" and code.co_filename == parsers.__file__:
            calls.append(None)

    sys.setprofile(profile)
    try:
        outcome = _stream_tally(document)
    finally:
        sys.setprofile(None)
    return outcome, len(calls)


def _expat_error(data: bytes) -> str:
    """The message of a parse of ``data`` in one piece with no handlers."""
    reference = expat.ParserCreate(namespace_separator="}")
    try:
        reference.Parse(data, True)
    except expat.ExpatError as exc:
        return f"not well-formed XML: {exc}"
    raise AssertionError("well-formed")


_STATUSES = st.lists(st.sampled_from(["pass", "fail", "fixed", "notapplicable", " FAIL\n"]),
                     max_size=8)


@st.composite
def oscap_documents(draw):
    q = draw(st.sampled_from(["", "x:", "a-very-long-results-namespace-prefix-" * 2 + ":"]))
    test_results = draw(st.lists(_STATUSES, min_size=1, max_size=2))
    return _oscap(*test_results, rules=draw(st.integers(5, 60)), q=q)


class TestSkipBeforeFirstRuleResult:
    @settings(max_examples=150, deadline=None)
    @given(document=oscap_documents(), cuts=st.lists(st.integers(0, 10**6), max_size=40))
    def test_oscap_shaped_pieces_same_as_tree_parser(self, document, cuts):
        data = document.encode("utf-8")
        assert _stream_tally(_split(data, cuts)) == _tree_tally(document)

    def test_start_runs_from_the_piece_of_the_first_rule_result(self, tmp_path):
        data = _oscap(["pass"] * 900 + ["fail"] * 300, rules=1200).encode("utf-8")
        path = tmp_path / "results.xml"
        path.write_bytes(data)
        pieces = list(FileChunks(path))
        first = data.index(b"rule-result") + len(b"rule-result") - 1
        holding = first // len(pieces[0])
        assert len(pieces) >= 4 and 2 <= holding < len(pieces) - 1
        tag_ends = []
        reference = expat.ParserCreate(namespace_separator="}")
        reference.StartElementHandler = lambda name, attrs: tag_ends.append(
            data.index(b">", reference.CurrentByteIndex))
        reference.Parse(data, True)
        expected = sum(end >= holding * len(pieces[0]) for end in tag_ends)
        report, calls = _start_calls(FileChunks(path))
        assert (report.pass_count, report.fail_count) == (900, 300)
        assert calls == expected < len(tag_ends) // 2

    def test_entity_rule_result_in_a_piece_without_the_name(self):
        element = ("&#60;rule-&#114;esult idref='e'>&#60;result>pass&#60;/result>"
                   "&#60;/rule-&#114;esult>")
        doctype = f'<!DOCTYPE Benchmark [<!ENTITY r "{element}">]>\n'
        for later in ([], ["fail"]):
            document = _oscap(later, doctype=doctype).replace(
                '<title>Scan 0</title>\n', '<title>Scan 0</title>\n&r;' + " " * 64)
            data = document.encode("utf-8")
            pieces = [data[i:i + 32] for i in range(0, len(data), 32)]
            at = [n for n, piece in enumerate(pieces) if b"&r;" in piece]
            assert at and all(b"rule-result" not in pieces[n] + pieces[n + 1] for n in at)
            report = parse_xccdf_results(pieces)
            assert report == _tree_tally(document)
            assert (report.pass_count, report.fail_count) == (1, len(later))

    @pytest.mark.parametrize("encode", [
        lambda text: text.replace("UTF-8", "UTF-16").encode("utf-16"),
        lambda text: text.replace("UTF-8", "ISO-8859-1").replace("€", "E").encode("latin-1"),
        lambda text: text.replace(_UTF8_DECLARATION, "").encode("utf-8"),
        lambda text: text.replace(_UTF8_DECLARATION, "").encode("utf-16"),
    ], ids=["utf16-bom", "iso-8859-1", "no-declaration", "utf16-bom-no-declaration"])
    def test_other_encodings_in_many_pieces(self, encode):
        document = _oscap(["pass", "fail", "fail"], rules=30)
        data = encode(document)
        for size in (7, 64, 1000):
            outcome = _stream_tally([data[i:i + size] for i in range(0, len(data), size)])
            assert outcome == _tree_tally(document.replace("€", "E"))
            assert (outcome.pass_count, outcome.fail_count) == (1, 2)

    @pytest.mark.parametrize("q", ["", "x:", "results-namespace-prefix-longer-than-a-tail:"])
    def test_rule_result_split_at_every_offset(self, q):
        document = _oscap(["pass", "fail"], rules=3, q=q)
        data = document.encode("utf-8")
        tag = data.index(f"<{q}rule-result".encode())
        end = data.index(b">", tag) + 1
        expected = _tree_tally(document)
        for cut in range(tag, end + 1):
            pieces = [data[:cut], data[cut:end], data[end:]]
            assert parse_xccdf_results(pieces) == expected, cut

    def test_second_test_result_starts_in_a_piece_without_the_name(self):
        document = _oscap(["fail", "fail"], ["pass", "fail", "pass"])
        data = document.encode("utf-8")
        first = data.index(b"<rule-result")
        start = data.index(b'<TestResult id="t1">')
        end = data.index(b"<rule-result", start)
        pieces = [data[:first], data[first:start - 2], data[start - 2:end], data[end:]]
        assert b"rule-result" not in pieces[0] + pieces[2]
        report = parse_xccdf_results(pieces)
        assert report == _tree_tally(document)
        assert (report.pass_count, report.fail_count) == (2, 1)

    @pytest.mark.parametrize("damage", [
        (b"unless set.", b"unless \xff set."),
        (b"<title>R\xc3\xa8gle 1200 ", b"<title><y:b/>R\xc3\xa8gle 1200 "),
        (b"<title>R\xc3\xa8gle 1200 \xe2\x82\xac</title>",
         b"<title>R\xc3\xa8gle 1200 \xe2\x82\xac</titel>"),
        (b"<title>R\xc3\xa8gle 1200 ", b"<title>&nope;R\xc3\xa8gle 1200 "),
    ], ids=["invalid-byte", "unbound-prefix", "mismatched-tag", "undefined-entity"])
    def test_errors_in_the_rule_definitions_unchanged(self, tmp_path, damage):
        data = _oscap(["pass"], rules=2000).encode("utf-8")
        at = data.index(damage[0], 200_000)
        data = data[:at] + data[at:].replace(damage[0], damage[1], 1)
        path = tmp_path / "results.xml"
        path.write_bytes(data)
        assert data.index(b"rule-result") > 3 * 64 * 1024
        with pytest.raises(XmlError) as caught:
            parse_xccdf_results(FileChunks(path))
        assert str(caught.value) == _expat_error(data)
        if damage[1].startswith(b"unless \xff"):
            offset = at + len(b"unless ")
            line = data.count(b"\n", 0, offset) + 1
            column = offset - data.rindex(b"\n", 0, offset) - 1
            assert str(caught.value) == (f"not well-formed XML: not well-formed "
                                         f"(invalid token): line {line}, column {column}")

    def test_rules_without_rule_results_raise_no_results(self, tmp_path):
        path = tmp_path / "results.xml"
        path.write_text(_oscap([], rules=2000), encoding="utf-8")
        assert len(list(FileChunks(path))) > 3
        with pytest.raises(NoResultsError) as caught:
            parse_xccdf_results(FileChunks(path))
        assert str(caught.value) == (
            "no rule-result elements in the document or after its last TestResult start")


class TestUtf8Documents:
    @pytest.mark.parametrize("parse", [parse_lynis_report, parse_aide_report])
    def test_invalid_utf8_names_offset(self, parse):
        with pytest.raises(EncodingError, match="byte offset 12"):
            parse(b"hardening=1\n\xff\xfe\x00bad")

    def test_bytes_parse_like_text_file(self):
        assert parse_lynis_report("hardening_index=70\r\n".encode()).hardening_index == 70
        cr_only = make_aide_fixture(2, 1, 4).replace("\n", "\r").encode()
        assert parse_aide_report(cr_only).total_changes == 7


class TestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(document=st.one_of(st.text(), st.binary(),
                              st.text(alphabet="<>/=\"'&;#![]?- x:rule-sTR")))
    def test_only_typed_errors(self, document):
        """Arbitrary text or bytes end in a result or a UcaError."""
        for parse in (parse_lynis_report, parse_aide_report, parse_xccdf_results, load_rules):
            try:
                parse(document)
            except UcaError:
                pass
