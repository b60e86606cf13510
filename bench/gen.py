"""Input generators for the benchmark, with the arithmetic that checks them.

Everything here is the benchmark's own: the documents imitate the tools'
output formats without calling the program, and the expected scores are
computed from the tallies the generator chose, not by the program's parsers.
One ``random.Random(seed)`` per call keeps every input a function of the
seed.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

PROFILES = ("baseline", "partial", "full")

# Per-profile tool means and sds, in the range of the paper's per-node
# averages, so generated hosts look like the three hardening levels.
PROFILE_MEANS = {
    "baseline": {"lynis": (63.08, 2.52), "openscap": (39.73, 5.37), "aide": (45.83, 13.09)},
    "partial": {"lynis": (64.00, 2.52), "openscap": (41.20, 5.37), "aide": (45.83, 13.09)},
    "full": {"lynis": (64.92, 2.52), "openscap": (71.82, 5.37), "aide": (36.67, 13.09)},
}

# The paper's custom-rule scores of the default eight-rule policy on the
# three profile snapshots written by write_snapshot, and the rule weights
# behind them: passed weight out of the total of 61.
RULE_SCORE = {"baseline": 39.34, "partial": 72.13, "full": 83.61}
RULE_PASSED_WEIGHT = {"baseline": 24, "partial": 44, "full": 51}
RULE_TOTAL_WEIGHT = 61

# The paper's tool runtime totals over 36 runs per tool.
RUNTIME_TOTALS = {"lynis": 1303.59, "openscap": 107.91, "aide": 3368.91}

W_LYNIS, W_OPENSCAP, W_AIDE, W_CUSTOM, AIDE_PENALTY = 0.4, 0.4, 0.2, 0.2, 5.0

XCCDF_NS = "http://checklists.nist.gov/xccdf/1.2"
SMALL_SCAP_RULES = 183


# --- expected arithmetic -------------------------------------------------------

def openscap_pct(passed: int, failed: int) -> float:
    return 100.0 * passed / (passed + failed)


def aide_score(changes: int) -> float:
    return max(0.0, 100.0 - AIDE_PENALTY * changes)


def standard_uca(lynis: float, openscap: float, aide: float) -> float:
    return W_LYNIS * lynis + W_OPENSCAP * openscap + W_AIDE * aide


def extended_uca(standard: float, profile: str) -> float:
    """The 0.8/0.2 blend of a standard score and the profile's exact custom score."""
    custom = 100.0 * RULE_PASSED_WEIGHT[profile] / RULE_TOTAL_WEIGHT
    return (1.0 - W_CUSTOM) * standard + W_CUSTOM * custom


def expected_scores(host: dict) -> dict:
    """Raw and normalized score per tool for one host."""
    lynis = float(host["lynis"])
    scap = openscap_pct(host["pass"], host["fail"])
    return {
        "raw": {"lynis": lynis, "openscap": scap, "aide": float(host["changes"])},
        "normalized": {"lynis": lynis, "openscap": scap, "aide": aide_score(host["changes"])},
    }


# --- tallies -------------------------------------------------------------------

def _clamp(value: float, low: float, high: float) -> float:
    return min(high, max(low, value))


def draw_host(rng: random.Random, profile: str, evaluated: int) -> dict:
    """Tool tallies for one host: hardening index, pass/fail split of
    ``evaluated`` XCCDF rules plus non-evaluated ones, AIDE change counts."""
    means = PROFILE_MEANS[profile]
    lynis = int(round(_clamp(rng.gauss(*means["lynis"]), 0, 100)))
    pct = _clamp(rng.gauss(*means["openscap"]), 1, 99)
    passed = int(round(evaluated * pct / 100.0))
    aide = _clamp(rng.gauss(*means["aide"]), 0, 100)
    changes = int(round((100.0 - aide) / AIDE_PENALTY))
    added = rng.randint(0, changes)
    removed = rng.randint(0, changes - added)
    return {
        "profile": profile,
        "lynis": lynis,
        "pass": passed,
        "fail": evaluated - passed,
        "other": {
            "notapplicable": rng.randint(5, 15),
            "notselected": rng.randint(10, 30),
            "notchecked": rng.randint(0, 5),
        },
        "changes": changes,
        "added": added,
        "removed": removed,
        "changed": changes - added - removed,
    }


def _statuses(rng: random.Random, host: dict) -> list[str]:
    statuses = ["pass"] * host["pass"] + ["fail"] * host["fail"]
    for status, count in sorted(host["other"].items()):
        statuses += [status] * count
    rng.shuffle(statuses)
    return statuses


# --- fixture-shaped documents --------------------------------------------------

def small_lynis(host: dict) -> str:
    return (
        "# Lynis report\n"
        "report_version_major=1\n"
        "report_version_minor=0\n"
        "lynis_version=3.0.9\n"
        "os=Linux\n"
        "os_name=Ubuntu\n"
        "os_version=22.04\n"
        f"hardening_index={host['lynis']}\n"
        "tests_executed=261\n"
    )


def small_xccdf(rng: random.Random, host: dict, name: str) -> str:
    parts = [f'<Benchmark xmlns="{XCCDF_NS}" id="bench_benchmark">'
             f'<TestResult id="bench_testresult_{name}"><target>{name}</target>']
    for number, status in enumerate(_statuses(rng, host), 1):
        parts.append(f'<rule-result idref="xccdf_rule_{number:05d}">'
                     f"<result>{status}</result></rule-result>")
    parts.append("</TestResult></Benchmark>")
    return "".join(parts)


def small_aide(host: dict) -> str:
    head = "Start timestamp: 2025-03-03 00:00:00 +0000 (AIDE 0.17.4)\n"
    if host["changes"] == 0:
        return (head + "AIDE found NO differences between database and filesystem. "
                "Looks okay!!\n\nNumber of entries:\t1523\n")
    return (head + "AIDE found differences between database and filesystem!!\n"
            "\nSummary:\n  Total number of entries:\t1523\n"
            f"  Added entries:\t\t{host['added']}\n"
            f"  Removed entries:\t\t{host['removed']}\n"
            f"  Changed entries:\t\t{host['changed']}\n")


# --- full-size documents -------------------------------------------------------

_WORDS = (
    "system configuration audit kernel module service daemon package account "
    "password policy file permission owner group mount option partition network "
    "interface firewall rule logging journal rotate access control integrity "
    "boot loader setting value directory ensure verify restrict disable enable "
    "remote login session timeout banner message cryptographic algorithm hash "
    "certificate authority trusted store update repository signature"
).split()


def _paragraphs(rng: random.Random, count: int, words: int) -> list[str]:
    return [" ".join(rng.choice(_WORDS) for _ in range(words)).capitalize() + "."
            for _ in range(count)]


def full_xccdf(rng: random.Random, host: dict, name: str) -> str:
    """An XCCDF 1.2 results document as ``oscap xccdf eval --results`` writes
    it: the Benchmark with its Profile, Groups and Rule definitions, then one
    TestResult with a rule-result per rule."""
    statuses = _statuses(rng, host)
    descriptions = _paragraphs(rng, 48, 130)
    rationales = _paragraphs(rng, 48, 60)
    titles = _paragraphs(rng, 48, 7)
    rule_ids = [f"xccdf_org.ssgproject.content_rule_bench_{n:05d}"
                for n in range(1, len(statuses) + 1)]
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<Benchmark xmlns="{XCCDF_NS}" xmlns:xhtml="http://www.w3.org/1999/xhtml" '
        'id="xccdf_org.ssgproject.content_benchmark_UBUNTU2204" resolved="1" '
        'xml:lang="en-US" style="SCAP_1.2">\n'
        '<status date="2025-01-15">draft</status>\n'
        "<title>Guide to the Secure Configuration of Ubuntu 22.04</title>\n"
        f"<description>{descriptions[0]}</description>\n"
        '<version update="https://github.com/ComplianceAsCode/content">0.1.73</version>\n'
        '<Profile id="xccdf_org.ssgproject.content_profile_stig">\n'
        "<title>DISA STIG</title>\n"
        f"<description>{descriptions[1]}</description>\n"
    ]
    out.extend(f'<select idref="{rid}" selected="true"/>\n' for rid in rule_ids)
    out.append("</Profile>\n")
    per_group = 50
    for start in range(0, len(rule_ids), per_group):
        out.append(f'<Group id="xccdf_org.ssgproject.content_group_bench_{start // per_group:04d}">'
                   f"<title>{rng.choice(titles)}</title>"
                   f"<description>{rng.choice(rationales)}</description>\n")
        for number, rid in enumerate(rule_ids[start:start + per_group], start + 1):
            out.append(
                f'<Rule id="{rid}" selected="true" severity="medium">\n'
                f"<title>{rng.choice(titles)}</title>\n"
                f"<description>{rng.choice(descriptions)}</description>\n"
                '<reference href="https://public.cyber.mil/stigs/srg-stig-tools/">'
                f"SV-{260000 + number}r958{number % 1000:03d}_rule</reference>\n"
                '<reference href="https://www.cisecurity.org/controls/">'
                f"{number % 20}.{number % 7}</reference>\n"
                f"<rationale>{rng.choice(rationales)}</rationale>\n"
                f'<ident system="https://ncp.nist.gov/cce">CCE-{80000 + number}-{number % 10}</ident>\n'
                f'<fix id="{rid}_fix" system="urn:xccdf:fix:script:sh">'
                f"# {rng.choice(titles)}\nif [ -f /etc/bench/{number}.conf ]; then\n"
                f"  sed -i 's/^setting_{number}.*/setting_{number} yes/' /etc/bench/{number}.conf\n"
                "fi\n</fix>\n"
                '<check system="http://oval.mitre.org/XMLSchema/oval-definitions-5">'
                f'<check-content-ref name="oval:ssg-bench_{number:05d}:def:1" '
                'href="ssg-ubuntu2204-oval.xml"/></check>\n'
                "</Rule>\n"
            )
        out.append("</Group>\n")
    out.append(
        f'<TestResult id="xccdf_org.open-scap_testresult_{name}" '
        'start-time="2025-03-03T00:00:00+00:00" end-time="2025-03-03T00:03:00+00:00" '
        'version="0.1.73" test-system="cpe:/a:redhat:openscap:1.3.7">\n'
        '<benchmark href="#scap_org.open-scap_comp_ssg-ubuntu2204-xccdf.xml" '
        'id="xccdf_org.ssgproject.content_benchmark_UBUNTU2204"/>\n'
        "<title>OSCAP Scan Result</title>\n"
        '<profile idref="xccdf_org.ssgproject.content_profile_stig"/>\n'
        f"<target>{name}</target>\n<target-address>10.20.0.{len(name)}</target-address>\n"
        '<target-facts><fact name="urn:xccdf:fact:scanner:name" type="string">OpenSCAP</fact>'
        f'<fact name="urn:xccdf:fact:asset:identifier:fqdn" type="string">{name}.bench</fact>'
        "</target-facts>\n"
    )
    for number, (rid, status) in enumerate(zip(rule_ids, statuses), 1):
        out.append(
            f'<rule-result idref="{rid}" role="full" time="2025-03-03T00:01:00+00:00" '
            'severity="medium" weight="1.000000">'
            f"<result>{status}</result>"
            f'<ident system="https://ncp.nist.gov/cce">CCE-{80000 + number}-{number % 10}</ident>'
            '<check system="http://oval.mitre.org/XMLSchema/oval-definitions-5">'
            f'<check-content-ref name="oval:ssg-bench_{number:05d}:def:1" '
            'href="#oval0"/></check></rule-result>\n'
        )
    out.append('<score system="urn:xccdf:scoring:default" maximum="100.000000">'
               f"{openscap_pct(host['pass'], host['fail']):.6f}</score>\n"
               "</TestResult>\n</Benchmark>\n")
    return "".join(out)


def full_lynis(rng: random.Random, host: dict, name: str) -> str:
    """A lynis-report.dat of realistic length (about 700 lines)."""
    lines = [
        "# Lynis Report", "report_version_major=1", "report_version_minor=0",
        "report_datetime_start=2025-03-03 00:00:00", "auditor=[Not Specified]",
        "lynis_version=3.0.9", "os=Linux", "os_name=Ubuntu",
        "os_fullname=Ubuntu 22.04.4 LTS", "os_version=22.04",
        f"hostname={name}", "linux_kernel_version=5.15.0-105-generic",
    ]
    for n in range(560):
        lines.append(f"installed_package[]=bench-{rng.choice(_WORDS)}-{n},1.{n % 40}.{n % 7}")
    for port in range(20):
        lines.append(f"network_listen_port[]=0.0.0.0:{1000 + 37 * port}|tcp|{rng.choice(_WORDS)}|")
    for n in range(60):
        lines.append(f"suggestion[]=BENCH-{7000 + n}|{rng.choice(_WORDS)} "
                     f"{rng.choice(_WORDS)} should be hardened|-|-|")
    for n in range(8):
        lines.append(f"warning[]=BENCH-{8000 + n}|{rng.choice(_WORDS)} misconfigured|-|-|")
    for n in range(40):
        lines.append(f"test_result[]=BENCH-{9000 + n}|{rng.choice(('OK', 'WARNING', 'SKIPPED'))}|")
    lines += [f"hardening_index={host['lynis']}", "tests_executed=261",
              "tests_skipped=37", "plugins_enabled=0",
              "report_datetime_end=2025-03-03 00:02:41"]
    return "\n".join(lines) + "\n"


def full_aide(rng: random.Random, host: dict) -> str:
    """An AIDE check report with its summary and the added, removed, changed
    and detailed-information sections."""
    rule = "-" * 51 + "\n"
    head = "Start timestamp: 2025-03-03 00:00:00 +0000 (AIDE 0.17.4)\n"
    if host["changes"] == 0:
        return (head + "AIDE found NO differences between database and filesystem. "
                "Looks okay!!\n\nNumber of entries:\t184523\n\n" + rule
                + "The attributes of the (uncompressed) database(s):\n" + rule
                + "\n/var/lib/aide/aide.db\n  SHA512    : " + "ab" * 44 + "\n\n"
                "End timestamp: 2025-03-03 00:03:12 +0000 (run time: 3m 12s)\n")
    paths = [f"/etc/bench/{rng.choice(_WORDS)}/{n}.conf" for n in range(host["changes"])]
    added = paths[:host["added"]]
    removed = paths[host["added"]:host["added"] + host["removed"]]
    changed = paths[host["added"] + host["removed"]:]
    out = [head, "AIDE found differences between database and filesystem!!\n\n",
           "Summary:\n  Total number of entries:\t184523\n",
           f"  Added entries:\t\t{host['added']}\n",
           f"  Removed entries:\t\t{host['removed']}\n",
           f"  Changed entries:\t\t{host['changed']}\n\n"]
    for title, marker, group in (("Added", "f++++++++++++++++", added),
                                 ("Removed", "f----------------", removed),
                                 ("Changed", "f   ...    .C... ", changed)):
        if group:
            out += [rule, f"{title} entries:\n", rule, "\n"]
            out += [f"{marker}: {path}\n" for path in group]
            out.append("\n")
    if changed:
        out += [rule, "Detailed information about changes:\n", rule, "\n"]
        for path in changed:
            out.append(f"File: {path}\n  Size      : {rng.randint(100, 9999):<32} | "
                       f"{rng.randint(100, 9999)}\n  SHA512    : {'cd' * 22:<32} | "
                       f"{'ef' * 22}\n\n")
    out += [rule, "The attributes of the (uncompressed) database(s):\n", rule,
            "\n/var/lib/aide/aide.db\n  SHA512    : " + "ab" * 44 + "\n\n",
            "End timestamp: 2025-03-03 00:03:12 +0000 (run time: 3m 12s)\n"]
    return "".join(out)


# --- snapshots and specs -------------------------------------------------------

def write_snapshot(directory: Path, profile: str) -> None:
    """A node snapshot directory in the documented layout. Against the default
    rule set it scores RULE_SCORE[profile]; every directive appears once."""
    hardened = profile in ("partial", "full")
    sshd = ("# OpenSSH server configuration\nPort 22\nPermitRootLogin no\n"
            "PermitEmptyPasswords no\n"
            f"MaxAuthTries {3 if hardened else 6}\n"
            f"X11Forwarding {'no' if hardened else 'yes'}\n"
            "UsePAM yes\nSubsystem sftp /usr/lib/openssh/sftp-server\n")
    login_defs = "MAIL_DIR\t/var/mail\nPASS_MAX_DAYS\t99999\nPASS_MIN_DAYS\t0\nUMASK\t\t022\n"
    services = {"ssh": "active", "cron": "active",
                "auditd": "active" if profile == "full" else "inactive"}
    shadow = "0640" if hardened else "0644"
    write_file(directory / "manifest.json",
               json.dumps({"node": profile, "captured_at": "2025-03-03T00:00:00+00:00"}))
    write_file(directory / "files" / "etc" / "ssh" / "sshd_config", sshd)
    write_file(directory / "files" / "etc" / "login.defs", login_defs)
    write_file(directory / "services.tsv",
               "".join(f"{name}\t{state}\n" for name, state in sorted(services.items())))
    write_file(directory / "permissions.tsv",
               f"/etc/passwd\t0644\troot\troot\n/etc/shadow\t{shadow}\troot\tshadow\n")
    write_file(directory / "firewall.txt", "active\n")


def corpus_spec(nodes: int, iterations: int, seed: int) -> dict:
    """A `uca fixtures --spec` document with ``nodes`` nodes cycling through
    the three profiles, and the paper's per-tool runtimes made explicit."""
    return {
        "nodes": [{"name": f"n{i:03d}", "profile": PROFILES[i % 3]} for i in range(nodes)],
        "iterations": iterations,
        "seed": seed,
        "runtime_distributions": {tool: [total / 36, 0.0]
                                  for tool, total in RUNTIME_TOTALS.items()},
    }


def write_file(path: Path, text: str) -> None:
    """Write and fsync, so the store's later commits do not flush inputs."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
