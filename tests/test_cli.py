import json
import time
from dataclasses import replace

import pytest

import weakcomm.cli as cli
import weakcomm.sidki as sidki
from weakcomm.finite_groups import realize, subgroup_generated
from weakcomm.presentations import parse_presentation
from weakcomm.todd_coxeter import CosetTable, LimitExceeded, enumerate_cosets
from weakcomm.cli import (
    EXIT_FAIL,
    EXIT_INCONCLUSIVE,
    EXIT_PASS,
    EXIT_USAGE,
    main,
)

A5 = "< a, b | a^2, b^3, (a*b)^5 >\n"
C2 = "< a | a^2 >\n"
KLEIN = "< a, b | a^2, b^2, [a,b] >\n"
S4 = "< a, b | a^2, b^3, (a*b)^4 >\n"


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in (("a5", A5), ("c2", C2), ("klein", KLEIN), ("s4", S4)):
        path = tmp_path / f"{name}.grp"
        path.write_text(text)
        paths[name] = str(path)
    return paths


def test_parse_echoes_canonical(files, capsys):
    assert main(["parse", files["c2"]]) == EXIT_PASS
    assert capsys.readouterr().out.strip() == "< a | a^2 >"


def test_parse_reports_syntax_error(tmp_path, capsys):
    bad = tmp_path / "bad.grp"
    bad.write_text("< a | b^2 >\n")
    assert main(["parse", str(bad)]) == EXIT_USAGE
    assert "undeclared" in capsys.readouterr().err
    # a superscript exponent is a syntax error, not an uncaught ValueError
    bad.write_text("< a | a^\u00b2 >\n")
    assert main(["parse", str(bad)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "unexpected character '\u00b2' (line 1, column 9)" in err
    assert "Traceback" not in err


def test_enumerate_index(files, capsys):
    assert main(["enumerate", files["a5"]]) == EXIT_PASS
    assert "index: 60" in capsys.readouterr().out


def test_enumerate_subgroup_flag(files, capsys):
    assert main(["enumerate", files["a5"], "--subgroup", "a"]) == EXIT_PASS
    assert "index: 30" in capsys.readouterr().out
    # the items are words in the relator syntax, commutator sugar included
    assert main(["enumerate", files["a5"], "--subgroup", "[a,b]"]) == EXIT_PASS
    assert "index: 12" in capsys.readouterr().out
    # an empty item is an error, as in the header
    assert main(["enumerate", files["a5"], "--subgroup", "a,"]) == EXIT_USAGE
    assert "expected a word, found end of input" in capsys.readouterr().err


def test_enumerate_limit_is_inconclusive(files, capsys):
    code = main(["enumerate", files["a5"], "--max-cosets", "10"])
    assert code == EXIT_INCONCLUSIVE
    out = capsys.readouterr().out
    assert "inconclusive" in out
    assert "infinite" not in out


def test_enumerate_fails_on_a_table_that_breaks_a_relator(files, tmp_path, monkeypatch, capsys):
    # closed, but a acts as a 3-cycle, so the relator a^2 does not act trivially
    def three_cycle(pres, subgroup=(), limits=None):
        return CosetTable(pres, tuple(subgroup), ((1, 2, 0), (2, 0, 1)))

    monkeypatch.setattr(cli, "enumerate_cosets", three_cycle)
    out = tmp_path / "out.json"
    assert main(["enumerate", files["c2"], "--json", str(out)]) == EXIT_FAIL
    assert "closure audit" in capsys.readouterr().out
    [report] = json.loads(out.read_text())
    assert report["verdicts"] == {"enumeration": "fail"}


def test_enumerate_dump_table(files, tmp_path):
    dump = tmp_path / "table.txt"
    assert main(["enumerate", files["c2"], "--dump-table", str(dump)]) == EXIT_PASS
    text = dump.read_text()
    assert text.startswith("# presentation sha256:")
    assert "# subgroup: trivial" in text


def test_double_full_c2(files, capsys):
    assert main(["double", files["c2"], "--schedule", "full"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert "a_psi" in out


def test_double_report_counts(files, tmp_path):
    out_path = tmp_path / "double.json"
    assert main(["--json", str(out_path), "double", files["c2"]]) == EXIT_PASS
    (report,) = json.loads(out_path.read_text())
    assert report["scenario"] == "double"
    assert report["payload"]["relators"] == "3"
    assert report["payload"]["commutatorRelators"] == "1"
    assert report["payload"]["partial"] == "false"
    assert report["payload"]["certificate"] == "none-omitted"

    assert main(["--json", str(out_path), "double", files["a5"]]) == EXIT_PASS
    (report,) = json.loads(out_path.read_text())
    assert report["payload"]["commutatorRelators"] == "5"
    assert report["payload"]["certificate"] == "passed"


def test_double_generators_schedule_flags_partial(files, capsys, tmp_path):
    out_path = tmp_path / "partial.json"
    code = main(
        ["--json", str(out_path), "double", files["a5"], "--schedule", "generators"]
    )
    assert code == EXIT_PASS
    assert "PARTIAL" in capsys.readouterr().out
    (report,) = json.loads(out_path.read_text())
    assert report["payload"]["partial"] == "true"


def test_rocco_is_an_unknown_command(files):
    assert main(["rocco", files["c2"]]) == EXIT_USAGE


def test_analyze_w_klein(files, tmp_path):
    out_path = tmp_path / "w.json"
    assert main(["--json", str(out_path), "analyze-w", files["klein"]]) == EXIT_PASS
    (report,) = json.loads(out_path.read_text())
    assert report["payload"]["xOrder"] == "32"
    assert report["payload"]["wOrder"] == "2"
    assert report["payload"]["wHasInvolution"] == "true"
    assert report["verdicts"]["lagrange"] == "pass"


def test_w_element_orders_are_counted_per_order(files, tmp_path, monkeypatch, capsys):
    # one order:count pair per order, not one entry per element of W
    out_path = tmp_path / "w.json"
    assert main(["--json", str(out_path), "analyze-w", files["klein"]]) == EXIT_PASS
    (report,) = json.loads(out_path.read_text())
    assert report["payload"]["wElementOrders"] == "1:1,2:1"
    assert "W element orders (order:count): 1:1,2:1" in capsys.readouterr().out
    # stem-audit on the Klein base, passed off as perfect as in the
    # containment test below
    monkeypatch.setattr(cli, "is_perfect", lambda p: True)
    monkeypatch.setattr(sidki, "is_perfect", lambda p: p.num_generators == 2)
    assert main(["--json", str(out_path), "stem-audit", files["klein"]]) == EXIT_INCONCLUSIVE
    (report,) = json.loads(out_path.read_text())
    assert report["payload"]["wElementOrders"] == "1:1,2:1"


def test_analyze_w_enumerates_the_double_once(files, monkeypatch):
    calls = []
    enumerate_cosets = sidki.enumerate_cosets

    def counted(presentation, subgroup=(), *args):
        calls.append(tuple(subgroup))
        return enumerate_cosets(presentation, subgroup, *args)

    monkeypatch.setattr(sidki, "enumerate_cosets", counted)
    assert main(["analyze-w", files["s4"]]) == EXIT_PASS
    assert len([s for s in calls if s]) == 1  # over iota_psi(G), by the certificate


def test_stem_audit_rejects_imperfect(files, capsys):
    assert main(["stem-audit", files["c2"]]) == EXIT_USAGE
    assert "perfect" in capsys.readouterr().err


def test_stem_audit_containment_not_computed_is_inconclusive(files, tmp_path, monkeypatch):
    # the Klein base passes as perfect and its double (4 generators) does not
    monkeypatch.setattr(cli, "is_perfect", lambda p: True)
    monkeypatch.setattr(sidki, "is_perfect", lambda p: p.num_generators == 2)
    out_path = tmp_path / "stem.json"
    assert main(["--json", str(out_path), "stem-audit", files["klein"]]) == EXIT_INCONCLUSIVE
    (report,) = json.loads(out_path.read_text())
    assert report["verdicts"]["w-in-derived"] == "inconclusive"
    assert report["verdicts"]["lemma-consistent"] == "inconclusive"
    assert report["verdicts"]["x-perfect"] == "fail"
    assert report["verdicts"]["lagrange"] == "pass"
    assert "not computed" in report["payload"]["inconclusiveReason"]


def test_internal_invariant_failure_exits_one(files, monkeypatch, capsys):
    monkeypatch.setattr(sidki, "derived_subgroup", lambda G: subgroup_generated(G, []))
    assert main(["analyze-w", files["s4"]]) == EXIT_FAIL
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "im rho" in err


def test_analyze_w_records_a_failed_kernel_stage(files, tmp_path, monkeypatch):
    monkeypatch.setattr(sidki, "derived_subgroup", lambda G: subgroup_generated(G, []))
    out_path = tmp_path / "w.json"
    assert main(["--json", str(out_path), "analyze-w", files["s4"]]) == EXIT_FAIL
    (report,) = json.loads(out_path.read_text())
    assert report["verdicts"] == {"kernel-computed": "fail"}
    assert "im rho" in report["payload"]["kernelError"]


def test_stem_audit_records_a_failed_kernel_stage(files, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "is_perfect", lambda p: True)
    monkeypatch.setattr(sidki, "derived_subgroup", lambda G: subgroup_generated(G, []))
    out_path = tmp_path / "stem.json"
    assert main(["--json", str(out_path), "stem-audit", files["s4"]]) == EXIT_FAIL
    (report,) = json.loads(out_path.read_text())
    assert report["verdicts"] == {"kernel-computed": "fail"}
    assert "im rho" in report["payload"]["kernelError"]


@pytest.mark.parametrize("flag", ["--max-cosets", "--max-definitions"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_nonpositive_limits_are_usage_errors(files, flag, value):
    assert main(["enumerate", files["a5"], flag, value]) == EXIT_USAGE


@pytest.mark.parametrize("command", ["identities", "report"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_nonpositive_samples_are_usage_errors(command, value):
    assert main([command, "--samples", value]) == EXIT_USAGE


def test_non_utf8_file_is_a_usage_error(tmp_path, capsys):
    bad = tmp_path / "latin1.grp"
    bad.write_bytes("< \xe4 | \xe4^2 >\n".encode("latin-1"))
    assert main(["parse", str(bad)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")


def test_json_into_missing_directory_is_a_usage_error(files, tmp_path, capsys, monkeypatch):
    out_path = tmp_path / "missing" / "out.json"
    assert main(["--json", str(out_path), "parse", files["c2"]]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""  # the scenario did not run

    def never(args):
        raise AssertionError("the scenario ran")

    monkeypatch.setitem(cli._COMMANDS, "report", never)
    assert main(["--json", str(out_path), "report"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert captured.out == ""


def test_identities_command(files, tmp_path):
    out_path = tmp_path / "ids.json"
    code = main(
        ["--json", str(out_path), "identities", "--group", "f2", "--samples", "100", "--seed", "7"]
    )
    assert code == EXIT_PASS
    (report,) = json.loads(out_path.read_text())
    assert report["seed"] == 7
    assert report["payload"]["failures"] == "0"
    assert report["verdicts"]["identities"] == "pass"


def test_identities_finite_group(files):
    code = main(
        ["identities", "--group", "finite", "--file", files["klein"], "--samples", "50"]
    )
    assert code == EXIT_PASS


def test_identities_finite_limit_is_inconclusive(files, tmp_path, monkeypatch, capsys):
    def hit_limit(*args, **kwargs):
        raise LimitExceeded("cosets", 5)

    monkeypatch.setattr(cli, "enumerate_cosets", hit_limit)
    out_path = tmp_path / "ids.json"
    code = main(
        ["--json", str(out_path), "identities", "--group", "finite", "--file", files["klein"]]
    )
    assert code == EXIT_INCONCLUSIVE
    assert "inconclusive" in capsys.readouterr().out
    (report,) = json.loads(out_path.read_text())
    assert report["verdicts"] == {"base-enumeration": "inconclusive"}
    assert report["payload"]["inconclusiveReason"] == "cosets limit 5"


def test_identities_finite_takes_limits(files, tmp_path):
    out_path = tmp_path / "ids.json"
    argv = ["identities", "--group", "finite", "--file", files["a5"], "--samples", "5"]
    code = main(["--json", str(out_path), *argv, "--max-cosets", "10"])
    assert code == EXIT_INCONCLUSIVE
    (bounded,) = json.loads(out_path.read_text())
    assert bounded["verdicts"] == {"base-enumeration": "inconclusive"}
    assert bounded["payload"]["inconclusiveReason"] == "cosets limit 10"
    assert main(["--json", str(out_path), *argv]) == EXIT_PASS
    (default,) = json.loads(out_path.read_text())
    assert default["inputDigest"] != bounded["inputDigest"]


def test_identities_finite_requires_file(capsys):
    assert main(["identities", "--group", "finite"]) == EXIT_USAGE


def test_identities_file_requires_group_finite(files, capsys):
    assert main(["identities", "--file", files["c2"]]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "--group finite" in captured.err
    assert "samples" not in captured.out


def test_ring_audit(tmp_path):
    out_path = tmp_path / "ring.json"
    assert main(["--json", str(out_path), "ring-audit", "--seed", "1"]) == EXIT_PASS
    (report,) = json.loads(out_path.read_text())
    assert report["payload"]["deltaC2"] == "1/2"
    assert report["payload"]["deltaC3"] == "2/3"
    assert report["payload"]["deltaC6"] == "5/6"
    assert all(v == "pass" for v in report["verdicts"].values())


def test_ring_audit_fails_when_a_zaleskii_check_fails(tmp_path, monkeypatch, capsys):
    # only the conjugated diagonal idempotents have n > 1
    trace_audit = cli.trace_audit

    def kappa_negative_beyond_1x1(mat):
        audit = trace_audit(mat)
        return replace(audit, kappa_nonnegative=False) if mat.n > 1 else audit

    monkeypatch.setattr(cli, "trace_audit", kappa_negative_beyond_1x1)
    out_path = tmp_path / "ring.json"
    assert main(["--json", str(out_path), "ring-audit"]) == EXIT_FAIL
    assert "ring audit: FAILURES" in capsys.readouterr().out
    (report,) = json.loads(out_path.read_text())
    failed = {k for k, v in report["verdicts"].items() if v != "pass"}
    assert failed == {"delta-zero-z2", "delta-zero-f2"}


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == EXIT_USAGE
    assert main([]) == EXIT_USAGE


def test_report_schema_and_determinism(tmp_path):
    first = tmp_path / "r1.json"
    second = tmp_path / "r2.json"
    assert main(["report", "--samples", "25", "--seed", "3", "--json", str(first)]) == EXIT_PASS
    assert main(["report", "--samples", "25", "--seed", "3", "--json", str(second)]) == EXIT_PASS

    def normalized(path):
        reports = json.loads(path.read_text())
        for r in reports:
            assert set(r) <= {"scenario", "inputDigest", "seed", "verdicts", "payload", "runtimeMs"}
            assert isinstance(r["runtimeMs"], int)
            for verdict in r["verdicts"].values():
                assert verdict in ("pass", "fail", "inconclusive")
            r["runtimeMs"] = 0  # runtime may vary between byte-identical runs
        return json.dumps(reports, sort_keys=True)

    assert normalized(first) == normalized(second)


def test_report_runtimes_belong_to_their_scenarios(tmp_path):
    out_path = tmp_path / "report.json"
    started = time.monotonic()
    assert main(["report", "--samples", "25", "--json", str(out_path)]) == EXIT_PASS
    wall_ms = (time.monotonic() - started) * 1000
    reports = json.loads(out_path.read_text())
    assert len(reports) == 7
    assert sum(r["runtimeMs"] for r in reports) <= wall_ms


def test_rationals_serialized_as_strings(tmp_path):
    out_path = tmp_path / "ring.json"
    main(["--json", str(out_path), "ring-audit"])
    text = out_path.read_text()
    assert "0.5" not in text
    assert "1/2" in text


def test_limits_enter_the_input_digest(files, tmp_path):
    # an A5 short double needs 7200 cosets, so 1000 makes the certificate fall back
    reports = []
    for extra in ([], ["--max-cosets", "1000"]):
        out_path = tmp_path / "double.json"
        assert main(["--json", str(out_path), "double", files["a5"], *extra]) == EXIT_PASS
        (report,) = json.loads(out_path.read_text())
        reports.append(report)
    default, bounded = reports
    assert default["payload"]["certificate"] == "passed"
    assert bounded["payload"]["certificate"] == "fallback"
    assert bounded["payload"]["commutatorRelators"] == "59"
    assert default["inputDigest"] != bounded["inputDigest"]


@pytest.mark.parametrize("command", ["double", "analyze-w", "stem-audit"])
def test_payload_carries_the_table_over_iota_psi(files, tmp_path, command):
    base = realize(enumerate_cosets(parse_presentation(A5)))
    stats = sidki.double_presentation(parse_presentation(A5), base.words).table.stats
    out_path = tmp_path / "report.json"
    assert main(["--json", str(out_path), command, files["a5"]]) == EXIT_PASS
    (report,) = json.loads(out_path.read_text())
    assert report["payload"]["index"] == "7200"
    assert report["payload"]["definitions"] == str(stats.definitions)
    assert report["payload"]["coincidences"] == str(stats.coincidences)
    assert report["payload"]["lookaheads"] == str(stats.lookaheads)
    assert report["payload"]["peakLiveCosets"] == str(stats.peak_live)
