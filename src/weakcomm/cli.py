"""Command-line driver: named, reproducible verification scenarios with JSON
reports.

Exit codes: 0 all pass, 1 some verdict failed or an internal invariant
broke, 2 usage error, 3 inconclusive (e.g. an enumeration limit was hit).
Rationals are printed as p/q strings, never floats, and every random
scenario records its seed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from .carriers import BaumslagSolitarCarrier, FiniteCarrier, FreeAbelianCarrier, FreeCarrier
from .group_rings import (
    RingMatrix,
    conjugated_diagonal_idempotent,
    epsilon,
    kappa,
    pushforward,
    random_ring_element,
    torsion_idempotent,
    trace_audit,
)
from .finite_groups import FiniteGroupError, realize, regular_identity_decider
from .presentations import (
    PresentationError,
    direct_power,
    parse_presentation,
    parse_words,
    presentation_to_text,
)
from .sidki import (
    SidkiError,
    analyze_double_kernel,
    canonical_maps,
    double_presentation,
    identity_witness,
    rho_on_elements,
)
from .smith import is_perfect
from .todd_coxeter import (
    CosetEnumerationError,
    CosetTable,
    DEFAULT_LIMITS,
    EnumerationLimits,
    LimitExceeded,
    closure_audit,
    dump_table,
    enumerate_cosets,
    standardize,
)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3


@dataclass
class ScenarioReport:
    scenario: str
    input_digest: str
    verdicts: dict[str, str] = field(default_factory=dict)
    payload: dict[str, str] = field(default_factory=dict)
    seed: int | None = None
    runtime_ms: int | None = None  # stamped by _timed

    def record(self, name: str, ok: bool) -> None:
        self.verdicts[name] = "pass" if ok else "fail"

    def inconclusive(self, name: str, reason: str) -> None:
        self.verdicts[name] = "inconclusive"
        self.payload["inconclusiveReason"] = reason

    def exit_code(self) -> int:
        values = set(self.verdicts.values())
        if "inconclusive" in values:
            return EXIT_INCONCLUSIVE
        if "fail" in values:
            return EXIT_FAIL
        return EXIT_PASS

    def to_dict(self) -> dict:
        out = {
            "scenario": self.scenario,
            "inputDigest": self.input_digest,
            "verdicts": dict(sorted(self.verdicts.items())),
            "payload": dict(sorted(self.payload.items())),
            "runtimeMs": self.runtime_ms,
        }
        if self.seed is not None:
            out["seed"] = self.seed
        return out


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


def _rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def _read_presentation(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path} is not UTF-8 text: {exc}") from None
    return text, parse_presentation(text)


def _limits(args) -> EnumerationLimits:
    return EnumerationLimits(
        max_cosets=args.max_cosets, max_definitions=args.max_definitions
    )


def _limit_texts(args) -> tuple[str, str]:
    """The limits as digest parts: they can change what a scenario reports."""
    return str(args.max_cosets), str(args.max_definitions)


def _record_table(report: ScenarioReport, table: CosetTable) -> None:
    """The index of ``table`` and the counters of the enumeration that made it."""
    report.payload["index"] = str(table.num_cosets)
    if table.stats is not None:
        report.payload["definitions"] = str(table.stats.definitions)
        report.payload["coincidences"] = str(table.stats.coincidences)
        report.payload["lookaheads"] = str(table.stats.lookaheads)
        report.payload["peakLiveCosets"] = str(table.stats.peak_live)


def _inconclusive(
    report: ScenarioReport, verdict: str, exc: LimitExceeded
) -> tuple[list[ScenarioReport], int]:
    """Record a hit enumeration limit as an inconclusive verdict and end the
    scenario with it."""
    report.inconclusive(verdict, f"{exc.kind} limit {exc.limit}")
    print(f"inconclusive: {exc}")
    return [report], report.exit_code()


def _write_json(reports: list[ScenarioReport], fh) -> None:
    json.dump([r.to_dict() for r in reports], fh, sort_keys=True, separators=(",", ":"))
    fh.write("\n")


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------


def scenario_parse(args) -> tuple[list[ScenarioReport], int]:
    text, pres = _read_presentation(args.file)
    report = ScenarioReport("parse", _digest(text))
    canonical = presentation_to_text(pres)
    report.record("round-trip", parse_presentation(canonical) == pres)
    report.payload["canonical"] = canonical
    report.payload["generators"] = str(pres.num_generators)
    report.payload["relators"] = str(len(pres.relators))
    print(canonical)
    return [report], report.exit_code()


def scenario_enumerate(args) -> tuple[list[ScenarioReport], int]:
    text, pres = _read_presentation(args.file)
    subgroup = parse_words(args.subgroup or "", pres)
    report = ScenarioReport(
        "enumerate", _digest(text, args.subgroup or "", *_limit_texts(args))
    )
    try:
        table = enumerate_cosets(pres, subgroup, _limits(args))
    except LimitExceeded as exc:
        return _inconclusive(report, "enumeration", exc)
    try:
        closure_audit(table)
    except CosetEnumerationError as exc:
        report.record("enumeration", False)
        print(f"closure audit: {exc}")
        return [report], report.exit_code()
    report.record("enumeration", True)
    table = standardize(table)
    _record_table(report, table)
    print(f"index: {table.num_cosets}")
    if args.dump_table:
        with open(args.dump_table, "w", encoding="utf-8") as fh:
            fh.write(dump_table(table))
    return [report], report.exit_code()


_CERTIFICATE_NAMES = {True: "passed", False: "fallback", None: "none-omitted"}


def scenario_double(args) -> tuple[list[ScenarioReport], int]:
    text, pres = _read_presentation(args.file)
    report = ScenarioReport("double", _digest(text, args.schedule, *_limit_texts(args)))
    if args.schedule == "full":
        try:
            base_group = realize(enumerate_cosets(pres, (), _limits(args)))
        except LimitExceeded as exc:
            return _inconclusive(report, "base-enumeration", exc)
        data = double_presentation(pres, base_group.words, _limits(args))
        maps = canonical_maps(data, regular_identity_decider(base_group))
        report.record("maps-verified", all(maps.verified.values()))
        report.payload["baseOrder"] = str(base_group.order)
        report.payload["certificate"] = _CERTIFICATE_NAMES[data.certificate]
        if data.table is not None:
            _record_table(report, data.table)
    else:
        data = double_presentation(pres)
        maps = canonical_maps(data)
        report.record("maps-verified", all(maps.verified[n] for n in ("iota", "iota_psi")))
    commuting = len(data.double.relators) - 2 * len(pres.relators)
    report.payload["partial"] = "true" if data.partial else "false"
    report.payload["relators"] = str(len(data.double.relators))
    report.payload["commutatorRelators"] = str(commuting)
    print(presentation_to_text(data.double))
    if data.partial:
        print("PARTIAL: generator-only commutators; not a presentation of the double")
    return [report], report.exit_code()


def _order_counts(orders: tuple[int, ...]) -> str:
    """Sorted ``order:count`` pairs, e.g. ``1:1,2:2047`` for the W of C2^4."""
    return ",".join(f"{o}:{orders.count(o)}" for o in sorted(set(orders)))


def scenario_analyze_w(args) -> tuple[list[ScenarioReport], int]:
    text, pres = _read_presentation(args.file)
    report = ScenarioReport("analyze-w", _digest(text, *_limit_texts(args)))
    try:
        base_group = realize(enumerate_cosets(pres, (), _limits(args)))
        data = double_presentation(pres, base_group.words, _limits(args))
        analysis = analyze_double_kernel(data, base_group, _limits(args))
    except LimitExceeded as exc:
        return _inconclusive(report, "enumeration", exc)
    except SidkiError as exc:
        # a failed certificate of the kernel stage is a verdict, not a crash
        report.record("kernel-computed", False)
        report.payload["kernelError"] = str(exc)
        print(f"error: {exc}", file=sys.stderr)
        return [report], report.exit_code()
    report.record("kernel-computed", True)
    report.record("lagrange", analysis.lagrange_consistent)
    report.record("w-abelian", analysis.w_abelian)
    if is_perfect(pres):
        # the stem extension W -> X -> G^3.  X perfect gives W <= X' = X;
        # otherwise containment is not computed.  W central and inside X'
        # must stand or fall with X perfect.
        x_perfect = is_perfect(data.double)
        central = analysis.w_central
        for name, ok in (
            ("rho-surjective", analysis.rho_image_order == analysis.base_order**3),
            ("w-central", central),
            ("w-in-derived", True if x_perfect else None),
            ("x-perfect", x_perfect),
            ("lemma-consistent", None if central and not x_perfect else central == x_perfect),
        ):
            if ok is None:
                report.inconclusive(name, "W in X' is not computed when X is not perfect")
            else:
                report.record(name, ok)
            print(f"{name}: {report.verdicts[name]}")
    report.payload["xOrder"] = str(analysis.x_order)
    report.payload["wOrder"] = str(analysis.w_order)
    report.payload["rhoImageOrder"] = str(analysis.rho_image_order)
    report.payload["wElementOrders"] = _order_counts(analysis.w_element_orders)
    report.payload["wMaxOrder"] = str(max(analysis.w_element_orders))
    report.payload["wHasInvolution"] = str(2 in analysis.w_element_orders).lower()
    _record_table(report, analysis.table)
    print(
        f"|X| = {analysis.x_order}, |W| = {analysis.w_order}, "
        f"|im rho| = {analysis.rho_image_order}"
    )
    print(f"W element orders (order:count): {_order_counts(analysis.w_element_orders)}")
    return [report], report.exit_code()


_IDENTITY_GROUPS = ("f2", "z3", "finite")


def scenario_identities(args) -> tuple[list[ScenarioReport], int]:
    rng = Random(args.seed)
    digest_src = args.group
    if args.group == "finite":
        if not args.file:
            raise UsageError("--group finite requires a presentation FILE argument")
        digest_src, pres = _read_presentation(args.file)
    elif args.file:
        raise UsageError(f"--file is read only with --group finite, not {args.group}")
    report = ScenarioReport(
        "identities",
        _digest(digest_src, str(args.samples), *_limit_texts(args)),
        seed=args.seed,
    )
    if args.group == "f2":
        carrier = FreeCarrier(2)
        sample = lambda: carrier.random_element(rng, max_length=6)
    elif args.group == "z3":
        carrier = FreeAbelianCarrier(3)
        sample = lambda: carrier.random_element(rng)
    else:
        try:
            carrier = FiniteCarrier(realize(enumerate_cosets(pres, (), _limits(args))))
        except LimitExceeded as exc:
            return _inconclusive(report, "base-enumeration", exc)
        sample = lambda: carrier.random_element(rng)
    failures = 0
    for _ in range(args.samples):
        if not identity_witness(carrier, sample(), sample(), sample(), sample()):
            failures += 1
    report.record("identities", failures == 0)
    report.payload["samples"] = str(args.samples)
    report.payload["failures"] = str(failures)
    report.payload["carrier"] = carrier.name
    print(f"{args.samples} samples on {carrier.name}: {failures} failures")
    return [report], report.exit_code()


def _c2_pushforward_matrix() -> tuple[RingMatrix, RingMatrix]:
    """A torsion idempotent over the double of the 2-element group, pushed
    forward along rho to the cube of the base."""
    pres = parse_presentation("< a | a^2 >")
    base = realize(enumerate_cosets(pres))
    data = double_presentation(pres, base.words)
    x_group = realize(enumerate_cosets(data.double))
    triple = realize(enumerate_cosets(direct_power(pres, 3)))
    x_carrier = FiniteCarrier(x_group)
    rho = rho_on_elements(data, x_group, triple)
    g = x_group.generator_element(0)
    p = torsion_idempotent(x_carrier, g, 2)
    mat = RingMatrix(x_carrier, [[p]])
    return mat, pushforward(mat, rho.apply, FiniteCarrier(triple))


def scenario_ring_audit(args) -> tuple[list[ScenarioReport], int]:
    rng = Random(args.seed)
    report = ScenarioReport("ring-audit", _digest("ring-corpus"), seed=args.seed)

    def key_of(carrier) -> str:
        return "".join(ch for ch in carrier.name if ch.isalnum()).lower()

    # trace properties on random element pairs per carrier family
    c6 = FiniteCarrier(realize(enumerate_cosets(parse_presentation("< a | a^6 >"))))
    for carrier in (c6, FreeAbelianCarrier(2), FreeCarrier(2), BaumslagSolitarCarrier(2)):
        ok = True
        for _ in range(200):
            x = random_ring_element(carrier, rng)
            y = random_ring_element(carrier, rng)
            ok &= kappa(x * y) == kappa(y * x)
            ok &= epsilon(x * y) == epsilon(x) * epsilon(y)
        report.record(f"trace-properties-{key_of(carrier)}", ok)

    # conjugated diagonal idempotents over torsion-free carriers
    for carrier in (FreeAbelianCarrier(2), FreeCarrier(2)):
        ok = True
        for n, rank in ((2, 1), (3, 2)):
            audit = trace_audit(conjugated_diagonal_idempotent(carrier, rng, n, rank))
            ok &= audit.weak_bass_holds and audit.all_zaleskii_pass and audit.hs_consistent
        report.record(f"delta-zero-{key_of(carrier)}", ok)

    # torsion idempotents over cyclic groups: delta (n-1)/n exactly
    for n in (2, 3, 4, 6):
        pres = parse_presentation(f"< a | a^{n} >")
        carrier = FiniteCarrier(realize(enumerate_cosets(pres)))
        p = torsion_idempotent(carrier, carrier.group.generator_element(0), n)
        audit = trace_audit(RingMatrix(carrier, [[p]]))
        expected = Fraction(n - 1, n)
        ok = (
            audit.weak_bass_delta == expected
            and audit.all_zaleskii_pass
            and audit.hs_consistent
            and audit.kaplansky_dichotomy is True
        )
        report.record(f"torsion-delta-c{n}", ok)
        report.payload[f"deltaC{n}"] = _rat(audit.weak_bass_delta)

    # rho pushforward preserves idempotency
    source, image = _c2_pushforward_matrix()
    ok = source.is_idempotent() and image.is_idempotent()
    audit = trace_audit(image)
    ok &= audit.all_zaleskii_pass and audit.hs_consistent
    report.record("pushforward-idempotent", ok)

    code = report.exit_code()
    print("ring audit:", "all pass" if code == EXIT_PASS else "FAILURES")
    return [report], code


_REPORT_SUITE_FILES = {
    "c2": "< a | a^2 >",
    "klein": "< a, b | a^2, b^2, [a,b] >",
}


def scenario_report(args) -> tuple[list[ScenarioReport], int]:
    import tempfile

    parser = build_parser()
    limits = [
        "--max-cosets", str(args.max_cosets), "--max-definitions", str(args.max_definitions)
    ]
    seed = ["--seed", str(args.seed)]
    reports: list[ScenarioReport] = []
    code = EXIT_PASS
    with tempfile.TemporaryDirectory() as tmp:
        argvs = []
        for name, text in _REPORT_SUITE_FILES.items():
            path = os.path.join(tmp, f"{name}.grp")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
            argvs += [["double", path, *limits], ["analyze-w", path, *limits]]
        for group in ("f2", "z3"):
            argvs.append(["identities", "--group", group, "--samples", str(args.samples), *seed])
        argvs.append(["ring-audit", *seed])
        for argv in argvs:
            sub_args = parser.parse_args(argv)
            sub_reports, sub_code = _timed(_COMMANDS[sub_args.command], sub_args)
            reports.extend(sub_reports)
            code = max(code, sub_code)
    return reports, code


def _timed(scenario, args) -> tuple[list[ScenarioReport], int]:
    """Run a scenario and stamp its elapsed time on the reports it returns
    that do not yet carry one (the report suite stamps its own)."""
    started = time.monotonic()
    reports, code = scenario(args)
    elapsed = int((time.monotonic() - started) * 1000)
    for report in reports:
        if report.runtime_ms is None:
            report.runtime_ms = elapsed
    return reports, code


class UsageError(Exception):
    pass


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakcomm",
        description="Doubles of finitely presented groups, coset enumeration, "
        "and exact group-ring trace audits.",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None, help="write JSON report(s) to PATH"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        # accepted after the subcommand too; SUPPRESS keeps a missing
        # occurrence from clobbering the global value
        p.add_argument("--json", metavar="PATH", default=argparse.SUPPRESS)

    def add_limits(p):
        add_json(p)
        p.add_argument("--max-cosets", type=_positive_int, default=DEFAULT_LIMITS.max_cosets)
        p.add_argument(
            "--max-definitions", type=_positive_int, default=DEFAULT_LIMITS.max_definitions
        )

    p = sub.add_parser("parse", help="echo the canonical form of a presentation file")
    p.add_argument("file")
    add_json(p)

    p = sub.add_parser("enumerate", help="coset enumeration over a subgroup")
    p.add_argument("file")
    p.add_argument("--subgroup", help="comma-separated subgroup generator words")
    p.add_argument("--dump-table", metavar="PATH")
    add_limits(p)

    p = sub.add_parser("double", help="construct the double of a presentation")
    p.add_argument("file")
    p.add_argument("--schedule", choices=("full", "generators"), default="full")
    add_limits(p)

    p = sub.add_parser("analyze-w", help="build the double and analyze ker(rho)")
    p.add_argument("file")
    add_limits(p)

    p = sub.add_parser("identities", help="sample the two commutator identities")
    p.add_argument("--group", choices=_IDENTITY_GROUPS, default="f2")
    p.add_argument("--file", help="presentation file for --group finite")
    p.add_argument("--samples", type=_positive_int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    add_limits(p)

    p = sub.add_parser("ring-audit", help="run the idempotent corpus audits")
    p.add_argument("--seed", type=int, default=0)
    add_json(p)

    p = sub.add_parser("report", help="run the standard scenario suite")
    p.add_argument("--samples", type=_positive_int, default=200)
    p.add_argument("--seed", type=int, default=0)
    add_limits(p)

    return parser


_COMMANDS = {
    "parse": scenario_parse,
    "enumerate": scenario_enumerate,
    "double": scenario_double,
    "analyze-w": scenario_analyze_w,
    "identities": scenario_identities,
    "ring-audit": scenario_ring_audit,
    "report": scenario_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        # opened first, so that a path that cannot be written fails before any work
        out = open(args.json, "w", encoding="utf-8") if args.json else contextlib.nullcontext()
        with out as fh:
            try:
                reports, code = _timed(_COMMANDS[args.command], args)
                if fh is not None:
                    _write_json(reports, fh)
            except BaseException:
                # leave no empty report behind; a device or a link is kept
                if fh is not None and os.path.isfile(args.json) and not os.path.islink(args.json):
                    fh.close()
                    os.remove(args.json)
                raise
    except (PresentationError, UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SidkiError, CosetEnumerationError, FiniteGroupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    return code


if __name__ == "__main__":
    raise SystemExit(main())
