"""Command-line entry point: ``python -m repro.analysis`` (``repro analyze``).

Examples::

    repro analyze                      # lint src/ + tests/, verify schedules
    repro analyze src/repro/verify     # lint one subtree
    repro analyze --list-rules         # print the rule catalog
    repro analyze --json               # machine-readable report on stdout
    repro analyze --json-out report.json --quiet
    repro analyze --family "random_network[side=8,seed=7]" --no-lint
    repro analyze --certify --sides 2 4      # 0-1 sortedness certification
    repro analyze --certify --family row_major_no_wrap --sides 4

Exit status follows the package-wide contract: 0 when clean, 1 on any
finding or schedule violation, 2 on bad usage.

The schedule layer statically verifies every registered schedule family —
the five paper algorithms, the shearsort baseline, the linear odd-even
sort, and a seeded random-network instance — at representative sides; the
deliberately broken ``row_major_no_wrap`` demo is excluded from sweeps
(it exists to violate SCH005) but can be targeted with ``--family``.
``--certify`` additionally runs the 0-1 sortedness certifier on every
report: a REFUTED schedule, or a family whose declared
``certified_sides`` claim fails, is a finding.
"""

from __future__ import annotations

import argparse
import json
import sys
import textwrap
from pathlib import Path
from typing import Sequence

from repro.analysis.lint import LintReport, all_rules, run_lint
from repro.analysis.schedule_check import SCHEDULE_RULES, ScheduleReport, check_schedule
from repro.analysis.semantics.cache import CertificateStore
from repro.analysis.semantics.checker import certify_sortedness
from repro.errors import AnalysisError, DimensionError, UnknownScheduleError
from repro.schedules import (
    available_families,
    build_schedule,
    get_family,
    mesh_shape,
    parse_spec,
)

__all__ = ["main", "default_paths", "schedule_reports", "semantics_findings"]

#: Sides the schedule verifier sweeps (odd sides skipped for the
#: ``requires_even_side`` algorithms, mirroring the paper's constraint).
DEFAULT_SIDES = (4, 5, 6)

#: Seed for the seedable families' representative instances (fixed so the
#: sweep verifies the same generated schedules on every run).
_GENERATED_SEED = 0


def default_paths() -> list[Path]:
    """``src`` and ``tests`` under the current directory, when present."""
    return [path for path in (Path("src"), Path("tests")) if path.is_dir()]


def schedule_reports(
    sides: Sequence[int] = DEFAULT_SIDES,
    *,
    family: str | None = None,
    certify: bool = False,
    certificate_store: CertificateStore | None = None,
) -> list[ScheduleReport]:
    """Static reports for registered families (or one targeted ``family``).

    Sided families are rebuilt per side; seedable families contribute a
    fixed-seed representative instance, so generated schedules get the
    same static scrutiny as the hand-written ones.  ``family`` accepts a
    bare name or a canonical ``"family[k=v,...]"`` spec string — a spec
    that pins ``side`` yields exactly one report for that instance
    (pathological families are allowed when targeted explicitly).  With
    ``certify``, every report gains a sortedness certificate in its
    ``semantics`` section.
    """
    if family is not None:
        base, params = parse_spec(family)
        get_family(base)  # unknown families fail fast with the catalog
        names = [family]
        chosen_sides: Sequence[int] = (
            (params["side"],) if "side" in params else sides
        )
    else:
        names = list(available_families())
        chosen_sides = sides

    reports = []
    for name in names:
        base, params = parse_spec(name)
        fam = get_family(base)
        for side in chosen_sides:
            if fam.requires_even_side and side % 2 != 0:
                continue
            schedule = build_schedule(name, side, seed=_GENERATED_SEED)
            rows, cols = mesh_shape(schedule, side)
            report = check_schedule(schedule, rows, cols)
            if certify:
                report.semantics = certify_sortedness(
                    schedule, rows, cols, store=certificate_store
                )
            reports.append(report)
    return reports


def semantics_findings(reports: Sequence[ScheduleReport]) -> list[str]:
    """Certification findings that should fail ``repro analyze --certify``.

    Two kinds gate: a statically **REFUTED** schedule (it can never sort,
    so every dynamic layer built on it is wasted work), and a family
    whose declared ``certified_sides`` claim did not come back CERTIFIED
    on an exhaustive check (the registry is advertising a guarantee the
    certifier cannot reproduce).  UNKNOWN verdicts — sampled meshes,
    exhausted budgets — are reported but do not gate.
    """
    findings: list[str] = []
    for report in reports:
        cert = report.semantics
        if cert is None:
            continue
        where = f"{report.name!r} on {report.rows}x{report.cols}"
        if cert.refuted:
            findings.append(f"{where}: statically REFUTED — {cert.describe()}")
            continue
        try:
            base, _ = parse_spec(report.name)
            fam = get_family(base)
        except UnknownScheduleError:  # explicit Schedule outside the registry
            continue
        side = report.cols if report.rows == 1 else report.rows
        claimed = side in fam.certified_sides
        if claimed and cert.mode == "exhaustive" and not cert.certified:
            findings.append(
                f"{where}: declared in certified_sides but the exhaustive "
                f"0-1 check returned {cert.verdict} ({cert.reason})"
            )
    return findings


def _print_rule_catalog() -> None:
    print("lint rules:")
    for rule_id, rule in all_rules().items():
        doc = textwrap.dedent(rule.__doc__ or "").strip()
        print(f"  {rule_id}  {rule.title}")
        for line in doc.splitlines():
            print(f"      {line}" if line else "")
    print("schedule rules:")
    for rule_id, (severity, summary) in SCHEDULE_RULES.items():
        print(f"  {rule_id}  [{severity}] {summary}")


def _to_json(
    lint: LintReport | None,
    schedules: list[ScheduleReport],
    ok: bool,
    findings: list[str] | None,
) -> dict[str, object]:
    doc: dict[str, object] = {
        "version": 1,
        "ok": ok,
        "lint": lint.to_json() if lint is not None else None,
        "schedules": [report.to_json() for report in schedules],
    }
    if findings is not None:
        doc["semantics_findings"] = findings
    return doc


def _certified_sides_lines() -> list[str]:
    lines = ["declared certified sides:"]
    for name in available_families(include_pathological=True):
        fam = get_family(name)
        sides = ", ".join(str(s) for s in fam.certified_sides) or "-"
        lines.append(f"  {name}: {sides}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro analyze",
        description="Static analysis: domain lint rules + schedule verification.",
    )
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files/directories to lint (default: src/ and tests/ when present)",
    )
    parser.add_argument(
        "--rules", metavar="IDS", default=None,
        help="comma-separated lint rule IDs to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    parser.add_argument(
        "--no-lint", action="store_true", help="skip the source lint layer"
    )
    parser.add_argument(
        "--no-schedules", action="store_true", help="skip the schedule verifier"
    )
    parser.add_argument(
        "--sides", nargs="+", type=int, metavar="N", default=list(DEFAULT_SIDES),
        help=f"mesh sides for the schedule verifier (default: {DEFAULT_SIDES})",
    )
    parser.add_argument(
        "--family", metavar="SPEC", default=None,
        help="verify one family only; accepts canonical 'family[k=v,...]' "
        "spec strings (a spec pinning side= yields exactly that instance)",
    )
    parser.add_argument(
        "--certify", action="store_true",
        help="run the 0-1 sortedness certifier on every schedule report "
        "(REFUTED schedules and failed certified_sides claims are findings)",
    )
    parser.add_argument(
        "--certificate-dir", metavar="DIR", default=None,
        help="persist certificates content-addressed under DIR",
    )
    parser.add_argument(
        "--json", action="store_true", help="print the report as JSON on stdout"
    )
    parser.add_argument(
        "--json-out", metavar="FILE", default=None,
        help="also write the JSON report to FILE",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="print only the final summary line"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        _print_rule_catalog()
        return 0

    try:
        if args.no_schedules and (args.family or args.certify):
            raise AnalysisError(
                "--family/--certify verify schedules; drop --no-schedules"
            )
        selected = None
        if args.rules is not None:
            catalog = all_rules()
            wanted = [r.strip() for r in args.rules.split(",") if r.strip()]
            unknown = [r for r in wanted if r not in catalog]
            if unknown:
                raise AnalysisError(
                    f"unknown lint rules {unknown}; known: {', '.join(catalog)}"
                )
            selected = [catalog[r] for r in wanted]

        lint_report: LintReport | None = None
        if not args.no_lint:
            paths = [Path(p) for p in args.paths] if args.paths else default_paths()
            if not paths:
                raise AnalysisError(
                    "no paths given and no src/ or tests/ directory here; "
                    "pass explicit paths"
                )
            lint_report = run_lint(paths, rules=selected)

        schedules: list[ScheduleReport] = []
        if not args.no_schedules:
            store = (
                CertificateStore(args.certificate_dir)
                if args.certificate_dir
                else None
            )
            schedules = schedule_reports(
                tuple(args.sides),
                family=args.family,
                certify=args.certify,
                certificate_store=store,
            )
    except (AnalysisError, UnknownScheduleError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    lint_ok = lint_report.ok if lint_report is not None else True
    schedules_ok = all(report.ok for report in schedules)
    findings = semantics_findings(schedules) if args.certify else None
    ok = lint_ok and schedules_ok and not findings

    if args.json:
        print(json.dumps(_to_json(lint_report, schedules, ok, findings), indent=2))
    if args.json_out:
        out = Path(args.json_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            json.dumps(_to_json(lint_report, schedules, ok, findings), indent=2)
        )
        if not args.json:
            print(f"wrote {out}")

    if not args.json:
        if lint_report is not None and not (args.quiet and lint_ok):
            print(lint_report.describe())
        for report in schedules:
            if not report.ok or not args.quiet:
                print(report.describe())
        if args.certify:
            if not args.quiet:
                for line in _certified_sides_lines():
                    print(line)
            for finding in findings or []:
                print(f"SEMANTICS: {finding}")
        n_sched_violations = sum(len(r.violations) for r in schedules)
        summary = (
            f"{'PASS' if ok else 'FAIL'}: "
            f"{len(lint_report.findings) if lint_report else 0} lint finding(s), "
            f"{n_sched_violations} schedule violation(s) "
            f"across {len(schedules)} schedule report(s)"
        )
        if args.certify:
            certs = [r.semantics for r in schedules if r.semantics is not None]
            counts = {
                verdict: sum(1 for c in certs if c.verdict == verdict)
                for verdict in ("CERTIFIED", "REFUTED", "UNKNOWN")
            }
            summary += (
                f", certificates: {counts['CERTIFIED']} certified / "
                f"{counts['REFUTED']} refuted / {counts['UNKNOWN']} unknown"
            )
        print(summary)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
