"""Command line front end: ``qugeo-lint`` / ``python -m repro.analysis``.

Exit codes::

    0  no findings
    1  findings reported
    2  usage error (unknown rule, bad path, ...)
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.analysis.engine import DEFAULT_PATHS, LintResult, lint_paths
from repro.analysis.registry import resolve_rules
from repro.utils.registry import UnknownNameError
from repro.utils.tables import format_table


def _split_codes(values: Optional[Sequence[str]]) -> Optional[List[str]]:
    if not values:
        return None
    codes: List[str] = []
    for value in values:
        codes.extend(part.strip() for part in value.split(",") if part.strip())
    return codes or None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qugeo-lint",
        description=("AST-based project-invariant linter for the QuGeo "
                     "reproduction (rules QG001-QG005, QG007)."))
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help=(f"files or directories to lint (default: "
              f"{' '.join(DEFAULT_PATHS)} under the project root)"))
    parser.add_argument(
        "--select", action="append", metavar="RULES",
        help="comma-separated rule codes/names to run (default: all)")
    parser.add_argument(
        "--ignore", action="append", metavar="RULES",
        help="comma-separated rule codes/names to skip")
    parser.add_argument(
        "--format", choices=("human", "json"), default="human",
        help="output format (default: human)")
    parser.add_argument(
        "--project-root", metavar="DIR",
        help=("project root for path-scoped rules "
              "(default: auto-detected from pyproject.toml/.git)"))
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list the registered rules and exit")
    return parser


def _print_rules() -> None:
    rows = [(rule.code, rule.name, rule.description) for rule in resolve_rules()]
    print(format_table(("code", "name", "checks for"), rows,
                       title="qugeo-lint rules"))


def _print_human(result: LintResult) -> None:
    for finding in result.findings:
        print(finding.format())
    counts = result.counts_by_rule
    if counts:
        print()
        rows = [(rule, counts[rule]) for rule in sorted(counts)]
        print(format_table(("rule", "findings"), rows))
    print(f"\nchecked {len(result.files)} files, "
          f"{len(result.findings)} finding(s)")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        _print_rules()
        return 0
    try:
        result = lint_paths(
            args.paths or None,
            select=_split_codes(args.select),
            ignore=_split_codes(args.ignore),
            project_root=args.project_root,
        )
    except UnknownNameError as exc:
        print(f"qugeo-lint: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"qugeo-lint: error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        _print_human(result)
    return 1 if result.findings else 0


if __name__ == "__main__":
    sys.exit(main())
