"""Command-line front end.

Subcommands:
  expand   render the Schur expansion of a module or family at degree n
  verify   run identity-catalog entries and write one result per line once all have run
  table    render a decomposition table column/block

Exit codes: 0 success (no FAIL), 1 verification failure, 2 usage error.
Output is byte-identical across runs for identical (command, configuration).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .characters import TABLE_CAP, SchurExpansion, to_schur
from .errors import SymconError
from .partitions import pretty
from .repmodels import MODULE_IDS, in_run, module_char, parse_module
from .verify import DEFAULT_MAX_N, TABLES, run_selector, table_decomposition

ENV_MAX_N = "SYMCON_MAX_N"


def _resolve_max_n(args) -> int:
    """The run's degree cap: --max-n, else SYMCON_MAX_N, else DEFAULT_MAX_N; at
    most TABLE_CAP, unless SYMCON_MAX_N raises that."""
    cap, default = TABLE_CAP, DEFAULT_MAX_N
    env = os.environ.get(ENV_MAX_N)
    if env is not None:
        try:
            default = int(env)
        except ValueError:
            raise SymconError(f"{ENV_MAX_N} must be an integer, got {env!r}")
        if default < 1:
            raise SymconError(f"{ENV_MAX_N} must be >= 1, got {default}")
        if default > TABLE_CAP:
            print(
                f"warning: {ENV_MAX_N}={default} exceeds the supported cap "
                f"{TABLE_CAP}; degrees above it are unsupported",
                file=sys.stderr,
            )
            cap = default
    max_n = default if args.max_n is None else args.max_n
    if max_n < 1:
        raise SymconError("--max-n must be >= 1")
    if max_n > cap:
        raise SymconError(
            f"--max-n {max_n} exceeds the cap {cap} (raise {ENV_MAX_N} to override)"
        )
    return max_n


def _emit(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise SymconError(f"cannot write --out {out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _csv_text(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _expansion_rows(se: SchurExpansion):
    return se.to_json_dict()["mults"].items()


def cmd_expand(args) -> int:
    max_n = _resolve_max_n(args)
    with in_run({}):  # the module is parsed once: an explicit family's file is read once
        mid = parse_module(args.target)  # a bad module is refused before a bad n
        if args.n > max_n:
            raise SymconError(f"n={args.n} exceeds max_n={max_n}")
        se = to_schur(module_char(mid, args.n), args.n, max_n=max_n)
    if args.format == "json":
        _emit(json.dumps(se.to_json_dict()) + "\n", args.out)
    elif args.format == "csv":
        _emit(_csv_text(_expansion_rows(se)), args.out)
    else:
        _emit(se.pretty() + "\n" + f"verdict: {se.verdict}\n", args.out)
    return 0


def cmd_verify(args) -> int:
    max_n = _resolve_max_n(args)
    lines = []
    n_fail = n_pass = n_report = 0
    for res in run_selector(args.selector, max_n=max_n):
        if res.status == "FAIL":
            n_fail += 1
        elif res.status == "REPORT":
            n_report += 1
        else:
            n_pass += 1
        if args.format == "json":
            lines.append(json.dumps(res.to_json_dict()))
        elif args.format == "csv":
            lines.append(
                _csv_text(
                    [[res.id, res.n, res.status,
                      json.dumps(res.detail) if res.detail else ""]]
                ).rstrip("\n")
            )
        else:
            extra = f"  {json.dumps(res.detail)}" if (
                res.detail and res.status != "PASS"
            ) else ""
            lines.append(f"{res.status} {res.id} n={res.n}{extra}")
    if args.format == "pretty":
        lines.append(f"checks: {n_pass} pass, {n_fail} fail, {n_report} report")
    _emit("\n".join(lines) + "\n", args.out)
    return 1 if n_fail else 0


def cmd_table(args) -> int:
    max_n = _resolve_max_n(args)
    if not 1 <= args.n <= max_n:
        raise SymconError(f"table degree n={args.n} out of range 1..{max_n}")
    blocks = table_decomposition(args.kind, args.n, max_n)
    if args.format == "json":
        payload = {
            "kind": args.kind,
            "n": args.n,
            "blocks": {name: se.to_json_dict() for name, se in blocks.items()},
        }
        _emit(json.dumps(payload) + "\n", args.out)
        return 0
    if args.format == "csv":
        rows = []
        for name, se in blocks.items():
            for part, mult in _expansion_rows(se):
                rows.append([part, mult] if len(blocks) == 1 else [name, part, mult])
        _emit(_csv_text(rows), args.out)
        return 0
    indent = "  " if len(blocks) > 1 else ""
    chunks = []
    for name, se in blocks.items():
        if indent:
            chunks.append(f"{name}:")
        chunks += (f"{indent}{pretty(nu)}  {m}" for nu, m in se.terms())
    _emit("\n".join(chunks) + "\n", args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symcon",
        description=(
            "Exact Schur expansions and batch verification for conjugacy-type "
            "characteristics of the symmetric group."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--max-n", type=int, default=None, dest="max_n",
                       help=f"degree cap (default {DEFAULT_MAX_N}, hard cap {TABLE_CAP})")
        p.add_argument("--format", choices=("pretty", "json", "csv"),
                       default="pretty")
        p.add_argument("--out", default=None, help="write output to a file")

    p_exp = sub.add_parser("expand", help="Schur expansion of a module or family")
    p_exp.add_argument("target", help=", ".join(MODULE_IDS) + ", w:<k>, or family:<spec>")
    p_exp.add_argument("n", type=int)
    common(p_exp)
    p_exp.set_defaults(func=cmd_expand)

    p_ver = sub.add_parser("verify", help="run identity-catalog entries")
    p_ver.add_argument("selector", help=(
        "'all', a group (thm4.2, thm1.1, tables, strict, dims, routes, "
        "oracles, lemmas, counterexamples, conjecture, coverage, "
        "identities, ...) or an exact id (thm4.2.6, thm5.9.5:k2, ...)"))
    common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_tab = sub.add_parser("table", help="render a decomposition table column")
    p_tab.add_argument("kind", choices=tuple(TABLES))
    p_tab.add_argument("n", type=int)
    common(p_tab)
    p_tab.set_defaults(func=cmd_table)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SymconError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
