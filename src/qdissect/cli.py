"""Command-line entry point: coefficient queries and verification suites.

``qdissect verify`` runs the identity catalog, the derivation-chain replays,
and the congruence families (or any selection of them) and emits a
human-readable, JSON, or CSV report.  The exit code is 0 exactly when no
selected, non-skipped check failed, 1 when one did, and 2 on a usage error;
skipped instances and recorded erratum candidates are listed but do not fail
the run.  Checks run one at a time on the calling thread, in catalog order
or the order given; before the family walk, the oracle tables it reads that
are not in the cache directory are built on up to ``--jobs`` threads.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import Optional

import click

from . import congruences, oracle
from .registry import Registry, catalog_text, parse_registry, registry as build_registry
from .congruences import (FamilyReport, recurrence_consistency_checks, required_order,
                          verify_family)
from .identities import replay, verify
from .series import PrecisionError

SUITES = ("identities", "chains", "families", "all")


def _output_path(ctx, param, value: Optional[str]) -> Optional[str]:
    """``--output`` callback: the file's directory must exist, so a bad path
    is a usage error at parse time and not a traceback after the work."""
    if value is not None and not Path(value).absolute().parent.is_dir():
        raise click.BadParameter(f"directory of {value!r} does not exist")
    return value


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


@click.group()
def main() -> None:
    """Truncated q-series verification harness."""


# ---------------------------------------------------------------------------
# coeff
# ---------------------------------------------------------------------------

@main.command("coeff")
@click.argument("l", type=int)
@click.argument("m", type=int)
@click.argument("n", type=click.IntRange(min=0))
@click.option("--mod", "modulus", type=int, default=None,
              help="Report the count modulo P, any P in [2, 2^26] (enables the fast path).")
def cmd_coeff(l: int, m: int, n: int, modulus: Optional[int]) -> None:
    """Print the (L, M)-regular bipartition count at index N."""
    try:
        source = oracle.SourceSpec((l, m))
    except ValueError as exc:
        raise click.UsageError(str(exc)) from None
    if modulus is not None:
        if n > congruences.DESK_INDEX_CAP:
            raise click.UsageError(
                f"the fast path is capped at index {congruences.DESK_INDEX_CAP}"
            )
        try:  # the fast path refuses a modulus outside its range before any work
            table = oracle.coeff_fast(source, n, modulus)
        except ValueError as exc:
            raise click.BadParameter(str(exc), param_hint="'--mod'") from None
        click.echo(table[n])
        return
    try:
        table = oracle.dp_counts(source, n)
    except ValueError as exc:  # n past the exact-mode cap
        raise click.UsageError(f"{exc}; pass --mod P") from None
    click.echo(table[n])


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _select(ids, entries, option):
    """The entries named by ``ids``, in that order; an unknown or a repeated
    id is a usage error."""
    index = {e.id: e for e in entries}
    for fault, bad in (("unknown", [i for i in ids if i not in index]),
                       ("repeated", [i for i, count in Counter(ids).items() if count > 1])):
        if bad:
            raise click.BadParameter(f"{fault} ids: {', '.join(bad)}",
                                     param_hint=f"'{option}'")
    return [index[i] for i in ids]


def _blamer(user: Registry, registry_file, order):
    """``blame(kind, id)``: a context that turns a failure to evaluate an
    entry into a usage error.  Too few coefficients, or too little memory
    (raised or carried as the cause), under ``--order`` blames that option;
    any failure of an entry read from ``--registry-file`` blames the file.
    Other failures (the built-in catalog's) propagate."""
    user_ids = {"identity": {c.id for c in user.cases},
                "chain": {c.id for c in user.chains},
                "family": {f.id for f in user.families}}

    @contextmanager
    def blame(kind: str, entry_id: str):
        try:
            yield
        except Exception as exc:
            if order is not None and isinstance(exc, PrecisionError):
                raise click.BadParameter(str(exc), param_hint="'--order'") from None
            if order is not None and any(isinstance(e, MemoryError) for e in (exc, exc.__cause__)):
                raise click.BadParameter(f"not enough memory for {kind} {entry_id} "
                                         f"at order {order}", param_hint="'--order'") from None
            if entry_id not in user_ids[kind]:
                raise
            raise click.BadParameter(f"{registry_file}: {exc}",
                                     param_hint="'--registry-file'") from None

    return blame


def _run_families(selected, n_max, cache_dir, blame, jobs) -> list[FamilyReport]:
    orders = []  # per family: stream -> largest index the family reads
    needs: dict = {}  # (stream, modulus) -> largest index the batch reads
    for fam in selected:
        with blame("family", fam.id):
            orders.append(required_order(fam, n_max))
        for spec, order in orders[-1].items():
            key = (spec, fam.modulus)
            needs[key] = max(needs.get(key, 0), order)
    built = oracle.tables(needs, cache_dir, jobs)
    for (spec, p), table in built.items():
        if cache_dir and isinstance(table, OSError):  # of a build, only cache writes raise one
            raise click.BadParameter(f"cannot save {Path(cache_dir) / spec.cache_name(p)}: "
                                     f"{table.strerror or table}", param_hint="'--cache-dir'")
    reports = []
    for fam, streams in zip(selected, orders):
        with blame("family", fam.id):
            tables = {spec: built[spec, fam.modulus] for spec in streams}
            for table in tables.values():
                if isinstance(table, Exception):  # raised under the family's blame
                    raise table
            reports.append(verify_family(fam, tables, n_max))
    return reports


def _summarize(rows: list[dict]) -> dict:
    summary = {"total": len(rows), "pass": 0, "fail": 0, "erratum": 0, "skipped": 0}
    for row in rows:
        summary[row["status"]] += 1
    return summary


def _format_text(report: dict) -> str:
    out = io.StringIO()
    for row in report["cases"]:
        head = f"{row['status'].upper():8s} {row['kind']:9s} {row['id']}"
        extras = []
        if "order" in row:
            extras.append(f"N={row['order']}")
        if row.get("modulus"):
            extras.append(f"mod {row['modulus']}")
        if "n_max" in row:
            extras.append(f"n<={row['n_max']}")
        extras.append(f"{row['runtime_ms']:.0f} ms")
        print(f"{head:42s} {'  '.join(extras)}", file=out)
        if row.get("first_mismatch"):
            mm = row["first_mismatch"]
            print(f"         first mismatch at q^{mm['exponent']}: "
                  f"{mm['lhs']} vs {mm['rhs']}", file=out)
        for st in row.get("stages", []):
            mark = st["status"]
            line = f"         stage {st['stage']:16s} {mark:8s} surviving={st['surviving']}"
            if st.get("justified_by"):
                line += f"  via {','.join(st['justified_by'])}"
            print(line, file=out)
            if st.get("first_mismatch"):
                mm = st["first_mismatch"]
                print(f"             mismatch at q^{mm['exponent']}: "
                      f"{mm['lhs']} vs {mm['rhs']}", file=out)
        for sk in row.get("skipped", []):
            print(f"         skipped {sk['params']}: {sk['reason']} "
                  f"(smallest index {sk['smallest_index']})", file=out)
        for v in row.get("violations", []):
            print(f"         violation {v['params']} n={v['n']} index={v['index']}: "
                  f"got {v['got']}, expected {v['expected']}", file=out)
        hidden = row.get("n_violations", 0) - len(row.get("violations", []))
        if hidden:
            print(f"         … {hidden} more violations ({row['n_violations']} in all)",
                  file=out)
    s = report["summary"]
    print(f"summary: {s['total']} checks -- {s['pass']} pass, {s['fail']} fail, "
          f"{s['erratum']} erratum, {s['skipped']} skipped", file=out)
    return out.getvalue()


def _format_csv(report: dict) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["id", "kind", "status", "modulus", "runtime_ms", "detail"])
    for row in report["cases"]:
        writer.writerow([
            row["id"], row["kind"], row["status"], row.get("modulus", ""),
            row["runtime_ms"], row.get("detail", ""),
        ])
    return out.getvalue()


@main.command("verify")
@click.option("--suite", type=click.Choice(SUITES), default="all", show_default=True)
@click.option("--case", "case_ids", multiple=True, help="Identity id to run (repeatable).")
@click.option("--chain", "chain_ids", multiple=True, help="Chain id to run (repeatable).")
@click.option("--family", "family_ids", multiple=True, help="Family id to run (repeatable).")
@click.option("--order", type=click.IntRange(min=1), default=None,
              help="Override truncation order.")
@click.option("--n-max", type=click.IntRange(min=0), default=None,
              help="Check n = 0..N in every selected family, in place of each "
                   "family's own range: --suite families --n-max 100 makes s10 "
                   "and s11 read a 26.4M-entry table (about 23 s and 0.5 GB).")
@click.option("--jobs", type=click.IntRange(min=1), default=_usable_cpus,
              show_default="the usable CPU count",
              help="Threads that build the oracle tables of a family batch.")
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]),
              default="text", show_default=True)
@click.option("--output", type=click.Path(dir_okay=False), default=None,
              callback=_output_path,
              help="Write the report to a file as well as stdout.")
@click.option("--registry-file", type=click.Path(exists=True, dir_okay=False),
              default=None,
              help="Also verify the identities, chains and families of a registry text file.")
@click.option("--slow", is_flag=True,
              help="Include the large-index families (about 21 s and 0.46 GB uncached).")
@click.option("--cache-dir", default=None, envvar="QDISSECT_CACHE", show_envvar=True,
              help="Directory for cached oracle tables.")
def cmd_verify(suite, case_ids, chain_ids, family_ids, order, n_max, jobs, fmt,
               output, registry_file, slow, cache_dir) -> None:
    """Run verification suites and report the outcome of every check."""
    reg, user = build_registry(), Registry()
    if registry_file:
        try:
            text = Path(registry_file).read_text(encoding="utf-8")
            user = parse_registry(text, taken=reg)
        except (ValueError, OSError) as exc:
            raise click.BadParameter(f"{registry_file}: {exc}",
                                     param_hint="'--registry-file'") from None
        reg = Registry(*(built_in + read for built_in, read in zip(reg, user)))
    blame = _blamer(user, registry_file, order)

    # an unknown id or a bad cache directory is a usage error before any check runs
    if case_ids or chain_ids or family_ids:
        cases = _select(case_ids, reg.cases, "--case")
        chains = _select(chain_ids, reg.chains, "--chain")
        families = _select(family_ids, reg.families, "--family")
    else:
        cases = reg.cases if suite in ("identities", "all") else []
        chains = reg.chains if suite in ("chains", "all") else []
        families = ([f for f in reg.families if slow or not f.slow]
                    if suite in ("families", "all") else [])
    if families and cache_dir:
        try:
            Path(cache_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise click.BadParameter(str(exc), param_hint="'--cache-dir'") from None

    reports = []
    for case in cases:
        with blame("identity", case.id):
            reports.append(verify(case, order=order))
    for chain in chains:
        with blame("chain", chain.id):
            reports.append(replay(chain, order=order))
    if families:
        reports += _run_families(families, n_max, cache_dir, blame, jobs)
    rows = [asdict(r) for r in reports]

    report = {"suite": suite, "cases": rows, "summary": _summarize(rows)}
    if fmt == "json":
        text = json.dumps(report, indent=2)
    elif fmt == "csv":
        text = _format_csv(report)
    else:
        text = _format_text(report)
    click.echo(text, nl=False)
    if output:
        Path(output).write_text(text if text.endswith("\n") else text + "\n",
                                encoding="utf-8")
    sys.exit(0 if report["summary"]["fail"] == 0 else 1)


@main.command("export-registry")
@click.option("--output", type=click.Path(dir_okay=False), default=None,
              callback=_output_path, help="Destination file (default: stdout).")
def cmd_export_registry(output) -> None:
    """Write the shipped catalog file (identities, chains, families) as it is."""
    text = catalog_text()
    if output:
        Path(output).write_text(text, encoding="utf-8")
        click.echo(f"wrote {output}")
    else:
        click.echo(text, nl=False)


@main.command("constants")
def cmd_constants() -> None:
    """Print the induction steps' recurrence-constant checks; exit 1 if one fails."""
    rows = []
    for name, seq in congruences.SEQUENCES.items():
        rows.append(f"{name}: s(k+1) = {seq.alpha} s(k) + {seq.beta} s(k-1), "
                    f"s0={seq.s0}, s1={seq.s1}")
    checks = recurrence_consistency_checks()
    for label, ok, detail in checks:
        rows.append(f"{label}: {'ok' if ok else 'FAIL'} -- {detail}")
    click.echo("\n".join(rows))
    sys.exit(0 if all(ok for _, ok, _ in checks) else 1)


if __name__ == "__main__":  # pragma: no cover
    main()
