"""Command-line entry point: coefficient queries and verification suites.

``qdissect verify`` runs the identity catalog, the derivation-chain replays,
and the congruence families (or any selection of them) and emits a
human-readable, JSON, or CSV report.  The exit code is 0 exactly when no
selected, non-skipped check failed; skipped instances and recorded erratum
candidates are listed but do not fail the run.
"""

from __future__ import annotations

import csv
import io
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Optional

import click

from . import congruences, oracle
from .registry import Registry, build_identities, dump_cases, load_cases
from .registry import registry as build_registry
from .congruences import (
    Recur,
    recurrence_consistency_checks,
    required_order,
    verify_family,
)
from .identities import replay, verify

SUITES = ("identities", "chains", "families", "all")


@click.group()
def main() -> None:
    """Truncated q-series verification harness."""


# ---------------------------------------------------------------------------
# coeff
# ---------------------------------------------------------------------------

@main.command("coeff")
@click.argument("l", type=int)
@click.argument("m", type=int)
@click.argument("n", type=int)
@click.option("--mod", "modulus", type=int, default=0,
              help="Report the count modulo this prime (enables the fast path).")
def cmd_coeff(l: int, m: int, n: int, modulus: int) -> None:
    """Print the (L, M)-regular bipartition count at index N."""
    if n < 0:
        raise click.ClickException("index must be >= 0")
    if l < 2 or m < 2:
        raise click.UsageError("regularity indices L and M must be >= 2")
    if modulus and not 2 <= modulus <= oracle.FAST_MOD_CAP:
        raise click.BadParameter(
            f"must be 0 (exact) or in [2, {oracle.FAST_MOD_CAP}]", param_hint="'--mod'"
        )
    if modulus:
        table = oracle.coeff_fast(l, m, n, modulus)
        click.echo(table[n])
        return
    if n > oracle.EXACT_CAP:
        raise click.ClickException(
            f"exact mode is capped at index {oracle.EXACT_CAP}; pass --mod P"
        )
    table = oracle.bipartition_counts(l, m, n)
    click.echo(table[n])


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _mismatch_dict(mismatch) -> Optional[dict]:
    if mismatch is None:
        return None
    return {"exponent": mismatch.exponent, "lhs": mismatch.lhs, "rhs": mismatch.rhs}


def _select(ids, index, kind):
    unknown = [i for i in ids if i not in index]
    if unknown:
        raise click.ClickException(f"unknown {kind} ids: {', '.join(unknown)}")
    return [index[i] for i in ids]


def _run_identities(reg, case_ids, order, jobs) -> list[dict]:
    if case_ids:
        cases = _select(case_ids, {c.id: c for c in reg.cases}, "identity")
    else:
        cases = reg.cases

    def run(case):
        rep = verify(case, order=order)
        status = {"pass": "pass", "mismatch": "fail", "erratum": "erratum"}[rep.status]
        return {
            "id": case.id,
            "kind": "identity",
            "status": status,
            "order": rep.order,
            "modulus": rep.modulus,
            "first_mismatch": _mismatch_dict(rep.first_mismatch),
            "runtime_ms": round(rep.runtime_ms, 1),
            "detail": rep.detail,
        }

    return _run_parallel(run, cases, jobs)


def _run_chains(reg, chain_ids, order, jobs) -> list[dict]:
    if chain_ids:
        chains = _select(chain_ids, {c.id: c for c in reg.chains}, "chain")
    else:
        chains = reg.chains

    def run(chain):
        rep = replay(chain, order=order)
        stages = [
            {
                "stage": st.stage_id,
                "status": "fail" if st.status == "mismatch" else st.status,
                "surviving": st.surviving,
                "justified_by": list(st.justified_by),
                "first_mismatch": _mismatch_dict(st.first_mismatch),
            }
            for st in rep.stages
        ]
        n_errata = sum(1 for st in rep.stages if st.status == "erratum")
        status = "fail" if rep.failures else ("erratum" if n_errata else "pass")
        return {
            "id": chain.id,
            "kind": "chain",
            "status": status,
            "order": chain.base_order if order is None else order,
            "modulus": chain.modulus,
            "stages": stages,
            "runtime_ms": round(rep.runtime_ms, 1),
            "detail": chain.note,
        }

    return _run_parallel(run, chains, jobs)


def _run_parallel(fn, items, jobs) -> list[dict]:
    if jobs and jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(fn, items))
    else:
        results = [fn(item) for item in items]
    return results


def _run_families(family_ids, n_max, include_slow, cache_dir) -> list[dict]:
    catalog = congruences.build_families()
    if family_ids:
        selected = _select(family_ids, {f.id: f for f in catalog}, "family")
    else:
        selected = [f for f in catalog if include_slow or not f.slow]

    needs: dict = {}  # (stream, modulus) -> largest order the batch reads
    for fam in selected:
        for spec, order in required_order(fam, n_max).items():
            key = (spec, fam.modulus)
            needs[key] = max(needs.get(key, 0), order)
    cache = oracle.TableCache(cache_dir)
    rows = []
    for fam in selected:
        src_key = (fam.source, fam.modulus)
        source = cache.get(fam.source, fam.modulus, needs.get(src_key, 0))
        ref_table = None
        if isinstance(fam.relation, Recur) and fam.relation.ref_source is not None:
            rkey = (fam.relation.ref_source, fam.modulus)
            ref_table = cache.get(fam.relation.ref_source, fam.modulus, needs.get(rkey, 0))
        rep = verify_family(fam, source, n_max=n_max, ref_source=ref_table)
        rows.append({
            "id": fam.id,
            "kind": "family",
            "status": "erratum" if rep.status == "fail" and rep.expect == "record"
                      else rep.status,
            "modulus": fam.modulus,
            "n_max": rep.n_max,
            "params_tested": [dict(p) for p in rep.params_tested],
            "violations": [
                {"params": dict(v.params), "n": v.n, "index": v.index,
                 "got": v.got, "expected": v.expected}
                for v in rep.violations[:8]
            ],
            "n_violations": len(rep.violations),
            "skipped": [
                {"params": dict(p), "reason": reason, "smallest_index": idx}
                for p, reason, idx in rep.skipped
            ],
            "source": rep.source_desc,
            "formula": fam.index.formula,
            "max_index": rep.max_index,
            "runtime_ms": round(rep.runtime_ms, 1),
            "detail": fam.note,
        })
    return rows


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
@click.option("--order", type=int, default=None, help="Override truncation order.")
@click.option("--n-max", type=int, default=None, help="Override family n range.")
@click.option("--jobs", type=int, default=1, show_default=True,
              help="Thread count for identity/chain checks.")
@click.option("--format", "fmt", type=click.Choice(["text", "json", "csv"]),
              default="text", show_default=True)
@click.option("--output", type=click.Path(dir_okay=False), default=None,
              help="Write the report to a file as well as stdout.")
@click.option("--registry-file", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Also verify identities from a plain-text registry file.")
@click.option("--slow", is_flag=True, help="Include the multi-minute large-index families.")
@click.option("--cache-dir", default=None,
              help="Directory for cached oracle tables (default: $QDISSECT_CACHE).")
def cmd_verify(suite, case_ids, chain_ids, family_ids, order, n_max, jobs, fmt,
               output, registry_file, slow, cache_dir) -> None:
    """Run verification suites and report the outcome of every check."""
    if order is not None and order <= 0:
        raise click.ClickException("--order must be positive")
    if n_max is not None and n_max < 0:
        raise click.ClickException("--n-max must be >= 0")
    cache_dir = cache_dir or os.environ.get("QDISSECT_CACHE")

    reg = build_registry()
    if registry_file:
        try:
            extra = load_cases(registry_file, taken=[c.id for c in reg.cases])
        except (ValueError, OSError) as exc:
            raise click.BadParameter(f"{registry_file}: {exc}",
                                     param_hint="'--registry-file'") from None
        reg = Registry(reg.cases + extra, reg.chains)

    if case_ids or chain_ids or family_ids:
        run_idents, run_chains, run_fams = bool(case_ids), bool(chain_ids), bool(family_ids)
    else:
        run_idents = suite in ("identities", "all")
        run_chains = suite in ("chains", "all")
        run_fams = suite in ("families", "all")

    rows: list[dict] = []
    if run_idents:
        rows += _run_identities(reg, case_ids, order, jobs)
    if run_chains:
        rows += _run_chains(reg, chain_ids, order, jobs)
    if run_fams:
        rows += _run_families(family_ids, n_max, slow, cache_dir)

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
              help="Destination file (default: stdout).")
def cmd_export_registry(output) -> None:
    """Dump the built-in identity catalog in the plain-text registry format."""
    text = dump_cases(build_identities())
    if output:
        Path(output).write_text(text, encoding="utf-8")
        click.echo(f"wrote {output}")
    else:
        click.echo(text, nl=False)


@main.command("constants")
def cmd_constants() -> None:
    """Print the recurrence-constant checks used by the induction steps."""
    rows = []
    for name, seq in congruences.SEQUENCES.items():
        rows.append(f"{name}: s(k+1) = {seq.alpha} s(k) + {seq.beta} s(k-1), "
                    f"s0={seq.s0}, s1={seq.s1}")
    for label, ok, detail in recurrence_consistency_checks():
        rows.append(f"{label}: {'ok' if ok else 'FAIL'} -- {detail}")
    click.echo("\n".join(rows))


if __name__ == "__main__":  # pragma: no cover
    main()
