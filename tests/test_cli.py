"""CLI contract: commands, report formats, exit codes, round-trips."""

from __future__ import annotations

import json
import os
import threading
from dataclasses import asdict

import pytest
from click.testing import CliRunner

from qdissect import cli, congruences, oracle
from qdissect.cli import main
from qdissect.identities import replay, verify
from qdissect.registry import registry


@pytest.fixture
def runner():
    return CliRunner()


class TestCoeff:
    def test_trivial(self, runner):
        result = runner.invoke(main, ["coeff", "3", "7", "0"])
        assert result.exit_code == 0
        assert result.output.strip() == "1"

    def test_exact_small(self, runner):
        result = runner.invoke(main, ["coeff", "3", "7", "2"])
        assert result.output.strip() == "5"

    def test_modular(self, runner):
        result = runner.invoke(main, ["coeff", "3", "7", "5", "--mod", "7"])
        assert result.output.strip() == "3"

    def test_exact_cap_error(self, runner):
        result = runner.invoke(main, ["coeff", "3", "7", "50000"])
        assert result.exit_code == 2, result.output
        assert "exact mode is capped at index 20000; pass --mod P" in result.output

    @pytest.mark.parametrize("args", [
        ["1", "7", "10"], ["1", "7", "10", "--mod", "7"],
        ["3", "0", "10"], ["3", "0", "10", "--mod", "7"],
    ])
    def test_regularity_index_below_two_rejected(self, runner, args):
        result = runner.invoke(main, ["coeff"] + args)
        assert result.exit_code == 2, result.output
        assert "L, M >= 2" in result.output

    @pytest.mark.parametrize("modulus", ["0", "1", "-5", str(2**26 + 1), str(2**40)])
    def test_bad_modulus_rejected(self, runner, modulus):
        result = runner.invoke(main, ["coeff", "3", "7", "10", "--mod", modulus])
        assert result.exit_code == 2, result.output
        assert "'--mod'" in result.output

    def test_largest_modulus_accepted(self, runner):
        result = runner.invoke(main, ["coeff", "3", "7", "5", "--mod", str(2**26)])
        assert result.exit_code == 0, result.output
        assert result.output.strip() == "31"

    @pytest.mark.parametrize("mod", [[], ["--mod", "7"]])
    def test_negative_index_rejected(self, runner, mod):
        # without "--", click reads -1 as an unknown option
        result = runner.invoke(main, ["coeff", "3", "7"] + mod + ["--", "-1"])
        assert result.exit_code == 2, result.output
        assert "'N'" in result.output

    def test_modular_index_capped_before_any_table(self, runner, monkeypatch):
        built = []

        def fake_coeff_fast(source, n_max, p):
            built.append(n_max)
            return {n_max: 0}

        monkeypatch.setattr(oracle, "coeff_fast", fake_coeff_fast)
        cap = congruences.DESK_INDEX_CAP
        result = runner.invoke(main, ["coeff", "3", "7", str(cap + 1), "--mod", "7"])
        assert result.exit_code == 2, result.output
        assert "capped at index" in result.output
        assert built == []
        result = runner.invoke(main, ["coeff", "3", "7", str(cap), "--mod", "7"])
        assert result.exit_code == 0, result.output
        assert built == [cap]


class TestVerifyIdentities:
    def test_single_case(self, runner):
        result = runner.invoke(main, ["verify", "--case", "kp2"])
        assert result.exit_code == 0
        assert "PASS" in result.output

    def test_full_identity_suite_passes(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "identities"])
        assert result.exit_code == 0
        assert "0 fail" in result.output
        n_cases = sum(1 for l in result.output.splitlines() if " identity " in l)
        assert n_cases >= 14

    def test_unknown_suite_rejected(self, runner):
        result = runner.invoke(main, ["verify", "--suite", "nonsense"])
        assert result.exit_code != 0

    def test_bad_order_rejected(self, runner):
        result = runner.invoke(main, ["verify", "--order", "0", "--case", "0.2"])
        assert result.exit_code != 0

    @pytest.mark.parametrize("selector", [["--case", "2a"], ["--chain", "s3"],
                                          ["--case", "k1@7"], ["--case", "phi-eta"]])
    def test_order_beyond_memory_is_usage_error(self, runner, selector):
        # an array of 10^12 + 1 coefficients fails to allocate at once, without
        # touching memory (k1@7 is a case mod 7; phi-eta's phi must not list
        # its factors before the array exists)
        result = runner.invoke(main, ["verify", *selector, "--order", "1000000000000"])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "Invalid value for '--order'" in result.output
        assert "1000000000000" in result.output
        assert "Traceback" not in result.output

    def test_jobs_output_deterministic(self, runner):
        seq = runner.invoke(main, ["verify", "--suite", "identities", "--jobs", "1"])
        par = runner.invoke(main, ["verify", "--suite", "identities", "--jobs", "4"])
        strip = lambda text: "\n".join(
            line.split("  ")[0] for line in text.splitlines()
        )
        assert strip(seq.output) == strip(par.output)

    @pytest.mark.parametrize("suite, jobs", [("chains", "2"), ("identities", "4")])
    def test_checks_run_on_calling_thread(self, runner, monkeypatch, suite, jobs):
        threads = []

        def on_thread(fn):
            def wrapped(*args, **kwargs):
                threads.append(threading.get_ident())
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(cli, "verify", on_thread(cli.verify))
        monkeypatch.setattr(cli, "replay", on_thread(cli.replay))
        result = runner.invoke(main, ["verify", "--suite", suite, "--jobs", jobs])
        assert result.exit_code == 0, result.output
        assert threads and set(threads) == {threading.get_ident()}


# one family for each of the eight streams that `verify --suite families`
# reads; at --n-max 10 no table is longer than 6,666 entries (the whole suite
# at --n-max 100 reads a 26.4M-entry 17-regular table for s10 and s11)
EIGHT_STREAMS = ["w.11", "0a1", "1.x", "2.x", "7.22", "dou", "x1"]


def _family_args(*extra):
    return ["verify", *(a for fam in EIGHT_STREAMS for a in ("--family", fam)),
            "--n-max", "10", *extra]


def _rows_without_runtime(output):
    rows = json.loads(output)["cases"]
    for row in rows:
        del row["runtime_ms"]
    return rows


class TestJobs:
    """--jobs sets the threads that build a family batch's tables; the
    report, the cache files and the failures do not depend on it."""

    def test_rows_and_cache_files_equal_at_one_and_two_jobs(self, runner, tmp_path):
        rows, files = {}, {}
        for jobs in ("1", "2"):
            cache = tmp_path / f"jobs{jobs}"
            result = runner.invoke(main, _family_args("--jobs", jobs, "--format", "json",
                                                      "--cache-dir", str(cache)))
            assert result.exit_code == 0, result.output
            rows[jobs] = _rows_without_runtime(result.output)
            files[jobs] = {path.name: path.read_bytes() for path in cache.iterdir()}
        assert rows["1"] == rows["2"]
        assert [r["id"] for r in rows["1"]] == EIGHT_STREAMS
        assert files["1"] == files["2"] and len(files["1"]) == 8

    @pytest.mark.parametrize("user", [False, True], ids=["catalog", "registry-file"])
    def test_a_failed_build_ends_the_run_alike_at_any_jobs(self, runner, monkeypatch,
                                                           tmp_path, user):
        # the (5,11) build fails: the families before 1.x are verified, and the
        # failure surfaces at 1.x, under the same blame, at --jobs 1 and 2
        real = oracle._build_group

        def flaky(streams, den):
            if any(spec == oracle.SourceSpec("bipartite", 5, 11) for spec, _, _ in streams):
                raise ArithmeticError("boom")
            return real(streams, den)

        monkeypatch.setattr(oracle, "_build_group", flaky)
        args = _family_args()
        if user:
            line = next(l for l in cli.catalog_text().splitlines()
                        if l.startswith("family 1.x|"))
            registry_file = tmp_path / "user.txt"
            registry_file.write_text(line.replace("family 1.x|", "family my-1.x|") + "\n")
            args = [a.replace("1.x", "my-1.x") for a in args]
            args += ["--registry-file", str(registry_file)]
        outcomes = []
        for jobs in ("1", "2"):
            verified = []
            monkeypatch.setattr(cli, "verify_family", self._recording(verified))
            result = runner.invoke(main, args + ["--jobs", jobs])
            outcomes.append((result.exit_code, result.output,
                             type(result.exception), str(result.exception), verified))
        assert outcomes[0] == outcomes[1]
        exit_code, output, _, message, verified = outcomes[0]
        assert verified == ["w.11", "0a1"]
        if user:
            assert exit_code == 2 and "'--registry-file'" in output
            assert f"{registry_file}: boom" in output
        else:
            assert exit_code == 1 and message == "boom"

    @staticmethod
    def _recording(verified):
        real = congruences.verify_family

        def wrapped(fam, *args, **kwargs):
            verified.append(fam.id)
            return real(fam, *args, **kwargs)

        return wrapped

    def test_families_are_verified_on_the_calling_thread(self, runner, monkeypatch):
        checks, builds = [], []

        def on_thread(fn, seen):
            def wrapped(*args, **kwargs):
                seen.append(threading.get_ident())
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(cli, "verify_family", on_thread(cli.verify_family, checks))
        monkeypatch.setattr(oracle, "_build_group", on_thread(oracle._build_group, builds))
        result = runner.invoke(main, _family_args("--jobs", "2"))
        assert result.exit_code == 0, result.output
        assert len(checks) == len(EIGHT_STREAMS)
        assert set(checks) == {threading.get_ident()}
        assert builds and threading.get_ident() not in builds  # built on the pool

    def test_default_is_the_usable_cpu_count(self, runner, monkeypatch):
        seen, real = [], oracle.tables
        monkeypatch.setattr(oracle, "tables", lambda needs, cache_dir, jobs:
                            seen.append(jobs) or real(needs, cache_dir, jobs))
        result = runner.invoke(main, ["verify", "--family", "w.11", "--n-max", "5"])
        assert result.exit_code == 0, result.output
        assert seen == [len(os.sched_getaffinity(0))]


class TestUsageErrors:
    """A bad argument exits 2, never 1 (the code for a failed check)."""

    @pytest.mark.parametrize("args", [
        ["--case", "nope"], ["--chain", "nope"], ["--family", "nope"],
        ["--order", "0"], ["--n-max", "-1"], ["--case", "kp2", "--jobs", "0"],
        ["--case", "2a", "--case", "2a"], ["--family", "w.11", "--family", "w.11"],
    ], ids=" ".join)
    def test_exit_code_is_2(self, runner, args):
        result = runner.invoke(main, ["verify"] + args)
        assert result.exit_code == 2, result.output
        assert f"'{args[-2]}'" in result.output  # the option at fault is named

    def test_repeated_id_is_named_before_any_check(self, runner):
        # a repeated id would run its check twice
        result = runner.invoke(main, ["verify", "--case", "kp2", "--chain", "s8",
                                      "--chain", "s3", "--chain", "s8"])
        assert result.exit_code == 2, result.output
        assert "'--chain'" in result.output and "repeated ids: s8" in result.output
        assert "summary" not in result.output

    @pytest.mark.parametrize("under_file", [False, True])
    def test_cache_dir_that_is_a_file(self, runner, tmp_path, under_file):
        plain = tmp_path / "plain"
        plain.write_text("not a directory\n")
        cache = plain / "sub" if under_file else plain
        result = runner.invoke(main, ["verify", "--case", "kp2", "--family", "w.11",
                                      "--n-max", "10", "--cache-dir", str(cache)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "'--cache-dir'" in result.output
        assert "kp2" not in result.output  # no check ran

    @pytest.mark.parametrize("user", [False, True], ids=["catalog", "registry-file"])
    def test_cache_file_that_cannot_be_saved(self, runner, tmp_path, user):
        # a directory at the stream's file name: the table is built, its save
        # fails, and the cache directory is blamed, not the registry file
        name = oracle.SourceSpec("bipartite", 3, 7).cache_name(7)
        (tmp_path / name).mkdir()
        family, args = "w.11", []
        if user:
            line = next(l for l in cli.catalog_text().splitlines()
                        if l.startswith("family w.11|"))
            registry_file = tmp_path / "user.txt"
            registry_file.write_text(line.replace("family w.11|", "family my-w.11|") + "\n")
            family, args = "my-w.11", ["--registry-file", str(registry_file)]
        result = runner.invoke(main, ["verify", "--family", family, "--n-max", "10",
                                      "--cache-dir", str(tmp_path)] + args)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "'--cache-dir'" in result.output
        assert f"cannot save {tmp_path / name}: Is a directory" in result.output


class TestVerifyChains:
    def test_stage_by_stage_report(self, runner):
        result = runner.invoke(main, ["verify", "--chain", "s8"])
        assert result.exit_code == 0
        for stage in ("5.2", "5.3", "5.4", "5.5", "5.6", "5.7", "5.7-mod11"):
            assert f"stage {stage}" in result.output

    def test_order_too_small_is_usage_error(self, runner):
        result = runner.invoke(main, ["verify", "--chain", "s3", "--order", "40"])
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "'--order'" in result.output
        assert "[chain s3] stage w.4: only 20 coefficients survive" in result.output

    def test_erratum_does_not_fail_run(self, runner):
        result = runner.invoke(main, ["verify", "--chain", "s7cor.odd"])
        assert result.exit_code == 0
        assert "erratum" in result.output.lower()
        assert "mismatch at q^2" in result.output


class TestVerifyFamilies:
    def test_single_family(self, runner):
        result = runner.invoke(
            main, ["verify", "--family", "x1", "--n-max", "100"]
        )
        assert result.exit_code == 0
        assert "PASS" in result.output

    def test_unknown_family(self, runner):
        result = runner.invoke(main, ["verify", "--family", "nope"])
        assert result.exit_code != 0

    def test_unknown_case_and_chain(self, runner):
        for flag in ("--case", "--chain"):
            result = runner.invoke(main, ["verify", flag, "nope"])
            assert result.exit_code != 0
            assert "unknown" in result.output

    @pytest.mark.parametrize("flag", ["--family", "--chain"])
    def test_unknown_id_stops_before_any_check(self, runner, monkeypatch, flag):
        calls = []

        def record(fn):
            def wrapped(entry, *args, **kwargs):
                calls.append(entry.id)
                return fn(entry, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(cli, "verify", record(cli.verify))
        monkeypatch.setattr(cli, "replay", record(cli.replay))
        result = runner.invoke(main, ["verify", "--case", "0.2", flag, "nope"])
        assert result.exit_code == 2, result.output
        assert f"'{flag}'" in result.output and "unknown ids: nope" in result.output
        assert calls == []

    def test_skip_is_listed_not_failed(self, runner):
        result = runner.invoke(
            main, ["verify", "--family", "thm12", "--n-max", "50"]
        )
        assert result.exit_code == 0
        assert "skipped" in result.output
        assert "desk scale" in result.output

    def test_cache_dir_round_trip(self, runner, tmp_path):
        args = ["verify", "--family", "s8", "--n-max", "40",
                "--cache-dir", str(tmp_path)]
        first = runner.invoke(main, args)
        assert first.exit_code == 0
        cached = list(tmp_path.glob("*.qdct"))
        assert cached
        second = runner.invoke(main, args)
        assert second.exit_code == 0 and "PASS" in second.output

    def test_cache_dir_from_environment(self, runner, tmp_path):
        env, flag = tmp_path / "env", tmp_path / "flag"
        args = ["verify", "--family", "w.11", "--n-max", "10"]
        result = runner.invoke(main, args, env={"QDISSECT_CACHE": str(env)})
        assert result.exit_code == 0, result.output
        assert [p.name for p in env.iterdir()] == ["bipartite-3-7-m7.qdct"]
        # --cache-dir wins over the variable
        result = runner.invoke(main, args + ["--cache-dir", str(flag)],
                               env={"QDISSECT_CACHE": str(tmp_path / "unused")})
        assert result.exit_code == 0, result.output
        assert [p.name for p in flag.iterdir()] == ["bipartite-3-7-m7.qdct"]
        assert not (tmp_path / "unused").exists()

    def test_cache_ignores_file_for_another_stream(self, runner, tmp_path):
        # a (3,11) mod 11 table saved under the name of the (3,7) mod 7 stream
        name = oracle.SourceSpec("bipartite", 3, 7).cache_name(7)
        oracle.coeff_fast(oracle.SourceSpec("bipartite", 3, 11), 2000, 11).save(tmp_path / name)
        args = ["verify", "--family", "w.11", "--n-max", "100", "--cache-dir", str(tmp_path)]
        result = runner.invoke(main, args)
        assert result.exit_code == 0 and "PASS" in result.output
        assert "violation" not in result.output
        # the right table was built and saved over the mislabelled file
        right = oracle.CountTable.load(tmp_path / name)
        assert (right.source, right.n_max, right.modulus) == (
            oracle.SourceSpec("bipartite", 3, 7), 1605, 7)
        assert [path.name for path in tmp_path.iterdir()] == [name]

    def test_family_with_every_instance_skipped_reads_no_table(self, runner, tmp_path):
        cache = tmp_path / "cache"
        result = runner.invoke(main, ["verify", "--family", "thm13", "--format", "json",
                                      "--cache-dir", str(cache)])
        assert result.exit_code == 0, result.output
        (row,) = json.loads(result.output)["cases"]
        assert row["status"] == "skipped"
        assert row["source"] == "B_{5,11}: no table read"
        assert list(cache.iterdir()) == []

    def test_a_row_does_not_depend_on_the_other_families_of_the_run(self, runner):
        # ak1 reads the (3,7) table much further than w.11, and s8 the (81,17)
        # table further than 7.22; thm13 reads no table
        batch = ["w.11", "ak1", "7.22", "s8", "thm13"]
        result = runner.invoke(main, ["verify", *(a for f in batch for a in ("--family", f)),
                                      "--n-max", "10", "--format", "json"])
        assert result.exit_code == 0, result.output
        together = {row["id"]: row for row in _rows_without_runtime(result.output)}
        for fam in ("w.11", "7.22", "thm13"):
            result = runner.invoke(main, ["verify", "--family", fam, "--n-max", "10",
                                          "--format", "json"])
            assert result.exit_code == 0, result.output
            assert _rows_without_runtime(result.output) == [together[fam]]
        assert together["w.11"]["source"] == "B_{3,7} mod 7"
        assert together["thm13"]["source"] == "B_{5,11}: no table read"

    def test_json_rows_carry_formula_and_max_index(self, runner):
        result = runner.invoke(
            main, ["verify", "--family", "ak1", "--family", "thm12",
                   "--n-max", "10", "--format", "json"]
        )
        assert result.exit_code == 0
        ak1, thm12 = json.loads(result.output)["cases"]
        assert ak1["formula"] == "4 ** (7 * m) * n + (4 ** (7 * m) - 1) / 3"
        assert ak1["max_index"] == 4**7 * 10 + 5461
        assert thm12["params_tested"] == [{"m": 0, "k": 0}]
        assert thm12["max_index"] == 10


IDENTITY_KEYS = ["id", "kind", "status", "order", "modulus", "first_mismatch",
                 "runtime_ms", "detail"]
CHAIN_KEYS = ["id", "kind", "status", "order", "modulus", "stages", "runtime_ms", "detail"]
STAGE_KEYS = ["stage", "status", "surviving", "justified_by", "first_mismatch"]
FAMILY_KEYS = ["id", "kind", "status", "modulus", "n_max", "params_tested", "violations",
               "n_violations", "skipped", "source", "formula", "max_index", "runtime_ms",
               "detail"]


class TestReportFormats:
    def test_json_schema_and_round_trip(self, runner, tmp_path):
        # a stage mismatch (s7cor.odd), violations (s13-m0-probe), a skip (thm12)
        out = tmp_path / "report.json"
        result = runner.invoke(
            main,
            ["verify", "--case", "0.2", "--case", "7.3", "--chain", "s7cor.odd",
             "--family", "s13-m0-probe", "--family", "thm12",
             "--format", "json", "--output", str(out)],
        )
        assert result.exit_code == 0
        report = json.loads(out.read_text())
        assert list(report) == ["suite", "cases", "summary"]
        case, _, chain, probe, thm12 = report["cases"]
        assert list(case) == IDENTITY_KEYS
        assert list(chain) == CHAIN_KEYS
        (stage,) = chain["stages"]
        assert list(stage) == STAGE_KEYS
        assert list(stage["first_mismatch"]) == ["exponent", "lhs", "rhs"]
        assert list(probe) == list(thm12) == FAMILY_KEYS
        assert (len(probe["violations"]), probe["n_violations"]) == (8, 11)
        assert list(probe["violations"][0]) == ["params", "n", "index", "got", "expected"]
        assert list(probe["violations"][0]["params"]) == ["m", "k"]
        (skip,) = thm12["skipped"]
        assert list(skip) == ["params", "reason", "smallest_index"]
        # a row is the library's report, field for field
        reg = registry()
        reports = [verify(next(c for c in reg.cases if c.id == "0.2")),
                   replay(next(c for c in reg.chains if c.id == "s7cor.odd"))]
        for rep, row in zip(reports, (case, chain)):
            # through JSON, which writes a tuple as a list
            rep = json.loads(json.dumps(asdict(rep)))
            assert {**rep, "runtime_ms": row["runtime_ms"]} == row
        # re-summarizing the parsed cases reproduces the summary
        resummed = {"total": len(report["cases"]), "pass": 0, "fail": 0,
                    "erratum": 0, "skipped": 0}
        for row in report["cases"]:
            resummed[row["status"]] += 1
        assert resummed == report["summary"]

    def test_text_counts_the_violations_it_does_not_list(self, runner):
        result = runner.invoke(main, ["verify", "--family", "s13-m0-probe"])
        assert result.exit_code == 0, result.output
        lines = result.output.splitlines()
        shown = [i for i, line in enumerate(lines) if line.lstrip().startswith("violation ")]
        assert len(shown) == 8
        assert lines[shown[-1] + 1].strip() == "… 3 more violations (11 in all)"

    def test_output_in_missing_directory_is_usage_error(self, runner, tmp_path):
        out = tmp_path / "missing" / "report.json"
        result = runner.invoke(
            main, ["verify", "--case", "0.2", "--format", "json", "--output", str(out)]
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "'--output'" in result.output and "does not exist" in result.output
        # rejected before any check ran: no report was printed
        assert '"cases"' not in result.output
        assert not out.parent.exists()

    def test_csv_format(self, runner):
        result = runner.invoke(
            main, ["verify", "--case", "0.2", "--format", "csv"]
        )
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert lines[0].startswith("id,kind,status")
        assert lines[1].startswith("0.2,identity,pass")

    def test_exit_code_nonzero_on_failure(self, runner, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("broken|exact|40|(eta 1)|(eta 2)\n")
        result = runner.invoke(
            main,
            ["verify", "--suite", "identities", "--case", "broken",
             "--registry-file", str(bad)],
        )
        assert result.exit_code == 1
        assert "FAIL" in result.output


class TestRegistryFile:
    def test_export_then_reverify(self, runner, tmp_path):
        out = tmp_path / "registry.txt"
        result = runner.invoke(main, ["export-registry", "--output", str(out)])
        assert result.exit_code == 0
        text = out.read_text()
        assert "kp2|exact|500|" in text
        # feed two exported lines back in as a user registry
        lines = [l for l in text.splitlines() if l.startswith(("0.2|", "k1@7|"))]
        user = tmp_path / "user.txt"
        user.write_text("\n".join(lines) + "\n")
        # ids collide with builtins, so relabel
        user.write_text(
            "\n".join(l.replace(l.split("|")[0], "user-" + l.split("|")[0], 1)
                      for l in lines) + "\n"
        )
        rerun = runner.invoke(
            main,
            ["verify", "--case", "user-0.2", "--case", "user-k1@7",
             "--registry-file", str(user)],
        )
        assert rerun.exit_code == 0
        assert "user-0.2" in rerun.output

    def test_export_to_missing_directory_is_usage_error(self, runner, tmp_path):
        out = tmp_path / "missing" / "registry.txt"
        result = runner.invoke(main, ["export-registry", "--output", str(out)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "'--output'" in result.output and "does not exist" in result.output
        assert not out.parent.exists()

    @pytest.mark.parametrize(
        "text,where",
        [("a|exact|40|(mul (eta 1)|(eta 1)\n", "line 1"),
         ("a|exact|40|(sum (1 (eta 1))|(eta 1)\n", "line 1"),
         ("# user cases\na|mod1|40|(eta 1)|(eta 1)\n", "line 2"),
         ("a|mod0|40|(eta 1)|(eta 1)\n", "line 1"),
         ("a|modx|40|(eta 1)|(eta 1)\n", "line 1"),
         ("a|exact|40|(eta 1)\n", "line 1"),
         ("ok|exact|40|(eta 1)|(eta 1)\n0.2|exact|40|(eta 1)|(eta 1)\n", "line 2"),
         # chains that check nothing, or cite what is not there
         ("# no stage\nchain c|exact|64|(eta 1)\n", "line 2"),
         ("chain c|exact|64|(eta 1)\n  sub no-such-identity\n  assert st (eta 1)\n", "line 2"),
         ("chain c|exact|64|(eta 1)\n  assert st (eta 1)\n  sub e2\n", "line 1"),
         ("chain c|exact|64|(eta 1)\n  assert st (eta 1)\n  assert st (eta 1)\n", "line 3")],
    )
    def test_bad_registry_file_is_usage_error(self, runner, tmp_path, text, where):
        bad = tmp_path / "user.txt"
        bad.write_text(text)
        result = runner.invoke(main, ["verify", "--suite", "identities",
                                      "--registry-file", str(bad)])
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert f"{bad}: {where}:" in result.output

    def test_exported_registry_is_rejected_cleanly(self, runner, tmp_path):
        out = tmp_path / "registry.txt"
        runner.invoke(main, ["export-registry", "--output", str(out)])
        result = runner.invoke(main, ["verify", "--registry-file", str(out)])
        assert result.exit_code == 2
        assert "line 2: identity id '0.2' is empty or already defined" in result.output

    @pytest.mark.parametrize("text,entry", [
        ("a|exact|10|(pow (const 2) -1)|(eta 1)\n", "[case a] NonUnitError"),
        ("chain a|exact|64|(eta 1)\n  assert st (pow (const 2) -1)\n",
         "[chain a] stage st: NonUnitError"),
        ("chain a|exact|64|(eta 1)\n  dilate 2\n  assert st (eta 1)\n",
         "[chain a] stage st: DilateBack(s=2): ValueError: the lattice is 1"),
        ("chain a|exact|40|(eta 1)\n  extract 1 2\n  assert st (eta 1)\n",
         "[chain a] stage st: only 20 coefficients survive"),
        ("family a|regular 17|mod17|1|(m - 1) / 2|zero\n",
         "[family a] m=0, k=0: -1 is not divisible by 2"),
        ("family a|regular 17|mod17|1|-5|zero\n", "[family a] m=0, k=0: index map"),
        ("family a|regular 17|mod17|10 ** 10 ** 10|0|zero\n",
         "[family a] m=0, k=0: 10 ** 10000000000 in an index expression is too large"),
        ("family a|regular 17|mod17|1" + " + 1" * 1000 + "|0|zero\n",
         "[family a] m=0, k=0: maximum recursion depth exceeded"),
    ])
    def test_unevaluable_user_entry_is_usage_error(self, runner, tmp_path, text, entry):
        user = tmp_path / "user.txt"
        user.write_text(text)
        kind = text.split()[0] if text.startswith(("chain", "family")) else "case"
        result = runner.invoke(main, ["verify", f"--{kind}", "a", "--registry-file", str(user)])
        assert result.exit_code == 2, result.output
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "'--registry-file'" in result.output
        assert f"{user}: {entry}" in " ".join(result.output.split())

    def test_user_chain_and_family_match_builtins(self, runner, tmp_path):
        export = runner.invoke(main, ["export-registry"]).output
        chain = next(b for b in export.split("\n\n") if b.startswith("chain s7cor|"))
        family = next(l for l in export.splitlines() if l.startswith("family w.11|"))
        user = tmp_path / "user.txt"
        user.write_text(chain.replace("chain s7cor|", "chain my-s7cor|", 1) + "\n"
                        + family.replace("family w.11|", "family my-w.11|", 1)
                                .replace("n_max=5000", "n_max=200") + "\n")
        mine = runner.invoke(main, ["verify", "--chain", "my-s7cor", "--family", "my-w.11",
                                    "--registry-file", str(user), "--format", "json"])
        builtin = runner.invoke(main, ["verify", "--chain", "s7cor", "--family", "w.11",
                                       "--n-max", "200", "--format", "json"])
        assert mine.exit_code == builtin.exit_code == 0, mine.output
        rows = json.loads(mine.output)["cases"]
        want = json.loads(builtin.output)["cases"]
        assert [r["id"] for r in rows] == ["my-s7cor", "my-w.11"]
        assert [r["status"] for r in rows] == [r["status"] for r in want] == ["pass", "pass"]
        assert rows[0]["stages"] == want[0]["stages"]
        assert rows[1]["n_max"] == want[1]["n_max"] == 200

    def test_export_is_the_shipped_catalog(self, runner, tmp_path):
        from importlib.resources import files

        result = runner.invoke(main, ["export-registry"])
        assert result.exit_code == 0
        shipped = files("qdissect").joinpath("catalog.txt").read_bytes()
        assert result.stdout_bytes == shipped
        out = tmp_path / "catalog.txt"
        result = runner.invoke(main, ["export-registry", "--output", str(out)])
        assert result.exit_code == 0
        assert out.read_bytes() == shipped

    def test_constants_command(self, runner):
        result = runner.invoke(main, ["constants"])
        assert result.exit_code == 0
        assert "E:" in result.output and "ok" in result.output
        assert "E/e: ok -- M^7 = [[3, 0], [0, 3]] mod 7" in result.output
        assert result.output.count("for every m") == 4

    def test_constants_command_fails_on_a_failed_closure(self, runner, monkeypatch):
        off = congruences.RecurrenceSeq("e", 6, 4, 1, 0)  # e's beta is not E's
        monkeypatch.setitem(congruences.SEQUENCES, "e", off)
        result = runner.invoke(main, ["constants"])
        assert result.exit_code == 1
        assert "E/e: FAIL -- M^7 = [[3, 3], [0, 6]] mod 7, want 3*I\n" in result.output
        assert result.output.count("for every m") == 3
