"""End-to-end command-line runs against a synthetic trade file."""

import gc
import json
import os
import subprocess
import sys
import weakref
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import wtnrank
from wtnrank import MoneyMatrix, analysis, cli, gmatrix
from wtnrank.ranks import RANK_TABLE_HEADER
from wtnrank.testkit import SyntheticSpec, synthetic_money, write_trade_file


N_COUNTRIES = 6
N_PRODUCTS = 3
# file ingest always spans the full single-digit SITC axis
N_SITC = 10
YEAR = 2018


@pytest.fixture(scope="module")
def trade_file(tmp_path_factory):
    money = synthetic_money(
        SyntheticSpec(seed=21, n_countries=N_COUNTRIES, n_products=N_PRODUCTS, density=0.6)
    )
    return write_trade_file(money, tmp_path_factory.mktemp("data") / "trade.csv")


def run(command, trade_file, out, *extra):
    return cli.main(
        [command, "--input", str(trade_file), "--year", str(YEAR), "--out", str(out), *extra]
    )


def bloc_files(tmp_path, pairs=("DEU,EUU", "FRA,EUU")):
    """A trade file of DEU, FRA, USA and CHN rows, and a bloc map of ``pairs``."""
    rows = ["year,exporter,importer,sitc,value_usd"]
    rows += [f"{YEAR},DEU,USA,7,5", f"{YEAR},FRA,CHN,7,7", f"{YEAR},USA,CHN,7,9", f"{YEAR},CHN,DEU,3,4"]
    trade, mapping = tmp_path / "trade.csv", tmp_path / "blocs.csv"
    trade.write_text("\n".join(rows) + "\n")
    mapping.write_text("\n".join(["member_code,bloc_code", *pairs]) + "\n")
    return trade, mapping


class TestRank:
    def test_artifacts_and_shapes(self, trade_file, tmp_path, capsys):
        assert run("rank", trade_file, tmp_path, "--top", "3") == 0
        table = (tmp_path / f"rank_table_{YEAR}.csv").read_text().splitlines()
        assert table[0] == RANK_TABLE_HEADER
        assert len(table) == 1 + N_COUNTRIES
        # rows come out already ordered by the PageRank index
        assert [row.split(",")[3] for row in table[1:]] == [str(i + 1) for i in range(N_COUNTRIES)]
        top = (tmp_path / f"top_table_{YEAR}.csv").read_text().splitlines()
        assert top[0] == "rank,pagerank,cheirank,importrank,exportrank"
        assert len(top) == 4
        for kind in ("google", "volume"):
            plane = (tmp_path / f"rank_plane_{kind}_{YEAR}.csv").read_text().splitlines()
            assert len(plane) == 1 + N_COUNTRIES
        # every path printed on stdout must exist
        for line in capsys.readouterr().out.splitlines():
            assert line and (tmp_path / line).exists() or line.startswith(str(tmp_path))

    def test_svg_scatters(self, trade_file, tmp_path):
        assert run("rank", trade_file, tmp_path, "--svg") == 0
        for kind in ("google", "volume"):
            svg = (tmp_path / f"rank_plane_{kind}_{YEAR}.svg").read_text()
            assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")

    def test_index_cutoff_filters_plane(self, trade_file, tmp_path):
        assert run("rank", trade_file, tmp_path, "--index-cutoff", "3") == 0
        plane = (tmp_path / f"rank_plane_google_{YEAR}.csv").read_text().splitlines()
        for row in plane[1:]:
            _, kx, ky = row.split(",")
            assert int(kx) < 3 and int(ky) < 3


class TestBalance:
    def test_file_shape(self, trade_file, tmp_path):
        assert run("balance", trade_file, tmp_path) == 0
        lines = (tmp_path / f"balance_{YEAR}.csv").read_text().splitlines()
        assert lines[0] == "country,B_gma,B_iea"
        assert len(lines) == 1 + N_COUNTRIES
        for row in lines[1:]:
            code, b_gma, b_iea = row.split(",")
            assert abs(float(b_gma)) <= 1.0 and abs(float(b_iea)) <= 1.0


class TestSensitivity:
    def test_files_and_manifest(self, trade_file, tmp_path):
        assert run("sensitivity", trade_file, tmp_path, "--sens-product", "1") == 0
        for source in ("gma", "iea"):
            lines = (tmp_path / f"sensitivity_{source}_s1_{YEAR}.csv").read_text().splitlines()
            assert lines[0] == "country,dB_ddelta"
            assert len(lines) == 1 + N_COUNTRIES
        raw = (tmp_path / f"sensitivity_s1_{YEAR}.json").read_text()
        manifest = json.loads(raw)
        assert manifest["product"] == 1 and manifest["country"] is None
        assert set(manifest["sources"]) == {"gma", "iea"}
        gma = manifest["sources"]["gma"]
        assert gma["reports"] and all(r["converged"] for r in gma["reports"])
        # the iea source is pure arithmetic, no solver runs to report
        assert manifest["sources"]["iea"]["reports"] == []
        for source in ("gma", "iea"):
            assert set(manifest["sources"][source]["richardson"]) == {"h", "checked", "median_ratio"}
        # serialized with sorted keys for byte determinism
        assert raw == json.dumps(manifest, indent=2, sort_keys=True) + "\n"

    def test_country_target_in_filenames(self, trade_file, tmp_path):
        code = run(
            "sensitivity", trade_file, tmp_path, "--sens-product", "1", "--sens-country", "C002"
        )
        assert code == 0
        assert (tmp_path / f"sensitivity_gma_C002_s1_{YEAR}.csv").exists()
        assert (tmp_path / f"sensitivity_iea_C002_s1_{YEAR}.csv").exists()
        manifest = json.loads((tmp_path / f"sensitivity_C002_s1_{YEAR}.json").read_text())
        # the direct response, then the inverted block re-solved at +h and at -h
        gma, iea = manifest["sources"]["gma"], manifest["sources"]["iea"]
        assert len(gma["reports"]) == 3 and all(r["converged"] for r in gma["reports"])
        assert iea["reports"] == []
        assert 3.0 <= gma["richardson"]["median_ratio"] <= 5.0

    def test_missing_product_flag_fails(self, trade_file, tmp_path, capsys):
        assert run("sensitivity", trade_file, tmp_path) == 1
        assert "sens-product" in capsys.readouterr().err

    def test_unknown_country_target_fails_before_any_solve(self, trade_file, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(gmatrix, "_solve_links", None)   # a solve would raise
        out = tmp_path / "out"
        assert run("sensitivity", trade_file, out, "--sens-product", "1", "--sens-country", "XYZ") == 1
        assert "XYZ" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_merged_country_target_names_its_bloc(self, tmp_path, capsys):
        trade, mapping = bloc_files(tmp_path)
        out = tmp_path / "out"
        extra = ("--aggregate", str(mapping), "--sens-product", "7", "--sens-country", "FRA")
        assert run("sensitivity", trade, out, *extra) == 1
        assert "FRA was merged into EUU by the aggregation map" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("side", ["export", "import"])
    def test_country_target_builds_each_operator_once(self, trade_file, tmp_path, monkeypatch, side):
        builds, build_google = [], cli.build_google

        def counting(*args, **kwargs):
            builds.append(args[1])
            return build_google(*args, **kwargs)

        monkeypatch.setattr(cli, "build_google", counting)
        monkeypatch.setattr(analysis, "build_google", counting)
        assert run(
            "sensitivity", trade_file, tmp_path, "--sens-product", "1", "--sens-country", "C002",
            "--sens-side", side,
        ) == 0
        # the moved block is re-solved in place: no tensor is perturbed and no network rebuilt
        assert builds.count("direct") == builds.count("inverted") == 1
        assert not hasattr(analysis, "perturb_money")


class TestRegomax:
    def test_reduced_matrix_and_friends(self, trade_file, tmp_path):
        code = run("regomax", trade_file, tmp_path, "--subset", "C000,C001", "--k", "1")
        assert code == 0
        n_r = 2 * N_SITC
        for direction in ("direct", "inverted"):
            gr = (tmp_path / f"gr_{direction}_{YEAR}.csv").read_text().splitlines()
            labels = [f"{c}_{p}" for c in ("C000", "C001") for p in range(N_SITC)]
            assert gr[0] == ",".join(labels)
            assert len(gr) == 1 + n_r
            matrix = np.array([[float(x) for x in row.split(",")] for row in gr[1:]])
            assert np.allclose(matrix.sum(axis=0), 1.0, atol=1e-10, rtol=0)
            friends = (tmp_path / f"friends_{direction}_{YEAR}.csv").read_text().splitlines()
            assert friends[0] == "source,target,weight"
            assert len(friends) == 1 + n_r  # k=1 edge per node

    def test_unknown_subset_country_fails(self, trade_file, tmp_path, capsys):
        assert run("regomax", trade_file, tmp_path, "--subset", "C000,XYZ") == 1
        assert "XYZ" in capsys.readouterr().err

    def test_merged_subset_country_names_its_bloc(self, tmp_path, capsys):
        trade, mapping = bloc_files(tmp_path)
        out = tmp_path / "out"
        assert run("regomax", trade, out, "--aggregate", str(mapping), "--subset", "DEU") == 1
        assert "DEU was merged into EUU by the aggregation map" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_repeated_subset_country_named(self, trade_file, tmp_path, capsys):
        assert run("regomax", trade_file, tmp_path, "--subset", "C001,C001") == 1
        assert "subset names C001 more than once" in capsys.readouterr().err

    def test_missing_subset_fails(self, trade_file, tmp_path):
        assert run("regomax", trade_file, tmp_path) == 1


class TestDump:
    def test_triplets_and_sidecar(self, trade_file, tmp_path):
        assert run("dump", trade_file, tmp_path) == 0
        for direction in ("direct", "inverted"):
            dump = (tmp_path / f"gmatrix_{direction}_{YEAR}.csv").read_text().splitlines()
            assert dump[0] == "row,col,value"
            meta = (tmp_path / f"gmatrix_{direction}_{YEAR}.meta").read_text().splitlines()
            assert meta[0] == "alpha=0.5"
            assert meta[2].startswith("v=")


class TestOperatorLifetime:
    @pytest.mark.parametrize("command,extra", [("regomax", ("--subset", "C001,C002")), ("dump", ())])
    def test_one_direction_at_a_time_holds_one_operator(self, trade_file, tmp_path, monkeypatch, command, extra):
        directions, built, alive, build_google = [], [], [], cli.build_google

        def tracking(money, direction, *args):
            gc.collect()
            alive.append([ref() is not None for ref in built])   # the earlier operators this build meets
            directions.append(direction)
            G = build_google(money, direction, *args)
            built.append(weakref.ref(G))
            return G

        monkeypatch.setattr(cli, "build_google", tracking)
        assert run(command, trade_file, tmp_path, *extra) == 0
        assert directions == ["direct", "inverted"]
        assert alive == [[], [False]]   # the direct operator is freed before the inverted one is built


class TestPipeline:
    def test_runs_everything_byte_identically(self, trade_file, tmp_path):
        first, second = tmp_path / "one", tmp_path / "two"
        assert run("pipeline", trade_file, first) == 0
        assert run("pipeline", trade_file, second) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        assert f"rank_table_{YEAR}.csv" in names
        assert f"balance_{YEAR}.csv" in names
        assert f"gr_direct_{YEAR}.csv" in names and f"friends_inverted_{YEAR}.csv" in names
        assert any(name.startswith("sensitivity_") and name.endswith(".json") for name in names)
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
        # the staging directories next to --out are gone
        assert sorted(p.name for p in tmp_path.iterdir()) == ["one", "two"]

    def test_matches_standalone_rank_and_balance(self, trade_file, tmp_path):
        alone, whole = tmp_path / "alone", tmp_path / "whole"
        assert run("rank", trade_file, alone) == 0
        assert run("balance", trade_file, alone) == 0
        assert run("pipeline", trade_file, whole) == 0
        for path in alone.iterdir():
            assert path.read_bytes() == (whole / path.name).read_bytes(), path.name

    def test_counts_unperturbed_and_perturbed_evaluations(self, trade_file, tmp_path, monkeypatch):
        calls = {"unperturbed": 0, "solves": 0, "passes": 0, "blocks": 0, "richardson": 0, "sensitivity": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            cli, "gma_country_probabilities", counting("unperturbed", cli.gma_country_probabilities)
        )
        monkeypatch.setattr(analysis, "pagerank", counting("solves", analysis.pagerank))
        # the operators' block passes; analysis and REGOMAX hold their own references to the helper
        monkeypatch.setattr(gmatrix, "_solve_links", counting("passes", gmatrix._solve_links))
        monkeypatch.setattr(analysis, "_block_variant", counting("blocks", analysis._block_variant))
        monkeypatch.setattr(cli, "sensitivity_richardson", counting("richardson", cli.sensitivity_richardson))
        sensitivity = counting("sensitivity", analysis.balance_sensitivity)
        for module in (analysis, cli):
            monkeypatch.setattr(module, "balance_sensitivity", sensitivity, raising=False)
        assert run("pipeline", trade_file, tmp_path, "--sens-product", "0") == 0
        # ranks, balance, REGOMAX and the sensitivities share one unperturbed
        # solve per direction; the global target's teleport responses solve
        # block 0 only, one per direction; one analysis call per source gives
        # both the CSV and the manifest entry
        assert calls == {
            "unperturbed": 1, "solves": 2, "passes": 2, "blocks": 2, "richardson": 2, "sensitivity": 0
        }

    def test_unperturbed_operators_built_once(self, trade_file, tmp_path, monkeypatch):
        builds, build_google = [], cli.build_google

        def counting(*args, **kwargs):
            builds.append(args[1])
            return build_google(*args, **kwargs)

        monkeypatch.setattr(cli, "build_google", counting)
        monkeypatch.setattr(analysis, "build_google", counting)
        assert run("pipeline", trade_file, tmp_path, "--sens-product", "0") == 0
        # one direct and one inverted operator serve the country vectors, the
        # sensitivities and REGOMAX
        assert builds.count("direct") == builds.count("inverted") == 1

    def test_product_volumes_summed_once_per_teleport(self, tmp_path, monkeypatch):
        # products 3 and 7, the default sensitivity targets, carry volume
        money = synthetic_money(SyntheticSpec(seed=21, n_countries=N_COUNTRIES, n_products=8, density=0.6))
        trade = write_trade_file(money, tmp_path / "trade.csv")
        calls, teleport = [], gmatrix._teleport

        def counting(*args):
            calls.append(args[-1])
            return teleport(*args)

        monkeypatch.setattr(gmatrix, "_teleport", counting)
        monkeypatch.setattr(analysis, "_teleport", counting)
        assert run("pipeline", trade, tmp_path / "out") == 0
        # each teleport sums its flows' product volumes once: one v per direction and
        # one w per GMA sensitivity product; whether a product is traded is read off the product runs
        assert calls == ["uniform-by-product"] * 4

    def test_blas_thread_count_does_not_change_bytes(self, tmp_path):
        # PageRank, its responses and REGOMAX rest on dense block solves of 110
        # rows, which OpenBLAS would factorize in another order on several
        # threads than on one; importing wtnrank loads numpy's OpenBLAS with
        # one thread whatever the environment says
        money = synthetic_money(SyntheticSpec(seed=5, n_countries=110, n_products=4, density=0.3))
        trade = write_trade_file(money, tmp_path / "trade.csv")
        src = str(Path(wtnrank.__file__).parents[1])
        blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        outputs = []
        for name, threads in (("one", {"OPENBLAS_NUM_THREADS": "1"}),
                              ("two", dict.fromkeys(blas, "2")),
                              ("unset", {})):
            env = {key: value for key, value in os.environ.items() if key not in blas}
            env.update(threads, PYTHONPATH=src)
            out = tmp_path / name
            argv = ["pipeline", "--input", str(trade), "--year", str(YEAR), "--out", str(out)]
            result = subprocess.run(
                [sys.executable, "-m", "wtnrank.cli", *argv], env=env, capture_output=True, text=True
            )
            assert result.returncode == 0, result.stderr
            outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
        one, two, unset = outputs
        assert sorted(one) == sorted(two) == sorted(unset)
        for name, data in one.items():
            assert two[name] == data, name
            assert unset[name] == data, name

    def test_explicit_flags_override_defaults(self, trade_file, tmp_path):
        code = run(
            "pipeline", trade_file, tmp_path, "--sens-product", "0", "--subset", "C003,C004"
        )
        assert code == 0
        assert (tmp_path / f"sensitivity_s0_{YEAR}.json").exists()
        gr = (tmp_path / f"gr_direct_{YEAR}.csv").read_text().splitlines()
        assert gr[0].startswith("C003_0,") and gr[0].endswith(f",C004_{N_SITC - 1}")


class TestOneTensorForm:
    @pytest.mark.parametrize(
        "command,extra",
        [
            ("pipeline", ()),
            ("regomax", ("--subset", "C000,C001")),
            ("sensitivity", ("--sens-product", "1", "--sens-country", "C002", "--sens-side", "import")),
        ],
    )
    def test_no_command_reads_the_derived_indexes(self, trade_file, tmp_path, command, extra):
        # the tensor holds node ids only: there are no per-entry index arrays a command could rebuild
        assert not any(hasattr(MoneyMatrix, name) for name in ("product", "importer", "exporter"))
        assert run(command, trade_file, tmp_path, *extra) == 0


class TestImports:
    #: each command's extra options and the name of one artifact it writes
    COMMANDS = {
        "rank": ([], "rank_table"),
        "balance": ([], "balance"),
        "sensitivity": (["--sens-product", "1"], "sensitivity_s1"),
        "regomax": (["--subset", "C000,C001"], "gr_direct"),
        "dump": ([], "gmatrix_direct"),
        "pipeline": ([], "rank_table"),
    }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_runs_without_scipy(self, trade_file, tmp_path, command):
        extra, artifact = self.COMMANDS[command]
        # a None entry in sys.modules makes any import of scipy fail
        script = f"""
import sys
sys.modules["scipy"] = None
from wtnrank import cli
argv = [{command!r}, "--input", {str(trade_file)!r}, "--year", "{YEAR}", "--out", {str(tmp_path)!r}, *{extra!r}]
assert cli.main(argv) == 0
loaded = [name for name, module in sys.modules.items() if name.startswith("scipy") and module is not None]
assert not loaded, loaded
# np.median or np.unique would import numpy.ma, which costs 20-35 ms of every run
assert "numpy.ma" not in sys.modules
"""
        src = str(Path(wtnrank.__file__).parents[1])
        result = subprocess.run(
            [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert any(tmp_path.glob(f"{artifact}_{YEAR}.*"))

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
    @pytest.mark.parametrize("threads", ["3", None])
    def test_import_loads_blas_on_one_thread_and_restores_environment(self, threads):
        # a solve past OpenBLAS's threading threshold would wake any worker
        script = """
import os, re
import wtnrank
import numpy as np
np.linalg.solve(np.eye(300) + np.ones((300, 300)), np.ones(300))
with open("/proc/self/status") as fh:
    print(re.search(r"^Threads:\\s*(\\d+)", fh.read(), re.M).group(1))
print(os.environ.get("OPENBLAS_NUM_THREADS"))
"""
        env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(Path(wtnrank.__file__).parents[1])
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["1", str(threads)]

    def test_richardson_median_matches_numpy(self):
        rng = np.random.default_rng(3)
        for n in range(1, 60):
            ratio = rng.normal(4.0, 1.0, n)
            spread = np.where(rng.random(n) < 0.8, 1.0, 0.0)
            result = {"h": 0.01, "ratio": ratio, "d_h2": spread, "d_h4": np.zeros(n)}
            summary = cli._richardson_summary(result)
            checked = spread > 1e3 * np.finfo(np.float64).eps / 0.01
            expected = float(np.median(ratio[checked])) if checked.any() else None
            assert summary["median_ratio"] == expected
            assert summary["checked"] == int(checked.sum())

    def test_richardson_skips_rounding_spreads(self):
        # at h = 0.01 the cut is 2.2e-11: a 5e-12 spread is rounding, a 5e-11 one is counted
        result = {"h": 0.01, "ratio": np.array([9.0, 4.0]), "d_h2": np.array([5e-12, 5e-11]), "d_h4": np.zeros(2)}
        assert cli._richardson_summary(result) == {"h": 0.01, "checked": 1, "median_ratio": 4.0}


class TestParser:
    @pytest.mark.parametrize("command", sorted(cli._COMMANDS))
    def test_options_not_given_keep_run_config_defaults(self, trade_file, command):
        args = cli.build_parser().parse_args([command, "--input", str(trade_file), "--year", str(YEAR)])
        assert cli.config_from_args(args) == cli.RunConfig(command, trade_file, YEAR)

    def test_every_option_reaches_run_config(self, trade_file, tmp_path):
        argv = [
            "pipeline", "--input", str(trade_file), "--year", str(YEAR), "--out", str(tmp_path),
            "--aggregate", "eu27", "--alpha", "0.85", "--tol", "1e-9", "--personalization", "volume-by-country",
            "--top", "5", "--index-cutoff", "11", "--svg", "--sens-product", "3", "--sens-country", "C001",
            "--step", "0.02", "--sens-side", "import", "--subset", "C000, C002", "--k", "2", "--friends-by", "row",
        ]
        config = cli.config_from_args(cli.build_parser().parse_args(argv))
        assert config == cli.RunConfig(
            "pipeline", trade_file, YEAR, tmp_path, cli._resolve_aggregate("eu27"), alpha=0.85, tol=1e-9,
            personalization="volume-by-country", top=5, index_cutoff=11, svg=True, sens_product=3,
            sens_country="C001", step=0.02, sens_side="import", subset=("C000", "C002"), k=2, friends_by="row",
        )

    @pytest.mark.parametrize("command", [None, *sorted(cli._COMMANDS)])
    def test_help_exits_zero(self, command, capsys):
        with pytest.raises(SystemExit) as raised:
            cli.build_parser().parse_args([command, "--help"] if command else ["--help"])
        assert raised.value.code == 0
        assert "usage: wtnrank" in capsys.readouterr().out


class TestResolution:
    def test_data_dir_env_fallback(self, trade_file, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(cli.DATA_DIR_ENV, str(trade_file.parent))
        code = cli.main(
            ["balance", "--input", trade_file.name, "--year", str(YEAR), "--out", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / f"balance_{YEAR}.csv").exists()

    def test_packaged_eu27_alias(self, trade_file, tmp_path):
        # two synthetic countries renamed to EU members, so the packaged map merges them
        eu_file = tmp_path / "eu.csv"
        eu_file.write_text(trade_file.read_text().replace("C000", "DEU").replace("C001", "FRA"))
        mapping = tmp_path / "blocs.csv"
        mapping.write_text((resources.files("wtnrank") / "data" / "eu27_aggregation.csv").read_text())
        by_alias, by_path = tmp_path / "alias", tmp_path / "path"
        assert run("balance", eu_file, by_alias, "--aggregate", "eu27") == 0
        assert run("balance", eu_file, by_path, "--aggregate", str(mapping)) == 0
        name = f"balance_{YEAR}.csv"
        assert (by_alias / name).read_bytes() == (by_path / name).read_bytes()
        codes = [row.split(",")[0] for row in (by_alias / name).read_text().splitlines()[1:]]
        assert "EUU" in codes and "DEU" not in codes and "FRA" not in codes

    def test_aggregation_matching_no_code_fails(self, tmp_path, capsys):
        # M49 numeric codes for Germany, the USA and China: the EU-27 map names ISO codes
        rows = ["year,exporter,importer,sitc,value_usd"]
        rows += [f"{YEAR},276,842,0,5", f"{YEAR},842,156,1,7", f"{YEAR},156,276,2,9"]
        numeric = tmp_path / "m49.csv"
        numeric.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        assert run("balance", numeric, out, "--aggregate", "eu27") == 1
        assert "EUU" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())
        # a file already aggregated onto the bloc matches it
        aggregated = tmp_path / "euu.csv"
        aggregated.write_text(numeric.read_text().replace("276", "EUU"))
        assert run("balance", aggregated, out, "--aggregate", "eu27") == 0
        assert "EUU" in (out / f"balance_{YEAR}.csv").read_text()

    def test_every_unmatched_bloc_fails(self, tmp_path, capsys):
        # EUU's members are in the file; USX's member is the USA's M49 code, which it is not
        rows = ["year,exporter,importer,sitc,value_usd"]
        rows += [f"{YEAR},DEU,USA,0,5", f"{YEAR},FRA,CHN,1,7", f"{YEAR},USA,CHN,2,9", f"{YEAR},CHN,DEU,3,4"]
        trade = tmp_path / "trade.csv"
        trade.write_text("\n".join(rows) + "\n")
        mapping = tmp_path / "blocs.csv"
        mapping.write_text("member_code,bloc_code\nDEU,EUU\nFRA,EUU\n840,USX\n")
        out = tmp_path / "out"
        assert run("balance", trade, out, "--aggregate", str(mapping)) == 1
        err = capsys.readouterr().err
        assert "USX" in err and "EUU" not in err
        assert not out.exists() or not any(out.iterdir())

    def test_identity_pair_in_bloc_map_is_a_no_op(self, tmp_path):
        trade, mapping = bloc_files(tmp_path, ("DEU,EUU", "FRA,EUU", "EUU,EUU"))
        plain = tmp_path / "plain.csv"
        plain.write_text("member_code,bloc_code\nDEU,EUU\nFRA,EUU\n")
        outputs = []
        for blocs in (mapping, plain):
            out = tmp_path / blocs.stem
            assert run("balance", trade, out, "--aggregate", str(blocs)) == 0
            outputs.append((out / f"balance_{YEAR}.csv").read_bytes())
        assert outputs[0] == outputs[1]
        assert b"EUU" in outputs[0] and b"DEU" not in outputs[0]

    def test_custom_aggregation_merges_rows(self, trade_file, tmp_path):
        mapping = tmp_path / "blocs.csv"
        mapping.write_text("member_code,bloc_code\nC000,CX\nC001,CX\n")
        assert run("balance", trade_file, tmp_path, "--aggregate", str(mapping)) == 0
        lines = (tmp_path / f"balance_{YEAR}.csv").read_text().splitlines()
        codes = [row.split(",")[0] for row in lines[1:]]
        assert "CX" in codes and "C000" not in codes
        assert len(codes) == N_COUNTRIES - 1

    def test_byte_order_mark_is_read(self, trade_file, tmp_path):
        # spreadsheet exports often start with one
        files = {"trade.csv": trade_file.read_text(), "blocs.csv": "member_code,bloc_code\nC000,CX\nC001,CX\n"}
        tensors = []
        for mark, quoted in (("", False), ("\ufeff", False), ("\ufeff", True)):
            work = tmp_path / f"mark{len(mark)}{quoted}"
            work.mkdir()
            for name, text in files.items():
                if quoted:   # as R's write.csv or pandas' QUOTE_ALL write the header
                    header, rest = text.split("\n", 1)
                    text = ",".join(f'"{cell}"' for cell in header.split(",")) + "\n" + rest
                (work / name).write_text(mark + text, encoding="utf-8")
            money = cli._load_money(cli.RunConfig("balance", work / "trade.csv", YEAR, work, work / "blocs.csv"))
            tensors.append((money.registry.codes, [array.tobytes() for array in (*money.nodes, money.value)]))
        assert tensors[1] == tensors[0] and tensors[2] == tensors[0]
        assert "CX" in tensors[0][0]


class TestFailureModes:
    def test_missing_input(self, tmp_path, capsys):
        code = cli.main(
            ["rank", "--input", "no_such.csv", "--year", str(YEAR), "--out", str(tmp_path)]
        )
        assert code == 1
        assert "wtnrank: error:" in capsys.readouterr().err

    def test_year_without_records(self, trade_file, tmp_path, capsys):
        assert cli.main(
            ["rank", "--input", str(trade_file), "--year", "1999", "--out", str(tmp_path)]
        ) == 1
        assert "1999" in capsys.readouterr().err

    def test_alpha_out_of_range(self, trade_file, tmp_path):
        assert run("rank", trade_file, tmp_path, "--alpha", "1.5") == 1

    def test_top_below_one(self, trade_file, tmp_path):
        assert run("rank", trade_file, tmp_path, "--top", "0") == 1

    def test_missing_aggregation_file(self, trade_file, tmp_path):
        assert run("balance", trade_file, tmp_path, "--aggregate", "ghost.csv") == 1

    def test_non_finite_tolerance(self, trade_file, tmp_path, capsys):
        out = tmp_path / "out"
        for tol in ("inf", "nan"):
            assert run("rank", trade_file, out, "--tol", tol) == 1
            assert "tol must be positive and finite" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_residual_above_tolerance_fails(self, trade_file, tmp_path, capsys):
        # the solves of this file leave rounding residuals far above 1e-300
        out = tmp_path / "out"
        assert run("rank", trade_file, out, "--tol", "1e-300") == 1
        assert "residual" in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_sensitivity_on_product_without_volume(self, trade_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("sensitivity", trade_file, out, "--sens-product", "9") == 1
        err = capsys.readouterr().err
        assert "product 9" in err and str(YEAR) in err
        assert not any(out.iterdir())
        for product in ("12", "-1"):
            assert run("sensitivity", trade_file, out, "--sens-product", product) == 1
            assert "out of range" in capsys.readouterr().err
            assert not any(out.iterdir())

    @pytest.mark.parametrize("overlong", ["trade", "aggregation"])
    def test_overlong_field_is_a_parse_error(self, trade_file, tmp_path, capsys, overlong):
        # a field past the csv module's 131,072-character limit
        field = "9" * 200_000
        blocs = tmp_path / "blocs.csv"
        blocs.write_text(f"member_code,bloc_code\n{'C000' if overlong == 'trade' else field},CX\n")
        if overlong == "trade":
            trade_file = tmp_path / "trade.csv"
            trade_file.write_text(f"year,exporter,importer,sitc,value_usd\n{YEAR},C000,C001,3,{field}\n")
        out = tmp_path / "out"
        assert run("rank", trade_file, out, "--aggregate", str(blocs)) == 1
        assert "wtnrank: error: line 2:" in capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize(
        "rows, bloc, line",
        [
            (['2018,"FR\nA",USA,3,5', '2018,USA,"FR\nA",3,4', '2018,"DE,U",USA,7,2'], "CX", 3),
            (['2018,"DE,U",USA,7,2'], "CX", 2),
            (["2018,USA,CAN,7,2", "2018,C000,USA,7,2"], "E&U", 3),
        ],
        ids=["line-break", "comma", "bloc"],
    )
    def test_unwritable_country_code_fails(self, tmp_path, capsys, rows, bloc, line):
        # the CSV writers emit codes unquoted, the SVG writer inside XML text
        trade_file = tmp_path / "trade.csv"
        trade_file.write_text("\n".join(["year,exporter,importer,sitc,value_usd", *rows]) + "\n")
        blocs = tmp_path / "blocs.csv"
        blocs.write_text(f"member_code,bloc_code\nC000,{bloc}\n")
        out = tmp_path / "out"
        assert run("rank", trade_file, out, "--svg", "--aggregate", str(blocs)) == 1
        assert f"wtnrank: error: line {line}:" in capsys.readouterr().err
        assert not any(out.iterdir())

    @pytest.mark.parametrize(
        "command, extra",
        [("dump", ()), ("rank", ()), ("balance", ()), ("sensitivity", ("--sens-product", "0")),
         ("regomax", ("--subset", "A,B")), ("pipeline", ("--subset", "A,B"))],
    )
    @pytest.mark.parametrize("flows", [("A,B,0,1e308",), ("A,B,0,1e308", "A,C,0,1e308")], ids=["one", "one-exporter"])
    def test_total_past_float64_headroom_fails(self, tmp_path, capsys, command, extra, flows):
        # 3 countries: the uniform teleport divides by 3 T, which one 1e308 flow already takes past float64
        trade_file = tmp_path / "trade.csv"
        rows = [f"{YEAR},{flow}" for flow in (*flows, "B,C,1,5", "C,A,0,7")]
        trade_file.write_text("\n".join(["year,exporter,importer,sitc,value_usd", *rows]) + "\n")
        out = tmp_path / "out"
        assert run(command, trade_file, out, *extra) == 1
        total = "1e+308" if len(flows) == 1 else "inf"
        assert f"total flow {total} over 3 countries is past the float64 headroom" in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_failed_pipeline_leaves_no_artifacts(self, trade_file, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "unrelated.txt").write_text("kept\n")
        assert run("pipeline", trade_file, out, "--subset", "C000,ZZZ") == 1
        assert "ZZZ" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["unrelated.txt"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]
