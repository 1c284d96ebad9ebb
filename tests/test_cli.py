import ast
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import roughchain
from roughchain import presets, pricing
from roughchain.cli import apply_overrides, default_config, main, parse_config, run


def _run(command, tmp_path, config=None, overrides=(), sweep="eps"):
    buf = io.StringIO()
    path = None
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        path = str(path)
    code = run(command, path, list(overrides), out=buf, sweep=sweep)
    return code, buf.getvalue()


SMALL = {"numerics": {"n_x": 20, "m_v": 20}}


class TestConfig:
    def test_roundtrip_identity(self):
        cfg = parse_config({})
        again = parse_config(json.loads(json.dumps(cfg)))
        assert again == cfg

    def test_unknown_block_rejected(self, tmp_path):
        code, _ = _run("price", tmp_path, config={"bogus": {}})
        assert code == 2

    def test_unknown_key_rejected(self, tmp_path):
        code, _ = _run("price", tmp_path, config={"kernel": {"hurst": 0.12, "tail": 1}})
        assert code == 2

    def test_overrides_take_precedence_and_are_recorded(self, tmp_path):
        code, out = _run(
            "price", tmp_path, config=SMALL,
            overrides=["kernel.eps=1e-6", "option.kind=put"],
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["provenance"]["overrides"] == ["kernel.eps=1e-6", "option.kind=put"]
        assert doc["provenance"]["config"]["kernel"]["eps"] == 1e-6
        assert doc["diagnostics"]["kind"] == "put"

    def test_bad_override_path(self):
        with pytest.raises(Exception):
            apply_overrides(default_config(), ["kernel.bogus=1"])

    def test_default_config_is_valid(self):
        cfg = default_config()
        assert parse_config({}) == cfg

    def test_shipped_config_matches_default(self):
        path = Path(__file__).resolve().parents[1] / "configs" / "default.json"
        assert parse_config(json.loads(path.read_text())) == default_config()


class TestPriceCommand:
    def test_outputs_json_price(self, tmp_path):
        code, out = _run("price", tmp_path, config=SMALL)
        assert code == 0
        doc = json.loads(out)
        assert 5.0 < doc["price"] < 7.0
        assert len(doc["price_repr"].replace(".", "").replace("-", "").lstrip("0")) >= 15
        diag = doc["diagnostics"]
        assert type(diag["forward_defect"]) is float
        assert sorted(diag["wall_mass"]) == ["v_high", "v_low", "x_high", "x_low"]
        assert all(type(m) is float for m in diag["wall_mass"].values())
        assert diag["terminal_cache_hit"] is False

    @pytest.mark.parametrize("size, step", [(20, "dense"), (80, "band")])
    def test_says_which_regime_step_ran(self, tmp_path, size, step):
        # a regime stack over 2 MiB (N = M = 80: 4.1 MB dense) steps on band rows
        for dates in ([], ["numerics.bermudan_dates=3"]):
            code, out = _run("price", tmp_path, overrides=[
                f"numerics.n_x={size}", f"numerics.m_v={size}", *dates])
            assert code == 0
            diag = json.loads(out)["diagnostics"]
            assert diag["regime_step"] == step
            width = diag["regime_row_width"]
            assert width == size if step == "dense" else width % 2 == 1 and width < size

    def test_coupled_method(self, tmp_path):
        code, out = _run(
            "price", tmp_path, config=SMALL, overrides=["numerics.method=coupled"]
        )
        assert code == 0
        assert json.loads(out)["diagnostics"]["method"] == "coupled"

    def test_bermudan_route(self, tmp_path):
        for method in ("fast", "coupled"):
            code, out = _run(
                "price", tmp_path, config=SMALL,
                overrides=["numerics.bermudan_dates=4", f"numerics.method={method}"],
            )
            assert code == 0
            diag = json.loads(out)["diagnostics"]
            assert diag["method"] == method and diag["bermudan_dates"] == 4

    def test_bad_parameter_exit_code(self, tmp_path):
        code, _ = _run("price", tmp_path, config=SMALL, overrides=["kernel.hurst=0.9"])
        assert code == 2

    @pytest.mark.parametrize("override", [
        "numerics.bermudan_dates=2.5",
        "option.strike=abc",
        "numerics.n_x=30.5",
        "mc.paths=1000.5",
        "mc.paths=true",
        "mc.steps=2.0",
        "mc.seed=1.5",
        "mc.seed=-1",
        "mc.seed=340282366920938463463374607431768211456",
        "numerics.v_bounds=[0.1]",
        "option.barrier=[15]",
        "kernel.hurst=abc",
        "model.params.sigma=x",
        "model.params=5",
        "numerics.n_x=2",
        "numerics.v_bounds=[0.5,0.1]",
        "numerics.x_bounds=[5,1]",
        "numerics.v_bounds=[0.01,Infinity]",
        "numerics.v_bounds=[NaN,0.1]",
        "numerics.x_bounds=[-Infinity,5]",
        "market.v0=0",
        "option.strike=NaN",
        "option.strike=Infinity",
        "option.maturity=Infinity",
        "kernel.eps=Infinity",
        "market.s0=Infinity",
        "market.v0=Infinity",
        "model.params.sigma=Infinity",
        "model.params.q=Infinity",
        "model.params.r=NaN",
    ])
    def test_malformed_value_exit_code(self, tmp_path, override):
        code, _ = _run("price", tmp_path, config=SMALL, overrides=[override])
        assert code == 2

    @pytest.mark.parametrize("n_x, m_v, chain", [
        (1100, 8, "regime family has N = 1100 states"),
        (8, 1100, "variance chain Q has M = 1100 states"),
    ])
    def test_oversized_chain_says_how_to_price_it(self, tmp_path, capsys, n_x, m_v, chain):
        # the fast route refuses a chain over the dense cap, naming the chain,
        # its grid key and the route that prices it
        code, out = _run("price", tmp_path, overrides=[f"numerics.n_x={n_x}",
                                                       f"numerics.m_v={m_v}"])
        err = capsys.readouterr().err
        assert code == 3 and out == ""
        key = "numerics.n_x" if n_x > m_v else "numerics.m_v"
        assert chain in err and f"{key} <= 1024" in err and "numerics.method=coupled" in err

    def test_unknown_formulation_exit_code(self, tmp_path, capsys):
        # the chain is built on the model itself; a config that still picks a
        # formulation is refused, naming the key
        config = {"numerics": dict(SMALL["numerics"], formulation="stable")}
        code, out = _run("price", tmp_path, config=config)
        assert code == 2 and out == ""
        assert "unknown key numerics.formulation" in capsys.readouterr().err

    def test_numerical_failure_exit_code(self, tmp_path):
        # x-bounds that exclude the anchor: the grid cannot be built
        code, _ = _run(
            "price", tmp_path, config=SMALL, overrides=["numerics.x_bounds=[100, 200]"]
        )
        assert code == 3

    def test_discounts_at_the_model_rate(self, tmp_path):
        # the chain drifts at model r = 0.05, so the price is discounted at it too
        code, out = _run("price", tmp_path, overrides=[
            "model.params.r=0.05", "option.kind=put", "option.strike=12",
            "numerics.n_x=40", "numerics.m_v=40",
        ])
        assert code == 0
        assert json.loads(out)["price_repr"] == "1.8330416759568542"

    def test_removed_option_rate_key_rejected(self, tmp_path):
        # the model's r is the one rate; the option has none of its own
        code, _ = _run("price", tmp_path, config=SMALL, overrides=["option.rate=0.05"])
        assert code == 2

    def test_removed_n_slices_key_rejected(self, tmp_path):
        # the engine picks the slice count; there is no floor to set
        code, _ = _run("price", tmp_path, config=SMALL, overrides=["numerics.n_slices=48"])
        assert code == 2

    def test_removed_rate_policy_key_rejected(self, tmp_path):
        # upwinding is the one row rule; there is no switch to set
        code, _ = _run(
            "price", tmp_path, config=SMALL, overrides=["numerics.rate_policy=upwind"]
        )
        assert code == 2

    def test_removed_antithetic_key_rejected(self, tmp_path, capsys):
        # Monte Carlo has one draw; a config that still picks one is refused
        code, _ = _run("price", tmp_path, config=SMALL, overrides=['mc.antithetic="no"'])
        assert code == 2
        code, out = _run("price", tmp_path, config={"mc": {"antithetic": False}})
        assert code == 2 and out == ""
        assert "unknown key mc.antithetic" in capsys.readouterr().err

    def test_unknown_method_exit_code(self, tmp_path, capsys):
        code, out = _run("price", tmp_path, config=SMALL, overrides=["numerics.method=dense"])
        assert code == 2 and out == ""
        assert "unknown numerics.method 'dense'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["price", "table", "compare-mc", "selfcheck"])
    @pytest.mark.parametrize("override, message", [
        ("mc.paths=0", "paths and steps must be >= 1"),
        ("mc.seed=-1", "seed must be a Philox key in [0, 2**128)"),
    ], ids=["paths=0", "seed=-1"])
    def test_every_command_checks_the_mc_block(self, tmp_path, capsys, command, override,
                                               message):
        # McConfig states the mc rules once; every command parses the config by them
        code, out = _run(command, tmp_path, config=SMALL, overrides=[override])
        assert code == 2 and out == ""
        assert message in capsys.readouterr().err


class TestTableCommand:
    def test_eps_sweep_shape(self, tmp_path):
        code, out = _run("table", tmp_path, config=SMALL)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "eps,price,benchmark,rel_error"
        assert len(lines) == 7  # comment + header + 5 eps rows

    def test_grid_sweep_shape(self, tmp_path):
        code, out = _run("table", tmp_path, sweep="grid")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "n,m,price,benchmark,rel_error"
        assert len(lines) == 7

    @pytest.mark.parametrize("override, flavor", [
        ("option.barrier=[2, 15]", "barrier"),
        ("numerics.bermudan_dates=4", "american"),
    ])
    def test_benchmark_column_reads_the_option_flavor(self, tmp_path, override, flavor):
        code, out = _run("table", tmp_path, config=SMALL, overrides=[override])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith(f"# model=rough-heston option={flavor} ")
        bench = presets.REFERENCE_PRICES["rough-heston"][flavor]
        assert {row.split(",")[2] for row in lines[2:]} == {format(bench, ".17g")}


class TestCompareMc:
    CFG = {
        "numerics": {"n_x": 20, "m_v": 20},
        "mc": {"paths": 2000, "steps": 32, "seed": 1},
    }

    def test_fields(self, tmp_path):
        code, out = _run("compare-mc", tmp_path, config=self.CFG)
        assert code == 0
        doc = json.loads(out)
        assert {"ctmc_price", "mc_estimate", "mc_stderr", "z_score"} <= doc.keys()
        assert doc["mc_stderr"] > 0

    def test_bermudan_refused(self, tmp_path):
        # mc_price has no exercise, so it would score a Bermudan against a European
        code, out = _run("compare-mc", tmp_path, config=self.CFG,
                         overrides=["numerics.bermudan_dates=4"])
        assert code == 2 and out == ""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_monte_carlo_exits_3(self, tmp_path, capsys):
        # rough-42's simulated variance reaches 0, where its phi is infinite
        code, out = _run("compare-mc", tmp_path, config=self.CFG,
                         overrides=["model.name=rough-42"])
        assert code == 3 and out == ""
        assert "Monte Carlo estimate of rough-42 is not finite" in capsys.readouterr().err


def _child_env():
    """Environment for a child interpreter that imports this roughchain."""
    env = {k: v for k, v in os.environ.items() if k != "ROUGHCHAIN_CONFIG"}
    src = str(Path(roughchain.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestMain:
    def test_out_file_holds_the_run_document(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL))
        target = tmp_path / "price.json"
        argv = ["price", "--config", str(cfg), "--set", "option.kind=put", "--out", str(target)]
        assert main(argv) == 0
        code, out = _run("price", tmp_path, config=SMALL, overrides=["option.kind=put"])
        assert code == 0
        written, printed = json.loads(target.read_text()), json.loads(out)
        for doc in (written, printed):
            doc["diagnostics"].pop("wall_time")
        assert written == printed

    def test_failed_run_leaves_out_file_untouched(self, tmp_path):
        target = tmp_path / "keep.json"
        target.write_text('{"price": 6.0}\n')
        assert main(["price", "--set", "kernel.hurst=0.9", "--out", str(target)]) == 2
        assert target.read_text() == '{"price": 6.0}\n'

    def test_malformed_set_returns_2(self, tmp_path):
        assert main(["price", "--set", "numerics.n_x=30.5"]) == 2
        assert main(["price", "--set", "no-equals-sign"]) == 2

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "roughchain", "price",
             "--set", "numerics.n_x=20", "--set", "numerics.m_v=20"],
            capture_output=True, text=True, env=_child_env(), timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["diagnostics"]["n"] == doc["diagnostics"]["m"] == 20
        assert 5.0 < doc["price"] < 7.0


def test_import_leaves_unused_scipy_subpackages_out():
    # the import and a fast price run on numpy alone; the coupled oracle loads
    # scipy.sparse on first use (and the quadrature oracle scipy.integrate)
    code = (
        "import io, sys, roughchain, roughchain.cli as cli\n"
        "small = ['numerics.n_x=20', 'numerics.m_v=20']\n"
        "assert cli.run('price', None, small, out=io.StringIO()) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
        "assert cli.run('price', None, small + ['numerics.method=coupled'], out=io.StringIO()) == 0\n"
        "print([m for m in ('scipy.sparse', 'scipy.linalg') if m in sys.modules])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "['scipy.sparse']"]


def test_env_var_config(tmp_path, monkeypatch):
    path = tmp_path / "env.json"
    path.write_text(json.dumps(SMALL))
    monkeypatch.setenv("ROUGHCHAIN_CONFIG", str(path))
    buf = io.StringIO()
    code = run("price", None, [], out=buf)
    assert code == 0
    assert json.loads(buf.getvalue())["diagnostics"]["n"] == 20


class TestSelfcheck:
    # The default chains break the model-free ladder constraints (the grid's
    # truncation domain and non-martingale rows); these tests pin that the
    # check reports it.
    def test_default_rough_heston_fails_its_ladder(self, tmp_path):
        code, out = _run("selfcheck", tmp_path)
        assert code == 4, out
        assert "[FAIL] call K=0 " in out and "[FAIL] put K=16 " in out

    def test_applies_the_configured_family(self, tmp_path):
        code, out = _run("selfcheck", tmp_path, overrides=["model.name=rough-sabr"])
        assert code == 4, out
        assert "[FAIL] put K=12 " in out
        assert out.splitlines()[-1].startswith("selfcheck: rough-sabr ")

    def test_prices_on_the_configured_route(self, monkeypatch):
        # on coupled the 22-price ladder costs one law and a dot product per strike
        calls = []
        expm_action = pricing.expm_action
        monkeypatch.setattr(
            pricing, "expm_action", lambda *a, **kw: calls.append(a) or expm_action(*a, **kw)
        )
        out = io.StringIO()
        code = run("selfcheck", None, ["numerics.n_x=20", "numerics.m_v=20",
                                       "numerics.method=coupled"], out=out)
        assert len(calls) == 1
        assert code == 4  # the exact chain breaks the ladder too (put K=20 below its bound)
        assert "[FAIL] put K=20 " in out.getvalue()
        summary = out.getvalue().splitlines()[-1]
        assert summary.startswith("selfcheck: rough-heston T=1, 22 prices: ")

    def test_same_result_under_python_O(self):
        argv = ["-m", "roughchain", "selfcheck", "--set", "numerics.n_x=20",
                "--set", "numerics.m_v=20"]
        plain, optimized = (subprocess.run([sys.executable, *flags, *argv], capture_output=True,
                                           text=True, env=_child_env(), timeout=120)
                            for flags in ([], ["-O"]))
        assert plain.returncode == 4 and "[FAIL] call K=0 " in plain.stdout, plain.stderr
        assert (optimized.stdout, optimized.returncode) == (plain.stdout, plain.returncode)

    def test_product_code_has_no_assert(self):
        src = Path(roughchain.__file__).resolve().parent
        for path in src.glob("*.py"):
            tree = ast.parse(path.read_text())
            assert not any(isinstance(n, ast.Assert) for n in ast.walk(tree)), path.name


class TestFamilySwitch:
    def test_new_name_takes_its_preset_params(self, tmp_path):
        code, out = _run("price", tmp_path, config=SMALL, overrides=["model.name=rough-sabr"])
        assert code == 0, out
        cfg = json.loads(out)["provenance"]["config"]
        assert cfg["model"]["params"] == presets.model_params("rough-sabr")

    def test_config_file_name_takes_its_preset_params(self, tmp_path):
        doc = dict(SMALL, model={"name": "rough-heston-sabr"})
        code, out = _run("price", tmp_path, config=doc)
        assert code == 0, out
        cfg = json.loads(out)["provenance"]["config"]
        assert cfg["model"]["params"] == presets.model_params("rough-heston-sabr")

    def test_preset_params_take_later_entry_overrides(self):
        cfg = apply_overrides(default_config(),
                              ["model.name=rough-sabr", "model.params.beta=0.5"])
        assert cfg["model"]["params"] == dict(presets.model_params("rough-sabr"), beta=0.5)

    @pytest.mark.parametrize("order", [1, -1])
    def test_explicit_params_win(self, tmp_path, order):
        params = {"sigma": 0.6, "beta": 0.5}
        sets = ["model.name=rough-sabr", "model.params=" + json.dumps(params)][::order]
        code, out = _run("price", tmp_path, config=SMALL, overrides=sets)
        assert code == 0, out
        doc = dict(SMALL, model={"name": "rough-sabr", "params": params})
        code, whole = _run("price", tmp_path, config=doc)
        assert code == 0, whole
        assert json.loads(out)["price_repr"] == json.loads(whole)["price_repr"]
        assert json.loads(out)["provenance"]["config"]["model"]["params"] == params
