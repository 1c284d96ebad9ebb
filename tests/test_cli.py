import io
import json
from pathlib import Path

import pytest

from roughchain.cli import apply_overrides, default_config, parse_config, run


def _run(command, tmp_path, config=None, overrides=(), sweep="eps"):
    buf = io.StringIO()
    path = None
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        path = str(path)
    code = run(command, path, list(overrides), out=buf, sweep=sweep)
    return code, buf.getvalue()


SMALL = {"numerics": {"n_x": 20, "m_v": 20, "n_slices": 32}}


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
    ])
    def test_malformed_value_exit_code(self, tmp_path, override):
        code, _ = _run("price", tmp_path, config=SMALL, overrides=[override])
        assert code == 2

    def test_numerical_failure_exit_code(self, tmp_path):
        code, _ = _run(
            "price", tmp_path, config=SMALL, overrides=["numerics.rate_policy=error"]
        )
        assert code == 3


class TestTableCommand:
    def test_eps_sweep_shape(self, tmp_path):
        code, out = _run("table", tmp_path, config=SMALL)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "eps,price,benchmark,rel_error"
        assert len(lines) == 7  # comment + header + 5 eps rows

    def test_grid_sweep_shape(self, tmp_path):
        cfg = {"numerics": {"n_slices": 32}}
        code, out = _run("table", tmp_path, config=cfg, sweep="grid")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1] == "n,m,price,benchmark,rel_error"
        assert len(lines) == 7


class TestCompareMc:
    CFG = {
        "numerics": {"n_x": 20, "m_v": 20, "n_slices": 32},
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


def test_env_var_config(tmp_path, monkeypatch):
    path = tmp_path / "env.json"
    path.write_text(json.dumps(SMALL))
    monkeypatch.setenv("ROUGHCHAIN_CONFIG", str(path))
    buf = io.StringIO()
    code = run("price", None, [], out=buf)
    assert code == 0
    assert json.loads(buf.getvalue())["diagnostics"]["n"] == 20


def test_selfcheck_passes(tmp_path):
    code, out = _run("selfcheck", tmp_path)
    assert code == 0, out
    assert "[FAIL]" not in out
