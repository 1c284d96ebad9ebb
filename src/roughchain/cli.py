"""Command-line interface: price, table, compare-mc and selfcheck workflows.

Configuration is a single JSON document; every block mirrors one module's
parameters, and a block or key that ``default_config`` lacks is rejected.
``--set path=value`` overrides individual entries (dotted paths, JSON-parsed
values) and is recorded in the output provenance.  All numeric output is printed with 17 significant digits.

Every command discounts at the model's r, the rate the chain drifts at.
``selfcheck`` checks the configured family's European call and put ladder
on the configured route against the model-free constraints
(``pricing.ladder_violations``); it ignores ``bermudan_dates`` and the
option's kind, strike, barrier.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 a model-free price check failed.
"""

from __future__ import annotations

import argparse
import copy
import io
import json
import math
import os
import sys

from . import ctmc, presets
from .errors import ConfigError, NumericalError, ParameterError, RoughChainError
from .kernel import KernelSpec
from .mc import NON_FINITE_ADVICE, McConfig, mc_price
from .models import MODEL_NAMES, MarketParams, make_model
from .pricing import OptionSpec, ladder_violations, price_european_coupled, price_fast
from .pricing import price_bermudan  # noqa: F401 (perfbench traces it here)

__all__ = ["default_config", "parse_config", "apply_overrides", "run", "main"]

_ENV_CONFIG = "ROUGHCHAIN_CONFIG"

# table sweeps: (column -> config entry it sets, swept values)
_SWEEPS = {
    "eps": ({"eps": ("kernel", "eps")}, (1e-4, 1e-5, 1e-6, 1e-7, 1e-8)),
    "grid": ({"n": ("numerics", "n_x"), "m": ("numerics", "m_v")}, (20, 40, 60, 80, 100)),
}

_LADDER = tuple(i / 5 for i in range(11))  # selfcheck call and put strikes / s0


def default_config() -> dict:
    """Shipped default: rough Heston, shared parameter set, fast method."""
    return {
        "model": {"name": "rough-heston", "params": presets.model_params("rough-heston")},
        "market": dict(presets.BASE_MARKET),
        "kernel": dict(presets.BASE_KERNEL),
        "numerics": {
            "n_x": 100, "m_v": 100, "method": "fast",
            "formulation": "stable", "v_bounds": None, "x_bounds": None,
            "bermudan_dates": None,
        },
        "option": dict(presets.BASE_OPTION, barrier=None),
        "mc": {"paths": 100000, "steps": 256, "seed": 20240, "antithetic": False},
    }


def parse_config(doc: dict) -> dict:
    """Validate a config document against the keys of ``default_config``.

    Returns the defaults updated with deep copies of the document's entries;
    a ``model.name`` without ``model.params`` takes its family's presets.
    """
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    cfg = default_config()
    for block, entries in doc.items():
        if block not in cfg:
            raise ConfigError(f"unknown config block {block!r}")
        if not isinstance(entries, dict):
            raise ConfigError(f"config block {block!r} must be an object")
        for key in entries:
            if key not in cfg[block]:
                raise ConfigError(f"unknown key {block}.{key}")
        cfg[block].update(copy.deepcopy(entries))
    model = cfg["model"]
    if "params" not in doc.get("model", {}) and model["name"] in MODEL_NAMES:
        model["params"] = presets.model_params(model["name"])
    for block, key in (("numerics", "n_x"), ("numerics", "m_v"),
                       ("mc", "paths"), ("mc", "steps"), ("mc", "seed")):
        value = cfg[block][key]
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{block}.{key} must be an integer, got {value!r}")
    if not isinstance(cfg["mc"]["antithetic"], bool):
        raise ConfigError(f"mc.antithetic must be true or false, got {cfg['mc']['antithetic']!r}")
    num, v0 = cfg["numerics"], cfg["market"]["v0"]
    for key in ("n_x", "m_v"):
        if num[key] < 3:
            raise ConfigError(f"numerics.{key} must be at least 3, got {num[key]}")
    for key in ("v_bounds", "x_bounds"):
        value = num[key]
        if value is not None and not (isinstance(value, (list, tuple)) and len(value) == 2
                                      and all(type(b) in (int, float) for b in value)):
            raise ConfigError(f"numerics.{key} must be null or two numbers, got {value!r}")
        if value is not None and not value[0] < value[1]:
            raise ConfigError(f"numerics.{key} must be [lo, hi] with lo < hi, got {value!r}")
    if num["v_bounds"] is None and type(v0) in (int, float) and not v0 > 0:
        raise ConfigError(f"market.v0 must be positive when numerics.v_bounds is null "
                          f"(the default grid is [1e-3 v0, 4 v0]), got {v0!r}")
    return cfg


def apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    """Apply --set path=value entries (values parsed as JSON, else strings).

    A new ``model.name`` brings its family's presets unless ``model.params`` is set.
    """
    out = copy.deepcopy(cfg)
    paths = [item.split("=", 1)[0] for item in overrides]
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects path=value, got {item!r}")
        path, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        parts = path.split(".")
        node = out
        for p in parts[:-1]:
            if not isinstance(node, dict) or p not in node:
                raise ConfigError(f"unknown override path {path!r}")
            node = node[p]
        if parts[-1] not in node:
            raise ConfigError(f"unknown override path {path!r}")
        if (path == "model.name" and value in MODEL_NAMES and value != node["name"]
                and "model.params" not in paths):
            node["params"] = presets.model_params(value)
        node[parts[-1]] = value
    return parse_config(out)


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _build_system(cfg: dict) -> ctmc.GeneratorSet:
    model = make_model(cfg["model"]["name"], cfg["model"]["params"])
    market = MarketParams(**cfg["market"])
    kernel = KernelSpec(**cfg["kernel"])
    num = cfg["numerics"]
    return ctmc.assemble(
        model, market, kernel,
        n=num["n_x"], m=num["m_v"],
        v_bounds=tuple(num["v_bounds"]) if num["v_bounds"] else None,
        x_bounds=tuple(num["x_bounds"]) if num["x_bounds"] else None,
        formulation=num["formulation"],
    )


def _option_from(cfg: dict) -> OptionSpec:
    opt = cfg["option"]
    return OptionSpec(
        kind=opt["kind"], strike=opt["strike"], maturity=opt["maturity"],
        barrier=opt["barrier"] or None, bermudan_dates=cfg["numerics"]["bermudan_dates"],
    )


def _price(cfg: dict, gens: ctmc.GeneratorSet, option: OptionSpec | None = None):
    """Price ``option`` (default: the configured one) on the configured route."""
    option = option or _option_from(cfg)
    num = cfg["numerics"]
    if num["method"] == "coupled":
        return price_european_coupled(option, gens)
    if num["method"] == "fast":
        return price_fast(option, gens)
    raise ConfigError(f"unknown numerics.method {num['method']!r}")


def _cmd_price(cfg: dict, provenance: dict, out) -> int:
    result = _price(cfg, _build_system(cfg))
    doc = {
        "price": float(result.price),
        "price_repr": _fmt(result.price),
        "diagnostics": result.diagnostics,
        "provenance": provenance,
    }
    json.dump(doc, out, indent=2, default=float)
    out.write("\n")
    return 0


def _option_flavor(cfg) -> str:
    if cfg["numerics"].get("bermudan_dates"):
        return "american"
    if cfg["option"].get("barrier"):
        return "barrier"
    return "european"


def _cmd_table(cfg: dict, provenance: dict, out, sweep: str) -> int:
    if sweep not in _SWEEPS:
        raise ConfigError(f"unknown sweep {sweep!r} (use 'eps' or 'grid')")
    columns, points = _SWEEPS[sweep]
    name = cfg["model"]["name"]
    flavor = _option_flavor(cfg)
    bench = presets.REFERENCE_PRICES.get(name, {}).get(flavor)
    rows = []
    for point in points:
        c = copy.deepcopy(cfg)
        for block, key in columns.values():
            c[block][key] = point
        price = _price(c, _build_system(c)).price
        rel = abs(price - bench) / bench if bench else float("nan")
        values = [point] * len(columns) + [price, bench or float("nan"), rel]
        rows.append(",".join(map(_fmt, values)))
    out.write(f"# model={name} option={flavor} overrides={provenance['overrides']}\n")
    out.write(",".join([*columns, "price", "benchmark", "rel_error"]) + "\n")
    out.write("\n".join(rows) + "\n")
    return 0


def _cmd_compare_mc(cfg: dict, provenance: dict, out) -> int:
    if cfg["numerics"]["bermudan_dates"] is not None:
        raise ConfigError("compare-mc cannot check a Bermudan price: mc_price has no "
                          "early exercise; unset numerics.bermudan_dates")
    gens = _build_system(cfg)
    result = _price(cfg, gens)
    mcc = McConfig(**cfg["mc"])
    estimate, stderr = mc_price(_option_from(cfg), gens.model, gens.market, gens.kernel, mcc)
    if not math.isfinite(estimate):
        raise NumericalError(f"the Monte Carlo estimate of {gens.model.name} is not finite: "
                             f"{NON_FINITE_ADVICE}")
    z = (result.price - estimate) / stderr if stderr > 0 else float("inf")
    doc = {
        "ctmc_price": float(result.price),
        "mc_estimate": float(estimate),
        "mc_stderr": float(stderr),
        "z_score": float(z),
        "paths": mcc.paths,
        "steps": mcc.steps,
        "seed": mcc.seed,
        "provenance": provenance,
    }
    json.dump(doc, out, indent=2, default=float)
    out.write("\n")
    return 0


def _cmd_selfcheck(cfg: dict, out) -> int:
    gens = _build_system(cfg)
    s0 = gens.market.s0
    r, q = gens.model.rates
    strikes = [s0 * m for m in _LADDER]
    failures = []
    for kind in ("call", "put"):  # one cold p_T, then a dot product per strike
        specs = [OptionSpec(kind, k, cfg["option"]["maturity"]) for k in strikes]
        t = specs[0].maturity
        prices = [_price(cfg, gens, spec).price for spec in specs]
        failures += ladder_violations(kind, strikes, prices, s0, r, q, t)
    for line in failures:
        out.write(f"[FAIL] {line}\n")
    out.write(f"selfcheck: {cfg['model']['name']} T={t:g}, {2 * len(strikes)} prices: "
              f"{len(failures)} violation(s)\n")
    return 4 if failures else 0


def run(command: str, config_path: str | None, overrides: list[str],
        out=None, sweep: str = "eps") -> int:
    """Execute one workflow; returns the process exit code."""
    out = out or sys.stdout
    try:
        if config_path is None:
            config_path = os.environ.get(_ENV_CONFIG)
        if config_path:
            with open(config_path) as fh:
                doc = json.load(fh)
        else:
            doc = {}
        cfg = parse_config(doc)
        cfg = apply_overrides(cfg, overrides)
        provenance = {
            "config_path": config_path,
            "overrides": list(overrides),
            "config": cfg,
        }
    except (OSError, json.JSONDecodeError, ConfigError, TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if command == "price":
            return _cmd_price(cfg, provenance, out)
        if command == "table":
            return _cmd_table(cfg, provenance, out, sweep)
        if command == "compare-mc":
            return _cmd_compare_mc(cfg, provenance, out)
        if command == "selfcheck":
            return _cmd_selfcheck(cfg, out)
        print(f"unknown command {command!r}", file=sys.stderr)
        return 2
    except (ConfigError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except RoughChainError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="roughchain",
        description="Markov-chain pricing engine for rough stochastic local volatility models",
    )
    parser.add_argument("command", choices=["price", "table", "compare-mc", "selfcheck"])
    parser.add_argument("--config", help=f"JSON config path (default ${_ENV_CONFIG} or built-in)")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="PATH=VALUE", help="override a config entry (repeatable)")
    parser.add_argument("--sweep", choices=["eps", "grid"], default="eps",
                        help="table sweep dimension")
    parser.add_argument("--out", help="write output to this file instead of stdout")
    args = parser.parse_args(argv)

    if args.out:
        buf = io.StringIO()
        code = run(args.command, args.config, args.overrides, buf, args.sweep)
        if buf.getvalue():  # a run that wrote nothing leaves the target as it was
            with open(args.out, "w") as fh:
                fh.write(buf.getvalue())
        return code
    return run(args.command, args.config, args.overrides, sys.stdout, args.sweep)


if __name__ == "__main__":
    raise SystemExit(main())
