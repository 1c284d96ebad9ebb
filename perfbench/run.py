"""Pricing benchmark for roughchain: two workloads, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload warm-mix --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload
    python3 perfbench/run.py --compare A.json B.json        # price digests

One run imports roughchain from ``src/`` of the checkout it sits in, sets the
workload up several times (the last set-up is kept), then runs passes over
the workload's ops, each pass in a seed-shuffled order, until ``--seconds``
have passed and at least one whole pass is done.  It is a closed loop: one op
at a time in one process.  The BLAS pool is pinned to one thread through the
environment before numpy is imported.  ``--workload all`` runs each workload
in a child process, so peak memory is per workload.

Times are normalised to the host's speed.  The shared host this was written
on runs a process at one of two speeds about 1.4 times apart, per CPU, and
has minutes in which every CPU stays slow, which moved whole-run medians by
25 %.  So a fixed reference kernel (reference.py, no roughchain code) is
timed between ops, and each op's latency is divided by the host slowdown
measured around it: the end-to-end times read as seconds on the host in its
fast state, and only a change in roughchain moves them.  The run file and
the printed report also give every time as measured.  The runner also moves
itself round robin over the CPUs it may use, one CPU per pass and per set-up
repetition, so every op is timed on every CPU.

An op's latency is the median of its untraced executions, so the timing
metrics describe the same op set whatever share of a last pass fits in the
run: ``price_p50_s`` and ``price_tail_s`` are taken over the ops that
succeed, and ``prices_per_s`` is their number divided by the sum of all op
latencies.  ``setup_s`` is the median time a fresh interpreter takes to
import roughchain (a child process per repetition) plus the median set-up.
``attempted`` and ``failed`` count the workload's distinct ops, each run at
least once, with identical outputs on every execution (checked), so they
repeat exactly; ``failed_frac`` is their ratio.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the ``end_to_end`` metrics of BENCHMARK.json.  With ``--trace 1``
the workload's functions are wrapped from outside (see tracing.py), untraced
and traced passes alternate, the metrics are the ``per_layer`` ones, and the
tracing overhead (traced minus untraced time of a pass's ops) is printed as
``trace.overhead_s``.  The lines above the JSON print every metric of the
workload, including the accuracy metrics that only one workload produces
and so are not in BENCHMARK.json.  A run file with provenance, metrics,
check results, the price digest (17 significant digits) and, when traced,
the spans is written to ``perfbench/runs/``.

An op fails when it raises, or returns a non-finite or negative number; it
then counts in ``failed`` and not in the latency statistics.  ``correct`` is
false when the same op gives different outputs within a run, when a
consistency check of the workload fails, or when an op raises something
other than a roughchain error.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import os  # noqa: E402

BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS
os.environ.pop("ROUGHCHAIN_CONFIG", None)  # `roughchain price` must use its defaults

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
SETUP_REPS = 5

ALL = ("warm-mix", "sweep-cold")

# every end-to-end metric: unit, better, workloads that report it
E2E = {
    "setup_s": ("s", "lower", ALL),
    "prices_per_s": ("1/s", "higher", ALL),
    "price_p50_s": ("s", "lower", ALL),
    "price_tail_s": ("s", "lower", ALL),
    "peak_rss_mb": ("MB", "lower", ALL),
    "failed_frac": ("ratio", "lower", ALL),
    "forward_defect_max": ("ratio", "lower", ("warm-mix",)),
    "noarb_violations": ("count", "lower", ("warm-mix",)),
    "fast_coupled_gap_max": ("ratio", "lower", ("warm-mix",)),
    "mc_stderr_mean": ("price", "lower", ("warm-mix",)),
}


CPUS = sorted(os.sched_getaffinity(0))


def pin(turn: int) -> None:
    """Move this process to the CPU whose turn it is (round robin)."""
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[turn % len(CPUS)]})


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise SetupError(f"cannot read {path.name}: {exc}") from exc


def load_engine():
    """Import roughchain from this checkout's src/, never from elsewhere."""
    if not (SRC / "roughchain" / "__init__.py").is_file():
        raise SetupError("src/roughchain not found: run from a roughchain checkout")
    sys.path.insert(0, str(SRC))
    import roughchain
    import roughchain.cli  # noqa: F401  (cli is not imported by the package)

    if Path(roughchain.__file__).resolve().parent != SRC / "roughchain":
        raise SetupError(f"imported roughchain from {roughchain.__file__}, not src/")
    return roughchain


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "roughchain").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args, workload) -> dict:
    import numpy
    import scipy
    from reference import REFERENCE_S

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(CPUS),
        "blas_vendor": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads_pinned": int(BLAS_THREADS),
        "reference_s": REFERENCE_S,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "os_release": os.uname().release,
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "workload": workload.name,
        "grid": workload.grid,
        "setup_reps": 1 if args.trace else SETUP_REPS,
    }


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it).

    The highest percentile with at least ten samples beyond it; below twenty
    samples that percentile would not exceed the median, so the maximum is
    reported instead.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n >= 20:
        return xs[n - 11], 100.0 * (n - 10) / n, 10
    return xs[-1], 100.0, 0


class Record(NamedTuple):
    traced: bool
    key: str
    latency: float      # seconds, as measured
    slowdown: float     # host slowdown around the op (reference.py)
    outputs: tuple | None
    error: str | None


def run_passes(ops, seed, seconds, rc, tracer, reference, bad_types):
    """Run seed-shuffled passes over the ops until ``seconds`` have passed.

    An untraced run stops at the first op boundary after ``seconds`` once a
    whole pass is done, so every op runs at least once.  A traced run
    alternates untraced and traced passes and stops at a pass boundary after
    at least one of each.
    """
    from workloads import OpFailed

    known = (rc.RoughChainError, OpFailed)
    rng = random.Random(seed)
    records = []
    walls = {False: [], True: []}
    begin = time.perf_counter()
    n = 0
    while True:
        traced = tracer is not None and n % 2 == 1
        order = list(ops)
        rng.shuffle(order)
        pin(n // 2 if tracer is not None else n)   # traced or not, both CPUs
        context = tracer.installed(rc) if traced else contextlib.nullcontext()
        with context:
            start = time.perf_counter()
            for i, op in enumerate(order):
                if traced:
                    tracer.op = (n, i)
                error = None
                slowdown = reference.slowdown()
                t0 = time.perf_counter()
                try:
                    outputs = tuple(float(x) for x in op.call())
                except known as exc:
                    outputs, error = None, f"{type(exc).__name__}: {exc}"
                except Exception as exc:  # keep measuring; reported as incorrect
                    outputs, error = None, f"{type(exc).__name__}: {exc}"
                    bad_types.append(traceback.format_exc())
                latency = time.perf_counter() - t0
                if outputs is not None and not all(math.isfinite(x) and x >= 0 for x in outputs):
                    error = f"non-finite or negative output {outputs}"
                records.append(Record(traced, op.key, latency, slowdown, outputs, error))
                if tracer is None and n >= 1 and time.perf_counter() - begin >= seconds:
                    break
            walls[traced].append(time.perf_counter() - start)
        n += 1
        if time.perf_counter() - begin >= seconds and (tracer is None or n >= 2):
            # an op's slowdown is the mean of the samples before and after it
            marks = [r.slowdown for r in records] + [reference.slowdown()]
            records = [r._replace(slowdown=(a + b) / 2)
                       for r, a, b in zip(records, marks, marks[1:])]
            return records, walls


def run_workload(args, spec) -> int:
    rc = load_engine()
    import_s = time.perf_counter() - T_START
    import tracing
    from reference import Reference
    from workloads import WORKLOADS, Engine

    reference = Reference()

    eng = Engine(rc)
    wl = WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None

    setup = {"import_s": [], "build_s": [], "slowdowns": []}
    if tracer is not None:
        with tracer.installed(rc):
            state = wl.setup(eng)
    else:
        for rep in range(SETUP_REPS):
            state = None
            pin(rep)
            gc.collect()
            before = reference.slowdown()
            setup["import_s"].append(timed_import())
            middle = reference.slowdown()
            t0 = time.perf_counter()
            state = wl.setup(eng)
            setup["build_s"].append(time.perf_counter() - t0)
            setup["slowdowns"].append((before, middle, reference.slowdown()))
    ops = wl.ops(eng, state, args.seed)
    gc.collect()

    bad_types: list[str] = []
    records, walls = run_passes(ops, args.seed, args.seconds, rc, tracer, reference, bad_types)

    checks, first = [], {}
    for _, key, _, _, out, error in records:
        shown = [format(x, ".17g") for x in out] if out is not None else [f"error: {error}"]
        if key in first and first[key][0] != shown:
            checks.append(f"{key}: outputs differ between passes")
        first.setdefault(key, (shown, out, error))
    digest = {f"{wl.name}/{key}": shown for key, (shown, _, _) in first.items()}
    prices = {key: out for key, (_, out, error) in first.items() if error is None}
    accuracy, wl_checks, details = wl.assess(eng, state, prices)
    checks += wl_checks
    checks += [f"unexpected exception: {tb.strip().splitlines()[-1]}" for tb in bad_types]

    failures = sorted({(r.key, r.error) for r in records if r.error is not None})
    failed_keys = {key for key, _ in failures}
    attempted = len(first)
    untraced = [r for r in records if not r.traced]
    latency_s = per_op(untraced, lambda r: r.latency)
    slowdown = per_op(untraced, lambda r: r.slowdown)
    timing = timing_metrics(per_op(untraced, lambda r: r.latency / r.slowdown), failed_keys)
    raw = timing_metrics(latency_s, failed_keys)
    tail_info = timing.pop("price_tail")
    raw.pop("price_tail")
    timing["setup_s"] = raw["setup_s"] = math.nan   # set-up is timed untraced only
    if setup["build_s"]:
        marks = setup["slowdowns"]
        timing["setup_s"] = (
            statistics.median(t / ((a + b) / 2) for t, (a, b, _) in zip(setup["import_s"], marks))
            + statistics.median(t / ((b + c) / 2) for t, (_, b, c) in zip(setup["build_s"], marks)))
        raw["setup_s"] = statistics.median(setup["import_s"]) + statistics.median(setup["build_s"])
    metrics = {
        **timing,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": len(failed_keys) / attempted,
        **accuracy,
    }
    layers = {}
    if tracer is not None:
        n_traced = len(walls[True])
        traced_prices = sum(1 for r in records if r.traced)
        layers = tracing.layer_metrics(tracer.spans, traced_prices, n_traced)
        # traced runs time whole passes only; op times at the reference speed
        pass_s = {flag: sum(r.latency / r.slowdown for r in records if r.traced == flag)
                  / len(walls[flag]) for flag in (False, True)}
        overhead = pass_s[True] - pass_s[False]
        layers["trace.overhead_s"] = (overhead, "s")

    report = {
        "provenance": provenance(args, wl),
        "end_to_end": {
            name: {"value": metrics[name], "unit": E2E[name][0], "better": E2E[name][1]}
            for name in E2E if wl.name in E2E[name][2]
        },
        "price_tail": tail_info,
        "as_measured": raw,
        "import_s": import_s,
        "setup_reps": setup,
        "passes": {"untraced_s": walls[False], "traced_s": walls[True]},
        "latency_s": latency_s,
        "slowdown": slowdown,
        "attempted": attempted,
        "failed": len(failed_keys),
        "executions": len(records),
        "failures": failures,
        "checks_failed": checks,
        "details": details,
        "per_layer": {name: {"value": v, "unit": u} for name, (v, u) in layers.items()},
        "digest": digest,
    }
    if tracer is not None:
        report["spans"] = {
            "fields": ["name", "start", "end", "parent", "op"],
            "rows": [[s.name, s.start, s.end, s.parent, s.op] for s in tracer.spans],
        }
    RUNS.mkdir(exist_ok=True)
    out_path = run_file(wl.name, args.seed, args.trace)
    out_path.write_text(json.dumps(report, indent=1, default=str) + "\n")

    print_report(wl.name, report, spec, out_path)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = report["per_layer"] if args.trace else report["end_to_end"]
    line = {}
    for entry in wanted:
        got = values.get(entry["name"])
        if got is None or not math.isfinite(got["value"]) or got["unit"] != entry["unit"]:
            print(f"error: metric {entry['name']} missing, non-finite or in another unit: {got}",
                  file=sys.stderr)
            return 3
        line[entry["name"]] = {"value": got["value"], "unit": got["unit"]}
    print(json.dumps({"correct": not checks, "attempted": attempted,
                      "failed": len(failed_keys), "metrics": line}))
    return 0


def run_file(workload: str, seed: int, trace: int) -> Path:
    return RUNS / f"{workload}-seed{seed}-trace{trace}.json"


def timed_import() -> float:
    """Seconds a fresh interpreter takes to start and import roughchain."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import roughchain, roughchain.cli"
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code, str(SRC)], check=True)
    return time.perf_counter() - t0


def per_op(records, value) -> dict:
    """``value`` of every record, per op, in pass order."""
    table: dict[str, list[float]] = {}
    for r in records:
        table.setdefault(r.key, []).append(value(r))
    return table


def timing_metrics(table: dict, failed_keys: set) -> dict:
    """prices_per_s, price_p50_s and price_tail_s from per-op latencies.

    An op's latency is the median of its executions; p50 and tail are taken
    over the ops that succeed, and prices_per_s is their number over the sum
    of every op's latency.
    """
    typical = {key: statistics.median(xs) for key, xs in table.items()}
    ok = [lat for key, lat in typical.items() if key not in failed_keys]
    value, pct, beyond = tail(ok) if ok else (math.nan, 0.0, 0)
    return {
        "prices_per_s": len(ok) / sum(typical.values()),
        "price_p50_s": statistics.median(ok) if ok else math.nan,
        "price_tail_s": value,
        "price_tail": {"percentile": pct, "samples_beyond": beyond, "samples": len(ok)},
    }


def print_report(name, report, spec, path):
    prov = report["provenance"]
    print(f"== {name}  seed={prov['seed']}  {prov['grid']}")
    print(f"   nproc={prov['nproc']}  {prov['blas_vendor']} {prov['blas_version']} "
          f"threads={prov['blas_threads_pinned']}  python {prov['python']}  "
          f"numpy {prov['numpy']}  scipy {prov['scipy']}  commit {prov['git_commit'][:12]}")
    gated = {e["name"]: e["bound"] for e in spec["end_to_end"]}
    if not prov["trace"]:
        for metric, m in report["end_to_end"].items():
            note = f"bound {gated[metric]}" if metric in gated else "reported, not gated"
            print(f"   {metric:22s} {m['value']:<24.10g} {m['unit']:6s} {m['better']:6s} ({note})")
        t = report["price_tail"]
        print(f"   price_tail_s is p{t['percentile']:.1f} of {t['samples']} prices "
              f"({t['samples_beyond']} beyond it)")
        print("   times above are at the reference speed; as measured: " + "  ".join(
            f"{k} {v:.6g}" for k, v in report["as_measured"].items()))
    for metric, m in report["per_layer"].items():
        print(f"   {metric:42s} {m['value']:<24.10g} {m['unit']}")
    print(f"   attempted={report['attempted']} failed={report['failed']} "
          f"checks_failed={len(report['checks_failed'])}")
    for key, error in report["failures"]:
        print(f"   failed op {key}: {error}")
    for check in report["checks_failed"]:
        print(f"   check failed: {check}")
    print(f"   run file {path.relative_to(ROOT)}")


def run_all(args) -> int:
    """Every workload in its own child process, then one combined table."""
    results, files = {}, {}
    for name in ALL:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
        files[name] = json.loads(run_file(name, args.seed, args.trace).read_text())

    section = "per_layer" if args.trace else "end_to_end"
    names = list(E2E) if not args.trace else list(files[ALL[0]][section])
    print("\n== all workloads: " + section.replace("_", "-"))
    print(f"   {'metric':42s}" + "".join(f"{w:>16s}" for w in ALL))
    for metric in names:
        cells = []
        for w in ALL:
            m = files[w][section].get(metric)
            cells.append(f"{m['value']:16.6g}" if m else f"{'-':>16s}")
        unit = E2E[metric][0] if not args.trace else files[ALL[0]][section][metric]["unit"]
        print(f"   {metric + ' [' + unit + ']':42s}" + "".join(cells))
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


def compare(paths) -> int:
    """Max relative change of the price digests of two sets of run files."""
    sides = []
    for group in paths:
        digest = {}
        for p in group.split(","):
            digest.update(json.loads(Path(p).read_text())["digest"])
        sides.append(digest)
    old, new = sides
    common = sorted(set(old) & set(new))
    worst, worst_key = 0.0, None
    for key in common:
        for a, b in zip(old[key], new[key]):
            change = _rel_change(a, b)
            if change > worst:
                worst, worst_key = change, key
    print(f"compared {len(common)} prices; {len(set(old) - set(new))} only in the first set, "
          f"{len(set(new) - set(old))} only in the second")
    print(f"max relative change {worst:.3e}" + (f" at {worst_key}" if worst_key else ""))
    print(json.dumps({"compared": len(common), "max_rel_change": worst, "at": worst_key}))
    return 0


def _rel_change(a: str, b: str) -> float:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return 0.0 if a == b else math.inf
    if math.isnan(x) or math.isnan(y):
        return 0.0 if math.isnan(x) and math.isnan(y) else math.inf
    if x == y:
        return 0.0
    return abs(y - x) / abs(x) if x != 0 else math.inf


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=ALL + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="compare price digests; each side is a comma-separated "
                             "list of run files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(args.compare)
    try:
        spec = load_spec()
        if args.workload == "all":
            return run_all(args)
        return run_workload(args, spec)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
