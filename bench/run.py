"""towb benchmark: drives the CLI in-process, one command at a time.

Usage, from the root of a towb checkout::

    python3 bench/run.py --workload certify --seed 1 --seconds 36 --trace 0

A run generates the workload's inputs from ``--seed``, then repeats passes
of the workload (see ``workloads.py``) through ``towb.cli.main`` until
``--seconds`` have passed, checking every command's output (see
``checks.py``).  After each pass it times one ``setup_s`` sample in a fresh
interpreter, so setup samples are spread over the run as the passes are.
It prints a table of every metric, then one JSON line with the metrics
named in BENCHMARK.json: the ``end_to_end`` ones from an untraced run
(``--trace 0``), the ``per_layer`` ones from a traced run (``--trace 1``),
where untraced and traced passes alternate so the tracing overhead is
measured too.

The generated inputs, the result with its environment, and the traced
spans go to ``.bench_build/towb/<workload>-seed<n>-trace<k>/``.
``--negative-control`` perturbs one stored reference value; the run must
then report failures.  Exit code 0 when every output was correct, 1 when
some were not, 2 when the towb sources are missing or an argument is bad.
"""

from __future__ import annotations

import os

# BLAS and OpenMP threads are pinned before numpy is first imported.
THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import copy  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "towb"
SETUP_REPEATS = 5   # least setup samples per run; one is taken after each pass

# Every end-to-end metric with its unit; the subcommand sums apply only to
# the workloads that run the subcommand.
E2E_UNITS = {
    "setup_s": "s", "pass_s": "s",
    "verify_s": "s", "harmonic_s": "s", "defect_s": "s", "measure_s": "s",
    "sample_s": "s", "quasi_s": "s", "query_p50_s": "s", "query_p90_s": "s",
    "paths_per_s": "1/s", "failed_frac": "frac", "peak_rss_mb": "MB",
}

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import towb
from towb.config import load_config
from towb.transfer import TransferOperator
for path in sys.argv[2:]:
    cfg = load_config(path)
    TransferOperator(cfg.build_system(), cfg.cells)
    cfg.build_measure()
print(time.perf_counter() - t0)
"""


def measure_setup(configs: list[str]) -> float:
    """Fresh-interpreter ``import towb`` plus config load and the system,
    operator and measure build of every config the workload uses."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(SRC), *configs],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def invoke(cli, argv: list[str]) -> tuple[int | str, str]:
    """One CLI command in-process; returns its exit code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a traceback is a wrong outcome, not a crash
            code = "exception"
            err.write(traceback.format_exc())
    return code, err.getvalue()


class StepCounter:
    """Counts path-steps drawn by ``sample_paths`` (for ``paths_per_s``);
    a bare counter with no clock, about 150 calls per pass."""

    def __init__(self):
        import towb.solenoid as solenoid
        orig = solenoid.sample_paths
        self.steps = 0

        def counted(pm, bases, depth, rng):
            self.steps += int(getattr(bases, "size", 1)) * depth
            return orig(pm, bases, depth, rng)

        tracing.rebind(orig, counted)


def run_pass(cli, cmds, report: Path, counter: StepCounter) -> dict:
    """Run one pass; outputs are read back here and checked afterwards."""
    outcomes = []
    t_pass = time.perf_counter()
    for cmd in cmds:
        report.unlink(missing_ok=True)
        steps0 = counter.steps
        t0 = time.perf_counter()
        code, err = invoke(cli, cmd.argv + ["--json", str(report)])
        dt = time.perf_counter() - t0
        text = report.read_text(encoding="utf-8") if report.exists() else None
        outcomes.append((cmd, code, err, text, dt, counter.steps - steps0))
    pass_s = time.perf_counter() - t_pass

    sums: dict[str, float] = {}
    queries, problems = [], []
    steps = 0
    for cmd, code, err, text, dt, cmd_steps in outcomes:
        sums[cmd.metric] = sums.get(cmd.metric, 0.0) + dt
        if cmd.metric == "query":
            queries.append(dt)
        if cmd.metric == "sample":
            steps += cmd_steps
        found = checks.against_expected(
            code, json.loads(text) if text else None, cmd.expect)
        if found:
            problems.append({"argv": cmd.argv, "problems": found,
                             "stderr": err[-2000:]})
    out = {"pass_s": pass_s, "commands": len(cmds), "problems": problems}
    for metric, total in sums.items():
        if metric != "query":
            out[f"{metric}_s"] = total
    if queries:
        deciles = statistics.quantiles(queries, n=10)
        out["query_p50_s"] = statistics.median(queries)
        out["query_p90_s"] = deciles[8]
        out["queries"] = len(queries)
    if steps:
        out["paths_per_s"] = steps / sums["sample"]
    return out


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    sha = None   # a plain export of the tree is not a git checkout
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30,
                             ).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "towb").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_name,
            "threads": {v: os.environ[v] for v in THREAD_VARS},
            "nproc": os.cpu_count(), "git_sha": sha,
            "src_sha256": digest.hexdigest()[:16],
            "platform": platform.platform()}


def median_of(passes: list[dict], key: str) -> tuple[float | None, int]:
    vals = [p[key] for p in passes if key in p]
    return (statistics.median(vals), len(vals)) if vals else (None, 0)


def layer_split_problems(workload: str, layer: dict) -> list[str]:
    """Hard layer-isolation checks of a traced pass."""
    found = []
    if workload in ("verify", "paths") and layer["grid.pushforward_n"] != 0:
        found.append(f"grid.pushforward ran {layer['grid.pushforward_n']} "
                     f"times on {workload}")
    if workload == "certify" and layer["harmonic.solve_n"] != 0:
        found.append(f"harmonic.solve ran {layer['harmonic.solve_n']} "
                     "times on certify")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["certify", "verify", "paths"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--negative-control", action="store_true",
                        help="perturb one stored reference value")
    args = parser.parse_args(argv)

    if not (SRC / "towb" / "cli.py").is_file():
        print(f"towb sources not found under {SRC}; run from the root of a "
              "towb checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import towb.cli as cli

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    refs = json.loads((HERE / "references.json").read_text(encoding="utf-8"))
    if args.negative_control:
        refs = copy.deepcopy(refs)
        checks.perturb(refs, workloads.CONTROL_KEY[args.workload])
    cmds = workloads.build(args.workload, args.seed, ROOT, run_dir, refs)
    configs = sorted({c.argv[c.argv.index("--config") + 1] for c in cmds})

    counter = StepCounter()
    tracer = tracing.Tracer() if args.trace else None
    report = run_dir / "report.json"
    plain, traced, layers, setup = [], [], [], []
    start = time.perf_counter()
    while True:
        # untraced, traced, traced, untraced, ...: neither kind always
        # comes first, so warm-up does not bias the overhead
        if tracer and (len(plain) + len(traced)) % 4 in (1, 2):
            first = len(tracer.spans)
            tracer.install()
            try:
                result = run_pass(cli, cmds, report, counter)
            finally:
                tracer.uninstall()
            traced.append(result)
            layers.append(tracing.layer_metrics(
                tracer.spans[first:], result["pass_s"],
                workloads.DOMINANT[args.workload]))
        else:
            plain.append(run_pass(cli, cmds, report, counter))
        setup.append(measure_setup(configs))
        if time.perf_counter() - start >= args.seconds and (
                not tracer or traced):
            break
    report.unlink(missing_ok=True)
    while len(setup) < SETUP_REPEATS:
        setup.append(measure_setup(configs))

    passes = plain + traced
    attempted = sum(p["commands"] for p in passes)
    problems = [pr for p in passes for pr in p["problems"]]
    failed = len(problems)
    metrics = {"setup_s": (statistics.median(setup), len(setup))}
    for key in E2E_UNITS:
        if key not in ("setup_s", "failed_frac", "peak_rss_mb"):
            metrics[key] = median_of(plain, key)
    for key in ("query_p50_s", "query_p90_s"):
        if metrics[key][0] is not None:
            metrics[key] = (metrics[key][0],
                            sum(p["queries"] for p in plain))
    metrics["failed_frac"] = (failed / attempted, attempted)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)

    split = []
    layer = {}
    if tracer:
        for name in layers[0]:   # median_low keeps counts whole
            layer[name] = statistics.median_low(lm[name] for lm in layers)
        layer["trace.overhead_frac"] = (
            median_of(traced, "pass_s")[0] / median_of(plain, "pass_s")[0]
            - 1.0)
        split = [msg for lm in layers
                 for msg in layer_split_problems(args.workload, lm)]
        if layer["trace.dominant_share"] <= 0.5:
            print(f"warning: {args.workload}'s own layer ("
                  f"{', '.join(workloads.DOMINANT[args.workload])}) covers "
                  f"only {layer['trace.dominant_share']:.0%} of a pass",
                  file=sys.stderr)
        tracer.write(run_dir / "spans.jsonl")

    correct = failed == 0 and not split
    env = environment()
    print(f"towb bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} "
          f"passes={len(plain)} untraced + {len(traced)} traced")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"{'metric':28s} {'value':>14s} {'unit':6s} n")
    for key, unit in E2E_UNITS.items():
        value, n = metrics[key]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{key:28s} {shown:>14s} {unit:6s} {n}")
    for item in spec["per_layer"] if tracer else []:
        print(f"{item['name']:28s} {layer[item['name']]:>14.6g} "
              f"{item['unit']:6s} {len(layers)}")
    for pr in problems[:10]:
        print(f"FAILED {' '.join(pr['argv'])}: {'; '.join(pr['problems'])}")
    for msg in split:
        print(f"FAILED layer split: {msg}")

    result = {"args": vars(args), "env": env, "correct": correct,
              "attempted": attempted, "failed": failed,
              "setup_runs_s": setup, "end_to_end": metrics, "per_layer": layer,
              "layer_split_problems": split, "problems": problems,
              "passes": {"untraced": [{k: v for k, v in p.items()
                                       if k != "problems"} for p in plain],
                         "traced": [{k: v for k, v in p.items()
                                     if k != "problems"} for p in traced]}}
    (run_dir / "result.json").write_text(json.dumps(result, indent=1),
                                         encoding="utf-8")

    if tracer:
        chosen = {m["name"]: (layer[m["name"]], m["unit"])
                  for m in spec["per_layer"]}
    else:
        chosen = {m["name"]: (metrics[m["name"]][0], m["unit"])
                  for m in spec["end_to_end"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in chosen.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
