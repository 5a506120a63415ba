"""Report-throughput benchmark for shiftlab.

Run from the root of a shiftlab checkout:

    python3 perfbench/run.py --workload exact-sweep --seed 3 --seconds 35 --trace 0

One run is one fresh process and one client in a closed loop: it imports
``shiftlab.cli`` from ``src/`` and calls ``shiftlab.cli.main(argv)`` once per
report, one after another, over rounds of argv that ``workloads.py`` draws
from the seed.  It starts rounds while the next one is expected to end
within ``--seconds``, and runs at least MIN_ROUNDS.  Stdout is captured,
``SHIFTLAB_OUTDIR`` is unset and ``emit-goldens`` writes into a temporary
directory under ``.perfbench/``.  Every report is checked: it must not raise,
must give its kind's exit code and verdict, and its bytes (stdout plus any
files it wrote) must match ``oracle.json``.

``--trace 0`` prints the end-to-end metrics over every report of the run.
``--trace 1`` runs rounds for half of ``--seconds`` untraced, then the same
rounds again with every shiftlab layer wrapped (``layers.py``), checks that
both passes give the same bytes, and prints the per-layer metrics.  The last
line of stdout is one JSON object; the lines before it give every metric with
its unit, workload and sample count, and provenance.

``--record-oracle`` runs every argv every workload can produce and rewrites
``oracle.json``; use it only when a change of report bytes is intended.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from workloads import DEFAULT_SEED, TMP, WORKLOADS

HERE = Path(__file__).resolve().parent
ORACLE = HERE / "oracle.json"
ROOT = Path.cwd()
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"  # temporary outputs and span dumps; never committed

MIN_ROUNDS = 2  # every workload then has at least ten reports beyond p90
SETUP_SAMPLES = 7
IMPORTTIME_SAMPLES = 3
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import shiftlab.cli; "
    "print(time.perf_counter() - t)"
)


def load_cli():
    """Import ``shiftlab.cli`` from this checkout's ``src/``, never from
    anywhere else on the path, with one BLAS thread (also for every child
    interpreter started after it)."""
    if not (SRC / "shiftlab" / "cli.py").is_file():
        sys.exit(f"perfbench: {SRC / 'shiftlab'} not found; run from the root of a shiftlab checkout")
    # With the default pool of one thread per core, a report's BLAS calls wait
    # on whichever core the host is slowing: on a two-core host the same
    # `tensor` report took from 1x to 4.5x its one-thread time.  The thread
    # count also changes float rounding in large products, and so the bytes
    # of `saan-group --k 3`; one thread gives the same bytes on any host.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import shiftlab.cli

    if not Path(shiftlab.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: imported shiftlab from {shiftlab.cli.__file__}, not {SRC}")
    return shiftlab.cli


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SHIFTLAB_OUTDIR", None)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Outcome:
    key: tuple  # argv with the temporary directory written as TMP
    seconds: float
    rc: int | None
    verdict: str | None
    digest: str
    nbytes: int
    error: str | None = None


def run_report(main, key: tuple, tmpdir: str) -> Outcome:
    """Call ``main`` once, timing only the call, then digest what it wrote."""
    argv = [tmpdir if a == TMP else a for a in key]
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = main(argv)
        except Exception as exc:  # a raising report is a failed report, not a crashed run
            error = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
    text = out.getvalue().replace(tmpdir, TMP).encode()
    digest = hashlib.sha256(text)
    nbytes = len(text)
    for name in sorted(os.listdir(tmpdir)):
        data = Path(tmpdir, name).read_bytes()
        digest.update(name.encode() + b"\0" + data)
        nbytes += len(data)
        os.remove(os.path.join(tmpdir, name))
    try:
        verdict = json.loads(text).get("verdict")
    except (ValueError, AttributeError):  # not a JSON report: no verdict to compare
        verdict = None
    return Outcome(key, seconds, rc, verdict, digest.hexdigest(), nbytes, error)


def run_pass(main, plan, tmpdir: str, tracer=None) -> list[Outcome]:
    """Run every report of ``plan`` in order."""
    outcomes = []
    gc.collect()
    for i, (_, key) in enumerate(plan):
        if tracer is not None:
            tracer.report = i
        outcomes.append(run_report(main, key, tmpdir))
    return outcomes


def run_rounds(main, workload, seed: int, seconds: float, tmpdir: str, setup=None) -> list:
    """Run rounds 0, 1, ... of ``workload`` while the next round, at the
    mean length so far, would end within ``seconds``, and at least
    MIN_ROUNDS of them; returns [(plan, outcomes)] per round.  With a
    ``setup`` list, also time a cold import after each of the first
    SETUP_SAMPLES rounds (topped up at the end), so the set-up samples spread
    over the run."""
    rounds = []
    start = perf_counter()
    if setup is not None:
        cold_import()  # unmeasured: compiles the bytecode the samples then read
    while len(rounds) < MIN_ROUNDS or (perf_counter() - start) / len(rounds) * (len(rounds) + 1) <= seconds:
        plan = workload.round(seed, len(rounds))
        rounds.append((plan, run_pass(main, plan, tmpdir)))
        if setup is not None and len(setup) < SETUP_SAMPLES:
            setup.append(cold_import())
    while setup is not None and len(setup) < SETUP_SAMPLES:
        setup.append(cold_import())
    return rounds


def write_reports(path: Path, rounds) -> None:
    """One line per report: round, kind, seconds, exit code, verdict, argv."""
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("round\tkind\tseconds\trc\tverdict\targv\n")
        for r, (plan, outcomes) in enumerate(rounds):
            for (kind, key), o in zip(plan, outcomes):
                fh.write(f"{r}\t{kind.name}\t{o.seconds:.6f}\t{o.rc}\t{o.verdict}\t{' '.join(key)}\n")


def failures(plan, outcomes, oracle: dict, baseline=None) -> list[str]:
    """One line per failed report: it raised, gave the wrong exit code or
    verdict, its bytes differ from the recorded digest or, in the traced
    pass, from the same report in the untraced ``baseline`` pass."""
    out = []
    for i, ((kind, key), o) in enumerate(zip(plan, outcomes)):
        want_rc, want_verdict = kind.expected(key)
        argv = " ".join(key)
        if o.error is not None:
            out.append(f"{argv}: raised {o.error}")
        elif (o.rc, o.verdict) != (want_rc, want_verdict):
            out.append(f"{argv}: exit {o.rc} verdict {o.verdict!r}, expected exit {want_rc} verdict {want_verdict!r}")
        elif argv not in oracle:
            out.append(f"{argv}: no recorded digest; rerun --record-oracle")
        elif oracle[argv] != o.digest:
            out.append(f"{argv}: bytes differ from the recorded digest")
        elif baseline is not None and baseline[i].digest != o.digest:
            out.append(f"{argv}: traced bytes differ from untraced bytes")
    return out


def cold_import() -> float:
    """Seconds a fresh interpreter takes to ``import shiftlab.cli``."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        env=child_env(), capture_output=True, text=True, check=True, timeout=60,
    )
    return float(done.stdout)


def importtime_breakdown() -> dict[str, float]:
    """Medians over fresh ``python -X importtime`` runs: numpy and
    scipy.linalg cumulative import time, and the self time of shiftlab's own
    modules."""
    runs = []
    for _ in range(IMPORTTIME_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import shiftlab.cli"],
            env=child_env(), capture_output=True, text=True, check=True, timeout=60,
        )
        numpy_us = scipy_us = own_us = 0
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line or "self [us]" in line:
                continue
            self_us, cumulative_us, module = line[len("import time:"):].split("|")
            module = module.strip()
            if module == "numpy" and not numpy_us:
                numpy_us = int(cumulative_us)
            elif module == "scipy.linalg" and not scipy_us:
                scipy_us = int(cumulative_us)
            if module == "shiftlab" or module.startswith("shiftlab."):
                own_us += int(self_us)
        runs.append((numpy_us, scipy_us, own_us))
    numpy_us, scipy_us, own_us = (statistics.median(col) for col in zip(*runs))
    return {
        "setup.numpy_import_s": numpy_us / 1e6,
        "setup.scipy_linalg_import_s": scipy_us / 1e6,
        "setup.shiftlab_import_s": own_us / 1e6,
    }


def end_to_end(outcomes, failed: int, setup: list) -> dict:
    times = [o.seconds for o in outcomes]
    n = len(times)
    return {
        "reports_per_s": (n / sum(times), "1/s", n),
        "report_p50_s": (statistics.median(times), "s", n),
        "report_p90_s": (statistics.quantiles(times, n=10)[8], "s", n),
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "report_ok_ratio": ((n - failed) / n, "ratio", n),
    }


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_commit(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def git_commit() -> str:
    """HEAD of the checkout, or "unknown"; git may not look above it."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def print_table(workload: str, metrics: dict, prov: dict):
    for name, (value, unit, samples) in metrics.items():
        print(f"{workload:13} {name:34} {value:>16.6g} {unit:6} samples={samples}")
    print("provenance " + " ".join(f"{k}={v}" for k, v in prov.items()))


def flatten(rounds) -> tuple[list, list]:
    """The plans and outcomes of every round, joined in order."""
    return [x for plan, _ in rounds for x in plan], [o for _, outcomes in rounds for o in outcomes]


def record_oracle():
    """Run every argv of every workload once and rewrite ``oracle.json``."""
    cli = load_cli()
    digests = {}
    with work_dir() as tmpdir:
        for workload in WORKLOADS.values():
            for kind in workload.kinds:
                for key in kind.space:
                    o = run_report(cli.main, key, tmpdir)
                    want = kind.expected(key)
                    if o.error is not None or (o.rc, o.verdict) != want:
                        sys.exit(f"perfbench: {' '.join(key)} gave {o.error or (o.rc, o.verdict)}, expected {want}")
                    digests[" ".join(key)] = o.digest
    ORACLE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {ORACLE}")


@contextlib.contextmanager
def work_dir():
    STATE.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="out-", dir=STATE)
    try:
        yield tmpdir
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-oracle", action="store_true")
    args = ap.parse_args(argv)
    if args.record_oracle:
        record_oracle()
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    os.environ.pop("SHIFTLAB_OUTDIR", None)
    cli = load_cli()
    oracle = json.loads(ORACLE.read_text())
    workload = WORKLOADS[args.workload]
    problems = []
    with work_dir() as tmpdir:
        if args.trace:
            # per-layer metrics carry no bound: half the time untraced, then
            # the same rounds traced
            rounds = run_rounds(cli.main, workload, args.seed, args.seconds / 2, tmpdir)
        else:
            setup = []
            rounds = run_rounds(cli.main, workload, args.seed, args.seconds, tmpdir, setup)
        write_reports(STATE / f"reports-{workload.name}-seed{args.seed}.tsv", rounds)
        plan, untraced = flatten(rounds)
        problems += failures(plan, untraced, oracle)
        if args.trace:
            import layers

            traced, tracer, counters = layers.traced_pass(lambda t: run_pass(cli.main, plan, tmpdir, t))
            problems += failures(plan, traced, oracle, untraced)
            metrics = layers.per_layer(tracer, counters, untraced, traced)
            metrics.update({k: (v, "s", IMPORTTIME_SAMPLES) for k, v in importtime_breakdown().items()})
            layers.write_spans(tracer, STATE / f"spans-{workload.name}-seed{args.seed}.tsv", plan)
            attempted = 2 * len(plan)
        else:
            metrics = end_to_end(untraced, len(problems), setup)
            attempted = len(plan)
        print(f"rounds={len(rounds)} reports={len(plan)}")
    for line in problems:
        print(f"FAILED {line}")
    print_table(workload.name, metrics, provenance(args.seed))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": len(problems),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
