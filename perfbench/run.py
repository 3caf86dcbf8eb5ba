"""procgeom benchmark: one closed-loop client running CLI commands in-process.

Usage, from the repository root::

    python3 perfbench/run.py --workload exact_angle --seed 1 --seconds 15 --trace 0

``--trace 0`` times ops back to back for ``--seconds`` of op time and
prints the end-to-end metrics; ``--trace 1`` replays a fixed list of ops
untraced and then traced and prints the per-layer metrics.  Every op's
output is checked against an independent reference.  The last stdout line
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the full record (environment, inputs, per-op digests,
failures) goes to ``.perfbench_out/``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
# One BLAS thread: on a few shared cores a second BLAS thread waits on other
# tenants' threads, and the dense solves then vary by several times from run
# to run.  Set before numpy is imported; fresh set-up probes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
if sys.path and Path(sys.path[0]).resolve() == ROOT / "perfbench":
    del sys.path[0]  # import the benchmark's modules as the ``perfbench`` package only
# The benchmark's own modules import numpy, so they are imported inside functions,
# after main() has timed a fresh ``import procgeom`` (numpy included).
OUT_DIR = Path(".perfbench_out")
END_TO_END = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
SETUP_PROBES = 3
RUN_DEADLINE_S = 110.0  # no op starts later than this after interpreter start
OP_TIMEOUT_S = 30.0  # an op still running after this fails, so a run ends within 180 s
MEMORY_CAP = 2**30  # the dense-solve budget never exceeds 1 GiB, whatever memory is free
ADDRESS_SPACE_CAP = 4 * 2**30  # a runaway op fails with MemoryError instead of exhausting the host


@dataclass
class OpRecord:
    index: int
    input: object
    out: object = None  # workloads.Output, None when refused
    ok: bool = False
    cause: str | None = None
    digest: str | None = None
    extras: dict | None = None
    speed_mark: int = 0  # where the op falls among the host-speed samples


def parse_args(argv=None):
    p = argparse.ArgumentParser(description="procgeom benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_program():
    """Import procgeom from ``src/`` of this checkout; return (cli module, import seconds)."""
    src = ROOT / "src"
    if not (src / "procgeom" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no procgeom sources under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    t = time.perf_counter()
    import procgeom.cli
    elapsed = time.perf_counter() - t
    if not Path(procgeom.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: procgeom was imported from {procgeom.cli.__file__}, not {src}")
    return procgeom.cli, elapsed


def blas_threads():
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            if hasattr(lib, name):
                return int(getattr(lib, name)())
    return None


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def environment() -> dict:
    import numpy as np

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def memory_budget() -> int:
    """Half the free physical memory, capped: dense ops above it are refused."""
    free = os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return min(MEMORY_CAP, free // 2)


# ---------------------------------------------------------------------------
# ops

class OpTimeout(Exception):
    """Raised inside an op that runs longer than ``OP_TIMEOUT_S``."""


def _expire(signum, frame):
    raise OpTimeout(f"op still running after {OP_TIMEOUT_S:g} s")


def run_op(cli, argv: list[str], outdir: Path, outputs: tuple[str, ...]):
    from perfbench.workloads import Output

    out, err = io.StringIO(), io.StringIO()
    signal.signal(signal.SIGALRM, _expire)
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the op failed; the client keeps going and reports it
            rc = -1
            err.write(traceback.format_exc())
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - start
    files = {}
    for rel in outputs:
        path = outdir / rel
        if path.is_file():
            files[path.name] = path.read_bytes()
            path.unlink()
    return Output(rc, out.getvalue(), err.getvalue(), wall, files)


def schedule(workload, pool):
    """The inputs of every round, in order: ``weight`` consecutive inputs of each class.

    Round ``r`` takes inputs ``r * weight .. r * weight + weight - 1`` (mod count) of a
    class, so successive rounds walk through the whole pool.
    """
    slots = [(c, j) for c, spec in enumerate(workload.classes) for j in range(spec.weight)]

    def op_input(i: int):
        c, j = slots[i % len(slots)]
        r = i // len(slots)
        return pool[c][(r * workload.classes[c].weight + j) % len(pool[c])]

    return slots, op_input


def refusal(workload, inp, budget: int) -> str | None:
    need = workload.dense_bytes(inp)
    if need > budget:
        return f"refused: needs {need} B of dense matrices, budget {budget} B"
    return None


def run_ops(cli, workload, pool, outdir: Path, seconds: float, speed):
    """Closed loop: the next op starts when the previous one returns.

    Stops at the end of the first whole round after op time reaches
    ``seconds``, so every class is measured in its fixed proportion.
    The host-speed kernel is sampled between ops, once per
    ``hostspeed.EVERY_S`` of op time; its time is not op time.
    """
    from perfbench import hostspeed

    budget = memory_budget()
    slots, op_input = schedule(workload, pool)
    records, busy, i, refused, next_sample = [], 0.0, 0, 0, 0.0
    n_inputs = sum(len(c) for c in pool)
    while busy < seconds or i % len(slots):
        if time.perf_counter() - T_START > RUN_DEADLINE_S or refused >= n_inputs:
            break
        if busy >= next_sample:
            speed.sample()
            next_sample = busy + hostspeed.EVERY_S
        inp = op_input(i)
        cause = refusal(workload, inp, budget)
        if cause:
            records.append(OpRecord(i, inp, cause=cause))
            refused += 1
        else:
            mark = speed.mark()
            out = run_op(cli, workload.argv(inp, outdir), outdir, workload.outputs)
            busy += out.wall
            records.append(OpRecord(i, inp, out, speed_mark=mark))
        i += 1
    speed.sample()
    return records


def check_ops(workload, records, refs) -> None:
    from perfbench import oracle
    from perfbench.workloads import CheckFailed

    for r in records:
        if r.out is None:
            continue
        digest = hashlib.sha256(r.out.stdout.encode())
        for name in sorted(r.out.files):
            digest.update(b"\0" + name.encode() + b"\0" + r.out.files[name])
        r.digest = digest.hexdigest()
        if r.out.rc != 0:
            tail = r.out.stderr.strip().splitlines()[-1:] or [""]
            r.cause = f"exit status {r.out.rc}: {tail[0]}"
            continue
        try:
            r.extras = workload.check(r.input, r.out, refs)
            r.ok = True
        except CheckFailed as exc:
            r.cause = str(exc)
        except oracle.NoReference as exc:
            r.cause = f"no reference: {exc}"


def set_up(cli, workload, seed: int, workdir: Path) -> dict:
    """Write the inputs and run the warm-up ops (one exact angle with a dense solve)."""
    from perfbench import inputs, workloads

    t0 = time.perf_counter()
    pool = inputs.build_pool(workload.classes, seed)
    digest = inputs.write_pool(pool, workdir / "inputs")
    warm = inputs.build_pool((workloads.WARMUP_PAIR,), seed)
    inputs.write_pool(warm, workdir / "warmup")
    t1 = time.perf_counter()
    failures = []
    outdir = workdir / "out"
    outdir.mkdir()
    for argv in (["angle", *warm[0][0].paths], workload.argv(pool[0][0], outdir)):
        out = run_op(cli, argv, outdir, workload.outputs)
        if out.rc != 0:
            failures.append({"argv": argv, "rc": out.rc, "stderr": out.stderr[-500:]})
    t2 = time.perf_counter()
    return {
        "pool": pool,
        "outdir": outdir,
        "inputs_sha256": digest,
        "manifest": inputs.manifest(pool, workload.classes),
        "inputs_s": t1 - t0,
        "warmup_s": t2 - t1,
        "warmup_failures": failures,
    }


def probe_setup(args) -> dict:
    """Time a fresh interpreter from spawn to the end of its warm-up."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        _, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"ok": False, "error": "setup probe timed out"}
    try:
        info = json.loads(line)
    except ValueError:
        return {"ok": False, "error": f"setup probe printed {line!r}; stderr {err[-500:]!r}"}
    info.update(ok=proc.returncode == 0 and not info["warmup_failures"], setup_s=ready)
    return info


def tail(times: list[float]) -> tuple[float, int]:
    """Highest whole percentile leaving at least ten ops above it (nearest rank).

    With fewer than 20 ops no such percentile is informative, and the maximum is reported.
    """
    n = len(times)
    ordered = sorted(times)
    if n < 20:
        return ordered[-1], 100
    pct = (100 * (n - 10)) // n
    rank = math.ceil(pct * n / 100)
    return ordered[rank - 1], pct


def extras_of(records) -> dict:
    out: dict[str, list] = {}
    for r in records:
        for key, value in (r.extras or {}).items():
            out.setdefault(key, []).append(value)
    return out


def op_log(records) -> list[dict]:
    return [
        {"i": r.index, "input": r.input.id, "wall_s": r.out.wall if r.out else None,
         "speed_mark": r.speed_mark,
         "rc": r.out.rc if r.out else None, "sha256": r.digest, "ok": r.ok, "cause": r.cause,
         **(r.extras or {})}
        for r in records
    ]


def untraced_run(cli, workload, args, setup, refs, result, failures):
    """Time whole rounds for ``args.seconds`` of op time; then check, then probe set-up.

    Times are reported in reference seconds (see ``hostspeed``); the raw
    figures go to the record.
    """
    from perfbench import hostspeed

    speed = hostspeed.HostSpeed()
    t_ops = time.perf_counter()
    records = run_ops(cli, workload, setup["pool"], setup["outdir"], args.seconds, speed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    t_checks = time.perf_counter()
    check_ops(workload, records, refs)
    t_probes = time.perf_counter()
    probes = []
    for _ in range(SETUP_PROBES):
        speed.sample()
        probes.append(dict(probe_setup(args), speed_mark=speed.mark()))
    speed.sample()
    for p in probes:
        if not p["ok"]:
            failures.append(f"setup probe failed: {p}")
        elif p["inputs_sha256"] != setup["inputs_sha256"]:
            failures.append("generator is not deterministic: input digests differ")
    timed = [r for r in records if r.out is not None]

    def summary(op_times, setup_times):
        tail_s, tail_pct = tail(op_times) if op_times else (math.nan, 0)
        return {
            "setup_s": statistics.median(setup_times),
            "op_p50_s": statistics.median(op_times) if op_times else math.nan,
            "op_tail_s": tail_s,
            "ops_per_s": len(op_times) / sum(op_times) if op_times else math.nan,
        }, tail_pct

    raw, tail_pct = summary([r.out.wall for r in timed],
                            [p.get("setup_s", math.nan) for p in probes])
    metrics, _ = summary([r.out.wall * speed.factor(r.speed_mark) for r in timed],
                         [p.get("setup_s", math.nan) * speed.factor(p["speed_mark"]) for p in probes])
    metrics["peak_rss_mb"] = peak_rss_mb
    result.update(
        raw_metrics=raw,
        host_speed=speed.record(),
        setup_probes=probes,
        op_tail={"percentile": tail_pct, "ops": len(timed)},
        details={k: statistics.median(v) for k, v in extras_of(records).items()},
        phase_s={"ops": t_checks - t_ops, "checks": t_probes - t_checks,
                 "probes": time.perf_counter() - t_probes},
    )
    return records, metrics, END_TO_END


def traced_run(cli, workload, args, setup, refs, result, failures):
    """Run a fixed list of ops twice each, untraced and traced, in alternating order.

    Alternating keeps drift in the host's speed out of ``trace.overhead_frac``.
    """
    from perfbench import layers, tracing

    pool, outdir = setup["pool"], setup["outdir"]
    budget = memory_budget()
    slots, op_input = schedule(workload, pool)
    tracer = tracing.Tracer(layers.HOOKS)
    plain, traced = [], []
    for i in range(workload.trace_rounds * len(slots)):
        if time.perf_counter() - T_START > RUN_DEADLINE_S:
            break
        inp = op_input(i)
        cause = refusal(workload, inp, budget)
        if cause:
            plain.append(OpRecord(i, inp, cause=cause))
            traced.append(OpRecord(i, inp, cause=cause))
            continue
        for tracing_on in ((False, True) if i % 2 == 0 else (True, False)):
            if tracing_on:
                tracer.op = i
                with tracer:
                    out = run_op(cli, workload.argv(inp, outdir), outdir, workload.outputs)
                traced.append(OpRecord(i, inp, out))
            else:
                out = run_op(cli, workload.argv(inp, outdir), outdir, workload.outputs)
                plain.append(OpRecord(i, inp, out))
    records = plain + traced
    check_ops(workload, records, refs)
    for a, b in zip(plain, traced):
        if a.digest != b.digest:
            b.ok, b.cause = False, "traced output differs from the untraced output"
    tracer.write(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.csv.gz")
    metrics = layers.layer_metrics(
        tracer, sys.modules["procgeom.process"], import_s=setup["import_s"],
        untraced_s=sum(r.out.wall for r in plain if r.out),
        traced_s=sum(r.out.wall for r in traced if r.out),
        n_ops=len(traced), extras=extras_of(traced))
    result["spans"] = len(tracer.spans)
    return records, metrics, layers.PER_LAYER


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard == resource.RLIM_INFINITY or hard > ADDRESS_SPACE_CAP:
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, hard))
    cli, import_s = import_program()
    os.chdir(ROOT)
    from perfbench import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    try:
        setup = set_up(cli, workload, args.seed, workdir)
        if args.setup_probe:
            report = {k: setup[k] for k in ("inputs_sha256", "inputs_s", "warmup_s", "warmup_failures")}
            print(json.dumps({"import_s": import_s, **report}), flush=True)
            return 0
        setup_main_s = time.perf_counter() - T_START
        setup["import_s"] = import_s
        refs = workloads.References()
        result = {
            "workload": workload.name, "why": workload.why, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "env": environment(),
            "inputs": setup["manifest"], "inputs_sha256": setup["inputs_sha256"],
            "memory_budget_bytes": memory_budget(), "setup_in_process_s": setup_main_s,
        }
        failures = [f"warm-up op failed: {f}" for f in setup["warmup_failures"]]

        run = untraced_run if args.trace == 0 else traced_run
        records, metrics, units = run(cli, workload, args, setup, refs, result, failures)
        failed = [r for r in records if not r.ok]
        failures += [f"op {r.index} ({r.input.id}): {r.cause}" for r in failed]
        if not records or not all(math.isfinite(metrics[name]) for name in units):
            failures.append("no ops completed, or a metric is undefined")
            metrics = {name: v if math.isfinite(v) else 0.0 for name, v in metrics.items()}
        correct = not failures
        result.update(metrics=metrics, ops=op_log(records), failures=failures,
                      attempted=len(records), failed=len(failed),
                      fail_frac=len(failed) / len(records) if records else 1.0)
        OUT_DIR.mkdir(exist_ok=True)
        record_path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
        record_path.write_text(json.dumps(result, indent=1, default=str) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"{workload.name} seed={args.seed}: {len(records)} ops, {len(failed)} failed; "
          f"record in {record_path}")
    for f in failures[:20]:
        print(f"FAIL {f}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(len(records), 1),
        "failed": len(failed) if records else 1,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
