"""Benchmark for the `stc` command line, stdlib only.

    python3 bench/run.py --workload auto-small --seed 101 --seconds 25 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
there and nowhere else.  One process, one client, a closed loop: every
request is one in-process call to ``stc.cli.main(argv)`` with its output
captured, and the next request starts when the previous one has returned.
Every answer is checked by ``checker.py`` outside the timed region.
Times are scaled to the development box's quiet speed by a calibration loop
run between requests (see ``Clock``); the info line keeps the unscaled pass.

``--trace 0`` repeats passes over the workload's fixed request list for
``--seconds`` seconds and prints the end-to-end metrics.  ``--trace 1``
makes one untraced and one traced pass and prints the per-layer metrics
(see ``probes.py``).  The last line of standard output is the result
object; the line before it carries counters and the run environment.
See README.md for the workloads and metric names.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

sys.path.insert(0, str(HERE))

import checker  # noqa: E402
import instances  # noqa: E402

SETUP_REPEATS = 7
CAL_EVERY_S = 0.2  # take a calibration sample between requests at most this often
CHEAP_S = 0.05  # requests faster than this on the first pass get extra
CHEAP_SHARE = 0.1  # samples, in list order, in up to this share of a pass
CAL_REF_S = 0.008  # the calibration loop's time on the development box when quiet
END_TO_END = (
    ("pass_s", "s"),
    ("latency_ms.p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("approx_ratio.mean", "ratio"),
)


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default rule)."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def calibration_loop() -> float:
    """Seconds for a fixed mix of the operations stc's solvers lean on:
    frozensets, tuples, sorting, dict updates and small lists."""
    t0 = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(6000):
        key = frozenset(((i * 7) % 13, (i * 5) % 11, i % 3))
        t = tuple(sorted(key))
        table[t] = table.get(t, 0) + len(key)
        acc += sum([x * 2 for x in t]) + len(table)
    return time.perf_counter() - t0


class Clock:
    """Calibration samples taken between requests, and the speed scale.

    The development box's CPU speed switches between two levels about 1.7x
    apart, every second or so, in a mix that drifts over minutes, which
    spread raw pass times by 15 to 33% across runs.  Times multiplied by
    ``scale()``, ``CAL_REF_S`` over the calibration loop's mean time in the
    run, read as seconds on the box in its quiet state, and the drift
    cancels.  The mean is taken over time (trapezoids between samples), so
    the sample after a long request counts for that request's span.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (taken at, seconds)

    def tick(self) -> None:
        """Take a sample if ``CAL_EVERY_S`` has passed since the last one."""
        now = time.perf_counter()
        if not self.samples or now - self.samples[-1][0] >= CAL_EVERY_S:
            self.samples.append((now, calibration_loop()))

    def mean(self) -> float:
        if len(self.samples) == 1:
            return self.samples[0][1]
        area = sum((t1 - t0) * (c0 + c1) / 2
                   for (t0, c0), (t1, c1) in zip(self.samples, self.samples[1:]))
        return area / (self.samples[-1][0] - self.samples[0][0])

    def scale(self) -> float:
        return CAL_REF_S / self.mean()


# -- set-up -------------------------------------------------------------------


def import_stc():
    """Import stc from this checkout's ``src/``, dropping any earlier import,
    so that every set-up pays for the import."""
    for name in [m for m in sys.modules if m == "stc" or m.startswith("stc.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import stc  # noqa: F401
    import stc.cli

    if not Path(stc.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"stc was imported from {stc.__file__}, not from {SRC}")
    return stc.cli.main


class Run:
    """One workload's set-up, its captured CLI calls and its answer checks."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.refs: dict[int, int] = {}
        self.verified: dict[int, tuple] = {}
        self.failures: list[str] = []
        self.ratios: dict[int, float] = {}
        self.attempted = 0
        self.clock = Clock()

    def setup(self) -> float:
        """Import stc, generate the instances and write them; returns seconds.

        Time spent inside stc's generators is kept in ``self.gen_s``.
        """
        gen_s = 0.0

        def gen_timer(fn, *args):
            nonlocal gen_s
            t0 = time.perf_counter()
            out = fn(*args)
            gen_s += time.perf_counter() - t0
            return out

        WORK.mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"{self.workload}-", dir=WORK)
        t0 = time.perf_counter()
        self.main = import_stc()
        self.requests = instances.build(self.workload, self.seed, workdir, gen_timer)
        elapsed = time.perf_counter() - t0
        if getattr(self, "workdir", None):
            shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir = workdir
        self.gen_s = gen_s
        return elapsed

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def call(self, argv) -> tuple[float, object, str, str]:
        """Time one ``main(argv)``; returns (seconds, exit code or exception,
        stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        gc.collect()  # each request starts from a clean heap, as a fresh process would
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.main(argv)
            except Exception as exc:  # a crash is a failed request, not a stop
                rc = exc
            dt = time.perf_counter() - t0
        return dt, rc, out.getvalue(), err.getvalue()

    def reference(self, inst) -> int:
        key = id(inst)
        if key not in self.refs:
            if inst.ref is not None:
                self.refs[key] = inst.ref
            else:
                n, edges = inst.core or (inst.n, inst.edges)
                self.refs[key] = checker.brute_force_stc(n, edges)
        return self.refs[key]

    def check(self, idx: int, req, rc, out: str, err: str) -> str | None:
        """None if the answer is right; else what is wrong with it."""
        if rc != 0:
            detail = err.strip().splitlines()[-1:] if isinstance(rc, int) else [repr(rc)]
            return f"exit {rc if isinstance(rc, int) else 'exception'}: {' '.join(detail)}"
        sol_text = ""
        if req.kind == "solve" and req.sol_path:
            with open(req.sol_path, encoding="utf-8") as fh:
                sol_text = fh.read()
        if self.verified.get(idx) == (out, sol_text):
            return None  # the same bytes as an answer already checked
        try:
            doc = json.loads(out)
            if req.kind == "eval":
                problem = None if doc == {"ok": True, "problem": None} else f"eval said {doc}"
            else:
                problem = self.check_doc(idx, req, doc)
                if problem is None and sol_text:
                    problem = self.check_doc(idx, req, json.loads(sol_text))
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed answer: {exc!r}"
        if problem is None:
            self.verified[idx] = (out, sol_text)
        return problem

    def check_doc(self, idx: int, req, doc: dict) -> str | None:
        inst = req.inst
        if doc.get("feasible") is not True:
            return "answer is not a feasible tree"
        tree = [(u - 1, v - 1) for u, v in doc["edges"]]
        problem = checker.tree_problem(inst.n, inst.edges, tree)
        if problem:
            return problem
        got = checker.tree_congestion(inst.n, inst.edges, tree)
        if got != doc["k"]:
            return f"k = {doc['k']} but the tree's cuts give {got}"
        ref = self.reference(inst)
        if req.kind == "approx":
            bound = checker.approx_bound(ref, req.eps)
            if got > bound:
                return f"k = {got} > ceil((1+{req.eps}) * {ref}) = {bound}"
        elif got != ref:
            return f"k = {got} but stc = {ref}"
        self.ratios[idx] = got / ref
        return None

    def request(self, idx: int, req) -> tuple[float, str, object]:
        """Call, check outside the timing, book a failure; returns (seconds,
        stdout, exit code)."""
        dt, rc, out, err = self.call(req.argv)
        self.attempted += 1
        problem = self.check(idx, req, rc, out, err)
        if problem:
            self.failures.append(f"{req.name}: {problem}")
            print(f"FAILED {req.name} ({' '.join(req.argv)}): {problem}", file=sys.stderr)
        return dt, out, rc


def routes(run: Run) -> dict[str, int]:
    """Requests per pass by the JSON ``algorithm`` field of their answers."""
    counts: dict[str, int] = {}
    for out, _ in run.verified.values():
        alg = json.loads(out).get("algorithm")
        if alg:
            counts[alg] = counts.get(alg, 0) + 1
    return counts


def environment() -> dict:
    sha = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            sha = ref
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
    }


# -- the timed run ------------------------------------------------------------


def scaled_setup(run: Run) -> tuple[float, float]:
    """One set-up's (unscaled, scaled) seconds; the scale comes from the
    calibration loop run just before and just after it."""
    before = calibration_loop()
    elapsed = run.setup()
    after = calibration_loop()
    return elapsed, elapsed * CAL_REF_S / ((before + after) / 2)


def timed(run: Run, seconds: float) -> tuple[dict, dict]:
    raw_setups, setups = zip(*(scaled_setup(run) for _ in range(SETUP_REPEATS)))
    gc.freeze()  # set-up objects stay out of the collections before each request
    reqs = run.requests
    clock = run.clock
    lat: list[list[float]] = [[] for _ in reqs]
    pass_wall: list[float] = []
    start = time.perf_counter()
    cheap = None
    while True:
        t_pass = time.perf_counter()
        for i, req in enumerate(reqs):
            clock.tick()
            lat[i].append(run.request(i, req)[0])
        # a request of a few ms sampled once per pass lands in one speed
        # level or the other; more samples keep its mean, and p50, steady
        if cheap is None:
            cheap = [i for i, xs in enumerate(lat) if xs[0] < CHEAP_S]
            cheap_s = sum(lat[i][0] for i in cheap)
            first_pass = sum(xs[0] for xs in lat)
            repeats = int(CHEAP_SHARE * first_pass / cheap_s) if cheap else 0
        for _ in range(repeats):
            for i in cheap:
                clock.tick()
                lat[i].append(run.request(i, reqs[i])[0])
        pass_wall.append(time.perf_counter() - t_pass)
        if time.perf_counter() - start + pass_wall[-1] > seconds:
            break
    # a request's time is its mean over the passes (a median of a two-level
    # mix jumps between the levels), scaled to the quiet box's speed
    scale = clock.scale()
    typical = [scale * statistics.fmean(xs) for xs in lat]
    ratios = list(run.ratios.values())
    metrics = {
        "pass_s": sum(typical),
        "latency_ms.p50": 1000 * percentile(typical, 50),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "approx_ratio.mean": statistics.fmean(ratios) if ratios else 0.0,
    }
    info = {
        # fewer than ten requests lie beyond p90 except on auto-small
        "latency_ms.p90": 1000 * percentile(typical, 90),
        "passes": len(pass_wall),
        "cheap_requests": len(cheap),
        "cheap_repeats_per_pass": repeats,
        "requests_per_pass": len(reqs),
        "latency_samples": sum(len(xs) for xs in lat),
        "unscaled_pass_s": sum(typical) / scale,
        "calibration": {"samples": len(clock.samples), "mean_s": clock.mean(),
                        "scale": scale},
        "routes_per_pass": routes(run),
        "unscaled_setup_samples_s": raw_setups,
    }
    return metrics, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=instances.WORKLOADS)
    ap.add_argument("--seed", type=int, default=instances.SUITE_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "stc" / "cli.py").is_file():
        print(f"error: no stc sources under {SRC}", file=sys.stderr)
        return 2
    env = environment()
    run = Run(args.workload, args.seed)
    try:
        if args.trace:
            import probes

            metrics, info = probes.traced(run, WORK)
            units = dict(probes.PER_LAYER)
        else:
            metrics, info = timed(run, args.seconds)
            units = dict(END_TO_END)
    finally:
        if getattr(run, "workdir", None):
            run.close()
    env["loadavg_end"] = os.getloadavg()
    info.update(workload=args.workload, seed=args.seed, env=env, failures=run.failures)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
