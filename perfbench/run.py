#!/usr/bin/env python3
"""perfbench: the benchmark of the anonrv sweep stack.

One workload per run.  With --trace 0 every op runs the `anonrv sweep`
command as child processes, telemetry off, and the run prints the
end-to-end metrics: wall time, tail wall time, member STICs per second,
peak RSS (from each child's rusage) and set-up time.  With --trace 1 each
op runs three ways -- the plain CLI, the CLI with `--report json`, and
`perfbench-trace`, which makes the same calls in-process with a timer
around each layer -- and the run prints the per-layer metrics.

Every op's provenance, outcome-table fingerprint, meeting count and member
STIC count are checked against the references in workloads.json.  An op
that differs, or exits non-zero, counts as failed and is never timed.

    python3 perfbench/run.py --workload store-cold --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root.  Builds go to $CARGO_TARGET_DIR (default
.bench_build), scratch files to .bench_work.  README.md beside this file
explains the workloads and the metrics.
"""

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".bench_work"
SPEC = json.loads((HERE / "workloads.json").read_text())
SETUP_REPEATS = 3
# a reported tail percentile must have at least this many samples beyond it
TAIL_BEYOND = 10
MB = 1024 * 1024
CHILD_ENV = {k: v for k, v in os.environ.items() if not k.startswith("ANONRV_")}
# provenance markers of the CLI's text output, most specific first
TEXT_PROVENANCE = [
    ("outcomes warm-prefix", "warm-prefix"),
    ("outcomes warm (", "warm"),
    ("outcomes cold", "cold"),
    ("outcomes symbolic", "symbolic"),
    ("mode: streamed sweep", "streamed"),
]
JSON_PROVENANCE = {"warm_exact": "warm", "warm_prefix": "warm-prefix"}


class OpFailed(Exception):
    pass


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Build the CLI and the traced run; return both binaries."""
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "cli" / "Cargo.toml").is_file():
        die("no anonrv workspace in the current directory: run from the repository root")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    manifest = str(HERE / "trace" / "Cargo.toml")
    for args in (["-p", "anonrv-cli"], ["--manifest-path", manifest]):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            die(f"build failed: {' '.join(cmd)}")
    release = ROOT / env["CARGO_TARGET_DIR"] / "release"
    return release / "anonrv", release / "perfbench-trace"


def run_child(argv):
    """Run one child to completion: (stdout, wall seconds, peak RSS in MB)."""
    err_path = WORK / "child.stderr"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE, stderr=err)
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = err_path.read_text(errors="replace")[-400:]
        raise OpFailed(f"{' '.join(map(str, argv[1:]))} exited {proc.returncode}: {tail}")
    return out.decode(), wall, usage.ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def cli_result(text):
    """(provenance, fingerprint, meetings, member STICs) of a CLI sweep's output."""
    if text.lstrip().startswith("{"):
        report = json.loads(text)
        kind = "streamed" if report["mode"] == "streamed" else report["provenance"]["kind"]
        kind = JSON_PROVENANCE.get(kind, kind)
        return kind, report["table_fingerprint"], report["meetings"], report["member_stics"]
    fingerprint = re.search(r"^outcome table fingerprint: ([0-9a-f]{16})$", text, re.M)
    meetings = re.search(r"^meetings: (\d+) of (\d+) member STICs$", text, re.M)
    kind = next((k for marker, k in TEXT_PROVENANCE if marker in text), None)
    if not (fingerprint and meetings and kind):
        raise OpFailed(f"unrecognised sweep output: {text[-300:]!r}")
    return kind, fingerprint.group(1), int(meetings.group(1)), int(meetings.group(2))


def check(op, result, who):
    names = ("provenance", "fingerprint", "meetings", "member_stics")
    for name, got in zip(names, result):
        want = op.get(name)
        if want is not None and want != got:
            raise OpFailed(f"{who}: {name} {got} differs from the reference {want}")


def tree(path):
    """{relative file name: size} of every file under `path`."""
    if not path.exists():
        return {}
    return {str(p.relative_to(path)): p.stat().st_size for p in path.rglob("*") if p.is_file()}


def tail_of(samples):
    """(value, percentile, samples beyond it): the highest percentile with
    TAIL_BEYOND samples beyond it, but never below the median -- with fewer
    than 2 * TAIL_BEYOND + 2 samples no percentile above the median has that
    many beyond it, and the tail reads the middle sample (the upper one of an
    even count)."""
    s = sorted(samples)
    k = max(len(s) - 1 - TAIL_BEYOND, len(s) // 2)
    return s[k], 100.0 * (k + 1) / len(s), len(s) - 1 - k


class Workload:
    """One workload's cache directory, set-up and op."""

    def __init__(self, name, spec, cli, tracer):
        self.name, self.spec, self.cli, self.tracer = name, spec, cli, tracer
        self.dir = WORK / name
        self.cache = self.dir / "cache" if spec["cache"] != "none" else None
        self.seeded = None

    def argv(self, binary, args, report_json=False):
        argv = [str(binary)] + (["sweep"] if binary == self.cli else [])
        argv += [self.spec["graph"], *args, "--seed", SPEC["walker_seed"]]
        if self.cache:
            argv += ["--cache-dir", str(self.cache)]
        return argv + (["--report", "json"] if report_json else [])

    def seed_cache(self):
        shutil.rmtree(self.cache, ignore_errors=True)
        out, _, _ = run_child(self.argv(self.cli, self.spec["seed_args"]))
        if cli_result(out)[0] != "cold":
            raise OpFailed("seeding the cache did not run cold")
        self.seeded = tree(self.cache)

    def setup(self, failures):
        """Fresh directory, the seeded cache where the workload reads one,
        and one untimed op that loads the binaries and fills the page cache.
        A failure is appended to `failures`."""
        start = time.perf_counter()
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        try:
            if self.spec["cache"] == "seeded":
                self.seed_cache()
            self.op()
        except OpFailed as e:
            failures.append(f"set-up: {e}")
            print(f"failed set-up: {e}", file=sys.stderr)
        return time.perf_counter() - start

    def run_one(self, binary, op, variant):
        """Run one sub-op one way; return (parsed result, wall, rss, raw)."""
        if self.spec["cache"] == "fresh":
            shutil.rmtree(self.cache, ignore_errors=True)
        out, wall, rss = run_child(self.argv(binary, op["args"], variant == "json"))
        if variant == "trace":
            raw = json.loads(out)
            result = (raw["provenance"], raw["fingerprint"], raw["meetings"], raw["member_stics"])
        else:
            raw, result = None, cli_result(out)
        check(op, result, f"{self.name} {variant}")
        return result, wall, rss, raw

    def verify_read_only(self):
        if self.seeded is not None and tree(self.cache) != self.seeded:
            self.seed_cache()  # restore the pristine state for the next op
            raise OpFailed(f"{self.name}: an op changed the seeded cache directory")

    def op(self, variants=("cli",), rng=None):
        """One op: every sub-op, each run in every variant (shuffled by `rng`).
        Returns per-variant totals: wall, peak RSS, and the traced reports."""
        totals = {v: {"wall": 0.0, "rss": 0.0, "reports": [], "results": []} for v in variants}
        for op in self.spec["ops"]:
            order = list(variants)
            if rng:
                rng.shuffle(order)
            for variant in order:
                binary = self.tracer if variant == "trace" else self.cli
                result, wall, rss, raw = self.run_one(binary, op, variant)
                t = totals[variant]
                t["wall"] += wall
                t["rss"] = max(t["rss"], rss)
                t["results"].append(result)
                if raw:
                    raw["wall_s"] = wall
                    t["reports"].append(raw)
                if variant == "cli":
                    t["cache_mb"] = sum(tree(self.cache).values()) / MB if self.cache else 0.0
            self.verify_read_only()
        results = [totals[v]["results"] for v in variants]
        if any(r != results[0] for r in results):
            raise OpFailed(f"{self.name}: the variants disagree: {results}")
        return totals


def measure(workload, seconds, variants, rng):
    samples, failures = [], []
    setups = [workload.setup(failures) for _ in range(SETUP_REPEATS)]
    deadline = time.perf_counter() + seconds
    while True:
        try:
            samples.append(workload.op(variants, rng))
        except OpFailed as e:
            failures.append(str(e))
            print(f"failed op: {e}", file=sys.stderr)
        if time.perf_counter() >= deadline:
            return setups, samples, failures


def end_to_end(workload, setups, samples):
    walls = [s["cli"]["wall"] for s in samples]
    wall_s = median(walls)
    tail, pct, beyond = tail_of(walls)
    members = sum(op["member_stics"] for op in workload.spec["ops"])
    metrics = {
        "wall_s": (wall_s, "s"),
        "wall_tail_s": (tail, "s"),
        "stics_per_s": (members / wall_s, "1/s"),
        "peak_rss_mb": (median(s["cli"]["rss"] for s in samples), "MB"),
        "setup_s": (median(setups), "s"),
    }
    print(f"wall_tail_s is p{pct:.1f} of {len(walls)} ops, {beyond} beyond it; cache_mb "
          f"{median(s['cli']['cache_mb'] for s in samples):.3f}")
    return metrics


def per_layer(samples):
    def total(sample, key):
        return sum(r[key] for r in sample["trace"]["reports"])
    first = samples[0]["trace"]["reports"]
    layer = {name: median(sum(r["layers"][name] for r in s["trace"]["reports"]) for s in samples)
             for name in first[0]["layers"]}
    layer_sum = median(total(s, "layer_sum_s") for s in samples)
    trace_s = median(total(s, "trace_s") for s in samples)
    cli_wall = median(s["cli"]["wall"] for s in samples)
    # the remainder is taken within the traced child (its wall minus its
    # layers and the trace's own work): CLI wall minus traced layers would
    # mix two processes' noise
    traced_wall = median(total(s, "wall_s") for s in samples)
    unattributed = median(total(s, "wall_s") - total(s, "layer_sum_s") - total(s, "trace_s")
                          for s in samples)
    reps = sum(r["representatives"] for r in first)
    prefix_reps = sum(r["representatives"] for r in first if r["provenance"] == "warm-prefix")
    remerged = sum(r["remerged"] for r in first)
    metrics = {name: (value, "s") for name, value in layer.items()}
    metrics.update({
        "plan.representatives": (reps, "count"),
        "plan.compression": (sum(r["member_stics"] for r in first) / reps, "ratio"),
        "sim.timelines": (sum(r["timelines"] for r in first), "count"),
        "sim.segments": (sum(r["segments"] for r in first), "count"),
        "sim.merges": (sum(r["merges"] for r in first), "count"),
        "sim.remerge_frac": (remerged / prefix_reps if prefix_reps else 0.0, "ratio"),
        "store.bytes_written": (median(total(s, "bytes_written") for s in samples), "bytes"),
        "store.bytes_read": (median(total(s, "bytes_read") for s in samples), "bytes"),
        "cache_mb": (median(s["cli"]["cache_mb"] for s in samples), "MB"),
        "obs.overhead_pct": ((median(s["json"]["wall"] for s in samples) / cli_wall - 1) * 100, "%"),
        "unattributed_s": (unattributed, "s"),
        "unattributed_frac": (unattributed / traced_wall, "ratio"),
    })
    print(f"layer sum {layer_sum:.6f} s, trace's own work {trace_s:.6f} s, "
          f"traced child wall {traced_wall:.6f} s, CLI wall "
          f"{cli_wall:.6f} s (traced/CLI {traced_wall / cli_wall:.3f}) over {len(samples)} ops")
    return metrics, first


def provenance(reports):
    """Where the numbers came from: revision, program, threads, code size."""
    rev = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        rev = git.stdout.strip() or None
    digest = hashlib.sha256()
    sources = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    sources += sorted((ROOT / "crates").rglob("*.rs")) + sorted((ROOT / "crates").glob("*/Cargo.toml"))
    for path in sources:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    lines = {
        crate.name: sum(p.read_bytes().count(b"\n") for p in (crate / "src").rglob("*.rs"))
        for crate in sorted((ROOT / "crates").iterdir()) if (crate / "src").is_dir()
    }
    return {
        "git_revision": rev,
        "source_sha256": digest.hexdigest(),
        "program_key": reports[0]["program_key"],
        "threads": reports[0]["threads"],
        "nproc": len(os.sched_getaffinity(0)),
        "lines_per_crate": lines,
    }


def probe(tracer):
    """A toy traced run for the provenance line (program key, threads)."""
    out, _, _ = run_child([str(tracer), "torus:3x3", "--deltas", "1", "--horizon", "1",
                           "--seed", SPEC["walker_seed"]])
    return [json.loads(out)]


def self_test(cli, tracer):
    """Every workload shape at toy size, every variant: the CLI, its JSON
    report and the traced run must agree, no op may fail, the layer sum may
    not exceed the traced run's wall time, and the warm cache must stay
    untouched."""
    for name, spec in SPEC["self_test"].items():
        workload = Workload(f"self-test-{name}", spec, cli, tracer)
        failures = []
        workload.setup(failures)
        assert not failures, failures
        totals = workload.op(("cli", "json", "trace"))
        for report in totals["trace"]["reports"]:
            assert report["layer_sum_s"] + report["trace_s"] <= report["wall_s"], (name, report)
        print(f"self-test {name}: ok ({spec['graph']}, {len(spec['ops'])} op(s), "
              f"fingerprints {[r[1] for r in totals['cli']['results']]})")
    for name, spec in SPEC["workloads"].items():
        for op in spec["ops"]:
            assert all(op.get(k) is not None for k in ("fingerprint", "meetings", "member_stics")), name
    print("self-test: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the variants within a traced op; the inputs are fixed")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    cli, tracer = build()
    WORK.mkdir(exist_ok=True)
    if args.self_test:
        self_test(cli, tracer)
        shutil.rmtree(WORK, ignore_errors=True)
        return 0
    workload = Workload(args.workload, SPEC["workloads"][args.workload], cli, tracer)
    variants = ("cli", "json", "trace") if args.trace else ("cli",)
    setups, samples, failures = measure(workload, args.seconds, variants, random.Random(args.seed))
    if args.trace:
        metrics, reports = per_layer(samples) if samples else ({}, None)
    else:
        metrics = end_to_end(workload, setups, samples) if samples else {}
        reports = probe(tracer)
    if reports:
        print("provenance: " + json.dumps(provenance(reports), sort_keys=True))
    attempted = len(samples) + len(failures)
    print(f"{args.workload}: {attempted} ops, {len(failures)} failed "
          f"(failed_frac {len(failures) / attempted:.4f})")
    print(json.dumps({
        "correct": not failures and bool(samples),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    shutil.rmtree(WORK, ignore_errors=True)
    return 0 if samples else 1


if __name__ == "__main__":
    sys.exit(main())
