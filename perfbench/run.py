#!/usr/bin/env python3
"""Run one workload of the repository benchmark and print its result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds the `perfbench` binary
from source (cargo, release profile, into $CARGO_TARGET_DIR or
`.bench_build/`), runs the workload once (the untraced run also times the
workload's cold set-up in fresh child processes), and prints:

* a `{"provenance": ...}` line: host, backend, CPU features, rustc
  version, git revision, thread and worker counts;
* as the last line, `{"correct", "attempted", "failed", "metrics"}` with
  every end-to-end metric (`--trace 0`) or every per-layer metric
  (`--trace 1`), each as `{"value", "unit"}`.

It exits nonzero, printing no result, if the build fails, the run fails,
a metric could not be measured, or any output was wrong. The full record
is also written to `.bench_out/`.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 160


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def declared(kind):
    """Metric names and units of one kind from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", str(ROOT / ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if r.returncode != 0:
        fail("build failed")
    binary = Path(env["CARGO_TARGET_DIR"])
    if not binary.is_absolute():
        binary = ROOT / binary
    return binary / "release" / "perfbench"


def rustc_version():
    try:
        r = subprocess.run(["rustc", "--version"], stdout=subprocess.PIPE,
                           text=True, timeout=30)
        return r.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def git_rev():
    """The checked-out commit, read from `.git` without running git (which
    would search parent directories when the checkout is not a repo)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    binary = build()
    args = [str(binary), "run", "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]
    try:
        r = subprocess.run(args, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = r.stdout.strip().splitlines()
    if not lines:
        fail(f"run printed nothing (exit {r.returncode})")
    rec = json.loads(lines[-1])
    metrics = rec["metrics"]

    want = declared("per_layer" if a.trace else "end_to_end")
    if set(metrics) != set(want):
        fail(f"metrics {sorted(set(metrics) ^ set(want))} missing or undeclared")
    for name, m in metrics.items():
        v = m["value"]
        if m["unit"] != want[name] or not isinstance(v, (int, float)) or not math.isfinite(v):
            fail(f"metric {name} not measured: {m}")

    prov = rec["provenance"]
    prov.update({"rustc": rustc_version(), "git_rev": git_rev()})
    result = {k: rec[k] for k in ("correct", "attempted", "failed")}
    result["metrics"] = {k: metrics[k] for k in want}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"result-{a.workload}-{a.seed}-trace{a.trace}.json"
    (out_dir / stem).write_text(json.dumps({**result, "provenance": prov}, indent=1) + "\n")

    print(json.dumps({"provenance": prov}))
    if r.returncode != 0 or not rec["correct"]:
        fail(f"outputs were wrong (exit {r.returncode}); see stderr and .bench_out/{stem}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
