#!/usr/bin/env python3
"""Self-test of the session benchmark's quick mode.

Run from the repository root:

    python3 sessbench/selftest.py

It runs the command named in BENCHMARK.json with `--quick` (small
corpora, one set-up, one-second windows) on every workload it lists,
untraced and traced, and checks that:

* the last stdout line is the result object, every end-to-end metric
  (untraced) or per-layer metric (traced) is printed with the unit
  BENCHMARK.json gives it, and no session failed;
* the span dump of the traced run parses, one JSON object per line;
* the per-layer self times are non-negative and add up to no more than
  the session time they were taken from.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = os.path.join(ROOT, "sessbench", "run-data")


def run(spec, workload, trace, spans_path=None):
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace), "--quick",
    ]
    if spans_path:
        cmd += ["--trace-out", spans_path]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = [json.loads(line) for line in out.stdout.strip().splitlines()]
    return lines[:-1], lines[-1]


def check_result(result, expected, what):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: keys {set(result)}"
    assert result["correct"] is True, f"{what}: not correct"
    assert result["failed"] == 0, f"{what}: {result['failed']} sessions failed"
    assert result["attempted"] >= 1, f"{what}: nothing attempted"
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in expected}, (
        f"{what}: printed {sorted(metrics)}, expected {sorted(m['name'] for m in expected)}"
    )
    for m in expected:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{what}: {m['name']} in {got['unit']}, not {m['unit']}"
        assert isinstance(got["value"], (int, float)), f"{what}: {m['name']} is not a number"
    return metrics


def check_spans(path, what):
    kinds = set()
    with open(path) as f:
        for line in f:
            span = json.loads(line)
            assert 0 <= span["start_ns"] <= span["end_ns"], f"{what}: bad span {span}"
            kinds.add(span["kind"])
    for kind in ("session", "handler", "backend.read"):
        assert kind in kinds, f"{what}: no {kind} span among {sorted(kinds)}"
    assert any(k.startswith("rpc.") for k in kinds), f"{what}: no RPC spans"
    assert any(k.startswith("client.") for k in kinds), f"{what}: no client-step spans"


def check_layers(metrics, detail_lines, what):
    layers = [l for l in detail_lines if l.get("kind") == "layers"]
    assert len(layers) == 1, f"{what}: expected one layers line"
    detail = layers[0]["detail"]
    selves = {k: v["value"] for k, v in metrics.items() if k.startswith("self_us.")}
    assert selves, f"{what}: no self times"
    for name, value in selves.items():
        assert value >= 0, f"{what}: {name} = {value} is negative"
    band = detail["trace.median_band_session_us"]["value"]
    assert sum(selves.values()) <= band * (1 + 1e-9), (
        f"{what}: self times add to {sum(selves.values())} us, more than the {band} us session"
    )
    assert detail["trace.misnested_spans"]["value"] == 0, f"{what}: misnested spans"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    os.makedirs(SCRATCH, exist_ok=True)
    for workload in (w["name"] for w in spec["workloads"]):
        _, result = run(spec, workload, 0)
        check_result(result, spec["end_to_end"], f"{workload} untraced")
        spans = os.path.join(SCRATCH, f"selftest-{workload}.jsonl")
        try:
            detail, result = run(spec, workload, 1, spans)
            metrics = check_result(result, spec["per_layer"], f"{workload} traced")
            check_spans(spans, workload)
            check_layers(metrics, detail, workload)
        finally:
            if os.path.exists(spans):
                os.remove(spans)
        print(f"ok {workload}")
    print("selftest passed")


if __name__ == "__main__":
    main()
