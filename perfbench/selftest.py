"""Self-test of the benchmark at tiny sizes.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Checks, for every workload:
* an untraced run prints every end-to-end metric of BENCHMARK.json by name,
  with its unit and a positive value, and a traced run every per-layer one;
* traced spans nest: each child lies inside its parent and the children's
  time never exceeds the parent's;
* tracing changes neither the attributes of a field object (so the package's
  `hasattr(field, "*_box")` dispatch takes the same branch) nor any output
  digest.
Exits 1 on the first failed check.
"""

import contextlib
import io
import json
import sys

import run
from spans import Tracer

TINY = {name: run.CANARY for name in run.WORKLOADS}


def check(ok: bool, what: str) -> None:
    if not ok:
        sys.exit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def run_main(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.main(argv, workloads=TINY)
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def check_metrics(spec: dict) -> None:
    for name in run.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            out = run_main(["--workload", name, "--seed", "3", "--seconds", "0.1",
                            "--trace", str(trace)])
            declared = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            check(got == declared, f"{name} --trace {trace}: every {kind} metric "
                                   "printed with its unit")
            check(out["correct"] and out["failed"] == 0 and out["attempted"] > 0,
                  f"{name} --trace {trace}: outputs correct, nothing failed")
            if kind == "end_to_end":
                check(all(v["value"] > 0 for v in out["metrics"].values()),
                      f"{name}: every end-to-end metric positive")


def check_spans(ff) -> None:
    tracer = Tracer()
    wl = run.Workload("canary", run.CANARY, 5, ff)
    tracer.install()
    try:
        wl.rotation(run.Tally())
    finally:
        tracer.remove()
    spans = {s[0]: s for s in tracer.spans}
    child_time = {sid: 0.0 for sid in spans}
    outside = []
    for sid, _, start, end, pid in spans.values():
        if pid >= 0:
            p = spans[pid]
            if not p[2] <= start <= end <= p[3]:
                outside.append(sid)
            child_time[pid] += end - start
    over = [sid for sid, t in child_time.items()
            if t > spans[sid][3] - spans[sid][2] + 1e-9]
    check(len(spans) > 1000 and not outside and not over,
          f"{len(spans)} spans nest, child time never exceeds parent time")


def check_dispatch(ff) -> None:
    f = ff.field
    base = f.LabelField(1)
    objs = {"LabelField": base,
            "TrackedField": f.TrackedField(base, f.Tracker((0, 0))),
            "PerturbedField": f.PerturbedField(base, f.Tracker((0, 0)), f.LabelField(2)),
            "untracked": f.untracked(base)}
    before = {k: sorted(dir(o)) for k, o in objs.items()}
    boxes = {k: hasattr(o, "u64_box") for k, o in objs.items()}
    wl = run.Workload("canary", run.CANARY, run.DEFAULT_SEED, ff)
    plain = run.engine_digests(wl.rotation(run.Tally())["outs"])
    tracer = Tracer()
    tracer.install()
    try:
        during = {k: sorted(dir(o)) for k, o in objs.items()}
        boxes_during = {k: hasattr(o, "u64_box") for k, o in objs.items()}
        traced = run.engine_digests(wl.rotation(run.Tally())["outs"])
    finally:
        tracer.remove()
    check(before == during and boxes == boxes_during,
          "tracing leaves field attributes and *_box dispatch unchanged")
    check(plain == traced, "output digests equal with and without tracing")
    pinned = json.loads(run.DIGEST_FILE.read_text())["canary"]
    check(plain == pinned, "canary digests match digests.json")


def main() -> None:
    spec = json.loads(run.SPEC_FILE.read_text())
    ff = run.load_ffcolor()
    check_dispatch(ff)
    check_spans(ff)
    check_metrics(spec)
    print("selftest passed")


if __name__ == "__main__":
    main()
