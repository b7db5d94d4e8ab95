"""Rewrite digests.json: the output digests every benchmark run checks.

Run from the root of a checkout, only when a change is meant to alter the
constructions' outputs:

    python3 perfbench/pin_digests.py
"""

import json

import run


def main() -> None:
    ff = run.load_ffcolor()
    tally = run.Tally()
    pinned = {"seed": run.DEFAULT_SEED, "workloads": {}}
    for name, plan in run.WORKLOADS.items():
        wl = run.Workload(name, plan, run.DEFAULT_SEED, ff)
        pinned["workloads"][name] = run.engine_digests(wl.rotation(tally)["outs"])
    canary = run.Workload("canary", run.CANARY, run.DEFAULT_SEED, ff)
    pinned["canary"] = run.engine_digests(canary.rotation(tally)["outs"])
    if not tally.correct:
        raise SystemExit("refusing to pin outputs that fail their audits: "
                         + "; ".join(tally.notes))
    run.DIGEST_FILE.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(f"wrote {run.DIGEST_FILE}")


if __name__ == "__main__":
    main()
