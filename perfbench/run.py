"""Benchmark of ffcolor's window engines, demand engines and coding-radius tails.

Run from the root of a checkout (one workload per process, one thread):

    python3 perfbench/run.py --workload window --seed 1 --seconds 25 --trace 0

The workload seed sets the label field, and with the rotation number the
window origins and the query sites.  A run repeats one *rotation* over every
construction until --seconds have passed (and at least MIN_ROTATIONS times).
In a rotation each window engine colors its windows, the audits run on every
output, each demand engine answers its batch of single-site queries under
`tracked`, one query at a time with a fresh engine, and `coding_radii`
tabulates a tail window.  Each rotation draws new windows and sites, so no
input is ever seen twice and a cache across calls helps only as far as it
would help a user; a rate is all the work of a run over all its time, the
first rotation's lazy set-up included.  The host is shared, and its pace
swings by tens of percent from one tenth of a second to minutes, so two short
fixed loops, the *gauge*, are read between the timed calls, and each call's
time is scaled to the pace at which the gauge reads GAUGE_NOMINAL_S (see
`Gauge` and `rate`).  The workloads run the same rotation at different sizes,
so each stresses another end of the code:

* window - large windows: bulk hashing, CSR builds and the Python sweeps;
* demand - many independent queries: scalar reads, the tracker, neighbors;
* tails  - a large-cap `coding_radii` build: cluster labelling and memory.

Outputs are checked in every run: each construction's own audit, the digest of
every engine's output on a pinned canary input (and on the workload's first
rotation at the default seed), and a demand-window agreement spot check.  The
last line printed is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  With --trace 1 the rotations alternate untraced and traced (see
spans.py) and the metrics are the per-layer ones of BENCHMARK.json.
"""

from __future__ import annotations

import os

# one thread per workload process, whatever numpy was built against
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import functools
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = Path.cwd() / "src"
SPEC_FILE = Path.cwd() / "BENCHMARK.json"
DIGEST_FILE = HERE / "digests.json"
SPAN_DIR = HERE / "out"

DEFAULT_SEED = 0
MIN_ROTATIONS = 3
SETUP_PROBES = 5
GAUGE_EVERY_S = 0.05     # the gauge is read at least this often between timed calls
GAUGE_NOMINAL_S = 0.005  # its reading on a 2 GHz Xeon vCPU when the host is quiet
AGREE_SITES = 3          # demand sites spot-checked against a window engine
SITE_SPAN = 10**6        # query sites and window origins lie in [-SPAN, SPAN]^d

TOWER_MARGIN = 24        # tower/net taint stays within ~10 sites of the rim
BASELINE_MARGIN = 128     # at 64, one 160² window in ~150 left core sites unresolved
THREE2D_MARGIN = 128
THREEGEN = {"maxlevel": 2, "density_scale": 1 / 32, "margin": 64}
QUERY_CAP = {"tower": 512, "baseline4": 512, "threegen": 2048}

# Window engines: (windows, side) per rotation, sft (windows, letters), tails
# (side, radius cap) of one coding_radii call; queries: sites per rotation.
# Several small windows average out how much work one seed's window holds.
WORKLOADS = {
    "window": {"tower": (3, 64), "net": (3, 64), "four": (6, 96),
               "baseline4": (3, 160), "three2d": (2, 128), "threegen": (3, 320),
               "sft": (40, 250), "tails": (16, 256),
               "queries": {"tower": 400, "baseline4": 500, "threegen": 3}},
    "demand": {"tower": (6, 24), "net": (6, 24), "four": (6, 32),
               "baseline4": (6, 48), "three2d": (3, 48), "threegen": (4, 160),
               "sft": (60, 125), "tails": (16, 256),
               "queries": {"tower": 800, "baseline4": 500, "threegen": 3}},
    "tails": {"tower": (6, 24), "net": (6, 24), "four": (6, 32),
              "baseline4": (6, 48), "three2d": (3, 48), "threegen": (4, 160),
              "sft": (60, 125), "tails": (32, 1024),
              "queries": {"tower": 500, "baseline4": 500, "threegen": 3}},
}
# pinned input checked bit for bit in every run, at DEFAULT_SEED
CANARY = {"tower": (1, 24), "net": (1, 24), "four": (1, 24),
          "baseline4": (1, 32), "three2d": (1, 24), "threegen": (1, 128),
          "sft": (2, 250), "tails": (8, 128),
          "queries": {"tower": 10, "baseline4": 10, "threegen": 1}}
PLAN_IDS = {"window": 1, "demand": 2, "tails": 3, "canary": 4}
WINDOW_ENGINES = ("tower", "net", "four", "baseline4", "three2d", "threegen")
QUERY_ENGINES = ("tower", "baseline4", "threegen")


def timed(fn):
    t0 = perf_counter()
    out = fn()
    return out, perf_counter() - t0


# How closely each rate's code follows the gauge within a run: the slope of
# log(time) on log(gauge reading), pooled over about 90 rotations of 18 runs
# of the three workloads on a 2-vCPU Xeon VM and rounded to 0.1.  The slopes
# came out alike on each workload.  Interpreter-bound code follows the gauge;
# numpy-bound calls follow it less closely, partly because they are long, so
# the readings before and after them miss part of the pace during them.
SENSITIVITY = {
    "tower_sites_per_s": 1.0, "net_sites_per_s": 1.0, "four_sites_per_s": 1.0,
    "baseline4_sites_per_s": 0.8, "three2d_sites_per_s": 0.6,
    "threegen_sites_per_s": 0.5, "sft_letters_per_s": 1.0,
    "three2d_radii_per_s": 0.6, "audit_sites_per_s": 0.9,
    "tower_queries_per_s": 0.9, "baseline4_queries_per_s": 1.0,
    "threegen_queries_per_s": 0.4}


class Gauge:
    """How fast the host runs this process right now: the seconds of a fixed
    loop of integer arithmetic, dict and tuple traffic and small numpy calls,
    run with the garbage collector off so the benchmark's heap never changes
    it.  `time` runs a call and files (work, seconds, gauge) into a sink; the
    gauge is the mean of the readings before and after, and the calls between
    two readings, at most GAUGE_EVERY_S apart unless one call is longer,
    share them."""

    def __init__(self):
        import numpy as np

        self.np = np
        self.pending: list[tuple] = []  # (sink, work, seconds) since the last reading
        self.last = self._loop()
        self.at = perf_counter()

    def _loop(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            s = 0
            for i in range(30_000):
                s += i * i % 7
            d = {}
            for i in range(6_000):
                k = (i & 63, i >> 6)
                d[k] = d.get(k, 0) + 1
            x = self.np.arange(64)
            for _ in range(400):
                x = (x * 3 + 1) % 101
            return perf_counter() - t0
        finally:
            if enabled:
                gc.enable()

    def read(self) -> None:
        """Take a reading and file every call timed since the last one."""
        now = self._loop()
        for sink, work, dt in self.pending:
            sink.append((work, dt, (self.last + now) / 2))
        self.pending = []
        self.last, self.at = now, perf_counter()

    def time(self, fn, work: int, sink: list):
        """fn's output; (work, seconds, gauge) goes to `sink` by the next reading."""
        if not self.pending and perf_counter() - self.at > GAUGE_EVERY_S:
            self.read()  # the last reading is stale, so open with a fresh one
        out, dt = timed(fn)
        self.pending.append((sink, work, dt))
        if perf_counter() - self.at >= GAUGE_EVERY_S:
            self.read()
        return out


def digest(parts) -> str:
    h = hashlib.sha256()
    for a in parts:
        if hasattr(a, "dtype"):
            h.update(f"{a.dtype}{a.shape}".encode())
            h.update(a.tobytes())
        else:
            h.update(json.dumps(a).encode())
    return h.hexdigest()


def run_gauge(rots: list[dict]) -> float:
    """The run's typical gauge reading: the geometric mean of every item's
    reading, weighted by the item's time."""
    items = [item for r in rots for its in r["items"].values() for item in its]
    return math.exp(sum(dt * math.log(g) for _, dt, g in items)
                    / sum(dt for _, dt, _ in items))


def rate(rots: list[dict], metric: str, g_run: float) -> float:
    """Work per second of `metric`'s items (windows, audits or queries) over
    every rotation of the run, the first one's lazy set-up included, at the
    host's quiet pace.  An item that took `dt` while the gauge read `g`
    counts as dt * (g_run / g) ** SENSITIVITY[metric] within the run, and the
    run as a whole is scaled by GAUGE_NOMINAL_S / g_run: over whole runs every
    rate slowed at least as much as the gauge."""
    items = [item for r in rots for item in r["items"][metric]]
    s = SENSITIVITY[metric]
    within = sum(dt * (g_run / g) ** s for _, dt, g in items)
    return sum(work for work, _, _ in items) / (within * GAUGE_NOMINAL_S / g_run)


class Tally:
    """attempted/failed operations and the messages of the failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes: list[str] = []

    def add(self, count: int, failed: int = 0, *, wrong: bool = False,
            note: str = "") -> None:
        self.attempted += count
        self.failed += failed
        if wrong:
            self.correct = False
        if failed and note:
            self.notes.append(note)


class Workload:
    """Inputs drawn from the seed, and one rotation over every engine."""

    def __init__(self, name: str, plan: dict, seed: int, ff):
        import numpy as np

        self.np = np
        self.ff = ff
        self.plan = plan
        self.seed = seed
        self.plan_id = PLAN_IDS[name]
        self.field = ff.field.LabelField(seed)
        self.lattice = ff.lattice.LatticeSpec(2, 1, "l1")
        self.spec = ff.sft.coloring_spec(3)
        self.first = self.draw(0)  # drawn in set-up, the rest between rotations

    @functools.cached_property
    def gauge(self) -> Gauge:
        return Gauge()  # made by the first rotation, so set-up does not pay it

    def draw(self, rotation: int) -> dict:
        """Windows and query sites of one rotation, drawn from the seed."""
        plan, Window = self.plan, self.ff.lattice.Window
        rng = self.np.random.default_rng([self.seed, self.plan_id, rotation])

        def origins(count, d):
            return [tuple(int(x) for x in row) for row in
                    rng.integers(-SITE_SPAN, SITE_SPAN + 1, size=(count, d))]

        windows = {e: [Window(o, (plan[e][1],) * 2) for o in origins(plan[e][0], 2)]
                   for e in WINDOW_ENGINES}
        windows["sft"] = [Window(o, (plan["sft"][1],)) for o in origins(plan["sft"][0], 1)]
        windows["tails"] = [Window(origins(1, 2)[0], (plan["tails"][0],) * 2)]
        sites = {e: origins(n, 2) for e, n in plan["queries"].items()}
        return {"windows": windows, "sites": sites}

    # -- engines: `time` runs the timed call; each returns (output parts,
    # failed sites, audits) --

    def _tower(self, win, extra, time):
        ff, np = self.ff, self.np
        grown = win.grow(TOWER_MARGIN)
        core = (slice(TOWER_MARGIN, -TOWER_MARGIN),) * 2
        tw = time(lambda: ff.reduction.tower_coloring(
            ff.lattice.WindowGraph.build(grown, 1, "l1"), self.field))
        colors = tw.colors.reshape(grown.extent)[core]
        level = tw.level.reshape(grown.extent)[core]
        taint = tw.tainted.reshape(grown.extent)[core]
        # core sites not resolved by level k, summed over the rotation's windows
        extra["tower_core"] += level.size
        for k in range(1, tw.kmax + 1):
            extra[f"reduction.unresolved_share.k{k}"] = \
                extra.get(f"reduction.unresolved_share.k{k}", 0) + \
                int(np.count_nonzero((level == 0) | (level > k)))
            extra[f"reduction.unresolved_bound.k{k}"] = tw.delta / tw.seq.n_k(k)
        audits = [("tower", lambda: ff.verify.check_coloring(colors, valid=~taint),
                   colors.size)]
        return (colors, level, taint), int(taint.sum()), audits

    def _net(self, win, extra, time):
        ff = self.ff
        grown = win.grow(TOWER_MARGIN)
        core = (slice(TOWER_MARGIN, -TOWER_MARGIN),) * 2
        nw = time(lambda: ff.reduction.net_window(
            ff.lattice.WindowGraph.build(grown, 1, "l1"), self.field))
        ind = nw.indicator.reshape(grown.extent)[core]
        taint = nw.tainted.reshape(grown.extent)[core]
        audits = [("net", lambda: ff.verify.check_net(ind, m=1, valid=~taint), ind.size)]
        return (ind, taint), int(taint.sum()), audits

    def _four(self, win, extra, time):
        ff = self.ff
        fc = time(lambda: ff.fourcolor.four_color_window(self.field, win))
        audits = [
            ("four", lambda: ff.verify.check_coloring(fc.colors, valid=fc.valid),
             fc.colors.size),
            ("four faces", lambda: ff.fourcolor.audit_faces(fc.boxes), fc.colors.size),
            ("four signs", lambda: ff.fourcolor.audit_sign_clusters(fc.signs),
             fc.signs.size)]
        return (fc.colors, fc.valid), int((~fc.valid).sum()), audits

    def _baseline4(self, win, extra, time):
        ff = self.ff
        colors, valid = time(lambda: ff.fourcolor.baseline_window(
            self.field, win, margin=BASELINE_MARGIN))
        audits = [("baseline4", lambda: ff.verify.check_coloring(colors, valid=valid),
                   colors.size)]
        return (colors, valid), int((~valid).sum()), audits

    # three2d and threegen leave sites unresolved by design (power-law tails,
    # sparse centers): that is reported as a useful share, not as failures

    def _three2d(self, win, extra, time):
        ff = self.ff
        colors, valid, perc = time(lambda: ff.perc3color.three2d_window(
            self.field, win, margin=THREE2D_MARGIN))
        extra["resolved"] += int(valid.sum())
        extra["built"] += perc.labels.size

        def heights():
            rep = ff.verify.check_heights(colors, valid)
            extra["verify.circuits_checked"] += rep.stats["circuits_checked"]
            return rep

        audits = [("three2d", lambda: ff.verify.check_coloring(colors, valid=valid),
                   colors.size),
                  ("three2d heights", heights, colors.size)]
        return (colors, valid), 0, audits

    def _threegen(self, win, extra, time):
        ff, np = self.ff, self.np
        colors, valid, forest = time(lambda: ff.tiling3color.threegen_window(
            self.field, win, **THREEGEN))
        extra["colored"] += int(valid.sum())
        extra["threegen_sites"] += valid.size
        audits = [("threegen", lambda: ff.verify.check_coloring(colors, valid=valid),
                   colors.size),
                  ("threegen forest", forest.audit, int(np.prod(forest.hi - forest.lo)))]
        return (colors.astype(np.int64), valid), 0, audits

    def _sft(self, win, extra, time):
        ff = self.ff
        run = time(lambda: ff.sft.generate(self.spec, self.field, win))
        audits = [("sft", lambda: ff.sft.verify_membership(run.letters, self.spec),
                   run.letters.size)]
        return (run.letters.astype(self.np.int64),), 0, audits

    def _tails(self, win, extra, time):
        ff = self.ff
        radii, resolved, colors, perc = time(lambda: ff.perc3color.coding_radii(
            self.field, win, cap=self.plan["tails"][1]))
        extra["resolved"] += int(resolved.sum())
        extra["built"] += perc.labels.size
        audits = [("tails", lambda: ff.verify.check_coloring(colors, valid=resolved),
                   colors.size)]
        return (radii, resolved, colors), 0, audits

    def _query_fn(self, engine: str, site: tuple):
        ff = self.ff
        if engine == "tower":
            return lambda f: ff.reduction.tower_color_at(f, site, self.lattice)
        if engine == "baseline4":
            return lambda f: ff.fourcolor.baseline_percolation_4color(site, f)
        return lambda f: ff.tiling3color.three_color_general(
            site, 2, f, density_scale=THREEGEN["density_scale"],
            radius_cap=QUERY_CAP["threegen"])

    def _ask(self, engine: str, site: tuple, budget):
        """One query under `tracked`; None when the budget censors it."""
        try:
            return self.ff.field.tracked(self._query_fn(engine, site), self.field,
                                         site, budget)
        except self.ff.field.BudgetExceeded:
            return None

    # -- one rotation ------------------------------------------------------

    RATES = {"tower": "tower_sites_per_s", "net": "net_sites_per_s",
             "four": "four_sites_per_s", "baseline4": "baseline4_sites_per_s",
             "three2d": "three2d_sites_per_s", "threegen": "threegen_sites_per_s",
             "sft": "sft_letters_per_s", "tails": "three2d_radii_per_s"}

    def rotation(self, tally: Tally, index: int = 0) -> dict:
        """Run every engine once on the inputs of rotation `index`: item
        timings, outputs, extras."""
        inputs = self.first if index == 0 else self.draw(index)
        items, outs = {}, {}
        extra = {"resolved": 0, "built": 0, "colored": 0, "threegen_sites": 0,
                 "tower_core": 0, "verify.circuits_checked": 0}
        audits = []
        for engine, metric in self.RATES.items():
            run_one = getattr(self, f"_{engine}")
            sink, parts = items.setdefault(metric, []), []
            for win in inputs["windows"][engine]:
                out, failed, checks = run_one(
                    win, extra, lambda fn: self.gauge.time(fn, win.size, sink))
                parts.extend(out)
                audits.extend(checks)
                # tower, net, four and baseline4 promise every core site
                tally.add(win.size, failed,
                          note=f"{engine}: {failed} sites tainted or unresolved")
            outs[engine] = parts

        sink = items.setdefault("audit_sites_per_s", [])
        for label, fn, sites in audits:
            rep = self.gauge.time(fn, sites, sink)
            passed = not rep if isinstance(rep, list) else rep.passed
            if passed:
                tally.add(1)
            else:
                detail = rep[:5] if isinstance(rep, list) else rep.summary()
                tally.add(1, 1, wrong=True, note=f"audit {label} failed: {detail}")
        extra["verify.sites_checked"] = sum(sites for _, _, sites in audits)
        extra["perc3color.useful_share"] = extra.pop("resolved") / extra.pop("built")
        extra["tiling3color.valid_share"] = \
            extra.pop("colored") / extra.pop("threegen_sites")
        core = extra.pop("tower_core")
        for name in [n for n in extra if n.startswith("reduction.unresolved_share")]:
            extra[name] /= core

        answers, reads = {}, {}
        for engine in QUERY_ENGINES:
            budget = self.ff.field.Budget(radius_cap=QUERY_CAP[engine])
            sink = items.setdefault(f"{engine}_queries_per_s", [])
            res, acc = [], []
            for site in inputs["sites"][engine]:
                te = self.gauge.time(lambda: self._ask(engine, site, budget), 1, sink)
                if te is None:
                    res.append([list(site), None])
                else:
                    value = [int(x) for x in self.np.atleast_1d(te.value)]
                    res.append([list(site), value, te.radius])
                    acc.append(te.access_count)
            censored = sum(1 for a in res if a[1] is None)
            # threegen censors every query at this cap; tower/baseline4 never should
            tally.add(len(res), 0 if engine == "threegen" else censored,
                      note=f"{engine}: {censored} queries censored")
            answers[engine], reads[engine] = res, acc
            outs[f"q_{engine}"] = [res]
        self.gauge.read()  # files the calls timed since the last reading
        return {"items": items, "outs": outs, "extra": extra, "reads": reads,
                "answers": answers}

    # -- checks outside the timed region -----------------------------------

    def agreement(self, answers: dict, tally: Tally) -> None:
        """Window engines must reproduce the first demand answers."""
        ff, fld = self.ff, self.field
        for site, value, *_ in [a for a in answers["tower"] if a[1]][:AGREE_SITES]:
            win = ff.lattice.Window((site[0] - 20, site[1] - 20), (41, 41))
            tw = ff.reduction.tower_coloring(ff.lattice.WindowGraph.build(win, 1, "l1"), fld)
            i = win.index(tuple(site))
            if not tw.tainted[i]:
                bad = [int(tw.colors[i]), int(tw.level[i])] != value
                tally.add(1, int(bad), wrong=bad,
                          note=f"tower demand/window disagree at {site}")
        for site, value, *_ in [a for a in answers["baseline4"] if a[1]][:AGREE_SITES]:
            colors, valid = ff.fourcolor.baseline_window(
                fld, ff.lattice.Window(tuple(site), (1, 1)), margin=BASELINE_MARGIN)
            if valid[0, 0]:
                bad = [int(colors[0, 0])] != value
                tally.add(1, int(bad), wrong=bad,
                          note=f"baseline4 demand/window disagree at {site}")


def engine_digests(outs: dict) -> dict:
    return {name: digest(parts) for name, parts in sorted(outs.items())}


def check_digests(got: dict, pinned: dict, label: str, tally: Tally) -> None:
    for name, want in sorted(pinned.items()):
        bad = got.get(name) != want
        tally.add(1, int(bad), wrong=bad,
                  note=f"{label} {name} output digest changed")


def load_ffcolor():
    """Import ffcolor from the checkout's src/, never from an installed copy."""
    if not (SRC / "ffcolor" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ffcolor sources under {SRC}; run from the root "
                 "of a checkout")
    sys.path.insert(0, str(SRC))
    import types

    import ffcolor
    from ffcolor import (covfree, field, fourcolor, lattice, perc3color,
                         reduction, sft, tiling3color, verify)
    if not Path(ffcolor.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: imported ffcolor from {ffcolor.__file__}, not {SRC}")
    return types.SimpleNamespace(
        covfree=covfree, field=field, fourcolor=fourcolor, lattice=lattice,
        perc3color=perc3color, reduction=reduction, sft=sft,
        tiling3color=tiling3color, verify=verify)


def measure(wl: Workload, seconds: float, tally: Tally, tracer=None) -> list[dict]:
    """Rotations, each on new inputs, while a rotation of median length would
    end nearer to `seconds` than the last one did; with a tracer, odd
    rotations are traced."""
    minimum = MIN_ROTATIONS + (2 if tracer is not None else 0)
    rots = []
    end = perf_counter() + seconds
    while (len(rots) < minimum or perf_counter()
           + statistics.median(r["wall"] for r in rots) / 2 < end):
        traced = tracer is not None and len(rots) % 2 == 1
        if traced:
            tracer.install()
        try:
            rec, wall = timed(lambda: wl.rotation(tally, len(rots)))
        finally:
            if traced:
                tracer.remove()
        rec["wall"] = wall
        rec["layers"] = tracer.take() if traced else None
        # keep only what later checks read, so rotations do not pile up objects
        outs, answers = rec.pop("outs"), rec.pop("answers")
        rec["censored"] = {e: sum(1 for a in answers[e] if a[1] is None)
                           for e in QUERY_ENGINES}
        if not rots:  # the first rotation is checked against pinned outputs
            rec["digests"], rec["answers"] = engine_digests(outs), answers
        rots.append(rec)
    return rots


def alloc_peaks(wl: Workload) -> dict:
    """tracemalloc peaks of one PercWindow.build, tower_coloring and
    four_color_window, each traced on its own outside the timed rotations."""
    import tracemalloc

    ff, fld, W = wl.ff, wl.field, wl.first["windows"]

    def peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    wg = ff.lattice.WindowGraph.build(W["tower"][0].grow(TOWER_MARGIN), 1, "l1")
    cap = wl.plan["tails"][1]
    return {
        "reduction.tower_coloring.alloc_peak_mb":
            peak(lambda: ff.reduction.tower_coloring(wg, fld)),
        "fourcolor.four_color_window.alloc_peak_mb":
            peak(lambda: ff.fourcolor.four_color_window(fld, W["four"][0])),
        "perc3color.build.alloc_peak_mb":
            peak(lambda: ff.perc3color.PercWindow.build(
                fld, W["tails"][0].grow(cap // 2 + 2))),
    }


def setup_seconds(argv: list[str]) -> float:
    """Median wall time of fresh interpreters doing only the set-up.  Within
    a run it does not follow the gauge, so only `end_to_end` scales it, by the
    run's gauge level, as every rate."""
    return statistics.median(
        timed(lambda: subprocess.run(
            [sys.executable, str(Path(__file__)), *argv, "--setup-only"], check=True))[1]
        for _ in range(SETUP_PROBES))


def end_to_end(rots: list[dict], rss_mb: float, setup_s: float) -> dict:
    g_run = run_gauge(rots)
    out = {name: rate(rots, name, g_run) for name in rots[0]["items"]}
    # the rotations every run makes, so the count is exact for a seed
    reads = [a for r in rots[:MIN_ROTATIONS] for e in ("tower", "baseline4")
             for a in r["reads"][e]]
    out["reads_per_query"] = sum(reads) / len(reads)
    out["peak_rss_mb"] = rss_mb
    out["setup_s"] = setup_s * GAUGE_NOMINAL_S / g_run
    return out


def per_layer(rots: list[dict], wl: Workload, tracer) -> dict:
    from spans import layer_metric_names

    traced = [r for r in rots if r["layers"] is not None]
    plain = [r for r in rots if r["layers"] is None]
    out = {}
    for name in layer_metric_names():
        out[name] = statistics.median(r["layers"].get(name, 0) for r in traced)
    for name in traced[0]["extra"]:
        out[name] = statistics.median(r["extra"][name] for r in traced)
    gen = out.pop("sft.generate.calls")
    out["sft.pad_retries"] = out.pop("reduction.mnet_window.calls") / gen - 1
    for engine in QUERY_ENGINES:
        # every untraced query of the run is one sample
        s = sorted(dt * 1e3 for r in plain
                   for _, dt, _ in r["items"][f"{engine}_queries_per_s"])
        n = len(s)
        # the highest percentile with at least ten samples beyond it
        pct = max(50, int(100 * (1 - 10 / n)))
        out[f"demand.{engine}.latency_p50_ms"] = statistics.median(s)
        out[f"demand.{engine}.latency_tail_ms"] = s[min(n - 1, pct * n // 100)]
        out[f"demand.{engine}.latency_tail_pct"] = pct
        out[f"demand.{engine}.samples"] = n
        out[f"demand.{engine}.censored_share"] = \
            sum(r["censored"][engine] for r in plain) / n
    warm = plain[1:]  # the first rotation also pays lazy set-up
    untraced_wall = statistics.median(r["wall"] for r in warm)
    traced_wall = statistics.median(r["wall"] for r in traced)
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.overhead_share"] = traced_wall / untraced_wall - 1
    out["trace.spans"] = tracer.span_total
    out["run.first_rotation_s"] = plain[0]["wall"]
    out["run.rotation_s"] = untraced_wall
    out.update(alloc_peaks(wl))
    return out


def write_spans(tracer, workload: str, seed: int) -> Path:
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": workload, "seed": seed, "span_total": tracer.span_total,
        "fields": ["id", "layer", "start_s", "end_s", "parent_id"],
        "spans": tracer.spans}))
    return path


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="stop after set-up (used to time set-up in a fresh process)")
    return p.parse_args(argv)


def main(argv=None, workloads=WORKLOADS) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    ff = load_ffcolor()
    wl = Workload(args.workload, workloads[args.workload], args.seed, ff)
    if args.setup_only:
        return 0
    spec = json.loads(SPEC_FILE.read_text())
    pinned = json.loads(DIGEST_FILE.read_text())
    tally = Tally()

    tracer = None
    if args.trace:
        sys.path.insert(0, str(HERE))
        from spans import Tracer
        tracer = Tracer()
    rots, measured = timed(lambda: measure(wl, args.seconds, tally, tracer))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    checks_start = perf_counter()
    if args.seed == DEFAULT_SEED and workloads is WORKLOADS:
        check_digests(rots[0]["digests"], pinned["workloads"][args.workload],
                      args.workload, tally)
    canary = Workload("canary", CANARY, DEFAULT_SEED, ff)
    check_digests(engine_digests(canary.rotation(tally)["outs"]),
                  pinned["canary"], "canary", tally)
    wl.agreement(rots[0]["answers"], tally)
    checks = perf_counter() - checks_start

    if tracer is None:
        values = end_to_end(rots, rss_mb, setup_seconds(argv))
        declared = spec["end_to_end"]
    else:
        values = per_layer(rots, wl, tracer)
        declared = spec["per_layer"]
        print(f"spans: {write_spans(tracer, args.workload, args.seed)}", file=sys.stderr)
    names = {m["name"] for m in declared}
    if names != set(values):
        sys.exit(f"perfbench: metrics {sorted(set(values) ^ names)} are not both "
                 "declared and measured")
    for note in tally.notes:
        print(f"perfbench: {note}", file=sys.stderr)
    print(f"{args.workload}: {len(rots)} rotations in {measured:.1f} s, "
          f"checks {checks:.1f} s, gauge {run_gauge(rots) * 1e3:.2f} ms", file=sys.stderr)
    print(json.dumps({
        "correct": tally.correct, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
