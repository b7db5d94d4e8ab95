"""Golden sha256 digests of the tower pipeline's seeded output.

The tower window engine (`tower_coloring`), the net scan built on it
(`net_window`) and the SFT generator that anchors on those nets
(`sft.generate`) are pure functions of the seed.  Any rewrite of their array
passes must keep every output bit, so the digests below are pinned.  They
were computed from the program as it stood before the tower passes were
vectorized (dependency-round greedy, word-scan `reduce_min`, levels k >= 2
restricted to unresolved sites), and have not been recomputed since.

A digest covers each array's dtype, shape and bytes, in the order listed.
"""

import hashlib

import numpy as np
import pytest

from ffcolor.field import LabelField
from ffcolor.lattice import FiniteGraph, Window, WindowGraph
from ffcolor.reduction import net_window, tower_coloring
from ffcolor.sft import coloring_spec, generate


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _window():
    return WindowGraph.build(Window((-56, -56), (112, 112)), 1, "l1")


def _irregular_graph() -> FiniteGraph:
    # 2000 vertices of degree 0..3, the last 40 isolated, from a fixed rng
    rs = np.random.default_rng(2024)
    n, iso, cap = 2000, 40, 3
    deg = np.zeros(n, dtype=np.int64)
    edges = set()
    for _ in range(4000):
        u, v = (int(x) for x in rs.integers(0, n - iso, size=2))
        e = (min(u, v), max(u, v))
        if u == v or deg[u] >= cap or deg[v] >= cap or e in edges:
            continue
        edges.add(e)
        deg[u] += 1
        deg[v] += 1
    return FiniteGraph.from_edges(n, sorted(edges))


TOWER_WINDOW = {
    0: "c10cc334e3b17d190398ee5d0756d1cc28dfeb0cf282f9a3d50426571066ac0a",
    1: "43685cca0c8a9a5126dcae66a0665fc1a3b6571583e29724e5f261ee2e5c3244",
}

NET_WINDOW = {
    0: "7e1941a22bd13ab5abef46fc0ef5d05b45c68eb7ea95943f1cbea7e285409725",
    1: "544b7cf37dc08fabe9cb777154cf8e7de40048dc5d24a11c0fdef6a3b1ca3942",
}

TOWER_GRAPH = "68f5ed989f7d3b01352adb43136f56416c02bd3d8f89e2eb4adfaca7e04e19cc"

SFT = "bacbe1cfa210d9c05b38009b27eeb7e61aa8dbdc9cbc9a01d619ef98852c7624"


@pytest.mark.parametrize("seed", sorted(TOWER_WINDOW))
def test_tower_window_digest(seed):
    tw = tower_coloring(_window(), LabelField(seed))
    assert _digest(tw.colors, tw.level, tw.tainted) == TOWER_WINDOW[seed]


@pytest.mark.parametrize("seed", sorted(NET_WINDOW))
def test_net_window_digest(seed):
    nw = net_window(_window(), LabelField(seed))
    assert _digest(nw.indicator, nw.tainted) == NET_WINDOW[seed]


def test_tower_bare_graph_digest():
    tw = tower_coloring(_irregular_graph(), LabelField(7))
    # levels 2 and 3 and the greedy fallback are all part of what is pinned
    assert tw.kmax == 3 and tw.fallback_count > 0
    assert _digest(tw.colors, tw.level, tw.tainted) == TOWER_GRAPH


def test_sft_generate_digest():
    run = generate(coloring_spec(3), LabelField(11), Window((-100,), (250,)))
    assert _digest(run.letters, run.net_points, run.reach) == SFT
