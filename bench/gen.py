"""Seeded input generators and fixed presentations, as JSON documents.

Everything here is plain Python: the library only ever sees the documents
these functions return.  Graphs are lists of (src, tgt, label) triples over
0-based states; documents use the 1-based state names the format expects.
"""

from __future__ import annotations

import json

SCHEMA_VERSION = 1


def document(kind, name, payload):
    return json.dumps(
        {"schema_version": SCHEMA_VERSION, "kind": kind, "name": name, "payload": payload},
        sort_keys=True,
    )


def sofic_doc(name, n, edges):
    return document(
        "subshift",
        name,
        {
            "variant": "sofic",
            "states": [str(q + 1) for q in range(n)],
            "edges": sorted([str(s + 1), str(t + 1), a] for (s, t, a) in edges),
        },
    )


def sft_doc(name, symbols, matrix):
    return document(
        "subshift",
        name,
        {"variant": "sft", "symbols": list(symbols), "matrix": [list(r) for r in matrix]},
    )


def lgs_doc(name, matrix, depth):
    """Constant one-sided system of a nonnegative integer matrix, iota = id.

    Entry (i, j) = k gives k parallel edges labeled a{i+1}{j+1}, suffixed
    _{r+1} when k > 1, so the labeling is left-resolving.
    """
    n = len(matrix)
    edges = []
    for i in range(n):
        for j in range(n):
            k = matrix[i][j]
            for r in range(k):
                edges.append([i + 1, j + 1, f"a{i+1}{j+1}" + (f"_{r+1}" if k > 1 else "")])
    edges.sort()
    return document(
        "lambda_graph_system",
        name,
        {
            "level_sizes": [n] * (depth + 1),
            "alphabet": sorted({a for (_, _, a) in edges}),
            "edges": [edges] * depth,
            "iota": [list(range(1, n + 1))] * depth,
            "repeat_from": None,
        },
    )


# -- fixed presentations ----------------------------------------------------


def full_shift(n):
    symbols = [chr(ord("a") + i) for i in range(n)]
    return sft_doc(f"full{n}", symbols, [[1] * n for _ in range(n)])


def golden_mean():
    return sft_doc("golden_mean", ["1", "2"], [[1, 1], [1, 0]])


EVEN_EDGES = ((0, 0, "a"), (0, 1, "b"), (1, 0, "b"))
GOLDEN_EDGES = ((0, 0, "1"), (0, 1, "2"), (1, 0, "1"))


def even_shift():
    return sofic_doc("even", 2, EVEN_EDGES)


def alternating(k_ab, k_ba):
    """Two states; k_ab labels one way, k_ba labels back: bipartite."""
    edges = [(0, 1, f"a{r}") for r in range(k_ab)] + [(1, 0, f"b{r}") for r in range(k_ba)]
    return sofic_doc(f"alternating_{k_ab}_{k_ba}", 2, edges)


def two_power(name, n, edges):
    """Bipartite double of a graph: even copy -> odd copy labeled c, back d."""
    doubled = []
    for (s, t, a) in edges:
        doubled.append((2 * s, 2 * t + 1, a + "c"))
        doubled.append((2 * s + 1, 2 * t, a + "d"))
    return sofic_doc(f"two_power_{name}", 2 * n, doubled)


# -- random inputs ----------------------------------------------------------


def _strongly_connected(n, edges):
    adj = [[] for _ in range(n)]
    radj = [[] for _ in range(n)]
    for (s, t, _) in edges:
        adj[s].append(t)
        radj[t].append(s)
    for nbrs in (adj, radj):
        seen = {0}
        stack = [0]
        while stack:
            for t in nbrs[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        if len(seen) != n:
            return False
    return True


def random_sofic(rng, n, depth=None, classes=None, relations=None):
    """Irreducible graph on n states, labels {a, b}, both labels used.

    A random cycle through all states makes the graph irreducible, so no
    state is stranded; each state then gets a second out-edge with
    probability one half, with a random target and label.  The graph is
    resampled until both labels occur and its size lies in the given bands:
    ``relations`` bounds the word-relation monoid (what the ray-set search
    walks) and ``classes`` the class estimate at ``depth`` (what the level
    sizes follow).  Returns (edges, {"relations": ..., "class_estimate": ...}).
    """
    while True:
        order = rng.sample(range(n), n)
        edges = {(order[i], order[(i + 1) % n], rng.choice("ab")) for i in range(n)}
        for s in range(n):
            if rng.random() < 0.5:
                edges.add((s, rng.randrange(n), rng.choice("ab")))
        if {a for (_, _, a) in edges} != {"a", "b"}:
            continue
        edges = sorted(edges)
        size = {}
        if relations is not None:
            size["relations"] = relation_count(n, edges, relations[1])
            if not relations[0] <= size["relations"] <= relations[1]:
                continue
        if classes is not None:
            size["class_estimate"] = class_estimate(n, edges, depth)
            if not classes[0] <= size["class_estimate"] <= classes[1]:
                continue
        return edges, size


def random_01_matrix(rng, n=3):
    """Irreducible non-permutation 0/1 matrix."""
    while True:
        a = [[rng.randint(0, 1) for _ in range(n)] for _ in range(n)]
        if all(sum(row) == 1 for row in a):
            continue
        edges = [(i, j, "") for i in range(n) for j in range(n) if a[i][j]]
        if _strongly_connected(n, edges):
            return a


def _subsets(n, edges, forward):
    """Subsets reachable from the full state set in the (reversed) subset construction."""
    by: dict = {}
    for (s, t, a) in edges:
        by.setdefault(a, []).append((s, t) if forward else (t, s))
    start = frozenset(range(n))
    seen = {start}
    stack = [start]
    while stack:
        cur = stack.pop()
        for pairs in by.values():
            nxt = frozenset(t for (s, t) in pairs if s in cur)
            if nxt and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def class_estimate(n, edges, depth):
    """Distinct length-depth fill-in word sets over reachable subset pairs.

    An independent stand-in for the number of canonical classes at level
    ``depth`` (it uses every reachable subset rather than only the realizable
    ray sets), cheap enough to size random inputs before the library sees
    them.  A job's cost grows with it far more tightly than with the state
    count.
    """
    pasts = _subsets(n, edges, True)
    futures = _subsets(n, edges, False)
    out: dict = {}
    for (s, t, a) in edges:
        out.setdefault(s, []).append((a, t))
    classes = set()
    for p in pasts:
        frontier = {(): p}
        for _ in range(depth):
            nxt: dict = {}
            for w, ends in frontier.items():
                for s in ends:
                    for (a, t) in out.get(s, ()):
                        nxt.setdefault(w + (a,), set()).add(t)
            frontier = nxt
        for f in futures:
            words = frozenset(w for w, ends in frontier.items() if ends & f)
            if words:
                classes.add(words)
    return len(classes)


def relation_count(n, edges, cap):
    """Size of the monoid of word relations on states; stops once past cap.

    The library's ray-set search walks this monoid, so a graph whose monoid
    is large is slow to build however few classes it has.
    """
    by: dict = {}
    for (s, t, a) in edges:
        by.setdefault(a, []).append((s, t))
    ident = frozenset((q, q) for q in range(n))
    seen = {ident}
    stack = [ident]
    while stack and len(seen) <= cap:
        rel = stack.pop()
        for pairs in by.values():
            nxt = frozenset((p, t) for (p, q) in rel for (s, t) in pairs if s == q)
            if nxt and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen)
