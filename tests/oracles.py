"""Reference code the library no longer calls.

The canonical build and the FPCC check work on hash-consed word DAGs
(``bisys.core.WordDag``) and list no word.  Most functions here list every
word, one path or one pair at a time, and are what the tests compare the
DAG code against.  ``specified_equivalence_failure`` is the cell check that
builds a checked formal sum for every cell, which the dict-level check
replaced.  ``ray_sets`` is the relation walk over frozensets of (source,
target) pairs that the bitmask walk replaced.  ``sigma_condition_I_witness``
is the shift-distinctness search with nested window closures and a recursive
backtracking, which one window generator and one backtracking loop replaced.
``verify_psse_1step`` and ``verify_sse_1step`` are the verifiers that make
every product and check every equation at every level, where the library
makes each once per distinct operand object.  ``range_fault``,
``axiom_verdicts``, ``corners``, ``matrix_report`` and ``presented_words``
check and walk every level, where the library does each step once per
distinct block object and renders the result per level.
``kernel_map_is_iso`` is the kernel-map verdict that solves for the
coordinates of each image in a kernel basis, through one dense Smith form,
and takes their determinant, where the library checks that the images span
a saturated lattice; ``solve``, ``determinant`` and the other dense helpers
after it went with it.  ``scan_factor`` is the ladder factorization that
scanned every unpivoted row for the least-cost unit pivot before each pivot
and built every field at once, where the library keeps one key per row in a
heap and builds the kernel only when it is read.  It records its row
operations and the U of its residual block, which ``cokernel_map_is_iso``
replays on iota to read the classes of its images in the cokernel, where
the library factorizes [theta | iota] once.
``detect_bipartite`` tries the symbol colourings as bitmasks, least first,
and rescans the dense blocks for each one, where the library solves the
parity equations of the colouring once over the edge index.
``cokernel`` and ``kernel_basis`` are the two dense Smith-form readings that
``ck_oracle`` replaced by one, and ``_edges_by_label`` is the per-label edge
list that ``admissible_words`` replaced by the successor index.
``word_sets`` builds the follower and predecessor languages as frozensets,
one word at a time, where the library lists the nodes of one word-DAG walk.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from itertools import chain

from bisys.bisystem import (
    BisystemError,
    LambdaGraphBisystem,
    SigmaIResult,
    ValidationReport,
    Verdict,
)
from bisys.canonical import CanonicalError, CentralClass
from bisys.core import (
    Alphabet,
    CoreError,
    FormalSum,
    SymbolicMatrix,
    WordDag,
    kappa_matrix,
    share,
    specified_equivalence_failure as _specified_equivalence_failure,
    symbolic_matrix_multiply,
    word_str,
)
from bisys.equivalence import BipartiteStructure, VerifyReport
from bisys.ktheory import FgAbelianGroup, _Factored, _identity, _subtract, smith_normal_form
from bisys.subshift import (
    LabeledGraph,
    SubshiftError,
    SubshiftPresentation,
    _successors,
    realizable_future_sets,
    realizable_past_sets,
)


def _step_left(pred_a: dict, rel):
    """Relation composition with the one-symbol relation on the left."""
    return frozenset((s, q) for (p, q) in rel for s in pred_a.get(p, ()))


def ray_sets(g: LabeledGraph):
    """The realizable past sets of g: the ranges of the word relations, each
    a frozenset of (source, target) pairs, that lie on a range-preserving
    cycle reachable from the identity relation."""
    pred = _successors(g.reversed())
    steps = [pred[a] for a in g.labels]
    ident = frozenset((q, q) for q in g.states)
    seen = {ident}
    succ: dict = {}
    stack = [ident]
    while stack:
        rel = stack.pop()
        outs = [nxt for nxt in (_step_left(by, rel) for by in steps) if nxt]
        for nxt in outs:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
        succ[rel] = outs
    return ranges_on_constant_cycles(seen, succ, lambda rel: frozenset(q for (_, q) in rel))


def ranges_on_constant_cycles(nodes, succ, value):
    """Values v = value(node) realized by an infinite path of constant value,
    sorted by their sorted state names."""
    out = set()
    for start in nodes:
        v = value(start)
        if v in out:
            continue
        # cycle search inside the value-preserving subgraph reachable from start
        stack = [(start, iter(succ.get(start, ())))]
        on_path = {start}
        visited = {start}
        found = False
        while stack and not found:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if value(nxt) != v:
                    continue
                if nxt in on_path:
                    found = True
                    break
                if nxt in visited:
                    continue
                visited.add(nxt)
                on_path.add(nxt)
                stack.append((nxt, iter(succ.get(nxt, ()))))
                advanced = True
                break
            if not advanced and not found:
                on_path.discard(node)
                stack.pop()
        if found:
            out.add(v)
    return tuple(sorted(out, key=lambda s: tuple(sorted(map(str, s)))))


def _step_right(succ_a: dict, rel):
    """Relation composition with the one-symbol relation on the right."""
    return frozenset((p, t) for (p, q) in rel for t in succ_a.get(q, ()))


def _word_relation(g: LabeledGraph, w) -> frozenset:
    succ = _successors(g)
    rel = frozenset((q, q) for q in g.states)
    for a in w:
        rel = _step_right(succ.get(a, {}), rel)
    return rel


def past_state_set(g: LabeledGraph, w) -> frozenset:
    """States reachable at the right end of w by arbitrarily long left extensions.

    Because no state of a presentation is stranded, this is exactly the set of
    endpoints of paths labeled w.
    """
    rel = _word_relation(g, w)
    if not rel:
        raise SubshiftError(f"word {''.join(w)!r} is not admissible")
    return frozenset(q for (_, q) in rel)


def past_state_stable(g: LabeledGraph, w) -> bool:
    """True when no admissible one-symbol left extension shrinks the past set."""
    base = past_state_set(g, w)
    for a in g.labels:
        rel = _word_relation(g, (a,) + tuple(w))
        if rel and frozenset(q for (_, q) in rel) != base:
            return False
    return True


def _edges_by_label(g: LabeledGraph) -> dict:
    by: dict = {}
    for (s, t, a) in g.edges:
        by.setdefault(a, []).append((s, t))
    return by


def step_past(g: LabeledGraph, pset, a) -> frozenset:
    """Past set after appending ``a`` on the right of the left ray."""
    by = _edges_by_label(g).get(a, ())
    return frozenset(t for (s, t) in by if s in pset)


def fill_in_words(g: LabeledGraph, pset, fset, n: int):
    """Labels of length-n paths from a state of pset to a state of fset."""
    if n == 0:
        return ((),) if set(pset) & set(fset) else ()
    by = _edges_by_label(g)
    frontier = {(): frozenset(pset)}
    for _ in range(n):
        nxt: dict = {}
        for w, ends in frontier.items():
            for a, pairs in by.items():
                targets = frozenset(t for (s, t) in pairs if s in ends)
                if targets:
                    key = w + (a,)
                    nxt[key] = nxt.get(key, frozenset()) | targets
        frontier = nxt
    return tuple(sorted(w for w, ends in frontier.items() if ends & frozenset(fset)))


def reference_classes(g: LabeledGraph, level: int):
    """(words, pairs) per class from one ``fill_in_words`` call per pair,
    ordered by (size, words)."""
    table = {}
    for p in realizable_past_sets(g):
        for f in realizable_future_sets(g):
            words = fill_in_words(g, p, f, level)
            if words:
                table.setdefault(words, []).append((tuple(sorted(p)), tuple(sorted(f))))
    return [(ws, tuple(sorted(table[ws]))) for ws in sorted(table, key=lambda ws: (len(ws), ws))]


def central_classes(pres: SubshiftPresentation, level: int):
    """Distinct classes at one level, each language interned from its words."""
    if level < 0:
        raise CanonicalError("level must be >= 0")
    g = pres.graph
    dag = WordDag(g.labels)
    out = []
    for words, pairs in reference_classes(g, level):
        node = 0
        for w in words:
            node = dag.union(node, dag.prepend(w, 1))
        out.append(CentralClass(level, pairs, (dag, node)))
    return tuple(out)


def word_sets(b: LambdaGraphBisystem, side: str):
    """Per level, per vertex: the frozenset of the label words of the side's
    paths between the vertex and level 0, built one word at a time; a minus
    label joins a word at its left end, a plus label at its right end."""
    prepend = side == "minus"
    sets = [(frozenset([()]),) * b.level_sizes[0]]
    for block in b.adjacency[side, "upper"]:
        below = sets[-1]
        sets.append(tuple(
            frozenset(a + w if prepend else w + a for (i, a) in edges for w in below[i])
            for edges in block
        ))
    return tuple(sets)


def fpcc_verdict(b: LambdaGraphBisystem) -> Verdict:
    """FPCC from the explicit follower and predecessor word sets."""
    if not b.is_standard:
        return Verdict(False, ("not standard: |V_0| != 1",))
    if not b.has_common_alphabet:
        return Verdict(False, ("alphabets differ between the two sides",))
    F = word_sets(b, "minus")
    P = word_sets(b, "plus")
    bad = []
    for l in range(1, b.depth + 1):
        for i in range(b.level_sizes[l]):
            if F[l][i] != P[l][i]:
                bad.append(
                    f"{b.vertex_name(l, i)}: follower words "
                    f"{sorted(map(word_str, F[l][i]))} != predecessor words "
                    f"{sorted(map(word_str, P[l][i]))}"
                )
    return Verdict(not bad, tuple(bad))


def specified_equivalence_failure(a, b, spec):
    """None when a maps onto b entrywise under spec, else a reason string."""
    if (a.rows, a.cols) != (b.rows, b.cols):
        return f"shape mismatch {a.rows}x{a.cols} vs {b.rows}x{b.cols}"
    mapping = spec.as_dict()
    for i in range(a.rows):
        for j in range(a.cols):
            image: dict = {}
            for w, c in a.entries[i][j].items():
                if w not in mapping:
                    return (
                        f"not equivalent under the specification: symbol "
                        f"{word_str(w)} at cell ({i},{j}) is unmapped"
                    )
                v = mapping[w]
                image[v] = image.get(v, 0) + c
            if FormalSum(image) != b.entries[i][j]:
                return f"cell ({i},{j}): {FormalSum(image)!r} != {b.entries[i][j]!r}"
    return None


def _column(b, top_level, top_vertex, labels):
    """Downward minus path from the top vertex with the given labels, or None."""
    upper = b.adjacency["minus", "upper"]
    path = [top_vertex]
    for lvl, a in zip(range(top_level - 1, -1, -1), map(tuple, labels)):
        step = next((t for (t, lab) in upper[lvl][path[-1]] if lab == a), None)
        if step is None:
            return None
        path.append(step)
    return tuple(path)


def sigma_condition_I_witness(b: LambdaGraphBisystem, level: int, bound: int,
                              max_candidates: int = 4096) -> SigmaIResult:
    """Search for cylinder refinements certifying shift-distinctness.

    For each (vertex at the level, follower word) the search picks a window
    of horizontal width 2*bound: a forward symbol word, the added bottom
    labels, and the column of vertices after each step.  Windows are simulated
    column by column through the plus edges; two window points are certified
    distinct under n shifts when their visible symbol words or their columns
    (vertices or labels) disagree.  Outcomes are three-valued: a witness,
    absent at this depth (exhaustive failure over the window class), or
    inconclusive when the level is out of range, the candidate cap cut the
    enumeration short, or the backtracking compared more than max_candidates
    pairs of windows per item in all.
    """
    if not (1 <= bound <= level):
        raise BisystemError("need 1 <= bound <= level")
    if level > b.depth:
        return SigmaIResult("inconclusive", level, bound)
    width = 2 * bound

    F = word_sets(b, "minus")
    lam = b.sigma_minus.word_length
    items = []
    for i in range(b.level_sizes[level]):
        for xi in sorted(F[level][i]):
            items.append((i, xi))

    plus_lower = b.adjacency["plus", "lower"]

    def label_chunks(w):
        return [w[p : p + lam] for p in range(0, len(w), lam)]

    capped = False

    def candidates(i, xi):
        """Deterministic stream of windows for one (vertex, word) item."""
        nonlocal capped
        base_labels = label_chunks(xi)
        col0 = (_column(b, level, i, base_labels), tuple(base_labels))
        out = []

        def extend(cols, alphas, bottoms):
            nonlocal capped
            if len(alphas) == width:
                out.append((tuple(alphas), tuple(bottoms), tuple(cols)))
                if len(out) >= max_candidates:
                    capped = True
                    return True
                return False
            prev_path, prev_labels = cols[-1]
            want = list(prev_labels[1:])  # shift down: drop the top label
            for alpha in b.sigma_plus.symbols:
                for bot in b.sigma_minus.symbols:
                    labs = want + [bot]
                    for top in range(b.level_sizes[level]):
                        path = _column(b, level, top, labs)
                        if path is None:
                            continue
                        # plus edges: prev column level j -> new column level j+1
                        if not all(
                            (path[level - j - 1], alpha) in plus_lower[j][prev_path[level - j]]
                            for j in range(level)
                        ):
                            continue
                        if extend(cols + [(path, tuple(labs))], alphas + [alpha],
                                  bottoms + [bot]):
                            return True
            return False

        extend([col0], [], [])
        return out

    cand = {}
    for it in items:
        cs = candidates(*it)
        if not cs:
            return SigmaIResult("inconclusive" if capped else "absent", level, bound)
        cand[it] = cs

    def distinct(win_x, win_y, n):
        """Certify shift^n of the x-window differs from the y-window."""
        ax, _, cx = win_x
        ay, _, cy = win_y
        for p in range(width - n):
            if ax[n + p] != ay[p]:
                return True
        for p in range(width - n + 1):
            if cx[n + p] != cy[p]:
                return True
        return False

    chosen = {}
    budget = max_candidates * len(items)  # window comparisons the backtracking may make

    def assign(pos):
        nonlocal budget, capped
        if pos == len(items):
            return True
        it = items[pos]
        for win in cand[it]:
            ok = True
            for other, owin in chain(chosen.items(), ((it, win),)):
                if not budget:
                    capped = True
                    return False
                budget -= 1
                for n in range(1, bound + 1):
                    if not distinct(win, owin, n) or (
                        other != it and not distinct(owin, win, n)
                    ):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                chosen[it] = win
                if assign(pos + 1):
                    return True
                del chosen[it]
        return False

    if assign(0):
        rows = tuple(
            (
                b.vertex_name(level, i),
                xi,
                tuple(a for a in chosen[(i, xi)][0]),
                tuple(t for t in chosen[(i, xi)][1]),
            )
            for (i, xi) in items
        )
        return SigmaIResult("witness", level, bound, rows)
    return SigmaIResult("inconclusive" if capped else "absent", level, bound)


# ---------------------------------------------------------------------------
# the verifiers without a product or equation memo; they call the library's
# cell check, not the reference one above


def verify_psse_1step(s_m, s_n, w, depth=None) -> VerifyReport:
    """The library's verdict, checked afresh: no report is kept on ``w``."""
    depth = min(depth if depth is not None else s_m.depth, s_m.depth, s_n.depth)
    return _verify_psse(s_m, s_n, w, depth)


def _too_short(depth: int, have: int, need: int, unit: str) -> VerifyReport:
    """The report on a witness with fewer matrices per family than the depth
    needs; the failure is placed at the first missing index."""
    return VerifyReport(False, depth, (
        ("shape", have, f"witness covers {have} of the {need} {unit} depth {depth} needs"),
    ))


def _verify_psse(s_m, s_n, w, depth) -> VerifyReport:
    if w.levels < 2 * depth:
        return _too_short(depth, w.levels, 2 * depth, "half-levels")
    failures = []
    # each side with its reading of the witness and the names of its P, X, Y
    sides = (("M", s_m, w, "PXY"), ("N", s_n, w.swapped(), "QYX"))

    # horizontal anchors of the witness shape chain
    for idx in range(0, 2 * depth, 2):
        for _, s, v, names in sides:
            rows = s.level_sizes[idx // 2]
            if v.p_mats[idx].rows != rows:
                failures.append(("shape", idx, f"{names[0]}_{idx} must have {rows} rows"))
    if failures:
        return VerifyReport(False, depth, tuple(failures))

    def eq(family, level, lhs_fn, rhs_fn, spec=None):
        try:
            lhs, rhs = lhs_fn(), rhs_fn()
        except CoreError as e:  # inner-dimension mismatch in a product
            failures.append((family, level, str(e)))
            return
        if spec is None:
            if (lhs.rows, lhs.cols) != (rhs.rows, rhs.cols):
                failures.append((family, level, "shape mismatch"))
                return
            try:
                k = kappa_matrix(lhs)
            except CoreError as e:  # unfactorable product term
                failures.append((family, level, str(e)))
                return
            if not k.same_entries(rhs):
                failures.append((family, level, "kappa-exchanged products differ"))
        else:
            msg = _specified_equivalence_failure(lhs, rhs, spec)
            if msg is not None:
                failures.append((family, level, msg))

    mul = symbolic_matrix_multiply
    for side, s, v, names in sides:
        p, q, x, y = v.p_mats, v.q_mats, v.x_mats, v.y_mats
        kphi = v.phi_m.then_kappa(v.alphabet_c.word_length)
        for l in range(depth):
            eq(f"plus-factorisation({side})", l, lambda: s.plus[l],
               lambda: mul(p[2 * l], q[2 * l + 1]), v.phi_m)
            eq(f"minus-factorisation({side})", l, lambda: s.minus[l],
               lambda: mul(x[2 * l], y[2 * l + 1]), kphi)
        # Y and P commute up to kappa across odd half-levels, X and P across even
        for a in range(2 * depth - 1):
            z, name = (y, names[2]) if a % 2 else (x, names[1])
            eq(f"intertwine {name}{names[0]}", a, lambda: mul(z[a], p[a + 1]),
               lambda: mul(p[a], z[a + 1]))

    failures.sort(key=lambda t: (t[1], t[0]))
    return VerifyReport(not failures, depth, tuple(failures))


def verify_sse_1step(
    s_m: SymbolicMatrixBisystem,
    s_n: SymbolicMatrixBisystem,
    w: SseWitness,
    depth: int | None = None,
) -> VerifyReport:
    """Check the six equation families to the stored depth.

    Each family is written once: for M with H, phi1 and the phi_c maps, and
    for N with K, phi2 and the phi_d maps.
    """
    depth = min(depth if depth is not None else s_m.depth, s_m.depth, s_n.depth)
    if w.levels < depth:
        return _too_short(depth, w.levels, depth, "levels")
    failures = []
    sides = (
        ("M", "H", s_m, s_n, w.h_mats, w.k_mats, w.phi1, w.phi_c_plus, w.phi_c_minus),
        ("N", "K", s_n, s_m, w.k_mats, w.h_mats, w.phi2, w.phi_d_plus, w.phi_d_minus),
    )

    for l in range(depth):
        for _, name, s, t, h, *_ in sides:
            rows, cols = s.level_sizes[l], t.level_sizes[l + 1]
            if (h[l].rows, h[l].cols) != (rows, cols):
                failures.append(("shape", l, f"{name}_{l} is not {rows}x{cols}"))
    if failures:
        return VerifyReport(False, depth, tuple(failures))

    def eq(family, level, lhs, rhs, spec):
        msg = _specified_equivalence_failure(lhs, rhs, spec)
        if msg is not None:
            failures.append((family, level, msg))

    mul = symbolic_matrix_multiply
    for side, _, s, t, h, k, phi, phi_plus, phi_minus in sides:
        for l in range(depth - 1):
            eq(f"square-factorisation({side})", l,
               mul(s.minus[l], s.plus[l + 1]), mul(h[l], k[l + 1]), phi)
            eq(f"plus-intertwine({side})", l,
               mul(s.plus[l], h[l + 1]), mul(h[l], t.plus[l + 1]), phi_plus)
            eq(f"minus-intertwine({side})", l,
               mul(s.minus[l], h[l + 1]), mul(h[l], t.minus[l + 1]), phi_minus)

    failures.sort(key=lambda t: (t[1], t[0]))
    return VerifyReport(not failures, depth, tuple(failures))


# ---------------------------------------------------------------------------
# the per-block checks level by level: the library runs each once per distinct
# block object (or adjacency-list object) and renders its result per level


def range_fault(level_sizes, minus_edges, plus_edges, sigma_minus, sigma_plus):
    """Raise the ``BisystemError`` of the first edge out of range or outside
    its side's alphabet, block by block, minus block first; else None."""
    L = len(level_sizes) - 1
    for l in range(L):
        for (s, t, a) in minus_edges[l]:
            if not (0 <= s < level_sizes[l + 1] and 0 <= t < level_sizes[l]):
                raise BisystemError(f"minus edge {(s, t, a)} out of range at block {l}")
            if tuple(a) not in sigma_minus:
                raise BisystemError(f"minus label {a} outside the alphabet")
        for (s, t, a) in plus_edges[l]:
            if not (0 <= s < level_sizes[l] and 0 <= t < level_sizes[l + 1]):
                raise BisystemError(f"plus edge {(s, t, a)} out of range at block {l}")
            if tuple(a) not in sigma_plus:
                raise BisystemError(f"plus label {a} outside the alphabet")


def axiom_verdicts(b: LambdaGraphBisystem) -> tuple:
    """((name, Verdict), ...) for axioms (i)-(v): validate without FPCC."""
    L = b.depth

    # (i)/(ii) finite leveled vertex and edge sets hold by construction
    v_i = Verdict(True)
    v_ii = Verdict(True)

    adj = b.adjacency
    bad3 = []
    for l in range(L + 1):
        for i in range(b.level_sizes[l]):
            name = b.vertex_name(l, i)
            if l < L and not adj["minus", "lower"][l][i]:
                bad3.append(f"{name} has no incoming minus edge from level {l + 1}")
            if l > 0 and not adj["minus", "upper"][l - 1][i]:
                bad3.append(f"{name} has no outgoing minus edge to level {l - 1}")
            if l < L and not adj["plus", "lower"][l][i]:
                bad3.append(f"{name} has no outgoing plus edge to level {l + 1}")
            if l > 0 and not adj["plus", "upper"][l - 1][i]:
                bad3.append(f"{name} has no incoming plus edge from level {l - 1}")
    v_iii = Verdict(not bad3, tuple(sorted(bad3)))

    # (iv): labels at an upper vertex are distinct, minus edges leaving it
    # (right-resolving) and plus edges entering it (left-resolving)
    bad4 = []
    for side, how, at in (("minus", "right", "from"), ("plus", "left", "into")):
        for l in range(L):
            for j, edges in enumerate(adj[side, "upper"][l]):
                seen = {}
                for (i, a) in edges:
                    if a in seen and seen[a] != i:
                        bad4.append(
                            f"{side} not {how}-resolving: two {word_str(a)}-edges "
                            f"{at} {b.vertex_name(l + 1, j)}"
                        )
                    elif a in seen:
                        bad4.append(f"duplicate {side} edge {at} {b.vertex_name(l + 1, j)}")
                    seen[a] = i
    v_iv = Verdict(not bad4, tuple(sorted(bad4)))

    # (v): minus-then-plus corners against plus-then-minus ones
    bad5 = [
        f"local property fails at ({b.vertex_name(l, u)},{b.vertex_name(l + 2, v)}): "
        f"{[f'{word_str(x)}|{word_str(y)}' for x, y in d]} vs "
        f"{[f'{word_str(x)}|{word_str(y)}' for x, y in w]}"
        for l in range(L - 1)
        for (u, v), d, w in corners(b, l)
        if d != w
    ]
    v_v = Verdict(not bad5, tuple(sorted(bad5)))

    return (("i", v_i), ("ii", v_ii), ("iii", v_iii), ("iv", v_iv), ("v", v_v))


def corners(b: LambdaGraphBisystem, l: int) -> list:
    """The corners from u at level l to v at level l+2 through level l+1, as
    ``((u, v), down, up)`` sorted by (u, v): ``down`` lists the corners that
    go minus then plus and ``up`` those that go plus then minus, each a sorted
    list of (minus label, plus label) pairs.  Axiom (v) is ``down == up``."""
    adj = b.adjacency
    down: dict = {}
    up: dict = {}
    for w in range(b.level_sizes[l + 1]):
        for (u, bm) in adj["minus", "upper"][l][w]:
            for (v, ap) in adj["plus", "lower"][l + 1][w]:
                down.setdefault((u, v), []).append((bm, ap))
        for (u, ap) in adj["plus", "upper"][l][w]:
            for (v, bm) in adj["minus", "lower"][l + 1][w]:
                up.setdefault((u, v), []).append((bm, ap))
    return [
        (key, sorted(down.get(key, ())), sorted(up.get(key, ())))
        for key in sorted(down.keys() | up.keys())
    ]


def matrix_report(b: LambdaGraphBisystem) -> ValidationReport:
    """The matrix-side verdicts of an expansion, read off its edge index.

    In block l of either side, row i is the lower list of vertex i at level l
    and column j the upper list of vertex j at level l+1.  Axiom (iv) reports
    in the order of the upper lists, which ``_expand`` sorts by row and then
    by symbol.
    """
    bad2, bad3, bad4 = [], [], []
    for l in range(b.depth):
        for side in ("minus", "plus"):
            rows, cols = b.adjacency[side, "lower"][l], b.adjacency[side, "upper"][l]
            bad2 += [f"block {l} {side}: zero row {i + 1}" for i, e in enumerate(rows) if not e]
            bad2 += [f"block {l} {side}: zero column {j + 1}" for j, e in enumerate(cols) if not e]
            for i, edges in enumerate(rows):
                twice = sorted({j for (j, _), c in Counter(edges).items() if c > 1})
                bad3 += [f"block {l} {side} cell ({i+1},{j+1}): repeated symbol" for j in twice]
            for j, edges in enumerate(cols):
                seen: dict = {}
                for (i, w) in edges:
                    if w in seen and seen[w] != i:
                        bad4.append(
                            f"block {l} {side} column {j+1}: symbol "
                            f"{word_str(w)} in rows {seen[w]+1} and {i+1}"
                        )
                    seen[w] = i

    # cell (u, v) of M-_l M+_{l+1} sums the minus-then-plus corners, and of
    # kappa(M+_l M-_{l+1}) the plus-then-minus ones, each read minus label first
    bad5 = [
        f"commutation fails at blocks {l},{l+1} cell ({u+1},{v+1}): "
        f"{FormalSum(x + y for x, y in d)!r} vs {FormalSum(x + y for x, y in w)!r}"
        for l in range(b.depth - 1)
        for (u, v), d, w in corners(b, l)
        if d != w
    ]

    verdicts = [Verdict(not bad, tuple(bad)) for bad in ([], bad2, bad3, bad4, bad5)]
    return ValidationReport(b.depth, tuple(zip(("i", "ii", "iii", "iv", "v"), verdicts)))


def presented_words(b: LambdaGraphBisystem, side: str, n: int):
    """Length-n label words on consecutive paths anywhere in the truncation."""
    if n < 0:
        raise BisystemError("length must be >= 0")
    if n == 0:
        return ((),)
    if n > b.depth:
        raise BisystemError(f"length {n} exceeds depth {b.depth}")
    if side not in ("minus", "plus"):
        raise BisystemError("side must be 'minus' or 'plus'")
    # walk upward from every start level; words join labels as in _word_sets
    prepend = side == "minus"
    lower = b.adjacency[side, "lower"]
    out = set()
    for m in range(b.depth - n + 1):
        frontier = {(i, ()) for i in range(b.level_sizes[m])}
        for l in range(m, m + n):
            frontier = {
                (j, a + w if prepend else w + a)
                for (i, w) in frontier for (j, a) in lower[l][i]
            }
        out |= {w for (_, w) in frontier}
    return tuple(sorted(out))


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def determinant(a):
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    n = len(a)
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def smith_diagonal(a):
    _, d, _ = smith_normal_form(a)
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0)) if d[i][i]]


def cokernel(theta, ambient_rank: int | None = None) -> FgAbelianGroup:
    """Z^rows / (column span of theta), in canonical form."""
    rows = len(theta) if theta else (ambient_rank or 0)
    if not theta or not theta[0]:
        return FgAbelianGroup(rows)
    _, d, _ = smith_normal_form(theta)
    diag = [d[i][i] for i in range(min(rows, len(theta[0]))) if d[i][i]]
    return FgAbelianGroup(rows - len(diag), tuple(x for x in diag if x > 1))


def kernel_basis(theta):
    """Columns spanning the integer kernel of theta."""
    rows = len(theta)
    cols = len(theta[0]) if rows else 0
    if cols == 0:
        return []
    if rows == 0:
        return [list(col) for col in _identity(cols)]
    _, d, v = smith_normal_form(theta)
    r = len([1 for i in range(min(rows, cols)) if d[i][i]])
    return [[v[i][j] for i in range(cols)] for j in range(r, cols)]


def solve(theta, b):
    """Some integer x with theta x = b, or None."""
    return _solve_factored(smith_normal_form(theta), b)


def _solve_factored(snf, b):
    """solve() against a factorization (U, D, V) of theta made once."""
    u, d, v = snf
    rows = len(d)
    cols = len(d[0]) if rows else 0
    ub = mat_vec(u, b)
    y = [0] * cols
    r = min(rows, cols)
    for i in range(rows):
        di = d[i][i] if i < r else 0
        if di:
            if ub[i] % di:
                return None
            y[i] = ub[i] // di
        elif ub[i]:
            return None
    return mat_vec(v, y)


def is_unimodular(m) -> bool:
    return len(m) == len(m[0]) and abs(determinant(m)) == 1


def _independent_rows(vectors):
    """Indices of len(vectors) linearly independent rows of the matrix whose
    columns are ``vectors``, which must have full column rank; the first such
    rows, found by fraction-free elimination."""
    picked = []
    echelon = []  # (pivot column, row reduced against the earlier ones)
    for i, row in enumerate(zip(*vectors)):
        v = list(row)
        for c, e in echelon:
            if v[c]:
                f, g = e[c], v[c]
                v = [f * x - g * y for x, y in zip(v, e)]
        if any(v):
            echelon.append((next(j for j, x in enumerate(v) if x), v))
            picked.append(i)
            if len(picked) == len(vectors):
                break
    return picked


def kernel_map_is_iso(a: _Factored, b: _Factored, t) -> bool:
    """Does t restrict to an isomorphism ker(theta_a) -> ker(theta_b)?

    t is given by its rows.  The kb basis has full column rank, so the
    coordinates of an image in it are unique when they exist: they are
    solved on k independent rows of the basis and checked on all the others.
    """
    ka, kb = a.kernel, b.kernel
    if len(ka) != len(kb):
        return False
    if not ka:
        return True
    basis_rows = list(zip(*kb))
    picked = _independent_rows(kb)
    block_snf = smith_normal_form([list(basis_rows[i]) for i in picked])
    coords = []
    for vec in ka:
        image = [sum(x * vec[j] for j, x in row.items()) for row in t]
        c = _solve_factored(block_snf, [image[i] for i in picked])
        if c is None or any(
            sum(x * y for x, y in zip(row, c)) != value for row, value in zip(basis_rows, image)
        ):
            return False
        coords.append(c)
    m = [[coords[j][i] for j in range(len(coords))] for i in range(len(coords[0]))]
    return is_unimodular(m)


# ---------------------------------------------------------------------------
# the factorization that rescanned every unpivoted row before each pivot

ScanFactored = namedtuple("ScanFactored", "coker kernel pivots ops residual")


def scan_factor(theta, cols) -> ScanFactored:
    """Sparse unit-pivot elimination of theta, then a Smith normal form of the rest;
    every field is built at once.

    theta is given by its rows, {column: value} dicts over ``cols`` columns,
    and is not changed.  The rows are copied and indexed by column.  While an
    unpivoted row and an unpivoted column meet in a +-1, the one of least
    Markowitz cost (row nnz - 1) * (column nnz - 1), ties to the least (row,
    column), is the next pivot, and its column is cleared from every other
    row, earlier pivot rows included (Gauss-Jordan).  A pivot (p, q) with
    sign s leaves row p reading s x_q + sum_f a_pf x_f over the unpivoted
    columns f; the unpivoted rows are zero outside those columns and form the
    residual block, the only part that goes to the dense
    ``smith_normal_form``, and only when it is not zero.

    ``pivots`` lists the (row, column, sign) of each pivot in order.
    ``ops`` lists, per pivot row p in that order, the pairs (r, c) of the
    steps row r -= c * row p made on rows r that were not yet pivots; the
    steps on earlier pivot rows are left out, since a row of U is read only
    when it becomes a pivot, or at the end if it never does.  ``residual``
    pairs every invariant factor f of theta that is not 1 (0 past the rank)
    with its row of U, as (row, coefficient) pairs over the rows left after
    elimination.
    """
    rows = len(theta)
    mat = [dict(row) for row in theta]
    holders = [set() for _ in range(cols)]  # column -> rows with an entry there
    for i, row in enumerate(mat):
        for j in row:
            holders[j].add(i)

    pivots = []  # (row, column, sign)
    ops = []
    pivoted = [False] * rows
    free = list(range(rows))  # unpivoted rows, ascending
    while True:
        best = None
        for i in free:
            row = mat[i]
            row_cost = len(row) - 1
            for j, x in row.items():
                if x == 1 or x == -1:
                    key = (row_cost * (len(holders[j]) - 1), i, j)
                    if best is None or key < best:
                        best = key
            if best is not None and best[0] == 0:
                break  # later rows cannot beat a pivot without fill-in
        if best is None:
            break
        _, p, q = best
        prow = mat[p]
        s = prow[q]
        steps = []
        for r in [r for r in holders[q] if r != p]:
            row = mat[r]
            c = row[q] * s
            for j, x in prow.items():
                y = row.get(j, 0) - c * x
                if y:
                    if j not in row:
                        holders[j].add(r)
                    row[j] = y
                else:
                    del row[j]
                    holders[j].discard(r)
            if not pivoted[r]:
                steps.append((r, c))
        ops.append((p, steps))
        pivots.append((p, q, s))
        pivoted[p] = True
        free.remove(p)

    pivot_cols = {q for (_, q, _) in pivots}
    rest = [j for j in range(cols) if j not in pivot_cols]
    block = [[mat[i].get(j, 0) for j in rest] for i in free]
    if any(any(row) for row in block):
        u, d, v = smith_normal_form(block)
        diag = [d[k][k] if k < len(rest) else 0 for k in range(len(free))]
        residual = [
            (f, [(free[m], x) for m, x in enumerate(row) if x])
            for f, row in zip(diag, u) if f != 1
        ]
        block_rank = sum(1 for f in diag if f)
        residual_kernel = [[row[k] for row in v] for k in range(block_rank, len(rest))]
    else:  # a zero block: D = 0, and U and V are identities
        diag = [0] * len(free)
        residual = [(0, [(i, 1)]) for i in free]
        residual_kernel = [[int(i == k) for i in range(len(rest))] for k in range(len(rest))]

    kernel = []
    for z in residual_kernel:
        x = [0] * cols
        for j, value in zip(rest, z):
            x[j] = value
        for p, q, s in pivots:
            x[q] = -s * sum(a * x[j] for j, a in mat[p].items() if j != q)
        kernel.append(x)

    rank = len(pivots) + sum(1 for f in diag if f)
    return ScanFactored(
        FgAbelianGroup(rows - rank, tuple(f for f in diag if f > 1)), kernel, pivots, ops, residual
    )


def cokernel_map_is_iso(a: ScanFactored, b: ScanFactored, iota, width) -> bool:
    """Is the map coker(theta_a) -> coker(theta_b) induced by iota an isomorphism?

    iota maps Z^width into the rows of theta_b and is given by its rows.
    Between isomorphic groups a surjection is an isomorphism.  b's row
    operations are replayed on iota, a row copied before its first change,
    and the rows of U in ``b.residual`` give the class of each image in the
    sum of the Z/f; iota is onto when those rows, beside their invariant
    factors, span everything.
    """
    if a.coker != b.coker:
        return False
    carried = list(iota)
    copied = set()
    for p, steps in b.ops:
        prow = carried[p]
        for r, c in steps:
            if r not in copied:
                carried[r] = dict(carried[r])
                copied.add(r)
            _subtract(carried[r], prow, c)
    image = []
    for k, (f, combo) in enumerate(b.residual):
        vec = [0] * width
        for r, x in combo:
            for j, y in carried[r].items():
                vec[j] += x * y
        image.append({j: x for j, x in enumerate(vec) if x})
        if f:
            image[-1][width + k] = f
    return scan_factor(image, width + len(image)).coker.is_trivial


def detect_bipartite(s: SymbolicMatrixBisystem):
    """Symbol 2-coloring plus per-level vertex 2-coloring, or None.

    Vertex colors are forced by symbol occurrences in the plus blocks, so the
    search runs over symbol colorings only, smallest-first in symbol order.
    """
    if s.sigma_minus.symbols != s.sigma_plus.symbols:
        return None
    if not s.is_standard:
        return None
    symbols = list(s.sigma_plus.symbols)
    n_sym = len(symbols)
    sizes = s.level_sizes

    for mask in range(1, 2 ** n_sym - 1):
        cset = frozenset(symbols[i] for i in range(n_sym) if mask & (1 << i))
        dset = frozenset(symbols) - cset
        colors = [dict() for _ in range(s.depth + 1)]  # index -> "C"/"D"
        colors[0][0] = "CD"  # the top vertex counts as both
        ok = True
        for l in range(s.depth):
            mp = s.plus[l]
            for i in range(mp.rows):
                for j in range(mp.cols):
                    for w in mp.entry(i, j).support():
                        src, tgt = ("C", "D") if w in cset else ("D", "C")
                        if l > 0:
                            if colors[l].setdefault(i, src) != src:
                                ok = False
                        if colors[l + 1].setdefault(j, tgt) != tgt:
                            ok = False
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            continue
        if any(len(colors[l]) != sizes[l] for l in range(1, s.depth + 1)):
            continue  # some vertex never constrained; reject rather than guess

        # minus-edge parity rules
        def minus_ok():
            for l in range(s.depth):
                mm = s.minus[l]
                for i in range(mm.rows):
                    for j in range(mm.cols):
                        for w in mm.entry(i, j).support():
                            # both ends take the symbol's colour on odd
                            # blocks and the other colour on even ones
                            want = "C" if (w in cset) == (l % 2 == 1) else "D"
                            if colors[l + 1][j] != want or (l > 0 and colors[l][i] != want):
                                return False
            return True

        if not minus_ok():
            continue

        vc, vd = (
            tuple(
                tuple(sorted(i for i, col in colors[l].items() if mine in col))
                for l in range(s.depth + 1)
            )
            for mine in "CD"
        )
        alpha_c = Alphabet.from_words(sorted(cset))
        alpha_d = Alphabet.from_words(sorted(dset))

        def sub(mat, rows, cols, keep, alph):
            cells = [
                [
                    FormalSum({w: c for w, c in mat.entry(i, j).items() if w in keep})
                    for j in cols
                ]
                for i in rows
            ]
            return SymbolicMatrix(
                len(rows), len(cols), tuple(tuple(r) for r in cells), alph
            )

        # per colour: its plus block (P for C, Q for D) runs from its own
        # vertices to the other colour's, and its minus block (Y for C, X for
        # D) stays among the other colour's vertices on even blocks, its own
        # on odd ones; equal sub-blocks are shared by value, since unequal
        # blocks of s can give equal ones
        plus_blocks, minus_blocks = [], []
        for own, other, keep, alph in ((vc, vd, cset, alpha_c), (vd, vc, dset, alpha_d)):
            at = (other, own)
            plus_blocks.append(share([
                sub(s.plus[l], own[l], other[l + 1], keep, alph) for l in range(s.depth)
            ]))
            minus_blocks.append(share([
                sub(s.minus[l], at[l % 2][l], at[l % 2][l + 1], keep, alph)
                for l in range(s.depth)
            ]))
        (p_blocks, q_blocks), (y_blocks, x_blocks) = plus_blocks, minus_blocks

        # color propagation plus the parity rules force every nonzero entry
        # into its block, so the pattern is exact at this point
        return BipartiteStructure(alpha_c, alpha_d, vc, vd, *map(
            tuple, (p_blocks, q_blocks, x_blocks, y_blocks)))
    return None
