"""Canonical two-sided presentation of a sofic subshift.

Vertices at level l are the distinct sets of length-l fill-in words over all
(left ray, right ray) splices of the shift, computed exactly through a chosen
labeled-graph presentation: a ray contributes its stabilized state set, and a
class is keyed by the fill-in word set itself, since distinct ray pairs can
share one.  Edges append one letter to a ray; by the well-definedness of that
step the result is independent of the representative pair, which the builder
checks on every pair of every class and treats any disagreement as a hard
internal error.

One build is one level-by-level sweep: the fill-in words of every realizable
past set, and of each of its one-letter steps, grow by one letter per level,
so class word sets and edge tests are filters of shared frontiers rather
than fresh enumerations (``fill_in_words`` remains the reference).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Alphabet
from .bisystem import LambdaGraphBisystem, validate
from .smb import SymbolicMatrixBisystem, to_smb
from .subshift import (
    LabeledGraph,
    SubshiftPresentation,
    _successors,
    realizable_future_sets,
    realizable_past_sets,
)


class CanonicalError(ValueError):
    pass


@dataclass(frozen=True)
class CentralClass:
    level: int
    words: tuple  # sorted fill-in words of length == level
    pairs: tuple  # realizing (past set, future set) pairs, sorted, diagnostic

    @property
    def key(self):
        return self.words


@dataclass(frozen=True)
class CanonicalBuild:
    bisystem: LambdaGraphBisystem
    class_table: tuple  # per level: tuple[CentralClass, ...]
    presentation: SubshiftPresentation
    irreducible: bool
    warnings: tuple = ()


class _Sweep:
    """Fill-in frontiers of one presentation, advanced one letter per level.

    Tracked sets are the realizable past sets and their one-letter steps.
    The frontier of a tracked set at level l maps every length-l word
    readable from it to the set of its end states, in lexicographic word
    order; only the current and the previous level are kept.  End sets are
    interned through a memoized step and all frontiers share one tuple per
    word.  Nothing outlives the build that made the sweep.
    """

    def __init__(self, g: LabeledGraph):
        self.labels = g.labels
        self.pasts = realizable_past_sets(g)
        self.futures = realizable_future_sets(g)
        succ, pred = _successors(g), _successors(g.reversed())
        self._succ = [succ[a] for a in self.labels]
        self._pred = [pred[a] for a in self.labels]
        self._sets: dict = {}    # interned end sets
        self._after: dict = {}   # end set -> its step by each label, in label order
        self._before: dict = {}  # (label slot, future set) -> future set
        self._hits: dict = {}    # end set -> indices of the futures it meets
        self._words: dict = {}   # (tracked set, target set) -> previous-level words
        tracked = {self._intern(p) for p in self.pasts}
        for p in self.pasts:
            tracked.update(s for s in self.after(p) if s)
        self.level = 0
        self.current = {s: {(): s} for s in tracked}
        self.previous: dict = {}

    def _intern(self, s: frozenset) -> frozenset:
        return self._sets.setdefault(s, s)

    def after(self, ends: frozenset) -> tuple:
        """``step_past(ends, a)`` for every label a, in label order."""
        steps = self._after.get(ends)
        if steps is None:
            steps = self._after[ends] = tuple(
                self._intern(frozenset(t for q in ends for t in succ.get(q, ())))
                for succ in self._succ
            )
        return steps

    def before(self, k: int, fset: frozenset) -> frozenset:
        """The future set after prepending the label in slot k to a right
        ray with future set ``fset``."""
        key = (k, fset)
        got = self._before.get(key)
        if got is None:
            pred = self._pred[k]
            got = self._before[key] = frozenset(s for t in fset for s in pred.get(t, ()))
        return got

    def advance(self):
        """Move every frontier one letter on and forget the older level."""
        kids: dict = {}
        labels = self.labels
        nxt = {}
        for s, frontier in self.current.items():
            grown = {}
            for w, ends in frontier.items():
                ws = kids.get(w)
                if ws is None:
                    ws = kids[w] = tuple(w + (a,) for a in labels)
                for wa, e in zip(ws, self.after(ends)):
                    if e:
                        grown[wa] = e
            nxt[s] = grown
        self.previous, self.current = self.current, nxt
        self.level += 1
        self._words = {}

    def words(self, s: frozenset, target: frozenset) -> tuple:
        """Previous-level fill-in words from tracked set s into target."""
        key = (s, target)
        got = self._words.get(key)
        if got is None:
            got = self._words[key] = tuple(
                w for w, e in self.previous[s].items() if not e.isdisjoint(target)
            )
        return got

    def classes(self):
        """Current-level classes, ordered by (size, words), each with its
        realizing (past, future) pairs as sets."""
        if self.level == 0:
            table = {((),): [
                (p, f) for p in self.pasts for f in self.futures if not p.isdisjoint(f)
            ]}
        else:
            table: dict = {}
            for p in self.pasts:
                per_future = [[] for _ in self.futures]
                for w, e in self.current[p].items():
                    for i in self._meets(e):
                        per_future[i].append(w)
                for f, words in zip(self.futures, per_future):
                    if words:
                        table.setdefault(tuple(words), []).append((p, f))
        out = []
        for words in sorted(table, key=lambda ws: (len(ws), ws)):
            pairs = table[words]
            shown = tuple(sorted((tuple(sorted(p)), tuple(sorted(f))) for (p, f) in pairs))
            out.append((CentralClass(self.level, words, shown), pairs))
        return out

    def _meets(self, ends: frozenset) -> tuple:
        got = self._hits.get(ends)
        if got is None:
            got = self._hits[ends] = tuple(
                i for i, f in enumerate(self.futures) if not ends.isdisjoint(f)
            )
        return got


def central_classes(pres: SubshiftPresentation, level: int):
    """Distinct classes at one level, sorted by their word sets."""
    if level < 0:
        raise CanonicalError("level must be >= 0")
    sweep = _Sweep(pres.graph)
    for _ in range(level):
        sweep.advance()
    return tuple(cls for cls, _ in sweep.classes())


def _agreed(results: set, cls: CentralClass, a):
    """The one answer an edge test gave over every representative pair."""
    if len(results) > 1:
        raise CanonicalError(
            f"edge test disagrees between representatives of class "
            f"{cls.words} at level {cls.level}, symbol {a}"
        )
    return results.pop()


def _edge_blocks(sweep: _Sweep, upper, index: dict):
    """Minus and plus edges between the current level's classes ``upper``
    and the previous level, whose classes ``index`` numbers by word set."""
    l = sweep.level - 1
    mblock = []
    pblock = []
    for j, (cls, pairs) in enumerate(upper):
        for k, a in enumerate(sweep.labels):
            # appending ``a`` at the right end of the left ray
            words = _agreed(
                {sweep.words(p2, f) if (p2 := sweep.after(p)[k]) else () for (p, f) in pairs},
                cls, a,
            )
            if words:
                if words not in index:
                    raise CanonicalError(
                        f"left step left the class table at level {l}: {words}"
                    )
                mblock.append((j, index[words], (a,)))
            # prepending ``a`` at the start of the right ray
            words = _agreed(
                {sweep.words(p, f2) if (f2 := sweep.before(k, f)) else () for (p, f) in pairs},
                cls, a,
            )
            if words:
                if words not in index:
                    raise CanonicalError(
                        f"right step left the class table at level {l}: {words}"
                    )
                pblock.append((index[words], j, (a,)))
    return tuple(sorted(mblock)), tuple(sorted(pblock))


def _sweep_build(g: LabeledGraph, depth: int):
    """Class table and edge blocks to the given depth, in one sweep."""
    sweep = _Sweep(g)
    upper = sweep.classes()
    classes = [tuple(cls for cls, _ in upper)]
    minus_blocks = []
    plus_blocks = []
    for _ in range(depth):
        index = {cls.words: i for i, cls in enumerate(classes[-1])}
        sweep.advance()
        upper = sweep.classes()
        classes.append(tuple(cls for cls, _ in upper))
        mblock, pblock = _edge_blocks(sweep, upper, index)
        minus_blocks.append(mblock)
        plus_blocks.append(pblock)
    return tuple(classes), tuple(minus_blocks), tuple(plus_blocks), sweep.labels


def canonical_bisystem(pres: SubshiftPresentation, depth: int) -> CanonicalBuild:
    """Build vertices and the two edge families to the requested depth."""
    if depth < 1:
        raise CanonicalError("depth must be >= 1")
    g = pres.graph
    warnings = []
    irreducible = g.is_irreducible()
    if not irreducible:
        warnings.append(
            "presentation is reducible; splice enumeration may be coarser than "
            "the pointwise definition"
        )
    # the sweep is gone before validation allocates its word sets
    classes, minus_blocks, plus_blocks, labels = _sweep_build(g, depth)
    alphabet = Alphabet.of(*labels)
    b = LambdaGraphBisystem(
        tuple(len(c) for c in classes),
        minus_blocks,
        plus_blocks,
        alphabet,
        alphabet,
    )
    rep = validate(b)
    if not rep.ok:
        raise CanonicalError(
            "canonical build failed validation: "
            + "; ".join(c for _, v in rep.axioms for c in v.counterexamples[:2])
        )
    if not rep.fpcc.ok:
        raise CanonicalError("canonical build does not satisfy FPCC")
    return CanonicalBuild(b, classes, pres, irreducible, tuple(warnings))


def canonical_smb(pres: SubshiftPresentation, depth: int) -> SymbolicMatrixBisystem:
    return to_smb(canonical_bisystem(pres, depth).bisystem)
