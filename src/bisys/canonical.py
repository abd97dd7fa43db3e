"""Canonical two-sided presentation of a sofic subshift.

Vertices at level l are the distinct sets of length-l fill-in words over all
(left ray, right ray) splices of the shift, computed exactly through a chosen
labeled-graph presentation: a ray contributes its stabilized state set, and a
class is keyed by its fill-in language, since distinct ray pairs can share
one.

Languages are nodes of one hash-consed word DAG (``WordDag``), so no word is
listed unless a caller reads ``CentralClass.words``.  With the realizable
past sets closed under one-letter steps, the language of a (past, future)
pair at level l is the node whose child for a letter a is the language of
(step(past, a), future) at level l-1; one loop per level computes it for
every set at once.  Appending a letter a to the left ray takes a class to
the left quotient a⁻¹W, its child for a; prepending a to the right ray takes
it to the right quotient W·a⁻¹.  Both depend on the class's language alone,
so every representative pair gives the same edge and none is re-checked.
A level is numbered in (size, words) order, which for sets of one size is
membership order (the least word of a symmetric difference decides), so a
class sorts by (size, the membership ranks of its children a level below).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .core import Alphabet, WordDag, share
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


@dataclass(frozen=True, eq=False)
class CentralClass:
    level: int
    pairs: tuple  # realizing (past set, future set) pairs, sorted, diagnostic
    language: tuple = field(repr=False)  # (WordDag, node) of its fill-in words

    @cached_property
    def words(self) -> tuple:
        """Sorted fill-in words of length == level, listed on first read."""
        dag, node = self.language
        return dag.words(node)

    def __eq__(self, other):
        if not isinstance(other, CentralClass):
            return NotImplemented
        return (self.level, self.pairs, self.words) == (other.level, other.pairs, other.words)

    def __hash__(self):
        return hash((self.level, self.pairs))


@dataclass(frozen=True)
class CanonicalBuild:
    bisystem: LambdaGraphBisystem
    class_table: tuple  # per level: tuple[CentralClass, ...]
    presentation: SubshiftPresentation
    irreducible: bool
    warnings: tuple = ()


def _languages(g: LabeledGraph, dag: WordDag, pasts, futures, depth: int):
    """Per level 0..depth: for each past set, the node of its fill-in words
    into each future set."""
    # level l needs the sets within depth - l steps of a past set, the empty
    # set among them, whose languages are all empty
    succ = _successors(g)
    where = {s: i for i, s in enumerate(pasts)}  # every set met, in the order met
    steps = []  # steps[i]: the index of set i stepped by each label
    within = [len(where)]  # within[d]: the sets at most d steps from a past set
    for _ in range(depth):
        for s in list(where)[len(steps):within[-1]]:
            steps.append([
                where.setdefault(frozenset(x for q in s for x in succ[a].get(q, ())), len(where))
                for a in g.labels
            ])
        within.append(len(where))
    vec = [tuple(0 if s.isdisjoint(f) else 1 for f in futures) for s in where]
    out = [vec[: len(pasts)]]
    node = dag.node
    for l in range(1, depth + 1):
        vec = [
            tuple(map(node, zip(*[vec[t] for t in steps[i]])))
            for i in range(within[depth - l])
        ]
        out.append(vec[: len(pasts)])
    return out


def _classes(dag: WordDag, levels, pasts, futures) -> tuple:
    """The classes of every level in (size, words) order, which is (size, key)
    order: a class's key is the tuple of its children's ranks at the level
    below, an empty child last, and a level ranks its classes by key.  Key
    order is membership order (words in lexicographic order, a member before
    a non-member), and of two sets of one size both orders put first the one
    holding the least word of their symmetric difference."""
    pasts = [tuple(sorted(p)) for p in pasts]
    futures = [tuple(sorted(f)) for f in futures]
    out, rank = [], {}
    for level, vecs in enumerate(levels):
        table: dict = {}
        for p, row in zip(pasts, vecs):
            for f, n in zip(futures, row):
                if n:
                    table.setdefault(n, []).append((p, f))
        key = {n: tuple(rank.get(c, len(rank)) for c in dag.nodes[n] or ()) for n in table}
        rank = {n: i for i, n in enumerate(sorted(table, key=key.get))}
        order = sorted(table, key=lambda n: (dag.sizes[n], key[n]))
        out.append(tuple(CentralClass(level, tuple(sorted(table[n])), (dag, n)) for n in order))
    return tuple(out)


def _edge_blocks(dag: WordDag, upper, lower, l: int):
    """Minus and plus edges from the classes ``upper`` at level l+1 to the
    classes ``lower`` at level l."""
    index = {cls.language[1]: i for i, cls in enumerate(lower)}

    def vertex(node, step):
        if node not in index:
            raise CanonicalError(
                f"{step} step left the class table at level {l}: {dag.words(node)}"
            )
        return index[node]

    mblock = []
    pblock = []
    for j, cls in enumerate(upper):
        n = cls.language[1]
        for a, child in zip(dag.letters, dag.nodes[n]):
            # appending ``a`` at the right end of the left ray: a⁻¹W
            if child:
                mblock.append((j, vertex(child, "left"), (a,)))
            # prepending ``a`` at the start of the right ray: W·a⁻¹
            quotient = dag.right_quotient(n, a)
            if quotient:
                pblock.append((vertex(quotient, "right"), j, (a,)))
    return tuple(sorted(mblock)), tuple(sorted(pblock))


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
    dag = WordDag(g.labels)
    pasts, futures = realizable_past_sets(g), realizable_future_sets(g)
    classes = _classes(dag, _languages(g, dag, pasts, futures, depth), pasts, futures)
    blocks = [_edge_blocks(dag, classes[l + 1], classes[l], l) for l in range(depth)]
    alphabet = Alphabet.of(*g.labels)
    b = LambdaGraphBisystem(
        tuple(len(c) for c in classes),
        tuple(share([m for m, _ in blocks])),
        tuple(share([p for _, p in blocks])),
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
