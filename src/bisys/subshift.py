"""Subshift presentations and the word/state-set calculus over them.

Three input flavours: a 0/1 transition matrix over state symbols, a labeled
directed graph (sofic presentation), and a forbidden-word list.  Forbidden
words are recoded to a block transition matrix on parse, so everything
downstream sees only the first two flavours.  Words are flat tuples of symbol
names.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import BisysError


class SubshiftError(BisysError):
    pass


@dataclass(frozen=True)
class SftMatrix:
    """Square 0/1 matrix over state symbols; sequences of states are the points."""

    entries: tuple  # tuple[tuple[int, ...], ...]
    symbols: tuple  # state symbol names, one per index

    def __post_init__(self):
        n = self.size
        if len(self.symbols) != n or any(len(r) != n for r in self.entries):
            raise SubshiftError("matrix shape and symbol count disagree")
        if len(set(self.symbols)) != n:
            raise SubshiftError("duplicate state symbols")
        if any(v not in (0, 1) for r in self.entries for v in r):
            raise SubshiftError("matrix entries must be 0 or 1")
        for i in range(n):
            if not any(self.entries[i][j] for j in range(n)):
                raise SubshiftError(f"zero row at state {self.symbols[i]}")
            if not any(self.entries[j][i] for j in range(n)):
                raise SubshiftError(f"zero column at state {self.symbols[i]}")

    @property
    def size(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class LabeledGraph:
    """Finite labeled directed graph; every state must be unstranded."""

    states: tuple
    edges: tuple  # tuple[(state, state, label str), ...]

    def __post_init__(self):
        sset = set(self.states)
        if len(sset) != len(self.states):
            raise SubshiftError("duplicate states")
        for (s, t, a) in self.edges:
            if s not in sset or t not in sset:
                raise SubshiftError(f"edge ({s},{t},{a}) leaves the state set")
        outs = {s for (s, _, _) in self.edges}
        ins = {t for (_, t, _) in self.edges}
        for q in self.states:
            if q not in outs:
                raise SubshiftError(f"state {q} has no outgoing edge")
            if q not in ins:
                raise SubshiftError(f"state {q} has no incoming edge")

    @property
    def labels(self) -> tuple:
        return tuple(sorted({a for (_, _, a) in self.edges}))

    def reversed(self) -> "LabeledGraph":
        """The same states and labels with every edge turned around: its
        successors are this graph's predecessors and its past sets this
        graph's future sets."""
        return LabeledGraph(self.states, tuple((t, s, a) for (s, t, a) in self.edges))

    def is_irreducible(self) -> bool:
        """Strong connectivity of the underlying digraph."""
        adj: dict = {q: [] for q in self.states}
        radj: dict = {q: [] for q in self.states}
        for (s, t, _) in self.edges:
            adj[s].append(t)
            radj[t].append(s)

        def reach(start, nbrs):
            seen = {start}
            stack = [start]
            while stack:
                for t in nbrs[stack.pop()]:
                    if t not in seen:
                        seen.add(t)
                        stack.append(t)
            return seen

        q0 = self.states[0]
        return len(reach(q0, adj)) == len(self.states) and len(
            reach(q0, radj)
        ) == len(self.states)


def sft_graph(m: SftMatrix) -> LabeledGraph:
    """State graph of an SFT: edge i -> j labeled by the target state symbol."""
    edges = []
    for i, row in enumerate(m.entries):
        for j, v in enumerate(row):
            if v:
                edges.append((m.symbols[i], m.symbols[j], m.symbols[j]))
    return LabeledGraph(tuple(m.symbols), tuple(edges))


def higher_block_recode(symbols, forbidden) -> SftMatrix:
    """SFT on (k-1)-blocks equivalent to the forbidden-word subshift.

    k is the longest forbidden length (at least 2).  Block symbols are the
    joined letters; stranded blocks are pruned until the matrix has no zero
    row or column.
    """
    symbols = tuple(symbols)
    forbidden = [tuple(w) for w in forbidden]
    if any(len(w) < 2 for w in forbidden):
        raise SubshiftError("forbidden words must have length >= 2")
    k = max((len(w) for w in forbidden), default=2)

    def clean(w) -> bool:
        for f in forbidden:
            m = len(f)
            if any(w[i : i + m] == f for i in range(len(w) - m + 1)):
                return False
        return True

    blocks = [()]
    for _ in range(k - 1):
        blocks = [b + (a,) for b in blocks for a in symbols if clean(b + (a,))]
    blocks = sorted(blocks)
    allowed = {
        (b, c) for b in blocks for c in blocks if b[1:] == c[:-1] and clean(b + c[-1:])
    }
    # prune states with no successor or no predecessor
    alive = set(blocks)
    changed = True
    while changed:
        changed = False
        for b in sorted(alive):
            if not any((b, c) in allowed and c in alive for c in alive) or not any(
                (c, b) in allowed and c in alive for c in alive
            ):
                alive.discard(b)
                changed = True
    if not alive:
        raise SubshiftError("every word is forbidden: empty language")
    blocks = sorted(alive)
    names = tuple("".join(b) for b in blocks)
    grid = tuple(
        tuple(1 if (b, c) in allowed else 0 for c in blocks) for b in blocks
    )
    return SftMatrix(grid, names)


@dataclass(frozen=True)
class SubshiftPresentation:
    """One of: sft matrix, sofic labeled graph, forbidden-word list.

    Forbidden-word inputs are recoded to an SFT immediately.
    """

    kind: str  # "sft" | "sofic"
    sft: SftMatrix | None = None
    sofic: LabeledGraph | None = None

    @staticmethod
    def from_sft(m: SftMatrix) -> "SubshiftPresentation":
        return SubshiftPresentation("sft", sft=m)

    @staticmethod
    def from_graph(g: LabeledGraph) -> "SubshiftPresentation":
        return SubshiftPresentation("sofic", sofic=g)

    @staticmethod
    def from_forbidden(symbols, words) -> "SubshiftPresentation":
        if not words:
            n = len(tuple(symbols))
            m = SftMatrix(tuple(tuple(1 for _ in range(n)) for _ in range(n)), tuple(symbols))
            return SubshiftPresentation("sft", sft=m)
        return SubshiftPresentation("sft", sft=higher_block_recode(symbols, words))

    @property
    def graph(self) -> LabeledGraph:
        return self.sofic if self.kind == "sofic" else sft_graph(self.sft)


def admissible_words(pres: SubshiftPresentation, n: int):
    """All length-n label words of the presentation, length-then-lex sorted."""
    if n < 0:
        raise SubshiftError("word length must be >= 0")
    g = pres.graph
    succ = _successors(g)
    frontier = {(): frozenset(g.states)}
    for _ in range(n):
        nxt: dict = {}
        for w, ends in frontier.items():
            for a, step in succ.items():
                targets = frozenset(t for s in ends for t in step.get(s, ()))
                if targets:
                    nxt[w + (a,)] = targets
        frontier = nxt
    return tuple(sorted(frontier))


def _successors(g: LabeledGraph) -> dict:
    """label -> state -> the states one edge of that label ahead of it."""
    by: dict = {a: {} for a in g.labels}
    for (s, t, a) in g.edges:
        by[a].setdefault(s, []).append(t)
    return by


class _Preimages(dict):
    """Bitmask of states -> bitmask of the states one edge of a label behind
    them, filled on first use from the preimage of each single state."""

    __slots__ = ("one",)

    def __init__(self, one):
        super().__init__()
        self.one = one

    def __missing__(self, cols):
        out = 0
        rest = cols
        while rest:
            low = rest & -rest
            out |= self.one[low.bit_length() - 1]
            rest ^= low
        self[cols] = out
        return out


def realizable_past_sets(g: LabeledGraph):
    """All stabilized past sets of left-infinite admissible rays.

    One depth-first walk over the finite automaton of word relations reachable
    from the identity relation (composing prepended symbols on the left).  A
    relation holds one bitmask per target state q: the source states with a
    path to q labeled by the word.  Prepending a symbol maps each column to
    its preimage, one table lookup per state, so an empty column stays empty
    and the range (the set of nonempty columns) can only shrink along an edge:
    every cycle keeps one range.  A set qualifies exactly when it is the range
    of a relation on a cycle, and every cycle holds an edge back to a relation
    on the walk's path, so the ranges of those relations are the answer.
    """
    index = {q: i for i, q in enumerate(g.states)}
    n = len(index)
    one = {a: [0] * n for a in g.labels}
    for (s, t, a) in g.edges:
        one[a][index[t]] |= 1 << index[s]
    steps = [_Preimages(one[a]).__getitem__ for a in g.labels]
    ident = tuple(1 << i for i in range(n))
    on_path = {ident: True}  # relation -> still on the path (False: done)
    ranges = set()
    stack = [(ident, iter(steps))]
    while stack:
        rel, todo = stack[-1]
        for step in todo:
            nxt = tuple(map(step, rel))
            mark = on_path.get(nxt)
            if mark:
                ranges.add(tuple(map(bool, nxt)))
            elif mark is None and any(nxt):
                on_path[nxt] = True
                stack.append((nxt, iter(steps)))
                break
        else:
            stack.pop()
            on_path[rel] = False
    sets = (frozenset(q for q, hit in zip(g.states, k) if hit) for k in ranges)
    return tuple(sorted(sets, key=lambda s: tuple(sorted(map(str, s)))))


def realizable_future_sets(g: LabeledGraph):
    """All stabilized future sets of right-infinite admissible rays: the past
    sets of the reversed graph, whose left rays are the right rays of g read
    backwards."""
    return realizable_past_sets(g.reversed())


@dataclass(frozen=True)
class BlockCode:
    """Sliding 2-block map; words are flat tuples read in symbol chunks."""

    mapping: tuple  # sorted ((chunk, chunk), image-chunk) pairs
    in_chunk: int = 1
    out_chunk: int = 1

    @staticmethod
    def from_dict(d, in_chunk=1, out_chunk=1) -> "BlockCode":
        pairs = tuple(sorted(((tuple(a), tuple(b)), tuple(v)) for (a, b), v in d.items()))
        return BlockCode(pairs, in_chunk, out_chunk)

    def as_dict(self) -> dict:
        return dict(self.mapping)

    def __call__(self, w):
        return apply_block_code(self, w)


def apply_block_code(code: BlockCode, w):
    """Image word, one chunk shorter; empty for words of at most one chunk."""
    w = tuple(w)
    k = code.in_chunk
    if len(w) % k:
        raise SubshiftError("word length is not a whole number of symbols")
    chunks = [w[i : i + k] for i in range(0, len(w), k)]
    if len(chunks) <= 1:
        return ()
    table = code.as_dict()
    out = ()
    for a, b in zip(chunks, chunks[1:]):
        if (a, b) not in table:
            raise SubshiftError(
                f"pair ({'.'.join(a)},{'.'.join(b)}) outside the block-code domain"
            )
        out += table[(a, b)]
    return out
