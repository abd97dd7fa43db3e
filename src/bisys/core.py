"""Exact algebra of symbols, formal sums, symbolic matrices and specifications.

Symbols are short strings interned into alphabets.  A symbol of a product
alphabet C.D is represented by the concatenation (as a tuple) of a C-symbol
and a D-symbol, and the alphabet remembers its two factors, so the exchange
map can split every product symbol without guessing.  Formal sums are finite
multisets of such words; multiplicities are kept because the commutation
checks compare products where they matter.  Finite sets of words of one
length are nodes of a hash-consed ``WordDag``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

Word = tuple  # tuple[str, ...]; length 1 for base symbols


class BisysError(ValueError):
    """The base of the library's own errors, one class per layer."""


class CoreError(BisysError):
    """Malformed algebraic input: bad dimensions, factorisation, duplicates."""


def word_str(w: Word) -> str:
    return ".".join(w) if w else "0"


def share(keys, make=None) -> list:
    """``make(n)`` for each index n of ``keys``, or the key itself without
    ``make``; a key ``==`` to one of the two keys before it gets that key's
    object instead, so blocks that repeat with period 1 or 2 are one object."""
    out = []
    for n, key in enumerate(keys):
        if n and key == keys[n - 1]:
            out.append(out[n - 1])
        elif n > 1 and key == keys[n - 2]:
            out.append(out[n - 2])
        else:
            out.append(key if make is None else make(n))
    return out


def repeat_fault(marker, *families) -> str | None:
    """Why ``marker`` cannot say where the block ``families`` repeat, or None.

    A marker is null, or the index of a stored block from which every stored
    block of each family is ``==`` to the family's last."""
    if marker is None:
        return None
    stored = len(families[0])
    if type(marker) is not int:
        return "repeat_from must be null or an integer"
    if not 0 <= marker < stored:
        return f"repeat_from {marker} is not one of the {stored} stored blocks"
    if any(blocks[k] != blocks[-1] for blocks in families for k in range(marker, stored)):
        return f"the blocks from repeat_from {marker} on are not all equal"
    return None


def by_identity(fn):
    """``fn`` memoized by the identity of its arguments.

    Each entry holds its arguments, so no id is reused while the memo lives.
    It lives for the one call that makes it: a memo kept longer would hit on
    every repeat of a whole input.
    """
    memo = {}

    def call(*args):
        key = tuple(map(id, args))
        got = memo.get(key)
        if got is None:
            got = memo[key] = (args, fn(*args))
        return got[1]

    return call


@dataclass(frozen=True)
class Alphabet:
    """Ordered finite set of symbols, each a word of one fixed length.

    ``factors`` is set for product alphabets C.D and records (C, D); it is
    what makes the exchange of the two factors of a product symbol a checkable
    operation rather than a convention.  ``symbol_set`` is the frozenset of
    the symbols, made once.
    """

    symbols: tuple
    word_length: int = 1
    factors: tuple | None = None

    def __post_init__(self):
        if not self.symbols:
            raise CoreError("alphabet must be non-empty")
        seen = set()
        for s in self.symbols:
            if not isinstance(s, tuple) or len(s) != self.word_length:
                raise CoreError(f"symbol {s!r} does not have word length {self.word_length}")
            if s in seen:
                raise CoreError(f"duplicate symbol {s!r}")
            seen.add(s)
        object.__setattr__(self, "symbol_set", frozenset(seen))

    @staticmethod
    def of(*names: str) -> "Alphabet":
        """Base alphabet from symbol names, in canonical sorted order."""
        return Alphabet(tuple(sorted((n,) for n in names)))

    @staticmethod
    def from_words(words) -> "Alphabet":
        words = tuple(sorted(tuple(w) for w in words))
        if not words:
            raise CoreError("alphabet must be non-empty")
        return Alphabet(words, len(words[0]))

    @staticmethod
    @lru_cache(maxsize=256)
    def product(left: "Alphabet", right: "Alphabet") -> "Alphabet":
        """The product alphabet C.D, made once per recent pair (C, D)."""
        syms = tuple(sorted(c + d for c in left.symbols for d in right.symbols))
        return Alphabet(syms, left.word_length + right.word_length, (left, right))

    def __contains__(self, s) -> bool:
        return s in self.symbol_set

    def __iter__(self):
        return iter(self.symbols)

    def __len__(self):
        return len(self.symbols)

    def __str__(self):
        return "{" + ",".join(word_str(s) for s in self.symbols) + "}"


class FormalSum:
    """Finite formal sum of words: a multiset.  The empty sum is 0."""

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        acc: dict = {}
        items = terms.items() if isinstance(terms, dict) else ((t, 1) for t in terms)
        for w, c in items:
            w = tuple(w)
            if c < 0:
                raise CoreError("negative multiplicity")
            if c:
                acc[w] = acc.get(w, 0) + c
        object.__setattr__(self, "_terms", acc)

    @staticmethod
    def _trusted(terms: dict) -> "FormalSum":
        """Wrap a dict already in normal form: tuple keys, positive counts."""
        fs = object.__new__(FormalSum)
        object.__setattr__(fs, "_terms", terms)
        return fs

    @staticmethod
    def zero() -> "FormalSum":
        return _ZERO

    @staticmethod
    def of(*words) -> "FormalSum":
        return FormalSum(tuple(w) if isinstance(w, tuple) else (w,) for w in words)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def items(self):
        """Sorted (word, multiplicity) pairs."""
        return tuple(sorted(self._terms.items()))

    def support(self) -> frozenset:
        return frozenset(self._terms)

    def multiplicity(self, w: Word) -> int:
        return self._terms.get(tuple(w), 0)

    @property
    def term_count(self) -> int:
        return sum(self._terms.values())

    def __add__(self, other: "FormalSum") -> "FormalSum":
        acc = dict(self._terms)
        for w, c in other._terms.items():
            acc[w] = acc.get(w, 0) + c
        return FormalSum._trusted(acc)

    def product(self, other: "FormalSum") -> "FormalSum":
        """Bilinear concatenation product; 0 annihilates."""
        acc: dict = {}
        for u, cu in self._terms.items():
            for v, cv in other._terms.items():
                w = u + v
                acc[w] = acc.get(w, 0) + cu * cv
        return FormalSum._trusted(acc)

    def kappa(self, split: int = 1) -> "FormalSum":
        """Exchange the two factors of every term, split after ``split`` letters."""
        acc: dict = {}
        for w, c in self._terms.items():
            if len(w) <= split:
                raise CoreError(f"term {word_str(w)} does not factor at position {split}")
            sw = w[split:] + w[:split]
            acc[sw] = acc.get(sw, 0) + c
        return FormalSum._trusted(acc)

    def __eq__(self, other):
        return isinstance(other, FormalSum) and self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        if self.is_zero:
            return "0"
        return "+".join(word_str(w) if c == 1 else f"{c}{word_str(w)}" for w, c in self.items())


_ZERO = FormalSum()  # shared by every empty cell; a FormalSum is never mutated


class WordDag:
    """Hash-consed DAG of finite languages whose words all have one length.

    A node is an int.  Node 0 is the empty language and node 1 is {ε}; any
    other node is the tuple of its children, one per letter in ``letters``
    order, where the child for letter a is the left quotient a⁻¹W.  Equal
    tuples are interned once, so this is the minimal acyclic automaton of
    each language, and two languages are equal exactly when their nodes are.
    ``sizes[n]`` is the word count of node n.  Nothing is listed unless
    ``words`` is asked for.
    """

    def __init__(self, letters):
        self.letters = tuple(letters)
        self.slot = {a: k for k, a in enumerate(self.letters)}
        self.nodes = [None, None]  # children of each node; none for 0 and 1
        self.sizes = [0, 1]
        self._ids = {(0,) * len(self.letters): 0}
        self._unions: dict = {}
        self._appended: dict = {}
        self._quotients: dict = {}
        self._listed = {0: (), 1: ((),)}

    def node(self, kids: tuple) -> int:
        """The node whose child for each letter is the given node."""
        got = self._ids.get(kids)
        if got is None:
            got = self._ids[kids] = len(self.nodes)
            self.nodes.append(kids)
            sizes = self.sizes
            sizes.append(sum(sizes[c] for c in kids))
        return got

    def words(self, n: int) -> tuple:
        """The words of node n in lexicographic order.  Each node's tuple is
        made once, from its children's, and kept; no call recurses."""
        listed, stack = self._listed, [n]
        while stack:
            m = stack.pop()
            if m not in listed:
                todo = [c for c in self.nodes[m] if c not in listed]
                if todo:
                    stack += (m, *todo)  # m again once its children are listed
                else:
                    listed[m] = tuple((a,) + w for a, c in zip(self.letters, self.nodes[m])
                                      for w in listed[c])
        return listed[n]

    def prepend(self, word, n: int) -> int:
        """word · W(n)."""
        if not n:
            return 0
        for a in reversed(word):
            kids = [0] * len(self.letters)
            kids[self.slot[a]] = n
            n = self.node(tuple(kids))
        return n

    def append(self, n: int, word) -> int:
        """W(n) · word, one letter at a time."""
        for a in word:
            n = self._append(n, a)
        return n

    def _append(self, n, a):
        if n == 1:
            return self.prepend((a,), 1)
        if not n:
            return 0
        got = self._appended.get((n, a))
        if got is None:
            got = self._appended[n, a] = self.node(tuple(self._append(c, a) for c in self.nodes[n]))
        return got

    def union(self, m: int, n: int) -> int:
        """W(m) ∪ W(n), for languages of one word length."""
        if m == n or not n:
            return m
        if not m:
            return n
        key = (m, n) if m < n else (n, m)
        got = self._unions.get(key)
        if got is None:
            got = self._unions[key] = self.node(tuple(map(self.union, self.nodes[m], self.nodes[n])))
        return got

    def right_quotient(self, n: int, a) -> int:
        """W(n) · a⁻¹, the words w with w·a in W(n); n is not node 1."""
        if not n:
            return 0
        kids = self.nodes[n]
        if 1 in kids:  # words of length one
            return kids[self.slot[a]]
        got = self._quotients.get((n, a))
        if got is None:
            got = self._quotients[n, a] = self.node(tuple(self.right_quotient(c, a) for c in kids))
        return got


@dataclass(frozen=True)
class SymbolicMatrix:
    """Rectangular matrix with formal-sum entries over one alphabet."""

    rows: int
    cols: int
    entries: tuple  # tuple[tuple[FormalSum, ...], ...]
    alphabet: Alphabet

    def __post_init__(self):
        if len(self.entries) != self.rows or any(len(r) != self.cols for r in self.entries):
            raise CoreError("entry grid does not match declared shape")
        allowed = self.alphabet.symbol_set
        for row in self.entries:
            for cell in row:
                for w in cell._terms:
                    if w not in allowed:
                        raise CoreError(f"symbol {word_str(w)} not in matrix alphabet")

    @staticmethod
    def build(rows: int, cols: int, alphabet: Alphabet, fn) -> "SymbolicMatrix":
        grid = tuple(tuple(fn(i, j) for j in range(cols)) for i in range(rows))
        return SymbolicMatrix(rows, cols, grid, alphabet)

    @staticmethod
    def identity_pattern(n: int, symbol, alphabet: Alphabet) -> "SymbolicMatrix":
        """Diagonal matrix whose diagonal entries are the single given symbol."""
        s = tuple(symbol)
        return SymbolicMatrix.build(
            n, n, alphabet, lambda i, j: FormalSum.of(s) if i == j else FormalSum.zero()
        )

    def entry(self, i: int, j: int) -> FormalSum:
        return self.entries[i][j]

    def occurring(self) -> frozenset:
        return frozenset(w for row in self.entries for cell in row for w in cell._terms)

    def map_entries(self, fn, alphabet: Alphabet | None = None) -> "SymbolicMatrix":
        return SymbolicMatrix.build(
            self.rows, self.cols, alphabet or self.alphabet, lambda i, j: fn(self.entries[i][j])
        )

    def permute_rows(self, perm) -> "SymbolicMatrix":
        """Row i of the result is row perm[i] of self."""
        grid = tuple(self.entries[perm[i]] for i in range(self.rows))
        return SymbolicMatrix(self.rows, self.cols, grid, self.alphabet)

    def permute_cols(self, perm) -> "SymbolicMatrix":
        grid = tuple(tuple(row[perm[j]] for j in range(self.cols)) for row in self.entries)
        return SymbolicMatrix(self.rows, self.cols, grid, self.alphabet)

    def same_entries(self, other: "SymbolicMatrix") -> bool:
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __str__(self):
        return "\n".join("[" + "  ".join(map(repr, row)) + "]" for row in self.entries)


def symbolic_matrix_multiply(a: SymbolicMatrix, b: SymbolicMatrix) -> SymbolicMatrix:
    """Matrix product with formal-sum entries over the product alphabet.

    Row by row over the nonzero cells only (Gustavson's sparse product):
    each term u.v of a result cell goes into one dict, and each nonzero cell
    becomes one FormalSum.
    """
    if a.cols != b.rows:
        raise CoreError(f"inner dimensions disagree: {a.cols} vs {b.rows}")
    alph = Alphabet.product(a.alphabet, b.alphabet)
    b_rows = [
        [(j, cell._terms.items()) for j, cell in enumerate(row) if cell._terms]
        for row in b.entries
    ]
    grid = []
    for a_row in a.entries:
        acc: dict = {}  # column -> {word: multiplicity}
        for k, left in enumerate(a_row):
            if not left._terms:
                continue
            left_terms = left._terms.items()
            for j, right in b_rows[k]:
                cell = acc.setdefault(j, {})
                for u, cu in left_terms:
                    for v, cv in right:
                        w = u + v
                        cell[w] = cell.get(w, 0) + cu * cv
        grid.append(tuple(FormalSum._trusted(acc[j]) if j in acc else _ZERO for j in range(b.cols)))
    return SymbolicMatrix(a.rows, b.cols, tuple(grid), alph)


def kappa_matrix(m: SymbolicMatrix) -> SymbolicMatrix:
    """Entrywise factor exchange of a matrix over a product alphabet."""
    if m.alphabet.factors is None:
        raise CoreError("matrix alphabet has no recorded product factorisation")
    left, right = m.alphabet.factors
    split = left.word_length
    lset, rset = set(left.symbols), set(right.symbols)
    for w in m.occurring():
        if w[:split] not in lset or w[split:] not in rset:
            raise CoreError(f"term {word_str(w)} not factorable over the product alphabet")
    return m.map_entries(lambda c: c.kappa(split), Alphabet.product(right, left))


@dataclass(frozen=True)
class Specification:
    """Partial injective symbol map between (subsets of) two alphabets.

    Keys and values are whole symbols, i.e. words; for matrices over product
    alphabets the unit of substitution is the full product symbol.
    """

    pairs: tuple  # sorted tuple[(Word, Word), ...]

    def __post_init__(self):
        seen_src, seen_dst = set(), set()
        for s, d in self.pairs:
            if s in seen_src:
                raise CoreError(f"specification maps {word_str(s)} twice")
            if d in seen_dst:
                raise CoreError(f"specification is not injective at {word_str(d)}")
            seen_src.add(s)
            seen_dst.add(d)

    @staticmethod
    def from_dict(mapping) -> "Specification":
        return Specification(tuple(sorted((tuple(k), tuple(v)) for k, v in mapping.items())))

    @staticmethod
    def identity_on(words) -> "Specification":
        return Specification.from_dict({tuple(w): tuple(w) for w in words})

    @cached_property
    def _mapping(self) -> dict:
        """``dict(self.pairs)``, made on first use; never mutated."""
        return dict(self.pairs)

    def as_dict(self) -> dict:
        return dict(self._mapping)

    def inverse(self) -> "Specification":
        return Specification(tuple(sorted((d, s) for s, d in self.pairs)))

    def then_kappa(self, split: int = 1) -> "Specification":
        """Compose with the factor exchange on the image symbols."""
        return Specification(tuple(sorted((s, d[split:] + d[:split]) for s, d in self.pairs)))

    def __len__(self):
        return len(self.pairs)


def specified_equivalence_failure(a: SymbolicMatrix, b: SymbolicMatrix, spec: Specification):
    """None when a maps onto b entrywise under spec, else a reason string.

    Cells are compared as term dicts; of the unmapped symbols of a cell the
    least is reported, and a formal sum is printed only for the failure.
    """
    if (a.rows, a.cols) != (b.rows, b.cols):
        return f"shape mismatch {a.rows}x{a.cols} vs {b.rows}x{b.cols}"
    mapping = spec._mapping
    for i, (a_row, b_row) in enumerate(zip(a.entries, b.entries)):
        for j, (cell, other) in enumerate(zip(a_row, b_row)):
            image: dict = {}
            for w, c in cell._terms.items():
                v = mapping.get(w)
                if v is None:
                    least = min(u for u in cell._terms if u not in mapping)
                    return (
                        f"not equivalent under the specification: symbol "
                        f"{word_str(least)} at cell ({i},{j}) is unmapped"
                    )
                image[v] = image.get(v, 0) + c
            if image != other._terms:
                return f"cell ({i},{j}): {FormalSum._trusted(image)!r} != {other!r}"
    return None


def depth_first(n: int, options):
    """Every n-tuple whose k-th item comes from ``options(k, prefix)``, its
    first k items being ``prefix``, in depth-first order: one loop over a
    stack of iterators, so no stack frame per item.  A rule that keeps state
    may keep it across its own ``yield``: it is resumed only once every tuple
    extending its item is done.  ``n == 0`` gives one empty tuple."""
    if not n:
        yield ()
        return
    prefix, stack = [], [iter(options(0, ()))]
    while stack:
        for item in stack[-1]:
            prefix.append(item)
            if len(prefix) < n:
                stack.append(iter(options(len(prefix), tuple(prefix))))
                break
            yield tuple(prefix)
            prefix.pop()
        else:
            stack.pop()
            del prefix[-1:]  # the item of the level below, none below the first


def find_specification_multi(pairs):
    """One specification phi with A ~phi B for every (A, B) in pairs, or None.

    A symbol's candidates are the symbols of B's cell with its multiplicity,
    in every cell where it occurs; a depth-first search tries them in order,
    and each complete assignment is checked with
    ``specified_equivalence_failure``.
    """
    if any((a.rows, a.cols) != (b.rows, b.cols) for a, b in pairs):
        return None
    candidates: dict = {}
    for a, b in pairs:
        for a_row, b_row in zip(a.entries, b.entries):
            for ca, cb in zip(a_row, b_row):
                terms = cb._terms  # B's cell's symbols by multiplicity, each set made once
                by_count = {c: frozenset(v for v in terms if terms[v] == c)
                            for c in set(terms.values())}
                for w, c in ca._terms.items():
                    opts = by_count.get(c, frozenset())
                    opts = candidates[w] = candidates[w] & opts if w in candidates else opts
                    if not opts:
                        return None

    order = sorted(candidates, key=lambda w: (len(candidates[w]), w))
    ordered = {s: sorted(s) for s in set(candidates.values())}  # each distinct set sorted once
    used: set = set()

    def free(k, _):
        for v in ordered[candidates[order[k]]]:
            if v not in used:
                used.add(v)
                yield v
                used.discard(v)

    for values in depth_first(len(order), free):
        spec = Specification.from_dict(dict(zip(order, values)))
        if all(specified_equivalence_failure(a, b, spec) is None for a, b in pairs):
            return spec
    return None
