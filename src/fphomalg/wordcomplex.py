"""The array word complex under the bar and normalized Hochschild complexes.

Words in the letters of an algebra basis, level by level (a level is a word
length), with the inner faces that merge two adjacent letters by the
algebra's product.  Words are integer arrays indexed as a trie, letter
products are a table, and the faces are one numpy table ordered by level,
degree and source, so a differential between two degree buckets is a
slice of it, a ``_kernels.Sparse`` matrix: ``_Words.level`` gives the
whole differential out of one level, block diagonal by degree, and
``_Words.block`` one degree of it.  ``homalg`` checks and ranks the bar
complex a whole level at a time, and the Hochschild cochains (coefficients
k) the same levels transposed; no differential of either complex is
written densely.

``_word_counts`` counts the words per (length, degree) from the letter
degrees, before any is built.  The cell budget of ``homalg`` reads it for
the bar and Hochschild complexes, ``_over_budget`` for the word budget of
the Lie oracles of ``freelie`` and ``_word_total`` for the window of
``free-w1``'s closure check.
"""

from __future__ import annotations

import functools

import numpy as np

from . import _kernels as K

# Most words of one (length, degree) bucket that the Lie oracles accept, so
# that a run fits in a few hundred MB or exits 2 before it starts.  A Lie
# bucket is a bidegree (weight, shifted degree), whose sparse echelon form
# and span matrix grow with its words: two degree-1 generators at weight cap
# 12 (4,096 words) peak at 39-67 MB, three at weight cap 10 (59,049 words)
# are refused.  Dense differentials answer to ``homalg.MAX_CHAIN_CELLS``.
MAX_BUCKET_WORDS = 4096


def _word_counts(letter_degrees, max_degree: int, max_length: int):
    """Yield ``(length, counts)`` for length 1, 2, ... up to ``max_length``,
    where ``counts`` maps each degree up to ``max_degree`` to its number of
    words of that length; ends at the first length with no word.  Counted in
    pure Python over the distinct letter degrees (none negative) in order:
    numpy's fixed costs exceed a whole Lie count, which runs in every Lie
    job."""
    counts: dict[int, int] = {}
    for d in letter_degrees:
        counts[d] = counts.get(d, 0) + 1
    letters = sorted(counts.items())
    layer = {0: 1}  # words of the current length, by degree
    for length in range(1, max_length + 1):
        nxt: dict[int, int] = {}
        for deg, n in layer.items():
            room = max_degree - deg
            for d, m in letters:
                if d > room:
                    break
                nxt[deg + d] = nxt.get(deg + d, 0) + n * m
        if not nxt:
            return
        yield length, nxt
        layer = nxt


def _over_budget(letter_degrees, max_degree: int, max_length: int):
    """``(length, degree, count)`` of the largest bucket (lowest degree on a
    tie) at the first length up to ``max_length`` where a bucket of words of
    degree at most ``max_degree`` holds more than ``MAX_BUCKET_WORDS``, or
    None.  A length that repeats the counts of the one before ends the
    count, as every later one repeats them: degree-0 letters (degree-1 Lie
    generators) under a user-set weight cap."""
    before = None
    for length, layer in _word_counts(letter_degrees, max_degree, max_length):
        if layer == before:
            return None
        largest = max(layer.values())
        if largest > MAX_BUCKET_WORDS:
            return length, min(d for d, n in layer.items() if n == largest), largest
        before = layer
    return None


def _word_total(letter_degrees, max_degree: int, max_length: int) -> int:
    """Number of words of length 1 to ``max_length`` and degree at most
    ``max_degree``, over every bucket."""
    return sum(sum(layer.values())
               for _, layer in _word_counts(letter_degrees, max_degree, max_length))


def _runs(n):
    """The pairs ``(i, j)`` with ``j < n[i]``, in order, as two arrays."""
    i = np.arange(len(n)).repeat(n)
    return i, np.arange(len(i)) - (n.cumsum() - n)[i]


def _group(keys: list, span: int, within: list | None = None, width: int = 0):
    """Sort items given level by level as arrays of degrees in ``[0, span)``
    by (level, degree), stably, or with ``within``, arrays of integers in
    ``[0, width)`` of the same sizes, by (level, degree, within).  Returns
    the order (positions with the levels laid end to end), where each level
    starts in it, and the runs ``(level, degree, lo, hi)`` of equal (level,
    degree).

    Here and in ``_Words`` arrays are tiny as often as large, so the code
    calls array methods and ufuncs, which skip the dispatch layer of the
    ``np.`` functions of the same name."""
    sizes = [len(deg) for deg in keys]
    key = np.arange(len(keys)).repeat(sizes) * span + np.concatenate(keys)
    if within is None:
        order = key.argsort(kind="stable")
    else:
        order = (key * width + np.concatenate(within)).argsort(kind="stable")
    key = key[order]
    cuts = ((key[1:] != key[:-1]).nonzero()[0] + 1).tolist()
    starts = [0] + cuts if len(key) else []
    runs = [(k // span, k % span, lo, hi)
            for k, lo, hi in zip(key[starts].tolist(), starts, cuts + [len(key)])]
    return order, np.add.accumulate([0] + sizes), runs


class _Words:
    """The array word complex shared by the bar and Hochschild complexes:
    words in the letters of an algebra basis, and the inner faces between
    consecutive lengths.

    ``letters`` lists ``(monomial, degree)`` pairs in degree order.  Level
    ``s`` holds the words of length ``s`` and degree at most ``cap`` in
    lexicographic order: ``degrees[s]`` lists
    their degrees, ``buckets[s][d]`` the indices of the words of degree
    ``d`` in word order, ``index[s]`` each word's place when the level is
    numbered by degree and then word order, ``starts[s][d]`` where the
    bucket of degree ``d`` starts in that numbering, and ``words[s]``
    (built on first use) the ``(n, s)`` array of their letters.  Words are
    indexed as a trie: a word's one-letter extensions are a prefix of the
    letters (they are in degree order), so they are the contiguous run of
    ``nchild[s][w]`` words from ``child0[s][w]`` one level up, and
    ``parent[s]``, ``last[s]`` undo the last step.  No index exceeds the
    number of words, whatever the length.

    ``A.mul`` returns at most one term, so the letter products are an
    L x L table: ``product[a, b]`` is the letter of ``a * b`` (-1 for zero)
    and ``scalar[a, b]`` its coefficient.  The face table has one row
    ``(src, merged, value)`` per nonzero inner face: the product of letters
    ``i - 1`` and ``i`` of the word ``src`` of level ``s`` is the word
    ``merged`` of level ``s - 1``, with value ``(-1)^i scalar``.  Its rows
    are ordered by level, so that ``level(s)`` reads a slice, then by the
    source's degree, so that ``block(s, d)`` does, and then by the source,
    so that a slice lists the faces by the source's ``index``: with rows
    ``index[s - 1][merged]`` and columns ``index[s][src]`` it is a matrix
    sorted by column.  No position repeats: two merges of one word give
    different sequences of letter degrees, as every letter degree is
    positive.  A level inherits the faces of the one
    below through the trie (a face of ``u`` gives one of each ``u a``) and
    adds those merging its last two letters, so each row costs O(1): a
    product letter has the summed degree, so a merged word has the degree
    of its source and the same extensions.  A product outside the letters,
    or a merged word outside the basis, raises ``KeyError``.
    """

    def __init__(self, A, letters, levels: int, cap: int):
        self.letters = letters
        self.letter_index = {l: i for i, l in enumerate(letters)}
        n_letters = len(letters)
        ldeg = np.array([d for _, d in letters], dtype=np.int64)
        self.product = np.full((n_letters, n_letters), -1, dtype=np.int64)
        self.scalar = np.zeros((n_letters, n_letters), dtype=np.int64)
        for a, (ma, da) in enumerate(letters):
            for b, (mb, db) in enumerate(letters):
                if da + db > cap:
                    break
                for m, sc in A.mul(ma, mb).items():
                    self.product[a, b] = self.letter_index[(m, da + db)]
                    self.scalar[a, b] = sc
        self._products = np.count_nonzero(self.product >= 0) > 0
        self.degrees = [np.zeros(1, dtype=np.int64)]
        self.parent, self.last, self.child0, self.nchild = [None], [None], [], []
        for _ in range(levels):
            deg = self.degrees[-1]
            if not len(deg):  # so are all longer words
                for part in (self.child0, self.nchild, self.parent, self.last, self.degrees):
                    part.append(deg)
                continue
            nchild = ldeg.searchsorted(cap - deg, side="right")
            child0 = np.add.accumulate(nchild) - nchild
            parent, last = _runs(nchild)
            self.child0.append(child0)
            self.nchild.append(nchild)
            self.parent.append(parent)
            self.last.append(last)
            self.degrees.append(deg[parent] + ldeg[last])
        span = cap + 1
        # buckets: the words sorted by (level, degree)
        order, first, runs = _group(self.degrees, span)
        level_start = first[:-1].repeat(first[1:] - first[:-1])
        index = np.empty(len(order), dtype=np.int64)
        index[order] = np.arange(len(order)) - level_start
        local = order - level_start
        self.index = [index[lo:hi] for lo, hi in zip(first[:-1], first[1:])]
        self.buckets = [{} for _ in self.degrees]
        for s, d, lo, hi in runs:
            self.buckets[s][d] = local[lo:hi]
        self.starts = [[0] + np.add.accumulate(np.bincount(deg, minlength=span)).tolist()
                       for deg in self.degrees]
        # faces: level by level, then sorted by (level, source degree)
        empty = np.zeros(0, dtype=np.int64)
        rows = [(empty, empty, empty)] * min(2, levels + 1)
        for s in range(2, levels + 1):
            rows.append(self._faces(s, *rows[-1]))
        self._face_table, self._face_bounds = rows[0], {}
        self._face_levels = [0] * (levels + 2)
        if any(len(src) for src, _, _ in rows):
            order, first, runs = _group(
                [self.degrees[s][src] for s, (src, _, _) in enumerate(rows)],
                span, [src for src, _, _ in rows], max(map(len, self.degrees)))
            self._face_table = [np.concatenate(col)[order] for col in zip(*rows)]
            self._face_bounds = {(s, d): (lo, hi) for s, d, lo, hi in runs}
            self._face_levels = first.tolist()

    def _faces(self, s: int, src, merged, value):
        """Face rows of level ``s`` from those of level ``s - 1``."""
        parts = []
        if len(src):
            # inherited: a face u -> m gives u a -> m a for each letter a
            rep, a = _runs(self.nchild[s - 1][src])
            parts.append((self.child0[s - 1][src][rep] + a,
                          self.child0[s - 2][merged][rep] + a, value[rep]))
        if self._products and len(self.last[s]):
            # new: the product c of the last two letters of w = v b z
            up = self.parent[s]
            v, b, z = self.parent[s - 1][up], self.last[s - 1][up], self.last[s]
            c = self.product[b, z]
            hit = (c >= 0).nonzero()[0]
            sign = -1 if (s - 1) % 2 else 1
            parts.append((hit, self._child(s - 2, v[hit], c[hit]),
                          sign * self.scalar[b[hit], z[hit]]))
        if not parts:
            return src, merged, value
        return parts[0] if len(parts) == 1 else tuple(np.concatenate(c) for c in zip(*parts))

    def _child(self, s: int, x, a):
        """Index one level up of the word ``x`` of level ``s`` extended by
        the letter ``a``; ``KeyError`` unless every extension is a word."""
        if np.count_nonzero(a >= self.nchild[s][x]):
            raise KeyError("merged word outside the word basis")
        return self.child0[s][x] + a

    @functools.cached_property
    def words(self) -> list:
        """Per level, the ``(n, s)`` array of the words' letters."""
        dtype = np.min_scalar_type(max(len(self.letters) - 1, 0))
        out = [np.zeros((1, 0), dtype=dtype)]
        for parent, last in zip(self.parent[1:], self.last[1:]):
            out.append(np.hstack([out[-1][parent], last[:, None].astype(dtype)]))
        return out

    def level(self, s: int) -> K.Sparse:
        """The bar differential from length ``s`` to ``s - 1`` in every
        degree: the face rows of level ``s``, a slice of the face table,
        sorted by column.  Its rows and columns are the words of the two
        levels numbered by ``index``, so it is block diagonal, a block per
        degree ``d`` on rows ``starts[s - 1][d]`` and columns
        ``starts[s][d]`` up to those of ``d + 1``."""
        lo, hi = self._face_levels[s: s + 2]
        src, merged, value = (col[lo:hi] for col in self._face_table)
        return K.Sparse((len(self.index[s - 1]), len(self.index[s])),
                        self.index[s - 1][merged], self.index[s][src], value)

    def has_faces(self, s: int) -> bool:
        """Whether ``level(s)`` is nonzero."""
        return self._face_levels[s] < self._face_levels[s + 1]

    def block(self, s: int, d: int) -> K.Sparse:
        """The block of ``level(s)`` in degree ``d``, on the two buckets."""
        lo, hi = self._face_bounds.get((s, d), (0, 0))
        src, merged, value = (col[lo:hi] for col in self._face_table)
        return K.Sparse((self.count(s - 1, d), self.count(s, d)),
                        self.index[s - 1][merged] - self.starts[s - 1][d],
                        self.index[s][src] - self.starts[s][d], value)

    def count(self, s: int, d: int) -> int:
        """Number of words of length ``s`` and degree ``d``."""
        bucket = self.buckets[s].get(d)
        return 0 if bucket is None else len(bucket)

    def find(self, word) -> int:
        """Index of a word (a sequence of letter indices) in its level."""
        x = 0
        for s, a in enumerate(word):
            x = int(self._child(s, x, a))
        return x
