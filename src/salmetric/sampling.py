"""Negative sets: the pools every sampled AUC and sampler draws from.

:func:`negative_pools` maps a sampler name to images' :class:`NegativePool`
objects, built together: for ``borji`` every location but the image's own,
held as those locations; otherwise a support set plus draw weights.
Weights count how many images fixated a location, so sampling reproduces the
dataset's fixation distribution even when many fixations collide on a small
grid; the support set alone would flatten it. :func:`drawn_chunks` draws
from every command's pools a chunk of images at a time, one negative set an
image for :func:`draw_negatives`, and :func:`draw_count` decides each draw's
size. :func:`draw_pools` is the one draw underneath it and every sampled
AUC, of many pools at once, with a split axis: it reads each split's random
stream from :class:`SplitStreams`, which :func:`split_streams` seeds for a
whole run at once, and the pool maps the drawn positions to locations.
"""

import copy
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .core import DatasetIndex, FixationSet
from .errors import (
    EmptyPoolError,
    EmptyPositivesError,
    FrameMismatchError,
    UndersizedPoolWarning,
    ZeroVarianceError,
)
from .gaussian import density_from_fixations, tap_grams
from .seeding import derive_seed


@dataclass(frozen=True)
class NegativePool:
    """Candidate negatives, in one of two forms: an explicit ``support`` set
    with optional draw weights, or every location of the frame except the
    ``excluded`` set, which is never built.

    ``weights`` is aligned with ``support.linear``; ``None`` means uniform.
    Weights must leave every location a positive draw probability, so
    ``len(pool)`` locations can be drawn. An ``excluded`` pool is always
    uniform and holds O(|excluded|) memory whatever its frame."""

    support: FixationSet | None = None
    weights: np.ndarray | None = None
    excluded: FixationSet | None = None

    def __post_init__(self):
        if (self.support is None) == (self.excluded is None):
            raise ValueError("a pool takes exactly one of a support set and an excluded set")
        if self.weights is None:
            return
        if self.support is None:
            raise ValueError("only a pool with a support set takes weights")
        w = np.asarray(self.weights, dtype=np.float64)
        if w.shape != (len(self.support),):
            raise ValueError(f"pool weights must be a 1-D array of {len(self.support)} entries, "
                             f"one per support location; got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("pool weights must be finite")
        if not np.all(w > 0.0):
            raise ValueError("pool weights must be strictly positive")
        with np.errstate(over="ignore"):
            if not np.isfinite(w.sum()):
                raise ValueError("pool weights sum past the float range; scale them down")
        if w.size and w.min() / w.sum() == 0.0:
            raise ValueError("pool weights span too wide a range: the smallest has probability 0")
        object.__setattr__(self, "weights", w)

    @property
    def frame(self):
        return (self.excluded if self.support is None else self.support).frame

    def __len__(self):
        if self.support is not None:
            return len(self.support)
        width, height = self.excluded.frame
        return width * height - len(self.excluded)

    def probabilities(self) -> np.ndarray | None:
        """Draw probability of each support location; ``None`` means uniform."""
        return None if self.weights is None else self.weights / self.weights.sum()

    def locations(self, idx: np.ndarray) -> np.ndarray:
        """The row-major location of each pool position in ``idx``, positions
        counted in location order. An ``excluded`` pool's position i is
        ``i`` plus the number of excluded locations up to it: the excluded
        location ``F[j]`` has ``F[j] − j`` pool positions before it."""
        if self.support is not None:
            return self.support.linear[idx]
        skip = self.excluded.linear - np.arange(len(self.excluded))
        return idx + np.searchsorted(skip, idx, side="right")


@dataclass(frozen=True)
class NeighborList:
    """Per-image ranking of all other images, least similar first.

    Dissimilarity is the negated correlation of the two blurred fixation
    densities; equal scores fall back to id order.
    """

    query: str
    entries: tuple  # of (image id, dissimilarity)


# Constants that meet an array are numpy scalars of the array's own type, so
# no operation can promote to float64 under numpy 1.x's value-based casting;
# the others feed Python-int arithmetic only.
_U32 = np.uint32
_U64 = np.uint64
_LOW32 = _U64(0xFFFFFFFF)
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
# the largest pool a draw replays: numpy draws a bound below 2**32 - 1 from
# 32-bit halves of the raw words, and a larger one otherwise
_MAX_POOL = 2 ** 32 - 1
# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = _U32(0xCA01F9DD), _U32(0x4973F715)
# PCG64's 128-bit LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# _lookup's keys: a row number above bit 54, over ceil(cdf·2**53) <= 2**53;
# one key array holds at most 2**10 rows and about 2**20 entries
_KEY_SHIFT = _U64(54)
_KEY_ROWS = 2 ** 10
_KEY_FLOATS = 2 ** 20


def _split128(values) -> np.ndarray:
    """Python ints below 2**128 as a ``2 × n`` array of uint64 high and low words."""
    return np.array([[v >> 64 for v in values], [v & _MASK64 for v in values]], dtype=np.uint64)


def _mul64(a, b):
    """The full 128-bit products of uint64 arrays, as high and low words."""
    a0, a1 = a & _LOW32, a >> _U64(32)
    b0, b1 = b & _LOW32, b >> _U64(32)
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    mid = (p00 >> _U64(32)) + (p01 & _LOW32) + (p10 & _LOW32)
    high = a1 * b1 + (p01 >> _U64(32)) + (p10 >> _U64(32)) + (mid >> _U64(32))
    return high, (mid << _U64(32)) | (p00 & _LOW32)


def _mul128(a_hi, a_lo, b_hi, b_lo):
    """``a · b mod 2**128`` of numbers held as high and low uint64 words."""
    high, low = _mul64(a_lo, b_lo)
    return high + a_hi * b_lo + a_lo * b_hi, low


def _add128(a_hi, a_lo, b_hi, b_lo):
    """``a + b mod 2**128`` of numbers held as high and low uint64 words."""
    low = a_lo + b_lo
    return a_hi + b_hi + (low < a_lo), low


def _xsl_rr(hi, lo) -> np.ndarray:
    """PCG64's output of 128-bit states: ``hi ^ lo`` rotated right by the
    state's top six bits."""
    x = hi ^ lo
    rot = hi >> _U64(58)
    return (x >> rot) | (x << ((_U64(64) - rot) & _U64(63)))


_jump = np.zeros((4, 0), dtype=np.uint64)


def _jump_table(n: int) -> np.ndarray:
    """Rows ``M**(k+1)`` and ``Σ_{j≤k} M**j`` (mod 2**128, high and low words
    each) for at least every word position ``k < n``: word k of a stream is
    the output of the state ``M**(k+1)·state + Σ_{j≤k} M**j·inc``. Grown
    lazily and kept for the process."""
    global _jump
    if _jump.shape[1] < n:
        size = max(n, 2 * _jump.shape[1], 64)
        mul, add, muls, adds = _PCG_MULT, 1, [], []
        for _ in range(size):
            muls.append(mul)
            adds.append(add)
            add = (add + mul) & _MASK128
            mul = (mul * _PCG_MULT) & _MASK128
        _jump = np.concatenate([_split128(muls), _split128(adds)])
    return _jump


def _seed_states(seeds: list) -> np.ndarray:
    """PCG64's state and increment for each seed, as rows state hi, state lo,
    inc hi, inc lo of a ``4 × len(seeds)`` uint64 array.

    Replays ``SeedSequence(seed).generate_state(4, np.uint64)`` on all seeds at
    once, with the entropy zero-padded to four 32-bit words as
    ``SeedSequence`` pads it, then PCG64's ``srandom``. The hash constants of
    both steps do not depend on the data, so they are Python ints here."""
    entropy = _split128(seeds)
    words = [w.astype(np.uint32) for w in (entropy[1] & _LOW32, entropy[1] >> _U64(32),
                                           entropy[0] & _LOW32, entropy[0] >> _U64(32))]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ _U32(const)
        const = (const * _MULT_A) & 0xFFFFFFFF
        value = value * _U32(const)
        return value ^ (value >> _U32(16))

    pool = [hashmix(w) for w in words]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> _U32(16))
    out = []
    const = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ _U32(const)
        const = (const * _MULT_B) & 0xFFFFFFFF
        value = value * _U32(const)
        out.append((value ^ (value >> _U32(16))).astype(np.uint64))
    init_hi, init_lo, seq_hi, seq_lo = (out[2 * j] | (out[2 * j + 1] << _U64(32)) for j in range(4))
    inc_hi = (seq_hi << _U64(1)) | (seq_lo >> _U64(63))
    inc_lo = (seq_lo << _U64(1)) | _U64(1)
    start = _add128(inc_hi, inc_lo, init_hi, init_lo)
    state = _add128(*_mul128(*start, *_split128([_PCG_MULT])), inc_hi, inc_lo)
    return np.stack([*state, inc_hi, inc_lo])


def _words(coef: np.ndarray, state: np.ndarray) -> np.ndarray:
    """Raw words of jumped states: ``coef`` holds rows ``M**(k+1)`` and
    ``Σ_{j≤k} M**j`` of :func:`_jump_table`, ``state`` the rows of
    :func:`_seed_states`; the two broadcast together."""
    mul_hi, mul_lo, add_hi, add_lo = coef
    state_hi, state_lo, inc_hi, inc_lo = state
    jumped = _mul128(mul_hi, mul_lo, state_hi, state_lo)
    shift = _mul128(add_hi, add_lo, inc_hi, inc_lo)
    return _xsl_rr(*_add128(*jumped, *shift))


class SplitStreams:
    """The PCG64 streams of a list of seeds, one row each, built without a
    numpy random object.

    Row i's raw words are those of ``np.random.PCG64(seeds[i]).random_raw``:
    the states come from a vectorized replay of ``SeedSequence`` and PCG64's
    seeding (NEP 19 keeps both stable), and word k of any row is read by
    jump-ahead, without stepping through the words before it. Seeds are ints
    in ``[0, 2**128)``; anything else raises ``ValueError``.
    :meth:`with_words` returns the same streams carrying a block of their
    first words, which every later read within the block takes from."""

    def __init__(self, seeds):
        try:
            seeds = tuple(operator.index(s) for s in seeds)
        except TypeError:
            raise ValueError("stream seeds must be integers") from None
        if any(s < 0 or s > _MASK128 for s in seeds):
            raise ValueError("stream seeds must be in [0, 2**128)")
        self.seeds = seeds
        self._state = _seed_states(list(seeds))
        self._words = None

    def __len__(self):
        return len(self.seeds)

    def _rows(self, start: int, stop: int) -> "SplitStreams":
        part = copy.copy(self)
        part.seeds = self.seeds[start:stop]
        part._state = self._state[:, start:stop]
        if self._words is not None:
            part._words = self._words[start:stop]
        return part

    def with_words(self, n: int) -> "SplitStreams":
        """These streams, carrying words ``[0, n)`` of every row."""
        block = copy.copy(self)
        block._words = _words(_jump_table(n)[:, None, :int(n)], self._state[:, :, None])
        return block

    def raw(self, rows, positions) -> np.ndarray:
        """Raw word ``positions`` of stream ``rows`` (index arrays or ints
        that broadcast together), in their broadcast shape; one gather from
        the block of :meth:`with_words` when it holds them all, else one
        jump-ahead. Both run on arrays, where uint64 arithmetic wraps."""
        shape = np.broadcast_shapes(np.shape(rows), np.shape(positions))
        rows, positions = np.atleast_1d(rows, positions)
        last = int(positions.max(initial=-1))
        if self._words is not None and last < self._words.shape[1]:
            return self._words[rows, positions].reshape(shape)
        return _words(_jump_table(last + 1)[:, positions], self._state[:, rows]).reshape(shape)


def split_streams(seeds, n_splits: int) -> SplitStreams:
    """The streams of ``derive_seed(s, i)`` for each seed s of ``seeds`` and
    ``i < n_splits``, seeded in one pass: rows ``[j·n_splits, (j+1)·n_splits)``
    are the split streams of ``seeds[j]``."""
    n_splits = int(n_splits)
    return SplitStreams([derive_seed(s, i) for s in seeds for i in range(n_splits)])


def draw_indices(n: int, count: int, streams: SplitStreams) -> np.ndarray:
    """The uniform draw, with a split axis: a ``len(streams) × count`` array
    whose row i, ascending, is the set ``np.random.default_rng(
    streams.seeds[i]).choice(n, count, replace=False)`` draws, whatever the
    other rows. :func:`_replay_uniform` replays that call on the rows' raw
    words and builds no numpy random object. A draw of all ``n`` positions
    needs no stream, so it also draws a weighted pool whole. A count outside
    ``[0, n]``, or a pool of ``2**32`` positions or more, raises ``ValueError``."""
    n = operator.index(n)
    count = operator.index(count)
    rows = len(streams)
    if n > _MAX_POOL:
        raise ValueError(f"cannot draw from a pool of {n} locations; the limit is 2**32 - 1")
    if not 0 <= count <= n:
        raise ValueError(f"cannot draw {count} distinct locations from a pool of {n}")
    if count == n:
        return np.tile(np.arange(n), (rows, 1))
    if count == 0 or rows == 0:
        return np.empty((rows, count), dtype=np.int64)
    return _replay_uniform(n, count, streams)


def draw_pools(streams: SplitStreams, draws: list) -> list:
    """The locations each ``(pool, count, rows)`` of ``draws`` draws on the
    ``range`` ``rows`` of ``streams``: one row per stream, the set
    ``default_rng(seed).choice(len(pool), count, replace=False,
    p=pool.probabilities())`` draws, as locations, ascending.

    The first words of the rows the draws name, from the lowest to the
    highest, are read in one jump-ahead, and the weighted pools' draws of
    ``0 < count < len(pool)`` on any rows run in one :func:`_replay_choice`
    per size class: the one replay of a weighted draw. The others go through
    :func:`draw_indices` one at a time, on the same words. Every count must
    come from :func:`draw_count`."""
    if not draws:
        return []
    low = min(rows.start for _, _, rows in draws)
    block = streams._rows(low, max(rows.stop for _, _, rows in draws))
    block = block.with_words(2 * max(count for _, count, _ in draws))
    draws = [(pool, count, range(rows.start - low, rows.stop - low)) for pool, count, rows in draws]
    # pools within a factor of two in size replay together, so that no cdf
    # is padded past twice its own length
    groups = {}
    for j, (pool, count, rows) in enumerate(draws):
        if pool.weights is not None and 0 < count < len(pool) and rows:
            groups.setdefault(len(pool).bit_length(), []).append(j)
    idx = {}
    for group in groups.values():
        idx.update(zip(group, _replay_choice(
            [draws[j][0].probabilities() for j in group], [draws[j][1] for j in group],
            [draws[j][2] for j in group], block)))
    out = []
    for j, (pool, count, rows) in enumerate(draws):
        if j not in idx:
            idx[j] = draw_indices(len(pool), count, block._rows(rows.start, rows.stop))
        out.append(pool.locations(idx.pop(j)))
    return out


def _bounded(bounds: np.ndarray, streams: SplitStreams) -> np.ndarray:
    """``random_bounded_uint64(0, b)`` for each bound b of ``bounds`` in
    turn, on every stream, one row each: Lemire's multiply-shift with
    rejection on 32-bit halves of the raw words, low half first, as numpy
    draws a bound below 2**32 - 1 (``buffered_bounded_lemire_uint32``).
    Every bound is at least 1: numpy reads no word for a bound of 0, and
    neither of :func:`_replay_uniform`'s algorithms asks for one.

    Draw t of a row reads half t, plus one for each half the row rejected
    before it. A pass takes ``width`` draws of each row still drawing, from
    its first unsettled one, as if none rejected: those before the first
    rejection stand, and the draw that rejected reads the next half in the
    next pass. ``width`` spans about one expected rejection, and at least 32
    draws, so the work grows with the number of draws, not its square."""
    bounds = np.asarray(bounds, dtype=np.uint64)
    size = bounds.size
    threshold = (_U64(1) << _U64(32)) % (bounds + _U64(1))
    width = min(size, max(32, -(-size // (1 + int(threshold.sum()) // 2 ** 32))))
    # past the last draw, bounds of 0, which never reject
    excl = np.concatenate([bounds + _U64(1), np.ones(width, dtype=np.uint64)])
    threshold = np.concatenate([threshold, np.zeros(width, dtype=np.uint64)])
    out = np.empty((len(streams), size + width), dtype=np.uint64)
    rows = np.arange(len(streams))
    first = np.zeros(rows.size, dtype=np.int64)  # each row's draws before it stand
    skipped = np.zeros(rows.size, dtype=np.int64)  # the halves those draws rejected
    while rows.size:
        t = first[:, None] + np.arange(width)
        start = (first + skipped) // 2  # each row's first word this pass
        words = streams.raw(rows[:, None], start[:, None] + np.arange(width // 2 + 1))
        halves = words.astype("<u8").view("<u4")  # low half first
        at = t + (skipped - 2 * start)[:, None]
        scaled = np.take_along_axis(halves, at, axis=1).astype(np.uint64) * excl[t]
        out[rows[:, None], t] = scaled >> _U64(32)
        rejected = (scaled & _LOW32) < threshold[t]
        again = rejected.any(axis=1)
        first += np.where(again, rejected.argmax(axis=1), width)
        skipped += again
        drawing = first < size
        rows, first, skipped = rows[drawing], first[drawing], skipped[drawing]
    return out[:, :size]


def _replay_uniform(n: int, count: int, streams: SplitStreams) -> np.ndarray:
    """Which positions ``Generator.choice(n, count, replace=False)`` draws on
    each stream, ascending, for ``count < n``.

    ``choice`` runs one of two algorithms, each on :func:`_bounded` draws.
    When ``n > 10000`` and ``count > n // 50`` it shuffles the tail of
    ``arange(n)``: for ``i`` from ``n − 1`` down to ``n − count`` it swaps
    entries ``i`` and ``v ≤ i``, and keeps the last ``count`` entries.
    Otherwise it runs Floyd's algorithm (Bentley & Floyd, CACM 1987): for
    ``j`` from ``n − count`` up to ``n − 1`` it draws ``v ≤ j`` and takes
    ``v``, or ``j`` when ``v`` is already taken. A row whose ``v`` are
    distinct takes exactly them; the others are replayed one at a time.
    The order ``choice`` returns does not matter here: its final shuffle
    reads words after these, and a row is a set."""
    if n > 10000 and count > n // 50:
        tail = np.arange(n - 1, n - count - 1, -1)
        out = np.empty((len(streams), count), dtype=np.int64)
        for r, drawn in enumerate(_bounded(tail, streams).tolist()):
            moved, kept = {}, []  # moved: the entries the swaps changed, by position
            for i, v in zip(tail.tolist(), drawn):
                kept.append(moved.get(v, v))
                moved[v] = moved.get(i, i)
            out[r] = kept
        out.sort(axis=1)
        return out
    drawn = _bounded(np.arange(n - count, n), streams).astype(np.int64)
    out = np.sort(drawn, axis=1)
    for r in np.flatnonzero((out[:, 1:] == out[:, :-1]).any(axis=1)).tolist():
        taken = set()
        for j, v in zip(range(n - count, n), drawn[r].tolist()):
            taken.add(j if v in taken else v)
        out[r] = sorted(taken)
    return out


def _replay_choice(ps: list, counts: list, rows: list, streams: SplitStreams) -> list:
    """Which entries ``Generator.choice(len(p), count, replace=False, p=p)``
    draws on each stream of ``rows[g]`` (row numbers of ``streams``), for
    ``p, count`` of ``ps[g], counts[g]``: one ``len(rows[g]) × counts[g]``
    array per pool, each row ascending. Every count is at least 1 and at
    most the number of positive entries of its ``p``.

    ``choice`` runs rounds: it draws ``count - found`` uniforms, zeroes the
    found entries of ``p``, looks the uniforms up in ``cdf = cumsum(p) /
    cdf[-1]`` with ``searchsorted(side="right")`` and keeps the new entries.
    Here round 1 of every row of every pool is one :func:`_lookup` on the
    pools' own cdfs; the rows that drew a repeat run each later round
    together, each on its own cdf. A zeroed entry is never looked up again,
    so a row's set after a round is the union of its lookups so far."""
    table = np.zeros((len(ps), max(p.size for p in ps)))
    for g, p in enumerate(ps):
        table[g, :p.size] = p
    width = table.shape[1]
    pool = np.repeat(np.arange(len(ps)), [len(r) for r in rows])  # each replay row's pool
    stream = np.concatenate(rows)
    count = np.asarray(counts)[pool]
    owner = np.repeat(np.arange(pool.size), count)  # the replay row of each drawn slot
    position = np.arange(owner.size) - (np.cumsum(count) - count)[owner]
    found = _lookup(lambda a, b: table[a:b], len(ps), width, pool[owner],
                    streams.raw(stream[owner], position))
    # each row's slots sorted; a row with a repeat is short
    found = np.sort(owner * width + found) - owner * width
    is_short = np.zeros(pool.size, dtype=bool)
    is_short[owner[1:][(found[1:] == found[:-1]) & (owner[1:] == owner[:-1])]] = True
    short = np.flatnonzero(is_short)
    if short.size:
        slots = is_short[owner]
        need = count[short]
        taken = np.zeros((short.size, width), dtype=bool)  # each short row's entries so far
        taken[np.repeat(np.arange(short.size), need), found[slots]] = True
        used = need.copy()  # the words each short row has read
        pending = np.arange(short.size)
        more = need - taken.sum(axis=1)

        def zeroed(a, b):  # pending rows [a, b)'s p rows, their entries so far zeroed
            return np.where(taken[pending[a:b]], 0.0, table[pool[short[pending[a:b]]]])

        while pending.size:
            at = np.repeat(np.arange(pending.size), more)
            position = np.arange(at.size) - (np.cumsum(more) - more)[at] + used[pending][at]
            hit = _lookup(zeroed, pending.size, width, at,
                          streams.raw(stream[short[pending]][at], position))
            taken[pending[at], hit] = True
            used[pending] += more
            more = need[pending] - taken[pending].sum(axis=1)
            pending, more = pending[more > 0], more[more > 0]
        found[slots] = np.nonzero(taken)[1]
    ends = np.cumsum([len(r) * c for r, c in zip(rows, counts)])
    parts = np.split(found, ends[:-1])
    return [part.reshape(len(r), c) for part, r, c in zip(parts, rows, counts)]


def _lookup(rows_of, n_rows: int, width: int, seg: np.ndarray, words: np.ndarray) -> np.ndarray:
    """``cdf.searchsorted(u, side="right")`` for the uniform ``u`` of each
    raw word of ``words``, where ``cdf`` is ``choice``'s cdf of row
    ``seg[j]`` of ``n_rows`` zero-padded p rows of ``width`` entries, and
    ``rows_of(a, b)`` returns rows ``[a, b)``; ``seg`` is ascending.

    A uniform is ``k·2**-53`` for ``k = word >> 11``, so ``cdf <= u`` exactly
    when ``ceil(cdf·2**53) <= k``, and every row's search is one search of
    the uint64 queries ``(row << 54) + k`` in the keys ``(row << 54) +
    ceil(cdf·2**53)``. A row's trailing zeros leave its cdf values bit-equal
    to its own cumsum's, and at 1 they key ``2**53``, past any query. One
    key array holds at most ``2**10`` rows and about ``_KEY_FLOATS``
    entries."""
    out = np.empty(words.size, dtype=np.int64)
    step = min(_KEY_ROWS, max(1, _KEY_FLOATS // width))
    starts = range(0, n_rows, step)
    bounds = np.searchsorted(seg, [*starts, n_rows]).tolist()
    for start, lo, hi in zip(starts, bounds, bounds[1:]):
        if lo == hi:
            continue
        cdf = np.cumsum(rows_of(start, start + step), axis=1)
        cdf /= cdf[:, -1:].copy()
        cdf *= 2.0 ** 53
        keys = np.ceil(cdf, out=cdf).astype(np.uint64)
        keys += (np.arange(len(keys), dtype=np.uint64) << _KEY_SHIFT)[:, None]
        local = seg[lo:hi] - start
        queries = (local.astype(np.uint64) << _KEY_SHIFT) + (words[lo:hi] >> _U64(11))
        out[lo:hi] = keys.ravel().searchsorted(queries, side="right") - local * width
    return out


def draw_count(pool: NegativePool, positives: FixationSet) -> int:
    """How many negatives to draw from ``pool`` against ``positives``.

    The one pool-size and frame rule of every sampler and sampled AUC, and
    the one place a degenerate draw is decided: positives of another frame
    than the pool's raise :class:`FrameMismatchError` before any size rule;
    one negative per positive; an empty pool raises :class:`EmptyPoolError`;
    empty positives raise :class:`EmptyPositivesError`; a pool smaller than
    the positives is used whole, with an :class:`UndersizedPoolWarning`."""
    if positives.frame != pool.frame:
        raise FrameMismatchError(
            f"positives index a {positives.frame} frame, the pool a {pool.frame} frame")
    if len(pool) == 0:
        raise EmptyPoolError("no negative candidates left after removing the positives")
    if len(positives) == 0:
        raise EmptyPositivesError("no positive locations to draw negatives against")
    if len(pool) < len(positives):
        warnings.warn(
            f"negative pool ({len(pool)}) smaller than the positive set "
            f"({len(positives)}); using the whole pool",
            UndersizedPoolWarning,
            stacklevel=3,
        )
        return len(pool)
    return len(positives)


def sample_from_pool(pool: NegativePool, positives: FixationSet, seed: int) -> FixationSet:
    """One negative set: :func:`draw_count` distinct locations of the pool.

    Pool positions are in location order, so a seed pins the draw exactly:
    it is row 0 of :func:`draw_pools` on ``SplitStreams([seed])``."""
    count = draw_count(pool, positives)
    return FixationSet.from_linear(draw_pools(SplitStreams([seed]), [(pool, count, range(1))])[0][0],
                                   pool.frame)


def _unit_density(dataset: DatasetIndex, i: int, sigma: float) -> np.ndarray:
    """Image ``i``'s density at ``sigma``, flattened, centred, of norm 1; zeros if constant."""
    values = density_from_fixations(dataset.images[i].fixations, sigma).values.ravel()
    if values.min() == values.max():
        return np.zeros_like(values)
    values = values - values.mean()
    return values / np.sqrt(np.einsum("k,k", values, values))


def _cc_matrix(dataset: DatasetIndex, sigma: float) -> np.ndarray:
    """Pairwise correlation of per-image densities, cached on the dataset.

    Built from the blur kernels' :func:`tap_grams` at the fixated rows and
    columns; no map is blurred. Fixation a adds ``u_a ⊗ v_a`` to its image's
    map. Centred, ``u⊗v − ū·v̄ = ũ⊗v + ū·𝟙⊗ṽ`` with ``⟨ũ, 𝟙⟩ = 0``, so the
    centred Gram's row i, which subtracts no large terms, is ``Z_i =
    Σ_{a∈i} Ay[y_a] ⊗ Ax[x_a] + ū ⊗ q_i``, ``q_i = Σ_{a∈i} h·ū[y_a]·Axc[x_a]``,
    summed at each image's fixations. The correlations are C over the square
    roots of its diagonal, by rows, then columns, clipped, in place; an image
    that fixates every pixel is correlated from its density. The memory is
    the N × N matrix, the Grams, one Z and arrays of one entry a fixation.
    Every product is an ``einsum``: BLAS would leave its buffer resident."""
    key = ("density_cc", float(sigma))
    cached = dataset._cache.get(key)
    if cached is None:
        n, (width, height) = len(dataset), dataset.frame
        sizes = np.array([len(rec.fixations) for rec in dataset.images])
        start = np.r_[0, np.cumsum(sizes)]
        ys, xs = np.divmod(np.concatenate([rec.fixations.linear for rec in dataset.images]), width)
        rows, y = np.unique(ys, return_inverse=True)
        cols, x = np.unique(xs, return_inverse=True)
        ay, ax, axc, u_mean = tap_grams(sigma, dataset.frame, rows, cols)
        gram = np.empty((n, n))
        at = y * cols.size + x  # each fixation's entry of a flattened Z_i
        z = np.empty((rows.size, cols.size))
        for i in range(n):
            f = slice(start[i], start[i + 1])
            xa = ax[np.append(x[f], 0)]  # the last outer product is ū ⊗ q_i
            np.einsum("a,ax", u_mean[y[f]], axc[x[f]], out=xa[-1])
            ya = ay[np.append(y[f], 0)]
            ya[-1] = u_mean
            np.einsum("ar,ax->rx", ya, xa, out=z)
            gram[i] = np.add.reduceat(z.ravel()[at], start[:-1])
        norms = gram.diagonal().copy()
        # every pixel fixated: a variance below the rounding of C's O(F²) terms
        full = np.flatnonzero(sizes == width * height)
        dense = np.array([_unit_density(dataset, i, sigma) for i in full])
        constant = norms <= 0.0
        constant[full] = [not d.any() for d in dense]
        if constant.any():
            raise ZeroVarianceError(
                f"image {dataset.ids[int(np.argmax(constant))]!r} has a constant density at "
                f"sigma {float(sigma)!r}; cannot correlate")
        norms[full] = 1.0
        np.sqrt(norms, out=norms)
        gram /= norms[:, None]
        gram /= norms
        for j in range(n if full.size else 0):
            gram[full, j] = gram[j, full] = np.einsum("fk,k", dense, _unit_density(dataset, j, sigma))
        cached = dataset._cache[key] = np.clip(gram, -1.0, 1.0, out=gram)
    return cached


def _farthest(dataset: DatasetIndex, images: list, k: int, sigma: float) -> np.ndarray:
    """Row j: the ``k`` images least correlated with image ``images[j]`` at
    ``sigma``, lowest first, equal correlations in id order, each image's own
    entry set last, of their :func:`_cc_matrix` rows. Only a row's entries up
    to its k-th lowest, found by ``np.partition``, are ``lexsort``ed, by row,
    then correlation and then id rank."""
    rank = dataset._cache.get("id_rank")
    if rank is None:  # each image's position in id order
        by_id = sorted(range(len(dataset)), key=dataset.ids.__getitem__)
        rank = dataset._cache["id_rank"] = np.argsort(by_id)
    rows = _cc_matrix(dataset, sigma)[images]
    rows[np.arange(len(images)), images] = 2.0
    row, col = np.nonzero(rows <= np.partition(rows, k - 1, axis=1)[:, k - 1:k])
    order = np.lexsort((rank[col], rows[row, col], row))
    # row is ascending, so each row's entries start where they did unsorted
    return col[order][np.searchsorted(row, np.arange(len(images)))[:, None] + np.arange(k)]


def neighbor_ranking(image_id: str, dataset: DatasetIndex, sigma: float | None = None) -> NeighborList:
    """Order the other images by how unlike their fixation density is."""
    if len(dataset) < 2:
        raise ValueError("need at least two images to rank neighbors")
    sigma = dataset.sigma if sigma is None else sigma
    i = dataset.index(image_id)
    order = _farthest(dataset, [i], len(dataset) - 1, sigma)[0].tolist()
    unlike = (-_cc_matrix(dataset, sigma)[i]).tolist()
    return NeighborList(query=image_id, entries=tuple((dataset.ids[j], unlike[j]) for j in order))


def negative_pools(sampler: str, images, dataset: DatasetIndex, k: int = 5,
                   sigma: float | None = None) -> list:
    """The ``sampler`` pool of each image at a position of the list ``images``:
    ``borji``, every location but the image's own; ``shuffled`` and ``fn``,
    the pooled support weighted by how many other images, or of the image's
    ``k`` farthest neighbours at ``sigma``, fixated each location, less the
    locations of weight 0 and the image's own, in one array pass."""
    if sampler == "borji":
        return [NegativePool(excluded=dataset.images[i].fixations) for i in images]
    if sampler not in ("shuffled", "fn"):
        raise ValueError(f"unknown sampler {sampler!r}; expected borji, shuffled or fn")
    if not images:
        return []
    support = dataset.pooled.linear
    shape = (len(images), support.size)
    if sampler == "shuffled":
        counts = np.broadcast_to(dataset.pooled_counts, shape)
    else:
        if not 1 <= k <= len(dataset) - 1:
            raise ValueError(f"k must be in [1, {len(dataset) - 1}], got {k}")
        farthest = _farthest(dataset, images, k, dataset.sigma if sigma is None else sigma)
        linear = [dataset.images[j].fixations.linear for j in farthest.ravel().tolist()]
        row = np.repeat(np.arange(len(linear)) // k, [a.size for a in linear])
        at = row * support.size + support.searchsorted(np.concatenate(linear))
        counts = np.bincount(at, minlength=support.size * len(images)).reshape(shape)
    own = [dataset.images[i].fixations.linear for i in images]
    keep = counts > 0
    keep[np.repeat(np.arange(len(images)), [a.size for a in own]),
         support.searchsorted(np.concatenate(own))] = False
    location, weights = np.broadcast_to(support, shape)[keep], counts[keep].astype(np.float64)
    ends = np.cumsum(np.count_nonzero(keep, axis=1)).tolist()
    return [NegativePool(FixationSet.from_linear(location[start:end], dataset.frame),
                         weights[start:end]) for start, end in zip([0] + ends, ends)]


# A chunk of images holds at most about this many floats (1 MB) at once: its
# predictions, its weighted pools' padded cdfs and keys, and its stream
# words and drawn locations. A 640×480 chunk is one image.
_CHUNK_FLOATS = 2 ** 17


def _draw_floats(dataset: DatasetIndex, samplers: list, k: int, rows: int) -> int:
    """What an image drawing ``rows`` rows from its pool of each of
    ``samplers`` adds to a chunk, at most: a weighted pool's cdf spans the
    pooled locations (``fn``: its ``k`` neighbours' fixations, counted in a
    row over the pooled locations), and a draw one negative per fixation."""
    fixations, pooled = max(len(rec.fixations) for rec in dataset.images), len(dataset.pooled)
    cdf = sum(0 if s == "borji" else pooled if s == "shuffled" else min(pooled, k * fixations)
              for s in samplers)
    return 2 * cdf + pooled * samplers.count("fn") + rows * fixations * (2 + 3 * len(samplers))


def drawn_chunks(samplers: list, dataset: DatasetIndex, streams, items, floats: int, k: int = 5,
                 sigma: float | None = None):
    """Yield ``(i, item, pools, drawn)`` for each image i of ``dataset``, in
    order: its ``item``, the very object ``items`` yields for it, and by
    sampler its pool and the locations drawn on its ``len(streams) //
    len(dataset)`` rows of ``streams``. A chunk of about
    :data:`_CHUNK_FLOATS` floats (an image counts ``floats`` and its
    :func:`_draw_floats`), or one image when nothing is drawn, takes one
    :func:`negative_pools` call per sampler, one :func:`draw_count` per
    image and sampler and one :func:`draw_pools` call. A failing count
    stands in for its draw and ends the chunk at its image; a failing item
    ends it before its image; either is raised once the images before it
    are yielded."""
    n = len(dataset)
    rows = len(streams) // n if samplers else 0
    size = (max(1, _CHUNK_FLOATS // (floats + _draw_floats(dataset, samplers, k, rows)))
            if samplers else 1)
    items, start, error = iter(items), 0, None
    while start < n and error is None:
        taken = []
        try:
            while len(taken) < min(size, n - start):
                taken.append(next(items))
        except Exception as exc:
            error = exc
        built = [negative_pools(s, list(range(start, start + len(taken))), dataset, k, sigma)
                 for s in samplers]
        chunk, requests, places = [], [], []
        for j in range(len(taken)):
            i, pools, drawn = start + j, {s: b[j] for s, b in zip(samplers, built)}, {}
            chunk.append((i, taken[j], pools, drawn))
            try:
                for s in samplers:
                    count = draw_count(pools[s], dataset.images[i].fixations)
                    requests.append((pools[s], count, range(i * rows, (i + 1) * rows)))
                    places.append((drawn, s))
            except Exception as exc:
                # the chunk ends at this image, and this stands in for its draw
                drawn[s] = error = exc
                break
        for (drawn, s), negatives in zip(places, draw_pools(streams, requests)):
            drawn[s] = negatives
        start += len(chunk)
        # only the chunk holds its images while they are yielded
        taken = built = requests = places = pools = drawn = negatives = None
        chunk.reverse()
        while chunk:
            yield chunk.pop()
    if error is not None:
        raise error


def draw_negatives(sampler: str, dataset: DatasetIndex, seeds, k: int = 5,
                   sigma: float | None = None):
    """Yield each image's negative set from its ``sampler`` pool, in image
    order, drawn as :func:`sample_from_pool` draws it on ``seeds[i]``: the
    :func:`drawn_chunks` of one row an image, whose failing count is raised."""
    items = ([] for _ in range(len(dataset)))
    for _, _, _, drawn in drawn_chunks([sampler], dataset, SplitStreams(seeds), items, 0, k, sigma):
        if isinstance(drawn[sampler], Exception):
            raise drawn[sampler]
        yield FixationSet.from_linear(drawn[sampler][0], dataset.frame)


def negative_pool(sampler: str, image_id: str, dataset: DatasetIndex, k: int = 5,
                  sigma: float | None = None) -> NegativePool:
    """One image's pool: :func:`negative_pools` of that image alone."""
    return negative_pools(sampler, [dataset.index(image_id)], dataset, k, sigma)[0]


def shuffled_pool(image_id: str, dataset: DatasetIndex) -> NegativePool:
    """Fixations pooled from the whole dataset, minus this image's own."""
    return negative_pool("shuffled", image_id, dataset)


def farthest_pool(image_id: str, dataset: DatasetIndex, k: int, sigma: float | None = None) -> NegativePool:
    """Union of the top-k farthest neighbors' fixations, minus this image's own."""
    return negative_pool("fn", image_id, dataset, k, sigma)
