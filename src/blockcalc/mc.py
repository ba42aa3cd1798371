"""Seeding and replication plumbing shared by the Monte Carlo operations.

Replication ``r`` of a run with master seed ``s`` always draws from a
generator seeded by ``SeedSequence(entropy=s, spawn_key=(r,))``, and partial
results are reduced in ascending replication order, every batch in one
process.

:func:`rep_rng` builds that generator for one rep, and is called only for
the rare reps :func:`rep_integers` redraws. Otherwise no ``SeedSequence``
or ``PCG64`` object is built per rep: :func:`_lane_seeds` hashes the
entropy of every lane, one master seed and one rep, as uint32 arrays, and
two consumers start from those seeds.

- :func:`rep_integers` gives the draws of ``rep_rng(s, r).integers(highs)``,
  one row of ``highs`` shared by every seed, for a range of reps of one or
  many master seeds as one matrix. It jumps
  every lane's 128-bit LCG ahead on 64-bit halves and applies numpy's
  32-bit Lemire bounding, so the draws of site and two-stage sampling and
  the shuffle steps of Monte Carlo assignment draws take no per-rep Python
  call. Each output costs two 64-by-64-bit products split into 32-bit
  halves plus four wrapping products, more than a generator's own output,
  so it pays while a rep takes few words, as a draw of a few sites or a
  small table's assignment does; past about 400 words per rep (site
  sampling: between 200 and 1,000 sites) a generator per rep is faster.
- :func:`child_seeds` hashes many spawn keys of one master seed at once,
  for the child seeds of a batch of grid points.
- :func:`rep_rngs` seeds ``PCG64`` in Python integers and sets the state of
  one reused generator, so a caller must be done with each yielded
  generator before it asks for the next. It serves the draws whose word
  count is not known in advance: flexible blocking's normals come from a
  ziggurat with data-dependent rejection, and replay's permutations from
  numpy's ``permutation``.

Every Monte Carlo and grid loop runs in the batches of :func:`chunk_bounds`,
one after another, each of about ``oracle.CHUNK_CELLS`` cells whatever an
item's width, so memory stays bounded for any rep count or grid; every rep
gets exactly the draws it would make alone.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

from .oracle import chunk_rows

T = TypeVar("T")
U = TypeVar("U")


def rep_rng(master_seed: int, rep: int) -> np.random.Generator:
    """Rep ``rep``'s generator under ``master_seed``: the tests' reference for batched draws."""
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(rep,)))


# numpy's SeedSequence hash (NEP 19): pool size, hash and mix constants.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_MASK32 = 0xFFFFFFFF

# PCG64's 128-bit LCG multiplier (O'Neill 2014).
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _words(value: int) -> list[int]:
    """``value`` as little-endian 32-bit words, as ``SeedSequence`` reads an int."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hash_constants(init: int, mult: int, calls: int) -> list[int]:
    """The running constant of ``calls`` hashmix calls: call ``j`` xors with
    item ``j`` and multiplies by item ``j + 1``."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


#: ``generate_state(4, uint64)`` hashes eight 32-bit words, the halves of
#: the four uint64s, from the pool words in this order with these constants.
_STATE_CYCLE = [i % _POOL_SIZE for i in range(2 * _POOL_SIZE)]
_STATE_CONSTS = np.array(_hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE), dtype=np.uint32)


def _hashmix(value, xor, mult):
    """``SeedSequence``'s hashmix on Python ints or uint32 arrays."""
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> _XSHIFT


def _mix(x, y):
    result = (x * _MIX_MULT_L - y * _MIX_MULT_R) & _MASK32
    return result ^ result >> _XSHIFT


def _pcg64_seeds(entropy: list) -> np.ndarray:
    """``generate_state(4, uint64)`` of the ``SeedSequence`` pool mixed from
    ``entropy``, for every lane at once, as a ``(lanes, 4)`` uint64 array.

    ``entropy`` lists the assembled entropy words of every lane, one uint32
    array per word with one value per lane: the seed's words, padded to the
    pool size, then the spawn key's. The first pool-size words fill and
    cross-mix the pool word by word; every later word is mixed into all
    pool words at once.
    """
    consts = _hash_constants(
        _INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * (len(entropy) - _POOL_SIZE)
    )
    pool = [_hashmix(word, consts[j], consts[j + 1]) for j, word in enumerate(entropy[:_POOL_SIZE])]
    j = _POOL_SIZE
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[j], consts[j + 1]))
                j += 1
    pool = np.array(pool, dtype=np.uint32)
    for word in entropy[_POOL_SIZE:]:
        step = np.array(consts[j : j + _POOL_SIZE + 1], dtype=np.uint32)[:, None]
        pool = _mix(pool, _hashmix(word, step[:-1], step[1:]))
        j += _POOL_SIZE
    state = _hashmix(pool[_STATE_CYCLE], _STATE_CONSTS[:-1, None], _STATE_CONSTS[1:, None])
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8")


def _lane_seeds(
    master_seeds: Sequence[int], lo: int, hi: int, size: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """``(rows, seeds)`` for the lanes of every master seed ``p`` and rep
    ``r`` in ``lo..hi-1``, in slices of at most ``size`` lanes.

    Lane ``(p, r)`` is row ``p * (hi - lo) + r - lo`` of its caller's
    output, and ``seeds`` holds the slice's ``(lanes, 4)`` :func:`_pcg64_seeds`
    array. Lanes are hashed together when their entropy has the same word
    count: master seeds of up to four words (padded to four) or of five,
    six and so on, and spawn keys of one 32-bit word, two and so on. The
    slices of one master seed come in ascending rep order, as
    :func:`rep_rngs` needs. A negative seed raises numpy's ``ValueError``.
    """
    reps = hi - lo
    classes: dict[int, list[tuple[int, list[int]]]] = {}
    for p, seed in enumerate(master_seeds):
        words = _words(seed)
        words += [0] * (_POOL_SIZE - len(words))
        classes.setdefault(len(words), []).append((p, words))
    for members in classes.values():
        index = np.array([p for p, _ in members])
        seed_words = np.array([words for _, words in members], dtype=np.uint32).T
        start = lo
        while start < hi:
            start_words = _words(start)
            stop = min(hi, 1 << 32 * len(start_words))
            lanes = len(members) * (stop - start)
            # The fewest slices of at most `size` lanes, evened out.
            step = -(-lanes // -(-lanes // size))
            for first in range(0, lanes, step):
                member, offset = np.divmod(np.arange(first, min(first + step, lanes)), stop - start)
                # The keys start + offset, word by word with carries, as uint32 arrays.
                total = offset.astype(np.uint64)
                key_entropy = []
                for word in start_words:
                    total = total + np.uint64(word)
                    key_entropy.append((total & _MASK32).astype(np.uint32))
                    total = total >> np.uint64(32)
                rows = index[member] * reps + (start - lo) + offset
                yield rows, _pcg64_seeds([*seed_words[:, member], *key_entropy])
            start = stop


def child_seeds(master_seed: int, keys) -> np.ndarray:
    """``SeedSequence(entropy=master_seed, spawn_key=key).generate_state(1)[0]``
    for every row ``key`` of the ``(lanes, width)`` integer array ``keys``,
    whose items are each below 2^32, as a uint32 array: the first 32-bit
    word of each lane's :func:`_pcg64_seeds` state, hashed in one pass."""
    keys = np.asarray(keys)
    assert np.all((keys >= 0) & (keys <= _MASK32)), "every key item must be in 0..2^32-1"
    words = _words(master_seed)
    words += [0] * (_POOL_SIZE - len(words))
    entropy = [np.full(len(keys), word, dtype=np.uint32) for word in words]
    return _pcg64_seeds([*entropy, *keys.T.astype(np.uint32)]).view("<u4")[:, 0]


def rep_rngs(master_seed: int, lo: int, hi: int) -> Iterator[np.random.Generator]:
    """The generators of reps ``lo..hi-1``, in order, each in exactly the state
    of :func:`rep_rng` for its rep.

    Every item is the same ``Generator`` object, re-seeded in place, so a
    caller must be done with it before it asks for the next one. Reps are
    hashed by :func:`_lane_seeds`, ``chunk_rows(8)`` at a time: each lane's
    seed is eight 32-bit words. A negative seed raises numpy's ``ValueError``.
    """
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    for _, seeds in _lane_seeds([master_seed], lo, hi, chunk_rows(2 * _POOL_SIZE)):
        for state_hi, state_lo, seq_hi, seq_lo in seeds.tolist():
            # pcg_setseq_128_srandom_r: two LCG steps from state 0, adding initstate between them.
            inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
            state = ((inc + (state_hi << 64 | state_lo)) * _PCG64_MULT + inc) & _MASK128
            bit_generator.state = {
                "bit_generator": "PCG64",
                "state": {"state": state, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            yield rng


_MASK64 = (1 << 64) - 1

# Array constants are uint64 scalars, so numpy 1.24 and numpy 2 promote alike.
_LOW32, _ONE, _THIRTY_TWO, _FIFTY_EIGHT, _SIXTY_THREE, _SIXTY_FOUR = (
    np.uint64(v) for v in (_MASK32, 1, 32, 58, 63, 64)
)


@functools.lru_cache(maxsize=None)
def _jumps(outputs: int) -> np.ndarray:
    """The LCG jump-ahead constants ``a`` and ``b`` of ``PCG64`` outputs ``1..outputs``.

    Output ``k`` is taken from the state ``k`` steps after seeding, which is
    ``a_k * initstate + b_k * inc`` with ``a_k = MULT^(k+1)`` and
    ``b_k = sum_{i <= k+1} MULT^i`` (seeding itself is one step from
    ``inc + initstate`` plus ``inc``). Returned as a ``(2, 2, outputs, 1)``
    read-only uint64 array: ``a``, then ``b``, each as its low, then its
    high 64-bit half. Cached, because every chunk of a run asks for the
    same count.
    """
    powers = [1]
    for _ in range(outputs + 1):
        powers.append(powers[-1] * _PCG64_MULT & _MASK128)
    sums = list(itertools.accumulate(powers, lambda a, b: (a + b) & _MASK128))
    jumps = np.array(
        [[[v & _MASK64 for v in values], [v >> 64 for v in values]]
         for values in (powers[2:], sums[2:])],
        dtype=np.uint64,
    )[..., None]
    jumps.setflags(write=False)
    return jumps


def _wide_product(a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The low and high 64-bit halves of the 128-bit products ``a * x`` of
    uint64 arrays. The low half is the wrapping product; the high half adds
    the four products of 32-bit halves, each below 2^64, by their place."""
    a0, a1 = a & _LOW32, a >> _THIRTY_TWO
    x0, x1 = x & _LOW32, x >> _THIRTY_TWO
    low = a0 * x0
    cross = a0 * x1
    other = a1 * x0
    # Bits 32..63 of the product and their carry: three terms below 2^32.
    middle = (low >> _THIRTY_TWO) + (cross & _LOW32) + (other & _LOW32)
    high = a1 * x1
    high += cross >> _THIRTY_TWO
    high += other >> _THIRTY_TWO
    high += middle >> _THIRTY_TWO
    return a * x, high


def _pcg64_words(seeds: np.ndarray, outputs: int) -> np.ndarray:
    """The first ``2 * outputs`` 32-bit words each seeded ``PCG64`` hands out,
    as the columns of a ``(2 * outputs, lanes)`` uint64 array.

    ``seeds`` is a :func:`_pcg64_seeds` array, one lane per row. The state
    of output ``k`` is ``a_k * initstate + b_k * inc mod 2^128`` (see
    :func:`_jumps`), held as its low and high 64-bit halves, each an
    ``(outputs, lanes)`` array. Nothing overflows unaccounted for:

    - numpy's uint64 products and sums wrap, which is exact mod 2^64, and
      that is all the high half needs of the four cross products
      (``a_lo * initstate_hi``, ``a_hi * initstate_lo`` and the same of
      ``b`` and ``inc``) and of the carries into it;
    - only the two products of low halves, ``a_lo * initstate_lo`` and
      ``b_lo * inc_lo``, are needed in full: :func:`_wide_product` forms
      their high halves from 32-bit halves, whose products fit in 64 bits
      and whose middle sum of three terms below 2^32 stays below
      ``3 * 2^32``.

    Every product is of arrays: a wrapping product of numpy scalars warns.
    Each 64-bit output is the XSL-RR of its state, split into its low, then
    its high 32-bit word.
    """
    (a_lo, a_hi), (b_lo, b_hi) = _jumps(outputs)
    state_hi, state_lo, seq_hi, seq_lo = np.ascontiguousarray(seeds.T)
    # inc = 2 * seq + 1 mod 2^128.
    inc_lo = seq_lo << _ONE | _ONE
    inc_hi = seq_hi << _ONE | seq_lo >> _SIXTY_THREE
    lo, hi = _wide_product(a_lo, state_lo)
    inc_term, inc_carry = _wide_product(b_lo, inc_lo)
    lo += inc_term
    # The high half, mod 2^64: both high halves, the low sum's carry, and
    # the cross products.
    hi += inc_carry
    hi += lo < inc_term
    hi += a_lo * state_hi
    hi += a_hi * state_lo
    hi += b_lo * inc_hi
    hi += b_hi * inc_lo
    # XSL-RR: rotate (high half ^ low half) right by the top 6 bits.
    rot = hi >> _FIFTY_EIGHT
    hi ^= lo
    output = hi >> rot | hi << ((_SIXTY_FOUR - rot) & _SIXTY_THREE)
    words = np.stack([output & _LOW32, output >> _THIRTY_TWO], axis=1)
    return words.reshape(2 * outputs, len(seeds))


def rep_integers(master_seeds: Sequence[int], lo: int, hi: int, highs) -> np.ndarray:
    """``rep_rng(master_seeds[p], r).integers(highs)`` for every master
    seed ``p`` and rep ``r`` in ``lo..hi-1``, as row ``p * (hi - lo) + r - lo``
    of a ``(len(master_seeds) * (hi - lo), len(highs))`` int64 array.

    ``highs`` is one row of bounds, one per step, each in ``1..2^32 - 1``,
    that every master seed shares; any other shape is refused. numpy draws
    such a bound by Lemire's method on one 32-bit word: a word ``w`` gives
    ``w * high >> 32`` unless ``w * high mod 2^32 < (2^32 - high) mod high``,
    when it is rejected and another word is drawn; a high of 1 gives 0 and
    takes no word. Every lane's words come from :func:`_pcg64_words`, hashed
    by :func:`_lane_seeds` ``chunk_rows(steps)`` lanes at a time, and each
    step reads the word numbered by the drawn steps before it (a high of 1
    scales its word by 0). A lane with a rejected word is redrawn from
    :func:`rep_rng` (for a high of 40, fewer than one word in 10^8 is
    rejected). A negative seed raises numpy's ``ValueError``.
    """
    highs = np.asarray(highs, dtype=np.int64)
    if highs.ndim != 1:
        raise ValueError(f"highs must be one row of bounds, got shape {highs.shape}")
    assert np.all((highs >= 1) & (highs < 1 << 32)), "every high must be in 1..2^32-1"
    reps, steps = hi - lo, len(highs)
    drawn = highs > 1
    # At least one output, so a row of 1s reads word 0 and scales it by 0.
    outputs = max(1, -(-int(drawn.sum()) // 2))
    word = np.maximum(np.cumsum(drawn) - 1, 0)
    factors = np.where(drawn, highs, 0).astype(np.uint64)[:, None]
    thresholds = (((1 << 32) - highs) % highs).astype(np.uint64)[:, None]
    out = np.zeros((len(master_seeds) * reps, steps), dtype=np.int64)
    for rows, seeds in _lane_seeds(master_seeds, lo, hi, chunk_rows(max(1, steps))):
        scaled = _pcg64_words(seeds, outputs)[word]
        scaled *= factors
        out[rows] = (scaled >> _THIRTY_TWO).T
        rejected = (scaled & _LOW32) < thresholds
        for lane in np.flatnonzero(rejected.any(axis=0)):
            p, r = divmod(int(rows[lane]), reps)
            out[rows[lane]] = rep_rng(master_seeds[p], lo + r).integers(highs)
    return out


def chunk_bounds(count: int, width: int) -> list[tuple[int, int]]:
    """Consecutive ``(lo, hi)`` batches of ``count`` items, ``chunk_rows(width)`` at most."""
    rows = chunk_rows(width)
    return [(lo, min(lo + rows, count)) for lo in range(0, count, rows)]


def map_ordered(fn: Callable[[T], U], items: Sequence[T], threads: int = 1) -> list[U]:
    """``[fn(item) for item in items]``, in order, in this process.

    ``threads`` is accepted for callers that pass a worker count and
    changes nothing.
    """
    return [fn(item) for item in items]
