"""Seeding and replication plumbing shared by the Monte Carlo operations.

Replication ``r`` of a run with master seed ``s`` always draws from a
generator seeded by ``SeedSequence(entropy=s, spawn_key=(r,))``, and partial
results are reduced in ascending replication order. Worker counts therefore
change speed, never results.

:func:`rep_rng` builds that generator for one rep. :func:`rep_rngs` derives
the same generator states for a range of reps without a ``SeedSequence`` or
``PCG64`` object per rep: it hashes every rep's entropy as uint32 arrays,
seeds ``PCG64`` in Python integers and sets the state of one reused
generator, so a caller must be done with each yielded generator before it
asks for the next.

The worker count is clamped by :func:`effective_workers`: a pool never has
more workers than items to map or CPUs to run them on.
"""

from __future__ import annotations

import operator
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

T = TypeVar("T")
U = TypeVar("U")

#: Replications per work chunk. Fixed so that chunk boundaries (and hence
#: floating-point reduction order) do not depend on the worker count.
CHUNK_SIZE = 256


def rep_seed(master_seed: int, rep: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=master_seed, spawn_key=(rep,))


def rep_rng(master_seed: int, rep: int) -> np.random.Generator:
    return np.random.default_rng(rep_seed(master_seed, rep))


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
    ``entropy``, for every rep at once, as a ``(reps, 4)`` uint64 array.

    ``entropy`` lists the assembled entropy words: the seed's, padded to the
    pool size, as Python ints, then the spawn key's as one uint32 array per
    word with one value per rep. The seed words fill and mix the pool once,
    as scalars; every later word is mixed into all pool words at once.
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
    pool = np.array(pool, dtype=np.uint32)[:, None]
    for word in entropy[_POOL_SIZE:]:
        step = np.array(consts[j : j + _POOL_SIZE + 1], dtype=np.uint32)[:, None]
        pool = _mix(pool, _hashmix(word, step[:-1], step[1:]))
        j += _POOL_SIZE
    state = _hashmix(pool[_STATE_CYCLE], _STATE_CONSTS[:-1, None], _STATE_CONSTS[1:, None])
    return np.ascontiguousarray(state.T, dtype="<u4").view("<u8")


def rep_rngs(master_seed: int, lo: int, hi: int) -> Iterator[np.random.Generator]:
    """The generators of reps ``lo..hi-1``, in order, each in exactly the state
    of :func:`rep_rng` for its rep.

    Every item is the same ``Generator`` object, re-seeded in place, so a
    caller must be done with it before it asks for the next one. Reps are
    hashed in slices of at most :data:`CHUNK_SIZE`; a slice never mixes spawn
    keys of different 32-bit word counts. A negative seed raises numpy's
    ``ValueError``.
    """
    seed_words = _words(master_seed)
    seed_words += [0] * (_POOL_SIZE - len(seed_words))
    rng = np.random.Generator(np.random.PCG64(0))
    bit_generator = rng.bit_generator
    start = lo
    while start < hi:
        key_words = len(_words(start))
        stop = min(hi, start + CHUNK_SIZE, 1 << 32 * key_words)
        keys = range(start, stop)
        key_entropy = [
            np.array([r >> shift & _MASK32 for r in keys], dtype=np.uint32)
            for shift in range(0, 32 * key_words, 32)
        ]
        for state_hi, state_lo, seq_hi, seq_lo in _pcg64_seeds(seed_words + key_entropy).tolist():
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
        start = stop


def chunk_bounds(n: int, chunk: int = CHUNK_SIZE) -> list[tuple[int, int]]:
    return [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]


def effective_workers(threads: int, items: int) -> int:
    """Workers a map over ``items`` items actually uses: at least 1, and no
    more than ``threads``, the item count or ``os.cpu_count()``."""
    return max(1, min(threads, items, os.cpu_count() or 1))


def map_ordered(fn: Callable[[T], U], items: Sequence[T], threads: int = 1) -> list[U]:
    """Map preserving order; a process pool of :func:`effective_workers`
    workers is used when that count exceeds 1.

    ``fn`` and the items must be picklable when running with a pool.
    """
    items = list(items)
    workers = effective_workers(threads, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
