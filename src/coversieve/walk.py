"""The reduced residue walk behind exhaustive ``delta_minus`` and
``enumerate_moments``: every residue choice for a list of moduli that the
uncovered density tells apart, met in lexicographic order a block at a
time, each choice a row of uint64 words holding its uncovered bits of one
period.  ``_multiples`` and ``_shifted`` build its class rows, and the sampler's.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate
from math import gcd, lcm, prod

import numpy as np

# words in one block of the residue walk: each block of rows it expands,
# and each chunk of shifted classes it builds, holds at most this many
# uint64 words, or one row when a row is wider
_BLOCK_WORDS = 2**12


def _residue_widths(order: list[int]) -> list[int]:
    """g_i = gcd(n_i, lcm(order[:i])): the residues below it are the ones
    ``_residue_walk`` tries at level i (1 for a modulus 1)."""
    return [gcd(n, m) for n, m in zip(order, accumulate(order, lcm, initial=1))]


def _residue_choice(order: list[int], index: int) -> list[int]:
    """The residues of the leaf numbered ``index`` in the lexicographic
    order of ``_residue_walk``: its mixed-radix digits over the widths."""
    choice = []
    for g in reversed(_residue_widths(order)):
        index, r = divmod(index, g)
        choice.append(r)
    return choice[::-1]


def _bit_counts(rows: np.ndarray) -> np.ndarray:
    """Set bits of each row of uint64 words, as int64."""
    return np.bitwise_count(rows).sum(axis=1, dtype=np.int64)


def _multiples(n: int, L: int) -> np.ndarray:
    """The W = ceil(L/64) uint64 words of the multiples of n in [0, L),
    packed from a transient byte per cell: eight times the row's bytes."""
    cells = np.zeros(-(-L // 64) * 64, bool)
    cells[:L:n] = True
    return np.packbits(cells, bitorder="little").view(np.uint64)


def _shifted(base: np.ndarray, residues: np.ndarray) -> np.ndarray:
    """(len(residues) >= 1, W) words, row k those of ``base`` moved up by
    r = residues[k] bits and cut at W words: class r < n of n, for ``base``
    the multiples of n.  The rows of one word shift q = r // 64 are written
    at once, as one slice where they are adjacent (ascending r always are)."""
    W = len(base)
    rows = np.zeros((len(residues), W), np.uint64)
    q = residues >> 6
    s = (residues & 63).astype(np.uint64)
    order = np.argsort(q, kind="stable")
    q = q[order]
    cuts = [0, *(np.flatnonzero(q[1:] != q[:-1]) + 1).tolist(), len(q)]
    for a, b in zip(cuts, cuts[1:]):
        k, at = int(q[a]), order[a:b]
        if at[-1] - at[0] == b - a - 1:
            at = slice(at[0], at[-1] + 1)
        shift = s[at, None]
        part = base[: W - k] << shift
        # numpy shifts by 64 or more to 0, so s = 0 carries nothing
        part[:, 1:] |= base[: W - k - 1] >> (64 - shift)
        rows[at, k:] = part
    return rows


def _residue_walk(order: list[int], L: int, leaf, prune=None) -> None:
    """Walk, in lexicographic order, over the residue choices for ``order``
    that delta tells apart: level i tries each r below
    g_i = gcd(n_i, lcm(order[:i])) (``_residue_widths``), class r of n_i
    being the multiples of n_i in [0, L) (``_multiples``) shifted up by r.

    The walk goes level by level over blocks of nodes.  A node is a row of
    W = ceil(L/64) uint64 words holding its uncovered bits of [0, L), and
    its number in lexicographic order; a level ANDs every row of a block
    with the complement of each of its classes, by broadcasting, and
    numbers child r of node j as j*g_i + r.  Each block of leaves calls
    ``leaf(rows, counts, index)`` with the rows, their bit counts and their
    numbers, ascending (``_residue_choice`` reads a choice off its number).
    ``prune(i, counts)``, if given, returns the rows of a block to drop
    before level i, counts being their bit counts.  Blocks are expanded
    depth first, a block of parents and a chunk of residues at a time, so
    that the leaves are met in lexicographic order and each block is
    pruned after every leaf before it.  A block of rows and a chunk of
    shifted classes each hold at most ``_BLOCK_WORDS`` words, or one row,
    and there is one block of each in flight per level: the walk's memory
    is bounded by that, not by the number of choices.

    Translating by t = 0 (mod lcm(order[:i])), t = -g_i*k (mod n_i), which
    CRT allows, keeps delta and every earlier class, moves class i from
    r + g_i*k to r, and permutes the residues of each later level.  By
    induction over the levels, each leaf thus stands for prod(n_i / g_i)
    choices of its delta, and the lexicographically first choice of least
    delta has every residue below its g_i.  Level 0 (g = 1) and a repeated
    modulus (g = n) need no rule of their own.  A level of width 1 has the
    one residue 0, so it is not walked: its class is folded into the
    classes of the walked level before it, or into the start row.  The
    walk thus has a level per modulus of g > 1 only, however many 1s and
    coprime moduli there are.
    """
    W = -(-L // 64)
    widths = _residue_widths(order)
    levels = [i for i, g in enumerate(widths) if g > 1] + [len(order)]
    # the words of the multiples of each modulus; those of 1 are every bit below L
    bases = {n: _multiples(n, L) for n in {1, *order}}
    # a level of width 1 has the one class r = 0, the multiples of n: it is
    # folded into the walked level before it, or into the start row (-1)
    rest = {}  # level -> the bits below L its folds leave
    for i, j in zip([-1] + levels, levels):
        folds = (bases[1] ^ bases[n] for n in {*order[i + 1 : j]})
        rest[i] = reduce(np.bitwise_and, folds, bases[1])
    # the numbers of the leaves run up to prod(widths) - 1
    dtype = np.int64 if prod(widths) < 2**63 else object
    whole: dict[int, np.ndarray] = {}  # level -> complements of all its classes

    def complements(i: int, lo: int, hi: int) -> np.ndarray:
        """(hi - lo, W) words, row r - lo the bits rest[i] leaves of class r."""
        table = _shifted(bases[order[i]], np.arange(lo, hi))
        # complemented by xor: the first np.invert in a process raised its
        # peak memory by 184 KiB where the sampler's xor had run (numpy 2.4)
        table ^= np.uint64(2**64 - 1)
        table &= rest[i]
        return table

    def children(k: int, rows: np.ndarray, index: np.ndarray):
        """The blocks of the children of rows at level levels[k], in order."""
        i, after = levels[k], levels[k + 1]
        g = widths[i]
        per_chunk = min(g, max(1, _BLOCK_WORDS // W))  # residues
        if per_chunk == g and i not in whole:
            whole[i] = complements(i, 0, g)
        per_block = max(1, _BLOCK_WORDS // (g * W))  # parents
        for at in range(0, len(rows), per_block):
            parents = rows[at : at + per_block, None, :]
            first = index[at : at + per_block, None] * g
            for lo in range(0, g, per_chunk):
                hi = min(g, lo + per_chunk)
                table = whole[i] if per_chunk == g else complements(i, lo, hi)
                block = (parents & table).reshape(-1, W)
                numbers = (first + np.arange(lo, hi)).ravel()
                counts = None
                if prune is not None or after == len(order):
                    counts = _bit_counts(block)
                if prune is not None:
                    drop = prune(after, counts)
                    if drop.any():
                        keep = ~drop
                        block, numbers, counts = block[keep], numbers[keep], counts[keep]
                if len(block):
                    yield block, counts, numbers

    rows = rest[-1].reshape(1, W)
    stack = [iter([(rows, _bit_counts(rows), np.zeros(1, dtype))])]
    while stack:
        block = next(stack[-1], None)
        if block is None:
            stack.pop()
        elif len(stack) == len(levels):
            leaf(*block)
        else:
            stack.append(children(len(stack) - 1, block[0], block[2]))
