"""The two earlier whole-word rewrite engines, kept only for the tests.

Both rewrite whole words, always at the leftmost '+' of degree >= 1, which
``leftmost_high_dplus`` finds by scanning the word from its start.

``normalize`` picks the lexicographically smallest active word at every step
and bubbles the swap operator T_i as a transient letter "T" inside the word,
its index i carried alongside,
so a word can be rewritten again each time a new contribution to its
coefficient arrives.  Its rules build every output in a dict and let the
coefficient arithmetic cancel.

``normalize_by_weight`` is the engine the library ran before its left-to-right
transducer: it applies the library's own rules, keeps the words in one bucket
per '+' weight and rewrites each word once, with packed coefficients.
``terminal_lincomb_to_e`` parses its terminal words into blocks.

The library's transducer must agree with both exactly.  ``letter_degree`` is
the definition of a letter's degree, which the scan returns and the rules
take.
"""

from __future__ import annotations

from vsllt import rewrite
from vsllt.paths import MINUS, PLUS, ZERO, Word, primitive_factors, semilength
from vsllt.qpoly import ONE, Q, Q_MINUS_1, QPoly, accumulate
from vsllt.rewrite import LinComb, digit_bits, unpack
from vsllt.symfunc import Partition

# A linear combination of words with each coefficient packed into one
# positive int, as ``rewrite.unpack`` reads it.
PackedLinComb = dict[Word, int]

# the swap operator's transient letter in ``_bubble_t``'s words
SWAP = "T"


def leftmost_high_dplus(word: Word) -> tuple[int, int] | None:
    """Position and degree of the leftmost '+' with degree >= 1, or None if
    the word is terminal.

    A letter's degree is the number of '-' minus the number of '+' weakly to
    its left; for a '+' it is the k of its domain V_k.
    """
    deg = 0
    for pos, tok in enumerate(word):
        if tok == MINUS:
            deg += 1
        elif tok == PLUS:
            deg -= 1
            if deg >= 1:
                return pos, deg
    return None


def letter_degree(word: Word, pos: int) -> int:
    """Number of '-' minus number of '+' weakly to the left of pos.

    For a '+' letter this is the k of its domain V_k.
    """
    if not 0 <= pos < len(word):
        raise IndexError(f"position {pos} out of range")
    prefix = word[: pos + 1]
    return prefix.count(MINUS) - prefix.count(PLUS)


def rewrite_case0(word: Word, pos: int) -> LinComb:
    """Rewrite an adjacent (-, +) pair with the '+' at degree >= 1: the pair
    swaps to (+, -), or collapses to a single '0' with coefficient (q-1)."""
    if word[pos] != PLUS or word[pos - 1] != MINUS:
        raise ValueError(f"no (-,+) pair ending at position {pos}")
    if letter_degree(word, pos) < 1:
        raise ValueError(f"'+' at position {pos} has degree 0")
    out: LinComb = {}
    accumulate(out, word[: pos - 1] + PLUS + MINUS + word[pos + 1 :], ONE)
    accumulate(out, word[: pos - 1] + ZERO + word[pos + 1 :], Q_MINUS_1)
    return out


def _bubble_t(word: Word, t: int, idx: int) -> LinComb:
    """Move the single swap letter at position t leftward until it resolves.

    The letter, T_idx, acts on V_k where k is the '-'/'+' balance strictly
    to its left.  One local identity applies per step:
      idx <= k-2, left is '0':  pass a diagonal letter, index goes up;
      idx <= k-2, left is '-':  pass a lowering letter, index unchanged;
      idx == k-1, '0','0' on the left: jump both, index resets to 1;
      idx == k-1, '-','0' on the left: resolve, factor q, letters swap;
      idx == k-1, '-','-' on the left: resolve, the swap letter drops;
      idx == k-1, '0','-' on the left: resolve into two words,
                  one with the pair swapped (+1) and one as-is (-(q-1)).
    Valid inputs always resolve; running off the front is an internal error.
    """
    coeff = ONE
    while True:
        k = 0
        for tok in word[:t]:
            if tok == MINUS:
                k += 1
            elif tok == PLUS:
                k -= 1
        if t == 0 or word[t - 1] == PLUS:
            raise RuntimeError(
                f"swap letter T{idx} stuck at position {t} in {word}"
            )
        left = word[t - 1]
        if idx <= k - 2:
            if left == ZERO:
                word = word[: t - 1] + SWAP + ZERO + word[t + 1 :]
                idx += 1
            else:
                word = word[: t - 1] + SWAP + MINUS + word[t + 1 :]
            t -= 1
            continue
        if idx != k - 1:
            raise RuntimeError(f"swap index {idx} out of range for degree {k}")
        if t < 2 or word[t - 2] == PLUS:
            raise RuntimeError(
                f"no terminal rule for T{idx} at position {t} in {word}"
            )
        left2 = word[t - 2]
        if left == ZERO and left2 == ZERO:
            word = word[: t - 2] + SWAP + ZERO + ZERO + word[t + 1 :]
            t -= 2
            idx = 1
            continue
        if left == ZERO and left2 == MINUS:
            return {word[: t - 2] + ZERO + MINUS + word[t + 1 :]: coeff * Q}
        if left == MINUS and left2 == MINUS:
            return {word[: t - 2] + MINUS + MINUS + word[t + 1 :]: coeff}
        # left == MINUS, left2 == ZERO
        out: LinComb = {}
        accumulate(out, word[: t - 2] + MINUS + ZERO + word[t + 1 :], coeff)
        accumulate(out, word[: t - 2] + ZERO + MINUS + word[t + 1 :], -(coeff * Q_MINUS_1))
        return out


def rewrite_push_T(word: Word, pos: int) -> LinComb:
    """Rewrite an adjacent (0, +) pair with the '+' at degree >= 1.

    The pair splits into (q-1) * (+, 0) plus a term (T_1, +, 0) whose swap
    letter is bubbled leftward to completion; cancellations happen through
    the coefficient arithmetic.
    """
    if word[pos] != PLUS or word[pos - 1] != ZERO:
        raise ValueError(f"no (0,+) pair ending at position {pos}")
    if letter_degree(word, pos) < 1:
        raise ValueError(f"'+' at position {pos} has degree 0")
    out: LinComb = {}
    accumulate(out, word[: pos - 1] + PLUS + ZERO + word[pos + 1 :], Q_MINUS_1)
    t_word = word[: pos - 1] + SWAP + PLUS + ZERO + word[pos + 1 :]
    for w, c in _bubble_t(t_word, pos - 1, 1).items():
        accumulate(out, w, c)
    return out


def rewrite_step(word: Word, pos: int) -> LinComb:
    if word[pos - 1] == MINUS:
        return rewrite_case0(word, pos)
    if word[pos - 1] == ZERO:
        return rewrite_push_T(word, pos)
    raise RuntimeError(f"unexpected letter {word[pos - 1]!r} before high '+'")


def normalize(word: Word) -> LinComb:
    """Rewrite a path word into terminal words with every '+' at degree 0.

    Processes the lexicographically smallest active word first; each step
    removes a '+', moves it one place left, or lowers its degree, so the
    loop terminates.  The result has coefficients in Z[q] that rebase into
    N[q-1].
    """
    primitive_factors(word)  # raises WordError on an invalid word
    active: LinComb = {word: ONE}
    done: LinComb = {}
    while active:
        w = min(active)
        coeff = active.pop(w)
        found = leftmost_high_dplus(w)
        if found is None:
            accumulate(done, w, coeff)
            continue
        for w2, c2 in rewrite_step(w, found[0]).items():
            accumulate(active, w2, coeff * c2)
    return done


def _plus_weight(word: Word) -> int:
    """Sum of the positions of the '+' letters; every rewrite rule lowers it."""
    return sum(i for i, tok in enumerate(word) if tok == PLUS)


def _weighed_step(
    word: Word, pos: int, deg: int, level: int
) -> list[tuple[Word, QPoly, int]]:
    """The outputs of rewriting the '+' at pos, of degree deg, with the
    library's rules, as (word, coefficient, weight).

    ``level`` is the word's ``_plus_weight``; each output's weight follows from
    the rule that fired.  A swap and every push_T output sit at level - 1.  A
    collapse drops the '+' at pos and moves each later '+' one place left.
    """
    if word[pos - 1] == MINUS:
        # rewrite_case0 returns the swap, then the collapse
        (swapped, one), (collapsed, q_minus_1) = rewrite.rewrite_case0(word, pos, deg).items()
        collapsed_weight = level - pos - word[pos + 1 :].count(PLUS)
        return [(swapped, one, level - 1), (collapsed, q_minus_1, collapsed_weight)]
    return [(w2, c2, level - 1) for w2, c2 in rewrite.rewrite_push_T(word, pos, deg).items()]


def normalize_by_weight(word: Word) -> PackedLinComb:
    """Rewrite a path word into terminal words with every '+' at degree 0.

    A (-, +) or (0, +) swap and every bubble output lower ``_plus_weight``
    by 1, a collapse by at least the position of the removed '+'.  So words
    wait in one bucket per weight, and the buckets are walked from the top
    down: each word is rewritten once, after every contribution to its
    coefficient has been merged.  Only the input word is weighed; every
    output's weight is derived from the rule that produced it.

    Every coefficient is packed as its value at t = q-1 = 2**B, B =
    ``digit_bits`` of the semilength: the scalars 1, t and t+1 act as c,
    c << B and (c << B) + c.
    """
    primitive_factors(word)  # raises WordError on an invalid word
    return rewrite_by_weight(word, digit_bits(semilength(word)))


def rewrite_by_weight(word: Word, bits: int) -> PackedLinComb:
    """``normalize_by_weight`` without the validation, at a given width: on a
    prefix tail+ of a word it gives the normal forms that ``rewrite._close``
    memoizes, each a run of blocks then an open tail."""
    buckets: list[PackedLinComb] = [{} for _ in range(_plus_weight(word))] + [{word: 1}]
    done: PackedLinComb = {}
    while buckets:
        level = len(buckets) - 1
        for w, c in buckets.pop().items():
            found = leftmost_high_dplus(w)
            if found is None:
                done[w] = c
                continue
            pos, deg = found
            for w2, scalar, weight in _weighed_step(w, pos, deg, level):
                if weight >= level:
                    raise RuntimeError(
                        f"rewriting {w} did not lower the '+' weight {level}"
                    )
                if scalar is ONE:
                    scaled = c
                elif scalar is Q_MINUS_1:
                    scaled = c << bits
                elif scalar is Q:
                    scaled = (c << bits) + c
                else:
                    raise RuntimeError(f"rule scalar {scalar} is not 1, q-1 or q")
                bucket = buckets[weight]
                bucket[w2] = bucket.get(w2, 0) + scaled
    return done


def terminal_blocks(word: Word) -> Partition:
    """The block sizes of a terminal word (- 0^m +)*, sorted decreasingly."""
    parts = []
    i = 0
    while i < len(word):
        if word[i] != MINUS:
            raise ValueError(f"non-terminal word {word}")
        i += 1
        m = 0
        while i < len(word) and word[i] == ZERO:
            m += 1
            i += 1
        if i >= len(word) or word[i] != PLUS:
            raise ValueError(f"non-terminal word {word}")
        i += 1
        parts.append(m + 1)
    return tuple(sorted(parts, reverse=True))


def terminal_lincomb_to_e(lc: PackedLinComb) -> dict[Partition, QPoly]:
    """Collect ``normalize_by_weight``'s packed terminal words into an e-basis
    expansion: each word is one e_mu, mu its ``terminal_blocks``; the packed
    coefficients add up per partition and are unpacked once each."""
    packed: dict[Partition, int] = {}
    for word, coeff in lc.items():
        mu = terminal_blocks(word)
        packed[mu] = packed.get(mu, 0) + coeff
    return {mu: unpack(c, sum(mu)) for mu, c in packed.items()}
