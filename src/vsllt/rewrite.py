"""Symbolic normalization of path-operator words.

A word over {-, 0, +} is rewritten into a linear combination of terminal
words, i.e. concatenations of blocks (- 0^m +).  Each block acts as
multiplication by e_{m+1}, so a normalized combination is exactly an
expansion in the elementary basis.  The rewrite rules are the local
operator identities of the Dyck path algebra.  Each one lowers the sum of
the positions of the '+' letters, so ``normalize`` rewrites every word once,
from the highest such sum down.

Every rule scalar is 1, q-1 or q, so every coefficient the engine holds lies
in N[t] with t = q-1.  ``normalize`` packs each one into a single int, its
value at t = 2**B for B = ``digit_bits(n)`` (the width lemma below), and
``lincomb_to_e`` unpacks the sum of each partition's coefficients once.
"""

from __future__ import annotations

from functools import cache

from .paths import (
    MINUS,
    PLUS,
    ZERO,
    Word,
    primitive_factors,
    semilength,
    validate_word,
)
from .qpoly import ONE, Q, Q_MINUS_1, QPoly, _taylor_shift
from .symfunc import Partition, multiply_expansions

# A linear combination of words: {word: QPoly}, no zero coefficients.
LinComb = dict[Word, QPoly]
# The same with each coefficient packed into one positive int (``unpack``).
PackedLinComb = dict[Word, int]


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


def _check_high_plus(word: Word, pos: int, before: str, deg: int) -> None:
    """Check that a rule applies at pos: pos in 1..len(word)-1,
    word[pos-1:pos+1] == (before, '+'), and the '+''s degree deg >= 1."""
    if not 1 <= pos < len(word):
        raise ValueError(f"position {pos} is outside 1..{len(word) - 1}")
    if word[pos] != PLUS or word[pos - 1] != before:
        raise ValueError(f"no ({before},+) pair ending at position {pos}")
    if deg < 1:
        raise ValueError(f"'+' at position {pos} has degree {deg}")


def rewrite_case0(word: Word, pos: int, deg: int) -> LinComb:
    """Rewrite an adjacent (-, +) pair with the '+' at degree >= 1.

    From the commutator definition of the diagonal operator:
    the pair either swaps to (+, -), or collapses to a single '0' with
    coefficient (q-1).  deg is the '+''s degree, as ``leftmost_high_dplus``
    finds it.
    """
    _check_high_plus(word, pos, MINUS, deg)
    head, tail = word[: pos - 1], word[pos + 1 :]
    return {head + (PLUS, MINUS) + tail: ONE, head + (ZERO,) + tail: Q_MINUS_1}


def _bubble_t(word: Word, t: int, k: int) -> int:
    """Bubble the swap T_1 standing just before position t leftward; return
    the position t at which it resolves, word[t-2:t] being its last two letters.

    The swap acts on V_k, k being the '-'/'+' balance of word[:t].  While its
    index idx is below k-1, each letter it passes closes the gap k-1-idx by
    one: a '0' raises idx, a '-' lowers k.  So T_idx passes the next k-1-idx
    letters in one move.  At idx == k-1 it reads the two letters on its left:
    on '0','0' it jumps both and its index resets to 1; on any other pair it
    resolves.  Valid inputs always resolve; meeting a '+' or running off the
    front is an internal error.
    """
    gap = k - 2
    while True:
        if gap:
            passed = word[t - gap : t]
            if gap > t or PLUS in passed:
                raise RuntimeError(f"swap stuck left of position {t} in {''.join(word)}")
            k -= passed.count(MINUS)
            t -= gap
        if t < 2 or PLUS in word[t - 2 : t]:
            raise RuntimeError(f"no terminal rule left of position {t} in {''.join(word)}")
        if word[t - 1] == ZERO == word[t - 2]:
            t -= 2
            gap = k - 2
            continue
        return t


def rewrite_push_T(word: Word, pos: int, deg: int) -> LinComb:
    """Rewrite an adjacent (0, +) pair with the '+' at degree >= 1.

    The pair splits into (q-1) * (+, 0) plus T_1 (+, 0).  The swap is bubbled
    leftward (``_bubble_t``) and resolves on the two letters left of it.  So
    the merged output is one of three closed forms, w being the word with the
    (0, +) pair swapped and w' being w with those two letters exchanged:
      '-','-': the swap drops, w gets (q-1) + 1 = q;
      '-','0': w keeps (q-1), w' gets q;
      '0','-': w' gets 1, and w's two parts (q-1) - (q-1) cancel.
    deg is the '+''s degree, as for ``rewrite_case0``.
    """
    _check_high_plus(word, pos, ZERO, deg)
    swapped = word[: pos - 1] + (PLUS, ZERO) + word[pos + 1 :]
    # the swap sees the balance before the (0, +) pair: deg + 1
    t = _bubble_t(swapped, pos - 1, deg + 1)
    left2, left = swapped[t - 2], swapped[t - 1]
    if left2 == left:  # '-','-': the bubble never stops on '0','0'
        return {swapped: Q}
    exchanged = swapped[: t - 2] + (left, left2) + swapped[t:]
    if left == MINUS:
        return {exchanged: ONE}
    return {swapped: Q_MINUS_1, exchanged: Q}


def _plus_weight(word: Word) -> int:
    """Sum of the positions of the '+' letters; every rewrite rule lowers it."""
    return sum(i for i, tok in enumerate(word) if tok == PLUS)


def _weighed_step(
    word: Word, pos: int, deg: int, level: int
) -> list[tuple[Word, QPoly, int]]:
    """The outputs of rewriting the '+' at pos, of degree deg, as (word,
    coefficient, weight).

    ``level`` is the word's ``_plus_weight``; each output's weight follows from
    the rule that fired.  A swap and every push_T output sit at level - 1.  A
    collapse drops the '+' at pos and moves each later '+' one place left.
    """
    if word[pos - 1] == MINUS:
        # rewrite_case0 returns the swap, then the collapse
        (swapped, one), (collapsed, q_minus_1) = rewrite_case0(word, pos, deg).items()
        collapsed_weight = level - pos - word[pos + 1 :].count(PLUS)
        return [(swapped, one, level - 1), (collapsed, q_minus_1, collapsed_weight)]
    return [(w2, c2, level - 1) for w2, c2 in rewrite_push_T(word, pos, deg).items()]


def digit_bits(n: int) -> int:
    """B = C(n, 2) + 1, the bits of one t-digit of a packed coefficient at
    semilength n.

    Width lemma.  Let a(w) be the sum, over the '0' and '+' letters of w, of
    the height before the letter minus 1; a(w) <= C(n, 2), with equality on
    -^n +^n, and a = 0 on terminal words.  A rule step turns w into outputs
    with scalars s in {1, q-1, q}, and sum s(2) * 2**a(out) = 2**a(w).  All
    scalars lie in N[t], so each word u reached from w, with coefficient c,
    has c(t=1) * 2**a(u) <= 2**a(w), and the terminal coefficients sum to
    2**a(w) at t = 1.  A t-digit is at most the value at t = 1, so every
    digit, of a coefficient or of a partition's sum of them, is at most
    2**a(w) <= 2**C(n, 2) < 2**B.  The tests check each part.
    """
    return n * (n - 1) // 2 + 1


def unpack(value: int, n: int) -> QPoly:
    """The coefficient in q that ``normalize`` packed into value at
    semilength n: value's base 2**digit_bits(n) digits are its coefficients
    in t = q-1, and the Taylor shift by -1 of ``QPoly.from_qminus1`` takes
    them back to q."""
    if value < 0:
        raise ValueError(f"a packed coefficient is nonnegative, got {value}")
    bits = digit_bits(n)
    mask = (1 << bits) - 1
    digits = []
    while value:
        digits.append(value & mask)
        value >>= bits
    return _taylor_shift(digits, -1)


def normalize(word: Word) -> PackedLinComb:
    """Rewrite a path word into terminal words with every '+' at degree 0.

    A (-, +) or (0, +) swap and every bubble output lower ``_plus_weight``
    by 1, a collapse by at least the position of the removed '+'.  So words
    wait in one bucket per weight, and the buckets are walked from the top
    down: each word is rewritten once, after every contribution to its
    coefficient has been merged.  Only the input word is weighed; every
    output's weight is derived from the rule that produced it.

    Every coefficient lies in N[t], t = q-1, and is held packed as its value
    at t = 2**B, B = ``digit_bits`` of the semilength, which no rule changes:
    the scalars 1, t and t+1 act as c, c << B and (c << B) + c.  A sum of
    positive ints is never zero, so no zero is ever dropped.  ``unpack``
    gives a coefficient back in q.
    """
    validate_word(word)
    bits = digit_bits(semilength(word))
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
                        f"rewriting {''.join(w)} did not lower the '+' weight {level}"
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


def lincomb_to_e(lc: PackedLinComb) -> dict[Partition, QPoly]:
    """Collect a packed terminal linear combination into an e-basis expansion.

    Each terminal word splits uniquely into blocks (- 0^m +), one e_{m+1}
    factor per block; the block sizes sorted decreasingly index e_mu.  The
    packed coefficients add up per partition mu and are unpacked once each,
    at the semilength |mu|.
    """
    packed: dict[Partition, int] = {}
    for word, coeff in lc.items():
        parts = []
        i = 0
        while i < len(word):
            if word[i] != MINUS:
                raise ValueError(f"non-terminal word {''.join(word)}")
            i += 1
            m = 0
            while i < len(word) and word[i] == ZERO:
                m += 1
                i += 1
            if i >= len(word) or word[i] != PLUS:
                raise ValueError(f"non-terminal word {''.join(word)}")
            i += 1
            parts.append(m + 1)
        mu = tuple(sorted(parts, reverse=True))
        packed[mu] = packed.get(mu, 0) + coeff
    return {mu: unpack(c, sum(mu)) for mu, c in packed.items()}


@cache
def _primitive_expansion(word: Word) -> tuple[tuple[Partition, QPoly], ...]:
    """expand_word's value on a primitive factor of a composite word, as
    (partition, coefficient) pairs.  Memoized per word: a repeat call returns
    the same tuple, whose entries are immutable."""
    return tuple(lincomb_to_e(normalize(word)).items())


def expand_word(word: Word) -> dict[Partition, QPoly]:
    """e-expansion of d_P(1) for a path word: normalize then collect.

    A valid composite word is normalized one primitive factor (the piece
    between two returns to the diagonal) at a time, and the factors'
    expansions multiply.  That is exact: no rule crosses a return to the
    diagonal, since the bubble refuses to pass a '+' and every earlier factor
    ends in one.  Only those factors are memoized.  A primitive word is
    rewritten whole and not kept, so a sweep holds no value that only its own
    word uses; an invalid word goes to normalize, which refuses it.
    """
    factors = primitive_factors(word)
    if factors is None or len(factors) < 2:
        return lincomb_to_e(normalize(word))
    return multiply_expansions(map(_primitive_expansion, factors))


def e_positivity_report(expansion: dict[Partition, QPoly]) -> dict:
    """Shift q -> q+1 and certify positivity of an e-expansion.

    Returns the expansion at q, at q+1, the (q-1)-rebased coefficient
    vectors, and the verdict (all shifted coefficients nonnegative).  The
    (q-1)-digits of c(q) are the coefficients of c(q+1), so one Taylor shift
    per partition gives both.  On a rewritten expansion, which lies in Z[q],
    every entry is an int.
    """
    shifted = {mu: c.shift_plus_one() for mu, c in expansion.items()}
    return {
        "e": dict(expansion),
        "e_at_q_plus_1": shifted,
        "qminus1": {mu: c.coeffs for mu, c in shifted.items()},
        "e_positive": all(c.is_nonneg() for c in shifted.values()),
    }
