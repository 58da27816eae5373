"""Symbolic normalization of path-operator words.

A word over {-, 0, +} is rewritten into a linear combination of terminal
words, i.e. concatenations of blocks (- 0^m +).  Each block acts as
multiplication by e_{m+1}, so a normalized combination is exactly an
expansion in the elementary basis.  The rewrite rules are the local
operator identities of the Dyck path algebra.  Each one lowers the sum of
the positions of the '+' letters, so ``normalize`` rewrites every word once,
from the highest such sum down.
"""

from __future__ import annotations

from .paths import MINUS, PLUS, ZERO, Word, validate_word
from .qpoly import ONE, Q, Q_MINUS_1, QPoly, accumulate
from .symfunc import Partition

# A linear combination of words: {word: QPoly}, no zero coefficients.
LinComb = dict[Word, QPoly]


def letter_degree(word: Word, pos: int) -> int:
    """Number of '-' minus number of '+' weakly to the left of pos.

    For a '+' letter this is the k of its domain V_k.
    """
    if not 0 <= pos < len(word):
        raise IndexError(f"position {pos} out of range")
    deg = 0
    for tok in word[: pos + 1]:
        if tok == MINUS:
            deg += 1
        elif tok == PLUS:
            deg -= 1
    return deg


def leftmost_high_dplus(word: Word) -> int | None:
    """Position of the leftmost '+' with degree >= 1, or None if terminal."""
    deg = 0
    for pos, tok in enumerate(word):
        if tok == MINUS:
            deg += 1
        elif tok == PLUS:
            deg -= 1
            if deg >= 1:
                return pos
    return None


def rewrite_case0(word: Word, pos: int) -> LinComb:
    """Rewrite an adjacent (-, +) pair with the '+' at degree >= 1.

    From the commutator definition of the diagonal operator:
    the pair either swaps to (+, -), or collapses to a single '0' with
    coefficient (q-1).
    """
    if word[pos] != PLUS or word[pos - 1] != MINUS:
        raise ValueError(f"no (-,+) pair ending at position {pos}")
    if letter_degree(word, pos) < 1:
        raise ValueError(f"'+' at position {pos} has degree 0")
    out: LinComb = {}
    accumulate(out, word[: pos - 1] + (PLUS, MINUS) + word[pos + 1 :], ONE)
    accumulate(out, word[: pos - 1] + (ZERO,) + word[pos + 1 :], Q_MINUS_1)
    return out


def _bubble_t(word: Word, t: int, k: int) -> LinComb:
    """Bubble the swap T_1 standing just before position t leftward until it resolves.

    The swap acts on V_k, k being the '-'/'+' balance of word[:t]; it is
    tracked by its position, index and k, and the word is spliced only when
    it resolves.  One local identity applies per step:
      idx <= k-2, left is '0':  pass a diagonal letter, index goes up;
      idx <= k-2, left is '-':  pass a lowering letter, k goes down;
      idx == k-1, '0','0' on the left: jump both, index resets to 1;
      idx == k-1, '-','0' on the left: resolve, factor q, letters swap;
      idx == k-1, '-','-' on the left: resolve, the swap drops;
      idx == k-1, '0','-' on the left: resolve into two words,
                  one with the pair swapped (+1) and one as-is (-(q-1)).
    Valid inputs always resolve; running off the front is an internal error.
    """
    idx = 1
    while True:
        if t == 0 or word[t - 1] == PLUS:
            raise RuntimeError(f"swap T{idx} stuck at position {t} in {''.join(word)}")
        left = word[t - 1]
        if idx <= k - 2:
            if left == ZERO:
                idx += 1
            else:
                k -= 1
            t -= 1
            continue
        if idx != k - 1:
            raise RuntimeError(f"swap index {idx} out of range for degree {k}")
        if t < 2 or word[t - 2] == PLUS:
            raise RuntimeError(
                f"no terminal rule for T{idx} at position {t} in {''.join(word)}"
            )
        left2 = word[t - 2]
        if left == ZERO and left2 == ZERO:
            t -= 2
            idx = 1
            continue
        if left2 == MINUS:
            if left == ZERO:
                return {word[: t - 2] + (ZERO, MINUS) + word[t:]: Q}
            return {word: ONE}
        # left == MINUS, left2 == ZERO
        return {word[: t - 2] + (MINUS, ZERO) + word[t:]: ONE, word: -Q_MINUS_1}


def rewrite_push_T(word: Word, pos: int) -> LinComb:
    """Rewrite an adjacent (0, +) pair with the '+' at degree >= 1.

    The pair splits into (q-1) * (+, 0) plus T_1 (+, 0), whose swap is
    bubbled leftward to completion; cancellations happen through the
    coefficient arithmetic.
    """
    if word[pos] != PLUS or word[pos - 1] != ZERO:
        raise ValueError(f"no (0,+) pair ending at position {pos}")
    deg = letter_degree(word, pos)
    if deg < 1:
        raise ValueError(f"'+' at position {pos} has degree 0")
    swapped = word[: pos - 1] + (PLUS, ZERO) + word[pos + 1 :]
    out: LinComb = {swapped: Q_MINUS_1}
    # the swap sees the balance before the (0, +) pair: deg + 1
    for w, c in _bubble_t(swapped, pos - 1, deg + 1).items():
        accumulate(out, w, c)
    return out


def rewrite_step(word: Word, pos: int) -> LinComb:
    if word[pos - 1] == MINUS:
        return rewrite_case0(word, pos)
    if word[pos - 1] == ZERO:
        return rewrite_push_T(word, pos)
    raise RuntimeError(f"unexpected letter {word[pos - 1]!r} before high '+'")


def _plus_weight(word: Word) -> int:
    """Sum of the positions of the '+' letters; every rewrite rule lowers it."""
    return sum(i for i, tok in enumerate(word) if tok == PLUS)


def normalize(word: Word) -> LinComb:
    """Rewrite a path word into terminal words with every '+' at degree 0.

    A (-, +) or (0, +) swap and every bubble output lower ``_plus_weight``
    by 1, a collapse by at least the position of the removed '+'.  So words
    wait in one bucket per weight, and the buckets are walked from the top
    down: each word is rewritten once, after every contribution to its
    coefficient has been merged.  The result has coefficients in Z[q] that
    rebase into N[q-1].
    """
    validate_word(word)
    buckets: list[LinComb] = [{} for _ in range(_plus_weight(word))] + [{word: ONE}]
    done: LinComb = {}
    while buckets:
        level = len(buckets) - 1
        for w, coeff in buckets.pop().items():
            pos = leftmost_high_dplus(w)
            if pos is None:
                done[w] = coeff
                continue
            for w2, c2 in rewrite_step(w, pos).items():
                weight = _plus_weight(w2)
                if weight >= level:
                    raise RuntimeError(
                        f"rewriting {''.join(w)} did not lower the '+' weight {level}"
                    )
                accumulate(buckets[weight], w2, coeff if c2 is ONE else coeff * c2)
    return done


def lincomb_to_e(lc: LinComb) -> dict[Partition, QPoly]:
    """Collect a terminal linear combination into an e-basis expansion.

    Each terminal word splits uniquely into blocks (- 0^m +), one e_{m+1}
    factor per block; the block sizes sorted decreasingly index e_mu.
    """
    out: dict[Partition, QPoly] = {}
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
        accumulate(out, tuple(sorted(parts, reverse=True)), coeff)
    return out


def expand_word(word: Word) -> dict[Partition, QPoly]:
    """e-expansion of d_P(1) for a path word: normalize then collect."""
    return lincomb_to_e(normalize(word))


def e_positivity_report(expansion: dict[Partition, QPoly]) -> dict:
    """Shift q -> q+1 and certify positivity of an e-expansion.

    Returns the expansion at q, at q+1, the (q-1)-rebased coefficient
    vectors, and the verdict (all shifted coefficients nonnegative).  On a
    rewritten expansion, which lies in Z[q], every entry is an int.
    """
    shifted = {mu: c.shift_plus_one() for mu, c in expansion.items()}
    rebased: dict[Partition, tuple[int, ...]] = {
        mu: c.rebase_qminus1() for mu, c in expansion.items()
    }
    return {
        "e": dict(expansion),
        "e_at_q_plus_1": shifted,
        "qminus1": rebased,
        "e_positive": all(c.is_nonneg() for c in shifted.values()),
    }
