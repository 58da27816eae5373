"""The earlier rewrite engine, kept only for the tests.

It picks the lexicographically smallest active word at every step and
bubbles the swap operator as a transient letter "T<i>" inside the word, so
a word can be rewritten again each time a new contribution to its
coefficient arrives.  Its rules build every output in a dict and let the
coefficient arithmetic cancel.  The library's ordered engine must agree with
it exactly.  ``letter_degree`` is the definition of a letter's degree, which
the library's scan returns and its rules take.
"""

from __future__ import annotations

from vsllt.paths import MINUS, PLUS, ZERO, Word, validate_word
from vsllt.qpoly import ONE, Q, Q_MINUS_1, accumulate
from vsllt.rewrite import LinComb, leftmost_high_dplus


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
    accumulate(out, word[: pos - 1] + (PLUS, MINUS) + word[pos + 1 :], ONE)
    accumulate(out, word[: pos - 1] + (ZERO,) + word[pos + 1 :], Q_MINUS_1)
    return out


def _bubble_t(word: Word, t: int, idx: int) -> LinComb:
    """Move the single swap letter at position t leftward until it resolves.

    The letter T<idx> acts on V_k where k is the '-'/'+' balance strictly
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
                f"swap letter T{idx} stuck at position {t} in {''.join(word)}"
            )
        left = word[t - 1]
        if idx <= k - 2:
            if left == ZERO:
                word = word[: t - 1] + (f"T{idx + 1}", ZERO) + word[t + 1 :]
                idx += 1
            else:
                word = word[: t - 1] + (f"T{idx}", MINUS) + word[t + 1 :]
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
            word = word[: t - 2] + ("T1", ZERO, ZERO) + word[t + 1 :]
            t -= 2
            idx = 1
            continue
        if left == ZERO and left2 == MINUS:
            return {word[: t - 2] + (ZERO, MINUS) + word[t + 1 :]: coeff * Q}
        if left == MINUS and left2 == MINUS:
            return {word[: t - 2] + (MINUS, MINUS) + word[t + 1 :]: coeff}
        # left == MINUS, left2 == ZERO
        out: LinComb = {}
        accumulate(out, word[: t - 2] + (MINUS, ZERO) + word[t + 1 :], coeff)
        accumulate(out, word[: t - 2] + (ZERO, MINUS) + word[t + 1 :], -(coeff * Q_MINUS_1))
        return out


def rewrite_push_T(word: Word, pos: int) -> LinComb:
    """Rewrite an adjacent (0, +) pair with the '+' at degree >= 1.

    The pair splits into (q-1) * (+, 0) plus a term (T1, +, 0) whose swap
    letter is bubbled leftward to completion; cancellations happen through
    the coefficient arithmetic.
    """
    if word[pos] != PLUS or word[pos - 1] != ZERO:
        raise ValueError(f"no (0,+) pair ending at position {pos}")
    if letter_degree(word, pos) < 1:
        raise ValueError(f"'+' at position {pos} has degree 0")
    out: LinComb = {}
    accumulate(out, word[: pos - 1] + (PLUS, ZERO) + word[pos + 1 :], Q_MINUS_1)
    t_word = word[: pos - 1] + ("T1", PLUS, ZERO) + word[pos + 1 :]
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
    validate_word(word)
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
