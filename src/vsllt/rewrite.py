"""Symbolic normalization of path-operator words.

A word over {-, 0, +} is rewritten into a linear combination of terminal
words, i.e. concatenations of blocks (- 0^m +).  Each block acts as
multiplication by e_{m+1}, so a normalized combination is exactly an
expansion in the elementary basis.  The rewrite rules are the local
operator identities of the Dyck path algebra, applied at the leftmost '+'
of degree >= 1.

Every '+' left of that one has degree 0, so the word left of it is a run of
blocks followed by an open tail in -{-,0}*, and every rule touches only that
tail and the '+' (the bubble never passes a '+').  So ``normalize`` reads the
word left to right, on a state {(mu, tail): coefficient}, mu being the
partition of the closed blocks: a '-' or '0' appends to every tail, and a '+'
replaces each entry by ``_close(tail)``, the normal forms of tail+, each of
which closes at most one block.  ``_close`` is memoized and built from
shorter tails by one rule step each.  The result is {mu: coefficient}.

Every rule scalar is 1, q-1 or q, so every coefficient the engine holds lies
in N[t] with t = q-1.  ``normalize`` packs each one into a single int, its
value at t = 2**B for B = ``digit_bits(n)`` (the width lemma below), and
``lincomb_to_e`` unpacks each partition's coefficient once, by qpoly's
Kronecker codec.  A return to the diagonal is a state whose tails are all
empty, so a composite word multiplies its factors' values as it is read.
"""

from __future__ import annotations

from functools import cache
from sys import intern

from .paths import MINUS, PLUS, ZERO, Word, semilength, validate_word
from .qpoly import ONE, Q, Q_MINUS_1, QPoly, _at_q, _canonical, digits_bound, unpack_balanced
from .symfunc import Partition

# A linear combination of words: {word: QPoly}, no zero coefficients.
LinComb = dict[Word, QPoly]


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
    coefficient (q-1).  deg is the '+''s degree: the number of '-' minus the
    number of '+' weakly left of it.
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
    2**a(w) <= 2**C(n, 2) < 2**B.

    The same bound covers ``normalize``'s products.  A state coefficient c
    of (mu, tail) sums the coefficients of words reached from w, and a form r
    of ``_close(tail)`` is the coefficient of an output of tail+ reached by
    rule steps, which see neither the closed blocks (height 0, a = 0) nor the
    rest of w (the same height after the '+' in every output).  So c * r is
    a coefficient reached from w, at least in part, and each t-digit of the
    product of the two N[t] polynomials is at most c(1) * r(1) <= 2**a(w).
    No digit carries into the next one, so the product of the packed ints
    is the packed product.  The tests check each part.
    """
    return n * (n - 1) // 2 + 1


def split_digits(value: int, n: int) -> list[int]:
    """The coefficients in t = q-1, constant first, of the coefficient that
    ``normalize`` packed into value at semilength n: its base
    2**digit_bits(n) digits."""
    if value < 0:
        raise ValueError(f"a packed coefficient is nonnegative, got {value}")
    bits = digit_bits(n)
    mask = (1 << bits) - 1
    digits = []
    while value:
        digits.append(value & mask)
        value >>= bits
    return digits


def unpack(value: int, n: int) -> QPoly:
    """The coefficient in q that ``normalize`` packed into value at
    semilength n, by Kronecker substitution: its digits, read at q = 2**bits
    for a width read off them, give the q-coefficients as balanced digits.
    The result keeps the digits as its value at q+1."""
    digits = split_digits(value, n)
    bits = digits_bound(digits).bit_length() + 1
    p = unpack_balanced(_at_q(digits, bits), bits)
    p._plus_one = _canonical(digits)
    return p


def _times(scalar: QPoly, c: int, bits: int) -> int:
    """A rule scalar 1, t or t+1 (t = q-1) times a coefficient packed at
    t = 2**bits."""
    if scalar is ONE:
        return c
    if scalar is Q_MINUS_1:
        return c << bits
    if scalar is Q:
        return (c << bits) + c
    raise RuntimeError(f"rule scalar {scalar} is not 1, q-1 or q")


@cache
def _close(tail: str, bits: int) -> tuple:
    """The normal forms of tail+, for an open tail in -{-,0}*, as one flat
    tuple (part, new tail, packed coefficient, part, ...): part is the size of
    the block the '+' closed, or 0, and each pair (part, new tail) appears once.

    With one '-' the tail is - 0^m and tail+ is the block e_{m+1}.  Otherwise
    the '+' has degree >= 1 and one rule step rewrites the last letter of
    tail = sigma x together with the '+':
      x = '-': ``rewrite_case0`` gives the swap sigma + -, whose forms are
        those of sigma+ with '-' appended to each new tail, and the collapse
        sigma 0, an open tail with nothing closed, times t;
      x = '0': ``rewrite_push_T`` gives one or two words sigma' + 0, sigma'
        being sigma or sigma with two letters exchanged; each contributes its
        scalar times the forms of sigma'+, with '0' appended to each new tail.
    Every step asks only for shorter tails, so the recursion ends; the tails
    are interned, so all entries of the memo share them.
    """
    minus = tail.count(MINUS)
    if minus == 1:
        return (len(tail), "", 1)
    rule = rewrite_case0 if tail[-1] == MINUS else rewrite_push_T
    forms: dict[tuple[int, str], int] = {}
    for out, scalar in rule((*tail, PLUS), len(tail), minus - 1).items():
        if out[-2] != PLUS:  # the collapse: the '+' is gone
            key = (0, intern("".join(out)))
            forms[key] = forms.get(key, 0) + _times(scalar, 1, bits)
            continue
        x = out[-1]
        inner = iter(_close(intern("".join(out[:-2])), bits))
        for part, rest, r in zip(inner, inner, inner):
            key = (part, intern(rest + x))
            forms[key] = forms.get(key, 0) + _times(scalar, r, bits)
    return tuple(v for (part, rest), c in forms.items() for v in (part, rest, c))


def normalize(word: Word) -> dict[Partition, int]:
    """Rewrite a path word into its e-expansion, {mu: packed coefficient}.

    The word is read left to right on a state {(mu, tail): coefficient}: a
    run of '-' and '0' appends to every open tail, and a '+' maps each entry
    through ``_close``, merging the block it closes into mu and multiplying
    the coefficients.  A return to the diagonal, the end of a valid word
    among them, leaves every tail empty: no rule crosses it, and a composite
    word's value is the product of its primitive factors' values.

    Each coefficient lies in N[t], t = q-1, packed as its value at t = 2**B,
    B = ``digit_bits`` of the semilength, so a product of two is one int
    product (the width lemma), and a sum of positive ints is never zero.
    ``unpack`` gives a coefficient back in q.
    """
    validate_word(word)
    bits = digit_bits(semilength(word))
    state: dict[tuple[Partition, str], int] = {((), ""): 1}
    run = ""
    for letter in word:
        if letter != PLUS:
            run += letter
            continue
        nxt: dict[tuple[Partition, str], int] = {}
        for (mu, tail), c in state.items():
            forms = iter(_close(tail + run, bits))
            for part, rest, r in zip(forms, forms, forms):
                key = (_with_part(mu, part) if part else mu, rest)
                nxt[key] = nxt.get(key, 0) + c * r
        state, run = nxt, ""
    return {mu: c for (mu, _), c in state.items()}


@cache
def _with_part(mu: Partition, part: int) -> Partition:
    """mu with one more part; memoized, since few (mu, part) pairs recur."""
    return tuple(sorted((*mu, part), reverse=True))


def lincomb_to_e(packed: dict[Partition, int]) -> dict[Partition, QPoly]:
    """``normalize``'s packed e-expansion with each coefficient unpacked in q,
    at the semilength |mu|."""
    return {mu: unpack(c, sum(mu)) for mu, c in packed.items()}


def expand_word(word: Word) -> dict[Partition, QPoly]:
    """e-expansion of d_P(1) for a path word: ``normalize`` with each
    partition's coefficient unpacked in q once."""
    return lincomb_to_e(normalize(word))


def e_positivity_report(expansion: dict[Partition, QPoly]) -> dict:
    """Shift q -> q+1 and certify positivity of an e-expansion.

    Returns the expansion at q, at q+1, the (q-1)-rebased coefficient
    vectors, and the verdict (all shifted coefficients nonnegative).  The
    (q-1)-digits of c(q) are the coefficients of c(q+1), so one Taylor shift
    per partition gives both, and none on a coefficient that ``unpack``
    built, which remembers its c(q+1).  On a rewritten expansion, which lies
    in Z[q], every entry is an int.
    """
    shifted = {mu: c.shift_plus_one() for mu, c in expansion.items()}
    return {
        "e": dict(expansion),
        "e_at_q_plus_1": shifted,
        "qminus1": {mu: c.coeffs for mu, c in shifted.items()},
        "e_positive": all(c.is_nonneg() for c in shifted.values()),
    }
