"""Signed binary sums: integers written as sums of +1/-1 times powers of two.

A sum is a sequence of digits (key, coeff) with coeff in {-1, +1} and keys
strictly decreasing, most significant first.  A key names a power of two.
For plain integers the key is the exponent itself; the circuit reducer
substitutes its own key type (graph vertices ordered by a certificate) and
answers order and doubling queries through a KeyDomain.  The comparison and
the rewrites are written against that interface so both instantiations share
one code path; reduce_sum and the value helpers take integer keys only.

Shapes of interest:

* reduced      -- keys strictly decreasing (always true of a SignedSum)
* superfluous  -- adjacent digits -+2^(m+1) +-2^m with opposite signs; such a
                  pair equals -+2^m and can be removed locally
* compact      -- no two keys within a factor of two of each other; this form
                  is unique per integer and has minimum digit count

The five-way comparison classifies a difference N(a) - N(b) into
{-2, -1, 0, +1, +2} (+-2 meaning "at least 2 in that direction") by looking
only at digits, never at the integer values.  That is what lets the circuit
reducer compare doubly exponential quantities in polynomial time.
"""

from __future__ import annotations

from typing import Iterable


class KeyDomain:
    """Answers order/doubling queries about digit keys.

    weight(k) below refers to the power of two a key stands for; domains do
    not expose weights, only these predicates.
    """

    def compare_keys(self, a, b) -> int:
        """-1, 0, +1 as weight(a) is below, at, or above weight(b)."""
        raise NotImplementedError

    def is_double(self, a, b) -> bool:
        """True iff weight(a) == 2 * weight(b)."""
        raise NotImplementedError

    def is_unit(self, a) -> bool:
        """True iff weight(a) == 1."""
        raise NotImplementedError

    def successor(self, a):
        """The key with weight 2 * weight(a)."""
        raise NotImplementedError


class IntegerKeys(KeyDomain):
    """Keys are the exponents themselves."""

    def compare_keys(self, a: int, b: int) -> int:
        return (a > b) - (a < b)

    def is_double(self, a: int, b: int) -> bool:
        return a == b + 1

    def is_unit(self, a: int) -> bool:
        return a == 0

    def successor(self, a: int) -> int:
        return a + 1


INT_KEYS = IntegerKeys()

Digit = tuple  # (key, coeff)


class SignedSum:
    """Immutable digit sequence, keys strictly decreasing."""

    __slots__ = ("digits",)

    def __init__(self, digits: Iterable[Digit] = ()):
        object.__setattr__(self, "digits", tuple(digits))

    def __setattr__(self, *_):
        raise AttributeError("SignedSum is immutable")

    def __len__(self) -> int:
        return len(self.digits)

    def __eq__(self, other) -> bool:
        return isinstance(other, SignedSum) and self.digits == other.digits

    def __hash__(self) -> int:
        return hash(self.digits)

    def __bool__(self) -> bool:
        return bool(self.digits)

    def __iter__(self):
        return iter(self.digits)

    def negate(self) -> "SignedSum":
        return SignedSum((k, -c) for k, c in self.digits)

    def exponents(self):
        return tuple(k for k, _ in self.digits)

    def value(self) -> int:
        """Integer value; integer-key sums only."""
        return sum(c << k for k, c in self.digits)

    def __repr__(self) -> str:
        if not self.digits:
            return "0"
        return " ".join(f"{'+' if c > 0 else '-'}2^{k}" for k, c in self.digits)


def sum_value(s: SignedSum) -> int:
    return s.value()


def reduce_sum(pairs: Iterable[Digit]) -> SignedSum:
    """Sort integer-key digits and merge equal keys so keys end up strictly
    decreasing.

    Equal keys with cancelling coefficients vanish; equal signs carry into the
    next key.
    """
    counts: dict = {}
    for k, c in pairs:
        counts[k] = counts.get(k, 0) + c
    # ascending sweep; a carry lands on the next key, which is never below
    # the next unprocessed key, so the stack stays sorted
    stack = sorted(counts, reverse=True)
    out = []
    while stack:
        k = stack.pop()
        t = counts.pop(k)
        if t == 0:
            continue
        r = t % 2
        if r == 1 and t < 0:
            r = -1
        if r:
            out.append((k, r))
        a = (t - r) // 2
        if a:
            if k + 1 in counts:
                counts[k + 1] += a
            else:
                counts[k + 1] = a
                stack.append(k + 1)
    out.reverse()
    return SignedSum(out)


def remove_superfluous(s: SignedSum, domain: KeyDomain = INT_KEYS) -> SignedSum:
    """Erase every pair -+2^(m+1) +-2^m, folding it into -+2^m.

    The replacement digit keeps the key of the smaller member and the sign of
    the larger.  A rewrite can only cascade toward smaller keys, so one
    left-to-right scan suffices.
    """
    digits = list(s.digits)
    i = 0
    while i + 1 < len(digits):
        k0, c0 = digits[i]
        k1, c1 = digits[i + 1]
        if c0 == -c1 and domain.is_double(k0, k1):
            digits[i : i + 2] = [(k1, c0)]
            # the new digit cannot pair with its left neighbour: that would
            # need adjacent keys in the original, which strict descent forbids
        else:
            i += 1
    return SignedSum(digits)


def sum_sign(s: SignedSum) -> int:
    """Sign of the value: the leading coefficient, or 0 when empty."""
    return s.digits[0][1] if s.digits else 0


def divisible_by_pow2(s: SignedSum, n: int) -> bool:
    """Whether 2^n divides the value; integer keys only."""
    if not s.digits:
        return True
    return s.digits[-1][0] >= n


def compare(a: SignedSum, b: SignedSum, domain: KeyDomain = INT_KEYS) -> int:
    """Classify N(a) - N(b) into {-2, -1, 0, +1, +2} digit-wise.

    +-1 are exact; +-2 means the difference is at least 2 in that direction.
    Inputs must be free of superfluous pairs.
    """
    return compare_counted(a, b, domain)[0]


def compare_counted(a, b, domain: KeyDomain = INT_KEYS):
    """compare() plus the number of loop iterations it took.

    Reads a.digits and b.digits in place and never mutates them: only the
    halving step builds a list of its own, and that fresh list is the only
    one it ever writes to.
    """
    A = a.digits
    B = b.digits
    flip = 1  # sign relating the transformed difference to the original
    neg = 1  # lazy global negation applied to every stored coefficient
    ia = ib = 0
    iters = 0
    while True:
        iters += 1
        la = len(A) - ia
        lb = len(B) - ib
        if not la and not lb:
            return 0, iters
        if not lb:
            lead = A[ia][1] * neg
            if la == 1 and domain.is_unit(A[ia][0]):
                return lead * flip, iters
            return 2 * lead * flip, iters
        if not la:
            lead = B[ib][1] * neg
            if lb == 1 and domain.is_unit(B[ib][0]):
                return -lead * flip, iters
            return -2 * lead * flip, iters
        ka, ca = A[ia]
        kb, cb = B[ib]
        ca *= neg
        cb *= neg
        top = domain.compare_keys(ka, kb)
        if top == 0:
            if ca == cb:
                ia += 1
                ib += 1
                continue
            return 2 * ca * flip, iters
        if top < 0:
            A, B = B, A
            ia, ib = ib, ia
            flip = -flip
            ka, ca = A[ia]
            ca *= neg
        # A owns the strictly larger top key now
        if ca < 0:
            neg = -neg
            flip = -flip
            ca = 1
        # alpha1 = +1, beta1 = 0; inspect the half-key column
        alpha2 = 0
        if ia + 1 < len(A) and domain.is_double(ka, A[ia + 1][0]):
            alpha2 = A[ia + 1][1] * neg
        if alpha2 == 1:
            return 2 * flip, iters
        if alpha2 == -1:
            raise ValueError("superfluous pair in comparison input")
        beta2 = 0
        kb, cb = B[ib]
        if domain.is_double(ka, kb):
            beta2 = cb * neg
        if beta2 != 1:
            return 2 * flip, iters
        # halve A's top: +2^n with no 2^(n-1) digit becomes +2^(n-1),
        # matching and consuming B's +2^(n-1) head
        A = [(kb, neg), *A[ia + 1 :]]
        ia = 0
        ib += 1
        while (
            len(A) >= 2
            and A[0][1] == -A[1][1]
            and domain.is_double(A[0][0], A[1][0])
        ):
            A[0:2] = [(A[1][0], A[0][1])]


def make_compact(s: SignedSum, domain: KeyDomain = INT_KEYS) -> SignedSum:
    """Rewrite to the unique compact form (all key gaps at least a factor 4).

    Applies, lowest keys first with one step of backtracking:

        +-2^m +-2^m          ->  +-2^(m+1)
        +-2^m -+2^m          ->  (nothing)
        +-(2^(m+1) + 2^m)    ->  +-(2^(m+2) - 2^m)
        +-(2^(m+1) - 2^m)    ->  +-2^m

    Carries may call domain.successor; abstract-key callers must make sure
    every needed successor exists.
    """
    work = list(reversed(s.digits))  # ascending
    i = 0
    while i + 1 < len(work):
        k0, c0 = work[i]
        k1, c1 = work[i + 1]
        rel = domain.compare_keys(k0, k1)
        if rel == 0:
            if c0 == c1:
                work[i : i + 2] = [(domain.successor(k0), c0)]
            else:
                del work[i : i + 2]
            i = max(i - 1, 0)
        elif domain.is_double(k1, k0):
            if c0 == c1:
                work[i : i + 2] = [(k0, -c0), (domain.successor(k1), c0)]
            else:
                work[i : i + 2] = [(k0, c1)]
            i = max(i - 1, 0)
        else:
            i += 1
    return SignedSum(reversed(work))


def compact_of_integer(n: int) -> SignedSum:
    """Compact signed-binary digits of n (integer keys): the non-adjacent
    form, with a digit at k where bit k + 1 of 3n ^ n is set, + where 3n's is."""
    nz = (3 * n ^ n) >> 1
    bits = format(nz, "b")
    plus = format((3 * n >> 1) & nz, "b").zfill(len(bits))
    top = len(bits) - 1
    return SignedSum(
        (top - i, 1 if p == "1" else -1)
        for i, (b, p) in enumerate(zip(bits, plus))
        if b == "1"
    )
