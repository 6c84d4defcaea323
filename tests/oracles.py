"""Independent oracles that only the tests call: second opinions on the
package's closed forms and ball distances, and normal-form word
arithmetic, which the package's integer-array balls do without."""

from girthlab.branching import FIXED_POINT_TOL
from girthlab.groups import GroupSpec, Word

IDENTITY: Word = ()


def branch_survival_bisection(d: int, p: float, tol: float = FIXED_POINT_TOL) -> float:
    """The fixed point of `branch_survival` located by bisection on
    f(t) = 1-(1-pt)^(d-1) - t."""

    def f(t: float) -> float:
        return 1.0 - (1.0 - p * t) ** (d - 1) - t

    # f(0) = 0 always; the survival root is the positive zero when it exists.
    # f is concave on [0,1], so f > 0 just right of 0 iff supercritical.
    lo, hi = tol, 1.0
    if f(lo) <= 0.0:
        return 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _reduce_exponent(spec: GroupSpec, factor: int, exp: int) -> int:
    m = spec.orders[factor]
    if m is not None:
        exp %= m
    return exp


def append_syllable(spec: GroupSpec, word: Word, factor: int, exp: int) -> Word:
    """Multiply word by a single syllable, keeping normal form."""
    if not 0 <= factor < len(spec.orders):
        raise IndexError(f"factor index {factor} out of range")
    exp = _reduce_exponent(spec, factor, exp)
    if exp == 0:
        return word
    if word and word[-1][0] == factor:
        merged = _reduce_exponent(spec, factor, word[-1][1] + exp)
        if merged == 0:
            return word[:-1]
        return word[:-1] + ((factor, merged),)
    return word + ((factor, exp),)


def normal_form(spec: GroupSpec, syllables) -> Word:
    """Reduce an arbitrary syllable sequence to the unique normal form."""
    w: Word = IDENTITY
    for factor, exp in syllables:
        w = append_syllable(spec, w, factor, exp)
    return w


def inverse(spec: GroupSpec, w: Word) -> Word:
    return normal_form(spec, ((f, -e) for f, e in reversed(w)))


def multiply(spec: GroupSpec, a: Word, b: Word) -> Word:
    w = a
    for syl in b:
        w = append_syllable(spec, w, *syl)
    return w


def word_length(spec: GroupSpec, w: Word) -> int:
    """Graph distance from the identity to w in the Cayley graph.

    Each syllable contributes its distance inside the factor's cycle/line.
    """
    total = 0
    for factor, exp in w:
        m = spec.orders[factor]
        total += abs(exp) if m is None else min(exp, m - exp)
    return total
