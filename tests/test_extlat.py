"""Tests for the extended-value lattice."""

import random
import re
import sys
from fractions import Fraction

import pytest

from energyomega.errors import ParseError
from energyomega.extlat import (
    BOTTOM,
    MAX_LITERAL_CHARS,
    MAX_LITERAL_EXPONENT,
    TOP,
    ExtValue,
    Ratio,
    as_fraction,
    finite,
    format_ext,
    parse_ext,
)


def ext_shift(x: ExtValue, d) -> ExtValue:
    """Shift a value by a signed rational; saturates at bottom and top.

    A finite value pushed below 0 collapses to bottom.
    """
    if x.is_bottom or x.is_top:
        return x
    shifted = x.value + as_fraction(d)
    return BOTTOM if shifted < 0 else finite(shifted)


def ext_cmp(x: ExtValue, y: ExtValue) -> int:
    """-1, 0 or 1 per the total order."""
    if x < y:
        return -1
    if y < x:
        return 1
    return 0


def test_shift_bottom_absorbs():
    assert ext_shift(BOTTOM, Fraction(-3)) == BOTTOM


def test_shift_top_absorbs():
    assert ext_shift(TOP, Fraction(5)) == TOP


def test_shift_below_zero_is_bottom():
    assert ext_shift(finite(Fraction(3, 2)), Fraction(-2)) == BOTTOM


def test_shift_plain():
    assert ext_shift(finite(1), Fraction(1, 2)) == finite(Fraction(3, 2))


def test_join_examples():
    assert max(BOTTOM, finite(0)) == finite(0)
    assert max(finite(Fraction(1, 3)), finite(Fraction(1, 2))) == finite(
        Fraction(1, 2)
    )
    assert max(TOP, finite(7)) == TOP


def test_cmp_examples():
    assert ext_cmp(BOTTOM, BOTTOM) == 0
    assert ext_cmp(finite(2), TOP) < 0
    assert ext_cmp(finite(Fraction(4, 2)), finite(2)) == 0


@pytest.mark.parametrize("x", [BOTTOM, TOP], ids=format_ext)
def test_no_finite_value_off_the_finite_rank(x):
    with pytest.raises(ValueError):
        x.value


def test_finite_value_is_not_a_number():
    assert finite(1) != 1


def test_equal_values_hash_alike():
    assert {finite(2): 0}[finite(Fraction(4, 2))] == 0


def test_total_order_chain():
    assert BOTTOM < finite(0) < finite(Fraction(1, 2)) < finite(3) < TOP


def test_negative_finite_rejected():
    with pytest.raises(ValueError):
        finite(Fraction(-1, 2))


def test_oversized_literals_rejected():
    # each would be a big but quick integer; the caps reject them before
    # Fraction builds it
    for text in ("1e100000", "1E-300", "7/" + "9" * 300):
        with pytest.raises(ParseError):
            as_fraction(text)
    assert as_fraction("1e256") == Fraction(10) ** 256
    assert as_fraction("25e-2") == Fraction(1, 4)


def test_literals_parse_as_fraction_does():
    # "p/q" has a fast path; every literal, on it or not, gives Fraction's
    # value, an int when integral, and every rejected one the same message
    corpus = [
        "3/2", "6/2", "0/5", "0/1", "007/3", "12/0004", "1/1", "5/50", "99/100",
        "9" * 120 + "/" + "7" * 120, "9" * 127 + "/" + "7" * 128,
        "1/0", "0/0", "1/00", "-3/2", "+3/2", "3/-2", " 3/2", "3/2 ", "3 / 2", "3/2\n",
        "1_000/3", "1/2_0", "1/2/3", "/2", "2/", "/", "", "1.5/2", "1/2.5", "1e2/3",
        "\u0663/\u0662", "3/\u0662", "\u00b2/3", "\uff13/2", "0x10/3", "1/2e",
        "1.5", "-0.25", "1e3", "25e-2", ".5", "1.", "inf", "nan", "-1", "+7", "3",
    ]
    for text in corpus:
        try:
            want = Fraction(text)
        except (ValueError, ZeroDivisionError):
            with pytest.raises(ParseError) as caught:
                as_fraction(text)
            assert str(caught.value) == f"bad rational literal {text!r}", text
            continue
        got = as_fraction(text)
        assert got == want and str(got) == str(want), text
        assert (type(got) is int) == (want.denominator == 1), text
    assert type(as_fraction("3/2")) is Ratio
    for text in ("7/" + "9" * 300, "1e" + str(MAX_LITERAL_EXPONENT + 1)):
        with pytest.raises(ParseError) as caught:
            as_fraction(text)
        assert str(caught.value) == (
            f"rational literal {text[:32]!r} is over {MAX_LITERAL_CHARS} characters "
            f"or its exponent over {MAX_LITERAL_EXPONENT}")


def test_integer_and_ratio_literals_skip_the_exponent_search():
    # an automaton's JSON is mostly integers and plain "p/q": they parse
    # without running a regular expression; other text is searched for an exponent
    patterns = []

    def profile(frame, event, arg):
        if event == "c_call" and isinstance(getattr(arg, "__self__", None), re.Pattern):
            patterns.append(arg.__self__.pattern)

    def searched(text):
        patterns.clear()
        sys.setprofile(profile)
        try:
            as_fraction(text)
        finally:
            sys.setprofile(None)
        return patterns

    for text in ("0", "4", "-7", "+12", " 3", "9" * 200, "3/2", "6/2", "0/5", "007/3", "9" * 120 + "/7"):
        assert searched(text) == [], text
    for text in ("1e3", "25e-2", "1.5"):
        assert any(p.startswith("[eE]") for p in searched(text)), text


def test_booleans_rejected():
    for flag in (True, False):
        with pytest.raises(ParseError):
            as_fraction(flag)


def _random_values(rng, k):
    out = [BOTTOM, TOP]
    while len(out) < k:
        out.append(finite(Fraction(rng.randint(0, 40), rng.randint(1, 8))))
    return out


def test_join_is_semilattice():
    rng = random.Random(1)
    vals = _random_values(rng, 12)
    for x in vals:
        assert max(x, x) == x
        for y in vals:
            assert max(x, y) == max(y, x)
            for z in vals:
                assert max(max(x, y), z) == max(x, max(y, z))


def test_shift_composes_without_saturation():
    rng = random.Random(2)
    for _ in range(200):
        x = finite(Fraction(rng.randint(0, 30), rng.randint(1, 6)))
        a = Fraction(rng.randint(-10, 10), rng.randint(1, 4))
        b = Fraction(rng.randint(-10, 10), rng.randint(1, 4))
        step = ext_shift(x, a)
        if step.is_bottom:
            continue
        both = ext_shift(step, b)
        direct = ext_shift(x, a + b)
        if not both.is_bottom:
            assert both == direct


def test_saturation_absorbs():
    assert ext_shift(ext_shift(finite(1), Fraction(-2)), Fraction(100)) == BOTTOM


def test_order_transitive_antisymmetric():
    rng = random.Random(3)
    vals = _random_values(rng, 10)
    for x in vals:
        for y in vals:
            if x <= y and y <= x:
                assert x == y
            for z in vals:
                if x <= y and y <= z:
                    assert x <= z


@pytest.mark.parametrize("text", ["bot", "top", "3/2", "7", "0"])
def test_string_round_trip(text):
    assert format_ext(parse_ext(text)) == text


def test_parse_rejects_garbage():
    from energyomega.errors import ParseError

    with pytest.raises(ParseError):
        parse_ext("minus one")
    with pytest.raises(ValueError):
        parse_ext("-3")


def test_repr_is_stable():
    assert isinstance(finite(2), ExtValue)
    assert repr(finite(Fraction(3, 2))) == "ExtValue('3/2')"
