"""Tests for the regular / lasso word models."""

import dataclasses
import random
import time

import pytest

from energyomega import laws, wordmodel as wm
from energyomega.errors import (
    AlphabetMismatch,
    BudgetExceeded,
    EpsilonInOmegaBase,
    ParseError,
)

import langref
import lassoref

AB = ("a", "b")


def rx(text):
    return wm.parse_regex(text, AB)


# ----------------------------------------------------------------------
# constructors and enumeration


def test_star_of_letter():
    assert wm.enumerate_words(wm.lang_star(rx("a")), 3) == ["", "a", "aa", "aaa"]


def test_concat_of_letters():
    assert wm.enumerate_words(wm.lang_concat(rx("a"), rx("b")), 3) == ["ab"]


def test_union_with_empty():
    lang = rx("a.b|b")
    assert wm.lang_equal(wm.lang_union(wm.lang_empty(AB), lang), lang)


def test_epsilon_language():
    eps = wm.lang_epsilon(AB)
    assert wm.accepts(eps, "")
    assert not wm.accepts(eps, "a")
    assert wm.lang_equal(wm.lang_concat(eps, rx("a*")), rx("a*"))


# ----------------------------------------------------------------------
# equality


def test_equal_star_denesting():
    assert wm.lang_equal(rx("(a|b)*"), rx("(a*.b)*.a*"))


def test_equal_sliding():
    assert wm.lang_equal(rx("(a.b)*.a"), rx("a.(b.a)*"))


def test_equal_distinguishes():
    assert not wm.lang_equal(rx("a*"), rx("b*"))


def test_equal_rejects_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        wm.lang_equal(rx("a"), wm.parse_regex("a", ("a", "c")))


def test_is_empty():
    assert wm.lang_is_empty(rx("0"))
    assert wm.lang_is_empty(wm.lang_concat(rx("a"), rx("0")))
    assert not wm.lang_is_empty(rx("1"))


def test_determinization_budget():
    # equal languages whose proof relates 9,905 pairs of state sets
    any12 = "(a|b)" * 12
    lhs = rx(f"(a|b)*a{any12}|(a|b)*b{any12}")
    rhs = rx(f"(a|b)*(a|b){any12}")
    start = time.monotonic()
    with pytest.raises(BudgetExceeded, match="exceeds 1024 pairs"):
        wm.lang_equal(lhs, rhs)
    assert time.monotonic() - start < 1.0


def _lang_pairs(rng, count):
    """Seeded language pairs over ab and abc: random pairs, mostly unequal,
    one side against its union with the other, and the two sides of a
    star identity, which are equal."""
    for i in range(count):
        sigma = rng.choice(("ab", "abc"))
        x, y = laws.random_regex(rng, sigma), laws.random_regex(rng, sigma)
        kind = i % 3
        if kind == 1:
            y = wm.lang_union(x, y)
        elif kind == 2:
            name = rng.choice(("conway-star", "product-star"))
            x, y = laws.IDENTITIES[name].sides(wm.word_algebra(sigma), x, y)
        yield x, y


def test_lang_equal_matches_reference():
    rng = random.Random(63)
    compared = unequal = epsilon = 0
    for x, y in _lang_pairs(rng, 400):
        try:
            want = langref.lang_equal(x, y)
        except BudgetExceeded:
            continue
        assert wm.lang_equal(x, y) == want, (x, y)
        compared += 1
        unequal += not want
        epsilon += wm.accepts_epsilon(x) != wm.accepts_epsilon(y)
    assert compared >= 300 and unequal >= 150 and epsilon >= 50


# ----------------------------------------------------------------------
# regex parsing


def test_parse_precedence():
    assert wm.lang_equal(rx("a.b|b.a"), wm.lang_union(rx("a.b"), rx("b.a")))
    assert wm.lang_equal(rx("a.b*"), wm.lang_concat(rx("a"), rx("b*")))


def test_parse_implicit_concat():
    assert wm.lang_equal(rx("ab*"), rx("a.b*"))


def test_parse_errors():
    for bad in ("", "(a", "a|", "*a", "a)b", "a%b"):
        with pytest.raises(ParseError):
            rx(bad)


# ----------------------------------------------------------------------
# lassos


def test_lasso_member_rotation():
    w = wm.lasso([(rx("a"), rx("b.a"))])
    assert wm.lasso_member("a", "ba", w)
    # a(ba)^w = (ab)^w, in a different presentation
    assert wm.lasso_member("ab", "ab", w)
    assert wm.lasso_member("", "ab", w)


def test_lasso_member_prefix_mismatch():
    w = wm.lasso([(rx("b"), rx("a"))])
    assert not wm.lasso_member("", "a", w)
    assert wm.lasso_member("b", "a", w)


def test_lasso_member_epsilon_prefix():
    w = wm.lasso([(rx("1"), rx("a"))])
    assert wm.lasso_member("", "a", w)


def test_lasso_member_needs_real_decomposition():
    # V = b(ab)*: every word of V^omega after the first ends at a 'b',
    # so (ba)^w has no valid split even though its letters look right
    w = wm.lasso([(rx("1"), rx("b.(a.b)*"))])
    assert wm.lasso_member("", "ba", w) is False
    assert wm.lasso_member("b", "ab", w) is False
    assert wm.lasso_member("", "bab", w) is True
    assert wm.lasso_member("", "b", w) is True


def test_lasso_member_rejects_empty_period():
    w = wm.lasso([(rx("1"), rx("a"))])
    with pytest.raises(ValueError):
        wm.lasso_member("a", "", w)


def test_lasso_rejects_epsilon_base():
    with pytest.raises(EpsilonInOmegaBase):
        wm.lasso([(rx("a"), rx("1|a"))])
    with pytest.raises(EpsilonInOmegaBase):
        wm.omega_power(rx("a*"))


def test_omega_power_and_action():
    w = wm.omega_power(rx("a.b"))
    assert wm.lasso_member("", "ab", w)
    assert not wm.lasso_member("", "ba", w)
    moved = wm.lasso_action(rx("a"), wm.omega_power(rx("b")))
    assert wm.lasso_member("a", "b", moved)
    assert not wm.lasso_member("", "b", moved)


def test_lasso_union_membership():
    w = wm.lasso_union(wm.omega_power(rx("a")), wm.omega_power(rx("b")))
    assert wm.lasso_member("", "a", w)
    assert wm.lasso_member("", "b", w)
    assert not wm.lasso_member("", "ab", w)


def test_lasso_equal_bounded_reflexive():
    w = wm.lasso([(rx("a*"), rx("a.b"))])
    verdict = wm.lasso_equal_bounded(w, w, 4)
    assert verdict.equal and verdict.bound == 4


def test_lasso_equal_bounded_power_collapse():
    one = wm.omega_power(rx("a"))
    two = wm.omega_power(rx("a.a"))
    verdict = wm.lasso_equal_bounded(one, two, 6)
    assert verdict.equal
    assert verdict.counterexample is None


def test_lasso_equal_bounded_counterexample():
    verdict = wm.lasso_equal_bounded(
        wm.omega_power(rx("a")), wm.omega_power(rx("b")), 4
    )
    assert not verdict.equal
    assert verdict.counterexample == ("", "a")


def test_empty_lasso_rejects_everything():
    assert not wm.lasso_member("a", "b", wm.EMPTY_LASSO)


def test_lasso_budget_checked_before_tables():
    w = wm.omega_power(rx("a"))
    # 3 letters at bound 6: 1,093 prefixes x 1,092 periods fit
    sigma = ("a", "b", "c")
    w3 = wm.omega_power(wm.parse_regex("a", sigma))
    assert wm.lasso_equal_bounded(w3, w3, 6).equal
    # 2 letters at bound 10: 2,047 x 2,046 do not
    with pytest.raises(BudgetExceeded):
        wm.lasso_equal_bounded(w, w, 10)
    one = wm.omega_power(wm.parse_regex("a", ("a",)))
    with pytest.raises(BudgetExceeded):
        wm.lasso_equal_bounded(one, one, 10**9)


# ----------------------------------------------------------------------
# randomized


def test_random_regex_round_trips_through_words():
    rng = random.Random(51)
    for _ in range(40):
        lang = laws.random_regex(rng, AB)
        words = wm.enumerate_words(lang, 4)
        for word in words:
            assert wm.accepts(lang, word)
        for probe in ("", "a", "b", "ab", "ba", "aab"):
            assert wm.accepts(lang, probe) == (probe in words) or len(probe) > 4


def test_random_semiring_laws_in_word_model():
    rng = random.Random(52)
    for _ in range(15):
        x = laws.random_regex(rng, AB)
        y = laws.random_regex(rng, AB)
        z = laws.random_regex(rng, AB)
        assert wm.lang_equal(wm.lang_union(x, y), wm.lang_union(y, x))
        assert wm.lang_equal(
            wm.lang_concat(wm.lang_union(x, y), z),
            wm.lang_union(wm.lang_concat(x, z), wm.lang_concat(y, z)),
        )
        assert wm.lang_equal(
            wm.lang_concat(x, wm.lang_union(y, z)),
            wm.lang_union(wm.lang_concat(x, y), wm.lang_concat(x, z)),
        )
        assert wm.lang_equal(wm.lang_star(wm.lang_star(x)), wm.lang_star(x))


def test_omega_unfolding_bounded():
    rng = random.Random(53)
    for _ in range(10):
        x = laws.random_regex(rng, AB, epsilon_free=True)
        w = wm.omega_power(x)
        unfolded = wm.lasso_action(x, w)
        verdict = wm.lasso_equal_bounded(w, unfolded, 5)
        assert verdict.equal, verdict.counterexample


def _random_lasso(rng, sigma):
    return wm.lasso(
        [
            (laws.random_regex(rng, sigma), laws.random_regex(rng, sigma, epsilon_free=True))
            for _ in range(rng.randint(1, 3))
        ]
    )


def _over(w, sigma):
    """The same components read over a larger alphabet."""
    grow = lambda lang: dataclasses.replace(lang, alphabet=frozenset(sigma))
    return wm.LassoLang(tuple((grow(u), grow(v)) for u, v in w.pairs))


def _lasso_pairs(rng, count):
    """Seeded (w1, w2, bound) triples, about two thirds of them unequal."""
    for i in range(count):
        sigma = rng.choice(("ab", "abc"))
        kind = i % 6
        if kind in (0, 1, 2):
            w1, w2 = _random_lasso(rng, sigma), _random_lasso(rng, sigma)
        elif kind == 3:
            w1 = _random_lasso(rng, sigma)
            w2 = wm.EMPTY_LASSO if rng.random() < 0.8 else w1
            w1, w2 = (w1, w2) if rng.random() < 0.5 else (w2, w1)
        elif kind == 4:
            alg = wm.word_algebra(sigma)
            x = laws.random_regex(rng, sigma, epsilon_free=True)
            y = laws.random_regex(rng, sigma, epsilon_free=True)
            name = rng.choice(("omega-sum", "omega-product"))
            w1, w2 = laws.IDENTITIES[name].sides(alg, x, y)
        else:
            # components over ab against components over abc
            w1 = _random_lasso(rng, "ab")
            w2 = _over(w1 if rng.random() < 0.5 else _random_lasso(rng, "ab"), "abc")
            sigma = "abc"
        yield w1, w2, rng.randint(1, 5 if sigma == "ab" else 3)


def test_lasso_equal_bounded_matches_reference():
    rng = random.Random(61)
    unequal = 0
    for w1, w2, bound in _lasso_pairs(rng, 300):
        got = wm.lasso_equal_bounded(w1, w2, bound)
        assert got == lassoref.lasso_equal_bounded(w1, w2, bound), (w1, w2, bound)
        unequal += not got.equal
    assert unequal >= 150


def test_lasso_member_matches_reference():
    rng = random.Random(62)
    hits = 0
    for _ in range(300):
        sigma = rng.choice(("ab", "abc"))
        w = _random_lasso(rng, sigma) if rng.random() < 0.9 else wm.EMPTY_LASSO
        for _ in range(20):
            u = "".join(rng.choice(sigma) for _ in range(rng.randint(0, 4)))
            v = "".join(rng.choice(sigma) for _ in range(rng.randint(1, 4)))
            got = wm.lasso_member(u, v, w)
            assert got == lassoref.lasso_member(u, v, w), (u, v, w)
            hits += got
    assert 500 < hits < 5500


def test_word_algebra_wiring():
    alg = wm.word_algebra(AB)
    assert wm.lang_equal(alg.one, rx("1"))
    assert wm.lang_equal(alg.join(rx("a"), alg.zero), rx("a"))
    assert wm.lang_equal(alg.star(rx("a")), rx("a*"))
