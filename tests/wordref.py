"""Regex literals and word acceptance: the helpers the word-model tests build with.

``parse_regex`` builds a ``RegularLang`` from a regex literal with the
package's own constructors, and ``accepts`` runs a finite word through
the NFA state set by state set.
"""

from typing import Iterable, Optional

from energyomega.errors import ParseError
from energyomega.wordmodel import (
    RegularLang,
    lang_concat,
    lang_empty,
    lang_epsilon,
    lang_star,
    lang_symbol,
    lang_union,
)


def parse_regex(text: str, alphabet: Optional[Iterable[str]] = None) -> RegularLang:
    """Parse letters, '1' (epsilon), '0' (empty), '|', '.', '*', parens.

    Juxtaposition concatenates; '.' is an explicit concatenation dot.
    The alphabet defaults to the letters occurring in the expression.
    """
    if alphabet is None:
        alphabet = {c for c in text if c.isalpha()}
    sigma = frozenset(alphabet)
    pos = 0

    def peek() -> Optional[str]:
        return text[pos] if pos < len(text) else None

    def take() -> str:
        nonlocal pos
        c = text[pos]
        pos += 1
        return c

    def parse_alt() -> RegularLang:
        lang = parse_cat()
        while peek() == "|":
            take()
            lang = lang_union(lang, parse_cat())
        return lang

    def parse_cat() -> RegularLang:
        lang = parse_term()
        while True:
            c = peek()
            if c == ".":
                take()
                lang = lang_concat(lang, parse_term())
            elif c is not None and (c.isalpha() or c in "10("):
                lang = lang_concat(lang, parse_term())
            else:
                return lang

    def parse_term() -> RegularLang:
        lang = parse_atom()
        while peek() == "*":
            take()
            lang = lang_star(lang)
        return lang

    def parse_atom() -> RegularLang:
        c = peek()
        if c is None:
            raise ParseError("unexpected end of regex")
        if c == "(":
            take()
            lang = parse_alt()
            if peek() != ")":
                raise ParseError(f"missing ')' at position {pos}")
            take()
            return lang
        take()
        if c == "1":
            return lang_epsilon(sigma)
        if c == "0":
            return lang_empty(sigma)
        if c.isalpha():
            return lang_symbol(c, sigma)
        raise ParseError(f"unexpected {c!r} at position {pos - 1}")

    lang = parse_alt()
    if pos != len(text):
        raise ParseError(f"trailing input at position {pos}")
    return lang


def accepts(lang: RegularLang, word: str) -> bool:
    current = set(lang.initial)
    for sym in word:
        current = {t for s, a, t in lang.transitions if s in current and a == sym}
        if not current:
            return False
    return bool(current & lang.final)
