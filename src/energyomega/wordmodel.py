"""Regular languages and lasso omega-languages over small alphabets.

Regular languages carry epsilon-free nondeterministic automata and form
an idempotent semiring with star under union, concatenation and Kleene
star.  Language equality is decided on the two NFAs by Hopcroft-Karp up
to congruence, with no subset construction; it may relate at most
MAX_EQUALITY_PAIRS pairs of state sets.  Omega behaviour is modelled by
finite unions of U . V^omega with epsilon not in V.  Membership of an
ultimately periodic word u . v^omega is decided from transition
profiles: the states S_u a component's Buchi automaton reaches on u,
and the states good(v) from which the profile of v (states reached, and
states reached past an accepting state) leads to an accepting cycle;
the word is in the component iff they meet.
Omega-language equality is checked on all lassos up to a stated bound,
with S_u and good(v) tabulated over the prefix and period trees.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import product
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from .errors import (
    AlphabetMismatch,
    BudgetExceeded,
    EpsilonInOmegaBase,
    ParseError,
)

# pairs of state sets one language equality may relate
MAX_EQUALITY_PAIRS = 1024
# lassos (prefixes times periods) one bounded equality check may cover
MAX_LASSOS = 2_000_000


@dataclass(frozen=True)
class RegularLang:
    """An epsilon-free NFA; states are 0 .. n-1."""

    alphabet: frozenset
    n: int
    transitions: frozenset  # triples (src, symbol, dst)
    initial: frozenset
    final: frozenset


@dataclass(frozen=True)
class LassoLang:
    """A finite union of U . V^omega components; every V rejects epsilon."""

    pairs: tuple  # tuple of (RegularLang, RegularLang)


@dataclass(frozen=True)
class BoundedVerdict:
    equal: bool
    bound: int
    counterexample: Optional[Tuple[str, str]] = None

    def __str__(self) -> str:
        if self.equal:
            return f"equal up to {self.bound}"
        u, v = self.counterexample
        return f"differ on {u!r}({v!r})^w"


# ----------------------------------------------------------------------
# Construction


def lang_empty(alphabet: Iterable[str]) -> RegularLang:
    return RegularLang(frozenset(alphabet), 1, frozenset(), frozenset([0]), frozenset())


def lang_epsilon(alphabet: Iterable[str]) -> RegularLang:
    return RegularLang(
        frozenset(alphabet), 1, frozenset(), frozenset([0]), frozenset([0])
    )


def lang_symbol(sym: str, alphabet: Iterable[str]) -> RegularLang:
    alphabet = frozenset(alphabet)
    if sym not in alphabet:
        raise AlphabetMismatch(f"symbol {sym!r} outside alphabet {sorted(alphabet)}")
    return RegularLang(
        alphabet, 2, frozenset([(0, sym, 1)]), frozenset([0]), frozenset([1])
    )


def _check_alphabet(a: RegularLang, b: RegularLang) -> frozenset:
    if a.alphabet != b.alphabet:
        raise AlphabetMismatch(
            f"alphabets {sorted(a.alphabet)} and {sorted(b.alphabet)} differ"
        )
    return a.alphabet


def _shifted(trans: Iterable[tuple], k: int) -> Set[tuple]:
    return {(s + k, a, t + k) for s, a, t in trans}


def accepts_epsilon(lang: RegularLang) -> bool:
    return bool(lang.initial & lang.final)


def lang_union(a: RegularLang, b: RegularLang) -> RegularLang:
    alphabet = _check_alphabet(a, b)
    trans = set(a.transitions) | _shifted(b.transitions, a.n)
    initial = set(a.initial) | {q + a.n for q in b.initial}
    final = set(a.final) | {q + a.n for q in b.final}
    return RegularLang(
        alphabet, a.n + b.n, frozenset(trans), frozenset(initial), frozenset(final)
    )


def lang_concat(a: RegularLang, b: RegularLang) -> RegularLang:
    alphabet = _check_alphabet(a, b)
    trans = set(a.transitions) | _shifted(b.transitions, a.n)
    # each final state of a mimics the initial fan-out of b
    for s, sym, t in b.transitions:
        if s in b.initial:
            for f in a.final:
                trans.add((f, sym, t + a.n))
    initial = set(a.initial)
    if accepts_epsilon(a):
        initial |= {q + a.n for q in b.initial}
    final = {q + a.n for q in b.final}
    if accepts_epsilon(b):
        final |= set(a.final)
    return RegularLang(
        alphabet, a.n + b.n, frozenset(trans), frozenset(initial), frozenset(final)
    )


def lang_star(a: RegularLang) -> RegularLang:
    # fresh state a.n accepts epsilon and restarts after every final
    trans = set(a.transitions)
    entry = [(s, sym, t) for s, sym, t in a.transitions if s in a.initial]
    for s, sym, t in entry:
        trans.add((a.n, sym, t))
        for f in a.final:
            trans.add((f, sym, t))
    return RegularLang(
        a.alphabet,
        a.n + 1,
        frozenset(trans),
        frozenset([a.n]),
        frozenset(a.final | {a.n}),
    )


# ----------------------------------------------------------------------
# Acceptance and equality


def accepts(lang: RegularLang, word: str) -> bool:
    current = set(lang.initial)
    for sym in word:
        current = {t for s, a, t in lang.transitions if s in current and a == sym}
        if not current:
            return False
    return bool(current & lang.final)


def _image(row: Sequence[int], mask: int) -> int:
    """The successors of the states in ``mask`` under one letter's ``row``."""
    out = 0
    while mask:
        low = mask & -mask
        out |= row[low.bit_length() - 1]
        mask ^= low
    return out


@functools.lru_cache(maxsize=4096)
def _dfa(lang: RegularLang) -> Tuple[int, int, Dict[str, tuple]]:
    """The NFA as bitmasks (initial, final, post); nothing is determinized.

    ``post[sym][q]`` is the mask of q's successors on sym; a letter missing
    from ``post`` has no successors.  The name predates HKC and stays
    because the benchmark tracer reads this cache's statistics.
    """
    post: Dict[str, List[int]] = {}
    for s, sym, t in lang.transitions:
        post.setdefault(sym, [0] * lang.n)[s] |= 1 << t
    initial = sum(1 << q for q in lang.initial)
    final = sum(1 << q for q in lang.final)
    return initial, final, {sym: tuple(row) for sym, row in post.items()}


def _normal_form(x: int, relation: Sequence[Tuple[int, int]]) -> int:
    """The largest state set x rewrites to under X -> X | s | t, for each
    pair (s, t) of the relation with s or t inside X."""
    rules = relation
    while True:
        rest = []
        for s, t in rules:
            if s & ~x and t & ~x:
                rest.append((s, t))
            else:
                x |= s | t
        if len(rest) == len(rules):
            return x
        rules = rest


def lang_equal(a: RegularLang, b: RegularLang) -> bool:
    """Exact equality by Hopcroft-Karp up to congruence (HKC).

    The two NFAs run as one disjoint union, b's states above a's.  Pairs
    (X, Y) of state sets are taken from a work list, starting from the
    initial sets.  A pair is skipped when X and Y have the same normal
    form under the relation R built so far, that is when it lies in the
    congruence closure of R.  Otherwise differing acceptance refutes
    equality, and (X, Y) joins R with its successor pair per letter on
    the work list.  When the list empties, R is a bisimulation up to
    congruence that relates the initial sets, so the languages are equal
    (Bonchi and Pous, POPL 2013).  Neither NFA is determinized; more than
    MAX_EQUALITY_PAIRS pairs in R raise BudgetExceeded.
    """
    syms = sorted(_check_alphabet(a, b))
    init_a, final_a, post_a = _dfa(a)
    init_b, final_b, post_b = _dfa(b)
    final = final_a | final_b << a.n
    rows = [
        post_a.get(sym, (0,) * a.n) + tuple(r << a.n for r in post_b.get(sym, (0,) * b.n))
        for sym in syms
    ]
    relation: List[Tuple[int, int]] = []
    todo = [(init_a, init_b << a.n)]
    while todo:
        x, y = todo.pop()
        # equal normal forms: each set lies inside the other's normal form
        if not y & ~_normal_form(x, relation) and not x & ~_normal_form(y, relation):
            continue
        if bool(x & final) != bool(y & final):
            return False
        if len(relation) == MAX_EQUALITY_PAIRS:
            raise BudgetExceeded(f"language equality exceeds {MAX_EQUALITY_PAIRS} pairs")
        relation.append((x, y))
        todo.extend((_image(row, x), _image(row, y)) for row in rows)
    return True


def lang_is_empty(lang: RegularLang) -> bool:
    seen = set(lang.initial)
    queue = list(seen)
    while queue:
        q = queue.pop()
        if q in lang.final:
            return False
        for s, _a, t in lang.transitions:
            if s == q and t not in seen:
                seen.add(t)
                queue.append(t)
    return True


def enumerate_words(lang: RegularLang, maxlen: int) -> List[str]:
    syms = sorted(lang.alphabet)
    out = []
    for length in range(maxlen + 1):
        for tup in product(syms, repeat=length):
            word = "".join(tup)
            if accepts(lang, word):
                out.append(word)
    return out


# ----------------------------------------------------------------------
# Regex literals


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


# ----------------------------------------------------------------------
# Lasso omega-languages


def lasso(pairs: Sequence[Tuple[RegularLang, RegularLang]]) -> LassoLang:
    pairs = tuple(pairs)
    for _u, v in pairs:
        if accepts_epsilon(v):
            raise EpsilonInOmegaBase("omega base must reject the empty word")
    if pairs:
        sigma = pairs[0][0].alphabet
        for u, v in pairs:
            if u.alphabet != sigma or v.alphabet != sigma:
                raise AlphabetMismatch("lasso components must share one alphabet")
    return LassoLang(pairs)


EMPTY_LASSO = LassoLang(())


def omega_power(lang: RegularLang) -> LassoLang:
    if accepts_epsilon(lang):
        raise EpsilonInOmegaBase("omega base must reject the empty word")
    return lasso([(lang_epsilon(lang.alphabet), lang)])


def lasso_action(lang: RegularLang, w: LassoLang) -> LassoLang:
    return lasso([(lang_concat(lang, u), v) for u, v in w.pairs])


def lasso_union(w1: LassoLang, w2: LassoLang) -> LassoLang:
    return lasso(tuple(w1.pairs) + tuple(w2.pairs))


@functools.lru_cache(maxsize=4096)
def _buchi_for_pair(u: RegularLang, v: RegularLang):
    """Buchi automaton for U . V^omega as bitmasks (n, initial, accepting, post).

    States 0 .. u.n-1 are U's states; state u.n + 2*q + flag is V's state
    q, where flag marks that the letter just read completed a V-word and
    restarted.  Accepting states are exactly the flagged ones: a run is
    in the language iff infinitely many V-words complete.  ``post[sym][s]``
    is the mask of successors of s on sym; a letter missing from ``post``
    has no successors.
    """
    n = u.n + 2 * v.n
    post: Dict[str, List[int]] = {}

    def in_v(q: int, flag: int) -> int:
        return 1 << (u.n + 2 * q + flag)

    enter = restart = 0
    for i in v.initial:
        enter |= in_v(i, 0)
        restart |= in_v(i, 1)
    for s, sym, t in u.transitions:
        row = post.setdefault(sym, [0] * n)
        row[s] |= 1 << t
        if t in u.final:
            row[s] |= enter
    for s, sym, t in v.transitions:
        row = post.setdefault(sym, [0] * n)
        step = in_v(t, 0) | (restart if t in v.final else 0)
        row[u.n + 2 * s] |= step
        row[u.n + 2 * s + 1] |= step
    initial = sum(1 << q for q in u.initial)
    if accepts_epsilon(u):
        initial |= enter
    return n, initial, restart, {sym: tuple(row) for sym, row in post.items()}


def _identity_profile(n: int) -> Tuple[tuple, tuple]:
    return tuple(1 << q for q in range(n)), (0,) * n


def _extend(profile: Tuple[tuple, tuple], row: Sequence[int], accepting: int):
    """The profile of v.a from the profile of v and the row of letter a.

    A profile maps each state q to the states reachable from q by reading
    the word, and to those reachable by a path that passes an accepting
    state after at least one letter.
    """
    reach, flag = profile
    reach_a = tuple(_image(row, r) for r in reach)
    return reach_a, tuple(
        _image(row, f) | (r & accepting) for f, r in zip(flag, reach_a)
    )


def _good(profile: Tuple[tuple, tuple]) -> int:
    """good(v): the states from which u . v^omega is accepted.

    The phase-0 graph of v has an edge q -> q' for every q' the profile
    reaches from q, flagged when the flag part reaches q' too.  good(v)
    holds the states that reach, in that graph, a flagged edge lying on
    a cycle.  A state is then in good(v) iff some run from it on v^omega
    passes accepting states infinitely often:

    - A product node (position mod |v|, state) can only return to itself
      after a multiple of |v| letters, so a cycle through an accepting
      product node cuts at its phase-0 visits into v-paths.  These are
      edges of a phase-0 cycle, and the one whose letters include the
      step into the accepting node is flagged (when that node sits at
      phase 0, it is the edge that ends there, after at least one
      letter).  The path that reaches the cycle cuts the same way.
    - Conversely, a flagged edge q1 -> q2 on a phase-0 cycle lifts to a
      product cycle: the flagged v-path from q1 to q2, then the lifted
      cycle from q2 back to q1.  It passes an accepting node each time
      round.

    The positions of a prefix u are never on a product cycle, so
    u . v^omega is accepted iff good(v) meets S_u, the states reached
    after reading u.
    """
    reach, flag = profile
    n = len(reach)
    closure = list(reach)  # states reachable in one or more edges
    targets = 0
    for r in reach:
        targets |= r
    while targets:  # Warshall, over the states that have an incoming edge
        low = targets & -targets
        k_reach = closure[low.bit_length() - 1]
        targets ^= low
        for i in range(n):
            if closure[i] & low:
                closure[i] |= k_reach
    core = 0
    for q in range(n):
        f = flag[q]
        while f:
            low = f & -f
            if closure[low.bit_length() - 1] >> q & 1:
                core |= 1 << q
                break
            f ^= low
    good = 0  # a state of core lies on a cycle, so it reaches itself
    for i in range(n):
        if closure[i] & core:
            good |= 1 << i
    return good


def lasso_member(u_word: str, v_word: str, w: LassoLang) -> bool:
    """Is u_word . v_word^omega in w?

    For each component, with S_u the states its Buchi automaton reaches
    after reading u_word, the word is in U . V^omega iff S_u meets
    good(v_word).
    """
    if not v_word:
        raise ValueError("periodic part must be nonempty")
    for pair in w.pairs:
        n, states, accepting, post = _buchi_for_pair(*pair)
        none = (0,) * n
        for sym in u_word:
            states = _image(post.get(sym, none), states)
        profile = _identity_profile(n)
        for sym in v_word:
            profile = _extend(profile, post.get(sym, none), accepting)
        if states & _good(profile):
            return True
    return False


def _period_table(buchi, syms: Sequence[str], periods: Sequence[str]) -> List[int]:
    """For each state q, the periods v with q in good(v), as a bitmask.

    Bit i stands for periods[i].  Profiles are built depth-first over the
    tree of periods, so only the profiles on the current path are alive.
    """
    n, _initial, accepting, post = buchi
    index = {v: i for i, v in enumerate(periods)}
    bound = len(periods[-1])
    none = (0,) * n
    table = [0] * n
    stack = [(_identity_profile(n), sym) for sym in reversed(syms)]
    while stack:
        parent, v_word = stack.pop()  # the profile of v_word minus its last letter
        profile = _extend(parent, post.get(v_word[-1], none), accepting)
        bit = 1 << index[v_word]
        good = _good(profile)
        while good:
            low = good & -good
            table[low.bit_length() - 1] |= bit
            good ^= low
        if len(v_word) < bound:
            stack.extend((profile, v_word + sym) for sym in reversed(syms))
    return table


def lasso_equal_bounded(w1: LassoLang, w2: LassoLang, bound: int) -> BoundedVerdict:
    """Compare membership on every lasso word with |u| <= B, 1 <= |v| <= B.

    This is lasso_member's test, S_u meets good(v), on whole tables: each
    component's S_u by dynamic programming over the prefix tree, and its
    good(v) as one bitmask over the periods per state.  So one prefix
    answers for all periods at once, and the first counterexample in the
    order (|u|, u, |v|, v) is the first prefix whose two sides differ, at
    their lowest differing period bit.  More than MAX_LASSOS lassos
    (prefixes times periods) raise BudgetExceeded before any table is
    built.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    sigma: Set[str] = set()
    for u, v in tuple(w1.pairs) + tuple(w2.pairs):
        sigma |= u.alphabet
    syms = sorted(sigma) or ["a"]
    count = 0
    for length in range(1, bound + 1):
        count += len(syms) ** length
        if (count + 1) * count > MAX_LASSOS:
            raise BudgetExceeded(
                f"bounded lasso check at bound {bound} over {len(syms)} letters "
                f"exceeds {MAX_LASSOS} lassos"
            )
    periods = [
        "".join(t) for length in range(1, bound + 1) for t in product(syms, repeat=length)
    ]
    comps = list(dict.fromkeys(tuple(w1.pairs) + tuple(w2.pairs)))
    buchis = [_buchi_for_pair(*pair) for pair in comps]
    tables = [_period_table(b, syms, periods) for b in buchis]
    rows = [[post.get(sym, (0,) * n) for sym in syms] for n, _i, _a, post in buchis]
    sides = [[comps.index(pair) for pair in w.pairs] for w in (w1, w2)]

    def members(side, states) -> int:
        """The periods v with u . v^omega on this side, as a bitmask."""
        out = 0
        for c in side:
            out |= _image(tables[c], states[c])
        return out

    level = [("", tuple(b[1] for b in buchis))]  # (u, S_u per component)
    for ulen in range(bound + 1):
        if ulen:
            level = [
                (u_word + sym, tuple(_image(r[a], s) for r, s in zip(rows, states)))
                for u_word, states in level
                for a, sym in enumerate(syms)
            ]
        for u_word, states in level:
            diff = members(sides[0], states) ^ members(sides[1], states)
            if diff:
                first = (diff & -diff).bit_length() - 1
                return BoundedVerdict(False, bound, (u_word, periods[first]))
    return BoundedVerdict(True, bound)


# ----------------------------------------------------------------------
# Algebra instance


def word_algebra(alphabet: Iterable[str]):
    """The regular-language semiring with lasso omega values."""
    from .matrixkleene import StarAlgebra

    sigma = frozenset(alphabet)
    return StarAlgebra(
        name=f"words[{''.join(sorted(sigma))}]",
        join=lang_union,
        mul=lang_concat,
        zero=lang_empty(sigma),
        one=lang_epsilon(sigma),
        star=lang_star,
        equal=lang_equal,
        act=lasso_action,
        vjoin=lasso_union,
        vzero=EMPTY_LASSO,
        omega=omega_power,
    )
