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
with S_u and good(v) read once per distinct profile the words reach.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

from .errors import (
    AlphabetMismatch,
    BudgetExceeded,
    EpsilonInOmegaBase,
)

# pairs of state sets one language equality may relate
MAX_EQUALITY_PAIRS = 1024
# lassos (prefixes times periods) one bounded equality check may cover
MAX_LASSOS = 2_000_000


class RegularLang(NamedTuple):
    """An epsilon-free NFA; states are 0 .. n-1."""

    alphabet: frozenset
    n: int
    transitions: frozenset  # triples (src, symbol, dst)
    initial: frozenset
    final: frozenset


class LassoLang(NamedTuple):
    """A finite union of U . V^omega components; every V rejects epsilon."""

    pairs: tuple  # tuple of (RegularLang, RegularLang)


class BoundedVerdict(NamedTuple):
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

    States 0 .. u.n-1 are U's states, u.n + q is V's state q, and
    u.n + v.n + q is q flagged: the letter just read completed a V-word
    and restarted.  A step into a final state enters V's initial states
    from U, and restarts them, flagged, from V.  Accepting states are
    exactly the flagged ones: a run is in the language iff infinitely
    many V-words complete.  ``post[sym][s]`` is the mask of successors of
    s on sym; a letter missing from ``post`` has no successors.
    """
    init_u, final_u, post_u = _dfa(u)
    init_v, final_v, post_v = _dfa(v)
    enter, restart = init_v << u.n, init_v << (u.n + v.n)
    post = {}
    for sym in post_u.keys() | post_v.keys():
        row_u = [m | enter if m & final_u else m for m in post_u.get(sym, (0,) * u.n)]
        row_v = [m << u.n | (restart if m & final_v else 0) for m in post_v.get(sym, (0,) * v.n)]
        post[sym] = tuple(row_u + row_v + row_v)
    initial = init_u | enter if init_u & final_u else init_u
    return u.n + 2 * v.n, initial, restart, post


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
    core = 0  # the states q with a flagged edge q -> f and a path f -> q
    for q in range(n):
        if _image(closure, flag[q]) >> q & 1:
            core |= 1 << q
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


def lasso_equal_bounded(w1: LassoLang, w2: LassoLang, bound: int) -> BoundedVerdict:
    """Compare membership on every lasso word with |u| <= B, 1 <= |v| <= B.

    This is lasso_member's test, S_u meets good(v), which depends only on
    the profiles of u and v.  A breadth-first walk maps each distinct tuple
    of component profiles to its first word, extending letter by letter
    only the tuples the last level added, for at most B levels.  S_w is the
    image of the initial states under the reach half; good(w) sets the bit
    of w's tuple (its rank among the nonempty ones) in a per-state table.
    The first prefix tuple whose sides differ, at their lowest differing
    period bit, gives the first counterexample in (|u|, u, |v|, v) order:

    - A tuple first reached at length k+1 extends one first reached at
      length k, and levels expand in first-word order, letters in order.
      So a tuple's first word is its least in (|w|, w) order, and the least
      counterexample's prefix and period are each the first of their tuple.
    - The empty word's tuple is a prefix, not a period: a nonempty word
      with that tuple has flags all zero, so an empty good(v).

    More than MAX_LASSOS lassos (prefixes times periods) raise
    BudgetExceeded before any profile is built.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    pairs = tuple(w1.pairs) + tuple(w2.pairs)
    syms = sorted(set().union(*(u.alphabet for u, _v in pairs))) or ["a"]
    count = 0
    for length in range(1, bound + 1):
        count += len(syms) ** length
        if (count + 1) * count > MAX_LASSOS:
            raise BudgetExceeded(
                f"bounded lasso check at bound {bound} over {len(syms)} letters "
                f"exceeds {MAX_LASSOS} lassos"
            )
    comps = list(dict.fromkeys(pairs))
    buchis = [_buchi_for_pair(*pair) for pair in comps]
    rows = [[post.get(sym, (0,) * n) for sym in syms] for n, _i, _a, post in buchis]
    first = {tuple(_identity_profile(n) for n, _i, _a, _p in buchis): ""}
    done = 0  # how many tuples, in insertion order, the walk has expanded
    for _ in range(bound):
        level, done = list(first)[done:], len(first)
        for profiles in level:
            for a, sym in enumerate(syms):
                step = tuple(_extend(p, r[a], b[2]) for p, r, b in zip(profiles, rows, buchis))
                first.setdefault(step, first[profiles] + sym)  # keeps the first word
    words = list(first.values())
    tables = [[0] * n for n, _i, _a, _p in buchis]  # per state, the periods in good(v)
    for rank, profiles in enumerate(list(first)[1:]):
        for profile, table in zip(profiles, tables):
            good = _good(profile)
            for q in range(len(table)):
                table[q] |= (good >> q & 1) << rank
    sides = [sum({1 << comps.index(pair) for pair in w.pairs}) for w in (w1, w2)]
    for profiles, word in first.items():
        # per component, the periods v with word . v^omega in it
        hits = [_image(t, _image(p[0], b[1])) for p, t, b in zip(profiles, tables, buchis)]
        diff = _image(hits, sides[0]) ^ _image(hits, sides[1])
        if diff:  # period bit i stands for words[i + 1]
            return BoundedVerdict(False, bound, (word, words[(diff & -diff).bit_length()]))
    return BoundedVerdict(True, bound)


# ----------------------------------------------------------------------
# Algebra instance


def word_algebra(alphabet: Iterable[str]):
    """The regular-language semiring with lasso omega values."""
    from .matrixkleene import StarAlgebra

    sigma = frozenset(alphabet)
    return StarAlgebra(
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
