"""Tests for the executable law checkers."""

import dataclasses
import json
import random
from fractions import Fraction

import pytest

from energyomega import cli, energyfn, energylaws, laws, omegaval, wordmodel
from energyomega.energyfn import CONST_BOTTOM, identity, shift
from energyomega.errors import (
    BudgetExceeded,
    InvalidGroupTable,
    InvalidRegrouping,
    UnknownIdentity,
)
from energyomega.extlat import BOTTOM, TOP, finite
from energyomega.omegaval import NEVER, from_threshold

from conftest import F, fn_pieces
import wordref

SAMPLES = [BOTTOM, finite(0), finite(1), F("5/2"), finite(7), TOP]


def checked(check, *args):
    """The energy report that one call of `check` fills."""
    report = laws.LawReport(check.__name__, "energy")
    check(report, *args)
    return report


def conway(instance, seed=0, cases=25, bound=5):
    report = laws.LawReport("conway", instance, seed=seed)
    laws.check_conway(report, cases, bound)
    return report


def group(name, elements, instance="energy", bound=5):
    # the algebra is built at the call, after any monkeypatch of wordmodel
    report = laws.LawReport(f"group-{name}", instance)
    laws.check_group_identity(report, name, laws.model(instance)[0], elements, bound)
    return report


# ----------------------------------------------------------------------
# Ax0


def test_ax0_stabilizing_orbit(decrement):
    report = checked(energylaws.check_ax0, identity(), decrement, identity(), SAMPLES)
    assert report.verdict == "Pass"


def test_ax0_const_bottom_middle():
    report = checked(energylaws.check_ax0, shift(3), CONST_BOTTOM, identity(), SAMPLES)
    assert report.verdict == "Pass"


def test_ax0_divergent_orbit():
    report = checked(energylaws.check_ax0, identity(), shift(1), identity(), SAMPLES)
    assert report.verdict == "Pass"


def test_ax0_random_triples():
    rng = random.Random(61)
    for _ in range(40):
        f, g, h = (energylaws.random_energy_function(rng) for _ in range(3))
        report = checked(energylaws.check_ax0, f, g, h, energylaws.random_samples(rng, 6))
        assert report.verdict == "Pass", (report.failures, report.unknowns)


# ----------------------------------------------------------------------
# Ax1 / Ax2


def test_ax1_peel_one(decrement, plus_two):
    report = checked(energylaws.check_ax1_ax2, [plus_two], [decrement], (1, [1]))
    assert report.verdict == "Pass"


def test_ax2_power_collapse():
    g = fn_pieces(2, [(2, 2, 2)])
    report = checked(energylaws.check_ax1_ax2, [], [g], (0, [2]))
    assert report.verdict == "Pass"


def test_ax2_blocks_after_prefix(decrement, plus_two):
    report = checked(energylaws.check_ax1_ax2, [plus_two], [decrement, identity()], (1, [2]))
    assert report.verdict == "Pass"


def test_ax2_uneven_blocks_random():
    rng = random.Random(62)
    for _ in range(25):
        prefix = [energylaws.random_energy_function(rng) for _ in range(rng.randint(0, 2))]
        cycle = [energylaws.random_energy_function(rng) for _ in range(rng.randint(1, 3))]
        head = rng.randint(0, 3)
        blocks = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
        report = checked(energylaws.check_ax1_ax2, prefix, cycle, (head, blocks))
        assert report.verdict == "Pass", report.failures


def test_regrouping_is_exact(monkeypatch):
    """The regrouped lasso unrolls to the blocks of the original one, in
    order, not only to an equal product: compose_all becomes ``tuple`` and
    the elements are their own positions."""
    monkeypatch.setattr(omegaval, "compose_all", tuple)
    cases = [
        ([0, 1], [2, 3, 4], 5, (2,)),  # head past the prefix; blocks coprime to the cycle
        ([0, 1, 2], [3, 4], 1, (1, 3)),  # the prefix ends inside a round
        ([], [0, 1, 2, 3], 0, (2, 4)),  # gcd(6, 4) = 2: two rounds span the cycle three times
    ]
    rng = random.Random(69)
    for _ in range(300):
        prefix = list(range(rng.randint(0, 4)))
        cycle = list(range(len(prefix), len(prefix) + rng.randint(1, 5)))
        blocks = tuple(rng.randint(1, 4) for _ in range(rng.randint(1, 3)))
        cases.append((prefix, cycle, rng.randint(0, 7), blocks))
    for prefix, cycle, head, blocks in cases:
        new_prefix, new_cycle = energylaws._regrouped_lasso(prefix, cycle, head, blocks)

        def element(n):
            return prefix[n] if n < len(prefix) else cycle[(n - len(prefix)) % len(cycle)]

        want, pos = [element(n) for n in range(head)], head
        for b in blocks * 40:
            want.append(tuple(element(n) for n in range(pos, pos + b)))
            pos += b
        unrolled = new_prefix + new_cycle * (len(want) // len(new_cycle) + 1)
        assert unrolled[:len(want)] == want, (prefix, cycle, head, blocks)


def test_regrouping_rejected():
    with pytest.raises(InvalidRegrouping):
        checked(energylaws.check_ax1_ax2, [], [identity()], (-1, [1]))
    with pytest.raises(InvalidRegrouping):
        checked(energylaws.check_ax1_ax2, [], [identity()], (0, []))
    with pytest.raises(InvalidRegrouping):
        checked(energylaws.check_ax1_ax2, [], [identity()], (0, [0, 2]))


# ----------------------------------------------------------------------
# Ax3 / Ax4


def test_ax3_idempotent_choice(decrement):
    report = checked(energylaws.check_ax3, [], [identity()], decrement, decrement, SAMPLES)
    assert report.verdict == "Pass"


def test_ax3_bottom_choice_dies(decrement):
    report = checked(energylaws.check_ax3, [identity()], [decrement], decrement, CONST_BOTTOM, SAMPLES)
    assert report.verdict == "Pass"


def test_ax3_identity_vs_decrement(decrement):
    report = checked(energylaws.check_ax3, [], [identity()], identity(), decrement, SAMPLES)
    assert report.verdict == "Pass"


def test_ax3_random():
    rng = random.Random(63)
    for _ in range(12):
        prefix = [energylaws.random_energy_function(rng) for _ in range(rng.randint(0, 1))]
        cycle = [energylaws.random_energy_function(rng) for _ in range(rng.randint(1, 2))]
        y = energylaws.random_energy_function(rng)
        z = energylaws.random_energy_function(rng)
        report = checked(energylaws.check_ax3, prefix, cycle, y, z, energylaws.random_samples(rng, 5))
        assert report.verdict == "Pass", (report.failures, report.unknowns)


def test_ax4_trivial_stars(decrement):
    for f in (CONST_BOTTOM, identity()):
        report = checked(energylaws.check_ax4, f, [decrement], SAMPLES)
        assert report.verdict == "Pass"


def test_ax4_pumping(decrement):
    report = checked(energylaws.check_ax4, shift(1), [identity()], SAMPLES)
    assert report.verdict == "Pass"


def test_ax4_random():
    rng = random.Random(64)
    for _ in range(12):
        f = energylaws.random_energy_function(rng)
        cycle = [energylaws.random_energy_function(rng) for _ in range(rng.randint(1, 2))]
        report = checked(energylaws.check_ax4, f, cycle, energylaws.random_samples(rng, 5))
        assert report.verdict == "Pass", (report.failures, report.unknowns)


def test_ax3_ax4_catch_flipped_omega_boundary(monkeypatch):
    # the oracles share no composition with the algebra, so an omega that
    # includes its threshold where it should exclude it (or the reverse)
    # shows as a disagreement at a sample
    omega = omegaval.omega

    def flipped(f):
        v = omega(f)
        return v if v.is_never else omegaval.ThresholdPredicate(v.threshold, not v.inclusive)

    monkeypatch.setattr(omegaval, "omega", flipped)
    rng = random.Random(112)
    f, y, x0, x1 = (energylaws.random_energy_function(rng) for _ in range(4))
    samples = energylaws.random_samples(rng, 6)
    assert checked(energylaws.check_ax3, [x0], [x1], f, y, samples).verdict == "Fail"
    assert checked(energylaws.check_ax4, f, [x1], samples).verdict == "Fail"


# ----------------------------------------------------------------------
# Conway identities


def test_conway_energy():
    for seed in (0, 1, 2):
        report = conway("energy", seed=seed, cases=20)
        assert report.verdict == "Pass", report.failures


def test_conway_word():
    report = conway("word", seed=0, cases=10, bound=5)
    assert report.verdict == "Pass", report.failures


def test_conway_unknown_instance():
    with pytest.raises(UnknownIdentity):
        conway("matrix")
    with pytest.raises(UnknownIdentity):
        laws.run_suite("matrix")


def test_unknown_names_raise_unknown_identity():
    alg, _ = laws.model("energy")
    with pytest.raises(UnknownIdentity, match="'nope'"):
        laws.check_identity(laws.LawReport("nope", "energy"), "nope", alg, identity(), identity())
    with pytest.raises(UnknownIdentity, match="'C5'"):
        laws.check_group_identity(laws.LawReport("group-C5", "energy"), "C5", alg,
                                  [identity()] * 5)


WRONG_SIDES = {
    "conway-star": lambda A, x, y: (A.star(A.join(x, y)), A.one),
    "omega-product": lambda A, x, y: (A.omega(A.mul(x, y)), A.vzero),
}


@pytest.mark.parametrize("name", WRONG_SIDES)
def test_one_table_row_drives_laws_and_wordcheck(monkeypatch, capsys, name):
    row = laws.IDENTITIES[name]
    monkeypatch.setitem(laws.IDENTITIES, name, row._replace(sides=WRONG_SIDES[name]))

    energy = conway("energy", seed=0, cases=5)
    assert energy.verdict == "Fail"
    case = energy.failures[0]
    assert case.inputs.startswith(f"{row.law}; x=")
    assert case.lhs != case.rhs and case.sample is None

    word = conway("word", seed=0, cases=2, bound=4)
    assert word.verdict == "Fail"
    tag = "W" if row.omega else "L"
    assert {(c.inputs, c.lhs, c.rhs) for c in word.failures} == {(row.law, tag + "1", tag + "2")}
    for c in word.failures:
        assert (c.sample or "").startswith("differ on") == row.omega

    code = cli.main(["wordcheck", "--identity", name, "--cases", "2", "--bound", "4",
                     "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1 and doc["verdict"] == "Fail"
    expected = "differ on" if row.omega else "language mismatch"
    assert doc["failures"] and all(f.startswith(expected) for f in doc["failures"])


def test_identity_out_of_budget_is_unknown():
    rng = random.Random(0)
    x, y = (laws.random_regex(rng, "ab", epsilon_free=True) for _ in range(2))

    def over_budget(a, b):
        raise BudgetExceeded("language equality exceeds 1024 pairs")

    alg = dataclasses.replace(wordmodel.word_algebra("ab"), equal=over_budget)
    report = laws.LawReport("conway", "word")
    laws.check_identity(report, "conway-star", alg, x, y)
    assert report.verdict == "Unknown" and report.cases == 1
    assert report.unknowns[0].sample == "language equality exceeds 1024 pairs"


@pytest.mark.parametrize("name", ["conway-star", "group-C2"])
def test_wordcheck_out_of_budget_is_error(monkeypatch, capsys, name):
    def over_budget(a, b):
        raise BudgetExceeded("language equality exceeds 1024 pairs")

    monkeypatch.setattr(wordmodel, "lang_equal", over_budget)
    code = cli.main(["wordcheck", "--identity", name, "--cases", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: language equality exceeds 1024 pairs\n"


# ----------------------------------------------------------------------
# group identities


def test_group_c2_energy(decrement, plus_two):
    report = group("C2", [plus_two, decrement])
    assert report.verdict == "Pass", report.failures


def test_group_all_bottom():
    for name, table in laws.GROUP_TABLES.items():
        n = len(table)
        report = group(name, [CONST_BOTTOM] * n)
        assert report.verdict == "Pass", (name, report.failures)


def test_group_random_energy():
    rng = random.Random(65)
    for name in ("C2", "C3", "C4", "klein"):
        n = len(laws.GROUP_TABLES[name])
        elements = [energylaws.random_energy_function(rng) for _ in range(n)]
        report = group(name, elements)
        assert report.verdict == "Pass", (name, report.failures)


def test_group_word_c2():
    rng = random.Random(66)
    elements = [laws.random_regex(rng, "ab", epsilon_free=True) for _ in range(2)]
    report = group("C2", elements, instance="word", bound=4)
    assert report.verdict == "Pass", report.failures


def test_group_word_c3_decided():
    for seed in range(5):
        rng = random.Random(seed)
        elements = [laws.random_regex(rng, "ab", epsilon_free=True) for _ in range(3)]
        report = group("C3", elements, "word", bound=4)
        assert report.verdict == "Pass", (seed, report.failures, report.unknowns)


def test_group_word_c3_c4_klein_within_the_pair_budget():
    # these relate up to a few hundred pairs of state sets under HKC; a
    # plain walk over the pairs goes past MAX_EQUALITY_PAIRS here
    alg, draw = laws.model("word", "ab")
    rng = random.Random(3)
    for name in ("C3", "C4", "klein"):
        report = laws.LawReport(f"group-{name}", "word")
        elements = [draw(rng) for _ in laws.GROUP_TABLES[name]]
        laws.check_group_identity(report, name, alg, elements, bound=2)
        assert report.verdict == "Pass" and not report.unknowns, (name, report.failures)


def test_group_word_out_of_budget_is_unknown():
    # the row sums of M_G* equal (x+y)*, but proving it for these x and y
    # relates more than MAX_EQUALITY_PAIRS pairs of state sets
    any12 = "(a|b)" * 12
    elements = [wordref.parse_regex(f"(a|b)*{c}{any12}", "ab") for c in "ab"]
    report = group("C2", elements, "word", bound=4)
    assert report.verdict == "Unknown", report.failures
    # the check ends at its first Unknown: the second row is never compared
    assert report.cases == 1
    assert report.unknowns[0].sample == "language equality exceeds 1024 pairs"


def test_group_word_failures_are_reported_like_identities(monkeypatch, capsys):
    rng = random.Random(66)
    x, y = (laws.random_regex(rng, "ab", epsilon_free=True) for _ in range(2))

    def differ(w1, w2, bound):
        return wordmodel.BoundedVerdict(False, bound, ("", "a"))

    with monkeypatch.context() as m:
        m.setattr(wordmodel, "lasso_equal_bounded", differ)
        report = group("C2", [x, y], "word", bound=4)
        assert [(c.inputs, c.lhs, c.rhs, c.sample) for c in report.failures] == [
            ("first entry of M_G^w", "W1", "W2", "differ on ''('a')^w")
        ]
        code = cli.main(["wordcheck", "--identity", "group-C2", "--cases", "1",
                         "--bound", "4", "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 1 and doc["failures"] == ["differ on ''('a')^w"]

    monkeypatch.setattr(wordmodel, "lang_equal", lambda a, b: False)
    report = group("C2", [x, y], "word", bound=4)
    assert [(c.inputs, c.lhs, c.rhs, c.sample) for c in report.failures] == [
        (f"row {i} of M_G*", "L1", "L2", None) for i in range(2)
    ]


def test_group_table_validation():
    for name, table in laws.GROUP_TABLES.items():
        idx = list(range(len(table)))
        # a Latin square with 0 as the identity, and associative
        assert all(sorted(row) == idx for row in table), name
        assert all(sorted(row[j] for row in table) == idx for j in idx), name
        assert table[0] == idx and [row[0] for row in table] == idx, name
        assert all(
            table[table[i][j]][k] == table[i][table[j][k]] for i in idx for j in idx for k in idx
        ), name
    with pytest.raises(InvalidGroupTable):
        group("C3", [identity()])


# ----------------------------------------------------------------------
# bi-inductive characterization


def test_bi_inductive_identity_never():
    report = checked(energylaws.check_bi_inductive, identity(), NEVER, SAMPLES)
    assert report.verdict == "Pass"


def test_bi_inductive_const_bottom():
    report = checked(energylaws.check_bi_inductive, CONST_BOTTOM, from_threshold(3), SAMPLES)
    assert report.verdict == "Pass"


def test_bi_inductive_decrement(decrement):
    report = checked(energylaws.check_bi_inductive, decrement, from_threshold(5), SAMPLES)
    assert report.verdict == "Pass"


def test_bi_inductive_random():
    rng = random.Random(67)
    for _ in range(30):
        f = energylaws.random_energy_function(rng)
        v = energylaws.random_predicate(rng)
        report = checked(energylaws.check_bi_inductive, f, v, energylaws.random_samples(rng, 6))
        assert report.verdict == "Pass", (report.failures, report.unknowns)


# ----------------------------------------------------------------------
# suite runner


def test_suite_energy_clean():
    for seed in range(10):
        for report in laws.run_suite("energy", seed=seed, cases=20):
            assert not report.unknowns, (seed, report.law, report.unknowns)
            assert report.verdict == "Pass", (seed, report.law, report.failures)


def test_suite_word_clean():
    for report in laws.run_suite("word", seed=0, cases=8):
        assert report.verdict == "Pass", (report.law, report.failures)


@pytest.mark.parametrize("instance", ["energy", "word"])
def test_suite_zero_cases_runs_none(instance):
    assert {report.cases for report in laws.run_suite(instance, cases=0)} == {0}


def test_report_json_shape():
    report = laws.LawReport("ax0", "energy")
    energylaws.check_ax0(report, identity(), shift(-1), identity(), SAMPLES)
    doc = report.to_json()
    assert doc["law"] == "ax0"
    assert doc["verdict"] == "Pass"
    assert doc["cases"] == len(SAMPLES)
