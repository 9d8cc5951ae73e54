"""Tests for the executable law checkers."""

import dataclasses
import json
import random
from fractions import Fraction

import pytest

from energyomega import cli, energyfn, laws, omegaval, wordmodel
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

SAMPLES = [BOTTOM, finite(0), finite(1), F("5/2"), finite(7), TOP]


# ----------------------------------------------------------------------
# Ax0


def test_ax0_stabilizing_orbit(decrement):
    report = laws.check_ax0(identity(), decrement, identity(), SAMPLES)
    assert report.verdict == "Pass"


def test_ax0_const_bottom_middle():
    report = laws.check_ax0(shift(3), CONST_BOTTOM, identity(), SAMPLES)
    assert report.verdict == "Pass"


def test_ax0_divergent_orbit():
    report = laws.check_ax0(identity(), shift(1), identity(), SAMPLES)
    assert report.verdict == "Pass"


def test_ax0_random_triples():
    rng = random.Random(61)
    for _ in range(40):
        f, g, h = (laws.random_energy_function(rng) for _ in range(3))
        report = laws.check_ax0(f, g, h, laws.random_samples(rng, 6))
        assert report.verdict == "Pass", (report.failures, report.unknowns)


# ----------------------------------------------------------------------
# Ax1 / Ax2


def test_ax1_peel_one(decrement, plus_two):
    report = laws.check_ax1_ax2([plus_two], [decrement], (1, [1]))
    assert report.verdict == "Pass"


def test_ax2_power_collapse():
    g = fn_pieces(2, [(2, 2, 2)])
    report = laws.check_ax1_ax2([], [g], (0, [2]))
    assert report.verdict == "Pass"


def test_ax2_blocks_after_prefix(decrement, plus_two):
    report = laws.check_ax1_ax2([plus_two], [decrement, identity()], (1, [2]))
    assert report.verdict == "Pass"


def test_ax2_uneven_blocks_random():
    rng = random.Random(62)
    for _ in range(25):
        prefix = [laws.random_energy_function(rng) for _ in range(rng.randint(0, 2))]
        cycle = [laws.random_energy_function(rng) for _ in range(rng.randint(1, 3))]
        head = rng.randint(0, 3)
        blocks = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
        report = laws.check_ax1_ax2(prefix, cycle, (head, blocks))
        assert report.verdict == "Pass", report.failures


def test_regrouping_rejected():
    with pytest.raises(InvalidRegrouping):
        laws.check_ax1_ax2([], [identity()], (-1, [1]))
    with pytest.raises(InvalidRegrouping):
        laws.check_ax1_ax2([], [identity()], (0, []))
    with pytest.raises(InvalidRegrouping):
        laws.check_ax1_ax2([], [identity()], (0, [0, 2]))


# ----------------------------------------------------------------------
# Ax3 / Ax4


def test_ax3_idempotent_choice(decrement):
    report = laws.check_ax3([], [identity()], decrement, decrement, SAMPLES)
    assert report.verdict == "Pass"


def test_ax3_bottom_choice_dies(decrement):
    report = laws.check_ax3([identity()], [decrement], decrement, CONST_BOTTOM, SAMPLES)
    assert report.verdict == "Pass"


def test_ax3_identity_vs_decrement(decrement):
    report = laws.check_ax3([], [identity()], identity(), decrement, SAMPLES)
    assert report.verdict == "Pass"


def test_ax3_random():
    rng = random.Random(63)
    for _ in range(12):
        prefix = [laws.random_energy_function(rng) for _ in range(rng.randint(0, 1))]
        cycle = [laws.random_energy_function(rng) for _ in range(rng.randint(1, 2))]
        y = laws.random_energy_function(rng)
        z = laws.random_energy_function(rng)
        report = laws.check_ax3(prefix, cycle, y, z, laws.random_samples(rng, 5))
        assert report.verdict == "Pass", (report.failures, report.unknowns)


def test_ax4_trivial_stars(decrement):
    for f in (CONST_BOTTOM, identity()):
        report = laws.check_ax4(f, [decrement], SAMPLES)
        assert report.verdict == "Pass"


def test_ax4_pumping(decrement):
    report = laws.check_ax4(shift(1), [identity()], SAMPLES)
    assert report.verdict == "Pass"


def test_ax4_random():
    rng = random.Random(64)
    for _ in range(12):
        f = laws.random_energy_function(rng)
        cycle = [laws.random_energy_function(rng) for _ in range(rng.randint(1, 2))]
        report = laws.check_ax4(f, cycle, laws.random_samples(rng, 5))
        assert report.verdict == "Pass", (report.failures, report.unknowns)


# ----------------------------------------------------------------------
# Conway identities


def test_conway_energy():
    for seed in (0, 1, 2):
        report = laws.check_conway("energy", seed=seed, cases=20)
        assert report.verdict == "Pass", report.failures


def test_conway_word():
    report = laws.check_conway("word", seed=0, cases=10, bound=5)
    assert report.verdict == "Pass", report.failures


def test_conway_unknown_instance():
    with pytest.raises(UnknownIdentity):
        laws.check_conway("matrix")


WRONG_SIDES = {
    "conway-star": lambda A, x, y: (A.star(A.join(x, y)), A.one),
    "omega-product": lambda A, x, y: (A.omega(A.mul(x, y)), A.vzero),
}


@pytest.mark.parametrize("name", WRONG_SIDES)
def test_one_table_row_drives_laws_and_wordcheck(monkeypatch, capsys, name):
    row = laws.IDENTITIES[name]
    monkeypatch.setitem(laws.IDENTITIES, name, row._replace(sides=WRONG_SIDES[name]))

    energy = laws.check_conway("energy", seed=0, cases=5)
    assert energy.verdict == "Fail"
    case = energy.failures[0]
    assert case.inputs.startswith(f"{row.law}; x=")
    assert case.lhs != case.rhs and case.sample is None

    word = laws.check_conway("word", seed=0, cases=2, bound=4)
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
    report = laws.check_group_identity("C2", [plus_two, decrement])
    assert report.verdict == "Pass", report.failures


def test_group_all_bottom():
    for name, table in laws.GROUP_TABLES.items():
        n = len(table)
        report = laws.check_group_identity(name, [CONST_BOTTOM] * n)
        assert report.verdict == "Pass", (name, report.failures)


def test_group_random_energy():
    rng = random.Random(65)
    for name in ("C2", "C3", "C4", "klein"):
        n = len(laws.GROUP_TABLES[name])
        elements = [laws.random_energy_function(rng) for _ in range(n)]
        report = laws.check_group_identity(name, elements)
        assert report.verdict == "Pass", (name, report.failures)


def test_group_word_c2():
    rng = random.Random(66)
    elements = [laws.random_regex(rng, "ab", epsilon_free=True) for _ in range(2)]
    report = laws.check_group_identity("C2", elements, instance="word", bound=4)
    assert report.verdict == "Pass", report.failures


def test_group_word_c3_decided():
    for seed in range(5):
        rng = random.Random(seed)
        elements = [laws.random_regex(rng, "ab", epsilon_free=True) for _ in range(3)]
        report = laws.check_group_identity("C3", elements, "word", bound=4)
        assert report.verdict == "Pass", (seed, report.failures, report.unknowns)


def test_group_word_out_of_budget_is_unknown():
    # the row sums of M_G* equal (x+y)*, but proving it for these x and y
    # relates more than MAX_EQUALITY_PAIRS pairs of state sets
    any12 = "(a|b)" * 12
    elements = [wordmodel.parse_regex(f"(a|b)*{c}{any12}", "ab") for c in "ab"]
    report = laws.check_group_identity("C2", elements, "word", bound=4)
    assert report.verdict == "Unknown", report.failures
    assert report.unknowns[0].sample == "language equality exceeds 1024 pairs"


def test_group_table_validation():
    with pytest.raises(InvalidGroupTable):
        laws.check_group_identity([[0, 1], [1, 1]], [identity(), identity()])
    with pytest.raises(InvalidGroupTable):
        laws.check_group_identity([[1, 0], [0, 1]], [identity(), identity()])
    with pytest.raises(InvalidGroupTable):
        laws.check_group_identity("C3", [identity()])


# ----------------------------------------------------------------------
# bi-inductive characterization


def test_bi_inductive_identity_never():
    report = laws.check_bi_inductive(identity(), NEVER, SAMPLES)
    assert report.verdict == "Pass"


def test_bi_inductive_const_bottom():
    report = laws.check_bi_inductive(CONST_BOTTOM, from_threshold(3), SAMPLES)
    assert report.verdict == "Pass"


def test_bi_inductive_decrement(decrement):
    report = laws.check_bi_inductive(decrement, from_threshold(5), SAMPLES)
    assert report.verdict == "Pass"


def test_bi_inductive_random():
    rng = random.Random(67)
    for _ in range(30):
        f = laws.random_energy_function(rng)
        v = laws.random_predicate(rng)
        report = laws.check_bi_inductive(f, v, laws.random_samples(rng, 6))
        assert report.verdict == "Pass", (report.failures, report.unknowns)


# ----------------------------------------------------------------------
# suite runner


def test_suite_energy_clean():
    for seed in (0, 1):
        for report in laws.run_suite("energy", seed=seed, cases=10):
            assert report.verdict == "Pass", (report.law, report.failures)


def test_suite_word_clean():
    for report in laws.run_suite("word", seed=0, cases=8):
        assert report.verdict == "Pass", (report.law, report.failures)


def test_report_json_shape():
    report = laws.check_ax0(identity(), shift(-1), identity(), SAMPLES)
    doc = report.to_json()
    assert doc["law"] == "ax0"
    assert doc["verdict"] == "Pass"
    assert doc["cases"] == len(SAMPLES)
