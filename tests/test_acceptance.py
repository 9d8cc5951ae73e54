"""End-to-end acceptance checks, one per shipped criterion.

Each test registers a pass/fail line printed in the terminal summary.
"""

import json
import random
import time
from fractions import Fraction

from energyomega import cli, energyauto, energyfn, energylaws, laws, matrixkleene as mk, omegaval, wordmodel
from energyomega.energyfn import identity
from energyomega.extlat import BOTTOM, TOP, finite
from energyomega.omegaval import apply

from blockref import block_omega, block_omega_k, block_star, mat_equal
from conftest import GOLDEN, GOLDEN_RUNS, F, fn_pieces, record_criterion
from test_energyauto import _energies, _random_automaton
from test_matrixkleene import path_sup
from witnessref import local_finiteness_witness


def _sample_points(rng, f, k):
    """Random rationals plus the boundary points where star can flip."""
    pts = [BOTTOM, TOP]
    hit = energyfn.threshold(f, 1, 0, strict=True)
    if hit is not None and hit[0] is not None:
        pts.append(finite(hit[0]))
    while len(pts) < k:
        pts.append(finite(Fraction(rng.randint(0, 24), rng.randint(1, 4))))
    return pts


def _star_matches_witness(f, pts):
    s = energyfn.star(f)
    for x in pts:
        if not x.is_finite:
            if s.eval(x) != x:
                return False
            continue
        rep = local_finiteness_witness(f, x, 64)
        want = TOP if rep.kind == "diverges" else rep.value
        if s.eval(x) != want:
            return False
    return True


@record_criterion(1, "star closed form vs iteration, 500 functions x 20 points")
def test_criterion_1_star_vs_iteration():
    rng = random.Random(101)
    start = time.monotonic()
    for _ in range(500):
        f = energylaws.random_energy_function(rng)
        assert _star_matches_witness(f, _sample_points(rng, f, 20)), str(f)
    assert time.monotonic() - start < 10.0


@record_criterion(2, "omega closed form vs orbit oracle on the same corpus")
def test_criterion_2_omega_vs_orbit():
    rng = random.Random(101)
    for _ in range(500):
        f = energylaws.random_energy_function(rng)
        w = omegaval.omega(f)
        for x in _sample_points(rng, f, 20):
            if not x.is_finite:
                assert apply(w, x) == (x.is_top and w != omegaval.NEVER)
                continue
            y, alive = x, None
            for _ in range(10000):
                if y.is_bottom:
                    alive = False
                    break
                if y.is_top or f.eval(y) >= y:
                    alive = True
                    break
                y = f.eval(y)
            assert alive is not None, f"orbit oracle did not terminate on {f}"
            assert apply(w, x) == alive, (str(f), x)


@record_criterion(3, "matrix star vs path-supremum oracle; split independence")
def test_criterion_3_matrix_star():
    rng = random.Random(102)
    start = time.monotonic()
    for _ in range(200):
        n = rng.choice((2, 3))
        m = mk.matrix(
            mk.ENERGY_ALGEBRA,
            [[energylaws.random_energy_function(rng) for _ in range(n)] for _ in range(n)],
        )
        s = mk.mat_star(m)
        pts = [BOTTOM] + [
            finite(Fraction(rng.randint(0, 12), rng.choice((1, 2))))
            for _ in range(9)
        ]
        for i in range(n):
            for j in range(n):
                for x in pts:
                    assert s.rows[i][j].eval(x) == path_sup(m, i, j, x)
    for _ in range(20):
        for n in (3, 4):
            m = mk.matrix(
                mk.ENERGY_ALGEBRA,
                [
                    [energylaws.random_energy_function(rng) for _ in range(n)]
                    for _ in range(n)
                ],
            )
            star, omega = mk.mat_star(m), mk.mat_omega(m)
            for k in range(1, n):
                assert mat_equal(block_star(m, split=k), star)
                assert block_omega(m, split=k) == omega
            for k in range(n + 1):
                assert mk.mat_omega_k(m, k) == block_omega_k(m, k)
    assert time.monotonic() - start < 30.0


@record_criterion(4, "algebraic vs oracle agreement on 300 automata x 10 energies")
def test_criterion_4_buchi_cross_validation():
    rng = random.Random(103)
    start = time.monotonic()
    for _ in range(300):
        aut = _random_automaton(rng, rng.randint(1, 4))
        for x in _energies(rng, 10):
            energyauto.reachable(aut, x, verify=True)
            energyauto.buchi(aut, x, verify=True)
    assert time.monotonic() - start < 60.0


@record_criterion(5, "axiom and identity suite clean on shipped seeds")
def test_criterion_5_axiom_suite():
    for seed in (0, 1, 2):
        for report in laws.run_suite("energy", seed=seed, cases=12):
            assert report.verdict == "Pass", (
                report.law,
                seed,
                report.failures,
                report.unknowns,
            )


@record_criterion(6, "free-model identities: star exactly, omega up to bound 6")
def test_criterion_6_free_model():
    rng = random.Random(104)
    start = time.monotonic()
    alg = wordmodel.word_algebra("ab")
    report = laws.LawReport("free-model", "word")
    for _ in range(100):
        x = laws.random_regex(rng, "ab", epsilon_free=True)
        y = laws.random_regex(rng, "ab", epsilon_free=True)
        laws.check_identity(report, "conway-star", alg, x, y, 6)
        assert report.verdict == "Pass", (x, y)
        laws.check_identity(report, "product-star", alg, x, y, 6)
        assert report.verdict == "Pass", (x, y)
        group = laws.LawReport("group-C2", "word")
        laws.check_group_identity(group, "C2", alg, [x, y], 6)
        assert group.verdict == "Pass", (x, y)
    for _ in range(25):
        x = laws.random_regex(rng, "ab", epsilon_free=True)
        y = laws.random_regex(rng, "ab", epsilon_free=True)
        for name in ("omega-sum", "omega-product"):
            laws.check_identity(report, name, alg, x, y, 6)
            assert report.verdict == "Pass", (name, x, y, report.failures)
    assert time.monotonic() - start < 60.0


@record_criterion(7, "mutation sensitivity: broken star boundary is caught")
def test_criterion_7_mutation(monkeypatch):
    true_star = energyfn.star

    def broken_star(f):
        s = true_star(f)
        if s.top is None:
            return s
        # flip the inclusive/exclusive boundary of the top region
        return energyfn.top_from(s.top, not s.top_at_boundary)

    monkeypatch.setattr(energyfn, "star", broken_star)

    # criterion-1 style comparison notices the flipped boundary
    rng = random.Random(101)
    clean = True
    for _ in range(500):
        f = energylaws.random_energy_function(rng)
        if not _star_matches_witness(f, _sample_points(rng, f, 20)):
            clean = False
            break
    assert not clean, "mutated star slipped past the star-vs-iteration check"

    # criterion-5 style law checking notices it too
    g = fn_pieces(2, [(2, 2, 2)])  # f(x) = 2x - 2, fixed point at 2
    report = laws.LawReport("ax0", "energy")
    energylaws.check_ax0(report, identity(), g, identity(), [finite(2)])
    assert report.verdict == "Fail", "mutated star slipped past check_ax0"

    monkeypatch.undo()
    report = laws.LawReport("ax0", "energy")
    energylaws.check_ax0(report, identity(), g, identity(), [finite(2)])
    assert report.verdict == "Pass"


@record_criterion(8, "CLI golden outputs are bit-stable")
def test_criterion_8_cli_golden(capsys):
    for golden, argv, expected_code in GOLDEN_RUNS:
        code = cli.main(argv + ["--format", "json"])
        out = capsys.readouterr().out
        assert out == (GOLDEN / golden).read_text(), golden
        assert code == expected_code, golden
        for line in out.splitlines():
            json.loads(line)  # stays parseable, one document per line
