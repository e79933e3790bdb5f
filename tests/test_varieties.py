import itertools
from fractions import Fraction as Fr

import pytest

from meyersig import (
    CISpec,
    ExcludedCase,
    GenusZero,
    InvalidInput,
    NegativeGenus,
    NonIntegralGenus,
    NonPositiveDegDX,
    SurfaceInvariants,
    UnknownName,
    ci_surface_invariants,
    generic_surface_lasso,
    hyperplane_genus,
    named_presets,
    resolve_preset,
    stratum_codim,
    veronese_ci_lasso,
)
from meyersig.varieties import parse_degrees


# --- generic surface --------------------------------------------------------


def test_segre_preset_values():
    preset = resolve_preset("segre33")
    assert preset.invariants == SurfaceInvariants(sign=0, chi=4, deg=18, genus=4)
    assert preset.report.deg_DX == 34
    assert preset.report.phi == Fr(-9, 17)


def test_generic_surface_zero_numerator():
    report = generic_surface_lasso(SurfaceInvariants(sign=7, chi=5, deg=7, genus=2))
    assert report.phi == 0


def test_generic_surface_cubic():
    report = generic_surface_lasso(SurfaceInvariants(sign=-5, chi=9, deg=3, genus=1))
    assert report.deg_DX == 12
    assert report.phi == Fr(-2, 3)


def test_generic_surface_rejects_genus_zero():
    with pytest.raises(GenusZero):
        generic_surface_lasso(SurfaceInvariants(sign=1, chi=4, deg=4, genus=0))


def test_generic_surface_rejects_nonpositive_discriminant_degree():
    with pytest.raises(NonPositiveDegDX):
        generic_surface_lasso(SurfaceInvariants(sign=0, chi=-20, deg=2, genus=1))


# --- complete intersections -------------------------------------------------


def test_ci_cubic_surface():
    inv, report = ci_surface_invariants(1, [3])
    assert (inv.sign, inv.chi, inv.deg, inv.genus) == (-5, 9, 3, 1)
    assert report.deg_DX == 12
    assert report.phi == Fr(-2, 3)


@pytest.mark.parametrize("n1", [3, 4, 5, 6])
def test_ci_hypersurface_discriminant_degree(n1):
    _, report = ci_surface_invariants(1, [n1])
    assert report.deg_DX == n1 * (n1 - 1) ** 2


def test_ci_two_quadrics_is_the_genus_boundary():
    inv, report = ci_surface_invariants(2, [2, 2])
    assert inv.genus == 1  # section Euler characteristic 0
    assert report.phi == Fr(2 - 8, 3 * (3 + 8 - 12 + 4))
    assert report.phi == Fr(-2, 3)
    assert generic_surface_lasso(inv).phi == report.phi
    assert generic_surface_lasso(inv).deg_DX == report.deg_DX


def test_ci_rejects_single_quadric():
    with pytest.raises(ExcludedCase):
        ci_surface_invariants(1, [2])


def test_ci_rejects_bad_degree_data():
    with pytest.raises(InvalidInput):
        ci_surface_invariants(2, [3])
    with pytest.raises(InvalidInput):
        ci_surface_invariants(1, [1])
    with pytest.raises(ExcludedCase):
        ci_surface_invariants(0, [])


def test_ci_agrees_with_generic_route():
    for m in (1, 2, 3):
        for degrees in itertools.product((2, 3, 4), repeat=m):
            if m == 1 and degrees == (2,):
                continue
            inv, report = ci_surface_invariants(m, degrees)
            generic = generic_surface_lasso(inv)
            assert generic.phi == report.phi
            assert generic.deg_DX == report.deg_DX


# --- Veronese route ---------------------------------------------------------


def test_veronese_p4_d2():
    report = veronese_ci_lasso(CISpec(0, (), 4, 2))
    assert report.alpha == Fr(-5)
    assert report.beta == 10
    assert report.phi == Fr(-1, 2)
    assert report.deg_DX == 40


def test_veronese_plane_cubics():
    report = veronese_ci_lasso(CISpec(0, (), 2, 3))
    assert report.alpha == Fr(-8)
    assert report.beta == 12
    assert report.phi == Fr(-2, 3)
    assert report.deg_DX == 12


def test_veronese_matches_ci_at_d1():
    for m in (1, 2, 3):
        for degrees in itertools.product((2, 3, 4), repeat=m):
            if m == 1 and degrees == (2,):
                continue
            _, ci_report = ci_surface_invariants(m, degrees)
            v_report = veronese_ci_lasso(CISpec(m, degrees, n=2, d=1))
            assert v_report.phi == ci_report.phi
            assert v_report.deg_DX == ci_report.deg_DX
            assert v_report.alpha == ci_report.alpha
            assert v_report.beta == ci_report.beta


def test_veronese_excluded_tuples():
    with pytest.raises(ExcludedCase):
        CISpec(1, (2,), 2, 1)
    with pytest.raises(ExcludedCase):
        CISpec(0, (), 2, 2)
    with pytest.raises(ExcludedCase):
        CISpec(0, (), 4, 1)


def test_veronese_discriminant_degree_positive_on_a_sweep():
    for m in (0, 1, 2):
        for degrees in itertools.product((2, 3), repeat=m):
            for n in (2, 3, 4):
                for d in (1, 2, 3):
                    try:
                        spec = CISpec(m, degrees, n, d)
                    except ExcludedCase:
                        continue
                    report = veronese_ci_lasso(spec)
                    assert report.deg_DX > 0
                    assert report.beta > 0


def test_phi_denominator_divides_discriminant_degree():
    for m in (1, 2):
        for degrees in itertools.product((2, 3, 4), repeat=m):
            if m == 1 and degrees == (2,):
                continue
            _, report = ci_surface_invariants(m, degrees)
            assert report.deg_DX % report.phi.denominator == 0
    for n, d in [(2, 3), (3, 2), (4, 2)]:
        report = veronese_ci_lasso(CISpec(0, (), n, d))
        assert report.deg_DX % report.phi.denominator == 0


def test_alpha_negative_and_alpha_plus_beta_positive():
    # the unboundedness hypothesis (phi not 0 or -1) holds on the whole family
    for m in (0, 1, 2):
        for degrees in itertools.product((2, 3), repeat=m):
            for n in (2, 3):
                for d in (1, 2, 3):
                    try:
                        spec = CISpec(m, degrees, n, d)
                    except ExcludedCase:
                        continue
                    report = veronese_ci_lasso(spec)
                    assert report.alpha < 0
                    assert report.alpha + report.beta > 0


# --- adjunction helpers -----------------------------------------------------


def test_hyperplane_genus_values():
    assert hyperplane_genus(12, 18) == 4  # bidegree (3,3) on the quadric
    assert hyperplane_genus(7, 7) == 1
    assert hyperplane_genus(9, 7) == 0


def test_hyperplane_genus_errors():
    with pytest.raises(NonIntegralGenus):
        hyperplane_genus(8, 7)
    with pytest.raises(NegativeGenus):
        hyperplane_genus(11, 7)
    with pytest.raises(InvalidInput):
        hyperplane_genus(2, 0)


@pytest.mark.parametrize("i,codim", [(1, 0), (2, 2), (3, 6), (4, 12)])
def test_stratum_codim(i, codim):
    c, correction = stratum_codim(i)
    assert c == codim
    assert correction == -codim


def test_stratum_codim_rejects_nonpositive():
    with pytest.raises(InvalidInput):
        stratum_codim(0)


# --- preset registry --------------------------------------------------------


def test_named_presets_listing():
    assert named_presets() == ("segre33", "veronese-p4-d2")


def test_preset_keys_parse():
    p = resolve_preset("ci:1:3")
    assert p.report.deg_DX == 12
    p = resolve_preset("veronese-ci:0::4:2")
    assert p.report.phi == Fr(-1, 2)
    with pytest.raises(UnknownName):
        resolve_preset("nonsense")
    with pytest.raises(InvalidInput):
        resolve_preset("ci:1")
    with pytest.raises(InvalidInput):
        resolve_preset("veronese-ci:0::4:x")


@pytest.mark.parametrize(
    "key",
    ["ci:1:\uff13", "ci:1:1_0", "ci:\uff11:3", "veronese-ci:0::\uff14:2", "veronese-ci:0::4:2_0"],
)
def test_preset_keys_use_the_ascii_integer_grammar(key):
    with pytest.raises(InvalidInput):
        resolve_preset(key)


@pytest.mark.parametrize("token", ["\uff13", "1_0", "2, 3", "3,", "+"])
def test_parse_degrees_rejects_non_ascii_integers(token):
    with pytest.raises(InvalidInput):
        parse_degrees(token)
    assert parse_degrees("2,+3") == (2, 3)
