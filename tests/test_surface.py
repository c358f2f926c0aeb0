from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

import qweier.surface
from qweier.errors import DomainError, QweierError
from qweier.level1 import dim_m
from qweier.surface import (
    GENUS_LT_2,
    HYPERELLIPTIC,
    NOT_HYPERELLIPTIC,
    SL2Z_SIGNATURE,
    SurfaceSignature,
    deg_c,
    deg_c_prime,
    deg_div,
    dim_cusp_forms,
    dim_modular_forms,
    dim_s_h,
    gamma0_invariants,
    weierstrass_bound_holds,
)

#: The complete lists of levels with g(X_0(N)) = 0 and 1.
GENUS_0_LEVELS = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 13, 16, 18, 25}
GENUS_1_LEVELS = {11, 14, 15, 17, 19, 20, 21, 24, 27, 32, 36, 49}

#: Ogg: the nineteen levels whose X_0(N) is hyperelliptic.
HYPERELLIPTIC_LEVELS = {
    22, 23, 26, 28, 29, 30, 31, 33, 35, 37, 39, 40, 41, 46, 47, 48, 50, 59, 71,
}


signatures = st.builds(
    SurfaceSignature,
    st.integers(min_value=0, max_value=8),
    st.integers(min_value=0, max_value=8),
    st.lists(st.integers(min_value=2, max_value=7), max_size=4),
)

even_weights = st.integers(min_value=1, max_value=30).map(lambda k: 2 * k)


# -- dimension formulas ------------------------------------------------------


def test_dim_cusp_forms_sl2z_weight_12():
    assert dim_cusp_forms(SL2Z_SIGNATURE, 12) == 1


def test_dim_cusp_forms_weight_two_is_genus():
    assert dim_cusp_forms(SurfaceSignature(5, 3, (2, 2)), 2) == 5


def test_dim_cusp_forms_gamma0_34_weight_4():
    sig = gamma0_invariants(34).signature
    assert dim_cusp_forms(sig, 4) == 12


def test_dim_modular_forms_examples():
    assert dim_modular_forms(SL2Z_SIGNATURE, 12) == 2
    assert dim_modular_forms(SL2Z_SIGNATURE, 2) == 0
    assert dim_modular_forms(gamma0_invariants(34).signature, 2) == 6


def test_dims_match_level1_oracle():
    for m in range(4, 62, 2):
        assert dim_modular_forms(SL2Z_SIGNATURE, m) == dim_m(m)


def test_odd_weight_rejected():
    with pytest.raises(DomainError):
        dim_cusp_forms(SL2Z_SIGNATURE, 5)
    with pytest.raises(DomainError):
        dim_modular_forms(SL2Z_SIGNATURE, 1)


@given(signatures, even_weights)
def test_modular_minus_cusp_is_t_or_t_minus_1(sig, m):
    diff = dim_modular_forms(sig, m) - dim_cusp_forms(sig, m)
    if m == 2 and sig.cusp_count >= 1:
        assert diff == sig.cusp_count - 1
    else:
        assert diff == sig.cusp_count
    assert diff >= 0


# -- divisor degrees -----------------------------------------------------------


def test_deg_div_sl2z_weight_12_is_one():
    assert deg_div(SL2Z_SIGNATURE, 12) == 1


def test_deg_div_gamma0_34_weight_2():
    assert deg_div(gamma0_invariants(34).signature, 2) == 9


def test_deg_div_genus_one_no_cusps_weight_2():
    assert deg_div(SurfaceSignature(1, 0, ()), 2) == 0


def test_deg_c_prime_and_c_sl2z():
    assert deg_c_prime(SL2Z_SIGNATURE, 12) == 1
    assert deg_c(SL2Z_SIGNATURE, 12) == 0


def test_deg_c_weight_two_is_canonical_degree():
    sig = SurfaceSignature(2, 0, ())
    assert deg_c_prime(sig, 2) == 2
    assert deg_c(sig, 2) == 2


@given(signatures, even_weights)
def test_c_prime_minus_c_is_cusp_count_for_weight_4_up(sig, m):
    if m < 4:
        return
    assert deg_c_prime(sig, m) - deg_c(sig, m) == sig.cusp_count


# -- dim_s_h ---------------------------------------------------------------------


def test_dim_s_h_cases():
    assert dim_s_h(SurfaceSignature(0, 3, ()), 8) == 0
    assert dim_s_h(SurfaceSignature(3, 4, (2, 2)), 2) == 3
    assert dim_s_h(SurfaceSignature(1, 1, ()), 10) == 1
    assert dim_s_h(SurfaceSignature(3, 4, (2, 2)), 4) == 6
    assert dim_s_h(SurfaceSignature(5, 4, ()), 4) == 12


# -- Weierstrass bound -------------------------------------------------------------


def test_bound_fails_for_gamma0_34_weight_4():
    assert weierstrass_bound_holds(gamma0_invariants(34).signature, 4) is False


def test_bound_eventually_holds_with_elliptic_points():
    sig = SurfaceSignature(3, 2, (2, 2, 2, 3))
    assert any(weierstrass_bound_holds(sig, m) for m in range(4, 200, 2))


def test_bound_genus_zero_evaluated_literally():
    sig = SurfaceSignature(0, 1, (2, 3))
    # m/2 - m <= dim S_m - 0
    assert weierstrass_bound_holds(sig, 12) is True


# -- gamma0_invariants ---------------------------------------------------------------


def test_genus_lists_complete():
    for N in range(1, 80):
        g = gamma0_invariants(N).signature.genus
        assert (g == 0) == (N in GENUS_0_LEVELS)
        assert (g == 1) == (N in GENUS_1_LEVELS)


def test_hyperelliptic_table():
    for N in range(1, 120):
        inv = gamma0_invariants(N)
        if inv.signature.genus < 2:
            assert inv.hyperelliptic_status == GENUS_LT_2
        elif N in HYPERELLIPTIC_LEVELS:
            assert inv.hyperelliptic_status == HYPERELLIPTIC
        else:
            assert inv.hyperelliptic_status == NOT_HYPERELLIPTIC


def test_non_integral_genus_is_a_typed_error(monkeypatch):
    # A wrong cusp count (one cusp per divisor of 9 = three cusps) makes the
    # genus formula give 1/2.  The guard must survive python -O, so it is a
    # QweierError rather than an assert.
    monkeypatch.setattr(qweier.surface, "_euler_phi", lambda n: 1)
    with pytest.raises(QweierError, match="non-integer 1/2"):
        gamma0_invariants(9)


def test_invariants_n34():
    inv = gamma0_invariants(34)
    assert inv.index == 54
    assert inv.nu2 == 2 and inv.nu3 == 0
    assert inv.signature == SurfaceSignature(3, 4, (2, 2))


def test_invariants_n11_and_n35():
    assert gamma0_invariants(11).hyperelliptic_status == GENUS_LT_2
    inv35 = gamma0_invariants(35)
    assert inv35.signature.genus == 3
    assert inv35.hyperelliptic_status == HYPERELLIPTIC


def test_signature_carries_elliptic_orders():
    inv = gamma0_invariants(2)
    assert inv.signature.elliptic_orders == (2,) * inv.nu2 + (3,) * inv.nu3


def test_level_must_be_positive():
    with pytest.raises(DomainError):
        gamma0_invariants(0)


def test_index_known_values():
    # index of Gamma_0(p) is p + 1
    for p in (2, 3, 5, 7, 11, 13):
        assert gamma0_invariants(p).index == p + 1
    assert gamma0_invariants(60).index == 144


def test_cusp_counts_known_values():
    for N, t in [(1, 1), (4, 3), (34, 4), (54, 12), (60, 12)]:
        assert gamma0_invariants(N).signature.cusp_count == t


def test_elliptic_orders_validated():
    with pytest.raises(DomainError):
        SurfaceSignature(1, 1, (1,))
