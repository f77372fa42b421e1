"""Acceptance suite: one test per shipped guarantee, in release order.

Each test delegates to the matching check in ``hypersum.verification`` and
surfaces its measured detail string on failure, so ``pytest -v`` reads as a
pass/fail line per guarantee.
"""

from hypersum import verification

SEED = verification.DEFAULT_SEED


def _check(result, budget=None):
    if budget is not None:
        assert result.seconds < budget, (
            f"{result.name}: took {result.seconds:.2f}s, budget {budget}s")
    assert result.ok, f"{result.name}: {result.detail}"


def test_1_truncation_error_grid_within_one_percent():
    _check(verification.check_table_errors(), budget=10.0)


def test_2_engine_matches_oracle_on_random_parameters():
    _check(verification.check_engine_vs_oracle(seed=SEED, cases=500),
           budget=60.0)


def test_3_landau_routes_agree_pairwise():
    # The exact routes meet 1e-11 pairwise; the depth-10 rearranged form is
    # held to its own depth-8-to-10 truncation estimate, since at index 10
    # its true error (1.6e-7 relative) is the formula's, not the code's.
    _check(verification.check_landau_agreement())


def test_4_remainder_bound_covers_and_scales():
    _check(verification.check_remainder_bound())


def test_5_coefficient_tables_exact():
    _check(verification.check_coefficient_tables())


def test_6_degenerate_form_matches_oracle():
    _check(verification.check_degenerate_conjecture(seed=SEED))


def test_7_asymptotic_error_orders_measured():
    _check(verification.check_asymptotic_orders())


def test_8_kernel_recurrences_and_conjugation():
    _check(verification.check_kernel_properties(seed=SEED))
