import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from cmag_wkb.cseries import BiSeries
from cmag_wkb.wkb import WKBSolution

settings.register_profile(
    "repo",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repo")


def z_series(coeffs, cap):
    """The series sum_k coeffs[k] z^k (zero-padded to the cap): a BiSeries
    whose coefficients vanish off column 0."""
    c = np.zeros((cap + 1, cap + 1), dtype=complex)
    c[: len(coeffs), 0] = coeffs
    return BiSeries(c, cap)


@pytest.fixture
def constant_field_solution():
    """Builder of the WKB solution of the constant field B = 2 at the origin,
    in closed form and independent of the transport code: w = 0,
    phi = S = z w / 2, V = B/4, F = 0, J = 1, a_0 = A_0 = 1 and a_j = 0."""
    def build(cap, N, trusted_radius):
        one = BiSeries.constant(1.0, cap)
        zero = BiSeries.zeros(cap)
        phi = BiSeries.from_terms([(1, 1, 0.5)], cap)
        return WKBSolution(
            phi=phi, w_curve=zero, f=zero, S=phi,
            V=BiSeries.constant(0.5, cap), F=zero, J=one, A0=one,
            amplitudes=(one,) + (zero,) * N, mu=2.0 + 0j, N=N,
            trusted_radius=trusted_radius,
            trusted_degrees=tuple(cap - 1 - 3 * j for j in range(N + 1)),
            base_point=(0.0, 0.0), residual_maxima={},
        )

    return build
