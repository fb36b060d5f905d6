import numpy as np
import pytest

from defect_bands.spectrum import dispersion_branch

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@settings(max_examples=8, deadline=None, database=None, derandomize=True)
@given(strength=st.floats(0.36, 3.0), sign=st.sampled_from([-1.0, 1.0]))
def test_point_defect_root_property(strength, sign):
    # the bound state of an on-site eps on the unit chain sits at
    # sign(eps) sqrt(4 + eps^2); it reaches the first admissible scan omega
    # 2.03125 at |eps| = 0.355, and the smaller strengths are the strict
    # xfail cases of test_spectrum.py::test_point_defect_root_near_guard
    from tests_util import chain_with_defect
    spec, grids = chain_with_defect(sign * strength)
    branch = dispersion_branch(spec, 1, grids, spec.omega_window)
    assert [om for _, om, _ in branch.samples] == \
        [pytest.approx(sign * np.sqrt(4 + strength ** 2), abs=1e-8)]
