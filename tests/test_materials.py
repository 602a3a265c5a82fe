import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import slow_axis_index
from xsplice import (
    CompensatorMaterial,
    FiberSpec,
    SellmeierModel,
    WavelengthRangeError,
    birefringence,
    index,
    load_materials,
)
from xsplice.materials import _sellmeier, index_and_group_index


def test_silica_index_at_771(silica):
    # oracle: direct Sellmeier arithmetic with the Malitson coefficients,
    # lambda = 0.771 um, evaluated term by term
    lam2 = 0.771**2
    n2 = 1.0
    for b, c in ((0.6961663, 0.0684043**2), (0.4079426, 0.1162414**2),
                 (0.8974794, 9.896161**2)):
        n2 += b * lam2 / (lam2 - c)
    assert index(silica, 771.0) == pytest.approx(np.sqrt(n2), abs=1e-12)
    assert index(silica, 771.0) == pytest.approx(1.4539, abs=1e-4)


def test_index_is_pure(silica):
    assert index(silica, 690.5) == index(silica, 690.5)


def test_normal_dispersion(silica):
    assert index(silica, 670.0) > index(silica, 905.0)


def test_index_vectorized(silica):
    lams = np.array([670.0, 771.0, 905.0])
    vals = index(silica, lams)
    assert vals.shape == (3,)
    assert vals[0] == index(silica, 670.0)
    # a 2-D input keeps its shape, element by element
    grid = np.array([[670.0, 771.0], [905.0, 1310.0], [700.0, 1550.0]])
    assert np.array_equal(index(silica, grid), index(silica, grid.ravel()).reshape(3, 2))
    # the caller's array is left as it was
    before = grid.copy()
    index(silica, grid)
    assert np.array_equal(grid, before)
    # a term-less model is n = 1 in the input's shape, and a float for a scalar
    vacuum = SellmeierModel(terms=(), valid_range_nm=(200.0, 4000.0))
    assert np.array_equal(index(vacuum, grid), np.ones((3, 2)))
    assert type(index(vacuum, 771.0)) is float and index(vacuum, 771.0) == 1.0


def test_out_of_range_raises(silica):
    with pytest.raises(WavelengthRangeError) as err:
        index(silica, 100.0)
    assert "210" in str(err.value)
    with pytest.raises(WavelengthRangeError) as err:
        index(silica, 5000.0)
    assert "3710" in str(err.value)


def test_range_check_sees_past_a_nan(silica):
    # a NaN defeats a min/max test and is itself out of range; the first
    # offender is reported
    with pytest.raises(WavelengthRangeError, match="wavelength 5000 nm .*bound: 3710 nm"):
        index(silica, np.array([670.0, 5000.0, np.nan, 100.0]))
    for lam in (np.nan, [700.0, np.nan], [np.nan, 670.0]):
        with pytest.raises(WavelengthRangeError, match="wavelength nan nm is not a number "
                                                       r"\(validity range \[210, 3710\] nm"):
            index(silica, lam)
    assert index(silica, np.empty(0)).shape == (0,)


def test_slow_axis_zero_birefringence(silica):
    fiber = FiberSpec(0.13, 0.0, 0.01, silica)
    assert slow_axis_index(fiber, 771.0) == index(silica, 771.0)


def test_slow_axis_additive(silica):
    fiber = FiberSpec(0.13, 3.5e-4, 0.01, silica)
    assert slow_axis_index(fiber, 771.0) == index(silica, 771.0) + 3.5e-4


def test_slow_axis_with_calibrated_b(paper_fiber):
    diff = slow_axis_index(paper_fiber, 771.0) - index(paper_fiber.core_model, 771.0)
    assert diff == pytest.approx(paper_fiber.birefringence, abs=1e-15)


def test_quartz_birefringence_at_670(quartz_material):
    # oracle: n_e - n_o evaluated directly from the shipped coefficient
    # pairs gives 0.0090046 at 670 nm
    dn = birefringence(quartz_material, 670.0)
    assert dn == pytest.approx(0.0091, abs=2.5e-4)
    assert dn == pytest.approx(0.009004550158, abs=1e-9)


def test_identical_rays_give_zero(silica):
    mat = CompensatorMaterial(ordinary=silica, extraordinary=silica)
    assert birefringence(mat, 700.0) == 0.0


def test_quartz_birefringence_decreasing(quartz_material):
    assert birefringence(quartz_material, 670.0) > birefringence(quartz_material, 905.0)


def test_all_models_physical_over_range(materials_db):
    for name, model in materials_db.items():
        lo, hi = model.valid_range_nm
        grid = np.linspace(lo, hi, 1000)
        vals = index(model, grid)
        assert np.all(np.isfinite(vals)), name
        assert np.all(vals > 1.0), name


@settings(derandomize=True, max_examples=60, deadline=None)
@given(name=st.sampled_from(["fused_silica", "quartz_o", "quartz_e"]),
       frac=st.floats(0.0, 1.0), group=st.booleans())
def test_sellmeier_float_is_the_array_path(materials_db, name, frac, group):
    # a float stays a Python float, bit for bit the array path's element
    model = materials_db[name]
    lo, hi = model.valid_range_nm
    k = 1000.0 / (lo + frac * (hi - lo))
    scalar = _sellmeier(model, k * k, group)
    array = _sellmeier(model, np.array([k * k]), group)
    if not group:
        scalar, array = (scalar,), (array,)
    for x, a in zip(scalar, array):
        assert type(x) is float
        assert np.array([x]).tobytes() == a.tobytes()


def test_constant_index_keeps_the_input_kind():
    # only C = 0 terms: n^2 = 1.21 everywhere, in the shape of the input
    model = SellmeierModel(terms=((0.21, 0.0),), valid_range_nm=(200.0, 4000.0))
    v = np.array([[1.0, 2.0], [3.0, 4.0]])
    n, n_g = _sellmeier(model, v, group=True)
    assert isinstance(n, np.ndarray) and n.shape == v.shape and np.all(n == 1.1)
    assert np.array_equal(n_g, n)
    assert type(_sellmeier(model, 2.0)) is float and _sellmeier(model, 2.0) == 1.1
    # n^2 < 0 is NaN on floats, as on arrays, and raises nothing
    unphysical = SellmeierModel(terms=((-2.0, 0.0),), valid_range_nm=(200.0, 4000.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(_sellmeier(unphysical, 2.0))


def test_slow_axis_is_fast_plus_b_bitwise(paper_fiber):
    grid = np.linspace(600.0, 1000.0, 101)
    slow = slow_axis_index(paper_fiber, grid)
    fast = index(paper_fiber.core_model, grid)
    assert np.all(slow == fast + paper_fiber.birefringence)


def test_quartz_birefringence_window(quartz_material):
    grid = np.linspace(600.0, 1000.0, 1000)
    dn = birefringence(quartz_material, grid)
    assert np.all(dn >= 0.008)
    assert np.all(dn <= 0.010)


def test_fiber_validation(silica):
    for bad in (-0.1, np.nan, np.inf):
        with pytest.raises(ValueError):
            FiberSpec(bad, 3e-4, 0.01, silica)
        with pytest.raises(ValueError):
            FiberSpec(0.13, bad, 0.01, silica)
        with pytest.raises(ValueError):
            FiberSpec(0.13, 3e-4, bad, silica)


def test_sellmeier_validation():
    with pytest.raises(ValueError):
        SellmeierModel(terms=((1.0, 0.1),), valid_range_nm=(900.0, 300.0))
    # a pole (here at 500 nm) inside the range would divide by zero there
    with pytest.raises(ValueError, match="pole at 500 nm"):
        SellmeierModel(terms=((1.0, 0.01), (1.0, 0.25)), valid_range_nm=(400.0, 900.0))
    # an empty range, and a pole exactly on either bound, are rejected too
    with pytest.raises(ValueError, match="invalid validity range"):
        SellmeierModel(terms=((1.0, 0.01),), valid_range_nm=(500.0, 500.0))
    for bounds in ((500.0, 900.0), (300.0, 500.0)):
        with pytest.raises(ValueError, match="pole at 500 nm"):
            SellmeierModel(terms=((1.0, 0.25),), valid_range_nm=bounds)


def test_validity_bounds_are_inside_the_range():
    # "[lo, hi]": a wavelength exactly on a bound is accepted, alone or
    # beside a wavelength outside the range, which alone is named
    model = SellmeierModel(terms=((1.0, 0.01),), valid_range_nm=(400.0, 900.0))
    for wavelengths in (400.0, 900.0, [400.0, 900.0]):
        assert np.all(np.isfinite(index(model, wavelengths)))
    for on_bound, outside in ((400.0, 950.0), (900.0, 350.0)):
        with pytest.raises(WavelengthRangeError, match=f"^wavelength {outside:g} nm outside"):
            index(model, [on_bound, outside])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(name=st.sampled_from(["fused_silica", "quartz_o", "quartz_e"]), frac=st.floats(0.0, 1.0))
def test_float_wavelength_is_the_array_path(materials_db, name, frac):
    # a Python float skips numpy and gives floats, bit for bit the values of
    # a 0-d and a one-element array
    model = materials_db[name]
    lo, hi = model.valid_range_nm
    lam = min(lo + frac * (hi - lo), hi)
    got = (index(model, lam), *index_and_group_index(model, lam))
    assert all(type(x) is float for x in got)
    for arr in (np.array(lam), np.array([lam])):
        want = np.array([index(model, arr), *index_and_group_index(model, arr)]).ravel()
        assert np.array(got).tobytes() == want.tobytes()


_BOUNDED = SellmeierModel(terms=((1.0, 0.01),), valid_range_nm=(400.0, 900.0), name="bounded")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.0, -650.0,
                                 math.nextafter(400.0, 0.0), math.nextafter(900.0, math.inf),
                                 1e300])
@pytest.mark.parametrize("fn", [index, index_and_group_index])
def test_invalid_float_fails_as_an_array(fn, bad):
    # the float path names the bad value and the bound in the array path's words
    with pytest.raises(Exception) as as_float:
        fn(_BOUNDED, bad)
    for arr in (np.array(bad), np.array([bad]), [650.0, bad]):
        with pytest.raises(Exception) as as_array:
            fn(_BOUNDED, arr)
        assert type(as_float.value) is type(as_array.value) is WavelengthRangeError
        assert str(as_float.value) == str(as_array.value)
    if math.isnan(bad):
        assert str(as_float.value) == ("wavelength nan nm is not a number (validity range "
                                       "[400, 900] nm of bounded)")
    else:
        bound = 400 if bad < 400.0 else 900
        assert str(as_float.value).endswith(f"(violated bound: {bound} nm)")


def test_float_on_a_bound_is_accepted():
    # "[lo, hi]" holds on the float path too: both bounds pass, and one ulp
    # past either fails
    for lam in (400.0, 900.0):
        assert index(_BOUNDED, lam) == index(_BOUNDED, np.array(lam))
        assert index_and_group_index(_BOUNDED, lam) == index_and_group_index(_BOUNDED,
                                                                     np.array(lam))
    for lam in (math.nextafter(400.0, 0.0), math.nextafter(900.0, math.inf)):
        with pytest.raises(WavelengthRangeError, match="outside"):
            index(_BOUNDED, lam)


def test_materials_override_via_path(tmp_path, silica):
    db = {"fused_silica": {"terms": [[1.1, 0.0]], "valid_range_nm": [300, 2000],
                           "citation": "test"}}
    path = tmp_path / "mat.json"
    path.write_text(json.dumps(db))
    loaded = load_materials(str(path))
    assert set(loaded) == {"fused_silica"}
    # constant-n^2 model: n = sqrt(1 + 1.1) everywhere
    assert index(loaded["fused_silica"], 700.0) == pytest.approx(np.sqrt(2.1), abs=1e-12)


def test_malformed_material_entry(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"broken": {"terms": "nope"}}))
    with pytest.raises(ValueError):
        load_materials(str(path))
