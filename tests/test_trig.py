import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from towb.errors import DomainError
from towb.trig import TrigPoly


def test_constant_and_eval():
    p = TrigPoly.constant(3.5)
    assert p(0.2) == 3.5
    assert np.allclose(p(np.linspace(0, 1, 7)), 3.5)


def _exp_path(p, x):
    """The general evaluation, ``exp(2 pi i f x) @ coefs``."""
    xs = np.asarray(x, dtype=float)
    out = (np.exp(2j * np.pi * np.multiply.outer(xs, p.freqs)) @ p.coefs).real
    return float(out) if out.ndim == 0 else out


def _exp_antiderivative(p, x):
    """The general antiderivative, ``exp(2 pi i f x) @ (c / (2 pi i f))``
    plus ``x c_0`` (real part)."""
    xs = np.asarray(x, dtype=float)
    nz = p.freqs != 0.0
    rows = (-1,) + (1,) * (p.coefs.ndim - 1)
    c = p.coefs[nz] / (2j * np.pi * p.freqs[nz]).reshape(rows)
    acc = np.exp(2j * np.pi * np.multiply.outer(xs, p.freqs[nz])) @ c
    return (acc + np.multiply.outer(xs, p.coefs[~nz].sum(axis=0))).real


_COEF = st.floats(-2.0, 2.0, allow_nan=False)


@st.composite
def _polys_and_points(draw):
    """A polynomial with integer and quarter frequencies, some without
    their negative partner, and coefficients with no conjugate symmetry,
    single or a batch of trials; and points as a float, a 0-d, a 1-D or a
    2-D array."""
    trials = draw(st.sampled_from([None, 1, 3]))
    freqs = draw(st.lists(st.integers(-24, 24).map(lambda k: k / 4),
                          min_size=1, max_size=10, unique=True))
    shape = (len(freqs),) + (() if trials is None else (trials,))
    re, im = (np.array(draw(st.lists(_COEF, min_size=int(np.prod(shape)),
                                     max_size=int(np.prod(shape)))))
              .reshape(shape) for _ in range(2))
    poly = TrigPoly._from_arrays(np.array(freqs), re + 1j * im)
    point = st.floats(-2.0, 2.0, allow_nan=False)
    kind = draw(st.sampled_from(["float", "0-d", "1-D", "2-D"]))
    if kind == "float":
        x = draw(point)
    elif kind == "0-d":
        x = np.array(draw(point))
    else:
        size = 6 if kind == "1-D" else 2 * 3
        x = np.array(draw(st.lists(point, min_size=size, max_size=size)))
        x = x.reshape((2, 3) if kind == "2-D" else -1)
    return poly, x


@settings(max_examples=300, deadline=None)
@given(_polys_and_points())
def test_folded_kernel_matches_exp_path(case):
    # the cosine/sine fold against the complex-exponential formula, within
    # 1e-14 of a bound on each sum: the total size of its coefficients
    p, x = case
    nz = p.freqs != 0.0
    rows = (-1,) + (1,) * (p.coefs.ndim - 1)
    anti = np.abs(p.coefs[nz] / (2 * np.pi * p.freqs[nz]).reshape(rows))
    span = np.multiply.outer(np.abs(np.asarray(x)),
                             np.abs(p.coefs[~nz]).sum(axis=0))
    for got, want, scale in (
            (p(x), _exp_path(p, x), np.abs(p.coefs).sum(axis=0)),
            (p.antiderivative_values(x), _exp_antiderivative(p, x),
             anti.sum(axis=0) + span)):
        assert np.shape(got) == np.shape(want)
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, scale))


@pytest.mark.parametrize("poly", [
    TrigPoly.constant(1.0), TrigPoly.constant(0.37),
    TrigPoly({0.0: 1.5 - 0.25j}),
    TrigPoly.from_cos_sin(np.array([0.5, 1.0, 2.75]))])
def test_constant_matches_exp_path_bitwise(poly):
    rng = np.random.default_rng(5)
    for x in (0.3, rng.random(17), rng.random((2, 33)), -rng.random(4)):
        fast, slow = poly(x), _exp_path(poly, x)
        assert type(fast) is type(slow)
        assert np.shape(fast) == np.shape(slow)
        assert np.array_equal(fast, slow)


def test_constant_keeps_nan_at_non_finite_points():
    with np.errstate(invalid="ignore"):
        vals = TrigPoly.constant(2.0)(np.array([np.nan, np.inf, 0.5]))
    assert np.isnan(vals[:2]).all() and vals[2] == 2.0


@pytest.mark.parametrize("trials", [None, 25])
def test_two_d_points_match_their_ravel_bitwise(trials):
    # the identity suite takes sup|f| over samples at a (branches, N) array
    # and reads them as the samples at its ravel()
    rng = np.random.default_rng(6)
    poly = TrigPoly.random(rng, trials=trials)
    x = rng.random((2, 1024))
    flat = poly(x.ravel())
    assert np.array_equal(poly(x), flat.reshape(x.shape + flat.shape[1:]))


def test_cos_sin_construction():
    p = TrigPoly.from_cos_sin(1.0, [1.0])
    assert p(0.0) == pytest.approx(2.0)
    assert p(0.5) == pytest.approx(0.0, abs=1e-15)
    assert p(0.25) == pytest.approx(1.0)
    q = TrigPoly.from_cos_sin(0.0, [], [1.0])
    assert q(0.25) == pytest.approx(1.0)


def test_product_matches_pointwise():
    rng = np.random.default_rng(0)
    a = TrigPoly.random(rng, degree=5)
    b = TrigPoly.random(rng, degree=4)
    xs = rng.random(50)
    assert np.allclose((a * b)(xs), a(xs) * b(xs), atol=1e-12)


def test_sum_and_scalar_ops():
    rng = np.random.default_rng(1)
    a = TrigPoly.random(rng, degree=3)
    xs = rng.random(20)
    assert np.allclose((a + 2.0)(xs), a(xs) + 2.0)
    assert np.allclose((a - a)(xs), 0.0, atol=1e-15)
    assert np.allclose((3.0 * a)(xs), 3.0 * a(xs))


def test_compose_affine_matches_pointwise():
    rng = np.random.default_rng(2)
    a = TrigPoly.random(rng, degree=6)
    xs = rng.random(40)
    c = a.compose_affine(0.5, 0.25)
    assert np.allclose(c(xs), a(0.5 * xs + 0.25), atol=1e-12)


def test_integral_integer_frequencies_vanish():
    p = TrigPoly.from_cos_sin(0.0, [1.0, 0.5], [0.3])
    assert p.integral(0.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    p2 = TrigPoly.from_cos_sin(2.0, [1.0])
    assert p2.integral(0.0, 1.0) == pytest.approx(2.0)


def test_integral_partial_range_against_quadrature():
    rng = np.random.default_rng(3)
    p = TrigPoly.random(rng, degree=4)
    lo, hi = 0.21, 0.77
    xs = np.linspace(lo, hi, 200_001)
    quad = np.trapezoid(p(xs), xs)
    assert p.integral(lo, hi) == pytest.approx(quad, abs=1e-9)


def test_fractional_frequencies_integrate_exactly():
    # cos(2 pi (x/2)) = cos(pi x); its antiderivative is sin(pi x)/pi
    half = TrigPoly.from_cos_sin(0.0, [1.0]).compose_affine(0.5, 0.0)
    assert half.integral(0.0, 0.5) == pytest.approx(1.0 / np.pi)
    assert half.integral(0.0, 1.0) == pytest.approx(0.0, abs=1e-15)


def test_prunes_negligible_terms():
    p = TrigPoly({0.0: 1.0, 3.0: 1e-20})
    assert len(p.freqs) == 1


def test_prune_is_relative_to_the_largest_coefficient():
    # coefficients all far below 1e-15 survive; one 1e-16 of the largest
    # does not, and a batch prunes each trial against its own largest
    tiny = TrigPoly({0.0: 1e-20, 1.0: 0.5e-20, -1.0: 0.5e-20, 3.0: 1e-36})
    assert list(tiny.freqs) == [-1.0, 0.0, 1.0]
    assert tiny(0.5) == 0.0 and tiny(0.0) == 2e-20
    batch = TrigPoly.stack([TrigPoly.constant(1.0), tiny])
    assert list(batch.freqs) == [-1.0, 0.0, 1.0]
    assert batch.take_trials(1).coefs.tobytes() == tiny.coefs.tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("build", [
    lambda: TrigPoly.from_cos_sin(1.0, [np.nan]),
    lambda: TrigPoly.from_cos_sin(1.0, [np.inf]),
    lambda: TrigPoly.constant(1e200) * TrigPoly.constant(1e200)],
    ids=["nan", "inf", "overflow"])
def test_non_finite_coefficients_are_refused(build):
    # unrefused, a nan coefficient integrates to nan and an inf one is
    # pruned against an infinite largest coefficient, leaving 0
    with pytest.raises(DomainError,
                       match="^trig polynomial coefficients must be finite$"):
        build()


def test_stack_keeps_each_trial_and_unequal_frequencies():
    # a batch of singles with different frequency sets: each trial evaluates
    # as its single, and a shared frequency keeps its coefficients bit for bit
    rng = np.random.default_rng(4)
    polys = [TrigPoly.random(rng, 2), TrigPoly.constant(-1.5),
             TrigPoly({3.0: 0.5j, -3.0: -0.5j}), TrigPoly.random(rng, 1)]
    batch = TrigPoly.stack(polys)
    assert batch.coefs.shape == (batch.freqs.size, len(polys))
    assert set(batch.freqs) == {-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0}
    xs = np.linspace(0.0, 1.0, 37)
    vals = batch(xs)
    for t, p in enumerate(polys):
        assert np.max(np.abs(vals[:, t] - p(xs))) < 1e-14
        rows = np.isin(batch.freqs, p.freqs)
        assert batch.coefs[rows, t].tobytes() == p.coefs.tobytes()
        assert not np.any(batch.coefs[~rows, t])
    one = TrigPoly.stack(polys[:1])
    assert one.coefs.shape == (polys[0].freqs.size, 1)
    assert np.array_equal(one.freqs, polys[0].freqs)
