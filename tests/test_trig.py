import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from towb import trig
from towb.errors import DomainError
from towb.trig import TrigPoly


def test_constant_and_eval():
    p = TrigPoly.constant(3.5)
    assert p(0.2) == 3.5
    assert np.allclose(p(np.linspace(0, 1, 7)), 3.5)


def _exp_path(p, x):
    """The general evaluation, ``coefs @ exp(2 pi i f x)``."""
    xs = np.asarray(x, dtype=float)
    out = np.tensordot(p.coefs, np.exp(
        2j * np.pi * np.multiply.outer(p.freqs, xs)), axes=1).real
    return float(out) if out.ndim == 0 else out


def _exp_antiderivative(p, x):
    """The general antiderivative, ``exp(2 pi i f x) @ (c / (2 pi i f))``
    plus ``x c_0`` (real part)."""
    xs = np.asarray(x, dtype=float)
    nz = p.freqs != 0.0
    c = p.coefs[..., nz] / (2j * np.pi * p.freqs[nz])
    acc = np.tensordot(c, np.exp(
        2j * np.pi * np.multiply.outer(p.freqs[nz], xs)), axes=1)
    return (acc + np.multiply.outer(p.coefs[..., ~nz].sum(axis=-1), xs)).real


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
    shape = (() if trials is None else (trials,)) + (len(freqs),)
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
    anti = np.abs(p.coefs[..., nz] / (2 * np.pi * p.freqs[nz]))
    span = np.multiply.outer(np.abs(p.coefs[..., ~nz]).sum(axis=-1),
                             np.abs(np.asarray(x)))
    per_trial = (slice(None),) * (p.coefs.ndim - 1) + (None,) * np.ndim(x)
    for got, want, scale in (
            (p(x), _exp_path(p, x), np.abs(p.coefs).sum(axis=-1)[per_trial]),
            (p.antiderivative_values(x), _exp_antiderivative(p, x),
             anti.sum(axis=-1)[per_trial] + span)):
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
    assert np.array_equal(poly(x), flat.reshape(flat.shape[:-1] + x.shape))


def _one_product_sum(xs, f, rows, scale, shift):
    """The cosine/sine sum as one matrix product over all points."""
    k = f.size
    basis = np.empty((xs.size, 2 * k + 1))
    theta = np.multiply.outer(xs.ravel(), f) * (2 * np.pi)
    np.cos(theta, out=basis[:, :k])
    np.sin(theta, out=basis[:, k:-1])
    np.multiply(xs.ravel(), scale, out=basis[:, -1])
    basis[:, -1] += shift
    return (basis @ rows).T.reshape(rows.shape[1:] + xs.shape)


@pytest.mark.parametrize("trials", [None, 25])
def test_evaluation_under_basis_budget_is_one_product(trials):
    # values and memory layout of a call under BASIS_MAX, which later BLAS
    # products read, are those of the single product
    rng = np.random.default_rng(8)
    poly = TrigPoly.random(rng, trials=trials)
    x = rng.random((2, 2048))
    poly(x)
    want = _one_product_sum(x, *poly._fold, 0.0, 1.0)
    got = poly(x)
    assert got.tobytes() == want.tobytes()
    assert got.strides == want.strides


@pytest.mark.parametrize("scale, shift", [(0.0, 1.0), (1.0, 0.0)])
@pytest.mark.parametrize("trials", [None, 25])
def test_no_frequency_sum_matches_basis_product_bitwise(trials, scale, shift):
    # with no frequency the basis is the one column scale x + shift, and
    # the product the single multiplication by rows[-1]: the same bytes and
    # layout at a scalar, a 0-d, 1-d and 2-d array and at nan and inf, for
    # the evaluation (0 x + 1) and the antiderivative (x + 0)
    rng = np.random.default_rng(12)
    const = rng.uniform(-2.0, 2.0, () if trials is None else (trials,))
    poly = TrigPoly.from_cos_sin(const)
    assert poly.freqs.tolist() == [0.0]
    f, rows = poly._folded(poly.coefs)
    assert f.size == 0
    for x in (0.3, np.array(0.7), rng.random(17), rng.random((2, 33)),
              np.array([np.nan, np.inf, -np.inf, 0.5])):
        xs = np.asarray(x, dtype=float)
        with np.errstate(invalid="ignore"):
            got = trig._trig_sum(xs, f, rows, scale, shift)
            want = _one_product_sum(xs, f, rows, scale, shift)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert got.strides == want.strides


def test_constant_values_do_not_depend_on_their_batch():
    rng = np.random.default_rng(13)
    poly = TrigPoly.from_cos_sin(rng.uniform(-1.0, 1.0, 4))
    x = rng.random(50)
    whole = poly(x)
    for part in (x[:1], x[7:20], x[::3]):
        piece = poly(part)
        assert piece.tobytes() == whole[:, np.isin(x, part)].tobytes()


@pytest.mark.parametrize("trials", [None, 3])
def test_blocked_evaluation_matches_one_product(trials, monkeypatch):
    # 17 terms in blocks of 64 // 35 = 1 and 512 // 35 = 14 points
    rng = np.random.default_rng(9)
    poly = TrigPoly.random(rng, degree=17, trials=trials)
    x = rng.random(1000)
    want = poly(x)
    for budget in (64, 512):
        monkeypatch.setattr(trig, "BASIS_MAX", budget)
        got = TrigPoly._from_arrays(poly.freqs, poly.coefs)(x)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13


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
    assert batch.coefs.shape == (len(polys), batch.freqs.size)
    assert set(batch.freqs) == {-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0}
    xs = np.linspace(0.0, 1.0, 37)
    vals = batch(xs)
    for t, p in enumerate(polys):
        assert np.max(np.abs(vals[t] - p(xs))) < 1e-14
        cols = np.isin(batch.freqs, p.freqs)
        assert batch.coefs[t, cols].tobytes() == p.coefs.tobytes()
        assert not np.any(batch.coefs[t, ~cols])
    one = TrigPoly.stack(polys[:1])
    assert one.coefs.shape == (1, polys[0].freqs.size)
    assert np.array_equal(one.freqs, polys[0].freqs)


# -- the np.add.at merge, kept as the oracle of the sequential group sums --


def _assign_add_at(freqs, coefs):
    """``_assign`` with the coefficients of equal frequencies added into
    zeros by ``np.add.at`` after a stable sort: the frequencies and
    coefficients it keeps.  It works frequency-major, on ``coefs.T``."""
    coefs = coefs.T
    order = np.argsort(freqs, kind="stable")
    freqs, coefs = freqs[order], coefs[order]
    first = np.ones(freqs.shape, dtype=bool)
    first[1:] = freqs[1:] != freqs[:-1]
    acc = np.zeros((np.count_nonzero(first),) + coefs.shape[1:],
                   dtype=complex)
    np.add.at(acc, np.cumsum(first) - 1, coefs)
    size = np.abs(acc)
    acc[size <= 1e-15 * size.max(axis=0, initial=0.0)] = 0.0
    nonzero = acc != 0.0
    keep = nonzero if acc.ndim == 1 else nonzero.any(axis=1)
    if not keep.any():
        return np.zeros(1), np.zeros((1,) + coefs.shape[1:], dtype=complex).T
    return freqs[first][keep], acc[keep].T


def _folded_add_at(p, coefs):
    """``_folded`` with the cosine and sine rows added by ``np.add.at``,
    frequency-major on ``coefs.T`` as ``_folded``'s rows are."""
    coefs = coefs.T
    nz = p.freqs != 0.0
    size = np.abs(p.freqs[nz])
    f = np.unique(size)
    at = np.searchsorted(f, size)
    rest = coefs[nz]
    rows = np.zeros((2 * f.size + 1,) + coefs.shape[1:])
    np.add.at(rows, at, rest.real)
    sign = -np.sign(p.freqs[nz]).reshape((-1,) + (1,) * (coefs.ndim - 1))
    np.add.at(rows, f.size + at, rest.imag * sign)
    rows[-1] = coefs[~nz].real.sum(axis=0)
    return f, rows


@pytest.mark.parametrize("seed", range(12))
def test_merge_matches_add_at_bytewise(seed, monkeypatch):
    # every merge of random product, compose, sum and scaling chains, single
    # and batched, keeps the frequencies and coefficients of the np.add.at
    # merge byte for byte, and so does the cosine/sine fold
    merges = []
    assign = TrigPoly._assign

    def recording(self, freqs, coefs):
        given = freqs.copy(), np.array(coefs)
        assign(self, freqs, coefs)
        merges.append((self, *given))

    monkeypatch.setattr(TrigPoly, "_assign", recording)
    rng = np.random.default_rng(seed)
    trials = [None, 3, 25][seed % 3]
    p = TrigPoly.random(rng, int(rng.integers(0, 9)), trials=trials)
    q = TrigPoly.random(rng, int(rng.integers(0, 9)))
    signed_zero = TrigPoly({0.0: complex(-0.0, 1.0), 2.0: complex(0.5, -0.0)})
    for _ in range(6):
        step = rng.integers(0, 6)
        if step == 0:
            p = p * q
        elif step == 1:
            p = p.compose_affine(float(rng.choice([0.5, 1 / 3, 2.0, -0.5])),
                                 float(rng.uniform()))
        elif step == 2:
            p = p + q * float(rng.uniform(-1.0, 1.0))
        elif step == 3:
            p = -p * signed_zero
        elif step == 4:
            p = p - p.compose_affine(1.0, 0.0) * 0.5
        else:
            p = p * float(rng.uniform(-1.0, 1.0)) + signed_zero
    if trials:
        p.take_trials(slice(1, None))
    assert len(merges) > 6
    for poly, freqs, coefs in merges:
        want_f, want_c = _assign_add_at(freqs, coefs)
        assert poly.freqs.tobytes() == want_f.tobytes()
        assert poly.coefs.tobytes() == want_c.tobytes()
        for got, want in zip(poly._folded(poly.coefs),
                             _folded_add_at(poly, poly.coefs)):
            assert got.tobytes() == want.tobytes()
