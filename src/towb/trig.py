"""Exact arithmetic for finite trigonometric sums.

A :class:`TrigPoly` is a finite combination ``sum_k c_k * exp(2*pi*i*f_k*x)``
with conjugate-symmetric coefficients, so it evaluates to a real number up to
rounding.  Frequencies may be arbitrary reals: substituting a branch map
``x -> a*x + b`` scales them by ``a``, which produces fractional frequencies
for contracting branches.

Values are the real part of that sum, taken as a real cosine/sine sum: each
pair ``+-f`` folds into ``A_f cos(2 pi f x) + B_f sin(2 pi f x)`` with
``A_f = Re c_f + Re c_-f`` and ``B_f = Im c_-f - Im c_f``.  The fold does not
assume conjugate symmetry; a frequency without its partner pairs with a
zero coefficient.

The point of carrying these objects around instead of sampled tables is that
products, affine substitution and antiderivatives are all closed-form, so
operator identities and integrals against piecewise-constant densities can be
checked to rounding accuracy instead of quadrature accuracy.

All instances are immutable and safe to share between threads; the fold
is computed on first use and never changes.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

_TWO_PI_I = 2j * np.pi
# Coefficients at most this fraction of a polynomial's largest one are zero.
_PRUNE = 1e-15
# Trials evaluated together along a leading axis: large enough that the
# per-call overhead vanishes, small enough to keep the batched value arrays
# at a few MB.
TRIAL_BLOCK = 25
# Basis numbers (points times 2K + 1 columns) one evaluation block holds:
# 2 MiB, so evaluating a many-term polynomial on a fine grid does not build
# a basis of terms times points.
BASIS_MAX = 2**18


class TrigPoly:
    """``sum_k c_k exp(2 pi i f_k x)`` with real values up to rounding.

    ``coefs`` has shape ``(F,)``, or ``(T, F)`` for a batch of ``T``
    polynomials (trials) sharing the frequencies ``freqs``.  Values,
    antiderivatives and integrals of a batch carry the trials axis first,
    so numpy broadcasting pairs them with unbatched arrays; ``+`` and ``*``
    pair trials elementwise and broadcast a single polynomial against a
    batch.
    """

    __slots__ = ("freqs", "coefs", "_fold", "_antifold")

    def __init__(self, terms: dict[float, complex]):
        self._assign(np.array(list(terms), dtype=float),
                     np.array(list(terms.values()), dtype=complex))

    @classmethod
    def _from_arrays(cls, freqs: np.ndarray, coefs: np.ndarray) -> "TrigPoly":
        poly = cls.__new__(cls)
        poly._assign(freqs, coefs)
        return poly

    def _assign(self, freqs: np.ndarray, coefs: np.ndarray) -> None:
        """Sum coefficients of equal frequencies in input order, zero those
        of size at most ``_PRUNE`` times the largest one (per trial), drop
        frequencies left with no nonzero coefficient, and sort by
        frequency.  A non-finite sum (nan, inf or an overflow) raises
        :class:`DomainError`."""
        if (freqs[1:] > freqs[:-1]).all():
            # nothing to merge: the sum of one term from 0.0 (-0.0 to 0.0)
            acc = coefs + 0j
        else:
            # each coefficient's group, left in place: the stable sort keeps
            # equal frequencies in input order, the order they are summed in
            order = np.argsort(freqs, kind="stable")
            freqs = freqs[order]
            first = np.empty(freqs.shape, dtype=bool)
            first[:1] = True
            np.not_equal(freqs[1:], freqs[:-1], out=first[1:])
            group = np.empty(order.shape, dtype=np.intp)
            group[order] = np.add.accumulate(first, dtype=np.intp) - 1
            freqs = freqs[first]
            acc = np.empty(coefs.shape[:-1] + freqs.shape, dtype=complex)
            acc.real = group_sum(group, coefs.real, freqs.size)
            acc.imag = group_sum(group, coefs.imag, freqs.size)
        size = np.abs(acc)
        top = size.max(axis=-1, initial=0.0)
        if not (top < np.inf).all():  # also false for nan
            raise DomainError("trig polynomial coefficients must be finite")
        if acc.ndim == 1:
            keep = size > _PRUNE * top
        else:
            small = size <= _PRUNE * top[:, None]
            acc[small] = 0.0
            keep = ~small.all(axis=0)
        if keep.any():
            self.freqs = freqs[keep]
            self.coefs = acc[keep] if acc.ndim == 1 else acc[:, keep]
        else:
            self.freqs = np.zeros(1)
            self.coefs = np.zeros(coefs.shape[:-1] + (1,), dtype=complex)
        self.freqs.setflags(write=False)
        self.coefs.setflags(write=False)
        self._fold = self._antifold = None

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value: float) -> "TrigPoly":
        return cls({0.0: complex(value)})

    @classmethod
    def from_cos_sin(cls, const, cos_coefs=(), sin_coefs=()) -> "TrigPoly":
        """Build ``const + sum c_k cos(2 pi k x) + sum s_k sin(2 pi k x)``.

        For a batch, ``const`` has shape ``(T,)`` and the cosine and sine
        coefficients shape ``(T, K)``.
        """
        const = np.asarray(const, dtype=float)
        cos = np.asarray(cos_coefs, dtype=float).reshape(const.shape + (-1,))
        sin = np.asarray(sin_coefs, dtype=float).reshape(const.shape + (-1,))
        kc = np.arange(1.0, cos.shape[-1] + 1)
        ks = np.arange(1.0, sin.shape[-1] + 1)
        freqs = np.concatenate([[0.0], kc, -kc, ks, -ks])
        coefs = np.concatenate([const[..., None], cos / 2, cos / 2,
                                sin / 2j, -(sin / 2j)], axis=-1)
        return cls._from_arrays(freqs, coefs)

    @classmethod
    def random(cls, rng: np.random.Generator, degree: int = 8,
               trials: int | None = None) -> "TrigPoly":
        """Random real trig polynomial with integer frequencies <= degree
        and coefficients drawn uniformly from ``[-1, 1]``.

        With ``trials``, a batch of that many, drawn as the same number of
        consecutive single draws would be.
        """
        size = 2 * degree + 1
        draw = rng.uniform(-1.0, 1.0,
                           size if trials is None else (trials, size))
        return cls.from_cos_sin(draw[..., 0], draw[..., 1:degree + 1],
                                draw[..., degree + 1:])

    @classmethod
    def stack(cls, polys) -> "TrigPoly":
        """The batch whose trial ``t`` is the single polynomial ``polys[t]``.

        The batch carries every frequency of any of them, with a zero
        coefficient where a polynomial lacks it, so unequal frequency sets
        stack exactly, and each trial keeps its coefficients bit for bit.
        """
        freqs = np.concatenate([p.freqs for p in polys])
        coefs = np.zeros((len(polys), freqs.size), dtype=complex)
        cols = np.cumsum([0] + [p.freqs.size for p in polys])
        for t, p in enumerate(polys):
            coefs[t, cols[t]:cols[t + 1]] = p.coefs
        return cls._from_arrays(freqs, coefs)

    def take_trials(self, index) -> "TrigPoly":
        """The batch restricted to the trials selected by ``index``."""
        return TrigPoly._from_arrays(self.freqs, self.coefs[index])

    # -- algebra ------------------------------------------------------

    def __add__(self, other: "TrigPoly | float") -> "TrigPoly":
        if not isinstance(other, TrigPoly):
            other = TrigPoly.constant(float(other))
        a, b = self.coefs, other.coefs
        if a.ndim < b.ndim:
            a = np.broadcast_to(a, b.shape[:1] + a.shape)
        elif b.ndim < a.ndim:
            b = np.broadcast_to(b, a.shape[:1] + b.shape)
        return TrigPoly._from_arrays(np.concatenate([self.freqs, other.freqs]),
                                     np.concatenate([a, b], axis=-1))

    __radd__ = __add__

    def __neg__(self) -> "TrigPoly":
        return TrigPoly._from_arrays(self.freqs, -self.coefs)

    def __sub__(self, other: "TrigPoly | float") -> "TrigPoly":
        return self + (-other)

    def __mul__(self, other: "TrigPoly | float") -> "TrigPoly":
        if not isinstance(other, TrigPoly):
            return TrigPoly._from_arrays(self.freqs, self.coefs * other)
        freqs = np.add.outer(self.freqs, other.freqs).ravel()
        coefs = self.coefs[..., :, None] * other.coefs[..., None, :]
        return TrigPoly._from_arrays(freqs,
                                     coefs.reshape(coefs.shape[:-2] + (-1,)))

    __rmul__ = __mul__

    def compose_affine(self, slope: float, offset: float) -> "TrigPoly":
        """Substitute ``x -> slope * x + offset``.

        Exact as long as the substituted argument is not reduced mod 1,
        which holds for branch maps whose image stays inside ``[0, 1)``.
        """
        phase = np.exp(_TWO_PI_I * self.freqs * offset)
        return TrigPoly._from_arrays(self.freqs * slope, self.coefs * phase)

    # -- analysis -----------------------------------------------------

    def __call__(self, x) -> np.ndarray | float:
        if self._fold is None:
            self._fold = self._folded(self.coefs)
        # the column 0 x + 1 keeps a nan at a non-finite x when there is no
        # frequency
        out = _trig_sum(np.asarray(x, dtype=float), *self._fold, 0.0, 1.0)
        return float(out) if out.ndim == 0 else out

    def antiderivative_values(self, x: np.ndarray) -> np.ndarray:
        """Values of an antiderivative at the points ``x`` (real part):
        the fold of ``c_k / (2 pi i f_k)`` plus ``x Re c_0``."""
        if self._antifold is None:
            nz = self.freqs != 0.0
            anti = np.zeros_like(self.coefs)
            anti[..., nz] = self.coefs[..., nz] / (_TWO_PI_I * self.freqs[nz])
            f, rows = self._folded(anti)
            rows[-1] = self.coefs[..., ~nz].real.sum(axis=-1)
            self._antifold = f, rows
        return _trig_sum(np.asarray(x, dtype=float), *self._antifold,
                         1.0, 0.0)

    def _folded(self, coefs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The distinct ``f = |freqs_k| > 0`` and the rows ``[A; B; c0]``
        with ``Re sum_k coefs_k e(freqs_k x)`` equal to
        ``cos(2 pi x f) @ A + sin(2 pi x f) @ B + c0``: ``A = Re c_f + Re
        c_-f``, ``B = Im c_-f - Im c_f`` and ``c0 = Re c_0``, a missing
        partner counting as zero.  The rows are frequency-major, ``(2K+1,)``
        or ``(2K+1, T)``, the layout ``_trig_sum``'s product reads."""
        nz = self.freqs != 0.0
        size = np.abs(self.freqs[nz])
        f = np.sort(size)
        first = np.ones(f.shape, dtype=bool)
        first[1:] = f[1:] != f[:-1]
        f = f[first]
        at = np.searchsorted(f, size)
        rest = coefs[..., nz]
        rows = np.empty((2 * f.size + 1,) + coefs.shape[:-1])
        rows[:f.size] = group_sum(at, rest.real, f.size).T
        rows[f.size:-1] = group_sum(
            at, rest.imag * -np.sign(self.freqs[nz]), f.size).T
        rows[-1] = coefs[..., ~nz].real.sum(axis=-1)
        return f, rows

    def integral(self, lo: float, hi: float) -> float | np.ndarray:
        """Exact integral over ``[lo, hi)``."""
        vals = self.antiderivative_values(np.array([lo, hi]))
        out = vals[..., 1] - vals[..., 0]
        return float(out) if out.ndim == 0 else out

    def coefficients(self, freqs) -> np.ndarray:
        """The coefficients at the frequencies ``freqs``, 0 where a
        frequency is absent."""
        want = np.asarray(freqs, dtype=float)
        at = np.clip(np.searchsorted(self.freqs, want), 0, self.freqs.size - 1)
        return self.coefs[..., at] * (self.freqs[at] == want)

    @property
    def max_freq(self) -> float:
        return float(np.max(np.abs(self.freqs)))

    def __repr__(self) -> str:
        batch = (f", {self.coefs.shape[0]} trials" if self.coefs.ndim == 2
                 else "")
        return (f"TrigPoly({len(self.freqs)} terms, "
                f"max|freq|={self.max_freq:g}{batch})")


def _trig_sum(xs: np.ndarray, f: np.ndarray, rows: np.ndarray,
              scale: float, shift: float) -> np.ndarray:
    """``[cos(2 pi x f), sin(2 pi x f), scale x + shift] @ rows`` at the
    points ``xs``: a matrix product over the flattened points, in blocks of
    ``BASIS_MAX // (2K + 1)`` points (one block for a call under that),
    each written into one ``(points, T)`` array.  A batch's values are its
    transpose, ``(T,) + xs.shape``, a view that keeps the product's memory
    layout.  With no frequency the product has one inner term, so it is
    the single multiplication of the column ``scale x + shift`` by
    ``rows[-1]``, taken as one broadcast with no basis: the same bits, in
    any batch, and nan at a non-finite ``x``."""
    k = f.size
    flat = xs.ravel()
    if k == 0:
        column = flat * scale
        column += shift
        out = np.multiply.outer(column, rows[-1])
        return out.T.reshape(rows.shape[1:] + xs.shape)
    out = np.empty(flat.shape + rows.shape[1:])
    step = max(1, BASIS_MAX // (2 * k + 1))
    for start in range(0, flat.size, step):
        x = flat[start:start + step]
        basis = np.empty((x.size, 2 * k + 1))
        theta = basis[:, :k]   # angles, then cosines in place: no (P, K) array
        np.multiply.outer(x, f, out=theta)
        theta *= 2 * np.pi
        np.sin(theta, out=basis[:, k:-1])
        np.cos(theta, out=theta)
        np.multiply(x, scale, out=basis[:, -1])
        basis[:, -1] += shift
        np.matmul(basis, rows, out=out[start:start + step])
    return out.T.reshape(rows.shape[1:] + xs.shape)


def group_sum(group: np.ndarray, values: np.ndarray,
              size: int) -> np.ndarray:
    """Per group ``0..size-1``, the sum of the real entries of ``values`` in
    ``group`` along the last axis, added one by one in input order from 0.0
    (what ``np.add.at`` gives, bit for bit); a leading trials axis is kept.
    With no entries the sums are integer zeros."""
    if values.ndim == 1:
        return np.bincount(group, weights=values, minlength=size)
    trials = values.shape[0]
    flat = (np.arange(trials)[:, None] * size + group).ravel()
    return np.bincount(flat, weights=values.ravel(),
                       minlength=trials * size).reshape(trials, size)
