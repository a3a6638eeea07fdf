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
# Trials evaluated together along a trailing axis: large enough that the
# per-call overhead vanishes, small enough to keep the batched value arrays
# at a few MB.
TRIAL_BLOCK = 25


class TrigPoly:
    """``sum_k c_k exp(2 pi i f_k x)`` with real values up to rounding.

    ``coefs`` has shape ``(F,)``, or ``(F, T)`` for a batch of ``T``
    polynomials (trials) sharing the frequencies ``freqs``.  Values,
    antiderivatives and integrals of a batch carry the trials axis last;
    ``+`` and ``*`` pair trials elementwise and broadcast a single
    polynomial against a batch.
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
        order = np.argsort(freqs, kind="stable")
        freqs, coefs = freqs[order], coefs[order]
        first = np.ones(freqs.shape, dtype=bool)
        first[1:] = freqs[1:] != freqs[:-1]
        acc = np.zeros((np.count_nonzero(first),) + coefs.shape[1:],
                       dtype=complex)
        np.add.at(acc, np.cumsum(first) - 1, coefs)
        size = np.abs(acc)
        top = size.max(axis=0, initial=0.0)
        if not np.isfinite(top).all():
            raise DomainError("trig polynomial coefficients must be finite")
        acc[size <= _PRUNE * top] = 0.0
        nonzero = acc != 0.0
        keep = nonzero if acc.ndim == 1 else nonzero.any(axis=1)
        if keep.any():
            self.freqs, self.coefs = freqs[first][keep], acc[keep]
        else:
            self.freqs = np.zeros(1)
            self.coefs = np.zeros((1,) + coefs.shape[1:], dtype=complex)
        self.freqs.setflags(write=False)
        self.coefs.setflags(write=False)
        self._fold = self._antifold = None

    def _per_freq(self, values: np.ndarray) -> np.ndarray:
        """One value per frequency, shaped to broadcast against ``coefs``."""
        return values.reshape((-1,) + (1,) * (self.coefs.ndim - 1))

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value: float) -> "TrigPoly":
        return cls({0.0: complex(value)})

    @classmethod
    def from_cos_sin(cls, const, cos_coefs=(), sin_coefs=()) -> "TrigPoly":
        """Build ``const + sum c_k cos(2 pi k x) + sum s_k sin(2 pi k x)``.

        For a batch, ``const`` has shape ``(T,)`` and the cosine and sine
        coefficients shape ``(K, T)``.
        """
        const = np.asarray(const, dtype=float)
        cos = np.asarray(cos_coefs, dtype=float).reshape((-1,) + const.shape)
        sin = np.asarray(sin_coefs, dtype=float).reshape((-1,) + const.shape)
        kc = np.arange(1.0, len(cos) + 1)
        ks = np.arange(1.0, len(sin) + 1)
        freqs = np.concatenate([[0.0], kc, -kc, ks, -ks])
        coefs = np.concatenate([const[None], cos / 2, cos / 2,
                                sin / 2j, -(sin / 2j)])
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
                           size if trials is None else (trials, size)).T
        return cls.from_cos_sin(draw[0], draw[1:degree + 1],
                                draw[degree + 1:])

    @classmethod
    def stack(cls, polys) -> "TrigPoly":
        """The batch whose trial ``t`` is the single polynomial ``polys[t]``.

        The batch carries every frequency of any of them, with a zero
        coefficient where a polynomial lacks it, so unequal frequency sets
        stack exactly, and each trial keeps its coefficients bit for bit.
        """
        freqs = np.concatenate([p.freqs for p in polys])
        coefs = np.zeros((freqs.size, len(polys)), dtype=complex)
        rows = np.cumsum([0] + [p.freqs.size for p in polys])
        for t, p in enumerate(polys):
            coefs[rows[t]:rows[t + 1], t] = p.coefs
        return cls._from_arrays(freqs, coefs)

    def take_trials(self, index) -> "TrigPoly":
        """The batch restricted to the trials selected by ``index``."""
        return TrigPoly._from_arrays(self.freqs, self.coefs[:, index])

    # -- algebra ------------------------------------------------------

    def __add__(self, other: "TrigPoly | float") -> "TrigPoly":
        if not isinstance(other, TrigPoly):
            other = TrigPoly.constant(float(other))
        a, b = _common_trials(self.coefs, other.coefs)
        return TrigPoly._from_arrays(np.concatenate([self.freqs, other.freqs]),
                                     np.concatenate([a, b]))

    __radd__ = __add__

    def __neg__(self) -> "TrigPoly":
        return TrigPoly._from_arrays(self.freqs, -self.coefs)

    def __sub__(self, other: "TrigPoly | float") -> "TrigPoly":
        return self + (-other)

    def __mul__(self, other: "TrigPoly | float") -> "TrigPoly":
        if not isinstance(other, TrigPoly):
            return TrigPoly._from_arrays(self.freqs, self.coefs * other)
        a, b = _common_trials(self.coefs, other.coefs)
        freqs = np.add.outer(self.freqs, other.freqs).ravel()
        coefs = (a[:, None] * b[None, :]).reshape((freqs.size,) + a.shape[1:])
        return TrigPoly._from_arrays(freqs, coefs)

    __rmul__ = __mul__

    def compose_affine(self, slope: float, offset: float) -> "TrigPoly":
        """Substitute ``x -> slope * x + offset``.

        Exact as long as the substituted argument is not reduced mod 1,
        which holds for branch maps whose image stays inside ``[0, 1)``.
        """
        phase = np.exp(_TWO_PI_I * self.freqs * offset)
        return TrigPoly._from_arrays(self.freqs * slope,
                                     self.coefs * self._per_freq(phase))

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
            anti[nz] = self.coefs[nz] / self._per_freq(_TWO_PI_I
                                                       * self.freqs[nz])
            f, rows = self._folded(anti)
            rows[-1] = self.coefs[~nz].real.sum(axis=0)
            self._antifold = f, rows
        return _trig_sum(np.asarray(x, dtype=float), *self._antifold,
                         1.0, 0.0)

    def _folded(self, coefs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The distinct ``f = |freqs_k| > 0`` and the rows ``[A; B; c0]``
        with ``Re sum_k coefs_k e(freqs_k x)`` equal to
        ``cos(2 pi x f) @ A + sin(2 pi x f) @ B + c0``: ``A = Re c_f + Re
        c_-f``, ``B = Im c_-f - Im c_f`` and ``c0 = Re c_0``, a missing
        partner counting as zero."""
        nz = self.freqs != 0.0
        size = np.abs(self.freqs[nz])
        f = np.sort(size)
        first = np.ones(f.shape, dtype=bool)
        first[1:] = f[1:] != f[:-1]
        f = f[first]
        at = np.searchsorted(f, size)
        rest = coefs[nz]
        rows = np.zeros((2 * f.size + 1,) + coefs.shape[1:])
        np.add.at(rows, at, rest.real)
        np.add.at(rows, f.size + at,
                  rest.imag * self._per_freq(-np.sign(self.freqs[nz])))
        rows[-1] = coefs[~nz].real.sum(axis=0)
        return f, rows

    def integral(self, lo: float, hi: float) -> float | np.ndarray:
        """Exact integral over ``[lo, hi)``."""
        vals = self.antiderivative_values(np.array([lo, hi]))
        out = vals[1] - vals[0]
        return float(out) if out.ndim == 0 else out

    def coefficients(self, freqs) -> np.ndarray:
        """The coefficients at the frequencies ``freqs``, 0 where a
        frequency is absent."""
        want = np.asarray(freqs, dtype=float)
        at = np.clip(np.searchsorted(self.freqs, want), 0, self.freqs.size - 1)
        return self.coefs[at] * self._per_freq(self.freqs[at] == want)

    @property
    def max_freq(self) -> float:
        return float(np.max(np.abs(self.freqs)))

    def __repr__(self) -> str:
        batch = (f", {self.coefs.shape[1]} trials" if self.coefs.ndim == 2
                 else "")
        return (f"TrigPoly({len(self.freqs)} terms, "
                f"max|freq|={self.max_freq:g}{batch})")


def _trig_sum(xs: np.ndarray, f: np.ndarray, rows: np.ndarray,
              scale: float, shift: float) -> np.ndarray:
    """``[cos(2 pi x f), sin(2 pi x f), scale x + shift] @ rows`` at the
    points ``xs``: one matrix product over the flattened points."""
    k = f.size
    basis = np.empty((xs.size, 2 * k + 1))
    theta = np.multiply.outer(xs.ravel(), f) * (2 * np.pi)
    np.cos(theta, out=basis[:, :k])
    np.sin(theta, out=basis[:, k:-1])
    np.multiply(xs.ravel(), scale, out=basis[:, -1])
    basis[:, -1] += shift
    return (basis @ rows).reshape(xs.shape + rows.shape[1:])


def broadcast_to_trials(a: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """``a`` with a length-1 axis appended when ``vals`` has an extra
    trailing trials axis."""
    return a[..., None] if vals.ndim > a.ndim else a


def trials_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a * b`` at the same points, where either may carry an extra
    trailing trials axis."""
    return broadcast_to_trials(a, b) * broadcast_to_trials(b, a)


def _common_trials(a: np.ndarray,
                   b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two coefficient arrays, a single one broadcast to the other's trials."""
    if a.ndim < b.ndim:
        a = np.broadcast_to(a[:, None], (a.size, b.shape[1]))
    elif b.ndim < a.ndim:
        b = np.broadcast_to(b[:, None], (b.size, a.shape[1]))
    return a, b
