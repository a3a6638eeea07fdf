"""Exact arithmetic for finite trigonometric sums.

A :class:`TrigPoly` is a finite combination ``sum_k c_k * exp(2*pi*i*f_k*x)``
with conjugate-symmetric coefficients, so it evaluates to a real number up to
rounding.  Frequencies may be arbitrary reals: substituting a branch map
``x -> a*x + b`` scales them by ``a``, which produces fractional frequencies
for contracting branches.

The point of carrying these objects around instead of sampled tables is that
products, affine substitution and antiderivatives are all closed-form, so
operator identities and integrals against piecewise-constant densities can be
checked to rounding accuracy instead of quadrature accuracy.

All instances are immutable and safe to share between threads.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

_TWO_PI_I = 2j * np.pi
_PRUNE = 1e-15


class TrigPoly:
    """``sum_k c_k exp(2 pi i f_k x)`` with real values up to rounding.

    ``coefs`` has shape ``(F,)``, or ``(F, T)`` for a batch of ``T``
    polynomials (trials) sharing the frequencies ``freqs``.  Values,
    antiderivatives and integrals of a batch carry the trials axis last;
    ``+`` and ``*`` pair trials elementwise and broadcast a single
    polynomial against a batch.
    """

    __slots__ = ("freqs", "coefs")

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
        of size at most ``_PRUNE``, drop frequencies left with no nonzero
        coefficient, and sort by frequency."""
        order = np.argsort(freqs, kind="stable")
        freqs, coefs = freqs[order], coefs[order]
        first = np.ones(freqs.shape, dtype=bool)
        first[1:] = freqs[1:] != freqs[:-1]
        acc = np.zeros((np.count_nonzero(first),) + coefs.shape[1:],
                       dtype=complex)
        np.add.at(acc, np.cumsum(first) - 1, coefs)
        acc[np.abs(acc) <= _PRUNE] = 0.0
        nonzero = acc != 0.0
        keep = nonzero if acc.ndim == 1 else nonzero.any(axis=1)
        if keep.any():
            self.freqs, self.coefs = freqs[first][keep], acc[keep]
        else:
            self.freqs = np.zeros(1)
            self.coefs = np.zeros((1,) + coefs.shape[1:], dtype=complex)
        self.freqs.setflags(write=False)
        self.coefs.setflags(write=False)

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
               amplitude: float = 1.0, trials: int | None = None
               ) -> "TrigPoly":
        """Random real trig polynomial with integer frequencies <= degree.

        With ``trials``, a batch of that many, drawn as the same number of
        consecutive single draws would be.
        """
        size = 2 * degree + 1
        draw = rng.uniform(-amplitude, amplitude,
                           size if trials is None else (trials, size)).T
        return cls.from_cos_sin(draw[0], draw[1:degree + 1],
                                draw[degree + 1:])

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
        return self + (-other if isinstance(other, TrigPoly)
                       else TrigPoly.constant(-float(other)))

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
        xs = np.asarray(x, dtype=float)
        vals = np.exp(_TWO_PI_I * np.multiply.outer(xs, self.freqs)) @ self.coefs
        out = vals.real
        return float(out) if out.ndim == 0 else out

    def antiderivative_values(self, x: np.ndarray) -> np.ndarray:
        """Values of an antiderivative at the points ``x`` (real part)."""
        xs = np.asarray(x, dtype=float)
        nz = self.freqs != 0.0
        acc = np.zeros(xs.shape + self.coefs.shape[1:], dtype=complex)
        if np.any(nz):
            f = self.freqs[nz]
            c = self.coefs[nz] / self._per_freq(_TWO_PI_I * f)
            acc = np.exp(_TWO_PI_I * np.multiply.outer(xs, f)) @ c
        if np.any(~nz):
            acc = acc + np.multiply.outer(xs, self.coefs[~nz].sum(axis=0))
        return acc.real

    def integral(self, lo: float, hi: float) -> float | np.ndarray:
        """Exact integral over ``[lo, hi)``."""
        vals = self.antiderivative_values(np.array([lo, hi]))
        out = vals[1] - vals[0]
        return float(out) if out.ndim == 0 else out

    @property
    def max_freq(self) -> float:
        return float(np.max(np.abs(self.freqs)))

    def has_integer_freqs(self, tol: float = 1e-9) -> bool:
        return bool(np.all(np.abs(self.freqs - np.round(self.freqs)) <= tol))

    def __repr__(self) -> str:
        batch = (f", {self.coefs.shape[1]} trials" if self.coefs.ndim == 2
                 else "")
        return (f"TrigPoly({len(self.freqs)} terms, "
                f"max|freq|={self.max_freq:g}{batch})")


def _common_trials(a: np.ndarray,
                   b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two coefficient arrays, a single one broadcast to the other's trials."""
    if a.ndim < b.ndim:
        a = np.broadcast_to(a[:, None], (a.size, b.shape[1]))
    elif b.ndim < a.ndim:
        b = np.broadcast_to(b[:, None], (b.size, a.shape[1]))
    return a, b


TrigLike = Callable[[np.ndarray], np.ndarray]
