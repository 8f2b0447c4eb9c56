"""Dense complex linear algebra under the normalized trace.

Matrices are numpy ``complex128`` arrays. The normalized trace tau divides by
the dimension, so the identity always has trace 1 and s-numbers live on the
same scale at every n. s-numbers come from numpy's SVD (LAPACK), never from
an eigensolve of T*T, which would square the condition number.

Random inputs come from a self-contained splitmix64 + Box-Muller generator so
that seeded examples are reproducible independent of numpy's stream layout.
Random unitaries are the phase-fixed Q factor of one QR of a seeded Gaussian
matrix, and random projections and partitions are conjugates of coordinate
blocks by them.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .stepfn import StepFn

PROJECTION_TOL = 1e-10

_MASK64 = (1 << 64) - 1


class Rng64:
    """splitmix64 stream with Box-Muller Gaussian output.

    state := state + 0x9E3779B97F4A7C15; the output mix is
    z ^= z>>30; z *= 0xBF58476D1CE4E5B9; z ^= z>>27; z *= 0x94D049BB133111EB;
    z ^= z>>31. Uniforms take the top 53 bits; normal pairs are
    sqrt(-2 ln u1) * (cos, sin)(2 pi u2).
    """

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64
        self._spare: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform in (0,1); never exactly 0, safe under log."""
        return ((self.next_u64() >> 11) | 1) * 2.0**-53

    def gauss(self) -> float:
        if self._spare is not None:
            z, self._spare = self._spare, None
            return z
        r = math.sqrt(-2.0 * math.log(self.uniform()))
        theta = 2.0 * math.pi * self.uniform()
        self._spare = r * math.sin(theta)
        return r * math.cos(theta)

    def complex_gauss(self) -> complex:
        return complex(self.gauss(), self.gauss()) / math.sqrt(2.0)


def tau(T: np.ndarray) -> complex:
    """Normalized trace: trace / n."""
    return complex(np.trace(T)) / T.shape[0]


def matrix_to_json(T: np.ndarray) -> dict:
    return {
        "n": T.shape[0],
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in T],
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    # Unpacking rejects pairs of any length but 2, complex() non-numbers.
    # numpy's own parse of the nested lists measured slower than this.
    try:
        n = obj["n"]
        if isinstance(n, bool) or int(n) != n:
            raise ValueError(f"size n={n!r} is not an integer")
        rows = obj["entries"]
        A = np.array(
            [[complex(re, im) for re, im in row] for row in rows],
            dtype=np.complex128,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(
            f"malformed matrix object ({exc!r}); expected "
            '{"n": size, "entries": n x n grid of [re, im] pairs}'
        ) from exc
    if A.shape != (n, n):
        raise ValueError(f"entry grid {A.shape} does not match n={n}")
    # json.load accepts NaN and Infinity.
    if not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite")
    return A


def s_numbers(T: np.ndarray) -> np.ndarray:
    """Singular values of T, nonincreasing, by LAPACK's SVD.

    The SVD works on T itself rather than on T*T, so small s-numbers keep
    their accuracy relative to the largest, and LAPACK's scaling keeps
    entries near the ends of the float range from over- or underflowing.
    An s-number past the float range raises ``FloatingPointError``; the max
    catches NaN too, which some complex overflows give instead of inf.
    """
    s = np.linalg.svd(np.asarray(T, dtype=np.complex128), compute_uv=False)
    if not math.isfinite(s.max()):
        raise FloatingPointError("s-numbers overflow the float range")
    return s


def mu_step(T: np.ndarray) -> StepFn:
    """The s-number step function on the uniform n-partition."""
    return StepFn.from_uniform(s_numbers(T).tolist())


def operator_norm(T: np.ndarray) -> float:
    return float(s_numbers(T)[0])


def trace_norm(T: np.ndarray) -> float:
    return float(np.mean(s_numbers(T)))


def validate_partition(projections: Sequence[np.ndarray], n: int) -> None:
    total = np.zeros((n, n), dtype=np.complex128)
    for E in projections:
        if E.shape != (n, n):
            raise ValueError("projection dimension mismatch")
        if np.max(np.abs(E - E.conj().T)) > PROJECTION_TOL:
            raise ValueError("partition member is not Hermitian")
        if np.max(np.abs(E @ E - E)) > PROJECTION_TOL:
            raise ValueError("partition member is not idempotent")
        total += E
    if np.max(np.abs(total - np.eye(n))) > PROJECTION_TOL:
        raise ValueError("partition does not sum to the identity")


def pinch(T: np.ndarray, projections: Sequence[np.ndarray]) -> np.ndarray:
    """The pinching sum(E T E) over an orthogonal partition of projections."""
    n = T.shape[0]
    validate_partition(projections, n)
    out = np.zeros_like(T)
    for E in projections:
        out += E @ T @ E
    return out


def coordinate_partition(n: int, sizes: Sequence[int] | None = None) -> list[np.ndarray]:
    """Diagonal projections onto consecutive coordinate blocks."""
    if sizes is None:
        sizes = [1] * n
    if sum(sizes) != n or any(s < 1 for s in sizes):
        raise ValueError(f"block sizes {sizes} do not partition {n} coordinates")
    block = np.repeat(np.arange(len(sizes)), sizes)
    return [np.diag((block == b).astype(np.complex128)) for b in range(len(sizes))]


def polar_unitary(T: np.ndarray) -> np.ndarray:
    """A unitary V with T = V |T|, completed over kernel directions."""
    u, _, vh = np.linalg.svd(np.asarray(T, dtype=np.complex128))
    return u @ vh


def random_matrix(n: int, seed: int) -> np.ndarray:
    """Matrix of iid standard complex Gaussians from the seeded stream."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    rng = Rng64(seed)
    return np.array(
        [[rng.complex_gauss() for _ in range(n)] for _ in range(n)],
        dtype=np.complex128,
    )


def random_unitary(n: int, seed: int) -> np.ndarray:
    """Haar unitary: the Q factor of a seeded Gaussian matrix (Mezzadri 2007).

    The rows of ``random_matrix(n, seed)`` are factored as the columns of
    QR, and the phases of R's diagonal are divided out of Q, so the result
    is the Gram-Schmidt orthonormalization of those rows.
    """
    Q, R = np.linalg.qr(random_matrix(n, seed).T)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def random_projection(n: int, k: int, seed: int) -> np.ndarray:
    """Rank-k orthogonal projection onto the first k columns of a unitary."""
    if not 0 <= k <= n:
        raise ValueError(f"rank {k} outside 0..{n}")
    U = random_unitary(n, seed)[:, :k]
    return U @ U.conj().T


def random_partition(n: int, seed: int) -> list[np.ndarray]:
    """A random orthogonal partition of projections summing to the identity."""
    rng = Rng64(seed)
    # random composition of n into blocks
    sizes = []
    left = n
    while left > 0:
        s = 1 + rng.next_u64() % left
        sizes.append(int(s))
        left -= int(s)
    U = random_unitary(n, rng.next_u64())
    return [U @ E @ U.conj().T for E in coordinate_partition(n, sizes)]
