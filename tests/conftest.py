import math
import os

# Must precede the first numpy import: small-matrix LAPACK calls dominate
# this suite and OpenBLAS threading slows them ~20x on few-core boxes.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np
import pytest
import scipy.linalg

import homcont as hc
from homcont.systems import dfdx_rows, rotating_matrix


def random_hyperbolic(rng, d, gap=0.1):
    """Random hyperbolic d x d matrix with eigenvalue moduli at least gap
    away from 1; mixes real eigenvalues and complex pairs, conjugated by a
    moderately conditioned similarity."""
    blocks = []
    left = d
    while left > 0:
        modulus = rng.choice([rng.uniform(0.15, 1.0 - gap - 0.05), rng.uniform(1.0 + gap + 0.05, 3.0)])
        if left >= 2 and rng.random() < 0.4:
            phi = rng.uniform(0.2, np.pi - 0.2)
            c, s = modulus * np.cos(phi), modulus * np.sin(phi)
            blocks.append(np.array([[c, -s], [s, c]]))
            left -= 2
        else:
            blocks.append(np.array([[modulus * rng.choice([-1.0, 1.0])]]))
            left -= 1
    core = np.zeros((d, d))
    at = 0
    for b in blocks:
        k = b.shape[0]
        core[at:at + k, at:at + k] = b
        at += k
    while True:
        sim = np.eye(d) + 0.3 * rng.standard_normal((d, d))
        if np.linalg.cond(sim) < 20:
            break
    return sim @ core @ np.linalg.inv(sim)


def predict_style_loop(rng, d, fastest):
    """The benchmark's predict family: 2 x 2 rotating_matrix blocks turning
    at integer speeds (one of them fastest), conjugated by a seeded
    orthogonal matrix.  Returns (a, w1 = (-1)^(sum of speeds))."""
    blocks = d // 2
    speeds = rng.integers(0, fastest + 1, size=blocks)
    speeds[rng.integers(blocks)] = fastest
    alphas, betas = rng.uniform(0.3, 0.7, blocks), rng.uniform(1.5, 3.0, blocks)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))

    def a(theta):
        return q @ scipy.linalg.block_diag(*[rotating_matrix(int(k) * theta, al, be)
                                             for k, al, be in zip(speeds, alphas, betas)]) @ q.T

    return a, (-1) ** int(speeds.sum())


def half_turn_loop(rng, d, k):
    """a(theta) = Q G(k theta/2) D G(k theta/2)^T Q^T, 2*pi-periodic.

    D is block diagonal: a stable real eigenvalue on e_0, an unstable one
    on e_1 and a random hyperbolic rest (real, or at d = 4 possibly a
    complex pair); G rotates the (e_0, e_1) plane, so G(pi) = -1 there
    commutes with D.  The stable line of e_0 makes k half-turns per circuit
    while the rest of the stable space stays put: w1 = (-1)^k.  Q is a
    fixed seeded orthogonal matrix.  Returns (a, stable dimension).
    """
    def modulus(stable):
        return rng.uniform(0.2, 0.8) if stable else rng.uniform(1.25, 3.0)

    core = np.zeros((d, d))
    core[0, 0] = modulus(True) * rng.choice([-1.0, 1.0])
    core[1, 1] = modulus(False) * rng.choice([-1.0, 1.0])
    stable = [bool(rng.random() < 0.5) for _ in range(d - 2)]
    if d == 4 and rng.random() < 0.5:
        r, phi = modulus(stable[0]), rng.uniform(0.3, math.pi - 0.3)
        core[2:, 2:] = r * np.array([[math.cos(phi), -math.sin(phi)],
                                     [math.sin(phi), math.cos(phi)]])
        stable[1] = stable[0]
    else:
        for i, s in enumerate(stable):
            core[2 + i, 2 + i] = modulus(s) * rng.choice([-1.0, 1.0])
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))

    def a(theta):
        g = np.eye(d)
        c, s = math.cos(0.5 * k * theta), math.sin(0.5 * k * theta)
        g[:2, :2] = [[c, -s], [s, c]]
        return q @ g @ core @ g.T @ q.T

    return a, 1 + sum(stable)


def record_calls(monkeypatch, owner, name, calls):
    """Wrap owner.name so that each call appends name to calls; a LAPACK
    workspace query (lwork=-1) computes nothing and is not counted."""
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        if kwargs.get("lwork") != -1:
            calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def estimate_trials(smin, floor):
    """Estimates to hand smallest_singular for a window with smallest
    singular value smin and Gram floor floor = GRAM_FLOOR * ||J||_1: exact,
    off by 2e-3 and by 0.3 either way, ten times too large, below the floor,
    and values it must ignore."""
    return [smin, smin * (1 - 2e-3), smin * (1 + 2e-3), smin * 0.7, smin * 1.3,
            10 * smin, 0.5 * floor, 0.0, -1.0, float("nan"), float("inf")]


def predictor_det_signs(branch):
    """_augmented_det_sign at every point after the start, each with the
    constraint row continue_branch's step to it used: the initial tangent
    for the first step, then the unit secant of the two points before,
    zero-padded (embed_window) to the window the point was accepted at."""
    from homcont.continuation import AffineConstraint, _augmented_det_sign, _initial_tangent
    from homcont.truncation import embed_window

    pts = branch.points

    def to_window(z, n_old, n_new):
        return np.append(embed_window(z[:-1], pts[0].problem.d, n_old, n_new), z[-1])

    t = _initial_tangent(pts[0].problem, pts[0].X, pts[0].amplitude_ref)
    signs = []
    for k in range(1, len(pts)):
        if k > 1:
            z_old = to_window(np.append(pts[k - 2].X, pts[k - 2].theta), pts[k - 2].N,
                              pts[k - 1].N)
            t = np.append(pts[k - 1].X, pts[k - 1].theta) - z_old
            t /= np.linalg.norm(t)
        t = to_window(t, pts[k - 1].N, pts[k].N)
        constraint = AffineConstraint(w_x=t[:-1], w_theta=float(t[-1]), offset=0.0)
        signs.append(_augmented_det_sign(pts[k].problem, pts[k].X, constraint))
    return signs


def assemble_jacobian(p, x):
    """Dense window Jacobian, the test oracle for the banded LU: the left
    boundary rows, the interior block rows [-dfdx(n, theta, x_n), I] in
    window order, then the right boundary rows.  Assembled block by block,
    independently of the library's scatter into band storage."""
    blocks = p.blocks(x)
    d, m = p.d, 2 * p.N * p.d
    ds = p.left_rows.shape[0]
    jac = np.zeros((p.size, p.size))
    jac[:ds, :d] = p.left_rows
    for i, a in enumerate(dfdx_rows(p.system, p.ns, p.theta, blocks[:-1])):
        row = ds + d * i
        jac[row:row + d, d * i:d * i + d] = -a
        jac[row:row + d, d * i + d:d * i + 2 * d] = np.eye(d)
    jac[ds + m:, m:] = p.right_rows
    return jac


@pytest.fixture(scope="session")
def paper7_linear():
    return hc.paper7_family(hc.Paper7Config(coupling=0.0))


@pytest.fixture(scope="session")
def paper7_perturbed():
    return hc.paper7_family(hc.Paper7Config(coupling=0.1, envelope_scale=5.0))


@pytest.fixture(scope="session")
def grid64():
    return hc.CircleGrid.uniform(64)
