import logging
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

import homcont as hc
from homcont import _linalg, bundles, spectral, truncation
from homcont.errors import IndexMismatch, NotHyperbolic, Singular
from homcont.spectral import splitting_stack, symbol_smin

from conftest import predict_style_loop, random_hyperbolic, record_calls


def test_splitting_diagonal():
    s = hc.hyperbolic_splitting(np.diag([0.5, 2.0]))
    assert s.d_s == 1 and s.d_u == 1
    assert abs(abs(s.stable_frame[0, 0]) - 1.0) < 1e-14
    assert abs(s.stable_frame[1, 0]) < 1e-14
    assert abs(abs(s.unstable_frame[1, 0]) - 1.0) < 1e-14


def test_splitting_rotated_example():
    # rotating-family matrix at theta = pi/2, eigenvalues {0.5, 2}
    a = np.array([[1.25, -0.75], [-0.75, 1.25]])
    s = hc.hyperbolic_splitting(a)
    assert s.d_s == 1
    direction = s.stable_frame[:, 0]
    target = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert abs(abs(direction @ target) - 1.0) < 1e-12


def test_rotation_is_not_hyperbolic():
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    with pytest.raises(NotHyperbolic):
        hc.hyperbolic_splitting(np.array([[c, -s], [s, c]]))


def test_near_unit_eigenvalue_gate():
    with pytest.raises(NotHyperbolic):
        hc.hyperbolic_splitting(np.diag([1.0 + 1e-9, 2.0]), gap_tol=1e-6)


@pytest.mark.parametrize("gap_tol", [0.0, -1e-6, math.nan])
def test_gap_tol_must_be_positive(gap_tol):
    # A NaN tolerance would pass every gap test and split the identity.
    with pytest.raises(ValueError, match="gap_tol"):
        hc.hyperbolic_splitting(np.eye(2), gap_tol=gap_tol)


def test_singular_matrix_rejected():
    with pytest.raises(Singular):
        hc.hyperbolic_splitting(np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_splitting_without_stable_directions():
    s = hc.hyperbolic_splitting(np.diag([2.0, -3.0]))
    assert (s.d_s, s.d_u) == (0, 2)
    assert s.stable_frame.shape == (2, 0)
    assert s.unstable_frame.shape == (2, 2)


def test_splitting_invariants_random():
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = int(rng.integers(1, 5))
        a = random_hyperbolic(rng, d)
        s = hc.hyperbolic_splitting(a)
        assert s.d_s + s.d_u == d
        # independent eigenvalue-count oracle
        assert s.d_s == int(np.sum(np.abs(np.linalg.eigvals(a)) < 1.0))
        for z, k in ((s.stable_schur, s.d_s), (s.unstable_schur, s.d_u)):
            q, rest = z[:, :k], z[:, k:]
            # the trailing columns are an orthonormal basis of span(q)^perp
            assert rest.shape == (d, d - k)
            assert np.linalg.norm(rest.T @ rest - np.eye(d - k)) <= 1e-12
            assert np.linalg.norm(q.T @ rest) <= 1e-12
            if k == 0:
                continue
            assert np.linalg.norm(q.T @ q - np.eye(k)) <= 1e-12
            # invariance of the spanned subspace
            resid = (np.eye(d) - q @ q.T) @ a @ q
            assert np.linalg.norm(resid, 2) <= 1e-10
        if s.d_s:
            assert np.max(np.abs(np.linalg.eigvals(s.restricted_stable()))) < 1.0
        if s.d_u:
            assert np.max(np.abs(np.linalg.eigvals(np.linalg.inv(s.restricted_unstable())))) < 1.0


def _seeded_matrices(kind, rng, d):
    """A seeded hyperbolic d x d matrix: "plain" from random_hyperbolic;
    "triu" the same under the non-normal similarity I + triu(U(-30, 30)),
    conditioned up to about 1e14; "-0.9" etc. with that stable eigenvalue,
    near -1; "jordan" a 2 x 2 Jordan block perturbed by 1e-8 (eigenvalues
    lam +- 1e-4, nearly parallel eigenvectors) beside a random_hyperbolic
    block, under a seeded orthogonal similarity."""
    a = random_hyperbolic(rng, d)
    if kind == "triu":
        t = np.eye(d) + np.triu(rng.uniform(-30.0, 30.0, (d, d)), 1)
        return t @ a @ np.linalg.inv(t)
    if kind == "jordan":
        lam = rng.choice([-1.0, 1.0]) * rng.choice([rng.uniform(0.2, 0.8), rng.uniform(1.25, 3.0)])
        core = scipy.linalg.block_diag([[lam, 1.0], [1e-8, lam]], a[2:, 2:])
        q = np.linalg.qr(rng.standard_normal((d, d)))[0]
        return q @ core @ q.T
    if kind != "plain":
        moduli = np.where(rng.random(d - 1) < 0.5, rng.uniform(0.2, 0.8, d - 1),
                          rng.uniform(1.25, 3.0, d - 1))
        core = np.diag(np.r_[float(kind), moduli * rng.choice([-1.0, 1.0], d - 1)])
        sim = np.eye(d) + 0.3 * np.diag(rng.uniform(-1.0, 1.0, d - 1), 1)
        return sim @ core @ np.linalg.inv(sim)
    return a


def _oblique_projector(stable, unstable_perp):
    """Projector onto span(stable) along the subspace unstable_perp annihilates."""
    return stable @ np.linalg.solve(unstable_perp.T @ stable, unstable_perp.T)


@pytest.mark.parametrize("kind", ["plain", "triu", "-0.9", "-0.99", "-0.999", "jordan"])
def test_splitting_stack_against_schur(kind):
    # splitting_stack's eigenvector frames (or, where they fail the
    # invariance test, its Schur fallback) against the Schur splitting, one
    # stack per stable dimension of each d = 2..6: equal d_s and gap;
    # distance of the oblique projectors within 1e-12 + 1e-15 cond(a)
    rng = np.random.default_rng(29)
    for d in range(2, 7):
        by_dim = {}
        for _ in range(30):
            a = _seeded_matrices(kind, rng, d)
            try:
                split = hc.hyperbolic_splitting(a)
            except Singular:  # "triu" can reach cond(a) > 1e14
                continue
            by_dim.setdefault(split.d_s, []).append((a, split))
        for d_s, pairs in by_dim.items():
            stack = splitting_stack(np.array([a for a, _ in pairs]))
            assert stack.d_s == d_s
            for i, (a, split) in enumerate(pairs):
                for frame in (stack.u[i], stack.vt[i]):
                    assert np.linalg.norm(frame.T @ frame - np.eye(d)) <= 1e-13
                if d_s == 0:
                    continue
                want = _oblique_projector(split.stable_frame, split.unstable_schur[:, split.d_u:])
                got = _oblique_projector(stack.stable_frames[i], stack.unstable_complements[i])
                dist = np.linalg.norm(got - want, 2) / np.linalg.norm(want, 2)
                assert dist <= 1e-12 + 1e-15 * np.linalg.cond(a)
        assert len(by_dim) >= 2


@pytest.mark.parametrize("bad, error, match", [
    (np.array([[np.nan, 0.0], [0.0, 2.0]]), NotHyperbolic, "non-finite"),
    (np.array([[1.0, 1.0], [1.0, 1.0]]), Singular, "singular"),
    (np.array([[0.0, -1.0], [1.0, 0.0]]), NotHyperbolic, "unit circle"),
    (np.diag([0.5, 0.25]), IndexMismatch, "stable dimension varies"),
])
def test_splitting_stack_rejects_one_bad_matrix(bad, error, match):
    # the one validator: a single failing matrix anywhere in the stack
    # raises the error hyperbolic_splitting raises for it alone
    good = [np.diag([0.5, 2.0]) + 0.1 * k * np.eye(2)[::-1] for k in range(5)]
    for at in (0, 3, 5):
        with pytest.raises(error, match=match):
            splitting_stack(np.array(good[:at] + [bad] + good[at:]))
    if error is not IndexMismatch:
        with pytest.raises(error, match=match):
            hc.hyperbolic_splitting(bad)


def _stack_with_jordan_block():
    """A stack of seeded 3 x 3 hyperbolic matrices with d_s = 2 whose
    matrix at index 2 is a stable 2 x 2 Jordan block beside the eigenvalue
    2, under a seeded orthogonal similarity.  Rounding splits the double
    eigenvalue 0.5 by about 1e-8, into a complex or a real pair; the first
    similarity that gives a real pair is taken.  Its two eigenvectors
    agree to about 1e-8, so the second direction of their span is accurate
    only to about eps / 1e-8, and the frame fails the invariance test (a
    complex pair's Re v and Im v span the plane accurately)."""
    rng = np.random.default_rng(4)
    mats = [a for a in (random_hyperbolic(rng, 3) for _ in range(40))
            if hc.hyperbolic_splitting(a).d_s == 2]
    for _ in range(20):
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        jordan = q @ np.array([[0.5, 1.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 2.0]]) @ q.T
        if not np.iscomplexobj(np.linalg.eigvals(jordan)):
            return np.array(mats[:2] + [jordan] + mats[2:])
    raise AssertionError("no similarity split the Jordan block's eigenvalue into a real pair")


def test_splitting_stack_falls_back_to_schur(monkeypatch):
    # the Jordan matrix alone takes the Schur splitting, both factors
    # reordered from one real Schur form; a Schur ordering that then
    # disagrees with the eigenvalue count raises
    mats = _stack_with_jordan_block()
    assert len(mats) >= 10
    calls = []
    record_calls(monkeypatch, _linalg, "dgees", calls)
    record_calls(monkeypatch, _linalg, "dtrsen", calls)
    stack = splitting_stack(mats)
    assert calls == ["dgees", "dtrsen", "dtrsen"]
    split = hc.hyperbolic_splitting(mats[2])
    assert np.array_equal(stack.u[2], split.stable_schur)
    assert np.array_equal(stack.unstable_complements[2], split.unstable_schur[:, split.d_u:])
    trsen = _linalg.dtrsen

    def miscounting(*args, **kwargs):
        ts, qs, wr, wi, count, s, sep, info = trsen(*args, **kwargs)
        return ts, qs, wr, wi, count - 1, s, sep, info

    monkeypatch.setattr(_linalg, "dtrsen", miscounting)
    with pytest.raises(NotHyperbolic, match="ordered Schur decomposition disagrees"):
        splitting_stack(mats)


def test_splitting_stack_logs_its_fallbacks(caplog):
    # one INFO line per stack with a fallback, naming the count and the
    # first index; nothing at the default WARNING level, nor for a stack
    # whose frames all pass
    mats = _stack_with_jordan_block()
    splitting_stack(mats)
    splitting_stack(np.delete(mats, 2, axis=0))
    assert caplog.records == []
    with caplog.at_level(logging.INFO, logger="homcont.spectral"):
        splitting_stack(np.delete(mats, 2, axis=0))
        assert caplog.records == []
        splitting_stack(mats)
    assert [r.getMessage() for r in caplog.records] == [
        f"splitting_stack: 1 of {len(mats)} matrices took the Schur splitting (first at index 2)"]


def _svd_checked(finite, a, mods, gap_tol):
    """The validator with regularity from the singular values of every
    matrix, sigma_min > 1e-14 max(1, sigma_max): the oracle of _checked."""
    sv = np.linalg.svd(a, compute_uv=False)
    regular = sv[:, -1] > 1e-14 * np.maximum(1.0, sv[:, 0])
    gap = np.abs(mods - 1.0).min(axis=1)
    good = finite & regular & (gap >= gap_tol)
    if not good.all():
        i = int(np.argmin(good))
        if not finite[i]:
            raise NotHyperbolic("matrix has non-finite entries")
        if not regular[i]:
            raise Singular("matrix is numerically singular")
        raise NotHyperbolic(
            f"eigenvalue modulus within {gap[i]:.3e} of the unit circle (tol {gap_tol:.1e})")
    dims = (mods < 1.0).sum(axis=1)
    if len(dims) > 1 and dims.min() != dims.max():
        raise IndexMismatch(
            f"stable dimension varies over the stack: {sorted(set(dims.tolist()))}")
    return int(dims[0])


def _outcome(check, *args):
    try:
        return check(*args)
    except (NotHyperbolic, Singular, IndexMismatch) as exc:
        return type(exc), str(exc)


def _moduli(a, route):
    """Eigenvalue moduli of each matrix of a stack as a route computes them:
    stacked geev (splitting_stack) or gees (hyperbolic_splitting)."""
    if route == "eig":
        return np.abs(np.linalg.eig(a)[0])
    return np.array([np.hypot(*_linalg.dgees(spectral._no_sort, m)[2:4]) for m in a])


def _near_singular(rng, d, ratio, scale):
    """A seeded d x d matrix with sigma_max = scale and sigma_min = ratio
    scale, the rest log-uniform between, under random orthogonal factors."""
    sv = np.sort(scale * np.exp(rng.uniform(np.log(ratio), 0.0, d)))[::-1]
    sv[0], sv[-1] = scale, scale * ratio
    u, v = (np.linalg.qr(rng.standard_normal((d, d)))[0] for _ in range(2))
    return (u * sv) @ v.T


@pytest.mark.parametrize("route", ["eig", "gees"])
def test_regularity_from_moduli_gives_the_singular_value_verdict(monkeypatch, route):
    # seeded matrices at sigma_min / sigma_max from 1e-16 to 1e-11, d = 1-6,
    # sigma_max from 1e-8 to 1e8, extreme scales and a NaN matrix mid-stack:
    # _checked gives every matrix, alone and in stack order (every tenth
    # suffix), the outcome, error class and message of the singular-value
    # test, and hands gesdd only the matrices its determinant bound leaves
    # unsure, never one it could admit
    rng = np.random.default_rng(34)
    svds = []
    real_svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        svds.append(len(a))
        return real_svd(a, *args, **kwargs)

    admitted = unsure = 0
    for d in range(1, 7):
        mats = [_near_singular(rng, d, 10.0 ** rng.uniform(-16, -11), 10.0 ** rng.uniform(-8, 8))
                for _ in range(140)]
        mats += [random_hyperbolic(rng, d) * s for s in (1e-300, 1e-160, 1e160, 1e300)]
        mats += [np.diag(np.r_[1.7e308, np.full(d - 1, 0.5)]), np.eye(d) * 1e-320, np.zeros((d, d))]
        mats.insert(70, np.full((d, d), np.nan))
        a = np.array(mats)
        finite = np.isfinite(a).all(axis=(1, 2))
        a[~finite] = np.eye(d)  # as the splittings read a non-finite matrix
        mods = _moduli(a, route)
        with np.errstate(all="ignore"):
            norms = np.linalg.norm(a, axis=(1, 2))
            bound = np.prod(mods, axis=1) > 16e-14 * np.maximum(1.0, norms) * norms ** (d - 1)
        verdicts = real_svd(a, compute_uv=False)
        regular = verdicts[:, -1] > 1e-14 * np.maximum(1.0, verdicts[:, 0])
        assert not (bound & ~regular).any()
        admitted += int(bound.sum())
        unsure += int((~bound).sum())
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", counted)
            for i in range(len(a)):
                svds.clear()
                got = _outcome(spectral._checked, a[i:i + 1], finite[i:i + 1], mods[i:i + 1], 1e-6)
                assert svds == ([] if bound[i] else [1])
                assert got == _outcome(_svd_checked, finite[i:i + 1], a[i:i + 1], mods[i:i + 1],
                                       1e-6)
            for j in range(0, len(a), 10):
                svds.clear()
                got = _outcome(spectral._checked, a[j:], finite[j:], mods[j:], 1e-6)
                left = int((~bound[j:]).sum())
                assert svds == ([left] if left else [])
                assert got == _outcome(_svd_checked, finite[j:], a[j:], mods[j:], 1e-6)
    assert admitted >= 60 and unsure >= 700


def test_stack_checks_run_in_stack_order(monkeypatch):
    # a gap failure before a singular matrix raises for the gap, a singular
    # matrix before a gap failure raises Singular, and a non-finite matrix
    # first raises for that; the singular matrix alone reaches gesdd
    good = [np.diag([0.5, 2.0]) + 0.1 * k * np.eye(2)[::-1] for k in range(4)]
    on_circle = np.array([[0.0, -1.0], [1.0, 0.0]])
    singular = np.array([[1.0, 1.0], [1.0, 1.0]])
    non_finite = np.array([[np.inf, 0.0], [0.0, 2.0]])
    svds = []
    record_calls(monkeypatch, np.linalg, "svd", svds)
    for bad, error, match in (([on_circle, singular], NotHyperbolic, "unit circle"),
                              ([singular, on_circle], Singular, "singular"),
                              ([non_finite, singular, on_circle], NotHyperbolic, "non-finite")):
        svds.clear()
        with pytest.raises(error, match=match):
            splitting_stack(np.array(good[:2] + bad + good[2:]))
        assert svds == ["svd"]


def test_predict_and_paper7_stacks_make_no_singular_value_call(monkeypatch, paper7_perturbed):
    # the predict workload's stacks (m = 256) and paper7's limits, stacked
    # on the parity scan's grid and split alone, are all regular by the
    # determinant bound: no svd, no gesdd
    rng = np.random.default_rng(12)
    nodes = bundles.path_nodes(hc.CircleGrid.uniform(256).nodes)
    limits = [paper7_perturbed.a_plus, paper7_perturbed.a_minus]
    for d in (2, 4, 6):
        limits.append(predict_style_loop(rng, d, 3)[0])
    calls = []
    record_calls(monkeypatch, np.linalg, "svd", calls)
    record_calls(monkeypatch, _linalg, "dgesdd", calls)
    for limit in limits:
        a = np.array([limit(float(t)) for t in nodes])
        splitting_stack(a)
        hc.hyperbolic_splitting(a[0])
    assert calls == []


def _recorded_eig(monkeypatch):
    """Wrap np.linalg.eig; returns the list of stack lengths it is handed."""
    sizes = []
    real = np.linalg.eig

    def eig(a):
        sizes.append(len(a))
        return real(a)

    monkeypatch.setattr(np.linalg, "eig", eig)
    return sizes


def test_theta_independent_stack_is_split_once(monkeypatch):
    # a stack of bitwise-equal matrices hands eig one matrix; its factors,
    # read-only, are byte for byte those the matrix gets inside a mixed
    # stack, at every index
    rng = np.random.default_rng(5)
    for d in (2, 3, 6):
        while True:
            a = random_hyperbolic(rng, d)
            others = [random_hyperbolic(rng, d) for _ in range(20)]
            mixed = [m for m in others if hc.hyperbolic_splitting(m).d_s == hc.hyperbolic_splitting(a).d_s]
            if len(mixed) >= 3:
                break
        sizes = _recorded_eig(monkeypatch)
        same = splitting_stack(np.repeat(a[None], 9, axis=0))
        assert sizes == [1]
        assert same.u.shape == same.vt.shape == (9, d, d)
        assert not same.u.flags.writeable and not same.vt.flags.writeable
        inside = splitting_stack(np.array(mixed[:2] + [a] + mixed[2:]))
        for i in range(9):
            assert same.u[i].tobytes() == inside.u[2].tobytes()
            assert same.vt[i].tobytes() == inside.vt[2].tobytes()


def test_signed_zeros_and_nan_stacks_are_not_merged(monkeypatch):
    # +0.0 and -0.0 differ in their bytes, so the stack is split matrix by
    # matrix; NaN never matches, so a NaN stack is read as identities (and
    # rejected) matrix by matrix too
    a = np.diag([0.5, 2.0])
    negative = a.copy()
    negative[0, 1] = -0.0
    sizes = _recorded_eig(monkeypatch)
    stack = splitting_stack(np.array([a, negative, a, a]))
    assert sizes == [4]
    assert stack.d_s == 1
    sizes.clear()
    with pytest.raises(NotHyperbolic, match="non-finite"):
        splitting_stack(np.full((4, 2, 2), np.nan))
    assert sizes == [4]


def test_theta_independent_fallback_logs_the_whole_stack(caplog):
    # an all-equal stack of a near-defective matrix takes one Schur
    # splitting, logged as every matrix of the stack, first at index 0
    jordan = _stack_with_jordan_block()[2]
    with caplog.at_level(logging.INFO, logger="homcont.spectral"):
        stack = splitting_stack(np.repeat(jordan[None], 7, axis=0))
    assert [r.getMessage() for r in caplog.records] == [
        "splitting_stack: 7 of 7 matrices took the Schur splitting (first at index 0)"]
    split = hc.hyperbolic_splitting(jordan)
    assert all(np.array_equal(u, split.stable_schur) for u in stack.u)


@pytest.mark.parametrize("name, match", [("dgees", "gees info 1"), ("dtrsen", "trsen info 1")])
def test_schur_lapack_failure_is_not_hyperbolic(monkeypatch, name, match):
    real = getattr(_linalg, name)

    def failing(*args, **kwargs):
        out = real(*args, **kwargs)
        return out if kwargs.get("lwork") == -1 else (*out[:-1], 1)

    # gees fails in hyperbolic_splitting itself, trsen when a frame is read
    monkeypatch.setattr(_linalg, name, failing)
    with pytest.raises(NotHyperbolic, match=match):
        hc.hyperbolic_splitting(np.array([[0.5, 1.0], [0.0, 2.0]])).stable_schur


def _zero_patterned(rng, d):
    """A hyperbolic matrix with zero entries: block upper triangular with
    random_hyperbolic diagonal blocks, half its coupling entries zeroed,
    under a random permutation, so that gees's permutation balancing
    isolates eigenvalues."""
    k = int(rng.integers(1, d + 1))
    a = np.zeros((d, d))
    a[:k, :k] = random_hyperbolic(rng, k)
    if k < d:
        a[k:, k:] = random_hyperbolic(rng, d - k)
        a[:k, k:] = rng.uniform(-2.0, 2.0, (k, d - k)) * (rng.random((k, d - k)) < 0.5)
    perm = rng.permutation(d)
    return a[perm][:, perm]


@pytest.mark.parametrize("kind", ["plain", "triu", "-0.9", "-0.99", "-0.999", "zeros"])
def test_schur_factors_match_scipy_schur(kind):
    # the trsen reorderings of one unsorted gees form are bit for bit
    # scipy.linalg.schur(sort="iuc" / "ouc"), whose sorted count is d_s / d_u;
    # a side of dimension 0 reads the identity
    rng = np.random.default_rng(31)
    identities = 0
    for d in range(1, 7):
        for _ in range(25):
            a = _zero_patterned(rng, d) if kind == "zeros" else _seeded_matrices(kind, rng, d)
            try:
                split = hc.hyperbolic_splitting(a)
            except Singular:  # "triu" can reach cond(a) > 1e14
                continue
            for factor, sort, dim in ((split.stable_schur, "iuc", split.d_s),
                                      (split.unstable_schur, "ouc", split.d_u)):
                _, z, sdim = scipy.linalg.schur(a, output="real", sort=sort)
                assert sdim == dim
                assert np.array_equal(factor, z if dim else np.eye(d))
                identities += dim == 0
    assert identities >= 10


@pytest.mark.parametrize("a", [np.zeros((0, 0)), np.zeros((0, 2, 2)), np.zeros((3, 0, 0))])
def test_empty_matrices_are_value_errors(a):
    splitter = hc.hyperbolic_splitting if a.ndim == 2 else splitting_stack
    with pytest.raises(ValueError, match="nonempty"):
        splitter(a)


def test_green_solve_scalar_delta():
    # x_{n+1} - 0.5 x_n = delta_0  =>  x = (0, 1, 0.5, 0.25, ...)
    x = hc.halfline_green_solve(np.array([[0.5]]), np.array([1.0, 0.0, 0.0]))
    assert x[0] == 0.0
    assert x[1] == pytest.approx(1.0, abs=1e-14)
    assert x[2] == pytest.approx(0.5, abs=1e-14)
    assert x[3] == pytest.approx(0.25, abs=1e-14)


def test_green_solve_zero_input():
    x = hc.halfline_green_solve(np.diag([0.5, 2.0]), np.zeros((5, 2)))
    assert np.all(x == 0.0)


def _green_residual(a, y, x):
    """Direct substitution oracle: sup_n |x_{n+1} - a x_n - y_n|."""
    worst = 0.0
    for n in range(len(x) - 1):
        rhs = y[n] if n < len(y) else np.zeros(a.shape[0])
        worst = max(worst, float(np.linalg.norm(x[n + 1] - a @ x[n] - rhs)))
    return worst


def test_green_solve_residual_random():
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        a = random_hyperbolic(rng, d, gap=0.1)
        y = rng.standard_normal((21, d))
        x = hc.halfline_green_solve(a, y)
        scale = float(np.max(np.linalg.norm(y, axis=1)))
        assert _green_residual(a, y, x) <= 1e-12 * scale


def test_analytic_kernel_rotating_family_at_pi(paper7_linear):
    alpha, beta = 0.5, 2.0
    a_plus = paper7_linear.a_plus(math.pi)
    a_minus = paper7_linear.a_minus(math.pi)
    seqs = hc.analytic_kernel_basis(a_plus, a_minus, 12)
    assert len(seqs) == 1
    seq = seqs[0]
    sign = 1.0 if seq[12][1] > 0 else -1.0
    for n in range(0, 13):
        assert np.allclose(sign * seq[12 + n], [0.0, alpha ** n], atol=1e-12)
    for n in range(1, 13):
        assert np.allclose(sign * seq[12 - n], [0.0, beta ** (-n)], atol=1e-12)


def test_analytic_kernel_empty_cases(paper7_linear):
    a_minus = paper7_linear.a_minus(0.0)
    assert hc.analytic_kernel_basis(paper7_linear.a_plus(0.0), a_minus, 10) == []
    a = np.diag([0.5, 2.0])
    assert hc.analytic_kernel_basis(a, a, 10) == []


def _pair_with_intersection(rng, d, dim):
    """Build (a_plus, a_minus) on R^d whose stable/unstable spaces meet in
    exactly `dim` known directions (via a common orthogonal eigenframe)."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    # a_plus stable on coordinates [0, k_p); a_minus unstable on [start, d);
    # the overlap [start, k_p) has exactly `dim` coordinates.
    k_p = dim + 1
    start = k_p - dim
    vals_p = [rng.uniform(0.2, 0.7) if i < k_p else rng.uniform(1.4, 3) for i in range(d)]
    vals_m = [rng.uniform(0.2, 0.7) if i < start else rng.uniform(1.4, 3) for i in range(d)]
    a_plus = q @ np.diag(vals_p) @ q.T
    a_minus = q @ np.diag(vals_m) @ q.T
    return a_plus, a_minus


def test_analytic_kernel_recurrence_and_decay():
    rng = np.random.default_rng(23)
    horizon = 15
    for dim in (0, 1, 2):
        for _ in range(5):
            d = int(rng.integers(max(2, dim + 1), 5))
            a_plus, a_minus = _pair_with_intersection(rng, d, dim)
            seqs = hc.analytic_kernel_basis(a_plus, a_minus, horizon)
            assert len(seqs) == dim
            sp = hc.hyperbolic_splitting(a_plus)
            sm = hc.hyperbolic_splitting(a_minus)
            rho = 0.05 + max(
                np.max(np.abs(np.linalg.eigvals(sp.restricted_stable()))) if sp.d_s else 0.0,
                np.max(np.abs(np.linalg.eigvals(np.linalg.inv(sm.restricted_unstable()))))
                if sm.d_u else 0.0,
            )
            for seq in seqs:
                for n in range(-horizon, horizon):
                    a = a_plus if n >= 0 else a_minus
                    err = np.linalg.norm(seq[horizon + n + 1] - a @ seq[horizon + n])
                    assert err <= 1e-12 * max(1.0, np.linalg.norm(seq[horizon + n]))
                for n in range(-horizon, horizon + 1):
                    assert np.linalg.norm(seq[horizon + n]) <= 2.0 * rho ** abs(n)


def test_intersection_dimension_matches_svd_oracle():
    rng = np.random.default_rng(29)
    for _ in range(30):
        d = int(rng.integers(2, 5))
        dim = int(rng.integers(0, d - 1))
        a_plus, a_minus = _pair_with_intersection(rng, d, dim)
        seqs = hc.analytic_kernel_basis(a_plus, a_minus, 5)
        # brute-force oracle: nullity of the stacked complement frames
        sp = hc.hyperbolic_splitting(a_plus)
        sm = hc.hyperbolic_splitting(a_minus)
        stacked = np.hstack([
            scipy.linalg.null_space(sp.stable_frame.T),
            scipy.linalg.null_space(sm.unstable_frame.T),
        ])
        sv = np.linalg.svd(stacked.T, compute_uv=False) if stacked.size else np.zeros(0)
        nullity = d - int(np.sum(sv > 1e-8)) if stacked.size else d
        assert len(seqs) == nullity


def _sampled_symbol_min(a, n=20000):
    """(sampled, refined): the least sigma_min(e^{iw} I - a) over n
    equispaced w in [0, pi], and that least value after a bounded scalar
    search within one grid step of every sampled local minimum."""
    d = len(a)
    w = np.linspace(0.0, np.pi, n)
    values = np.linalg.svd(np.exp(1j * w)[:, None, None] * np.eye(d) - a, compute_uv=False)[:, -1]

    def smin(t):
        return float(np.linalg.svd(np.exp(1j * t) * np.eye(d) - a, compute_uv=False)[-1])

    refined = float(np.min(values))
    for i in np.flatnonzero((values <= np.roll(values, 1)) & (values <= np.roll(values, -1))):
        search = scipy.optimize.minimize_scalar(
            smin, bounds=(w[max(i - 1, 0)], w[min(i + 1, n - 1)]), method="bounded",
            options={"xatol": 1e-12},
        )
        refined = min(refined, float(search.fun))
    return float(np.min(values)), refined


def _symbol_cases():
    """(a, far) for seeded hyperbolic matrices, d = 2-6, three per seed:
    random_hyperbolic (real eigenvalues and complex pairs), the same made
    strongly non-normal by an eigenvalue-preserving similarity, and a
    complex pair at modulus 1 -/+ 1e-4 (a sharp dip of the symbol) next to
    a random_hyperbolic block.  far: every eigenvalue modulus is at least
    0.1 away from 1."""
    cases = []
    for seed in range(12):
        rng = np.random.default_rng(seed)
        d = 2 + seed % 5
        a = random_hyperbolic(rng, d)
        s = np.eye(d) + np.triu(rng.uniform(-10.0, 10.0, (d, d)), 1)
        phi = rng.uniform(0.2, np.pi - 0.2)
        near = np.zeros((d, d))
        near[:2, :2] = (1.0 + rng.choice([-1e-4, 1e-4])) * np.array(
            [[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]]
        )
        if d > 2:
            near[2:, 2:] = random_hyperbolic(rng, d - 2)
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        cases += [(a, True), (s @ a @ np.linalg.inv(s), True), (q @ near @ q.T, False)]
    return cases


def test_symbol_smin_against_dense_sampling():
    # the level-set iteration never ends above a 20 000-point sampling, and
    # away from the circle it matches the sampling's locally refined
    # minimum; the raw sampling itself sits up to ~4e-8 above it there
    for a, far in _symbol_cases():
        value = symbol_smin(a)
        sampled, refined = _sampled_symbol_min(a)
        assert value <= sampled * (1.0 + 1e-12)
        if far:
            assert abs(value - refined) <= 1e-9 * refined


def test_symbol_smin_of_normal_matrix_is_the_modulus_gap():
    # for normal a, sigma_min(zI - a) = min over eigenvalues of |z - lambda|
    a = np.diag([0.5, 2.0, -3.0])
    assert abs(symbol_smin(a) - 0.5) <= 1e-15


def _pencils():
    """Seeded real pencils (a, b): symbol_smin's own pencils, random ones,
    ones with a singular b (beta = 0: infinite eigenvalues) and singular
    ones sharing a zero column (alpha = beta = 0), with complex and with
    only real finite eigenvalues."""
    rng = np.random.default_rng(11)
    pencils = []
    for d in (1, 2, 3, 4):
        a = random_hyperbolic(rng, d)
        eye, zero = np.eye(d), np.zeros((d, d))
        sigma = rng.uniform(0.1, 1.0)
        pencils.append((np.block([[a, sigma * eye], [zero, eye]]),
                        np.block([[eye, zero], [sigma * eye, a.T]])))
    for d in (2, 4, 6):
        a, b = rng.standard_normal((d, d)), rng.standard_normal((d, d))
        pencils.append((a, b))
        col = int(rng.integers(d))
        singular_a, singular_b = a.copy(), b.copy()
        singular_a[:, col], singular_b[:, col] = 0.0, 0.0
        pencils += [(a, singular_b), (singular_b, a), (singular_a, singular_b)]
        triu_a, triu_b = np.triu(a), np.triu(b) + np.eye(d)
        triu_a[:, col], triu_b[:, col] = 0.0, 0.0
        pencils.append((triu_a, triu_b))
    return pencils


def test_pencil_eigvals_match_scipy_bit_for_bit():
    # the direct ggev call is scipy.linalg.eigvals(a, b) without its Python
    # layer, beta = 0 included (inf, nan or complex nan, and no warning)
    kinds = set()
    for a, b in _pencils():
        z = spectral._pencil_eigvals(a, b)
        assert z.tobytes() == scipy.linalg.eigvals(a, b).tobytes()
        kinds.update({"inf"} if np.any(np.isinf(z)) else set())
        kinds.update({"nan"} if np.any(np.isnan(z.real) & (z.imag == 0)) else set())
        kinds.update({"complex nan"} if np.any(np.isnan(z.imag)) else set())
    assert kinds == {"inf", "nan", "complex nan"}


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_pencil_eigvals_reject_non_finite(bad):
    a = np.eye(2)
    a[0, 1] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        spectral._pencil_eigvals(a, np.eye(2))
    with pytest.raises(ValueError, match="infs or NaNs"):
        spectral._pencil_eigvals(np.eye(2), a)


def test_pencil_eigvals_lapack_failure_raises(monkeypatch):
    real = _linalg.dggev

    def failing(*args, **kwargs):
        out = real(*args, **kwargs)
        return out if kwargs.get("lwork") == -1 else (*out[:-1], 3)

    monkeypatch.setattr(_linalg, "dggev", failing)
    with pytest.raises(np.linalg.LinAlgError, match="ggev"):
        spectral._pencil_eigvals(np.diag([0.5, 2.0]), np.eye(2))
    with pytest.raises(np.linalg.LinAlgError, match="ggev"):
        symbol_smin(np.diag([0.5, 2.0]))


def _normal_hyperbolic(rng, d):
    """Q D Q^T, Q random orthogonal and D block diagonal: real eigenvalues
    and scaled rotations, moduli in [0.15, 0.85] or [1.15, 3]."""
    core = np.zeros((d, d))
    at = 0
    while at < d:
        r = rng.choice([rng.uniform(0.15, 0.85), rng.uniform(1.15, 3.0)])
        if at + 2 <= d and rng.random() < 0.5:
            phi = rng.uniform(0.2, np.pi - 0.2)
            core[at:at + 2, at:at + 2] = r * np.array(
                [[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]]
            )
            at += 2
        else:
            core[at, at] = r * rng.choice([-1.0, 1.0])
            at += 1
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return q @ core @ q.T


def test_truncated_windows_approach_symbol_smin_from_above():
    # For normal a the window of the constant family splits orthogonally
    # into finite sections T_n of x_{n+1} - D x_n, one per block D of
    # modulus r, with ||T_n x|| >= |1 - r| ||x|| = the block's symbol
    # minimum, and T_{n+1} [0; x] = [0; T_n x] (mirrored on the unstable
    # side): the window smin is at least symbol_smin and does not grow
    # with N.  (Non-normal a can have a half-line mode below it.)
    for seed in range(12):
        rng = np.random.default_rng(seed)
        a = _normal_hyperbolic(rng, 2 + seed % 5)
        target = symbol_smin(a)
        system = hc.linear_family(len(a), lambda t: a, lambda t: a)
        smins = [
            truncation.classify_window(truncation.truncated_problem(system, 0.0, N), 1e-8)[0]
            for N in (40, 160, 640)
        ]
        assert all(s >= target * (1.0 - 1e-12) for s in smins)
        assert all(b <= a_ * (1.0 + 1e-12) for a_, b in zip(smins, smins[1:]))
        assert smins[-1] <= target * (1.0 + 1e-3)
