import gc

import numpy as np
import pytest
import scipy.sparse as sp

from domainmix.autodiff import Tensor, grl, parameter, spmm, stack
from domainmix.errors import ValidationError


def dot(u, v):
    return (u * v).sum()


def fd_grad(build_loss, x0, eps=1e-6):
    """Central finite differences of a scalar function of one array."""
    x0 = np.array(x0, dtype=np.float64)
    g = np.zeros_like(x0)
    flat_in = x0.ravel()
    flat_out = g.ravel()
    for i in range(x0.size):
        keep = flat_in[i]
        flat_in[i] = keep + eps
        up = build_loss(x0)
        flat_in[i] = keep - eps
        dn = build_loss(x0)
        flat_in[i] = keep
        flat_out[i] = (up - dn) / (2.0 * eps)
    return g


def check_against_fd(build_loss, x0, tol=1e-6):
    t = parameter(x0)
    loss = build_loss(t)
    loss.backward()
    numeric = fd_grad(lambda arr: build_loss(Tensor(arr)).item(), x0)
    np.testing.assert_allclose(t.grad, numeric, atol=tol, rtol=tol)


def test_add_mul_broadcast():
    rng = np.random.default_rng(0)
    a0 = rng.normal(size=(3, 4))
    b = Tensor(rng.normal(size=(4,)))
    check_against_fd(lambda a: ((a + b) * (a * 2.0 + 1.0)).sum(), a0)


def test_sub_div():
    rng = np.random.default_rng(1)
    a0 = rng.uniform(1.0, 2.0, size=(5,))
    b = Tensor(rng.uniform(1.0, 2.0, size=(5,)))
    check_against_fd(lambda a: ((b - a) / (a + 3.0)).sum(), a0)


def test_div_denominator_grad():
    rng = np.random.default_rng(2)
    d0 = rng.uniform(0.5, 1.5, size=(4,))
    num = Tensor(rng.normal(size=(4,)))
    check_against_fd(lambda d: (num / d).sum(), d0)


def test_matmul_2d_2d():
    rng = np.random.default_rng(3)
    w0 = rng.normal(size=(4, 3))
    x = Tensor(rng.normal(size=(5, 4)))
    check_against_fd(lambda w: (x @ w).sum(), w0)


def test_matmul_left_grad():
    rng = np.random.default_rng(4)
    x0 = rng.normal(size=(2, 3))
    w = Tensor(rng.normal(size=(3, 4)))
    weight = Tensor(rng.normal(size=(2, 4)))
    check_against_fd(lambda x: ((x @ w) * weight).sum(), x0)


def test_matmul_vector_cases():
    rng = np.random.default_rng(5)
    v0 = rng.normal(size=(4,))
    m = Tensor(rng.normal(size=(4, 3)))
    check_against_fd(lambda v: (v @ m).sum(), v0)
    m2 = Tensor(rng.normal(size=(3, 4)))
    check_against_fd(lambda v: (m2 @ v).sum(), v0)
    u = Tensor(rng.normal(size=(4,)))
    check_against_fd(lambda v: v @ u, v0)


def test_relu():
    # keep probes away from the kink at 0
    x0 = np.array([-2.0, -0.5, 0.7, 1.5, -1.1, 2.2])
    check_against_fd(lambda x: (x.relu() * 3.0).sum(), x0)


def test_log_sqrt():
    rng = np.random.default_rng(6)
    x0 = rng.uniform(0.5, 3.0, size=(6,))
    check_against_fd(lambda x: x.log().sum() + x.sqrt().sum(), x0)


def test_clamp_interior_and_clipped():
    x0 = np.array([-5.0, 0.3, 0.7, 5.0])
    t = parameter(x0)
    loss = t.clamp(0.0, 1.0).sum()
    loss.backward()
    np.testing.assert_array_equal(t.grad, [0.0, 1.0, 1.0, 0.0])


def test_softmax_matches_fd():
    rng = np.random.default_rng(7)
    x0 = rng.normal(size=(3, 4))
    w = Tensor(rng.normal(size=(3, 4)))
    check_against_fd(lambda x: (x.softmax() * w).sum(), x0)


def test_softmax_rows_normalized():
    rng = np.random.default_rng(8)
    y = Tensor(rng.normal(size=(5, 7)) * 30).softmax()
    assert (y.data > 0).all()
    np.testing.assert_allclose(y.data.sum(axis=-1), np.ones(5), atol=1e-9)


def test_sum_mean_axes():
    rng = np.random.default_rng(9)
    x0 = rng.normal(size=(4, 5))
    w = Tensor(rng.normal(size=(5,)))
    check_against_fd(lambda x: (x.mean(axis=0) * w).sum(), x0)
    w2 = Tensor(rng.normal(size=(4,)))
    check_against_fd(lambda x: (x.sum(axis=1) * w2).sum(), x0)


def test_getitem_with_duplicate_rows():
    rng = np.random.default_rng(10)
    x0 = rng.normal(size=(5, 3))
    idx = np.array([0, 2, 2, 4])
    w = Tensor(rng.normal(size=(4, 3)))
    check_against_fd(lambda x: (x[idx] * w).sum(), x0)


def test_stack_and_mean():
    rng = np.random.default_rng(11)
    x0 = rng.normal(size=(3,))
    other = Tensor(rng.normal(size=(3,)))

    def loss(x):
        piled = stack([x * 2.0, other, x + other])
        return piled.mean(axis=0).sum()

    check_against_fd(loss, x0)


def test_spmm_matches_dense():
    rng = np.random.default_rng(12)
    dense = rng.random((6, 6)) < 0.4
    a = sp.csr_matrix(dense.astype(np.float64))
    x0 = rng.normal(size=(6, 3))
    w = Tensor(rng.normal(size=(6, 3)))
    check_against_fd(lambda x: (spmm(a, x) * w).sum(), x0)
    t = Tensor(x0)
    np.testing.assert_allclose(spmm(a, t).data, dense @ x0, atol=1e-12)


def test_grl_identity_forward():
    rng = np.random.default_rng(13)
    x = Tensor(rng.normal(size=(4,)))
    np.testing.assert_array_equal(grl(x, beta=2.5).data, x.data)


def test_grl_reverses_gradient_exactly():
    rng = np.random.default_rng(14)
    x0 = rng.normal(size=(6,))
    for beta in (1.0, 0.5, 3.0):
        plain = parameter(x0)
        (plain * plain).sum().backward()
        flipped = parameter(x0)
        g = grl(flipped, beta=beta)
        (g * g).sum().backward()
        np.testing.assert_array_equal(flipped.grad, -beta * plain.grad)
        # closed form: d/dv of (grl(v))^2 summed is -beta * 2v
        np.testing.assert_allclose(flipped.grad, -beta * 2.0 * x0, atol=1e-12)


def test_shared_subexpression_accumulates():
    x = parameter([3.0])
    y = x + x
    y.sum().backward()
    np.testing.assert_array_equal(x.grad, [2.0])


def test_diamond_graph():
    x = parameter([2.0])
    a = x * 3.0
    b = x + 1.0
    ((a * b)).sum().backward()
    # d/dx (3x(x+1)) = 6x + 3
    np.testing.assert_allclose(x.grad, [15.0])


def test_dot_and_cosine_pipeline():
    rng = np.random.default_rng(15)
    u0 = rng.normal(size=(5,))
    v = Tensor(rng.normal(size=(5,)))

    def cos(u):
        return dot(u, v) / (dot(u, u).sqrt() * dot(v, v).sqrt())

    check_against_fd(cos, u0)


def test_backward_requires_scalar():
    x = parameter(np.ones((2, 2)))
    with pytest.raises(ValidationError):
        (x * 2.0).backward()


def test_zero_grad():
    x = parameter([1.0, 2.0])
    (x * x).sum().backward()
    assert np.abs(x.grad).sum() > 0
    x.zero_grad()
    np.testing.assert_array_equal(x.grad, [0.0, 0.0])


def _live_tensors():
    return sum(1 for obj in gc.get_objects() if isinstance(obj, Tensor))


def test_finished_tape_is_freed_without_cycle_collection():
    rng = np.random.default_rng(16)
    w = parameter(rng.normal(size=(3, 4)))
    v = parameter(rng.normal(size=(4,)))
    x = Tensor(rng.normal(size=(5, 3)))
    a = sp.random(5, 5, density=0.5, random_state=2, format="csr")
    gc.collect()
    gc.disable()
    try:
        before = _live_tensors()
        h = spmm(a, x @ w).relu()
        rows = stack([h[i] for i in range(5)]).mean(axis=0)
        probs = (grl(rows, beta=0.5) * 2.0 - 1.0).softmax().clamp(1e-12, 1.0)
        norm = (dot(v, v) + 1.0).sqrt()
        loss = -(probs.log().sum() / norm) + (v @ v) / (1.0 + rows @ v)
        loss.backward()
        del h, rows, probs, norm, loss
        after = _live_tensors()
    finally:
        gc.enable()
    assert after == before


def test_constants_get_no_gradient_and_forward_allocates_none():
    rng = np.random.default_rng(17)
    x = Tensor(rng.normal(size=(5, 3)))
    w = parameter(rng.normal(size=(3, 2)))
    out = (x @ w).relu().sum()
    assert all(t._grad is None for t in (x, w, out))
    out.backward()
    np.testing.assert_array_equal(x.grad, np.zeros((5, 3)))
    np.testing.assert_allclose(w.grad, x.data.T @ ((x.data @ w.data) > 0), atol=1e-12)


@pytest.mark.parametrize(
    "spec, shape_a, shape_b",
    [
        ("ij,jk->ik", (3, 4), (4, 2)),
        ("mk,kmh->mh", (5, 3), (3, 5, 4)),
        ("sh,sch->sc", (4, 6), (4, 3, 6)),
        ("s,sc->sc", (4,), (4, 3)),
        ("i,j->ij", (3,), (2,)),
    ],
)
def test_einsum_matches_numpy_and_fd(spec, shape_a, shape_b):
    from domainmix.autodiff import einsum

    rng = np.random.default_rng(len(spec))
    a0, b0 = rng.normal(size=shape_a), rng.normal(size=shape_b)
    out = einsum(spec, a0, b0)
    np.testing.assert_array_equal(out.data, np.einsum(spec, a0, b0))
    weights = rng.normal(size=out.data.shape)
    check_against_fd(lambda a: (einsum(spec, a, Tensor(b0)) * Tensor(weights)).sum(), a0)
    check_against_fd(lambda b: (einsum(spec, Tensor(a0), b) * Tensor(weights)).sum(), b0)


def test_einsum_rejects_specs_without_a_plain_gradient():
    from domainmix.autodiff import einsum

    for spec in ("ii,i->i", "ij,j->j", "ij,jk", "ij,jk,kl->il", "i,i->ii"):
        with pytest.raises(ValidationError):
            einsum(spec, np.ones((2, 2)), np.ones(2))


def _gcn_inputs(rng, rows1_sparse):
    n, m, d, h = 9, 4, 5, 6
    rows0 = sp.random(m, n, density=0.5, random_state=1, format="csr") + sp.eye(m, n, format="csr")
    rows1 = (
        sp.random(n, n, density=0.4, random_state=2, format="csr") + sp.eye(n, format="csr")
        if rows1_sparse
        else None
    )
    x, w1, w2 = rng.normal(size=(n, d)), rng.normal(size=(d, h)), rng.normal(size=(h, 3))
    return rows0.tocsr(), None if rows1 is None else rows1.tocsr(), x, w1, w2


@pytest.mark.parametrize("rows1_sparse", [False, True])
def test_gcn_gradients_match_fd(rows1_sparse):
    from domainmix.autodiff import gcn

    rng = np.random.default_rng(50 + rows1_sparse)
    rows0, rows1, x0, w10, w20 = _gcn_inputs(rng, rows1_sparse)
    weights = Tensor(rng.normal(size=(rows0.shape[0], w20.shape[1])))
    args = {"x": x0, "w1": w10, "w2": w20}
    for name in args:

        def loss(t, name=name):
            given = {k: Tensor(v) for k, v in args.items()}
            given[name] = t
            return (gcn(rows0, rows1, given["x"], given["w1"], given["w2"]) * weights).sum()

        check_against_fd(loss, args[name])


@pytest.mark.parametrize("rows1_sparse", [False, True])
def test_gcn_is_bit_equal_to_the_unfused_chain(rows1_sparse):
    from domainmix.autodiff import gcn

    rng = np.random.default_rng(60 + rows1_sparse)
    rows0, rows1, x0, w10, w20 = _gcn_inputs(rng, rows1_sparse)
    weights = rng.normal(size=(rows0.shape[0], w20.shape[1]))
    results = []
    for fused in (True, False):
        x, w1, w2 = parameter(x0), parameter(w10), parameter(w20)
        if fused:
            out = gcn(rows0, rows1, x, w1, w2)
        else:
            hidden = x @ w1
            if rows1 is not None:
                hidden = spmm(rows1, hidden)
            out = spmm(rows0, hidden.relu()) @ w2
        (out * Tensor(weights)).sum().backward()
        results.append([out.data, x.grad, w1.grad, w2.grad])
    for got, want in zip(*results):
        assert np.array_equal(got, want)


def test_gcn_gives_constants_no_gradient():
    from domainmix.autodiff import gcn

    rng = np.random.default_rng(61)
    rows0, rows1, x0, w10, w20 = _gcn_inputs(rng, True)
    x, w1, w2 = Tensor(x0), parameter(w10), Tensor(w20)
    gcn(rows0, rows1, x, w1, w2).sum().backward()
    assert x._grad is None and w2._grad is None
    assert w1.grad.shape == w10.shape and np.abs(w1.grad).sum() > 0
