"""Tensor core: forward anchors, backward rules, finite-difference checks."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import reference
import mscgc
from mscgc import graph, layers, tensor
from mscgc.errors import DimensionError, UsageError, ValidationError
from mscgc.layers import LinearLayer
from mscgc.model import ModelConfig, MscgcKanModel
from mscgc.tensor import (
    Tensor,
    add,
    backward_hook,
    concat,
    conv1d,
    elu,
    finite_diff_check,
    grad_enabled,
    matmul,
    no_grad,
    pad_left,
    reduce_sum,
    silu,
    sin,
    softmax_cross_entropy,
    square,
    tanh,
)


class TestElementwise:
    def test_elu_fixed_point(self):
        assert elu(Tensor(0.0)).item() == 0.0

    def test_elu_negative_one(self):
        # e^{-1} - 1
        assert abs(elu(Tensor(-1.0)).item() - (-0.6321205588285577)) < 1e-15

    def test_silu_zero(self):
        assert silu(Tensor(0.0)).item() == 0.0

    def test_broadcast_mismatch(self):
        with pytest.raises(DimensionError):
            add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    def test_broadcasting_trailing_alignment(self):
        out = Tensor(np.ones((2, 3))) + Tensor(np.array([10.0, 20.0, 30.0]))
        np.testing.assert_array_equal(out.data, [[11, 21, 31], [11, 21, 31]])


class TestMatmul:
    def test_identity(self):
        b = Tensor(np.arange(9.0).reshape(3, 3))
        np.testing.assert_array_equal(matmul(Tensor(np.eye(3)), b).data, b.data)

    def test_hand_product(self):
        out = matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_zeros(self):
        out = matmul(Tensor(np.zeros((2, 3))), Tensor(np.ones((3, 4))))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_inner_mismatch(self):
        with pytest.raises(DimensionError):
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))

    def test_needs_two_dims(self):
        with pytest.raises(DimensionError):
            matmul(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))))

    def test_batched_broadcast(self):
        a = np.random.default_rng(0).normal(size=(2, 2))
        o = np.random.default_rng(1).normal(size=(4, 2, 5))
        out = matmul(Tensor(a), Tensor(o))
        np.testing.assert_allclose(out.data, np.matmul(a, o), atol=1e-15)


class TestGradientLayout:
    """A weight gradient is stored in its weight's row-major layout.

    A linear layer computes x @ W.T, so the matmul sees W through a transposed
    view. Its gradient must still reach W.grad C-contiguous and bitwise equal
    to (x.T @ g).T, the transpose of the plain product.
    """

    def test_transposed_operand(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(33, 17)))
        w = Tensor(rng.normal(size=(9, 17)), requires_grad=True)
        out = matmul(x, w.transpose())
        g = rng.normal(size=out.shape)
        reduce_sum(out * Tensor(g)).backward()
        assert w.grad.flags.c_contiguous
        assert w.grad.tobytes() == np.ascontiguousarray((x.data.T @ g).T).tobytes()

    def test_batched_input_with_transposed_operand(self):
        rng = np.random.default_rng(1)
        x = Tensor(rng.normal(size=(3, 11, 7)))
        w = Tensor(rng.normal(size=(5, 7)), requires_grad=True)
        out = matmul(x, w.transpose())
        g = rng.normal(size=out.shape)
        reduce_sum(out * Tensor(g)).backward()
        assert w.grad.flags.c_contiguous
        np.testing.assert_allclose(w.grad, np.einsum("bij,bik->jk", g, x.data), rtol=1e-12)

    @pytest.mark.parametrize("block", ["mcr", "identity"])
    @pytest.mark.parametrize("kan", ["kan", "affine"])
    @pytest.mark.parametrize("harmonics", [0, 2])
    def test_model_gradients(self, monkeypatch, block, kan, harmonics):
        calls = []
        linear_call = LinearLayer.__call__

        def recording_call(layer, x):
            out = linear_call(layer, x)
            calls.append((layer, out._parents[0]))  # x @ W.T, before the bias is added
            return out

        monkeypatch.setattr(LinearLayer, "__call__", recording_call)
        cfg = ModelConfig(C=4, S=3, D=5, P=6, M=3, hidden=7, out_dim=5, block=block,
                          kan=kan, harmonics=harmonics, seed=2)
        model = MscgcKanModel(cfg)
        x = np.random.default_rng(3).normal(size=(8, 4, 3, 6))
        loss = softmax_cross_entropy(model.forward(x), np.arange(8) % 3)
        hook, copies = copying_hook([product for _, product in calls])
        with backward_hook(hook):
            loss.backward()
        assert len(calls) == (4 if kan == "kan" else 3)
        for name, p in model.named_parameters():
            assert p.grad is not None and p.grad.flags.c_contiguous, name
        for layer, product in calls:
            g, x_in = copies[id(product)], product._parents[0].data
            expected = np.ascontiguousarray((x_in.T @ g).T)
            assert layer.weight.grad.tobytes() == expected.tobytes()

    def test_scalar_gradient_is_an_array(self):
        x = Tensor(3.0, requires_grad=True)
        (square(x) * x).backward()
        assert isinstance(x.grad, np.ndarray) and x.grad.shape == () and x.grad == 27.0

    @pytest.mark.parametrize("block", ["mcr", "identity"])
    @pytest.mark.parametrize("kan", ["kan", "affine"])
    @pytest.mark.parametrize("harmonics", [0, 2])
    def test_gradients_own_their_buffers(self, monkeypatch, block, kan, harmonics):
        """No .grad shares memory with another .grad or any .data, also while
        the replay runs, and handing gradients over without a copy changes no
        gradient bit."""

        def train_step():
            # default dropout 0.1, so dropout masks enter `mul` as constants
            cfg = ModelConfig(C=4, S=3, D=5, P=6, M=3, hidden=7, out_dim=5, block=block,
                              kan=kan, harmonics=harmonics, seed=2)
            model = MscgcKanModel(cfg)
            x = np.random.default_rng(3).normal(size=(8, 4, 3, 6))
            loss = softmax_cross_entropy(model.forward(x), np.arange(8) % 3)
            nodes = _reachable(loss)
            # every gradient is compared, not just the leaves'
            hook, copies = copying_hook(nodes, owned_by=nodes)
            with backward_hook(hook):
                loss.backward()
            return model, nodes, copies

        model, nodes, copies = train_step()
        for name, p in model.named_parameters():
            assert p.grad is not None and p.grad.flags.c_contiguous, name
        grads = [n.grad for n in nodes if n.grad is not None]
        for i, g in enumerate(grads):
            assert not any(np.shares_memory(g, other) for other in grads[i + 1:])
            assert not any(np.shares_memory(g, n.data) for n in nodes)

        accumulate = tensor.accumulate_grad

        def always_copy(t, grad):
            accumulate(t, np.array(grad))

        for module in (tensor, layers, graph):
            monkeypatch.setattr(module, "accumulate_grad", always_copy)
        _, copied, copied_copies = train_step()
        assert [n._op for n in nodes] == [n._op for n in copied]
        for n, c in zip(nodes, copied):
            g, h = copies.get(id(n)), copied_copies.get(id(c))
            assert (g is None) == (h is None), n._op
            if g is not None:
                assert g.shape == h.shape and g.tobytes() == h.tobytes(), n._op


def copying_hook(nodes, owned_by=()):
    """A backward hook that keeps a copy of the gradient each of `nodes` holds
    when the replay reaches it, by id, and the dict it fills. Each gradient it
    sees is checked to share memory with no gradient another of `owned_by`
    holds and with no `.data` of theirs."""
    wanted = {id(n) for n in nodes}
    copies = {}

    def hook(node, grad):
        for other in owned_by:
            assert not np.shares_memory(grad, other.data), (node._op, other._op)
            if other is not node and other.grad is not None:
                assert not np.shares_memory(grad, other.grad), (node._op, other._op)
        if id(node) in wanted:
            copies[id(node)] = grad.copy()
        return grad

    return hook, copies


def _reachable(root: Tensor) -> list:
    """Every tensor `root` was computed from, constants included, in creation order."""
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return sorted(seen.values(), key=lambda n: n._seq)


class TestGradientOwnership:
    """At the desk geometry, a backward leaves a gradient only on leaves, a
    hook retains a copy of any other, and passing views of a gradient on
    without a copy changes no parameter gradient bit."""

    @staticmethod
    def desk_loss(batch=8):
        cfg = ModelConfig(C=16, S=10, D=32, P=24, M=4, hidden=48, out_dim=24, seed=0)
        model = MscgcKanModel(cfg)
        x = np.random.default_rng(1).normal(size=(batch, 16, 10, 24))
        return model, softmax_cross_entropy(model.forward(x), np.arange(batch) % 4)

    def test_op_outputs_hold_no_gradient_unless_retained(self):
        _, loss = self.desk_loss()
        ops = [n for n in _reachable(loss) if n._backward is not None]
        kept = {id(n) for n in ops[::3]}
        hook, copies = copying_hook(ops[::3])
        with backward_hook(hook):
            loss.backward()
        assert all(n.grad is None for n in ops)
        assert [(n._op, id(n) in copies) for n in ops] == [(n._op, id(n) in kept) for n in ops]

    def test_retained_gradient_shares_memory_with_no_other(self):
        """Each op output's gradient, as the replay reaches it, is its own."""
        _, loss = self.desk_loss()
        nodes = _reachable(loss)
        retained = [n for n in nodes if n._backward is not None][1::2]
        hook, copies = copying_hook(retained, owned_by=nodes)
        with backward_hook(hook):
            loss.backward()
        assert set(copies) == {id(n) for n in retained}

    def test_parameter_gradients_equal_copying_every_gradient(self, monkeypatch):
        model, loss = self.desk_loss()
        loss.backward()
        nodes = _reachable(loss)
        assert all(n.grad is None for n in nodes if n._backward is not None)
        leaf_grads = [n.grad for n in nodes if n.grad is not None]
        assert len(leaf_grads) == len(model.named_parameters())
        for i, g in enumerate(leaf_grads):
            assert g.flags.c_contiguous
            assert not any(np.shares_memory(g, other) for other in leaf_grads[i + 1:])

        accumulate = tensor.accumulate_grad

        def always_copy(t, grad):
            accumulate(t, np.array(grad))

        for module in (tensor, layers, graph):
            monkeypatch.setattr(module, "accumulate_grad", always_copy)
        copied, loss = self.desk_loss()
        loss.backward()
        for (name, p), (_, q) in zip(model.named_parameters(), copied.named_parameters()):
            assert p.grad.tobytes() == q.grad.tobytes(), name

    def test_tape_after_backward_holds_little_more_than_after_forward(self):
        """Op-output gradients are dropped as the backward goes, so a batch-64
        step's tape grows by about its parameter gradients, not by a second
        copy of its activations."""
        tracemalloc.start()
        try:
            model, loss = self.desk_loss(batch=64)
            forward = tracemalloc.get_traced_memory()[0]
            loss.backward()
            after = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert after <= 1.15 * forward, (forward, after)


class TestNoGrad:
    def test_ops_record_no_tape(self):
        w = Tensor(np.ones((3, 2)), requires_grad=True)
        with no_grad():
            out = elu(matmul(Tensor(np.ones((4, 3))), w))
        assert not out.requires_grad and out._parents == () and out._backward is None
        assert elu(matmul(Tensor(np.ones((4, 3))), w)).requires_grad

    def test_scope_nests_and_restores_on_error(self):
        assert grad_enabled()
        with no_grad():
            with no_grad():
                assert not grad_enabled()
            assert not grad_enabled()
        assert grad_enabled()
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("inside the scope")
        assert grad_enabled()


class TestBackwardHook:
    def test_sees_each_gradient_once_leaves_included_in_replay_order(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        seen = []
        with backward_hook(lambda node, grad: seen.append((node._op, grad.tolist())) or grad):
            reduce_sum(square(x) * 3.0).backward()
        assert seen == [("reduce_sum", 1.0), ("mul", [1.0, 1.0]), ("square", [3.0, 3.0]),
                        ("leaf", [6.0, 12.0])]
        assert x.grad.tolist() == [6.0, 12.0]

    def test_rule_runs_on_the_array_the_hook_returns(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with backward_hook(lambda node, grad: grad * 2.0 if node._op == "square" else grad):
            reduce_sum(square(x)).backward()
        np.testing.assert_array_equal(x.grad, [4.0, 8.0])

    def test_nested_scope_restores_the_outer_hook(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        outer, inner = [], []
        with backward_hook(lambda node, grad: outer.append(node._op) or grad):
            with backward_hook(lambda node, grad: inner.append(node._op) or grad):
                reduce_sum(square(x)).backward()
            assert outer == [] and inner == ["reduce_sum", "square", "leaf"]
            reduce_sum(square(x)).backward()
        assert outer == inner

    @pytest.mark.parametrize("raise_in", ["body", "hook"])
    def test_hook_is_removed_after_an_error(self, raise_in):
        seen = []

        def hook(node, grad):
            seen.append(node._op)
            if raise_in == "hook":
                raise ValueError("inside the hook")
            return grad

        with pytest.raises(ValueError):
            with backward_hook(hook):
                reduce_sum(square(Tensor([1.0], requires_grad=True))).backward()
                raise ValueError("inside the scope")
        seen.clear()
        x = Tensor([1.0, 2.0], requires_grad=True)
        reduce_sum(square(x)).backward()
        assert seen == []
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])


class TestConv1d:
    def test_hand_convolution(self):
        out = conv1d(Tensor([[[1.0], [2.0], [3.0], [4.0]]]), Tensor([[[0.0, 0.0, 1.0]]]),
                     Tensor([0.0]))
        np.testing.assert_array_equal(out.data, [[[3.0], [4.0]]])

    def test_identity_kernel(self):
        x = np.random.default_rng(2).normal(size=(1, 6, 1))
        out = conv1d(Tensor(x), Tensor(np.ones((1, 1, 1))), Tensor([0.0]))
        np.testing.assert_array_equal(out.data, x)

    def test_zero_kernel(self):
        out = conv1d(Tensor(np.ones((2, 8, 3))), Tensor(np.zeros((4, 3, 3))), Tensor(np.zeros(4)))
        np.testing.assert_array_equal(out.data, np.zeros((2, 6, 4)))

    def test_causal_conv_matches_loops(self):
        rng = np.random.default_rng(4)
        x, w, b = rng.normal(size=(2, 6, 3)), rng.normal(size=(4, 3, 5)), rng.normal(size=4)
        out = conv1d(pad_left(Tensor(x), 4), Tensor(w), Tensor(b))
        assert out.data.flags.c_contiguous
        np.testing.assert_allclose(out.data, reference.causal_conv(x, w, b), rtol=1e-12,
                                   atol=1e-12)

    def test_kernel_longer_than_input(self):
        with pytest.raises(DimensionError):
            conv1d(Tensor(np.ones((1, 2, 1))), Tensor(np.ones((1, 1, 3))), Tensor([0.0]))

    def test_channel_mismatch(self):
        with pytest.raises(DimensionError):
            conv1d(Tensor(np.ones((1, 8, 2))), Tensor(np.ones((3, 4, 3))), Tensor(np.zeros(3)))


class TestReduce:
    def test_hand_sum(self):
        assert reduce_sum(Tensor([1.0, 2.0, 3.0])).item() == 6.0


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss = softmax_cross_entropy(Tensor(np.zeros((3, 4))), np.array([0, 1, 3]))
        assert abs(loss.item() - 1.3862943611198906) < 1e-12

    def test_confident_margin(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 50.0
        assert softmax_cross_entropy(Tensor(logits), np.array([2])).item() < 1e-9

    def test_single_class(self):
        assert softmax_cross_entropy(Tensor(np.zeros((2, 1))), np.array([0, 0])).item() == 0.0

    def test_label_out_of_range(self):
        with pytest.raises(ValidationError):
            softmax_cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))

    def test_backward_is_softmax_minus_onehot(self):
        logits = Tensor(np.array([[1.0, 2.0, 0.5]]), requires_grad=True)
        softmax_cross_entropy(logits, np.array([1])).backward()
        z = logits.data - logits.data.max()
        p = np.exp(z) / np.exp(z).sum()
        expected = p.copy()
        expected[0, 1] -= 1.0
        np.testing.assert_allclose(logits.grad, expected, atol=1e-12)


class TestBackward:
    def test_sum_gradient(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        reduce_sum(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones(3))

    def test_sum_of_squares(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        reduce_sum(square(x)).backward()
        np.testing.assert_array_equal(x.grad, [2.0, 4.0])

    def test_accumulation_without_zeroing(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        reduce_sum(square(x)).backward()
        reduce_sum(square(x)).backward()
        np.testing.assert_array_equal(x.grad, [4.0, 8.0])

    def test_non_scalar_rejected(self):
        with pytest.raises(UsageError):
            Tensor(np.zeros(2), requires_grad=True).backward()

    def test_root_built_under_no_grad_rejected(self):
        """Otherwise the root takes a gradient of 1, no parameter gets one,
        and an optimizer that reads a missing gradient as zero steps anyway."""
        w = Tensor([1.0, 2.0], requires_grad=True)
        with no_grad():
            z = reduce_sum(w * 3.0)
        with pytest.raises(UsageError):
            z.backward()
        assert w.grad is None and z.grad is None

    def test_root_of_constants_only_rejected(self):
        with pytest.raises(UsageError):
            reduce_sum(Tensor([1.0, 2.0]) * 3.0).backward()

    def test_fanout_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        y = x * x + x * 2.0
        reduce_sum(y).backward()
        np.testing.assert_allclose(x.grad, [8.0])

    def test_two_backwards_over_one_graph_add_each_gradient_once(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = reduce_sum(square(x) * 3.0)
        y.backward()
        y.backward()
        np.testing.assert_array_equal(x.grad, [12.0, 24.0])

    def test_op_outputs_drop_their_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        s = square(x)
        y = reduce_sum(s * 3.0)
        y.backward()
        assert s.grad is None and y.grad is None
        np.testing.assert_array_equal(x.grad, [6.0, 12.0])

    def test_both_operands_of_an_add_own_their_gradients(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0, 4.0], requires_grad=True)
        reduce_sum((x + y) * Tensor([5.0, 6.0])).backward()
        assert not np.shares_memory(x.grad, y.grad)
        np.testing.assert_array_equal(y.grad, [5.0, 6.0])

    def test_both_operands_of_an_add_add_up_apart(self):
        """Were both to keep the one array, the second backward would add its
        gradient into each of them twice."""
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = Tensor([3.0, 4.0], requires_grad=True)
        z = reduce_sum((x + y) * Tensor([5.0, 6.0]))
        z.backward()
        z.backward()
        np.testing.assert_array_equal(x.grad, [10.0, 12.0])
        np.testing.assert_array_equal(y.grad, [10.0, 12.0])

    def test_backward_is_called_without_arguments_in_src(self):
        """perfbench/spans.py wraps Tensor.backward as `backward(root)`, so a
        call that passes anything makes every traced benchmark run fail."""
        calls = []
        for path in sorted(Path(mscgc.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "backward" and (node.args or node.keywords)):
                    calls.append(f"{path.name}:{node.lineno}")
        assert calls == [], f"backward called with arguments at {calls}"

    def test_default_rng_is_seeded_in_src(self):
        """A generator made without a seed draws from OS entropy, so a model or
        dataset built from it differs on every run."""
        calls = []
        for path in sorted(Path(mscgc.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                unseeded = not (node.args or node.keywords) or (
                    len(node.args) == 1 and isinstance(node.args[0], ast.Constant)
                    and node.args[0].value is None)
                if name == "default_rng" and unseeded:
                    calls.append(f"{path.name}:{node.lineno}")
        assert calls == [], f"default_rng called without a seed at {calls}"


class TestFiniteDiffCheck:
    def test_sin_sum(self):
        x = Tensor(np.random.default_rng(0).uniform(-2, 2, (3, 4)), requires_grad=True)
        assert finite_diff_check(lambda t: reduce_sum(sin(t)), x) < 1e-6

    def test_linear_near_machine_eps(self):
        x = Tensor(np.random.default_rng(1).uniform(-2, 2, 5), requires_grad=True)
        assert finite_diff_check(lambda t: reduce_sum(t * 3.0), x) < 1e-8

    def test_square_at_zero(self):
        x = Tensor(np.zeros(4), requires_grad=True)
        assert finite_diff_check(lambda t: reduce_sum(square(t)), x) < 1e-8

    def test_requires_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(UsageError):
            finite_diff_check(lambda t: square(t), x)

    def test_corruption_hook_is_caught(self):
        x = Tensor(np.random.default_rng(2).uniform(-2, 2, 6), requires_grad=True)
        with backward_hook(lambda node, grad: grad * 1.01 if node._op == "elu" else grad):
            err = finite_diff_check(lambda t: reduce_sum(square(elu(t))), x)
        assert err > 1e-4


class TestOpProperties:
    def test_random_gradchecks_under_tolerance(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
        for op in (elu, silu, tanh, sin, square):
            x.zero_grad()
            assert finite_diff_check(lambda t, op=op: reduce_sum(square(op(t))), x) < 1e-4

    def test_pad_concat_grads(self):
        rng = np.random.default_rng(8)
        a = Tensor(rng.uniform(-2, 2, (2, 3)), requires_grad=True)
        b = Tensor(rng.uniform(-2, 2, (2, 2)), requires_grad=True)
        err = finite_diff_check(
            lambda u, v: reduce_sum(square(concat([pad_left(u, 2), v], axis=-1))), [a, b])
        assert err < 1e-4

    def test_forward_determinism_bitwise(self):
        x = Tensor(np.random.default_rng(9).normal(size=(4, 5)))
        a = silu(tanh(x) * 2.0 + 1.0).data
        b = silu(tanh(x) * 2.0 + 1.0).data
        assert a.tobytes() == b.tobytes()

    def test_ops_do_not_mutate_inputs(self):
        x = Tensor(np.random.default_rng(10).normal(size=(3, 3)), requires_grad=True)
        snapshot = x.data.copy()
        out = reduce_sum(square(elu(x + 1.0)))
        out.backward()
        np.testing.assert_array_equal(x.data, snapshot)

    def test_transpose_reshape_round_trip(self):
        x = Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
        y = x.transpose((0, 2, 1)).reshape(2, 12).reshape(2, 4, 3).transpose((0, 2, 1))
        np.testing.assert_array_equal(y.data, x.data)
        reduce_sum(square(y)).backward()
        np.testing.assert_allclose(x.grad, 2 * x.data)
