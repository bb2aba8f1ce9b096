"""Optimisers: convergence on convex problems, clipping, schedules."""

import copy
import pickle

import numpy as np
import pytest

from repro import nn
from repro.nn import Parameter, Tensor


def quadratic_loss(param: Parameter) -> Tensor:
    target = Tensor(np.array([3.0, -2.0]))
    diff = param - target
    return (diff * diff).sum()


class TestSGD:
    def test_converges_on_quadratic(self):
        param = Parameter(np.zeros(2))
        optimizer = nn.SGD([param], lr=0.1)
        for _ in range(100):
            optimizer.zero_grad()
            quadratic_loss(param).backward()
            optimizer.step()
        np.testing.assert_allclose(param.data, [3, -2], atol=1e-3)

    def test_momentum_accelerates(self):
        def run(momentum):
            param = Parameter(np.zeros(2))
            optimizer = nn.SGD([param], lr=0.01, momentum=momentum)
            for _ in range(50):
                optimizer.zero_grad()
                quadratic_loss(param).backward()
                optimizer.step()
            return float(quadratic_loss(param).item())

        assert run(0.9) < run(0.0)

    def test_empty_parameter_list_rejected(self):
        with pytest.raises(ValueError):
            nn.SGD([], lr=0.1)

    def test_skips_none_grads(self):
        param = Parameter(np.ones(2))
        optimizer = nn.SGD([param], lr=0.1)
        optimizer.step()  # no backward happened
        np.testing.assert_allclose(param.data, 1.0)


class TestAdamFamily:
    @pytest.mark.parametrize("cls", [nn.Adam, nn.AdamW])
    def test_converges(self, cls):
        param = Parameter(np.zeros(2))
        optimizer = cls([param], lr=0.1)
        for _ in range(200):
            optimizer.zero_grad()
            quadratic_loss(param).backward()
            optimizer.step()
        np.testing.assert_allclose(param.data, [3, -2], atol=5e-2)

    def test_adamw_decay_shrinks_weights(self):
        param = Parameter(np.full(2, 10.0))
        optimizer = nn.AdamW([param], lr=0.0, weight_decay=0.1)
        # lr=0 disables the gradient update but AdamW's decoupled decay
        # still multiplies weights by (1 - lr*wd) = 1 here; use lr>0.
        optimizer = nn.AdamW([param], lr=0.1, weight_decay=0.5)
        param.grad = np.zeros(2)
        optimizer.step()
        assert np.all(param.data < 10.0)

    def test_adam_weight_decay_couples_into_grad(self):
        param = Parameter(np.full(2, 1.0))
        optimizer = nn.Adam([param], lr=0.1, weight_decay=1.0)
        param.grad = np.zeros(2)
        optimizer.step()
        assert np.all(param.data < 1.0)

    def test_bias_correction_first_step_magnitude(self):
        param = Parameter(np.zeros(1))
        optimizer = nn.Adam([param], lr=0.1)
        param.grad = np.array([1.0])
        optimizer.step()
        # First Adam step is ≈ -lr regardless of gradient scale.
        np.testing.assert_allclose(param.data, [-0.1], atol=1e-6)


def _params(rng):
    return [Parameter(rng.normal(size=shape)) for shape in ((3, 2), (2,), (), (0, 4), (4, 1))]


class TestFlatStep:
    """One flat update per step, with the per-parameter contracts kept."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda ps: nn.SGD(ps, lr=0.1),
            lambda ps: nn.SGD(ps, lr=0.1, momentum=0.9),
            lambda ps: nn.Adam(ps, lr=0.05, weight_decay=0.1),
            lambda ps: nn.AdamW(ps, lr=0.05, weight_decay=0.1),
        ],
    )
    def test_matches_the_per_parameter_spec_bit_for_bit(self, make):
        from repro.check.reference import per_parameter_step

        rng = np.random.default_rng(0)
        ours, theirs = make(_params(rng)), make(_params(np.random.default_rng(0)))
        for step in range(4):
            for a, b in zip(ours.parameters, theirs.parameters):
                a.grad = None if step % 2 and a.data.ndim == 1 else rng.normal(size=a.data.shape)
                b.grad = None if a.grad is None else a.grad.copy()
            ours.step()
            per_parameter_step(theirs)
            for a, b in zip(ours.parameters, theirs.parameters):
                assert a.data.tobytes() == b.data.tobytes()
                assert a.version == b.version
            for key, value in ours.state_dict().items():
                other = theirs.state_dict()[key]
                if isinstance(value, list):
                    assert [v.tobytes() for v in value] == [v.tobytes() for v in other]
                else:
                    assert value == other

    def test_one_version_per_updated_parameter_none_without_a_gradient(self):
        params = _params(np.random.default_rng(1))
        optimizer = nn.AdamW(params, lr=0.1)
        for param in params[1:]:
            param.grad = np.ones_like(param.data)
        before = [param.data.copy() for param in params]
        optimizer.step()
        optimizer.step()
        assert [param.version for param in params] == [0, 2, 2, 2, 2]
        assert np.array_equal(params[0].data, before[0])  # no decoupled decay either
        assert not optimizer._m[0].any() and not optimizer._v[0].any()

    def test_moments_are_views_of_one_buffer(self):
        optimizer = nn.Adam(_params(np.random.default_rng(2)), lr=0.1)
        for param in optimizer.parameters:
            param.grad = np.ones_like(param.data)
        optimizer.step()
        for views, flat in ((optimizer._m, optimizer._m_flat), (optimizer._v, optimizer._v_flat)):
            assert all(np.shares_memory(view, flat) for view in views if view.size)
        assert optimizer._m_flat.size == sum(p.data.size for p in optimizer.parameters)

    def test_state_dict_keeps_per_parameter_lists(self):
        params = _params(np.random.default_rng(3))
        optimizer = nn.AdamW(params, lr=0.1)
        for param in params:
            param.grad = np.ones_like(param.data)
        optimizer.step()
        state = optimizer.state_dict()
        assert set(state) == {"lr", "step", "m", "v"}
        assert [m.shape for m in state["m"]] == [p.data.shape for p in params]
        state["m"][0][...] = 7.0  # a copy, not the live buffer
        assert not (optimizer._m[0] == 7.0).any()
        velocity = nn.SGD(params, lr=0.1, momentum=0.5)
        assert "velocity" not in velocity.state_dict()
        velocity.step()
        assert [v.shape for v in velocity.state_dict()["velocity"]] == [p.data.shape for p in params]

    def test_step_can_be_wrapped_on_the_instance_and_unwrapped(self):
        # benchmarks/ledger/workloads.py times steps exactly this way.
        assert "step" in vars(nn.Optimizer)
        param = Parameter(np.zeros(2))
        optimizer = nn.SGD([param], lr=1.0)
        calls = []
        step = optimizer.step

        def counted():
            calls.append(1)
            step()

        optimizer.step = counted
        param.grad = np.ones(2)
        optimizer.step()
        del optimizer.step
        optimizer.step()
        assert calls == [1] and param.data.tolist() == [-2.0, -2.0]

    def test_clip_grad_norm_signature(self):
        import inspect

        assert list(inspect.signature(nn.clip_grad_norm).parameters) == ["parameters", "max_norm"]


class TestClipGradNorm:
    def test_clips_to_max(self):
        param = Parameter(np.zeros(4))
        param.grad = np.full(4, 10.0)
        norm = nn.clip_grad_norm([param], max_norm=1.0)
        assert norm == pytest.approx(20.0)
        np.testing.assert_allclose(np.linalg.norm(param.grad), 1.0, atol=1e-9)

    def test_small_grads_untouched(self):
        param = Parameter(np.zeros(2))
        param.grad = np.array([0.1, 0.1])
        nn.clip_grad_norm([param], max_norm=1.0)
        np.testing.assert_allclose(param.grad, [0.1, 0.1])

    def test_no_grads_returns_zero(self):
        param = Parameter(np.zeros(2))
        assert nn.clip_grad_norm([param], 1.0) == 0.0

    def test_negative_max_norm_refused(self):
        # It scaled [3, 4] to [-0.6, -0.8]: a step along the gradient.
        param = Parameter(np.zeros(2))
        param.grad = np.array([3.0, 4.0])
        with pytest.raises(ValueError, match="max_norm"):
            nn.clip_grad_norm([param], -1.0)
        np.testing.assert_array_equal(param.grad, [3.0, 4.0])


class TestCosineDecay:
    def test_decays_to_min(self):
        param = Parameter(np.zeros(1))
        optimizer = nn.SGD([param], lr=1.0)
        schedule = nn.CosineDecay(optimizer, total_steps=10, min_lr=0.1)
        for _ in range(10):
            schedule.step()
        np.testing.assert_allclose(optimizer.lr, 0.1, atol=1e-9)

    def test_monotone_decrease(self):
        optimizer = nn.SGD([Parameter(np.zeros(1))], lr=1.0)
        schedule = nn.CosineDecay(optimizer, total_steps=5)
        rates = [schedule.step() for _ in range(5)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))

    def test_invalid_steps(self):
        optimizer = nn.SGD([Parameter(np.zeros(1))], lr=1.0)
        with pytest.raises(ValueError):
            nn.CosineDecay(optimizer, total_steps=0)


def _mlp():
    rng = np.random.default_rng(7)
    return nn.Sequential(nn.Linear(3, 4, rng=rng), nn.Tanh(), nn.Linear(4, 2, rng=rng))


_INPUTS = np.random.default_rng(8).normal(size=(5, 3))


def _train(model, optimizer, steps):
    """``steps`` steps of a loss that depends on the parameters."""
    for _ in range(steps):
        optimizer.zero_grad()
        out = model(Tensor(_INPUTS))
        (out * out).sum().backward()
        optimizer.step()


def _bits(model):
    return [param.data.tobytes() for param in model.parameters()]


class TestParametersLiveInTheFlatBuffer:
    """A parameter's data is a read-only view of its slot of the
    optimiser's value buffer; whatever rebinds it, a step re-homes it
    without losing a bit."""

    def _uninterrupted(self, steps=4):
        model = _mlp()
        _train(model, nn.AdamW(model.parameters(), lr=0.05), steps)
        return _bits(model)

    def test_a_step_makes_each_parameter_a_read_only_view_of_its_slot(self):
        model = _mlp()
        optimizer = nn.AdamW(model.parameters(), lr=0.05)
        before = [param.data for param in model.parameters()]
        assert all(param.data is old for param, old in zip(model.parameters(), before))
        _train(model, optimizer, 1)  # construction moved nothing; the step does
        for param in model.parameters():
            assert np.shares_memory(param.data, optimizer._values)
            with pytest.raises(ValueError, match="read-only"):
                param.data[...] = 0.0

    def test_two_optimizers_over_one_model_lose_no_update(self):
        model, other = _mlp(), _mlp()
        first, second = nn.SGD(model.parameters(), lr=0.05), nn.SGD(model.parameters(), lr=0.05)
        alone = nn.SGD(other.parameters(), lr=0.05)
        for optimizer in (first, second, first, second):  # each step re-homes
            _train(model, optimizer, 1)
            _train(other, alone, 1)
            assert _bits(model) == _bits(other)
        assert all(np.shares_memory(param.data, second._values) for param in model.parameters())

    def test_load_state_dict_writes_through_the_views(self):
        model = _mlp()
        optimizer = nn.AdamW(model.parameters(), lr=0.05)
        _train(model, optimizer, 2)
        views = [param.data for param in model.parameters()]
        model.load_state_dict(model.state_dict())
        optimizer.load_state_dict(optimizer.state_dict())
        assert all(param.data is view for param, view in zip(model.parameters(), views))
        _train(model, optimizer, 2)
        assert _bits(model) == self._uninterrupted()

    @pytest.mark.parametrize(
        "clone", [copy.deepcopy, lambda pair: pickle.loads(pickle.dumps(pair))], ids=["deepcopy", "pickle"]
    )
    def test_a_copy_steps_on_as_the_original_would(self, clone):
        model = _mlp()
        optimizer = nn.AdamW(model.parameters(), lr=0.05)
        _train(model, optimizer, 2)
        copied, copied_optimizer = clone((model, optimizer))
        _train(copied, copied_optimizer, 2)
        assert _bits(copied) == self._uninterrupted()
        assert all(np.shares_memory(p.data, copied_optimizer._values) for p in copied.parameters())
        _train(model, optimizer, 2)  # the original shares nothing with its copy
        assert _bits(model) == self._uninterrupted()
        state, copied_state = optimizer.state_dict(), copied_optimizer.state_dict()
        for key in ("m", "v"):
            assert [m.tobytes() for m in state[key]] == [m.tobytes() for m in copied_state[key]]

    def test_a_rebound_parameter_is_re_homed_with_its_values(self):
        model = _mlp()
        optimizer = nn.AdamW(model.parameters(), lr=0.05)
        _train(model, optimizer, 2)
        param = model.parameters()[0]
        param.data = param.data.copy()
        _train(model, optimizer, 2)
        assert np.shares_memory(param.data, optimizer._values)
        assert _bits(model) == self._uninterrupted()

    def test_the_same_parameter_twice_is_refused(self):
        model = _mlp()
        params = model.parameters()
        with pytest.raises(ValueError, match=r"parameter 4 \(4,\) twice"):
            nn.AdamW(params + [params[1]])
