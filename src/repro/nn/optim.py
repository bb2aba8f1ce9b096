"""Optimisers and gradient utilities.

The paper trains every model with AdamW and gradient-norm clipping at
0.25 (Appendix C hyperparameters); SGD and Adam are provided for the
test suite and ablations.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .module import Parameter, _count_write


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is <= max_norm.

    Returns the norm observed before clipping, matching the torch API.
    A negative ``max_norm`` (which would flip every gradient) is refused.
    """
    if not max_norm >= 0:
        raise ValueError(f"max_norm must be >= 0, got {max_norm}")
    params = [p for p in parameters if p.grad is not None]
    if not params:
        return 0.0
    total = float(np.sqrt(sum(float((p.grad**2).sum()) for p in params)))
    if total > max_norm and total > 0.0:
        scale = max_norm / (total + 1e-12)
        for param in params:
            param.grad *= scale
    return total


class Optimizer:
    """Base optimiser holding a parameter list.

    Each parameter's ``data`` is a read-only view of its slot of one flat
    value buffer, and a step runs the subclass's arithmetic once, in
    place, over each run of parameters holding a gradient (gradients laid
    end to end in a work buffer). Nothing moves at construction: a step
    first re-homes (copies in, bits unchanged) any parameter whose
    ``data`` is not, by identity, its slot's view — another optimiser
    stepped it, it was rebound, deep-copied or pickled. Moments are flat
    buffers too. The per-parameter form is ``check.reference.per_parameter_step``.
    """

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        for index, param in enumerate(self.parameters):  # one slot per parameter
            if any(param is other for other in self.parameters[:index]):
                raise ValueError(f"optimizer received parameter {index} {param.shape} twice")
        self.lr = lr
        #: Parameter ``i``'s slot in a flat buffer: ``[offsets[i], offsets[i + 1])``.
        self._offsets = np.cumsum([0] + [param.data.size for param in self.parameters])
        self._values = np.empty(int(self._offsets[-1]))
        self._homes: List[Optional[np.ndarray]] = [None] * len(self.parameters)
        self._work = np.empty((2, int(self._offsets[-1])))  # gradients, scratch

    def __getstate__(self) -> Dict:  # a copy's parameters are copies, not its buffer's views
        return dict(vars(self), _homes=[None] * len(self.parameters))

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        """Update every parameter holding a gradient in place, one
        version bump each. A parameter without a gradient is left alone:
        no decay, no moment update, no version bump."""
        self._begin_step()
        for index, (param, home) in enumerate(zip(self.parameters, self._homes)):
            if param.data is not home:  # copy it into its slot, then view the slot
                start, stop = self._offsets[index : index + 2]
                home = self._values[start:stop].reshape(param.data.shape)
                home[...] = param.data
                home.flags.writeable = False
                param.data = self._homes[index] = home
        offsets = self._offsets
        for first, last in _runs([param.grad is not None for param in self.parameters]):
            params = self.parameters[first:last]
            span = slice(offsets[first], offsets[last])
            grad, scratch = self._work[:, span]
            np.concatenate([param.grad.ravel() for param in params], out=grad)
            self._update(span, self._values[span], grad, scratch)
            for param in params:
                param.version += 1
            _count_write()  # after the versions: a check that sees the count move sees them

    def _begin_step(self) -> None:
        """State a step sets up before the first parameter's update."""

    def _update(
        self, span: slice, data: np.ndarray, grad: np.ndarray, scratch: np.ndarray
    ) -> None:
        """Update ``data`` in place: the values of the parameters whose
        slots make ``span`` of a flat buffer, laid end to end, with
        ``grad`` their gradients (a copy: free to overwrite) and
        ``scratch`` a work buffer of the same length."""
        raise NotImplementedError

    def _slots(self, flat: np.ndarray) -> List[np.ndarray]:
        """Each parameter's slot of ``flat``, as a view of its shape."""
        return [
            flat[start:stop].reshape(param.data.shape)
            for param, start, stop in zip(self.parameters, self._offsets, self._offsets[1:])
        ]

    def _buffer(self, arrays: Optional[List[np.ndarray]] = None, name: str = "moment") -> np.ndarray:
        """A flat buffer with a slot per parameter: zeros, or ``arrays``
        (one per parameter, shapes checked)."""
        flat = np.zeros(int(self._offsets[-1]))
        if arrays is not None:
            views = self._slots(flat)
            if len(arrays) != len(views):
                raise ValueError(
                    f"optimizer state {name!r} holds {len(arrays)} arrays "
                    f"for {len(views)} parameters"
                )
            for array, view in zip(arrays, views):
                array = np.asarray(array)
                if array.shape != view.shape:
                    raise ValueError(
                        f"optimizer state {name!r} shape {array.shape} does not "
                        f"match parameter shape {view.shape}"
                    )
                view[...] = array
        return flat

    # -- (de)serialisation: required for checkpoint/resume ---------------
    def state_dict(self) -> Dict:
        """Optimiser state (learning rate plus subclass moments)."""
        return {"lr": float(self.lr)}

    def load_state_dict(self, state: Dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        self.lr = float(state["lr"])


def _runs(flags: List[bool]) -> List[Tuple[int, int]]:
    """``(first, last)`` of each run of consecutive true ``flags``, last exclusive."""
    runs: List[Tuple[int, int]] = []
    for index, flag in enumerate(flags):
        if not flag:
            continue
        if runs and runs[-1][1] == index:
            runs[-1] = (runs[-1][0], index + 1)
        else:
            runs.append((index, index + 1))
    return runs


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, parameters: Iterable[Parameter], lr: float = 0.01, momentum: float = 0.0) -> None:
        super().__init__(parameters, lr)
        self.momentum = momentum
        self._velocity_flat: Optional[np.ndarray] = None

    @property
    def _velocity(self) -> Optional[List[np.ndarray]]:
        return None if self._velocity_flat is None else self._slots(self._velocity_flat)

    def _begin_step(self) -> None:
        if self.momentum and self._velocity_flat is None:
            self._velocity_flat = self._buffer()

    def _update(
        self, span: slice, data: np.ndarray, grad: np.ndarray, scratch: np.ndarray
    ) -> None:
        if self.momentum:
            velocity = self._velocity_flat[span]
            velocity *= self.momentum
            velocity += grad
            grad = velocity
        data -= np.multiply(grad, self.lr, out=scratch)

    def state_dict(self) -> Dict:
        state = super().state_dict()
        if self._velocity_flat is not None:
            state["velocity"] = [v.copy() for v in self._velocity]
        return state

    def load_state_dict(self, state: Dict) -> None:
        super().load_state_dict(state)
        velocity = state.get("velocity")
        self._velocity_flat = None if velocity is None else self._buffer(list(velocity), "velocity")


class Adam(Optimizer):
    """Adam (Kingma & Ba) with bias correction."""

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m_flat, self._v_flat = self._buffer(), self._buffer()

    _m = property(lambda self: self._slots(self._m_flat))  # per-parameter views
    _v = property(lambda self: self._slots(self._v_flat))

    def _begin_step(self) -> None:
        self._step += 1

    def _update(
        self, span: slice, data: np.ndarray, grad: np.ndarray, scratch: np.ndarray
    ) -> None:
        # Each operation of the per-parameter formula, in its order, in place.
        if self.weight_decay:
            grad += np.multiply(data, self.weight_decay, out=scratch)
        m, v = self._m_flat[span], self._v_flat[span]
        m *= self.beta1
        m += np.multiply(grad, 1 - self.beta1, out=scratch)
        v *= self.beta2
        grad *= grad
        grad *= 1 - self.beta2
        v += grad
        step = np.divide(m, 1 - self.beta1**self._step, out=scratch)
        denominator = np.divide(v, 1 - self.beta2**self._step, out=grad)
        np.sqrt(denominator, out=denominator)
        denominator += self.eps
        step *= self.lr
        step /= denominator
        data -= step

    def state_dict(self) -> Dict:
        """First/second moments plus the bias-correction step count."""
        state = super().state_dict()
        state["step"] = int(self._step)
        state["m"] = [m.copy() for m in self._m]
        state["v"] = [v.copy() for v in self._v]
        return state

    def load_state_dict(self, state: Dict) -> None:
        super().load_state_dict(state)
        self._step = int(state["step"])
        self._m_flat = self._buffer(list(state["m"]), "m")
        self._v_flat = self._buffer(list(state["v"]), "v")


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter).

    This is the optimiser the paper uses ("optimizer = adamw").
    """

    def __init__(
        self,
        parameters: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ) -> None:
        super().__init__(parameters, lr=lr, betas=betas, eps=eps, weight_decay=0.0)
        self.decoupled_weight_decay = weight_decay

    def _update(
        self, span: slice, data: np.ndarray, grad: np.ndarray, scratch: np.ndarray
    ) -> None:
        # Decoupled decay applies directly to weights, not the grad.
        if self.decoupled_weight_decay:
            data -= np.multiply(data, self.lr * self.decoupled_weight_decay, out=scratch)
        super()._update(span, data, grad, scratch)


class CosineDecay:
    """Cosine learning-rate schedule over a fixed horizon."""

    def __init__(self, optimizer: Optimizer, total_steps: int, min_lr: float = 0.0) -> None:
        if total_steps <= 0:
            raise ValueError("total_steps must be positive")
        self.optimizer = optimizer
        self.base_lr = optimizer.lr
        self.total_steps = total_steps
        self.min_lr = min_lr
        self._step = 0

    def step(self) -> float:
        self._step = min(self._step + 1, self.total_steps)
        fraction = self._step / self.total_steps
        lr = self.min_lr + 0.5 * (self.base_lr - self.min_lr) * (1 + np.cos(np.pi * fraction))
        self.optimizer.lr = lr
        return lr
