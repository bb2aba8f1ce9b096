"""Optimisers and gradient utilities.

The paper trains every model with AdamW and gradient-norm clipping at
0.25 (Appendix C hyperparameters); SGD and Adam are provided for the
test suite and ablations.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from .module import Parameter


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is <= max_norm.

    Returns the norm observed before clipping, matching the torch API.
    """
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
    """Base optimiser holding a parameter list."""

    def __init__(self, parameters: Iterable[Parameter], lr: float) -> None:
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        self.lr = lr

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        """Update every parameter holding a gradient in place: one
        :meth:`Parameter.write`, so one version bump, each."""
        self._begin_step()
        for index, param in enumerate(self.parameters):
            if param.grad is not None:
                with param.write() as data:
                    self._update(index, data, param.grad)

    def _begin_step(self) -> None:
        """State a step sets up before the first parameter's update."""

    def _update(self, index: int, data: np.ndarray, grad: np.ndarray) -> None:
        raise NotImplementedError

    # -- (de)serialisation: required for checkpoint/resume ---------------
    def state_dict(self) -> Dict:
        """Optimiser state (learning rate plus subclass moments)."""
        return {"lr": float(self.lr)}

    def load_state_dict(self, state: Dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        self.lr = float(state["lr"])

    def _check_moment_list(self, arrays: List[np.ndarray], name: str) -> List[np.ndarray]:
        if len(arrays) != len(self.parameters):
            raise ValueError(
                f"optimizer state {name!r} holds {len(arrays)} arrays "
                f"for {len(self.parameters)} parameters"
            )
        out = []
        for array, param in zip(arrays, self.parameters):
            array = np.asarray(array)
            if array.shape != param.data.shape:
                raise ValueError(
                    f"optimizer state {name!r} shape {array.shape} does not "
                    f"match parameter shape {param.data.shape}"
                )
            out.append(array.copy())
        return out


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, parameters: Iterable[Parameter], lr: float = 0.01, momentum: float = 0.0) -> None:
        super().__init__(parameters, lr)
        self.momentum = momentum
        self._velocity: Optional[List[np.ndarray]] = None

    def _begin_step(self) -> None:
        if self.momentum and self._velocity is None:
            self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def _update(self, index: int, data: np.ndarray, grad: np.ndarray) -> None:
        if self.momentum:
            self._velocity[index] = self.momentum * self._velocity[index] + grad
            data -= self.lr * self._velocity[index]
        else:
            data -= self.lr * grad

    def state_dict(self) -> Dict:
        state = super().state_dict()
        if self._velocity is not None:
            state["velocity"] = [v.copy() for v in self._velocity]
        return state

    def load_state_dict(self, state: Dict) -> None:
        super().load_state_dict(state)
        velocity = state.get("velocity")
        self._velocity = (
            self._check_moment_list(list(velocity), "velocity") if velocity is not None else None
        )


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
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def _begin_step(self) -> None:
        self._step += 1

    def _update(self, index: int, data: np.ndarray, grad: np.ndarray) -> None:
        if self.weight_decay:
            grad = grad + self.weight_decay * data
        self._m[index] = self.beta1 * self._m[index] + (1 - self.beta1) * grad
        self._v[index] = self.beta2 * self._v[index] + (1 - self.beta2) * grad**2
        m_hat = self._m[index] / (1 - self.beta1**self._step)
        v_hat = self._v[index] / (1 - self.beta2**self._step)
        data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

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
        self._m = self._check_moment_list(list(state["m"]), "m")
        self._v = self._check_moment_list(list(state["v"]), "v")


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

    def _update(self, index: int, data: np.ndarray, grad: np.ndarray) -> None:
        # Decoupled decay applies directly to weights, not the grad.
        if self.decoupled_weight_decay:
            data -= self.lr * self.decoupled_weight_decay * data
        super()._update(index, data, grad)


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
