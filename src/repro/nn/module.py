"""Module system: parameter containers mirroring the torch.nn API surface.

Modules register :class:`Parameter` objects and child modules by
attribute assignment; ``parameters()`` / ``named_parameters()`` walk the
tree, and ``state_dict`` / ``load_state_dict`` support the simulated
distributed trainer's replica synchronisation.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import functional as F
from . import init
from .tensor import Tensor

#: Parameter writes and parameters (or modules) assigned into a module,
#: process-wide: while it has not moved, no parameter anywhere has a new
#: version or a new owner (see :func:`parameter_writes`).
_writes = 0


def parameter_writes() -> int:
    """A count that moves on every :meth:`Parameter.write`, optimiser
    step and parameter or module assigned into a module: what derived
    tables key an O(1) "nothing was written since" check on."""
    return _writes


def _count_write() -> None:
    global _writes
    _writes += 1


class Parameter(Tensor):
    """A tensor flagged as trainable, read-only between writes.

    ``data`` (a private copy of what it was built from, then a view of
    its slot of its optimiser's flat buffer) changes only in :meth:`write`
    or ``Optimizer.step``, each bumping ``version`` (and
    :func:`parameter_writes`): anything derived from the array alone is
    current exactly while the versions it was derived at are
    (``HeteroConvLayer`` keys its plan on them). A writer going around
    both fails with numpy's "assignment destination is read-only"
    instead of leaving stale tables in use.
    """

    __slots__ = ("version",)

    def __init__(self, data) -> None:
        super().__init__(np.array(data, dtype=np.float64), requires_grad=True)
        self.data.flags.writeable = False
        self.version = 0

    @contextmanager
    def write(self) -> Iterator[np.ndarray]:
        """``data``, writable inside the ``with``; read-only and one
        version newer after it."""
        self.data.flags.writeable = True
        try:
            yield self.data
        finally:
            self.data.flags.writeable = False
            self.version += 1
            _count_write()  # after the version: a check that sees the count move sees it

    def __setstate__(self, state) -> None:
        # copy.deepcopy (and pickle) rebuild the array writable.
        for name, value in state[1].items():
            setattr(self, name, value)
        self.data.flags.writeable = False


class Module:
    """Base class for all models and layers."""

    def __init__(self) -> None:
        self._parameters: Dict[str, Parameter] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    # -- attribute plumbing --------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, (Parameter, Module)):
            registry = "_parameters" if isinstance(value, Parameter) else "_modules"
            self.__dict__.setdefault(registry, {})[name] = value
            _count_write()  # a parameter swapped in is a write
        object.__setattr__(self, name, value)

    # -- traversal ------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield (dotted-name, parameter) over the module tree."""
        for name, param in self._parameters.items():
            yield f"{prefix}{name}", param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> List[Parameter]:
        """:meth:`named_parameters` without the names (no generators:
        this walk runs on every forward, see ``HeteroConvLayer.plan``)."""
        found = list(self._parameters.values())
        for module in self._modules.values():
            found += module.parameters()
        return found

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # -- (de)serialisation ----------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every parameter keyed by dotted name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameters in place, each one version newer; names and
        shapes must match."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}")
        for name, param in own.items():
            if param.data.shape != state[name].shape:
                raise ValueError(f"shape mismatch for {name}: {param.data.shape} vs {state[name].shape}")
            with param.write() as data:
                data[...] = state[name]

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(param.size for param in self.parameters())

    # -- call protocol ----------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Affine map ``y = x W + b``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((in_features, out_features), rng))
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class LayerNorm(Module):
    """Layer normalisation over the last dimension with affine params."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        self.eps = eps
        self.weight = Parameter(np.ones(normalized_shape))
        self.bias = Parameter(np.zeros(normalized_shape))

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, eps=self.eps)


class Dropout(Module):
    """Inverted dropout governed by the module training flag."""

    def __init__(self, rate: float, rng: Optional[np.random.Generator] = None) -> None:
        super().__init__()
        self.rate = F.check_dropout_rate(rate)
        self._rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.rate, training=self.training, rng=self._rng)


class Embedding(Module):
    """Lookup table of learnable row vectors."""

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        rng: Optional[np.random.Generator] = None,
        zero_init: bool = False,
    ) -> None:
        super().__init__()
        rng = rng or np.random.default_rng()
        if zero_init:
            # The paper initialises node/edge *type* embeddings at zero.
            table = init.zeros((num_embeddings, embedding_dim))
        else:
            table = init.xavier_uniform((num_embeddings, embedding_dim), rng)
        self.weight = Parameter(table)

    def forward(self, index: np.ndarray) -> Tensor:
        from .segment import gather

        return gather(self.weight, np.asarray(index, dtype=np.int64))


class ModuleList(Module):
    """Indexable container of sub-modules."""

    def __init__(self) -> None:
        super().__init__()
        self._items: List[Module] = []

    def append(self, module: Module) -> None:
        index = len(self._items)
        self._items.append(module)
        self._modules[str(index)] = module
        _count_write()

    def __iter__(self) -> Iterator[Module]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index: int) -> Module:
        return self._items[index]


class ModuleDict(Module):
    """String-keyed container of sub-modules (per-node-type linears)."""

    def __init__(self, modules: Optional[Dict[str, Module]] = None) -> None:
        super().__init__()
        if modules:
            for key, module in modules.items():
                self[key] = module

    def __setitem__(self, key: str, module: Module) -> None:
        self._modules[key] = module
        _count_write()

    def __getitem__(self, key: str) -> Module:
        return self._modules[key]

    def __contains__(self, key: str) -> bool:
        return key in self._modules

    def keys(self):
        return self._modules.keys()

    def items(self):
        return self._modules.items()


class Sequential(Module):
    """Apply contained modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self._items: List[Module] = []
        for module in modules:
            index = len(self._items)
            self._items.append(module)
            self._modules[str(index)] = module

    def forward(self, x: Tensor) -> Tensor:
        for module in self._items:
            x = module(x)
        return x


class ReLU(Module):
    """Stateless ReLU layer."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()

