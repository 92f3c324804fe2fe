"""Named parameter storage shared by the model branches.

Modules declare their parameters as plain data: a list of entries
``(name, shape, init)``, where init is ``("trunc", std)`` (normals
clipped at two sigma), ``("normal", std)`` or ``("const", value)``.
``fill`` turns such a list into stored parameters.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CompatibilityError
from .rng import CounterRng
from .tensor import Tensor


class ParamStore:
    """Ordered mapping of parameter names to trainable tensors.

    Insertion order is the serialization order, so construction must be
    deterministic for a given configuration.
    """

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, values: np.ndarray, dtype=np.float32, trainable: bool = True) -> Tensor:
        if name in self._params:
            raise KeyError(f"duplicate parameter {name!r}")
        t = Tensor(values, requires_grad=trainable, dtype=dtype)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        try:
            return self._params[name]
        except KeyError:
            raise CompatibilityError("the model needs a parameter the store lacks", (name,)) from None

    def __len__(self) -> int:
        return len(self._params)

    def items(self):
        return self._params.items()

    def tensors(self) -> list[Tensor]:
        return list(self._params.values())

    def trainable(self) -> list[tuple[str, Tensor]]:
        return [(n, t) for n, t in self._params.items() if t.requires_grad]

    def has_prefix(self, prefix: str) -> bool:
        return any(name.startswith(prefix) for name in self._params)

    def arrays(self) -> dict[str, np.ndarray]:
        """Copies of all parameter values, in store order."""
        return {name: t.data.copy() for name, t in self._params.items()}


def fill(store: ParamStore, entries: list, rng: CounterRng, dtype=np.float32) -> None:
    """Add every entry to ``store``, drawing the random ones from ``rng`` in list order."""
    for name, shape, (rule, arg) in entries:
        n = math.prod(shape)
        if rule == "trunc":
            values = rng.truncated_normal(n, arg)
        elif rule == "normal":
            values = rng.normal(n) * arg
        else:
            values = np.full(n, arg)
        store.add(name, values.reshape(shape), dtype=dtype)
