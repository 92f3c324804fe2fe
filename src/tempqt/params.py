"""Named parameter storage shared by the model branches."""

from __future__ import annotations

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

    def add(self, name: str, values: np.ndarray, dtype=np.float32) -> Tensor:
        if name in self._params:
            raise KeyError(f"duplicate parameter {name!r}")
        t = Tensor(values, requires_grad=True, dtype=dtype)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        try:
            return self._params[name]
        except KeyError:
            raise CompatibilityError("the model needs a parameter the store lacks", (name,)) from None

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def tensors(self) -> list[Tensor]:
        return list(self._params.values())

    def trainable(self) -> list[tuple[str, Tensor]]:
        return [(n, t) for n, t in self._params.items() if t.requires_grad]

    def freeze_prefix(self, prefix: str) -> None:
        for name, t in self._params.items():
            if name.startswith(prefix):
                t.requires_grad = False
                t.needs_grad = False

    def has_prefix(self, prefix: str) -> bool:
        return any(name.startswith(prefix) for name in self._params)

    def arrays(self) -> dict[str, np.ndarray]:
        """Copies of all parameter values, in store order."""
        return {name: t.data.copy() for name, t in self._params.items()}


def trunc_normal(rng: CounterRng, shape, std: float = 0.02, dtype=np.float32) -> np.ndarray:
    n = int(np.prod(shape, dtype=np.int64)) if shape else 1
    return rng.truncated_normal(n, std).reshape(shape).astype(dtype)
