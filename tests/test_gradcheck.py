"""The gradcheck registry itself: coverage, determinism, failure detection."""

import inspect

import numpy as np
import pytest

from tempqt import tensor as T
from tempqt.errors import ArgumentError
from tempqt.gradcheck import CASES, TOLERANCE, CaseResult, run_case
from tempqt.rng import CounterRng

# public differentiable ops exposed by the tensor module; names map to
# registry keys with trailing underscores stripped
DIFFERENTIABLE_OPS = [
    "add", "sub", "mul", "abs_", "square", "mean", "sum_",
    "gelu", "prelu", "sigmoid", "matmul", "transpose", "reshape",
    "concat", "slice_rows", "slice_cols", "add_row_bias", "linear",
    "softmax_rows", "layer_norm", "mlp_residual", "attention", "conv2d_3x3", "bilinear_resize",
    "global_average_pool",
]

COMPOSITES = ("encoder_block", "decoder", "fusion_head", "pem_loss", "quality_loss", "tiny_model")

# every other case checks one op: the op its name gives, except where the
# name drops the op's trailing underscore, adds a variant suffix, or names
# a use of the op ("scale" is mul by a plain number)
SINGLE_OP_CASES = [name for name in CASES if name not in COMPOSITES]
_OP_OF_CASE = {
    "scale": "mul",
    "abs": "abs_",
    "sum": "sum_",
    "attention_fewer_queries": "attention",
    "conv2d_3x3_resized": "conv2d_3x3",
}

# the originals, taken before any test patches the module
_ADD, _MUL, _CONSTANT = T.add, T.mul, T.constant


def test_every_differentiable_op_has_a_case():
    for op in DIFFERENTIABLE_OPS:
        assert hasattr(T, op)
        assert op.rstrip("_") in CASES, f"no gradcheck case for {op}"


def test_registry_has_composites():
    for name in ("encoder_block", "decoder", "fusion_head", "pem_loss", "quality_loss", "tiny_model"):
        assert name in CASES


# every registered case, so each op and composite is gated
@pytest.mark.parametrize("name", list(CASES))
def test_representative_cases_pass(name):
    result = run_case(name, seed=0)
    assert result.ok, f"{name}: max rel err {result.max_rel_err}"
    assert result.checked > 0


def test_fusion_head_passes_at_every_seed():
    # a batch of two rows: a finite-difference step that crossed the head's
    # PReLU kink in either row failed 12 of these 40 seeds
    errors = {seed: run_case("fusion_head", seed=seed).max_rel_err for seed in range(40)}
    assert {seed: err for seed, err in errors.items() if err >= TOLERANCE} == {}


def test_run_case_deterministic():
    a = run_case("matmul", seed=3)
    b = run_case("matmul", seed=3)
    assert a.max_rel_err == b.max_rel_err
    assert a.checked == b.checked


def test_unknown_case_rejected():
    with pytest.raises(ArgumentError, match="unknown gradcheck case"):
        run_case("relu6")


def test_case_result_threshold():
    assert CaseResult("x", TOLERANCE * 0.5, 1).ok
    assert not CaseResult("x", TOLERANCE * 2.0, 1).ok


def test_detects_wrong_backward():
    # a deliberately broken rule must fail the check: forward is 2x but
    # the replayed closure mixes in an untracked constant copy, so the
    # taped gradient only sees half the sensitivity
    def broken_case(rng: CounterRng):
        a = T.Tensor(rng.normal(12).reshape(3, 4), requires_grad=True, dtype=np.float64)

        def forward():
            good = T.mul(a, 1.0)
            return T.sum_(T.add(T.mul(good, 0.5), T.constant(good.data * 0.5)))

        return [a], forward

    result = run_case("broken", case=broken_case)
    assert not result.ok
    assert result.max_rel_err > 0.1


def test_leaf_without_gradient_is_an_error():
    def orphan_case(rng: CounterRng):
        a = T.Tensor(rng.normal(4), requires_grad=True, dtype=np.float64)
        b = T.Tensor(rng.normal(4), requires_grad=True, dtype=np.float64)
        return [a, b], lambda: T.sum_(T.square(a))

    with pytest.raises(ArgumentError, match="no gradient"):
        run_case("orphan", case=orphan_case)


def _scaled_gradient(fn, factor):
    """``fn`` with the same forward value but only ``factor`` of its gradient reaching its inputs."""

    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        first = out[0] if isinstance(out, tuple) else out
        cut = _ADD(_MUL(first, factor), _CONSTANT(first.data * (1.0 - factor), dtype=first.data.dtype))
        return (cut,) + out[1:] if isinstance(out, tuple) else cut

    return wrapper


@pytest.mark.parametrize("name", SINGLE_OP_CASES)
def test_each_single_op_case_checks_its_op(name, monkeypatch):
    # a case that builds its graph from the wrong op passes with this op broken
    op = _OP_OF_CASE.get(name, name)
    monkeypatch.setattr(T, op, _scaled_gradient(getattr(T, op), 0.0))
    result = run_case(name, seed=0)
    assert not result.ok, f"{name}: a zeroed {op} gradient went unnoticed"


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", SINGLE_OP_CASES)
def test_each_single_op_case_sees_a_gradient_10_percent_off(name, seed, monkeypatch):
    # a case whose gradients are all tiny judges them by absolute error
    # and lets a backward that is slightly off pass
    op = _OP_OF_CASE.get(name, name)
    monkeypatch.setattr(T, op, _scaled_gradient(getattr(T, op), 0.9))
    result = run_case(name, seed=seed)
    assert not result.ok, f"{name}: a {op} gradient scaled by 0.9 went unnoticed at seed {seed}"


def test_every_op_that_records_a_node_has_a_case():
    # derived from the tensor module, so a new op cannot land without a case
    ops = [
        name
        for name, fn in vars(T).items()
        if inspect.isfunction(fn)
        and fn.__module__ == T.__name__
        and not name.startswith("_")
        and "_emit" in fn.__code__.co_names
    ]
    assert {"add", "attention", "conv2d_3x3", "global_average_pool"} <= set(ops)
    missing = [op for op in ops if op.rstrip("_") not in CASES]
    assert not missing, f"no gradcheck case for {missing}"
