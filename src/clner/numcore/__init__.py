"""Minimal dense-tensor engine with reverse-mode autodiff.

Float64 throughout. The compute graph is define-by-run: each op links its
output tensor back to its inputs, and ``backward`` walks the links in
reverse topological order. A graph and its tensors belong to one thread
for the duration of a forward/backward pass; parameter tensors may move
between threads between optimizer steps.
"""

from clner.numcore.tensor import (
    ShapeError,
    Tensor,
    add,
    backward,
    bce_with_logits,
    bernoulli_kl_with_logits,
    concat,
    cross_entropy_rows,
    gather_rows,
    kl_div_rows,
    layer_norm,
    matmul,
    mul,
    parameter,
    permute,
    reshape,
    sigmoid,
    softmax,
    sub,
    tensor,
    tensor_slice,
    zero_grad,
)
from clner.numcore.optim import AdamW
from clner.numcore.checkpoint import CheckpointError, load_checkpoint, save_checkpoint

__all__ = [
    "AdamW",
    "CheckpointError",
    "ShapeError",
    "Tensor",
    "add",
    "backward",
    "bce_with_logits",
    "bernoulli_kl_with_logits",
    "concat",
    "cross_entropy_rows",
    "gather_rows",
    "kl_div_rows",
    "layer_norm",
    "load_checkpoint",
    "matmul",
    "mul",
    "parameter",
    "permute",
    "reshape",
    "save_checkpoint",
    "sigmoid",
    "softmax",
    "sub",
    "tensor",
    "tensor_slice",
    "zero_grad",
]
