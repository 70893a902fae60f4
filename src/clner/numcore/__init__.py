"""Minimal dense-tensor engine with reverse-mode autodiff.

Float64 throughout. The compute graph is define-by-run: each op links its
output tensor back to its inputs, and ``backward`` walks the links in
reverse topological order. A graph and its tensors belong to one thread
for the duration of a forward/backward pass; parameter tensors may move
between threads between optimizer steps. Inside ``no_grad`` a thread's
ops build no graph at all.
"""

from clner.numcore.tensor import (
    ShapeError,
    Tensor,
    add,
    attention_block,
    backward,
    bce_with_logits,
    concat,
    embed,
    matmul,
    mul,
    no_grad,
    parameter,
    reshape,
    softmax_cross_entropy,
    span_scores,
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
    "attention_block",
    "backward",
    "bce_with_logits",
    "concat",
    "embed",
    "load_checkpoint",
    "matmul",
    "mul",
    "no_grad",
    "parameter",
    "reshape",
    "save_checkpoint",
    "softmax_cross_entropy",
    "span_scores",
    "tensor",
    "tensor_slice",
    "zero_grad",
]
