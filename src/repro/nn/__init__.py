"""``repro.nn`` — a NumPy reverse-mode autodiff and neural-network substrate.

This package stands in for PyTorch / TensorFlow in the paper's experiment
stack.  It provides tensors with automatic differentiation, common layers,
optimizers and (de)serialization — everything required to train the PCSS
models and to compute input gradients for the attacks.

The engine has three layers behind one Tensor API: the eager autograd path
(:mod:`~repro.nn.tensor`, driven by the :mod:`~repro.nn.ops` registry),
graph capture (:mod:`~repro.nn.graph`), and the plan compiler/executor with
optional torch execution (:mod:`~repro.nn.compile`,
:mod:`~repro.nn.backends`) — see docs/COMPILE.md.
"""

from .backends import available_backends, has_torch
from .compile import (
    CompiledPlan,
    PlanCache,
    PlanMismatch,
    StepProgram,
    compile_plan,
    plan_cache,
    set_profile_sink,
    use_plan_cache,
)
from .functional import (
    cross_entropy,
    dropout,
    hinge,
    knn_interpolate,
    log_softmax,
    masked_mean,
    mse_loss,
    nll_loss,
    one_hot,
    softmax,
)
from .graph import GraphRecorder, recording
from .layers import (
    BatchNorm,
    Dropout,
    LeakyReLU,
    Linear,
    ReLU,
    Sequential,
    SharedMLP,
    bias_bn_relu_max,
)
from .module import Module, Parameter
from .ops import OPS, OpDef, register
from .optim import SGD, Adam, Optimizer, StepLR
from .serialization import load_into, load_state_dict, save_state_dict
from .tensor import (
    Tensor,
    as_tensor,
    concatenate,
    detached_max,
    gather_points,
    maximum,
    minimum,
    ones,
    stack,
    where,
    zeros,
)

__all__ = [
    "Tensor",
    "as_tensor",
    "concatenate",
    "stack",
    "maximum",
    "minimum",
    "where",
    "detached_max",
    "gather_points",
    "zeros",
    "ones",
    "OPS",
    "OpDef",
    "register",
    "GraphRecorder",
    "recording",
    "CompiledPlan",
    "PlanCache",
    "PlanMismatch",
    "StepProgram",
    "compile_plan",
    "plan_cache",
    "use_plan_cache",
    "set_profile_sink",
    "available_backends",
    "has_torch",
    "Module",
    "Parameter",
    "Linear",
    "BatchNorm",
    "Dropout",
    "ReLU",
    "LeakyReLU",
    "Sequential",
    "SharedMLP",
    "bias_bn_relu_max",
    "Optimizer",
    "SGD",
    "Adam",
    "StepLR",
    "softmax",
    "log_softmax",
    "one_hot",
    "cross_entropy",
    "nll_loss",
    "mse_loss",
    "hinge",
    "masked_mean",
    "dropout",
    "knn_interpolate",
    "save_state_dict",
    "load_state_dict",
    "load_into",
]
