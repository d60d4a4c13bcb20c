"""Optimizers and learning-rate schedulers.

The optimizers operate on *parameter groups*, each with its own learning
rate.  This mirrors the usual framework API and is what SteppingNet's
learning-rate suppression needs: when training subnet ``j`` the weights
belonging to a smaller subnet ``i`` are placed in a group whose learning
rate is scaled by ``beta ** (j - i)`` (paper Sec. III-A2).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

from .modules.module import Parameter

ParamGroup = Dict[str, object]


class Optimizer:
    """Base class managing parameter groups and the ``zero_grad``/``step`` cycle."""

    def __init__(self, params: Union[Iterable[Parameter], Sequence[ParamGroup]], defaults: Dict) -> None:
        self.defaults = dict(defaults)
        self.param_groups: List[ParamGroup] = []
        params = list(params)
        if not params:
            raise ValueError("optimizer received an empty parameter list")
        if isinstance(params[0], dict):
            for group in params:
                self.add_param_group(dict(group))
        else:
            self.add_param_group({"params": params})
        self.state: Dict[int, Dict[str, np.ndarray]] = {}

    def add_param_group(self, group: ParamGroup) -> None:
        group = dict(group)
        group["params"] = list(group["params"])
        for key, value in self.defaults.items():
            group.setdefault(key, value)
        self.param_groups.append(group)

    def zero_grad(self) -> None:
        for group in self.param_groups:
            for param in group["params"]:
                param.grad = None

    def step(self) -> None:
        raise NotImplementedError

    def set_lr(self, lr: float) -> None:
        """Set the same learning rate on every parameter group."""
        for group in self.param_groups:
            group["lr"] = lr

    @property
    def lr(self) -> float:
        return float(self.param_groups[0]["lr"])


class SGD(Optimizer):
    """Stochastic gradient descent with momentum and weight decay."""

    def __init__(
        self,
        params,
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
    ) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if momentum < 0:
            raise ValueError("momentum must be non-negative")
        defaults = dict(lr=lr, momentum=momentum, weight_decay=weight_decay, nesterov=nesterov)
        super().__init__(params, defaults)

    def step(self) -> None:
        for group in self.param_groups:
            lr = group["lr"]
            momentum = group["momentum"]
            weight_decay = group["weight_decay"]
            nesterov = group["nesterov"]
            for param in group["params"]:
                if param.grad is None:
                    continue
                grad = param.grad
                if weight_decay:
                    grad = grad + weight_decay * param.data
                if momentum:
                    buf = self.state.setdefault(id(param), {}).setdefault(
                        "momentum_buffer", np.zeros_like(param.data)
                    )
                    buf *= momentum
                    buf += grad
                    grad = grad + momentum * buf if nesterov else buf
                param.data -= lr * grad


class Adam(Optimizer):
    """Adam optimizer with bias correction."""

    def __init__(
        self,
        params,
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not (0 <= betas[0] < 1 and 0 <= betas[1] < 1):
            raise ValueError("betas must be in [0, 1)")
        defaults = dict(lr=lr, betas=betas, eps=eps, weight_decay=weight_decay)
        super().__init__(params, defaults)

    def step(self) -> None:
        for group in self.param_groups:
            lr = group["lr"]
            beta1, beta2 = group["betas"]
            eps = group["eps"]
            weight_decay = group["weight_decay"]
            for param in group["params"]:
                if param.grad is None:
                    continue
                grad = param.grad
                if weight_decay:
                    grad = grad + weight_decay * param.data
                state = self.state.setdefault(id(param), {})
                if not state:
                    state["step"] = 0
                    state["exp_avg"] = np.zeros_like(param.data)
                    state["exp_avg_sq"] = np.zeros_like(param.data)
                state["step"] += 1
                step = state["step"]
                exp_avg = state["exp_avg"]
                exp_avg_sq = state["exp_avg_sq"]
                exp_avg *= beta1
                exp_avg += (1 - beta1) * grad
                exp_avg_sq *= beta2
                exp_avg_sq += (1 - beta2) * grad * grad
                bias_c1 = 1 - beta1 ** step
                bias_c2 = 1 - beta2 ** step
                denom = np.sqrt(exp_avg_sq / bias_c2) + eps
                param.data -= lr * (exp_avg / bias_c1) / denom


class LRScheduler:
    """Base class for learning-rate schedules."""

    def __init__(self, optimizer: Optimizer) -> None:
        self.optimizer = optimizer
        self.base_lrs = [group["lr"] for group in optimizer.param_groups]
        self.last_epoch = 0

    def get_lr(self) -> List[float]:
        raise NotImplementedError

    def step(self) -> None:
        self.last_epoch += 1
        for group, lr in zip(self.optimizer.param_groups, self.get_lr()):
            group["lr"] = lr


class StepLR(LRScheduler):
    """Multiply the learning rate by ``gamma`` every ``step_size`` epochs."""

    def __init__(self, optimizer: Optimizer, step_size: int, gamma: float = 0.1) -> None:
        super().__init__(optimizer)
        if step_size <= 0:
            raise ValueError("step_size must be positive")
        self.step_size = step_size
        self.gamma = gamma

    def get_lr(self) -> List[float]:
        factor = self.gamma ** (self.last_epoch // self.step_size)
        return [base * factor for base in self.base_lrs]


class CosineAnnealingLR(LRScheduler):
    """Cosine decay from the base LR to ``eta_min`` over ``t_max`` epochs."""

    def __init__(self, optimizer: Optimizer, t_max: int, eta_min: float = 0.0) -> None:
        super().__init__(optimizer)
        if t_max <= 0:
            raise ValueError("t_max must be positive")
        self.t_max = t_max
        self.eta_min = eta_min

    def get_lr(self) -> List[float]:
        progress = min(self.last_epoch, self.t_max) / self.t_max
        factor = 0.5 * (1 + np.cos(np.pi * progress))
        return [self.eta_min + (base - self.eta_min) * factor for base in self.base_lrs]


class ExponentialLR(LRScheduler):
    """Multiply the learning rate by ``gamma`` every epoch."""

    def __init__(self, optimizer: Optimizer, gamma: float) -> None:
        super().__init__(optimizer)
        self.gamma = gamma

    def get_lr(self) -> List[float]:
        return [base * self.gamma ** self.last_epoch for base in self.base_lrs]
