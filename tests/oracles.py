"""Test oracles shared by the test modules.  pytest does not collect this
file (its name does not match ``test_*.py``); tests import it by name."""

import numpy as np

from telulab.autograd import Model, backward, forward, softmax_cross_entropy


def finite_difference_check(
    model: Model, batch: np.ndarray, labels: np.ndarray, h: float = 1e-6
) -> float:
    """Worst relative disagreement between backprop and central differences.

    Perturbs every parameter entry by +-h (two forward passes each), so
    cost scales with the parameter count; intended for models of at most
    a few thousand parameters.  Entries where both gradients are below
    1e-8 in magnitude are compared absolutely.
    """
    logits, tape = forward(model, batch, record=True)
    _, loss_grad = softmax_cross_entropy(logits, labels)
    grads = backward(tape, loss_grad)
    analytic = np.zeros_like(model.flat)
    for view, p in zip(model.views(analytic), model.params):
        view[...] = grads[p]

    def loss_at() -> float:
        out, _ = forward(model, batch, record=False)
        return softmax_cross_entropy(out, labels)[0]

    worst = 0.0
    flat = model.flat
    for i, a in enumerate(analytic):
        orig = flat[i]
        flat[i] = orig + h
        lp = loss_at()
        flat[i] = orig - h
        lm = loss_at()
        flat[i] = orig
        fd = (lp - lm) / (2.0 * h)
        denom = max(abs(a), abs(fd))
        err = abs(a - fd) if denom < 1e-8 else abs(a - fd) / denom
        worst = max(worst, err)
    return worst
