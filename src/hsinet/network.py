"""Backbone assembly, cross-domain branch sharing, and fine-tune transfer.

The backbone is fully convolutional: a multi-scale bank with one convolution
per ops.KERNEL_SIZES (1x1/3x3/5x5) over the input patch, a 1x1 reduction (c2),
a chain of residual modules (two 1x1 convolutions each, additive skip), two
1x1 layers whose blocks apply dropout after their ReLU (c7, c8) and a 1x1
classifier head (c9). Batch norm + ReLU follow every convolution except c9.
Per-pixel logits are read at the patch center, so c9 computes that pixel
alone; an eval forward computes only it throughout. Network.__init__ is the
one place that says which block is which.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .errors import ConfigError, ShapeError

# std of the Gaussian init, per layer group
INIT_STD_FRONT_HEAD = 0.01   # bank, c2, c9
INIT_STD_MIDDLE = 0.005      # residual modules, c7, c8


@dataclass
class NetworkSpec:
    """Declarative backbone description."""

    bands: int
    classes: int
    patch: int = 5
    filters: int = 128
    residual_modules: int = 2
    dropout_rate: float = 0.5

    def __post_init__(self):
        if self.bands < 1:
            raise ConfigError(f"bands must be positive, got {self.bands}")
        if self.classes < 2:
            raise ConfigError(f"need at least 2 classes, got {self.classes}")
        if self.patch < 1 or self.patch % 2 == 0:
            raise ConfigError(f"patch must be odd and >= 1, got {self.patch}")
        if self.filters < 1:
            raise ConfigError(f"filters must be positive, got {self.filters}")
        if self.residual_modules < 2:
            raise ConfigError(
                f"residual_modules must be >= 2, got {self.residual_modules}"
            )
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")


@dataclass
class CrossDomainSpec:
    """One NetworkSpec per branch; trunk shapes must agree across branches."""

    branches: list

    def __post_init__(self):
        if not self.branches:
            raise ConfigError("cross-domain spec needs at least one branch")
        first = self.branches[0]
        for i, sp in enumerate(self.branches[1:], start=1):
            for attr in ("filters", "patch", "residual_modules"):
                if getattr(sp, attr) != getattr(first, attr):
                    raise ConfigError(
                        f"branch {i} disagrees on {attr}: "
                        f"{getattr(sp, attr)} vs {getattr(first, attr)}"
                    )


class ConvBlock:
    """Convolution optionally followed by batch norm and ReLU, and then by
    inverted dropout at rate `dropout` when one is given (0.0 included)."""

    def __init__(self, name, in_c, out_c, k, dtype=np.float32, with_bn=True, with_relu=True,
                 dropout=None):
        self.name = name
        self.with_bn = with_bn
        self.with_relu = with_relu
        self.dropout = dropout
        self.conv = ops.make_conv_params(name, in_c, out_c, k, dtype)
        self.bn = ops.make_batchnorm_params(f"{name}.bn", out_c, dtype) if with_bn else None
        self._x = None
        self._bn_stats = None
        self._pre_relu = None
        self._mask = None

    def forward(self, x, training, rng=None):
        """Run the block on x, which may be the ops.Columns of the input; eval
        keeps nothing for a backward. A training dropout draws its mask from
        `rng`."""
        self._x = x if training else None
        y = ops.conv2d_forward(x, self.conv)
        if self.with_bn and training:
            y, *self._bn_stats = ops.batchnorm_forward(y, self.bn, True)
        elif self.with_bn:
            y = ops.batchnorm_forward(y, self.bn, False)
        if self.with_relu:
            self._pre_relu = y if training else None
            y = ops.relu(y)
        if self.dropout is not None:
            y, self._mask = ops.dropout(y, self.dropout, training, rng)
        return y

    def backward(self, grad_out):
        """Fill the parameter gradients; returns the input gradient."""
        return ops.conv2d_input_grad(self.conv, self.param_backward(grad_out))

    def param_backward(self, grad_out):
        """Fill the parameter gradients and release what the forward kept;
        returns the gradient at the conv output (a bank block stops here)."""
        g = grad_out
        if self.dropout is not None:
            g = ops.dropout_backward(g, self._mask, self.dropout)
            self._mask = None
        if self.with_relu:
            g = ops.relu_backward(self._pre_relu, g)
            self._pre_relu = None
        if self.with_bn:
            (xhat, inv), self._bn_stats = self._bn_stats, None
            g, g_scale, g_shift = ops.batchnorm_backward(xhat, inv, self.bn, g)
            self.bn.scale.grad = g_scale
            self.bn.shift.grad = g_shift
        self.conv.w.grad, self.conv.b.grad = ops.conv2d_backward(self._x, self.conv, g)
        self._x = None
        return g

    def params(self):
        out = [self.conv.w, self.conv.b]
        if self.with_bn:
            out += [self.bn.scale, self.bn.shift]
        return out

    def state(self):
        """(name, array) pairs for every persistent tensor, fixed order."""
        out = []
        for p in self.params():
            out.append((p.name, p.data))
            out.append((f"{p.name}.vel", p.vel))
        if self.with_bn:
            out.append((f"{self.name}.bn.running_mean", self.bn.running_mean))
            out.append((f"{self.name}.bn.running_var", self.bn.running_var))
        return out


class ResidualModule:
    """Two stacked 1x1 conv blocks wrapped by an additive skip, ReLU after the add."""

    def __init__(self, index, filters, dtype=np.float32):
        name = f"res{index}"
        self.name = name
        self.conv1 = ConvBlock(f"{name}.conv1", filters, filters, 1, dtype)
        self.conv2 = ConvBlock(f"{name}.conv2", filters, filters, 1, dtype, with_relu=False)
        self._pre_add = None

    def forward(self, x, training, rng=None):
        pre_add = x + self.conv2.forward(self.conv1.forward(x, training), training)
        self._pre_add = pre_add if training else None
        return ops.relu(pre_add)

    def backward(self, grad_out):
        g = ops.relu_backward(self._pre_add, grad_out)
        self._pre_add = None
        gx = self.conv1.backward(self.conv2.backward(g))
        return gx + g

    def blocks(self):
        return [self.conv1, self.conv2]


class Network:
    """A single backbone. Use build_backbone() to construct and initialize."""

    def __init__(self, spec, dtype=np.float32, shared_modules=None):
        self.spec = spec
        self.dtype = dtype
        f = spec.filters
        self.bank = [ConvBlock(f"c{k}x{k}", spec.bands, f, k, dtype) for k in ops.KERNEL_SIZES]
        self.c2 = ConvBlock("c2", len(self.bank) * f, f, 1, dtype)
        if shared_modules is None:
            shared_modules = [ResidualModule(k, f, dtype)
                              for k in range(1, spec.residual_modules + 1)]
        self.modules = list(shared_modules)
        self.c7 = ConvBlock("c7", f, f, 1, dtype, dropout=spec.dropout_rate)
        self.c8 = ConvBlock("c8", f, f, 1, dtype, dropout=spec.dropout_rate)
        # every layer between the bank and the head, in forward order
        self.trunk = [self.c2, *self.modules, self.c7, self.c8]
        self.c9 = ConvBlock("c9", f, spec.classes, 1, dtype, with_bn=False, with_relu=False)
        self._backward_ready = False

    # --- structure ------------------------------------------------------

    def blocks(self):
        return [*self.bank, self.c2, *self.shared_blocks(), self.c7, self.c8, self.c9]

    def private_blocks(self):
        return list(self.bank) + [self.c2, self.c7, self.c8, self.c9]

    def shared_blocks(self):
        return [blk for m in self.modules for blk in m.blocks()]

    def params(self):
        return [p for blk in self.blocks() for p in blk.params()]

    def shared_params(self):
        return [p for blk in self.shared_blocks() for p in blk.params()]

    def private_params(self):
        return [p for blk in self.private_blocks() for p in blk.params()]

    def state(self):
        return [pair for blk in self.blocks() for pair in blk.state()]

    # --- execution ------------------------------------------------------

    def forward(self, x, training=False, rng=None, workspace=None):
        """Run the graph; returns center-pixel logits shaped (n, classes).

        Training reads an (n, bands, p, p) batch of patches. Only the center
        logit reaches the loss, and c9 (no batch norm) works per pixel, so c9
        computes it alone. Training batch statistics span all p x p pixels.
        A training forward writes the bank's patch columns (ops.patch_columns)
        into `workspace` (an ops.Workspace) when one is given, else into fresh
        memory. Every bank conv reads them in x's place.

        Eval computes the patch center alone throughout: after the bank every
        layer is 1x1 and eval batch norm uses running statistics, so the center
        logit depends only on the bank's center output. Eval therefore reads,
        in place of the patches, their center rows (PatchBatcher.centers), which
        every bank conv reads as ops.Columns: an (n, t * bands) float64 matrix of
        each patch's t taps at ops.center_taps(p), each tap's bands side by side.
        """
        bands, p = self.spec.bands, self.spec.patch
        if training:
            ops._check_4d(x, "network input")
            if x.shape[1] != bands:
                raise ShapeError(f"input has {x.shape[1]} bands but the network front expects "
                                 f"{bands} (shape {x.shape})")
            if x.shape[2] != p or x.shape[3] != p:
                raise ShapeError(f"input spatial size {x.shape[2:]} != patch {p}x{p}")
            # the 5x5 patch columns, built once into `workspace`: c5x5 reads all 25
            # taps, c3x3 a view of the first 9 and c1x1 of the first
            cols = ops.patch_columns(x, workspace)
        else:
            taps = len(ops.center_taps(p))
            if x.ndim != 2 or x.shape[1] != taps * bands:
                raise ShapeError(f"eval input shape {x.shape} is not (n, {taps} taps x {bands} "
                                 f"bands): the center rows of {p}x{p} patches the network "
                                 f"front expects")
            # every bank conv reads a prefix of the rows, and the outputs keep the
            # network's dtype, as they would on its patches
            cols = ops.Columns(x, (len(x), bands, 1, 1), self.dtype)
        # bank outputs are held channel-major, and np.concatenate keeps its inputs'
        # common memory order: c2 reads channel-major rows too
        t = np.concatenate([blk.forward(cols, training) for blk in self.bank], axis=1)
        for layer in self.trunk:
            t = layer.forward(t, training, rng)
        c = t.shape[2] // 2  # 0 in eval, whose trunk computed the center alone
        z = self.c9.forward(t[:, :, c:c + 1, c:c + 1], training)
        # the caches of an eval forward hold center pixels only: no backward
        self._backward_ready = training
        return np.ascontiguousarray(z[:, :, 0, 0])

    def backward(self, grad_logits):
        """Backprop from the (n, classes) center-pixel logits, filling every
        parameter's grad. c9's input gradient is zero off the center. The
        update reads no gradient of the data, so the bank computes none and
        this returns None. One training forward serves one backward."""
        if not self._backward_ready:
            raise ConfigError("backward called before a training-mode forward")
        self._backward_ready = False
        gc = self.c9.backward(grad_logits[:, :, None, None])
        n, f, p = len(grad_logits), self.spec.filters, self.spec.patch
        g = np.zeros((f, n, p, p), dtype=gc.dtype).transpose(1, 0, 2, 3)  # channel-major
        g[:, :, p // 2, p // 2] = gc[:, :, 0, 0]
        for layer in reversed(self.trunk):
            g = layer.backward(g)
        # channel-major: each part is contiguous. Every bank block reads the patch
        # columns the forward built, and then drops them
        for blk, part in zip(self.bank, np.split(g, len(self.bank), axis=1)):
            blk.param_backward(part)


def init_weights(network, rng, only_private=False):
    """Draw the convolution weights of a freshly built network: Gaussian, std
    0.01 for the bank's blocks, c2 and c9 and 0.005 elsewhere, in block order.
    Construction already holds the rest of the init: biases and momentum
    buffers 0, batch-norm scale 1, shift 0, running mean 0, running var 1."""
    front_head = {*network.bank, network.c2, network.c9}
    blocks = network.private_blocks() if only_private else network.blocks()
    for blk in blocks:
        std = INIT_STD_FRONT_HEAD if blk in front_head else INIT_STD_MIDDLE
        w = blk.conv.w.data
        w[...] = rng.normal(0.0, std, w.shape).astype(w.dtype)
    return network


def build_backbone(spec, rng, dtype=np.float32):
    """Construct and initialize a single backbone network."""
    return init_weights(Network(spec, dtype=dtype), rng)


class CrossDomainNetwork:
    """N backbone branches that all hold branch 0's residual modules, one
    physical store. Construction draws no random numbers."""

    def __init__(self, spec, dtype):
        self.spec = spec
        self.dtype = dtype
        first = Network(spec.branches[0], dtype)
        self.branches = [first] + [Network(sp, dtype, shared_modules=first.modules)
                                   for sp in spec.branches[1:]]

    @property
    def modules(self):
        return self.branches[0].modules

    def shared_params(self):
        return self.branches[0].shared_params()

    def state(self):
        """Checkpoint records in file order: the shared store once as
        `shared.<name>`, then each branch's private tensors as `branch<i>.<name>`."""
        out = [(f"shared.{name}", arr)
               for blk in self.branches[0].shared_blocks() for name, arr in blk.state()]
        for i, branch in enumerate(self.branches):
            out += [(f"branch{i}.{name}", arr)
                    for blk in branch.private_blocks() for name, arr in blk.state()]
        return out


def build_cross_domain(spec, rng):
    """Build N branches sharing one residual-module store; initialize branch 0
    whole (the store included), then each other branch's private layers."""
    cdn = CrossDomainNetwork(spec, np.float32)
    for i, branch in enumerate(cdn.branches):
        init_weights(branch, rng, only_private=i > 0)
    return cdn


def transfer_shared(pretrained, target_spec, rng):
    """New target network: residual modules copied from the pre-trained shared
    store (batch-norm running stats reset), everything else freshly initialized."""
    src_modules = pretrained.modules
    if len(src_modules) != target_spec.residual_modules:
        raise ConfigError(
            f"cannot transfer {len(src_modules)} residual modules into a target "
            f"spec wanting {target_spec.residual_modules}"
        )
    src_filters = src_modules[0].conv1.conv.w.data.shape[0]
    if src_filters != target_spec.filters:
        raise ConfigError(
            f"filter mismatch: pre-trained shared store has {src_filters}, "
            f"target spec wants {target_spec.filters}"
        )
    target = build_backbone(target_spec, rng)
    # weights, biases and batch-norm affine terms; running stats stay at the
    # fresh 0/1 init and momentum buffers at 0
    for src, dst in zip(pretrained.shared_params(), target.shared_params()):
        dst.data[...] = src.data
    return target
