"""Model specification for networked diffusions.

A model couples a drift family with a diagonal diffusion family on a
directed graph.  Coordinate i of the drift is

    b_i(x) = own_term(x_i) + sum over parents j of i of edge_term(x_i, x_j),

and the diffusion is diagonal, sigma_i(x_i).  Two drift families are
provided: Linear (mean reversion plus linear network effects) and
RadialDictionary (network effects modulated by radial basis functions of
the state norm).  An unknown graph is fitted as the complete one: the
augmented layout of the linear family is the per-edge layout of
complete_graph(d), whose coefficients w_ij on every ordered pair the
adaptive Lasso then thins out.

Every config setting the package reads goes through setting(), which
converts and checks one value and raises ConfigFieldError naming its
dotted path; spec_from_config and params_from_config use it too.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import DirectedGraph, complete_graph


class ModelError(ValueError):
    """Base class for model specification and evaluation errors."""


class LayoutMismatchError(ModelError):
    pass


class NegativeAlphaError(ModelError):
    pass


# ---------------------------------------------------------------------------
# families


@dataclass(frozen=True)
class LinearDrift:
    """b_i(x) = -mu_i x_i + sum_j beta_ij x_j, optionally plus an intercept."""

    with_intercepts: bool = False


@dataclass(frozen=True)
class RadialDictionaryDrift:
    """Network effects expanded over radial basis functions of |x|.

    b_i(x) = -beta0_i x_i
             + sum_l sum_j beta_l_ij x_j (offsets[l] + |x|)^(-(exponents[l] + 1))

    offsets must be positive; exponents strictly increasing within [-1, 1].
    """

    offsets: tuple[float, ...]
    exponents: tuple[float, ...]

    def __post_init__(self):
        if len(self.offsets) != len(self.exponents):
            raise ModelError("offsets and exponents must have equal length")
        if len(self.offsets) == 0:
            raise ModelError("dictionary needs at least one level")
        if any(a <= 0 for a in self.offsets):
            raise ModelError("offsets must be positive")
        q = self.exponents
        if any(not -1.0 <= x <= 1.0 for x in q):
            raise ModelError("exponents must lie in [-1, 1]")
        if any(q[k] >= q[k + 1] for k in range(len(q) - 1)):
            raise ModelError("exponents must be strictly increasing")

    @property
    def n_levels(self) -> int:
        return len(self.offsets)


@dataclass(frozen=True)
class ConstantDiagonal:
    """sigma_i(x) = alpha_i."""


@dataclass(frozen=True)
class TanhClipped:
    """sigma_i(x) = alpha_i * clip * tanh(sqrt(1 + x_i^2) / clip).

    Bounded, strictly positive, and close to alpha_i * sqrt(1 + x_i^2) for
    states small relative to the clip level.
    """

    clip: float = 100.0

    def __post_init__(self):
        if self.clip <= 0:
            raise ModelError("clip level must be positive")


@dataclass(frozen=True)
class NsdeSpec:
    """Dimension, drift family and diffusion family of a networked diffusion."""

    d: int
    drift: LinearDrift | RadialDictionaryDrift
    diffusion: ConstantDiagonal | TanhClipped

    def __post_init__(self):
        if self.d < 1:
            raise ModelError(f"dimension must be positive, got {self.d}")


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class ParamVector:
    """Parameter blocks: diffusion scales alpha and drift block beta.

    beta stacks the momentum coefficients (one per node), intercepts when
    enabled, and the network coefficients, one per edge and dictionary
    level (see ParamLayout).
    """

    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=float))
        if np.any(self.alpha < 0):
            raise NegativeAlphaError("diffusion scales must be non-negative")

    @property
    def pi_alpha(self) -> int:
        return self.alpha.shape[0]

    @property
    def pi_total(self) -> int:
        return self.alpha.shape[0] + self.beta.shape[0]

    def flat(self) -> np.ndarray:
        return np.concatenate([self.alpha, self.beta])


@dataclass(frozen=True)
class ParamLayout:
    """Flat indexing of a model's parameter vector.

    Flat order is [alpha | momentum | intercepts? | network], where the
    network block holds per-edge coefficients, one group per dictionary
    level for the radial family.

    coef_slots[level, i, j] is the flat slot of the coefficient of x_j in
    node i's drift, or -1 where there is none; its shape is
    (max(n_levels, 1), d, d).  It is the one record of the network
    packing: per-edge coefficients follow edge order, level by level.
    """

    d: int
    edges: tuple[tuple[int, int], ...]
    with_intercepts: bool
    n_levels: int  # 0 for the linear family
    pi_alpha: int
    pi_total: int
    coord_names: tuple[str, ...] = field(repr=False)
    coef_slots: np.ndarray = field(repr=False, compare=False)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    # --- slot maps ---

    def momentum_slot(self, i: int) -> int:
        return self.pi_alpha + i

    def edge_slot(self, i: int, j: int, level: int = 0) -> int:
        """Flat slot of the network coefficient on edge (i, j)."""
        levels, d, _ = self.coef_slots.shape
        if not (0 <= i < d and 0 <= j < d and 0 <= level < levels):
            raise LayoutMismatchError(
                f"({i}, {j}) at level {level} is outside the layout")
        slot = int(self.coef_slots[level, i, j])
        if slot < 0:
            raise LayoutMismatchError(f"({i}, {j}) is not an edge")
        return slot

    @property
    def intercept_indices(self) -> np.ndarray:
        if not self.with_intercepts:
            return np.arange(0)
        return self.pi_alpha + self.d + np.arange(self.d)

    # --- conversions ---

    def flatten(self, theta: ParamVector) -> np.ndarray:
        flat = theta.flat()
        if flat.shape[0] != self.pi_total:
            raise LayoutMismatchError(
                f"parameter vector has {flat.shape[0]} entries, layout expects {self.pi_total}")
        if theta.pi_alpha != self.pi_alpha:
            raise LayoutMismatchError(
                f"parameter vector has {theta.pi_alpha} diffusion scales, "
                f"layout expects {self.pi_alpha}")
        return flat

    def unflatten(self, flat: np.ndarray) -> ParamVector:
        flat = np.asarray(flat, dtype=float)
        if flat.shape != (self.pi_total,):
            raise LayoutMismatchError(
                f"flat vector has shape {flat.shape}, layout expects ({self.pi_total},)")
        return ParamVector(alpha=flat[:self.pi_alpha], beta=flat[self.pi_alpha:])

    def pack(self, alpha, momentum, network=None, intercepts=None) -> ParamVector:
        """Assemble a ParamVector from named blocks."""
        alpha = np.asarray(alpha, dtype=float)
        momentum = np.asarray(momentum, dtype=float)
        parts = [momentum]
        if self.with_intercepts:
            if intercepts is None:
                intercepts = np.zeros(self.d)
            parts.append(np.asarray(intercepts, dtype=float))
        elif intercepts is not None:
            raise LayoutMismatchError("layout has no intercepts")
        n_net = max(self.n_levels, 1) * len(self.edges)
        parts.append(np.zeros(n_net) if network is None
                     else np.asarray(network, dtype=float))
        theta = ParamVector(alpha=alpha, beta=np.concatenate(parts))
        self.flatten(theta)  # length check
        return theta

    def momentum(self, theta: ParamVector) -> np.ndarray:
        return theta.beta[:self.d]

    def intercepts(self, theta: ParamVector) -> np.ndarray:
        if not self.with_intercepts:
            return np.zeros(self.d)
        return theta.beta[self.d:2 * self.d]


def parameter_layout(spec: NsdeSpec, g: DirectedGraph, augmented: bool = False) -> ParamLayout:
    """Build the flat parameter layout for a model on a given graph.

    augmented fits the unknown graph as the complete one: the layout is
    the one of complete_graph(spec.d), whatever g's edges, with its network
    coefficients named w_i_j; only the linear family supports this.
    """
    if g.d != spec.d:
        raise LayoutMismatchError(f"graph has {g.d} nodes, model has {spec.d}")
    d = spec.d
    linear = isinstance(spec.drift, LinearDrift)
    if augmented:
        if not linear:
            raise LayoutMismatchError(
                "the augmented (complete-graph) layout requires the linear drift family")
        g = complete_graph(d)
    with_intercepts = linear and spec.drift.with_intercepts
    n_levels = 0 if linear else spec.drift.n_levels
    names = [f"alpha_{i}" for i in range(d)] + [f"mu_{i}" for i in range(d)]
    if with_intercepts:
        names += [f"intercept_{i}" for i in range(d)]
    base = len(names)
    # the network block: one coefficient per edge in edge order, level
    # after level
    if augmented:
        prefixes = ["w"]
    else:
        prefixes = ["beta"] if linear else [f"beta{lev}" for lev in range(n_levels)]
    for prefix in prefixes:
        names += [f"{prefix}_{i}_{j}" for i, j in g.edges]
    pairs = np.asarray(g.edges, dtype=int).reshape(-1, 2)
    coef_slots = np.full((len(prefixes), d, d), -1)
    coef_slots[:, pairs[:, 0], pairs[:, 1]] = base + np.arange(
        len(names) - base).reshape(len(prefixes), -1)
    coef_slots.flags.writeable = False
    return ParamLayout(d=d, edges=g.edges, with_intercepts=with_intercepts,
                       n_levels=n_levels, pi_alpha=d, pi_total=len(names),
                       coord_names=tuple(names), coef_slots=coef_slots)


# ---------------------------------------------------------------------------
# evaluation


def diffusion_shape(spec: NsdeSpec, x: np.ndarray) -> np.ndarray:
    """State factor s(x) of the diffusion, so that sigma_i = alpha_i * s(x_i).

    Operates elementwise on arrays of shape (..., d).
    """
    if isinstance(spec.diffusion, ConstantDiagonal):
        return np.ones_like(np.asarray(x, dtype=float))
    c = spec.diffusion.clip
    x = np.asarray(x, dtype=float)
    return c * np.tanh(np.sqrt(1.0 + x * x) / c)


def linear_drift_matrix(spec: NsdeSpec, g: DirectedGraph, theta: ParamVector):
    """(M, b0) with b(x) = M x + b0 for the linear family."""
    if not isinstance(spec.drift, LinearDrift):
        raise ModelError("drift matrix only exists for the linear family")
    layout = parameter_layout(spec, g)
    slots = layout.coef_slots[0]
    m = -np.diag(layout.momentum(theta))
    m[slots >= 0] += layout.flatten(theta)[slots[slots >= 0]]
    b0 = layout.intercepts(theta) if layout.with_intercepts else np.zeros(spec.d)
    return m, b0


def path_drift_fn(spec: NsdeSpec, g: DirectedGraph, theta: ParamVector):
    """Return a callable evaluating the drift on arrays of shape (..., d)."""
    if isinstance(spec.drift, LinearDrift):
        m, b0 = linear_drift_matrix(spec, g, theta)
        mt = m.T.copy()

        def drift(x):
            return x @ mt + b0

        return drift

    layout = parameter_layout(spec, g)
    mu = layout.momentum(theta)
    # weights[lev] is level lev's coefficient matrix, transposed
    slots = np.ascontiguousarray(layout.coef_slots.transpose(0, 2, 1))
    weights = np.where(slots >= 0, layout.flatten(theta)[slots], 0.0)
    offsets = np.asarray(spec.drift.offsets, dtype=float)
    exponents = np.asarray(spec.drift.exponents, dtype=float)

    def drift(x):
        nrm = np.linalg.norm(x, axis=-1, keepdims=True)
        out = -mu * x
        for lev in range(len(weights)):
            scale = (offsets[lev] + nrm) ** (-(exponents[lev] + 1.0))
            out = out + (x @ weights[lev]) * scale
        return out

    return drift


def euler_step_fn(spec: NsdeSpec, g: DirectedGraph, theta: ParamVector, h: float):
    """In-place Euler step x -> x + h b(x) + sigma(x) dW for the simulator.

    sigma factors as fold * shape(x): fold is alpha (times the clip level
    for TanhClipped) and shape is diffusion_shape / clip, 1 for
    ConstantDiagonal.  Returns (fold, step).  step(x, dw, tmp, shape)
    overwrites dw, an increment already multiplied by fold, with the next
    state, and leaves the factor shape(x) in the array shape, which may be
    the scratch array tmp itself (ConstantDiagonal computes none and leaves
    it alone); clip times it is diffusion_shape(x), bit for bit.  x, dw and tmp
    have shape (..., d) and share no memory.  The linear family steps with
    the matrix P = I + h M' and c = h b0.
    """
    alpha = theta.alpha
    if isinstance(spec.drift, LinearDrift):
        m, b0 = linear_drift_matrix(spec, g, theta)
        p = np.eye(spec.d) + h * m.T
        c = h * b0 if np.any(b0) else None

        def drift_step(x, out):
            np.matmul(x, p, out=out)
            if c is not None:
                out += c
    else:
        drift = path_drift_fn(spec, g, theta)

        def drift_step(x, out):
            np.multiply(drift(x), h, out=out)
            out += x

    if isinstance(spec.diffusion, ConstantDiagonal):
        def step(x, dw, tmp, shape):
            drift_step(x, tmp)
            dw += tmp

        return alpha, step

    clip = spec.diffusion.clip

    def step(x, dw, tmp, shape):
        np.multiply(x, x, out=shape)
        shape += 1.0
        np.sqrt(shape, out=shape)
        shape /= clip
        np.tanh(shape, out=shape)
        np.multiply(shape, dw, out=tmp)
        drift_step(x, dw)
        dw += tmp

    return alpha * clip, step


# ---------------------------------------------------------------------------
# box bounds


DEFAULT_SIGNED_BOUND = 1e3
DEFAULT_ALPHA_BOUND = 1e3


def default_bounds(layout: ParamLayout | ParamVector):
    """(lo, hi) box arrays: [0, DEFAULT_ALPHA_BOUND] for alpha and
    +-DEFAULT_SIGNED_BOUND elsewhere.

    Takes a layout or a parameter vector; both give the alpha count and the
    total length.
    """
    lo = np.full(layout.pi_total, -DEFAULT_SIGNED_BOUND)
    hi = np.full(layout.pi_total, DEFAULT_SIGNED_BOUND)
    lo[:layout.pi_alpha] = 0.0
    hi[:layout.pi_alpha] = DEFAULT_ALPHA_BOUND
    return lo, hi


# ---------------------------------------------------------------------------
# config


class ConfigFieldError(ValueError):
    """A config setting that is missing, mistyped, out of its range, not
    one of its allowed values or unknown, named by its dotted path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"config field {path!r}: {message}")


REQUIRED = object()  # the default of a setting that must be given

_KINDS = {bool: "true or false", int: "an integer", float: "a number",
          str: "a string", dict: "an object", list: "a list"}


def setting(cfg: dict, path: str, kind=None, default=REQUIRED, check=None,
            allowed=None):
    """The setting at dotted path in cfg, or default (as it is) where it
    is absent; a null counts as absent when default is None.  kind
    converts a given value: bool takes only JSON true or false, int and
    float go through their constructors, and str, dict and list (or tuple
    or array) must be one already.  check is a (predicate, requirement)
    pair it must pass, allowed the values it may take.  Each failure
    raises ConfigFieldError naming the path; cfg is never written to."""
    node, parts = cfg, path.split(".")
    for depth, part in enumerate(parts):
        if not isinstance(node, dict):
            raise ConfigFieldError(".".join(parts[:depth]) or "<root>",
                                   f"must be an object, got {node!r}")
        if part not in node:
            if default is REQUIRED:
                raise ConfigFieldError(".".join(parts[:depth + 1]), "missing")
            return default
        node = node[part]
    if node is None and default is None:
        return None
    value, ok = node, True
    if kind in (int, float):
        try:
            value = kind(node)
        except (TypeError, ValueError, OverflowError):
            ok = False
    elif kind is not None:
        ok = isinstance(node, (list, tuple, np.ndarray) if kind is list else kind)
    if not ok:
        raise ConfigFieldError(path, f"must be {_KINDS[kind]}, got {node!r}")
    if check is not None and not check[0](value):
        raise ConfigFieldError(path, f"must {check[1]}, got {node!r}")
    if allowed is not None and value not in tuple(allowed):
        raise ConfigFieldError(path, "must be one of " + ", ".join(
            map(repr, allowed)) + f", got {node!r}")
    return value


def spec_from_config(cfg: dict, at: str = "") -> NsdeSpec:
    """The model of the block at `at` in cfg, a dotted prefix such as
    "model." ("" for cfg itself), so errors name paths from cfg's root."""
    family = setting(cfg, at + "drift.family", str,
                     allowed=("linear", "radial_dictionary"))
    if family == "linear":
        drift = LinearDrift(with_intercepts=setting(
            cfg, at + "drift.with_intercepts", bool, LinearDrift.with_intercepts))
    else:
        drift = RadialDictionaryDrift(
            offsets=tuple(setting(cfg, at + "drift.offsets", list)),
            exponents=tuple(setting(cfg, at + "drift.exponents", list)))
    family = setting(cfg, at + "diffusion.family", str,
                     allowed=("constant_diagonal", "tanh_clipped"))
    diffusion = ConstantDiagonal() if family == "constant_diagonal" else \
        TanhClipped(clip=setting(cfg, at + "diffusion.clip", float, TanhClipped.clip))
    return NsdeSpec(d=setting(cfg, at + "d", int), drift=drift, diffusion=diffusion)


def params_from_config(cfg: dict, at: str = "") -> ParamVector:
    """The parameters of the block at `at` in cfg (as in spec_from_config)."""
    return ParamVector(
        alpha=np.asarray(setting(cfg, at + "alpha", list), dtype=float),
        beta=np.asarray(setting(cfg, at + "beta", list), dtype=float))
