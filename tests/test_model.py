import numpy as np
import pytest

from netsde.graph import build_graph, complete_graph, erdos_renyi
from netsde.model import (ConstantDiagonal, LayoutMismatchError, LinearDrift,
                          ModelError, NegativeAlphaError, NonFiniteStateError,
                          NsdeSpec, ParamVector, RadialDictionaryDrift,
                          TanhClipped, default_bounds, diffusion_eval,
                          diffusion_shape, linear_drift_matrix,
                          parameter_layout, params_from_config,
                          params_to_config, path_drift_fn, spec_from_config,
                          spec_to_config)
from reference import drift_eval, pair_index, path_diffusion_fn


def linear_spec(d, intercepts=False, clip=None):
    diffusion = ConstantDiagonal() if clip is None else TanhClipped(clip=clip)
    return NsdeSpec(d=d, drift=LinearDrift(with_intercepts=intercepts),
                    diffusion=diffusion)


def test_pure_momentum_drift():
    # single node, no edges: b(x) = -mu x
    spec = linear_spec(1)
    g = build_graph(1, [])
    theta = ParamVector(alpha=[1.0], beta=[2.0])
    assert drift_eval(spec, g, theta, [3.0]) == pytest.approx([-6.0])


def test_linear_drift_matches_hand_matrix():
    # b(x) = -diag(mu) x + B x with B from the edge coefficients
    spec = linear_spec(3)
    g = build_graph(3, [(0, 1), (2, 0), (2, 1)])
    mu = np.array([1.0, 2.0, 3.0])
    net = np.array([0.5, -1.5, 4.0])
    theta = ParamVector(alpha=np.ones(3), beta=np.concatenate([mu, net]))
    m_hand = np.array([[-1.0, 0.5, 0.0],
                       [0.0, -2.0, 0.0],
                       [-1.5, 4.0, -3.0]])
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal(3)
        assert np.allclose(drift_eval(spec, g, theta, x), m_hand @ x,
                           rtol=0, atol=1e-12)
    m, b0 = linear_drift_matrix(spec, g, theta)
    assert np.allclose(m, m_hand, atol=1e-15) and np.allclose(b0, 0.0)


def test_intercepts_shift_the_drift():
    spec = linear_spec(2, intercepts=True)
    g = build_graph(2, [(1, 0)])
    layout = parameter_layout(spec, g)
    theta = layout.pack(alpha=[1.0, 1.0], momentum=[1.0, 1.0],
                        network=[2.0], intercepts=[0.5, -0.5])
    x = np.array([1.0, 3.0])
    want = np.array([-1.0 + 0.5, -3.0 - 0.5 + 2.0 * 1.0])
    assert np.allclose(drift_eval(spec, g, theta, x), want, atol=1e-12)


def test_augmented_drift_uses_pair_weights():
    d = 3
    spec = linear_spec(d)
    g = complete_graph(d)
    layout = parameter_layout(spec, g, augmented=True)
    w = np.arange(1.0, 1.0 + d * (d - 1))
    theta = layout.pack(alpha=np.ones(d), momentum=np.zeros(d), network=w)
    x = np.array([1.0, 2.0, 3.0])
    want = np.zeros(d)
    for i in range(d):
        for j in range(d):
            if i != j:
                want[i] += w[pair_index(i, j, d)] * x[j]
    assert np.allclose(drift_eval(spec, g, theta, x), want, atol=1e-12)
    assert np.allclose(path_drift_fn(spec, g, theta)(x), want, atol=1e-12)


def test_radial_drift_hand_value():
    # one level: b_0 = -mu0 x0 + beta x1 (offset + |x|)^(-(q+1))
    spec = NsdeSpec(d=2, drift=RadialDictionaryDrift(offsets=(1.0,), exponents=(0.5,)),
                    diffusion=ConstantDiagonal())
    g = build_graph(2, [(0, 1)])
    theta = ParamVector(alpha=np.ones(2), beta=np.array([2.0, 3.0, 5.0]))
    x = np.array([1.0, 2.0])
    nrm = np.sqrt(5.0)
    want0 = -2.0 * 1.0 + 5.0 * 2.0 * (1.0 + nrm) ** (-1.5)
    want1 = -3.0 * 2.0
    assert np.allclose(drift_eval(spec, g, theta, x), [want0, want1], atol=1e-12)


def test_path_drift_fn_matches_pointwise_eval():
    rng = np.random.default_rng(4)
    g = erdos_renyi(5, 0.4, seed=9)
    for spec in (linear_spec(5),
                 NsdeSpec(d=5,
                          drift=RadialDictionaryDrift(offsets=(1.0, 2.0),
                                                      exponents=(-0.5, 0.5)),
                          diffusion=ConstantDiagonal())):
        layout = parameter_layout(spec, g)
        theta = layout.unflatten(rng.standard_normal(layout.pi_total) ** 2)
        fn = path_drift_fn(spec, g, theta)
        xs = rng.standard_normal((7, 5))
        batch = fn(xs)
        for t in range(7):
            assert np.allclose(batch[t], drift_eval(spec, g, theta, xs[t]),
                               rtol=0, atol=1e-12)


def test_tanh_clipped_shape_values():
    spec = linear_spec(1, clip=100.0)
    # at x=0 the shape is c tanh(1/c), just below 1
    s0 = diffusion_shape(spec, np.array([0.0]))[0]
    assert s0 == pytest.approx(100.0 * np.tanh(0.01), abs=1e-15)
    sigma = diffusion_eval(spec, np.array([2.0]), np.array([0.0]))[0]
    assert sigma == pytest.approx(2.0 * 100.0 * np.tanh(0.01), abs=1e-12)
    # bounded by alpha * clip, increasing in |x|, even
    xs = np.linspace(-500.0, 500.0, 101)
    s = diffusion_shape(spec, xs)
    assert np.all(s < 100.0) and np.all(s > 0.0)
    assert np.allclose(s, s[::-1], atol=1e-12)
    half = s[xs >= 0]
    assert np.all(np.diff(half) >= 0.0)
    # close to sqrt(1 + x^2) well below the clip
    small = np.array([0.5])
    assert diffusion_shape(spec, small)[0] == pytest.approx(
        np.sqrt(1.25), rel=1e-4)


def test_constant_diffusion_shape():
    spec = linear_spec(3)
    xs = np.random.default_rng(0).standard_normal((4, 3))
    assert np.all(diffusion_shape(spec, xs) == 1.0)
    fn = path_diffusion_fn(spec, ParamVector(alpha=[1.0, 2.0, 3.0], beta=np.zeros(3)))
    assert np.allclose(fn(xs), np.array([1.0, 2.0, 3.0]) * np.ones((4, 3)))


def test_pair_index_is_a_row_major_bijection():
    d = 5
    slots = [pair_index(i, j, d) for i in range(d) for j in range(d) if i != j]
    assert slots == list(range(d * (d - 1)))
    with pytest.raises(LayoutMismatchError):
        pair_index(2, 2, d)


def test_layout_counts_and_ratios():
    spec = linear_spec(8)
    pairs = [(i, j) for i in range(8) for j in range(8) if i != j]
    g = build_graph(8, pairs[:20])
    layout = parameter_layout(spec, g)
    assert layout.pi_total == 36


def test_layout_slots_match_names():
    spec = linear_spec(4, intercepts=True)
    g = build_graph(4, [(0, 1), (2, 3)])
    layout = parameter_layout(spec, g)
    names = layout.coord_names
    assert names[layout.alpha_slot(2)] == "alpha_2"
    assert names[layout.momentum_slot(1)] == "mu_1"
    assert names[layout.intercept_slot(3)] == "intercept_3"
    assert names[layout.edge_slot(2, 3)] == "beta_2_3"
    assert layout.pi_total == len(names) == 4 + 4 + 4 + 2
    with pytest.raises(LayoutMismatchError):
        layout.edge_slot(1, 0)


def test_layout_slots_augmented():
    spec = linear_spec(3)
    layout = parameter_layout(spec, complete_graph(3), augmented=True)
    names = layout.coord_names
    assert names[layout.edge_slot(0, 2)] == "w_0_2"
    assert names[layout.edge_slot(2, 0)] == "w_2_0"
    assert layout.pi_total == 3 + 3 + 6
    # the per-edge layout of the complete graph, whatever graph is passed,
    # with its network coordinates named w_i_j
    plain = parameter_layout(spec, complete_graph(3))
    assert parameter_layout(spec, build_graph(3, []), augmented=True) == layout
    assert layout.edges == plain.edges
    assert np.array_equal(layout.coef_slots, plain.coef_slots)
    assert [n.replace("w_", "beta_") for n in names] == list(plain.coord_names)


def test_layout_radial_levels():
    spec = NsdeSpec(d=3, drift=RadialDictionaryDrift(offsets=(1.0, 1.0),
                                                     exponents=(-0.5, 0.5)),
                    diffusion=ConstantDiagonal())
    g = build_graph(3, [(0, 1), (1, 2)])
    layout = parameter_layout(spec, g)
    assert layout.n_levels == 2
    assert layout.pi_total == 3 + 3 + 2 * 2
    assert layout.coord_names[layout.edge_slot(1, 2, level=1)] == "beta1_1_2"
    with pytest.raises(LayoutMismatchError):
        layout.edge_slot(0, 1, level=2)
    with pytest.raises(LayoutMismatchError):
        parameter_layout(spec, g, augmented=True)


def _three_layouts():
    """A linear known graph with unsorted edges and intercepts, an augmented
    d = 4 layout and a two-level radial layout."""
    radial = NsdeSpec(d=4, drift=RadialDictionaryDrift(offsets=(1.0, 2.0),
                                                       exponents=(-0.5, 0.5)),
                      diffusion=ConstantDiagonal())
    unsorted = build_graph(5, [(3, 1), (0, 4), (2, 0), (0, 1), (4, 2)])
    return [
        ("linear", parameter_layout(linear_spec(5, intercepts=True), unsorted)),
        ("augmented", parameter_layout(linear_spec(4), complete_graph(4),
                                       augmented=True)),
        ("radial", parameter_layout(radial, build_graph(4, [(2, 3), (0, 1), (1, 0)]))),
    ]


@pytest.mark.parametrize("kind, layout", _three_layouts(),
                         ids=[kind for kind, _ in _three_layouts()])
def test_coef_slots_name_their_coordinates(kind, layout):
    d = layout.d
    assert layout.coef_slots.shape == (max(layout.n_levels, 1), d, d)
    for (level, i, j), slot in np.ndenumerate(layout.coef_slots):
        if slot < 0:
            continue
        name = {"linear": f"beta_{i}_{j}", "augmented": f"w_{i}_{j}",
                "radial": f"beta{level}_{i}_{j}"}[kind]
        assert layout.coord_names[slot] == name
        assert layout.edge_slot(i, j, level=level) == slot
    # a bijection onto the network block, the slots after alpha, momentum
    # and intercepts
    first = layout.pi_alpha + layout.d * (1 + layout.with_intercepts)
    taken = np.sort(layout.coef_slots[layout.coef_slots >= 0])
    assert taken.tolist() == list(range(first, layout.pi_total))
    assert not np.any(np.diagonal(layout.coef_slots, axis1=1, axis2=2) >= 0)


@pytest.mark.parametrize("kind, layout", _three_layouts(),
                         ids=[kind for kind, _ in _three_layouts()])
def test_edge_slot_checks_its_indices(kind, layout):
    d = layout.d
    levels = max(layout.n_levels, 1)
    i, j = next((i, j) for i in range(d) for j in range(d)
                if layout.coef_slots[0, i, j] >= 0)
    layout.edge_slot(i, j, level=levels - 1)
    for bad in [(-1, j, 0), (i, -1, 0), (d, j, 0), (i, d, 0), (i, i, 0),
                (i, j, -1), (i, j, levels)]:
        with pytest.raises(LayoutMismatchError):
            layout.edge_slot(*bad[:2], level=bad[2])
    if kind != "augmented":
        a, b = next((a, b) for a in range(d) for b in range(d)
                    if a != b and layout.coef_slots[0, a, b] < 0)
        with pytest.raises(LayoutMismatchError, match="not an edge"):
            layout.edge_slot(a, b)


def test_edge_slot_rejects_what_the_pair_order_would_wrap():
    # row-major pair arithmetic alone maps these to mu_0's slot, w_1_0's
    # slot and past the end of the vector
    layout = parameter_layout(linear_spec(3), complete_graph(3), augmented=True)
    for i, j in [(-1, 0), (0, 3), (3, 0)]:
        with pytest.raises(LayoutMismatchError):
            layout.edge_slot(i, j)


def test_flatten_unflatten_round_trip():
    rng = np.random.default_rng(2)
    spec = linear_spec(4)
    g = build_graph(4, [(0, 1), (1, 2), (3, 0)])
    for augmented in (False, True):
        layout = parameter_layout(spec, g if not augmented else complete_graph(4),
                                  augmented=augmented)
        flat = rng.standard_normal(layout.pi_total)
        flat[:4] = np.abs(flat[:4])
        theta = layout.unflatten(flat)
        assert np.array_equal(layout.flatten(theta), flat)
        assert np.array_equal(layout.network(theta), flat[8:])
    with pytest.raises(LayoutMismatchError):
        layout.unflatten(np.zeros(3))


def test_pack_round_trip_and_errors():
    spec = linear_spec(3)
    g = build_graph(3, [(0, 1)])
    layout = parameter_layout(spec, g)
    theta = layout.pack(alpha=[1, 2, 3], momentum=[4, 5, 6], network=[7])
    assert np.array_equal(layout.momentum(theta), [4, 5, 6])
    assert np.array_equal(layout.network(theta), [7])
    assert np.array_equal(layout.intercepts(theta), np.zeros(3))
    with pytest.raises(LayoutMismatchError):
        layout.pack(alpha=[1, 2, 3], momentum=[4, 5, 6], intercepts=[0, 0, 0])
    aug = parameter_layout(spec, complete_graph(3), augmented=True)
    theta = aug.pack(alpha=[1, 2, 3], momentum=[4, 5, 6], network=np.arange(6.0))
    assert np.array_equal(aug.network(theta), np.arange(6.0))
    with pytest.raises(LayoutMismatchError):
        aug.pack(alpha=[1, 2, 3], momentum=[4, 5, 6], network=[7])
    # the block split is checked too, not only the total length
    with pytest.raises(LayoutMismatchError):
        layout.flatten(ParamVector(alpha=[1, 2], beta=[3, 4, 5, 6, 7]))


def test_param_vector_guards():
    with pytest.raises(NegativeAlphaError):
        ParamVector(alpha=[-1.0], beta=[0.0])
    spec = linear_spec(2)
    with pytest.raises(NonFiniteStateError):
        drift_eval(spec, build_graph(2, []),
                   ParamVector(alpha=[1, 1], beta=[1, 1]), [np.nan, 0.0])
    with pytest.raises(LayoutMismatchError):
        drift_eval(spec, build_graph(2, []),
                   ParamVector(alpha=[1, 1], beta=[1, 1]), [0.0, 0.0, 0.0])
    with pytest.raises(NegativeAlphaError):
        diffusion_eval(spec, np.array([-0.5, 1.0]), np.zeros(2))


def test_default_bounds_box():
    spec = linear_spec(3)
    layout = parameter_layout(spec, build_graph(3, [(0, 1)]))
    lo, hi = default_bounds(layout)
    assert np.all(lo[:3] == 0.0) and np.all(hi[:3] == 1e3)
    assert np.all(lo[3:] == -1e3) and np.all(hi[3:] == 1e3)
    # a parameter vector of that layout gives the same box
    theta = layout.pack(alpha=np.ones(3), momentum=np.ones(3), network=[0.5])
    lo_v, hi_v = default_bounds(theta)
    assert np.array_equal(lo_v, lo) and np.array_equal(hi_v, hi)


def test_spec_config_round_trip():
    specs = [
        linear_spec(3),
        linear_spec(2, intercepts=True, clip=50.0),
        NsdeSpec(d=4, drift=RadialDictionaryDrift(offsets=(1.0, 2.0),
                                                  exponents=(-0.5, 0.5)),
                 diffusion=TanhClipped(clip=100.0)),
    ]
    for spec in specs:
        assert spec_from_config(spec_to_config(spec)) == spec
    with pytest.raises(ModelError):
        spec_from_config({"d": 2, "drift": {"family": "cubic"},
                          "diffusion": {"family": "constant_diagonal"}})
    with pytest.raises(ModelError):
        RadialDictionaryDrift(offsets=(1.0,), exponents=(2.0,))
    with pytest.raises(ModelError):
        RadialDictionaryDrift(offsets=(-1.0,), exponents=(0.0,))
    with pytest.raises(ModelError):
        TanhClipped(clip=0.0)


def test_params_config_round_trip():
    theta = ParamVector(alpha=[1.0, 2.0], beta=[3.0, 4.0, 5.0, 6.0])
    back = params_from_config(params_to_config(theta))
    assert np.array_equal(back.alpha, theta.alpha)
    assert np.array_equal(back.beta, theta.beta)
    layout = parameter_layout(linear_spec(2), complete_graph(2), augmented=True)
    assert params_from_config(params_to_config(theta), layout).pi_total == 6
    with pytest.raises(LayoutMismatchError):
        params_from_config({"alpha": [1.0, 2.0], "beta": [3.0]}, layout)
