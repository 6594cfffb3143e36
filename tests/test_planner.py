import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bruteforce import best_exact_size_weight, dyadic_matrix
from conftest import make_tensor, solve_matching
from irsfleet.channel import (
    RadioParams,
    cascaded_snr_db,
    direct_path_loss_db,
    direct_snr_db,
    link_budget,
    los_probability,
    nlos_members,
    realize_channel,
    snr_ratio,
)
from irsfleet.geometry import build_layout, compute_distances
from irsfleet.matching import run
from irsfleet.planner import (
    InfeasiblePlacementError,
    PlacementPlan,
    PlanValidationError,
    _summed_excess,
    adaptive_plan_machine,
    build_gain_tensor,
    evaluate_plan,
    fixed_plan_machine,
    solve_random_plan,
    validate_plan,
)
from irsfleet.traffic import TrafficModel, sample_traffic


# ------------------------------------------------------------- gain tensor

def _default_pipeline(seed=3, side=9, sigma=2.8, params=RadioParams()):
    layout = build_layout(side, side, 20.0, (8.5, 2.0, 10.5))
    tables = compute_distances(layout)
    budget = link_budget(tables, params)
    real = realize_channel(budget, np.random.Generator(np.random.Philox(seed)))
    field = sample_traffic(
        TrafficModel(sigma_log=sigma),
        layout.n_grids,
        np.random.Generator(np.random.Philox(seed + 1)),
    )
    return layout, tables, budget, real, field


def _random_tensor(rng, epochs, n_weak, n_sites):
    """Random gains above 1 on a random served mask."""
    base = 1.0 + np.abs(rng.normal(size=(n_weak, n_sites)))
    return make_tensor(base, rng.random((epochs, n_weak)) < 0.7)


def _plan(strategy, cells, sites):
    return PlacementPlan(strategy, np.array(cells), np.array(sites))


def _pairs(plan):
    """Each epoch's (cell, site) pairs, in plan order."""
    return [
        list(zip(cells, sites))
        for cells, sites in zip(plan.cells.tolist(), plan.sites.tolist())
    ]


def _lone_solve(gains, m):
    """Pairs and gain excess of one epoch's gains, solved as a one-epoch tensor."""
    tensor = make_tensor(gains)
    plan = run(adaptive_plan_machine(tensor, m))
    return _pairs(plan)[0], evaluate_plan(plan, tensor, m).matching_weight


def test_build_gain_tensor_shapes_and_floor():
    layout, tables, budget, real, field = _default_pipeline()
    tensor = build_gain_tensor(budget, real, field)
    assert tensor.base.shape == (real.weak_set.size, 100)
    assert tensor.gains.shape == (12, real.weak_set.size, 100)
    assert (tensor.gains >= 1.0).all()
    assert np.array_equal(tensor.weak_grids, real.weak_set)
    # gated entries are exactly one
    gated = tensor.demand < tensor.thresholds[:, None]
    assert (tensor.gains[gated] == 1.0).all()
    assert (tensor.gains[~gated] > 1.0).all()
    # demand slice mirrors the field
    assert np.array_equal(tensor.demand, field.demand[:, real.weak_set])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 0.5])
def test_gain_tensor_rejects_bad_gains(bad):
    with pytest.raises(ValueError, match="gains must be finite and at least 1"):
        make_tensor([[bad, 2.0], [3.0, 5.0]])


def test_gain_tensor_gates_on_demand_meeting_the_threshold():
    # Demand above, equal to and below the threshold, then unit gains with
    # demand above and below it.
    base = [[5.875, 2.0], [4.0, 3.0], [5.875, 2.0], [1.0, 1.0], [1.0, 1.0]]
    demand = [[100.0, 7.02, 3.0, 100.0, 3.0]]
    tensor = make_tensor(base, demand=demand, thresholds=[7.02])
    assert tensor.served.tolist() == [[True, True, False, True, False]]
    expect = [[5.875, 2.0], [4.0, 3.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]
    assert tensor.gains.tolist() == [expect]
    for q, gains in enumerate(expect):
        plan = _plan("robotic", [[q]], [[0]])
        assert evaluate_plan(plan, tensor, 1).matching_weight == gains[0] - 1.0


# A non-default radio that moves the direct, cascaded and threshold terms.
RADIO = RadioParams(
    eta2=3.5, eta3=2.2, k_c_db=3.0, tx_power_dbm=30.0, n_elements=1024,
    carrier_freq_hz=26e9, a_t_db=-55.0, snr_threshold_db=14.0,
)


@pytest.mark.parametrize("side", [9, 17])
def test_dense_view_equals_the_gated_snr_ratio(side):
    # Reference: the weak set and gated SNR ratio computed per unit from the
    # same draws, evaluating each cell's direct link as drawn.
    for params in (RadioParams(), RADIO):
        for seed, sigma in ((3, 1.8), (5, 2.8), (7, 3.6)):
            _, tables, budget, real, field = _default_pipeline(
                seed, side, sigma, params
            )
            tensor = build_gain_tensor(budget, real, field)
            draws = np.random.Generator(np.random.Philox(seed)).random(side * side)
            nlos = nlos_members(los_probability(tables.d2_bs_ut), draws)
            pl = direct_path_loss_db(tables.l_bs_ut, nlos, params)
            snr = direct_snr_db(pl, params)
            weak = np.flatnonzero(nlos & (snr < params.snr_threshold_db))
            gamma_c = cascaded_snr_db(
                tables.r_bs_site[None, :], tables.d_site_ut[weak], params
            )
            base = snr_ratio(snr[weak][:, None], gamma_c)
            demand = field.demand[:, weak]
            dense = np.where(
                demand[..., None] >= field.threshold[:, None, None], base[None], 1.0
            )
            assert weak.size > 0
            assert np.array_equal(real.weak_set, weak)
            assert np.array_equal(tensor.base, base)
            assert np.array_equal(tensor.gains, dense)


def test_build_gain_tensor_empty_weak_set():
    layout, tables, budget, real, field = _default_pipeline()
    quiet = link_budget(tables, RadioParams(snr_threshold_db=-1e9))
    real_quiet = realize_channel(quiet, np.random.Generator(np.random.Philox(3)))
    assert real_quiet.weak_set.size == 0
    tensor = build_gain_tensor(quiet, real_quiet, field)
    assert tensor.n_weak == 0
    plan = run(adaptive_plan_machine(tensor, 0))
    assert plan.cells.shape == plan.sites.shape == (12, 0)
    assert evaluate_plan(plan, tensor, 0).objective == 1.0
    with pytest.raises(InfeasiblePlacementError):
        run(adaptive_plan_machine(tensor, 1))


def test_far_cells_carry_the_largest_gains():
    layout, tables, budget, real, field = _default_pipeline()
    tensor = build_gain_tensor(budget, real, field)
    best_per_cell = tensor.gains.max(axis=(0, 2))
    top_cell = tensor.weak_grids[int(best_per_cell.argmax())]
    # the best achievable gain sits at one of the most distant weak cells
    far = tables.l_bs_ut[tensor.weak_grids].max()
    assert tables.l_bs_ut[top_cell] >= 0.9 * far
    assert 1.0 < best_per_cell.max() < 1e3


# ---------------------------------------------------------- epoch placement

def test_epoch_placement_single_unit_example():
    pairs, weight = _lone_solve([[2.0, 3.0], [4.0, 1.0]], 1)
    assert pairs == [(1, 0)] and weight == 3.0
    plan = _plan("robotic", [[1]], [[0]])
    tensor = make_tensor([[2.0, 3.0], [4.0, 1.0]])
    assert evaluate_plan(plan, tensor, 1).objective == pytest.approx(2.5)


def test_epoch_placement_two_unit_example():
    pairs, weight = _lone_solve([[2.0, 3.0], [4.0, 1.5]], 2)
    assert pairs == [(0, 1), (1, 0)] and weight == 5.0


def test_epoch_placement_all_ones_breaks_ties_low():
    pairs, weight = _lone_solve(np.ones((3, 4)), 2)
    assert weight == 0.0
    assert pairs == [(0, 0), (1, 1)]


def test_epoch_placement_infeasible():
    with pytest.raises(InfeasiblePlacementError):
        run(adaptive_plan_machine(make_tensor(np.ones((2, 5))), 3))


def test_epoch_placement_matches_brute_force():
    rng = np.random.Generator(np.random.Philox(77))
    for _ in range(60):
        nq = int(rng.integers(1, 7))
        nj = int(rng.integers(1, 7))
        m = int(rng.integers(0, min(nq, nj) + 1))
        gains = 1.0 + np.abs(dyadic_matrix(rng, (nq, nj)))
        _, weight = _lone_solve(gains, m)
        assert weight == best_exact_size_weight(gains - 1.0, m)


def _gated_gains(rng, kind):
    """Random gains whose unserved rows are all exactly 1, as after gating."""
    nq = int(rng.integers(1, 8))
    nj = int(rng.integers(1, 8))
    gains = 1.0 + rng.random((nq, nj))
    if kind == "exact-ones":
        gains = 1.0 + rng.integers(0, 3, size=(nq, nj)) / 4.0
    elif kind == "tied":
        gains[:] = 1.5
    m = int(rng.integers(0, min(nq, nj) + 1))
    served = rng.random(nq) < 0.6
    if kind == "all-ones":
        served[:] = False
    elif kind == "few-served":
        m = int(rng.integers(1, min(nq, nj) + 1))
        served = np.isin(np.arange(nq), rng.permutation(nq)[: rng.integers(0, m)])
    elif kind == "m-zero":
        m = 0
    gains[~served] = 1.0
    return gains, m


@pytest.mark.parametrize(
    "kind",
    ["above-one", "exact-ones", "tied", "all-ones", "few-served", "m-zero"],
)
def test_served_row_placement_equals_full_matching(kind):
    rng = np.random.Generator(np.random.Philox(909))
    for _ in range(500):
        gains, m = _gated_gains(rng, kind)
        pairs, weight = _lone_solve(gains, m)
        full_pairs, full_cost = solve_matching(1.0 - gains, m)
        assert pairs == full_pairs
        assert weight == -full_cost


def test_served_row_placement_releases_unit_gain_pairs():
    # Row 3's best completion is its unit-gain site 2, which row 0 takes
    # by the lowest-(cell, site) rule instead.
    gains = np.array([[1, 1, 1], [1, 2, 1], [2, 1, 1], [1.5, 1.5, 1]])
    pairs, weight = _lone_solve(gains, 3)
    assert pairs == [(0, 2), (1, 1), (2, 0)]
    assert weight == 2.0


def test_clairvoyant_placement_equals_full_matching():
    rng = np.random.Generator(np.random.Philox(910))
    for _ in range(200):
        served = rng.random((3, 6)) < 0.7
        served[:, rng.random(6) < 0.4] = False  # cells never served
        tensor = make_tensor(1.0 + rng.integers(0, 3, size=(6, 5)) / 4.0, served)
        m = int(rng.integers(0, 6))
        plan = run(fixed_plan_machine(tensor, m, "clairvoyant"))
        full_pairs, _ = solve_matching(-(tensor.gains - 1.0).sum(axis=0), m)
        assert _pairs(plan)[0] == full_pairs


def test_adding_a_site_never_hurts():
    rng = np.random.Generator(np.random.Philox(13))
    for _ in range(40):
        gains = 1.0 + np.abs(dyadic_matrix(rng, (4, 4)))
        extra = 1.0 + np.abs(dyadic_matrix(rng, (4, 1)))
        _, base = _lone_solve(gains, 2)
        _, more = _lone_solve(np.hstack([gains, extra]), 2)
        assert more >= base


def test_summed_excess_equals_the_dense_epoch_sum():
    rng = np.random.Generator(np.random.Philox(911))
    for _ in range(200):
        n_weak, n_sites = (int(n) for n in rng.integers(1, 30, size=2))
        base = 1.0 + rng.lognormal(0.0, 2.0, size=(n_weak, n_sites))
        tensor = make_tensor(base, rng.random((12, n_weak)) < rng.random())
        dense_sum = (tensor.gains - 1.0).sum(axis=0)
        assert np.array_equal(_summed_excess(tensor), dense_sum)


def test_fixed_plans_equal_the_dense_reference():
    # Pairs as computed from the dense tensor, and their weight summed from
    # it pair by pair, bit for bit.
    rng = np.random.Generator(np.random.Philox(912))
    for _ in range(100):
        n_weak, n_sites = (int(n) for n in rng.integers(1, 12, size=2))
        tensor = _random_tensor(rng, 12, n_weak, n_sites)
        dense = tensor.gains
        m = int(rng.integers(0, min(n_weak, n_sites) + 1))
        for mode in ("epoch1", "clairvoyant"):
            if mode == "epoch1":
                pairs, _ = _lone_solve(dense[0], m)
            else:
                pairs, _ = solve_matching(-(dense - 1.0).sum(axis=0), m)
            weight = 0.0
            for t in range(12):
                for q, j in pairs:
                    weight += float(dense[t, q, j]) - 1.0
            plan = run(fixed_plan_machine(tensor, m, mode))
            assert _pairs(plan) == [pairs] * 12
            ev = evaluate_plan(plan, tensor, m)
            assert ev.matching_weight == weight
            assert ev.objective == 1.0 + weight / (12 * n_weak)


# ------------------------------------------------------------- plan solvers

def test_single_epoch_reduces_to_epoch_solver():
    gains = 1.0 + np.abs(dyadic_matrix(np.random.Generator(np.random.Philox(4)), (5, 6)))
    tensor = make_tensor(gains)
    plan = run(adaptive_plan_machine(tensor, 3))
    fixed1 = run(fixed_plan_machine(tensor, 3, "epoch1"))
    fixed2 = run(fixed_plan_machine(tensor, 3, "clairvoyant"))
    pairs, weight = _lone_solve(gains, 3)
    for p in (plan, fixed1, fixed2):
        assert _pairs(p) == [pairs]
        assert evaluate_plan(p, tensor, 3).matching_weight == pytest.approx(weight)


def test_adaptive_plan_equals_epoch_by_epoch_solves():
    # One batch solve over epochs with different served-row counts, from
    # none to all, gives each epoch the pairs of its own one-epoch solve.
    rng = np.random.Generator(np.random.Philox(77))
    for _ in range(40):
        base = 1.0 + np.abs(dyadic_matrix(rng, (7, 6), lo=-2, hi=2, denom=2))
        tensor = make_tensor(base, rng.random((5, 7)) >= rng.random())
        plan = run(adaptive_plan_machine(tensor, 3))
        weight = 0.0
        for t in range(5):
            epoch = make_tensor(
                base,
                demand=tensor.demand[t : t + 1],
                thresholds=tensor.thresholds[t : t + 1],
            )
            alone = run(adaptive_plan_machine(epoch, 3))
            weight += evaluate_plan(alone, epoch, 3).matching_weight
            assert np.array_equal(plan.cells[t], alone.cells[0])
            assert np.array_equal(plan.sites[t], alone.sites[0])
        # Dyadic gains sum exactly in any order.
        assert evaluate_plan(plan, tensor, 3).matching_weight == weight


def test_relocation_beats_any_fixed_placement():
    # Cell 0 is served in epoch 1 only, cell 1 in epoch 2 only.
    tensor = make_tensor([[5.0, 1.0], [5.0, 1.0]], [[True, False], [False, True]])
    adaptive = run(adaptive_plan_machine(tensor, 1))
    epoch1 = run(fixed_plan_machine(tensor, 1, "epoch1"))
    clair = run(fixed_plan_machine(tensor, 1, "clairvoyant"))
    assert _pairs(adaptive) == [[(0, 0)], [(1, 0)]]
    assert _pairs(epoch1) == _pairs(clair) == [[(0, 0)], [(0, 0)]]
    robotic, epoch1, clair = (
        evaluate_plan(p, tensor, 1).objective for p in (adaptive, epoch1, clair)
    )
    assert robotic == pytest.approx(3.0)
    assert epoch1 == pytest.approx(2.0)
    assert clair == pytest.approx(2.0)
    assert robotic > max(epoch1, clair)


def _assert_modes_dominate(tensor, m):
    """robotic >= clairvoyant fixed >= epoch1 fixed >= 1, as scored."""
    plans = (
        run(adaptive_plan_machine(tensor, m)),
        run(fixed_plan_machine(tensor, m, "clairvoyant")),
        run(fixed_plan_machine(tensor, m, "epoch1")),
    )
    for plan in plans[1:]:
        assert (plan.cells == plan.cells[0]).all()
        assert (plan.sites == plan.sites[0]).all()
    robotic, clair, epoch1 = (evaluate_plan(p, tensor, m).objective for p in plans)
    assert robotic >= clair - 1e-9
    assert clair >= epoch1 - 1e-9
    assert epoch1 >= 1.0


def test_fixed_plan_modes_dominance():
    # The ordering on drawn channel and traffic units, fleet of 10.
    for seed, sigma in ((3, 1.8), (5, 2.8), (7, 3.6)):
        _, _, budget, real, field = _default_pipeline(seed, 9, sigma)
        _assert_modes_dominate(build_gain_tensor(budget, real, field), 10)


@st.composite
def _small_units(draw):
    """A small tensor with a random served mask, and a fleet size that fits."""
    epochs = draw(st.integers(1, 4))
    n_weak = draw(st.integers(1, 6))
    n_sites = draw(st.integers(1, 6))
    base = draw(arrays(float, (n_weak, n_sites), elements=st.floats(1.0, 1e3)))
    served = draw(arrays(bool, (epochs, n_weak)))
    return make_tensor(base, served), draw(st.integers(0, min(n_weak, n_sites)))


@given(_small_units())
@settings(max_examples=100, deadline=None)
def test_fixed_plan_modes_dominance_on_drawn_tensors(unit):
    _assert_modes_dominate(*unit)


def test_fixed_plan_rejects_unknown_mode():
    tensor = make_tensor(np.ones((2, 2)))
    with pytest.raises(ValueError):
        run(fixed_plan_machine(tensor, 1, "psychic"))


def test_tensor_without_an_epoch_is_refused():
    # So neither placement machine is handed one: scoring it would divide
    # by its zero epochs.
    with pytest.raises(ValueError, match="at least one epoch"):
        make_tensor(np.full((3, 4), 2.0), served=np.zeros((0, 3), bool))


def test_random_plan_degenerate_cases(rng):
    tensor = make_tensor(np.full((1, 1), 3.0), epochs=2)
    plan = solve_random_plan(tensor, 1, rng)
    assert _pairs(plan) == [[(0, 0)], [(0, 0)]]
    ones = make_tensor(np.ones((3, 3)), epochs=2)
    assert evaluate_plan(solve_random_plan(ones, 2, rng), ones, 2).objective == 1.0


def test_random_plan_uniform_over_supports():
    tensor = make_tensor(np.ones((3, 3)))
    rng = np.random.Generator(np.random.Philox(101))
    counts: dict[tuple, int] = {}
    draws = 10_000
    for _ in range(draws):
        plan = solve_random_plan(tensor, 2, rng)
        support = tuple(_pairs(plan)[0])
        counts[support] = counts.get(support, 0) + 1
    # C(3,2)^2 * 2! = 18 equally likely supports
    assert len(counts) == 18
    expect = draws / 18
    bound = 3.0 * np.sqrt(draws * (1 / 18) * (17 / 18))
    assert all(abs(c - expect) < bound for c in counts.values())


def test_random_infeasible_size(rng):
    tensor = make_tensor(np.ones((2, 2)))
    with pytest.raises(InfeasiblePlacementError):
        solve_random_plan(tensor, 3, rng)


def test_random_mean_below_fixed_mean():
    rng = np.random.Generator(np.random.Philox(202))
    fixed_obj, random_obj = [], []
    for _ in range(100):
        tensor = _random_tensor(rng, epochs=2, n_weak=4, n_sites=5)
        fixed = run(fixed_plan_machine(tensor, 2, "epoch1"))
        random = solve_random_plan(tensor, 2, rng)
        fixed_obj.append(evaluate_plan(fixed, tensor, 2).objective)
        random_obj.append(evaluate_plan(random, tensor, 2).objective)
    assert np.mean(random_obj) < np.mean(fixed_obj)


# --------------------------------------------------- evaluation / validation

def test_evaluate_matches_solver_objective():
    rng = np.random.Generator(np.random.Philox(66))
    base = 1.0 + np.abs(dyadic_matrix(rng, (5, 6)))
    demand = np.abs(rng.normal(size=(3, 5))) * 100.0
    tensor = make_tensor(base, demand=demand, thresholds=np.full(3, 50.0))
    assert 0 < tensor.served.sum() < tensor.served.size
    plan = run(adaptive_plan_machine(tensor, 2))
    ev = evaluate_plan(plan, tensor, 2)
    # the weight is the one-epoch solves' total, epoch by epoch
    totals = [_lone_solve(tensor.gains[t], 2)[1] for t in range(3)]
    assert ev.matching_weight == pytest.approx(sum(totals))
    # objective decomposition
    assert ev.objective == pytest.approx(1.0 + ev.matching_weight / (3 * 5))
    # served demand aggregates the chosen cells
    for t, cells in enumerate(plan.cells):
        assert ev.served_traffic[t] == pytest.approx(demand[t, cells].sum())


def test_empty_plan_evaluates_to_unit_gain():
    tensor = make_tensor(np.ones((3, 3)), epochs=2)
    plan = run(adaptive_plan_machine(tensor, 0))
    ev = evaluate_plan(plan, tensor, 0)
    assert ev.objective == 1.0
    assert ev.served_traffic.sum() == 0.0


@pytest.mark.parametrize(
    "assignments,message",
    [
        (([[0], [0], [0]], [[0], [0], [0]]), "epoch-count"),
        (([[0]], [[0]]), "placement-count"),
        (([[0, 0]], [[0, 1]]), "cell-exclusivity"),
        (([[0, 1]], [[0, 0]]), "site-exclusivity"),
        (([[9, 1]], [[0, 1]]), "membership"),
        (([[0, 1]], [[9, 1]]), "membership"),
        # numpy indexing would wrap a negative index silently
        (([[0, 1]], [[-1, 1]]), "membership"),
        # evaluate_plan checks the caller's fleet size, not the plan's own
        (([[0, 1, 2]], [[0, 1, 2]]), "placement-count"),
        (([[-1, 1]], [[0, 1]]), "membership"),
        # the first index past either set
        (([[3, 1]], [[0, 1]]), "membership"),
        (([[0, 1]], [[3, 1]]), "membership"),
        # arrays that are not one (epochs, m) integer shape
        (([[0, 1]], [[0, 1], [1, 2]]), "plan-shape"),
        (([0, 1], [0, 1]), "plan-shape"),
        (([[0.0, 1.0]], [[0, 1]]), "plan-shape"),
        (([[0, 1]], [[0.0, 1.0]]), "plan-shape"),
    ],
)
def test_validator_names_the_violated_constraint(assignments, message):
    tensor = make_tensor(np.ones((3, 3)))
    plan = _plan("robotic", *assignments)
    for check in (validate_plan, evaluate_plan):
        with pytest.raises(PlanValidationError, match=message):
            check(plan, tensor, 2)


def test_validator_catches_fixed_strategy_drift():
    tensor = make_tensor(np.ones((3, 3)), epochs=2)
    plan = _plan("terrestrial", [[0], [1]], [[0], [1]])
    with pytest.raises(PlanValidationError, match="fixed-placement"):
        validate_plan(plan, tensor, 1)
    # the same drift is fine for the relocating strategy
    validate_plan(_plan("robotic", plan.cells, plan.sites), tensor, 1)
    # the same cells on swapped sites are other pairs
    swapped = _plan("terrestrial", [[0, 1], [0, 1]], [[0, 2], [2, 0]])
    with pytest.raises(PlanValidationError, match="fixed-placement"):
        validate_plan(swapped, tensor, 2)
    # epoch 1's pairs listed in another order are the same placement
    validate_plan(_plan("terrestrial", [[0, 1], [1, 0]], [[0, 2], [2, 0]]), tensor, 2)
