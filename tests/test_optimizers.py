"""Update-rule arithmetic, run-level invariants and sphere sanity checks
for the four minimizers."""

import dataclasses
import json
import multiprocessing
import pickle
import re
import time
import typing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from shakebal.bench import BenchSettings
from shakebal.config import AppConfig
from shakebal.mechanism import MechanismConfig
from shakebal.objective import ObjectiveSpec, make_objective
from shakebal.optimizers import (
    ALGORITHM_NAMES,
    BUDGET_FREE,
    OPTIMIZERS,
    PARAMS,
    STEPS,
    AbcParams,
    Bounds,
    BgaParams,
    HgapsoParams,
    NonFiniteObjectiveError,
    PsoParams,
    decode_bits,
    elite_count,
    encode_point,
    fitness_from_cost,
    inertia_weight,
    lockstep,
    optimize_abc,
    optimize_bga,
    optimize_hgapso,
    optimize_pso,
    selection_probabilities,
    substream,
)
from shakebal.optimizers.abc_colony import colony_fitness, move_draws
from shakebal.optimizers.bga import breed, rank_probabilities, replayed_draws
from shakebal.optimizers.common import RunResult, TrackedObjective, score, single_run
from shakebal.testfns import hypercube_bounds, rastrigin, sphere

from _oracles import abc_oracle, breed_oracle

BOX = hypercube_bounds(4)

FAST = dict(
    pso=(optimize_pso, PsoParams(population=20, iterations=40)),
    abc=(optimize_abc, AbcParams(food_sources=10, iterations=40)),
    bga=(optimize_bga, BgaParams(population=20, iterations=40)),
    hgapso=(optimize_hgapso, HgapsoParams(population=20, iterations=40)),
)


# ----------------------------------------------------------------------
# the roster
# ----------------------------------------------------------------------

def test_every_reader_of_the_roster_sees_the_same_algorithms():
    hints = typing.get_type_hints(AppConfig)
    sections = set(hints) - {"mechanism", "objective", "bench"}
    assert set(OPTIMIZERS) == set(PARAMS) == set(ALGORITHM_NAMES) == sections == set(STEPS)
    assert all(hints[name] is PARAMS[name] for name in sections)
    named = [optimize_pso, optimize_abc, optimize_bga, optimize_hgapso]
    assert named == [OPTIMIZERS[name] for name in ("pso", "abc", "bga", "hgapso")]


def test_the_testing_hooks_pass_by_position_and_by_keyword():
    points = BOX.lerp(substream(5).random((4, 4)))
    velocities = np.zeros((4, 4))
    pso = PsoParams(population=4, iterations=3)
    bga = BgaParams(population=4, iterations=3)
    runs = [
        (optimize_pso(sphere, BOX, pso, 1, points, velocities),
         optimize_pso(sphere, BOX, pso, seed=1, init_positions=points, init_velocities=velocities)),
        (optimize_bga(sphere, BOX, bga, 1, points),
         optimize_bga(sphere, BOX, bga, seed=1, init_points=points)),
    ]
    starts = [points, decode_bits(encode_point(points, BOX, bga.bits_per_variable), BOX, bga.bits_per_variable)]
    for (by_position, by_keyword), start in zip(runs, starts):
        # the first generation is the hook's points
        assert by_position.trace[0] == min(sphere(x) for x in start)
        assert np.array_equal(by_position.trace, by_keyword.trace)
        assert np.array_equal(by_position.best_x, by_keyword.best_x)


# ----------------------------------------------------------------------
# update-rule arithmetic
# ----------------------------------------------------------------------

def test_inertia_weight_schedule():
    params = PsoParams(iterations=100, w_max=0.9, w_min=0.4)
    assert inertia_weight(params, 50) == pytest.approx(0.65, abs=1e-15)
    assert inertia_weight(params, 0) == params.w_max
    assert inertia_weight(params, params.iterations) == params.w_min


def test_single_particle_at_optimum_stays_put():
    params = PsoParams(population=1, iterations=30)
    result = optimize_pso(
        sphere, BOX, params, seed=1,
        init_positions=np.zeros((1, 4)), init_velocities=np.zeros((1, 4)),
    )
    assert result.best_f == 0.0
    assert np.all(result.trace == 0.0)
    assert np.array_equal(result.best_x, np.zeros(4))


def test_onlooker_probabilities_normalize():
    assert np.array_equal(selection_probabilities(np.array([1.0, 3.0])), np.array([0.25, 0.75]))
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = selection_probabilities(rng.uniform(0.01, 5.0, rng.integers(2, 40)))
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(p >= 0)


def test_fitness_transform():
    assert fitness_from_cost(0.0) == 1.0
    assert fitness_from_cost(3.0) == 0.25
    assert fitness_from_cost(-2.0) == 3.0


def test_colony_fitness_is_fitness_from_cost_per_cost():
    # run with -W error: a cost of -1 must not divide by zero
    rng = np.random.default_rng(0)
    costs = np.concatenate([[-1.0, -0.0, 0.0, -2.0, 3.0, 1e-300, -1e300], rng.normal(0.0, 10.0, 200)])
    expected = np.array([fitness_from_cost(c) for c in costs])
    assert colony_fitness(costs).tobytes() == expected.tobytes()


def test_scout_formula_endpoints():
    # x_j = x_min + rand*(x_max - x_min) at rand = 0 and rand = 1
    assert np.array_equal(BOX.lerp(np.zeros(4)), BOX.lower)
    assert np.array_equal(BOX.lerp(np.ones(4)), BOX.upper)


def test_decode_endpoints():
    nb = 16
    assert np.array_equal(decode_bits(np.zeros(4 * nb, dtype=bool), BOX, nb), BOX.lower)
    assert np.array_equal(decode_bits(np.ones(4 * nb, dtype=bool), BOX, nb), BOX.upper)


def test_encode_decode_roundtrip_within_grid_step():
    rng = np.random.default_rng(1)
    nb = 16
    step = BOX.width / (2**nb - 1)
    for _ in range(20):
        x = BOX.lerp(rng.random(4))
        back = decode_bits(encode_point(x, BOX, nb), BOX, nb)
        assert np.all(np.abs(back - x) <= step / 2 + 1e-12)


def test_codec_on_a_population_matches_row_by_row():
    rng = np.random.default_rng(2)
    nb = 12
    # out-of-box points clip to the faces; a zero-width dimension encodes to 0
    points = BOX.lerp(rng.uniform(-0.1, 1.1, (30, 4)))
    flat = hypercube_bounds(4)
    flat.upper[2] = flat.lower[2]
    for box in (BOX, flat):
        bits = encode_point(points, box, nb)
        assert bits.shape == (30, 4 * nb)
        assert np.array_equal(bits, np.array([encode_point(x, box, nb) for x in points]))
        decoded = decode_bits(bits, box, nb)
        assert decoded.shape == (30, 4)
        assert np.array_equal(decoded, np.array([decode_bits(b, box, nb) for b in bits]))


def test_identical_population_without_mutation_is_frozen():
    params = BgaParams(population=10, iterations=20, mutation_prob_per_bit=0.0)
    point = np.array([1.0, -2.0, 0.5, 3.0])
    result = optimize_bga(sphere, BOX, params, seed=3, init_points=np.tile(point, (10, 1)))
    # crossover of identical parents is identity, so the trace never moves
    assert np.all(result.trace == result.trace[0])
    step = BOX.width / (2**params.bits_per_variable - 1)
    assert np.all(np.abs(result.best_x - point) <= step / 2 + 1e-12)


@pytest.mark.parametrize("mutation_prob_per_bit", [None, 0.0, 1.0])
@pytest.mark.parametrize("crossover_prob", [0.0, 1.0, 0.9])
def test_breed_matches_the_per_pair_oracle(crossover_prob, mutation_prob_per_bit):
    # the oracle draws its parents with Generator.choice(p=...), so this
    # also checks that breed's own cdf lookup maps the same uniforms to
    # the same parents under the installed numpy
    meta = np.random.default_rng(9)
    seed = 0
    for n, length in [(2, 8), (3, 9), (7, 33), (50, 64)]:
        parents = meta.random((n, length)) < 0.5
        probs = rank_probabilities(meta.random(n))
        for points in sorted({1, 2, length // 2, length - 1}):
            params = BgaParams(
                crossover_points=points,
                crossover_prob=crossover_prob,
                mutation_prob_per_bit=mutation_prob_per_bit,
            )
            for count in (0, 1, 2, 5, 49):
                seed += 1
                rng, rng_oracle = np.random.default_rng(seed), np.random.default_rng(seed)
                children = breed(rng, parents, probs, count, params)
                assert children.dtype == bool and children.shape == (count, length)
                assert np.array_equal(children, breed_oracle(rng_oracle, parents, probs, count, params))
                assert np.array_equal(rng.random(4), rng_oracle.random(4))


def bit_generator_state(rng: np.random.Generator) -> str:
    """The whole state of the generator's bit generator, spare half included."""
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist, sort_keys=True)


def hold_spare_half(rng: np.random.Generator, value: int) -> None:
    """Make the bit generator hold ``value`` as its spare 32-bit half."""
    state = rng.bit_generator.state
    state["has_uint32"], state["uinteger"] = 1, value
    rng.bit_generator.state = state


@pytest.mark.parametrize("entry", ["no spare half", "a spare half", "a spare half Lemire rejects"])
@pytest.mark.parametrize("stream", ["philox", "pcg64"])
def test_breed_replays_the_per_pair_calls_and_leaves_their_state(stream, entry):
    # the oracle makes the per-pair calls; after each generation the
    # children and the whole bit-generator state must agree, so a spare
    # 32-bit half carried from one pair or one generation to the next is
    # checked too.  A held half of 0 is rejected by every bound but a power
    # of two, such as the first cut bound 62 at L = 64 and k = 2
    make = {"philox": lambda seed: substream(seed, 1), "pcg64": np.random.default_rng}[stream]
    meta = np.random.default_rng(17)
    cases = [(20, k) for k in range(1, 20)] + [(64, k) for k in (1, 2, 3, 62, 63)]
    for seed, (length, k) in enumerate(cases):
        parents = meta.random((50, length)) < 0.5
        probs = rank_probabilities(meta.random(50))
        params = BgaParams(crossover_points=k, crossover_prob=(0.9, 0.5, 1.0)[seed % 3])
        rng, rng_oracle = make(seed), make(seed)
        if entry != "no spare half":
            value = 0 if entry.endswith("rejects") else 0x9E3779B9
            for r in (rng, rng_oracle):
                hold_spare_half(r, value)
        for count in (1, 0, 49, 25, 3):
            children = breed(rng, parents, probs, count, params)
            assert np.array_equal(children, breed_oracle(rng_oracle, parents, probs, count, params))
            assert bit_generator_state(rng) == bit_generator_state(rng_oracle)


def test_a_lemire_rejection_leaves_the_stream_to_the_per_pair_calls():
    rng = substream(1, 1)
    hold_spare_half(rng, 0)
    before = bit_generator_state(rng)
    # the first pair crosses and draws its first cut, bound 62, from the held 0
    assert replayed_draws(rng, 25, 64, BgaParams(crossover_prob=1.0), 1 / 64) is None
    assert bit_generator_state(rng) == before


@pytest.mark.parametrize(
    "name, seed, best_f, evaluations",
    [
        ("pso", 1, "0x1.686ba883b5c6ap+10", 1550),
        ("pso", 2, "0x1.611f5f0f0310ap+10", 1550),
        ("abc", 1, "0x1.62a1a08f56c94p+10", 1526),
        ("abc", 2, "0x1.7d4f2915daf96p+10", 1527),
        ("bga", 1, "0x1.8663d327e0e94p+10", 1550),
        ("bga", 2, "0x1.5cfef296dca0ap+10", 1550),
        ("hgapso", 1, "0x1.58ac7b305fdfbp+10", 1550),
        ("hgapso", 2, "0x1.586de1aa89f5cp+10", 1550),
    ],
)
def test_short_breeding_runs_are_pinned(name, seed, best_f, evaluations):
    # bit-exact under numpy's Generator as of 2.4; a numpy whose draws
    # differ moves these values, and so would any change of draw order or
    # of the order in which a run records its values
    optimize, params = {
        "pso": (optimize_pso, PsoParams(iterations=30)),
        "abc": (optimize_abc, AbcParams(iterations=30)),
        "bga": (optimize_bga, BgaParams(iterations=30)),
        "hgapso": (optimize_hgapso, HgapsoParams(iterations=30)),
    }[name]
    spec = ObjectiveSpec()
    result = optimize(make_objective(MechanismConfig(), spec), spec.bounds, params, seed)
    assert (result.best_f.hex(), result.evaluations) == (best_f, evaluations)


def test_elite_count_rounding():
    assert elite_count(0.5, 2) == 1
    assert elite_count(0.5, 50) == 25
    assert elite_count(0.01, 50) == 1
    assert elite_count(1.0, 50) == 50


@pytest.mark.parametrize("name", ["bga", "hgapso"])
def test_crossover_points_are_checked_against_the_chromosome(name):
    # 16 bits x 4 variables leave 63 cut positions
    bga = BgaParams(population=8, iterations=2, crossover_points=70)
    fn, params = {
        "bga": (optimize_bga, bga),
        "hgapso": (optimize_hgapso, HgapsoParams(population=8, iterations=2, bga=bga)),
    }[name]
    message = r"crossover_points must be <= chromosome length - 1 \(63\), got 70"
    with pytest.raises(ValueError, match=message):
        fn(sphere, BOX, params, seed=1)


@pytest.mark.parametrize("name", ["pso", "abc", "bga", "hgapso"])
def test_negative_seed_is_rejected(name):
    fn, params = FAST[name]
    with pytest.raises(ValueError, match=r"^seed must be >= 0 \(got -1\)$"):
        fn(sphere, BOX, params, seed=-1)


def test_tiny_hybrid_population_runs():
    params = HgapsoParams(population=2, iterations=30, breeding_ratio=0.5)
    result = optimize_hgapso(sphere, BOX, params, seed=2)
    assert result.evaluations == 2 * 31
    assert result.best_f <= 100.0


# ----------------------------------------------------------------------
# run-level invariants (all four algorithms)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(FAST))
def test_deterministic_per_seed(name):
    optimize, params = FAST[name]
    a = optimize(rastrigin, BOX, params, seed=11)
    b = optimize(rastrigin, BOX, params, seed=11)
    assert a.best_f == b.best_f
    assert np.array_equal(a.best_x, b.best_x)
    assert np.array_equal(a.trace, b.trace)
    assert a.evaluations == b.evaluations
    c = optimize(rastrigin, BOX, params, seed=12)
    assert not np.array_equal(a.best_x, c.best_x)


@pytest.mark.parametrize("name", sorted(FAST))
def test_monotone_trace_and_box_feasibility(name):
    optimize, params = FAST[name]
    result = optimize(rastrigin, BOX, params, seed=5)
    assert np.all(np.diff(result.trace) <= 0)
    assert result.trace[-1] == result.best_f
    assert BOX.contains(result.best_x)
    assert len(result.trace) == params.iterations + 1
    assert len(result.time_trace) == params.iterations
    assert np.all(np.diff(result.time_trace) >= 0)


def test_budget_accounting():
    pso = optimize_pso(sphere, BOX, PsoParams(population=20, iterations=40), seed=1)
    assert pso.evaluations == 20 * 41
    bga = optimize_bga(sphere, BOX, BgaParams(population=20, iterations=40), seed=1)
    assert bga.evaluations == 20 * 41
    hg = optimize_hgapso(sphere, BOX, HgapsoParams(population=20, iterations=40), seed=1)
    assert hg.evaluations == 20 * 41
    abc = optimize_abc(sphere, BOX, AbcParams(food_sources=10, iterations=40), seed=1)
    # SN initial + 2*SN per iteration + one extra per scout re-seed
    assert 10 * (1 + 2 * 40) <= abc.evaluations <= 10 * (1 + 3 * 40)


@pytest.mark.parametrize("name", sorted(FAST))
def test_non_finite_objective_aborts_with_diagnostic(name):
    optimize, params = FAST[name]

    def poisoned(x):
        return np.nan if x[0] > 0 else sphere(x)

    with pytest.raises(NonFiniteObjectiveError) as err:
        optimize(poisoned, BOX, params, seed=9)
    assert "nan" in str(err.value)
    assert err.value.point.shape == (4,)


def nan_everywhere(x):
    """A non-finite objective at module level, which a worker started by
    any start method unpickles by reference."""
    return np.nan


def test_a_non_finite_objective_error_pickles():
    err = pickle.loads(pickle.dumps(NonFiniteObjectiveError(np.array([1.0, -2.0, 0.5, 3.0]), np.inf)))
    assert str(err) == "objective returned non-finite value inf at point [1.0, -2.0, 0.5, 3.0]"
    assert err.point.tolist() == [1.0, -2.0, 0.5, 3.0]
    assert err.value == np.inf


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_a_non_finite_objective_error_crosses_back_from_a_worker(method):
    # the error the run raises, not a broken pool
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context(method)) as pool:
        future = pool.submit(optimize_pso, nan_everywhere, BOX, PsoParams(population=4, iterations=2), 1)
        with pytest.raises(NonFiniteObjectiveError, match="non-finite value nan") as err:
            future.result()
    assert err.value.point.shape == (4,)


class CountedBatches:
    """An objective with a ``batch`` that counts its calls: the wrapped
    objective's own ``batch`` if it has one, else a row loop."""

    def __init__(self, fn):
        self.fn = fn
        self.batches = 0

    def __call__(self, x):
        return self.fn(x)

    def batch(self, X):
        self.batches += 1
        if hasattr(self.fn, "batch"):
            return self.fn.batch(X)
        return np.array([self.fn(x) for x in X])


def tracked_state(tracked: TrackedObjective):
    best_x = None if tracked.best_x is None else tracked.best_x.tolist()
    return tracked.evaluations, tracked.best_f, best_x


def test_tracked_batch_matches_the_row_loop():
    rng = np.random.default_rng(6)
    batched = TrackedObjective(sphere)
    looped = TrackedObjective(sphere)
    counted = CountedBatches(sphere)
    for _ in range(5):
        X = np.round(rng.uniform(-2.0, 2.0, (9, 4)))  # rounded: ties in value
        assert np.array_equal(batched.record(X, score(counted, X)), [looped(x) for x in X])
        assert tracked_state(batched) == tracked_state(looped)
    assert counted.batches == 5


def test_tracked_batch_names_the_same_non_finite_row():
    def poisoned(x):
        return np.nan if x[0] > 1.5 else sphere(x)

    X = np.linspace(-2.0, 2.0, 40).reshape(10, 4)
    errors, states = [], []
    batched, looped = TrackedObjective(poisoned), TrackedObjective(poisoned)
    for tracked, record in (
        (batched, lambda: batched.record(X, score(CountedBatches(poisoned), X))),
        (looped, lambda: [looped(x) for x in X]),
    ):
        with pytest.raises(NonFiniteObjectiveError) as err:
            record()
        errors.append((str(err.value), err.value.point.tolist()))
        states.append(tracked_state(tracked))
    assert errors[0] == errors[1]
    assert states[0] == states[1]
    assert states[0][0] == 9  # rows 0..8 evaluated before the poisoned row 9


@pytest.mark.parametrize("name", ["pso", "abc", "bga", "hgapso"])
def test_batched_objective_gives_the_scalar_run(name):
    optimize, params = FAST[name]
    spec = ObjectiveSpec()
    objective = make_objective(MechanismConfig(), spec)
    counted = CountedBatches(objective)
    batched = optimize(counted, spec.bounds, params, seed=7)
    scalar = optimize(lambda x: objective(x), spec.bounds, params, seed=7)
    # one call per generation, and for ABC one per iteration (its scouts,
    # and moves whose candidate differs from the guess, score one by one)
    assert counted.batches == params.iterations + 1
    assert batched.best_f == scalar.best_f
    assert np.array_equal(batched.best_x, scalar.best_x)
    assert np.array_equal(batched.trace, scalar.trace)
    assert batched.evaluations == scalar.evaluations


@pytest.mark.parametrize("problem", ["sphere", "default"])
def test_abc_is_the_sequential_colony(problem):
    if problem == "sphere":
        objective, bounds = sphere, BOX
    else:
        spec = ObjectiveSpec()
        objective, bounds = make_objective(MechanismConfig(), spec), spec.bounds
    params = AbcParams(food_sources=6, iterations=40, limit=3)  # scouts fire
    for seed in (1, 2, 3):
        result = optimize_abc(objective, bounds, params, seed)
        oracle = abc_oracle(objective, bounds.lower, bounds.upper, params, seed)
        assert result.best_f == oracle["best_f"]
        assert np.array_equal(result.best_x, oracle["best_x"])
        assert np.array_equal(result.trace, oracle["trace"])
        assert result.evaluations == oracle["evaluations"] > 6 * (1 + 2 * 40)


class AskedBatches(CountedBatches):
    """CountedBatches that also keeps a copy of each population it scores."""

    def __init__(self, fn):
        super().__init__(fn)
        self.asked = []

    def batch(self, X):
        self.asked.append(np.array(X))
        return super().batch(X)


@pytest.mark.parametrize("problem", ["sphere", "default"])
def test_abc_records_the_sequential_colonys_points(problem, monkeypatch):
    if problem == "sphere":
        # off the optimum, employed moves often succeed, so many onlooker
        # candidates guessed before the employed walk go stale
        objective, bounds = sphere, Bounds(np.ones(4), np.full(4, 2.0))
    else:
        spec = ObjectiveSpec()
        objective, bounds = make_objective(MechanismConfig(), spec), spec.bounds
    records = []
    record = TrackedObjective.record

    def capture(self, X, values):
        records.append(np.array(X))
        return record(self, X, values)

    monkeypatch.setattr(TrackedObjective, "record", capture)
    params = AbcParams(food_sources=6, iterations=40, limit=3)  # scouts fire
    for seed in (1, 2, 3):
        records.clear()
        asked = AskedBatches(objective)
        optimize_abc(asked, bounds, params, seed)
        scored = []
        abc_oracle(lambda x: scored.append(np.array(x)) or objective(x), bounds.lower, bounds.upper, params, seed)
        assert np.array_equal(np.concatenate(records), scored)
        # the onlooker records against the guesses asked for them
        phases = [X for X in records if len(X) == params.food_sources]
        guesses = [X[params.food_sources:] for X in asked.asked[1:]]
        stale = sum((X != G).any(axis=1).sum() for X, G in zip(phases[2::2], guesses, strict=True))
        assert stale >= len(guesses) * params.food_sources // 10


class ScalarNan:
    """sphere in batches, and nan from the scalar call: in an ABC run
    without scouts, only a move whose candidate differs from its guess
    sees the nan."""

    def __init__(self):
        self.points = []

    def __call__(self, x):
        self.points.append(np.array(x))
        return np.nan

    def batch(self, X):
        return np.array([sphere(x) for x in X])


def test_abc_names_the_non_finite_value_of_a_stale_move():
    objective = ScalarNan()
    params = AbcParams(food_sources=6, iterations=5)  # limit 100: no scout
    with pytest.raises(NonFiniteObjectiveError) as err:
        optimize_abc(objective, BOX, params, seed=1)
    # the walk stops at the first non-finite value, as the sequential one does
    (first,) = objective.points
    assert err.value.point.tolist() == first.tolist()
    assert np.isnan(err.value.value)

    def poisoned(x):
        return np.nan if np.array_equal(x, first) else sphere(x)

    # the sequential colony meets the nan at the same point
    with pytest.raises(FloatingPointError) as sequential:
        abc_oracle(poisoned, BOX.lower, BOX.upper, params, seed=1)
    assert sequential.value.args[0].tolist() == first.tolist()


# ----------------------------------------------------------------------
# lockstep: several seeded runs scored in one batch per round
# ----------------------------------------------------------------------

def run_cell(objective, name, bounds, params, seeds):
    steps = STEPS[name]
    return lockstep(objective, [lambda tracked, s=s: steps(tracked, bounds, params, s) for s in seeds])


@pytest.mark.parametrize("name", sorted(FAST))
def test_lockstep_cell_gives_the_single_runs(name):
    optimize, params = FAST[name]
    spec = ObjectiveSpec()
    objective = CountedBatches(make_objective(MechanismConfig(), spec))
    cell = run_cell(objective, name, spec.bounds, params, (1, 2, 3))
    # one batch per round for the whole cell
    assert objective.batches == params.iterations + 1
    for seed, together in zip((1, 2, 3), cell):
        alone = optimize(objective.fn, spec.bounds, params, seed)
        assert together.best_f == alone.best_f
        assert np.array_equal(together.best_x, alone.best_x)
        assert np.array_equal(together.trace, alone.trace)
        assert together.evaluations == alone.evaluations


def test_lockstep_mixing_the_algorithms_gives_the_single_runs():
    spec = ObjectiveSpec()
    objective = CountedBatches(make_objective(MechanismConfig(), spec))
    runs = [
        (name, dataclasses.replace(FAST[name][1], iterations=budget), seed)
        for name in sorted(FAST)
        for budget, seed in ((10, 1), (20, 2))
    ]
    together = lockstep(
        objective, [lambda tracked, r=r: STEPS[r[0]](tracked, spec.bounds, *r[1:]) for r in runs]
    )
    # one batch per round for every run: as many rounds as the longest
    # run asks for (one per iteration, ABC too)
    assert objective.batches == 20 + 1
    for (name, params, seed), result in zip(runs, together):
        alone = FAST[name][0](objective.fn, spec.bounds, params, seed)
        assert result.best_f == alone.best_f
        assert np.array_equal(result.best_x, alone.best_x)
        assert np.array_equal(result.trace, alone.trace)
        assert result.evaluations == alone.evaluations


POISON = 99.0  # outside every box these tests search


def poisoned_run(tracked):
    """A run whose second population holds a point the objective fails on."""
    X = np.zeros((3, 4))
    tracked.record(X, (yield X))
    X[1, 0] = POISON
    tracked.record(X, (yield X))


class Poisoned(CountedBatches):
    """sphere, with ``value`` at the poison point (an exception is raised)."""

    def __init__(self, value):
        super().__init__(sphere)
        self.value = value

    def batch(self, X):
        values = super().batch(X)
        if np.any(X[:, 0] == POISON):
            if isinstance(self.value, Exception):
                raise self.value
            values[X[:, 0] == POISON] = self.value
        return values


@pytest.mark.parametrize("value", [np.nan, np.inf, ValueError("bad point")])
def test_one_failing_run_leaves_the_others_as_alone(value):
    optimize, params = FAST["pso"]
    steps = STEPS["pso"]
    objective = Poisoned(value)
    runs = [lambda tracked, s=s: steps(tracked, BOX, params, s) for s in (1, 3)]
    first, failed, third = lockstep(objective, [runs[0], poisoned_run, runs[1]])
    if isinstance(value, Exception):
        assert failed is value
    else:
        assert isinstance(failed, NonFiniteObjectiveError)
        assert failed.point.tolist() == [POISON, 0.0, 0.0, 0.0]
    for seed, together in ((1, first), (3, third)):
        alone = optimize(sphere, BOX, params, seed)
        assert together.best_f == alone.best_f
        assert np.array_equal(together.best_x, alone.best_x)
        assert np.array_equal(together.trace, alone.trace)
        assert together.evaluations == alone.evaluations


@pytest.mark.parametrize("name", sorted(FAST))
def test_lockstep_time_adds_up_to_the_cell(name):
    _, params = FAST[name]
    spec = ObjectiveSpec()
    objective = make_objective(MechanismConfig(), spec)
    start = time.perf_counter()
    cell = run_cell(objective, name, spec.bounds, params, (1, 2, 3))
    wall = time.perf_counter() - start
    assert sum(r.wall_time for r in cell) == pytest.approx(wall, rel=0.05)
    for result in cell:
        assert len(result.time_trace) == params.iterations
        assert np.all(np.diff(result.time_trace) >= 0)
        assert 0 < result.time_trace[-1] <= result.wall_time


def bare_run(tracked):
    """A run with no bookkeeping of its own: three asks, each recorded."""
    for value in (3.0, 1.0, 2.0):
        X = np.full((2, 4), value)
        tracked.record(X, (yield X))


def test_lockstep_keeps_the_record_of_a_bare_run():
    (result,) = lockstep(sphere, [bare_run])
    assert result.trace.tolist() == [36.0, 4.0, 4.0]
    assert result.best_x.tolist() == [1.0] * 4
    assert result.evaluations == 6
    assert len(result.time_trace) == 2
    assert result.wall_time == result.time_trace[-1]


@pytest.mark.parametrize("name", sorted(FAST))
def test_a_runs_wall_time_is_its_last_checkpoint(name):
    optimize, params = FAST[name]
    result = optimize(sphere, BOX, params, 1)
    assert len(result.trace) == params.iterations + 1
    assert result.wall_time == result.time_trace[-1]


@pytest.mark.parametrize("name", list(STEPS))
def test_exactly_the_budget_free_runs_are_the_start_of_longer_ones(name):
    spec = ObjectiveSpec()
    objective = make_objective(MechanismConfig(), spec)
    short, long = (
        single_run(STEPS[name], objective, spec.bounds, PARAMS[name](iterations=b), 7) for b in (15, 30)
    )
    start = long.first(15)
    same = (
        np.array_equal(start.trace, short.trace)
        and np.array_equal(start.best_x, short.best_x)
        and start.best_f == short.best_f
        and start.evaluations == short.evaluations
        and np.array_equal(start.best_x_trace, short.best_x_trace)
        and np.array_equal(start.evaluation_trace, short.evaluation_trace)
    )
    # PSO and HGAPSO anneal their inertia over the budget, so they differ
    assert same == (name in BUDGET_FREE)


def test_first_reads_the_record_at_an_iteration():
    result = optimize_abc(sphere, BOX, AbcParams(food_sources=10, iterations=40), 1)
    assert result.best_x_trace.shape == (41, 4)
    assert result.evaluation_trace[-1] == result.evaluations
    assert np.array_equal(result.best_x_trace[-1], result.best_x)
    part = result.first(10)
    assert part.trace.tolist() == result.trace[:11].tolist()
    assert part.best_f == result.trace[10]
    assert part.evaluations == result.evaluation_trace[10]
    assert part.time_trace.tolist() == result.time_trace[:10].tolist()
    assert part.wall_time == result.time_trace[9]
    whole = result.first(40)
    for f in dataclasses.fields(RunResult):
        assert np.array_equal(getattr(whole, f.name), getattr(result, f.name))
    for iterations in (0, 41):
        with pytest.raises(ValueError, match=rf"^iterations must be in \[1, 40\] \(got {iterations}\)$"):
            result.first(iterations)


def test_phase_draws_match_the_per_move_calls():
    def per_move(rng, count, d, partners):
        draws = [(rng.integers(d), rng.integers(partners), rng.uniform(-1.0, 1.0)) for _ in range(count)]
        return [np.array([draw[c] for draw in draws]) for c in range(3)]

    # (d, partners): the ABC shapes; bounds of 1, which draw nothing; and
    # bounds whose rejection zone is half of all draws, which rewind
    for d, partners in [(4, 24), (4, 49), (1, 5), (3, 1), (7, 2**31 + 1), (2**31 + 3, 13)]:
        for seed in range(20):
            for spare_half_word in (False, True):
                rngs = substream(seed, 1), substream(seed, 1)
                if spare_half_word:
                    for rng in rngs:
                        rng.integers(5)
                got = move_draws(rngs[0], 25, d, partners)
                want = per_move(rngs[1], 25, d, partners)
                for a, b in zip(got, want):
                    assert np.array_equal(a, b)
                assert np.array_equal(rngs[0].random(4), rngs[1].random(4))


def test_param_validation():
    with pytest.raises(ValueError, match="population"):
        PsoParams(population=0)
    with pytest.raises(ValueError, match="w_max"):
        PsoParams(w_max=0.1, w_min=0.5)
    with pytest.raises(ValueError, match="food_sources"):
        AbcParams(food_sources=1)
    with pytest.raises(ValueError, match="limit"):
        AbcParams(limit=0)
    with pytest.raises(ValueError, match="even"):
        BgaParams(population=7)
    with pytest.raises(ValueError, match="bits_per_variable"):
        BgaParams(bits_per_variable=4)
    with pytest.raises(ValueError, match=r"elitism must be < population \(got 10 >= 4\)"):
        BgaParams(population=4, iterations=20, elitism=10)
    with pytest.raises(ValueError, match=r"elitism must be < population \(got 4 >= 4\)"):
        BgaParams(population=4, elitism=4)
    with pytest.raises(ValueError, match="breeding_ratio"):
        HgapsoParams(breeding_ratio=0.0)
    with pytest.raises(ValueError, match="breeding_ratio"):
        HgapsoParams(breeding_ratio=1.5)


@pytest.mark.parametrize(
    "factory, field",
    [
        (PsoParams, "c1"),
        (PsoParams, "w_max"),
        (PsoParams, "v_max_fraction"),
        (AbcParams, "limit"),
        (BgaParams, "crossover_prob"),
        (BgaParams, "mutation_prob_per_bit"),
        (HgapsoParams, "breeding_ratio"),
    ],
)
def test_params_reject_non_finite_values(factory, field):
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            factory(**{field: bad})


@pytest.mark.parametrize(
    "factory, field, value",
    [
        (BenchSettings, "iteration_budgets", (2.5, 10)),
        (BenchSettings, "repeats", 2.5),
        (BenchSettings, "base_seed", "1"),
        (ObjectiveSpec, "n_samples", 64.5),
        (PsoParams, "population", 2.5),
        (AbcParams, "limit", 3.7),
        (BgaParams, "bits_per_variable", 16.5),
        (HgapsoParams, "iterations", 1.25),
    ],
)
def test_params_reject_non_integer_values(factory, field, value):
    kind = "integers" if field == "iteration_budgets" else "an integer"
    with pytest.raises(ValueError, match=re.escape(f"{field} must be {kind} (got {value!r})")):
        factory(**{field: value})


def test_integral_values_are_stored_as_ints():
    settings = BenchSettings(iteration_budgets=[2e2, np.int64(300)], repeats=2.0)
    assert settings.iteration_budgets == (200, 300) and settings.repeats == 2
    assert all(type(b) is int for b in (*settings.iteration_budgets, settings.repeats))
    params = AbcParams(limit=np.float64(7.0))
    assert params.limit == 7 and type(params.limit) is int


# ----------------------------------------------------------------------
# sphere sanity (small spot checks; the full 10-seed protocol lives in
# the acceptance suite)
# ----------------------------------------------------------------------

def test_pso_and_abc_solve_the_sphere():
    pso = optimize_pso(sphere, BOX, PsoParams(), seed=1)
    assert pso.best_f <= 1e-4
    abc = optimize_abc(sphere, BOX, AbcParams(), seed=1)
    assert abc.best_f <= 1e-4


def test_hybrid_with_full_breeding_ratio_behaves_like_pso():
    pso = optimize_pso(sphere, BOX, PsoParams(population=30, iterations=150), seed=4)
    hg = optimize_hgapso(
        sphere, BOX, HgapsoParams(population=30, iterations=150, breeding_ratio=1.0), seed=4
    )
    # same dynamics, different draw order: qualitative agreement only,
    # floored at the sphere tolerance where both sit in numerical noise
    assert hg.best_f <= max(10.0 * pso.best_f, 1e-4)
