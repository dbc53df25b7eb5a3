"""JSON round trips, determinism, and schema rejection."""

import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ncscatter import lifting, serialize
from ncscatter.cli import main
from ncscatter.ncsystem import Trajectory, simulate
from ncscatter.transfer import NCSeries, build_colligation, random_series, transfer_series
from ncscatter.words import level_start


def label(obj):
    return serialize.dump_text(obj)


def through_text(obj):
    """The parsed JSON of a file written from ``obj``."""
    return serialize.load_text(serialize.dump_text(obj))


class TestMatrix:
    def test_roundtrip(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        back = serialize.matrix_from_json(serialize.matrix_to_json(m))
        assert np.array_equal(back, m)

    def test_empty_dimensions(self):
        m = np.zeros((0, 0), dtype=np.complex128)
        obj = serialize.matrix_to_json(m)
        assert obj == {"rows": 0, "cols": 0, "data": []}
        assert serialize.matrix_from_json(obj).shape == (0, 0)

    def test_dump_is_byte_stable(self):
        rng = np.random.default_rng(9)
        m = rng.normal(size=(2, 2)) / 3.0
        first = label(serialize.matrix_to_json(m))
        again = label(
            serialize.matrix_to_json(
                serialize.matrix_from_json(serialize.load_text(first))
            )
        )
        assert first == again

    @pytest.mark.parametrize(
        "obj",
        [
            {"rows": 2, "cols": 2},
            {"rows": 2, "cols": 2, "data": [[0.0, 0.0]]},
            {"rows": -1, "cols": 1, "data": []},
            {"rows": 1, "cols": 1, "data": [[0.0]]},
            {"rows": 1, "cols": 1, "data": [[0.0, True]]},
            {"rows": True, "cols": 1, "data": [[0.0, 0.0]]},
        ],
    )
    def test_malformed_rejected(self, obj):
        with pytest.raises(serialize.SchemaError):
            serialize.matrix_from_json(obj)

    def test_nonfinite_rejected_on_load(self):
        with pytest.raises(serialize.SchemaError):
            serialize.load_text('{"x": Infinity}')
        with pytest.raises(serialize.SchemaError):
            serialize.load_text('{"x": NaN}')

    def test_deep_nesting_rejected_on_load(self):
        with pytest.raises(serialize.SchemaError, match="^invalid JSON: "):
            serialize.load_text("[" * 100000 + "]" * 100000)

    def test_nonfinite_rejected_on_dump(self):
        # a plain tree is json.dumps's, so its error is too; a series
        # names the float at its path
        for obj in ({"x": float("inf")}, {"data": [[0.0, 1.0], [float("nan"), 2.0]]}):
            with pytest.raises(ValueError, match="^Out of range float values") as got:
                serialize.dump_text(obj)
            assert not isinstance(got.value, serialize.SchemaError)
        series = random_series(2, 1, 2, 2, seed=1)
        series.coeffs.view(np.float64)[5, 1, 1] = float("-inf")
        with pytest.raises(
            serialize.SchemaError, match=r"at coeffs\[5\]\.matrix\.data\[1\]\[1\] is"
        ):
            serialize.dump_text(serialize.series_to_json(series))


FLOATS = st.floats(allow_nan=False, allow_infinity=False)
SCALARS = st.one_of(FLOATS, st.integers(-(2**70), 2**70))
ODD_SCALARS = st.one_of(
    st.booleans(),
    st.text(max_size=2),
    st.none(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 10**400, np.float64(0.5)]),
)
ENTRIES = st.one_of(
    st.lists(SCALARS, min_size=2, max_size=2),
    st.lists(st.one_of(SCALARS, ODD_SCALARS), min_size=0, max_size=3),
    ODD_SCALARS,
    st.dictionaries(st.text(max_size=1), SCALARS, max_size=1),
)


def outcome(load, data):
    try:
        return load({"rows": 1, "cols": len(data), "data": data}).tobytes()
    except (serialize.SchemaError, OverflowError, TypeError) as exc:
        return type(exc), str(exc)


class TestMatrixLoad:
    # the entry-by-entry loader is the oracle for the one-pass loader

    @staticmethod
    def slow(obj):
        return serialize._checked_pairs(obj["data"], "matrix").reshape((1, -1))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(ENTRIES, max_size=6))
    def test_same_values_and_messages_as_the_loop(self, data):
        assert outcome(serialize.matrix_from_json, data) == outcome(self.slow, data)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(FLOATS, min_size=2, max_size=2), min_size=1, max_size=8))
    def test_float_pairs_take_the_one_pass(self, data):
        fast = serialize._float_pairs(data)
        assert fast is not None
        assert fast.tobytes() == self.slow({"data": data}).tobytes()

    @pytest.mark.parametrize(
        "entry, message",
        [
            ([0.0, True], "entry 1 is not an [re, im] pair"),
            (["1", 0.0], "entry 1 is not an [re, im] pair"),
            ([0.0], "entry 1 is not an [re, im] pair"),
            (0.0, "entry 1 is not an [re, im] pair"),
            ([float("nan"), 0.0], "entry 1 is not finite"),
            ([0.0, -float("inf")], "entry 1 is not finite"),
        ],
    )
    def test_first_bad_entry_named(self, entry, message):
        data = [[1, 2.5], entry, [None, None]]
        obj = {"rows": 3, "cols": 1, "data": data}
        with pytest.raises(serialize.SchemaError) as fast:
            serialize.matrix_from_json(obj, "m")
        with pytest.raises(serialize.SchemaError) as slow:
            serialize._checked_pairs(data, "m")
        assert str(fast.value) == str(slow.value) == f"m: {message}"

    def test_big_integers(self):
        # an integer that fits a float loads as that float; a larger one,
        # in either part, is not finite
        got = serialize.matrix_from_json({"rows": 1, "cols": 1, "data": [[2**64, -(2**64)]]})
        assert got[0, 0] == complex(1.8446744073709552e19, -1.8446744073709552e19)
        for entry in ([10**400, 0.5], [0.5, -(2**1024)]):
            obj = {"rows": 1, "cols": 1, "data": [entry]}
            with pytest.raises(serialize.SchemaError) as exc:
                serialize.matrix_from_json(obj, "instance.C[0]")
            assert str(exc.value) == "instance.C[0]: entry 0 is not finite"


class TestWords:
    def test_valid(self):
        assert serialize.word_from_json([1, 2, 1], 2) == (1, 2, 1)
        assert serialize.word_from_json([], 2) == ()

    @pytest.mark.parametrize("obj", [[0], [3], [1, "a"], "12", [True]])
    def test_invalid(self, obj):
        with pytest.raises(serialize.SchemaError):
            serialize.word_from_json(obj, 2)


class TestInstance:
    def test_roundtrip_reassembles(self, plain_instance):
        obj = serialize.instance_to_json(plain_instance)
        back = serialize.instance_from_json(obj)
        for got, want in zip(back.c.ops, plain_instance.c.ops):
            assert np.array_equal(got, want)
        for got, want in zip(back.b, plain_instance.b):
            assert np.array_equal(got, want)
        assert back.seed == plain_instance.seed
        # derived data is recomputed, not copied: same defining blocks
        # must give the same defect ranks
        assert back.rank_c == plain_instance.rank_c
        assert back.rank_e == plain_instance.rank_e

    def test_roundtrip_no_corner(self, no_corner_instance):
        obj = serialize.instance_to_json(no_corner_instance)
        back = serialize.instance_from_json(obj)
        assert back.dim_a == 0
        assert back.d == no_corner_instance.d

    def test_dump_is_byte_stable(self, hand_instance):
        first = label(serialize.instance_to_json(hand_instance))
        back = serialize.instance_from_json(serialize.load_text(first))
        assert label(serialize.instance_to_json(back)) == first

    def test_strict_load_rejects_non_coisometric(self):
        bad = {
            "d": 2,
            "dimC": 1,
            "dimA": 0,
            "C": [serialize.matrix_to_json(np.eye(1))] * 2,
            "A": [serialize.matrix_to_json(np.zeros((0, 0)))] * 2,
            "B": [serialize.matrix_to_json(np.zeros((0, 1)))] * 2,
        }
        with pytest.raises(lifting.NotCoisometricC):
            serialize.instance_from_json(bad)
        built = serialize.instance_from_json(bad, strict=False)
        assert lifting.lifting_violations(built)["c_coisometry"] > 0.5

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda o: o.pop("C"),
            lambda o: o.update(d=0),
            lambda o: o.update(seed="x"),
            lambda o: o["B"].pop(),
            lambda o: o.update(dimA=3),
        ],
    )
    def test_malformed_rejected(self, hand_instance, mutate):
        obj = serialize.instance_to_json(hand_instance)
        mutate(obj)
        with pytest.raises(serialize.SchemaError):
            serialize.instance_from_json(obj)


class TestSeries:
    def test_roundtrip(self, plain_instance):
        theta = transfer_series(build_colligation(plain_instance), 3)
        obj = through_text(serialize.series_to_json(theta))
        back = serialize.series_from_json(obj, plain_instance.d)
        assert back.depth == theta.depth
        assert list(back) == list(theta)
        assert np.array_equal(back.coeffs, theta.coeffs)

    def test_words_sorted_graded_lex(self, plain_instance):
        theta = transfer_series(build_colligation(plain_instance), 2)
        obj = through_text(serialize.series_to_json(theta))
        words = [tuple(e["word"]) for e in obj["coeffs"]]
        assert words == sorted(words, key=lambda w: (len(w), w))
        assert len(words) == 1 + 2 + 4

    def test_omitted_words_load_as_zeros(self, tmp_path, plain_instance):
        # a file may list only some words; the rest load as exact zeros
        # and simulate reads the file as the same signal written densely
        inst_path = tmp_path / "inst.json"
        serialize.save(inst_path, serialize.instance_to_json(plain_instance))
        signal = random_series(plain_instance.rank_e, 1, 2, 2, seed=4)
        dense = through_text(serialize.series_to_json(signal))
        for entry in dense["coeffs"][::2]:
            m = entry["matrix"]
            m["data"] = [[0.0, 0.0]] * len(m["data"])
        sparse = dict(dense, coeffs=dense["coeffs"][1::2])
        back = serialize.series_from_json(sparse, 2)
        for k, w in enumerate(back):
            if k % 2:
                assert np.array_equal(back[w], signal[w])
            else:
                assert back[w].view(float).tolist() == [[0.0, 0.0]] * back.out_dim
        texts = []
        for name, obj in (("dense", dense), ("sparse", sparse)):
            sig, out = tmp_path / f"{name}.json", tmp_path / f"{name}-traj.json"
            serialize.save(sig, obj)
            argv = ["simulate", "--input", str(inst_path), "--signal", str(sig), "-o", str(out)]
            assert main(argv) == 0
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda o: o["coeffs"].append(o["coeffs"][0]),
            lambda o: o["coeffs"][0].update(word=[1] * 9),
            lambda o: o.update(outDim=5),
        ],
    )
    def test_malformed_rejected(self, mutate):
        obj = through_text(serialize.series_to_json(random_series(2, 1, 2, 2, seed=1)))
        mutate(obj)
        with pytest.raises(serialize.SchemaError):
            serialize.series_from_json(obj, 2)

    @pytest.mark.parametrize("key", ["outDim", "inDim", "depth"])
    def test_negative_sizes_rejected(self, key):
        obj = {"outDim": 1, "inDim": 1, "depth": 2, "coeffs": [], key: -1}
        with pytest.raises(serialize.SchemaError, match=repr(key)):
            serialize.series_from_json(obj, 2)

    def test_unallocatable_depth_rejected(self):
        # 2**71 - 1 words exceed numpy's largest dimension
        obj = {"outDim": 1, "inDim": 1, "depth": 70, "coeffs": []}
        with pytest.raises(serialize.SchemaError, match="'depth'"):
            serialize.series_from_json(obj, 2)


class TestTrajectory:
    def test_roundtrip(self, plain_instance):
        coll = build_colligation(plain_instance)
        traj = simulate(coll, random_series(coll.in_dim, 1, coll.d, 2, seed=8))
        obj = through_text(serialize.trajectory_to_json(traj))
        back = serialize.trajectory_from_json(obj, plain_instance.d)
        assert isinstance(back, Trajectory)
        assert back.depth == traj.depth
        for name in ("u", "x", "y"):
            got, want = getattr(back, name), getattr(traj, name)
            assert set(got) == set(want)
            for w in want:
                assert np.array_equal(got[w], want[w])

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda o: o.update(depth=-3),
            lambda o: o["state"].append(o["state"][0]),
            lambda o: o["output"][0].update(word=[1] * 3),
            lambda o: o["input"][1].update(matrix=serialize.matrix_to_json(np.zeros((1, 1)))),
            lambda o: o["input"].clear(),
        ],
    )
    def test_malformed_rejected(self, plain_instance, mutate):
        coll = build_colligation(plain_instance)
        traj = simulate(coll, random_series(coll.in_dim, 1, coll.d, 2, seed=8))
        obj = through_text(serialize.trajectory_to_json(traj))
        mutate(obj)
        with pytest.raises(serialize.SchemaError):
            serialize.trajectory_from_json(obj, plain_instance.d)

    def test_negative_depth_names_the_key(self):
        obj = {"depth": -3, "input": [], "state": [], "output": []}
        with pytest.raises(serialize.SchemaError, match="'depth'"):
            serialize.trajectory_from_json(obj, 2)


class TestReport:
    class Result:
        def __init__(self, name, violation, threshold):
            self.name = name
            self.max_violation = violation
            self.threshold = threshold
            self.passed = violation <= threshold

    def test_layout(self):
        checks = [self.Result("alpha", 1e-12, 1e-10), self.Result("beta", 2.0, 1e-8)]
        obj = serialize.report_to_json(checks)
        assert obj["schemaVersion"] == 1
        assert obj["checks"][0] == {
            "check": "alpha",
            "maxViolation": 1e-12,
            "threshold": 1e-10,
            "pass": True,
        }
        assert obj["checks"][1]["pass"] is False


class TestFiles:
    def test_save_and_load(self, tmp_path, hand_instance):
        path = tmp_path / "inst.json"
        serialize.save(path, serialize.instance_to_json(hand_instance))
        back = serialize.instance_from_json(serialize.load(path))
        assert back.d == hand_instance.d
        assert path.read_text().endswith("\n")


def json_oracle(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def oracle_matrix(m) -> dict:
    """A matrix as a tree, entry by entry."""
    m = np.asarray(m, dtype=np.complex128)
    data = [[float(z.real), float(z.imag)] for z in m.ravel()]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def oracle_entries(series) -> list:
    """A series as the ``{"word", "matrix"}`` tree of every word, word by word."""
    return [
        {"word": list(w), "matrix": oracle_matrix(series[w])}
        for w in sorted(series, key=lambda w: (len(w), w))
    ]


def oracle_tree(obj):
    """``obj`` with every series value replaced by its entry tree."""
    return {k: oracle_entries(v) if isinstance(v, NCSeries) else v for k, v in obj.items()}


FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 0.0, 5e-324, 1e-310, 1e16, 1e-7, 1e22, 0.1, -2.5]
)
INTS = st.integers(-3, 3) | st.integers(-(10**40), 10**40)
TEXTS = st.text(max_size=6) | st.sampled_from(['"', "\\", "\x00\n\t\x1f", "é", "\u2603", "\U0001f600"])
SCALARS = st.none() | st.booleans() | INTS | FLOATS | TEXTS
LOOSE = FLOATS | st.integers(-2, 2) | st.booleans()


def pairs(value=FLOATS, count=None):
    size = {} if count is None else {"min_size": count, "max_size": count}
    return st.lists(st.lists(value, min_size=2, max_size=2), **size)


def matrices(rows, cols):
    return st.fixed_dictionaries(
        {"rows": st.just(rows), "cols": st.just(cols), "data": pairs(count=rows * cols)}
    )


WORDS = st.lists(st.integers(1, 3), max_size=3)
SHAPES = st.tuples(st.integers(0, 2), st.integers(0, 2))
ENTRIES = SHAPES.flatmap(
    lambda s: st.lists(st.fixed_dictionaries({"word": WORDS, "matrix": matrices(*s)}), max_size=4)
)
MIXED_ENTRIES = st.lists(
    SHAPES.flatmap(lambda s: st.fixed_dictionaries({"word": WORDS, "matrix": matrices(*s)})),
    max_size=4,
)
LOOSE_ENTRIES = st.lists(
    st.fixed_dictionaries(
        {
            "word": st.lists(st.integers(0, 3) | st.booleans() | FLOATS, max_size=3),
            "matrix": st.fixed_dictionaries(
                {
                    "rows": st.integers(0, 2) | st.booleans(),
                    "cols": st.integers(0, 2),
                    "data": st.lists(st.lists(LOOSE, min_size=1, max_size=3), max_size=4),
                }
            ),
        },
        optional={"extra": SCALARS},
    ),
    max_size=4,
)
# Look-alikes of the writer's fast paths, and the real thing.
LEAVES = (
    SCALARS
    | pairs()
    | pairs(LOOSE)
    | st.lists(INTS | st.booleans(), max_size=4)
    | ENTRIES
    | MIXED_ENTRIES
    | LOOSE_ENTRIES
)
TREES = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(TEXTS, children, max_size=4),
    max_leaves=12,
)


class TestWriter:
    """``dump_text`` renders the bytes of ``json.dumps`` with the same options."""

    @settings(max_examples=150, deadline=None)
    @given(obj=TREES)
    @example(obj=[[1, 2.0]])
    @example(obj={"coeffs": [{"word": [], "matrix": {"rows": 0, "cols": 0, "data": []}}]})
    @example(obj=[{"word": [1], "matrix": {"rows": 1, "cols": 1, "data": [[1.0, 2.0]]}},
                  {"word": [2], "matrix": {"rows": 1, "cols": 1, "data": [[1.0, 2.0], [3.0, 4.0]]}}])
    @example(obj=[{"word": [1], "matrix": {"rows": 1, "cols": 1, "data": [[1.0, 2.0]]}},
                  {"word": [2], "matrix": {"rows": 1, "cols": 2, "data": [[1.0, 2.0]]}}])
    @example(obj=[{"word": [True], "matrix": {"rows": 1, "cols": 1, "data": [[-0.0, 1e16]]}}])
    @example(obj=[{"word": [1], "matrix": {"rows": 1, "cols": 1, "data": [[1, 2.0]]}}])
    @example(obj=("tuple", [0.5, 1.5], {"": None}))
    def test_matches_json_dumps(self, obj):
        assert serialize.dump_text(obj) == json_oracle(obj)

    def test_program_trees(self, plain_instance):
        coll = build_colligation(plain_instance)
        traj = simulate(coll, random_series(coll.in_dim, 1, coll.d, 3, seed=2))
        for obj in (
            serialize.instance_to_json(plain_instance),
            serialize.series_to_json(transfer_series(coll, 3)),
            serialize.trajectory_to_json(traj),
        ):
            assert serialize.dump_text(obj) == json_oracle(oracle_tree(obj))

    def test_unsupported_values(self):
        with pytest.raises(TypeError):
            serialize.dump_text({"x": object()})

    def test_series_below_the_top_level_refused(self, plain_instance):
        # a document holds a series only as a top-level value
        values = transfer_series(build_colligation(plain_instance), 1)
        message = "^Object of type NCSeries is not JSON serializable$"
        for obj in ([values], {"x": [values]}, {"x": {"y": values}}, {"s": values, "x": [values]}):
            with pytest.raises(TypeError, match=message):
                serialize.dump_text(obj)

    def test_circular_list_raises_json_error(self):
        tree = [1.5]
        tree.append(tree)
        with pytest.raises(ValueError, match="^Circular reference detected$") as got:
            serialize.dump_text({"x": tree})
        assert not isinstance(got.value, serialize.SchemaError)

    def test_circular_dict_raises_json_error(self):
        # a non-finite float after the cycle in writing order is never reached
        tree = {"a": 1.5, "z": float("nan")}
        tree["b"] = tree
        with pytest.raises(ValueError, match="^Circular reference detected$") as got:
            serialize.dump_text(tree)
        assert not isinstance(got.value, serialize.SchemaError)

    def test_unplaced_value_error_propagates(self):
        # an int too long for str() is a ValueError of json.dumps, passed on
        with pytest.raises(ValueError, match="integer string conversion") as got:
            serialize.dump_text({"x": [1.5, 10**5000]})
        assert not isinstance(got.value, serialize.SchemaError)


# values at the edges of and inside the ranges where the float writer
# rewrites Ryu's layout
LAYOUT_BOUNDS = [
    1.2345e-05,
    9.999999999999999e-05,
    1e-4,
    1e-7,
    3e-9,
    1e-9,
    1e-100,
    9999999999999998.0,
    1.2345678901234568e17,
    1.7976931348623157e308,
    2.2250738585072014e-308,
]
SPECIAL = [-0.0, 0.0, 1e16, 1e-5, 5e-324, -1.5] + [
    sign * x for x in LAYOUT_BOUNDS for sign in (1.0, -1.0)
]
STACK_VALUES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(SPECIAL)


@st.composite
def series(draw, d=None, depth=None, cols=None):
    """A series of any shape up to d = 3, depth 3 and 2 x 2 coefficients,
    0-row and 0-column ones included."""
    d = draw(st.integers(1, 3)) if d is None else d
    depth = draw(st.integers(0, 3)) if depth is None else depth
    rows = draw(st.integers(0, 2))
    cols = draw(st.integers(0, 2)) if cols is None else cols
    shape = (level_start(d, depth + 1), rows, cols, 2)
    parts = draw(arrays(np.float64, shape, elements=STACK_VALUES))
    return NCSeries(d, depth, parts.view(np.complex128)[..., 0])


@st.composite
def trajectories(draw):
    d, depth = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    return Trajectory(*(draw(series(d, depth, cols=1)) for _ in range(3)))


def plant(values: NCSeries, where: int, value: float) -> str:
    """Put ``value`` at float ``where`` of the stack (modulo its size);
    the JSON path of that float below the series key."""
    flat = values.coeffs.reshape(-1).view(np.float64)
    where %= len(flat)
    flat[where] = value
    k, at = divmod(where, 2 * values.out_dim * values.in_dim)
    return f"[{k}].matrix.data[{at // 2}][{at % 2}]"


class TestSeriesWriter:
    """Series written from the stack against ``json.dumps`` of the per-word tree."""

    @settings(max_examples=150, deadline=None)
    @given(values=series())
    def test_series_match_the_tree(self, values):
        obj = serialize.series_to_json(values)
        assert serialize.dump_text(obj) == json_oracle(oracle_tree(obj))

    @settings(max_examples=100, deadline=None)
    @given(traj=trajectories())
    def test_trajectories_match_the_tree(self, traj):
        obj = serialize.trajectory_to_json(traj)
        assert serialize.dump_text(obj) == json_oracle(oracle_tree(obj))

    def test_word_texts_built_once_per_shape_and_call(self, monkeypatch):
        built = []

        def word_texts(d, depth):
            built.append((d, depth))
            return words(d, depth)

        words = serialize._word_texts
        monkeypatch.setattr(serialize, "_word_texts", word_texts)
        coll = build_colligation(lifting.generate(2, 2, 1, seed=0))
        traj = simulate(coll, random_series(coll.in_dim, 1, coll.d, 2, seed=3))
        obj = serialize.trajectory_to_json(traj)
        first = serialize.dump_text(obj)
        assert built == [(2, 2)]
        # the three series of one call share their texts; a new call builds them anew
        assert serialize.dump_text(obj) == first == json_oracle(oracle_tree(obj))
        assert built == [(2, 2)] * 2
        serialize.dump_text({"a": traj.u, "b": random_series(1, 1, 2, 3, seed=0)})
        assert built == [(2, 2)] * 3 + [(2, 3)]

    def test_keeps_no_series_alive(self):
        # with the collector off, a series the writer still referenced
        # after returning would outlive the caller's last reference
        values = random_series(2, 1, 2, 3, seed=0)
        gone = weakref.ref(values)
        gc.disable()
        try:
            serialize.dump_text({"coeffs": values})
            del values
            assert gone() is None
        finally:
            gc.enable()

    def test_special_values(self):
        # every special value as a real and as an imaginary part
        parts = np.array([[re, im] for re in SPECIAL for im in SPECIAL])
        values = NCSeries(1, 0, parts.view(np.complex128).reshape(1, -1, 1))
        obj = serialize.series_to_json(values)
        assert serialize.dump_text(obj) == json_oracle(oracle_tree(obj))

    def test_float_texts_are_repr(self):
        # random bit patterns reach every exponent, scaled normals fill
        # each decade between 1e-13 and 1e21 densely
        rng = np.random.default_rng(25)
        bits = rng.integers(0, 2**64, size=10**5, dtype=np.uint64).view(np.float64)
        scaled = [rng.standard_normal(1000) * 10.0**k for k in range(-12, 21)]
        for flat in [bits[np.isfinite(bits)], *scaled, np.zeros(0)]:
            want = [float.__repr__(x) for x in flat.tolist()]
            assert serialize._float_texts(flat) == want

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        key=st.sampled_from(["coeffs", "input", "state", "output"]),
        value=st.sampled_from([float("nan"), float("inf"), -float("inf")]),
        where=st.integers(0, 10**6),
    )
    def test_nonfinite_named_at_its_path(self, data, key, value, where):
        if key == "coeffs":
            values = data.draw(series())
            obj = serialize.series_to_json(values)
        else:
            traj = data.draw(trajectories())
            obj = serialize.trajectory_to_json(traj)
            values = {"input": traj.u, "state": traj.x, "output": traj.y}[key]
        assume(values.out_dim * values.in_dim)
        message = f"non-finite number at {key}{plant(values, where, value)} is not allowed"
        with pytest.raises(serialize.SchemaError) as got:
            serialize.dump_text(obj)
        assert str(got.value) == message
