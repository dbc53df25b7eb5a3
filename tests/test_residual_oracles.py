"""The blocked residuals of ``verify`` against their dense formulas.

``verify`` forms the intertwining and coisometry residuals of ``W``
one run of ``intertwiner.blocks`` columns at a time.  The dense formulas
they replace are kept here as oracles, and every value must equal
theirs bit for bit, NaN and errors included.
"""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import SWEEP_SHAPES, letter_product

from ncscatter import verify
from ncscatter.intertwiner import BLOCK, blocks, intertwiner_matrix
from ncscatter.lifting import Infeasible, RankClampBand, generate
from ncscatter.linalg import fold_rows, hermitian_norm, operator_norm


def dense_intertwining_norms(instance, depth, w_deep, w_flat):
    # oracle: both residuals of every letter formed whole, W V_j from the
    # stage block and the row table of the letter
    base, lift = instance.dilation_c, instance.dilation_e
    pairs = zip(
        zip(base.letters, base.matrix(depth - 1)), zip(lift.letters, lift.matrix(depth - 1))
    )
    for j, (v_base, v_lift) in enumerate(pairs, start=1):
        forward = letter_product(w_deep, *v_lift) - base.apply(j, w_flat, depth - 1)
        star = lift.apply(j, w_flat.conj().T, depth - 1) - letter_product(w_deep.conj().T, *v_base)
        yield operator_norm(forward), operator_norm(fold_rows(star))


def dense_coisometry(w):
    # oracle: W W* - I from one product and a dense identity, of which
    # hermitian_norm reads the lower triangle
    return hermitian_norm(w @ w.conj().T - np.eye(w.shape[0]))


def outcome(run):
    """A run's value with every float as its hex text (NaN as 'nan'), or its error."""
    try:
        value = run()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    floats = value if isinstance(value, list) else [value]
    return [
        [float(v).hex() if not math.isnan(v) else "nan" for v in np.ravel(f)] for f in floats
    ]


def intertwiner_pair(instance, depth):
    return intertwiner_matrix(instance, depth), intertwiner_matrix(instance, depth - 1)


def assert_same_intertwining(instance, depth, w, flat):
    got = outcome(lambda: list(verify._intertwining_norms(instance, depth, w, flat)))
    assert got == outcome(lambda: list(dense_intertwining_norms(instance, depth, w, flat)))


# beyond the sweep shapes: (2,1,1) has one-column base letters, whose
# products numpy sends to gemv, and (1,65,0) a 65-column base letter
DEEPEST = {(1, 65, 0): 3}


@pytest.mark.parametrize("a_scale", [0.0, 0.9, 1.0])
@pytest.mark.parametrize("shape", SWEEP_SHAPES + ((2, 1, 1), (1, 65, 0)))
def test_rows_equal_dense_formulas(shape, a_scale):
    depths = range(1, DEEPEST.get(shape, 4 if shape[0] == 3 else 6) + 1)
    for seed in range(3):
        try:
            inst = generate(*shape, seed=seed, a_scale=a_scale)
        except (Infeasible, RankClampBand):
            continue
        flat = intertwiner_matrix(inst, 0)
        for depth in depths:
            w = intertwiner_matrix(inst, depth)
            assert_same_intertwining(inst, depth, w, flat)
            assert verify._intertwiner_coisometry(w) == dense_coisometry(w)
            flat = w


def test_run_across_the_base_columns_of_a_letter():
    # a letter of (2,65,0) has 65 base columns, so its run [64, 128)
    # holds the last of them and the first entries of its row table.  Only
    # the intertwining row is compared: with more than one BLAS thread the
    # whole W W* of its 260-row W moves by rounding against the blocked
    # one, which test_coisometry_of_any_height compares at one thread
    inst = generate(2, 65, 0, seed=1)
    assert inst.dilation_e.matrix(0).shape == (2, 65)
    for depth in (1, 2):
        assert_same_intertwining(inst, depth, *intertwiner_pair(inst, depth))


@pytest.fixture(scope="module")
def ragged():
    """(3,2,1) at depth 4: W is 486 x 729, several blocks each way and a
    ragged last one, and W at depth 3 is 162 x 243."""
    inst = generate(3, 2, 1, seed=1)
    w, flat = intertwiner_pair(inst, 4)
    assert all(n > 2 * BLOCK and n % BLOCK for n in w.shape + flat.shape)
    return inst, w, flat


def test_ragged_blocks_equal_dense_formulas(ragged):
    inst, w, flat = ragged
    assert_same_intertwining(inst, 4, w, flat)
    assert verify._intertwiner_coisometry(w) == dense_coisometry(w)


def test_random_matrices_of_the_same_shapes(ragged):
    # no residual entry cancels exactly, so every column is kept
    inst, w, flat = ragged
    rng = np.random.default_rng(5)
    w, flat = (rng.standard_normal(m.shape + (2,)).view(complex)[..., 0] for m in (w, flat))
    assert_same_intertwining(inst, 4, w, flat)


def test_coisometry_of_any_height():
    # with one BLAS thread a product split at multiples of BLOCK is the
    # whole product bit for bit, whatever its height; a height that leaves
    # one row over (65, 129, ...) joins it to the block before, as a
    # product with one column goes through gemv.  With more threads,
    # OpenBLAS may split the whole product between them at other columns
    # (seen at heights 66-70, 130, 131 and 194 with 150 columns), so this
    # runs in a process of its own with one thread.
    code = (
        "import numpy as np, sys\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from ncscatter import verify\n"
        "from test_residual_oracles import dense_coisometry\n"
        f"for rows in range(1, {3 * BLOCK + 8}):\n"
        "    rng = np.random.default_rng(rows)\n"
        "    w = rng.standard_normal((rows, 150)) + 1j * rng.standard_normal((rows, 150))\n"
        "    if verify._intertwiner_coisometry(w) != dense_coisometry(w):\n"
        "        print(rows)\n"
    )
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    src = str(Path(verify.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("target", ["deep", "flat"])
@pytest.mark.parametrize("entry", [(0, 0), (-1, -1), (1, -2), (-1, 0)])
def test_non_finite_entries(ragged, bad, target, entry):
    inst, w, flat = ragged
    w, flat = w.copy(), flat.copy()
    (w if target == "deep" else flat)[entry] = bad
    with np.errstate(invalid="ignore", over="ignore"):
        assert_same_intertwining(inst, 4, w, flat)
        got = outcome(lambda: verify._intertwiner_coisometry(w))
        assert got == outcome(lambda: dense_coisometry(w))


@pytest.mark.parametrize("a_scale", [0.9, 1.0])
def test_coisometry_takes_no_svd(monkeypatch, a_scale):
    # on (3,2,1) W W* formed whole column by column is not bit-exactly
    # Hermitian; its lower block triangle is by construction and needs no SVD
    insts = [generate(3, 2, 1, seed=seed, a_scale=a_scale) for seed in range(3)]
    ws = [intertwiner_matrix(inst, depth) for inst in insts for depth in (3, 4)]

    def refuse(*args, **kwargs):
        raise AssertionError("SVD in the coisometry row")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    for w in ws:
        assert verify._intertwiner_coisometry(w) < 1e-10


def test_blocks_tile_the_range():
    for n in [0, 1, 2, 63, 64, 65, 66, 128, 129, 130, 200]:
        runs = list(blocks(n))
        assert [i for lo, hi in runs for i in range(lo, hi)] == list(range(n))
        assert all(lo % BLOCK == 0 for lo, _ in runs)
        assert all(hi - lo > 1 for lo, hi in runs) or n == 1


def transient(run):
    """Bytes allocated at the peak of ``run`` beyond what was held before it."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


class TestMemory:
    @pytest.fixture(scope="class")
    def deep(self):
        inst = generate(2, 2, 2, seed=1)
        return inst, *intertwiner_pair(inst, 7)

    def test_intertwining_below_one_w(self, deep):
        inst, w, flat = deep
        def intertwining():
            return max(map(max, verify._intertwining_norms(inst, 7, w, flat)))

        assert transient(intertwining) < w.nbytes

    def test_coisometry_within_three_quarters_of_one_w(self, deep):
        _, w, _ = deep
        assert transient(lambda: verify._intertwiner_coisometry(w)) <= 0.75 * w.nbytes
