"""Coefficient sequences and trigonometric polynomial evaluation."""

import io
import os
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sievelab import (CoefficientSequence, eval_at_modulus, eval_exp_sum,
                      make_sequence, moduli_from_file, sequence_from_file)
from sievelab import oracles, sequences, util
from sievelab.errors import CapacityError, OutOfRangeError, SequenceFileError
from sievelab.util import cexp, seeded_rng


def test_stock_kinds_have_expected_energy():
    assert make_sequence("ones", 10).Z == 10.0
    assert make_sequence("delta", 10, n0=7).Z == 1.0
    assert make_sequence("random_signs", 33, seed=5).Z == 33.0
    assert abs(make_sequence("random_phases", 33, seed=5).Z - 33.0) < 1e-9
    assert abs(make_sequence("focused", 12, beta=0.2).Z - 12.0) < 1e-9


def test_bad_parameters_are_rejected():
    with pytest.raises(OutOfRangeError):
        make_sequence("ones", 0)
    with pytest.raises(OutOfRangeError):
        make_sequence("delta", 5, n0=6)
    with pytest.raises(OutOfRangeError):
        make_sequence("delta", 5)
    with pytest.raises(OutOfRangeError):
        make_sequence("focused", 5, beta=1.0)
    with pytest.raises(ValueError):
        make_sequence("unheard-of", 5)


def test_seed_controls_random_draws():
    a = make_sequence("random_signs", 64, seed=1)
    b = make_sequence("random_signs", 64, seed=1)
    c = make_sequence("random_signs", 64, seed=2)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


@pytest.mark.parametrize("kind", ["random_signs", "random_phases"])
def test_an_unseeded_sequence_reads_the_same_values_on_every_pass(kind):
    s = make_sequence(kind, 2 * sequences._PIECE + 5, seed=None)
    first, second = (np.concatenate(list(s.pieces())) for _ in range(2))
    assert np.array_equal(first, second)
    s = make_sequence(kind, 100, seed=None)
    assert eval_exp_sum(s, 0.1) == eval_exp_sum(s, 0.1)


def test_only_the_random_kinds_build_a_generator(monkeypatch):
    def refuse(seed):
        raise AssertionError("a deterministic kind built a generator")

    n = 2 * sequences._PIECE + 5
    kinds = {"ones": {}, "delta": {"n0": sequences._PIECE + 3}, "focused": {"beta": 0.3}}
    want = {kind: make_sequence(kind, n, **kw).values for kind, kw in kinds.items()}
    monkeypatch.setattr(sequences, "seeded_rng", refuse)
    for kind, kw in kinds.items():
        seq = make_sequence(kind, n, **kw)
        assert np.array_equal(np.concatenate(list(seq.pieces())), want[kind])
        assert seq.Z == float(np.sum(np.abs(want[kind]) ** 2))
    with pytest.raises(AssertionError, match="deterministic kind"):
        make_sequence("random_signs", n).Z


def test_exp_sum_at_zero_is_plain_sum():
    seq = make_sequence("ones", 17)
    assert eval_exp_sum(seq, 0.0) == 17.0 + 0j
    assert eval_exp_sum(seq, 1.0) == 17.0 + 0j


def test_exp_sum_half_turn_alternates_exactly():
    seq = make_sequence("ones", 4)
    assert eval_exp_sum(seq, 0.5) == 0.0 + 0j
    assert eval_exp_sum(make_sequence("ones", 5), 0.5) == -1.0 + 0j


@given(st.integers(1, 60), st.floats(0.0, 1.0, exclude_max=True))
def test_exp_sum_is_periodic(n, alpha):
    seq = make_sequence("random_phases", n, seed=n)
    a = eval_exp_sum(seq, alpha)
    b = eval_exp_sum(seq, alpha + 1.0)
    assert abs(a - b) <= 1e-9 * (1 + n)


def test_focused_sequence_attains_its_peak():
    for n in (1, 9, 250):
        seq = make_sequence("focused", n, beta=0.77)
        assert abs(eval_exp_sum(seq, 0.77)) >= n * (1 - 1e-9)


def test_focused_quarter_point_values_are_exact():
    seq = make_sequence("focused", 2, beta=0.25)
    assert seq.values.tolist() == [-1j, (-1 + 0j)]


def test_delta_single_term_at_quarter_turn():
    seq = make_sequence("delta", 5, n0=3)
    assert eval_exp_sum(seq, 0.25) == -1j


def test_exp_sum_streams_the_whole_array_sum():
    # one piece gives the whole-array sum bit for bit; each further piece
    # adds one rounding of the running sum
    for n in (1000, sequences._PIECE, 4 * sequences._PIECE + 5):
        seq = make_sequence("random_phases", n, seed=3)
        for alpha in (0.123, 1 / 3, 12345.678):
            t = np.arange(1, n + 1, dtype=np.float64) * (alpha - np.floor(alpha))
            whole = complex(np.sum(seq.values * cexp(t)))
            if n <= sequences._PIECE:
                assert eval_exp_sum(seq, alpha) == whole
            else:  # the mass sum |a_n| is n
                assert abs(eval_exp_sum(seq, alpha) - whole) <= 1e-14 * n


def test_modulus_evaluation_matches_pointwise_sums():
    n = 2 * sequences._PIECE + 5  # the fold's piece edges fall inside its rows
    for seq in (make_sequence("random_phases", 40, seed=9),
                make_sequence("random_phases", n, seed=9),
                CoefficientSequence(seeded_rng(9).standard_normal(n) * 1j + 0.5)):
        for q in (1, 2, 7, 40, 41, 83):
            rows = eval_at_modulus(seq, q)
            assert rows.shape == (q,)
            for a in (1, q // 2 + 1, q):
                direct = eval_exp_sum(seq, a / q)
                assert abs(rows[a - 1] - direct) <= 1e-9 * (1 + abs(direct))


def test_modulus_evaluation_memory_is_bounded_by_the_piece():
    seq = make_sequence("random_phases", 2**22)  # values alone: 64 MB
    tracemalloc.start()
    try:
        eval_at_modulus(seq, 97)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_a_modulus_over_the_capacity_is_refused_before_anything_is_built(monkeypatch):
    seq = make_sequence("ones", 10)
    q = 600  # the O(q) arrays, one block, which holds all q a-rows, and the piece
    need = (q * (sequences._RESIDUE_BYTES + sequences._PRODUCT_BYTES * q)
            + sequences.pass_bytes(10, 1))
    monkeypatch.setattr(util, "CAPACITY", need - 1)
    with pytest.raises(CapacityError, match=f"modulus transform needs {q} residues "
                                            f"and a piece \\({need} bytes\\)"):
        eval_at_modulus(seq, q)
    monkeypatch.setattr(util, "CAPACITY", need)
    tracemalloc.start()
    try:
        rows = eval_at_modulus(seq, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows[-1] == 10.0
    assert peak <= need


_STOCK = [("ones", {}), ("delta", {"n0": 7}), ("random_signs", {}),
          ("random_phases", {}), ("focused", {"beta": 0.3})]


@pytest.mark.parametrize("kind, kw", _STOCK, ids=[k for k, _ in _STOCK])
def test_modulus_evaluation_peaks_within_its_reservation(monkeypatch, kind, kw):
    # a first call, whose pass also takes Z: its piece dwarfs q's arrays;
    # the reservation is read from the refusal at capacity 0
    seq = make_sequence(kind, 70_000, **kw)
    with monkeypatch.context() as m:
        m.setattr(util, "CAPACITY", 0)
        with pytest.raises(CapacityError) as refused:
            eval_at_modulus(seq, 100)
    need = int(re.search(r"\((\d+) bytes\)", str(refused.value)).group(1))
    tracemalloc.start()
    try:
        eval_at_modulus(seq, 100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need


@given(st.integers(1, 50))
def test_modulus_evaluation_satisfies_parseval(n):
    seq = make_sequence("random_phases", n, seed=n + 1)
    for q in (n, n + 1, 2 * n + 3):
        total = float(np.sum(np.abs(eval_at_modulus(seq, q)) ** 2))
        assert abs(total - q * seq.Z) <= 1e-8 * q * seq.Z


def test_energy_is_computed_from_values():
    seq = CoefficientSequence(np.array([3.0, 4.0j]))
    assert seq.Z == 25.0
    assert seq.N == 2


def test_a_huge_sequence_is_built_at_once_without_its_values():
    start = time.perf_counter()
    tracemalloc.start()
    try:
        seq = make_sequence("ones", 2**34)  # values would be 256 GiB
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 1.0
    assert peak < 2**20
    assert seq.N == 2**34
    assert next(seq.pieces()).size == sequences._PIECE


def test_pieces_are_the_values_in_order():
    n = 2 * sequences._PIECE + 5
    for seq in (make_sequence("random_phases", n, seed=3),
                CoefficientSequence(np.arange(n) * 1j)):
        parts = list(seq.pieces())
        assert [p.size for p in parts] == [sequences._PIECE] * 2 + [5]
        assert np.array_equal(np.concatenate(parts), seq.values)


def test_file_round_trip(tmp_path):
    p = tmp_path / "seq.txt"
    p.write_text("1.5 0.0\n-2.0 3.25\n\n0 1\n", encoding="utf-8")
    seq = sequence_from_file(str(p))
    assert seq.N == 3
    assert seq.values[1] == -2.0 + 3.25j
    assert seq.Z == pytest.approx(1.5**2 + 2**2 + 3.25**2 + 1)


def test_cexp_reduction_gives_the_bits_of_mod_one():
    k = np.arange(-64.0, 65.0)
    rng = seeded_rng(5)
    x = np.concatenate([
        [0.0, -0.0, 1.0, -1.0, 3.0, -7.0, 0.5, -0.5],
        k, k / 4, k / 8, k + 1 / 3, k - 1 / 3,
        # just below an integer: the reduced phase rounds up to 1.0
        [-2.0**-54, -2.0**-60, -1e-20, -5e-324, 5 - 2.0**-51, -3 - 2.0**-51],
        [2.0**53, 2.0**53 + 2, -2.0**53, -2.0**60 - 2**8, 1e300, -1e300,
         2.0**52 + 0.5, -2.0**52 - 0.5, 2.0**51 + 0.25, -2.0**51 - 0.75],
        rng.uniform(-1e6, 1e6, 4096), rng.standard_normal(4096) * 2.0**40,
        rng.standard_normal(4096) * 1e-12,
    ])
    t = x % 1.0
    got = cexp(x)
    assert np.array_equal(got.view(np.int64), cexp(t).view(np.int64))
    quarters = t * 4.0
    hit = quarters == np.floor(quarters)
    assert np.array_equal(got[hit], np.array([1, 1j, -1, -1j])[quarters[hit].astype(np.int64) & 3])
    # each part within 1.5e-16 of exp(2 pi i t), taken in long double
    assert np.finfo(np.longdouble).nmant >= 63
    want = oracles.cexp_reference(x)
    assert np.max(np.abs(got.real - want.real)) <= 1.5e-16
    assert np.max(np.abs(got.imag - want.imag)) <= 1.5e-16


def test_file_errors_carry_the_line():
    with pytest.raises(SequenceFileError):
        sequence_from_file("/nonexistent/seq.txt")


def test_file_rejects_malformed_rows(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1.0\n", encoding="utf-8")
    with pytest.raises(SequenceFileError, match="two fields"):
        sequence_from_file(str(p))
    p.write_text("1.0 sideways\n", encoding="utf-8")
    with pytest.raises(SequenceFileError):
        sequence_from_file(str(p))


@pytest.mark.parametrize("row", ["nan 0", "inf 0", "-inf 0", "0 nan", "1 -inf"])
def test_file_rejects_non_finite_coefficients(tmp_path, row):
    p = tmp_path / "seq.txt"
    p.write_text(f"1 0\n{row}\n2 0\n", encoding="utf-8")
    with pytest.raises(SequenceFileError, match=r"seq\.txt:2: coefficient is not finite"):
        sequence_from_file(str(p))


class _Rewritten(io.StringIO):
    """A text file that holds `after` once it is rewound."""

    def __init__(self, before, after):
        super().__init__(before)
        self._after = after

    def seek(self, *args):
        super().seek(0)
        self.truncate()
        self.write(self._after)
        return super().seek(0)


# each reader, a file of two entries and a blank line, and that file
# after it shrank to one entry or grew to three
_CHANGED = [
    pytest.param(sequence_from_file, "1 0\n\n2 0\n", "1 0\n", id="shrunk"),
    pytest.param(sequence_from_file, "1 0\n\n2 0\n", "1 0\n2 0\n3 0\n", id="grew"),
    pytest.param(moduli_from_file, "1\n\n2\n", "1\n", id="moduli-shrunk"),
    pytest.param(moduli_from_file, "1\n\n2\n", "1\n2\n3\n", id="moduli-grew"),
]


@pytest.mark.parametrize("reader, before, after", _CHANGED)
def test_file_that_changes_between_passes_is_refused(monkeypatch, reader, before, after):
    # the reader counts in a first pass and fills in a second
    monkeypatch.setattr(util, "open", lambda *a, **kw: _Rewritten(before, after),
                        raising=False)
    with pytest.raises(SequenceFileError, match="changed while being read"):
        reader("seq.txt")


@pytest.mark.parametrize("reader, text", [(sequence_from_file, b"1 0\n2 0\n"),
                                          (moduli_from_file, b"1\n2\n")],
                         ids=["sequence", "moduli"])
def test_a_pipe_is_refused_with_one_error(monkeypatch, reader, text):
    r, w = os.pipe()
    os.write(w, text)
    os.close(w)
    monkeypatch.setattr(util, "open", lambda *a, **kw: os.fdopen(r, **kw), raising=False)
    with pytest.raises(SequenceFileError, match="cannot read seq.txt: .*not seekable"):
        reader("seq.txt")


def test_modulus_grid_much_larger_than_length():
    seq = make_sequence("delta", 3, n0=2)
    rows = eval_at_modulus(seq, 100)
    # a lone coefficient contributes a pure phase at every fraction
    assert np.allclose(np.abs(rows), 1.0)
    assert rows[49] == 1.0 + 0j  # a = 50: e(2 * 50/100) lands on a full turn
