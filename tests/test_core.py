import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from osls import core
from osls.core import (
    ProbabilityVector,
    RecordSet,
    SourceLabelModel,
    TargetLabelModel,
    ValidationError,
    extend_distribution,
    validate_simplex,
)


def simplexes(min_k=1, max_k=8):
    return (
        st.lists(st.floats(1e-6, 1.0), min_size=min_k, max_size=max_k)
        .map(lambda xs: np.array(xs) / np.sum(xs))
    )


class TestValidateSimplex:
    def test_valid(self):
        assert validate_simplex([0.5, 0.5], 1e-9)

    def test_bad_sum(self):
        assert not validate_simplex([0.6, 0.5], 1e-9)

    def test_within_tolerance(self):
        assert validate_simplex([1.0 + 5e-10, -5e-10], 1e-9)

    def test_empty_and_nan(self):
        assert not validate_simplex([], 1e-9)
        assert not validate_simplex([np.nan, 1.0], 1e-9)


class TestExtendDistribution:
    def test_basic(self):
        out = extend_distribution([0.5, 0.5], 0.8)
        np.testing.assert_allclose(out.entries, [0.4, 0.4, 0.2], atol=1e-15)

    def test_rho_one_boundary(self):
        out = extend_distribution([1.0], 1.0)
        np.testing.assert_allclose(out.entries, [1.0, 0.0], atol=0)

    def test_three_class(self):
        out = extend_distribution([0.2, 0.3, 0.5], 0.5)
        np.testing.assert_allclose(out.entries, [0.1, 0.15, 0.25, 0.5], atol=1e-15)

    def test_rejects_non_simplex(self):
        with pytest.raises(ValidationError):
            extend_distribution([0.6, 0.5], 0.5)
        with pytest.raises(ValidationError):
            extend_distribution([0.5, 0.5], 1.5)

    @settings(max_examples=200, deadline=None)
    @given(simplexes(), st.floats(0.0, 1.0))
    def test_sums_to_one(self, base, rho):
        out = extend_distribution(base, rho)
        assert abs(out.entries.sum() - 1.0) <= 1e-12 * (base.size + 1)

    @settings(max_examples=200, deadline=None)
    @given(simplexes(), st.floats(1e-5, 1.0))
    def test_round_trip(self, base, rho):
        ext = extend_distribution(base, rho).entries
        assert abs((1.0 - ext[-1]) - rho) <= 1e-12
        np.testing.assert_allclose(ext[:-1] / rho, base, atol=1e-12)


class TestExtendClassifierOutput:
    def test_basic(self):
        rs = RecordSet(np.array([[0.7, 0.3]]), np.array([0.9]))
        np.testing.assert_allclose(rs.extended_f(), [[0.63, 0.27, 0.10]], atol=1e-15)

    def test_certain_id(self):
        rs = RecordSet(np.array([[1.0]]), np.array([1.0]))
        np.testing.assert_allclose(rs.extended_f(), [[1.0, 0.0]])

    def test_certain_ood(self):
        rs = RecordSet(np.array([[0.5, 0.5]]), np.array([0.0]))
        np.testing.assert_allclose(rs.extended_f(), [[0.0, 0.0, 1.0]])

    @settings(max_examples=200, deadline=None)
    @given(simplexes(), st.floats(0.0, 1.0))
    def test_sums_to_one(self, f, h):
        rs = RecordSet(f[None, :], np.array([h]))
        assert abs(rs.extended_f().sum() - 1.0) <= 1e-12


class TestTypes:
    def test_probability_vector_renormalizes(self):
        pv = ProbabilityVector([0.5 + 2e-10, 0.5 - 3e-10])
        assert pv.entries.sum() == 1.0
        assert not pv.entries.flags.writeable

    def test_source_model_rejects_tiny_class(self):
        with pytest.raises(ValidationError):
            SourceLabelModel(ProbabilityVector([1.0 - 1e-7, 1e-7]), 0.5)

    def test_source_model_rejects_boundary_rho(self):
        for rho in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValidationError):
                SourceLabelModel(ProbabilityVector([0.5, 0.5]), rho)

    def test_source_model_clamps_rho(self):
        m = SourceLabelModel(ProbabilityVector([0.5, 0.5]), 1.0 - 1e-12)
        assert m.rho_s == 1.0 - 1e-6

    def test_target_model_allows_boundaries(self):
        assert TargetLabelModel(ProbabilityVector([1.0]), 0.0).rho_t == 0.0
        assert TargetLabelModel(ProbabilityVector([1.0]), 1.0).rho_t == 1.0

    def test_record_label_range(self):
        f, h = np.array([[0.5, 0.5]]), np.array([0.5])
        assert RecordSet(f, h, np.array([3])).y.tolist() == [3]
        with pytest.raises(ValidationError):
            RecordSet(f, h, np.array([4]))
        with pytest.raises(ValidationError):
            RecordSet(f, np.array([1.5]))


class TestRecordSet:

    def test_extended_f(self):
        rs = RecordSet(np.array([[0.7, 0.3]]), np.array([0.9]))
        np.testing.assert_allclose(rs.extended_f(), [[0.63, 0.27, 0.10]], atol=1e-15)

    def test_rejects_bad_rows(self):
        with pytest.raises(ValidationError):
            RecordSet(np.array([[0.6, 0.5]]), np.array([0.5]))
        with pytest.raises(ValidationError):
            RecordSet(np.array([[0.5, 0.5]]), np.array([1.5]))
        with pytest.raises(ValidationError):
            RecordSet(np.empty((0, 2)), np.empty(0))

    def test_label_validation(self):
        with pytest.raises(ValidationError):
            RecordSet(np.array([[1.0]]), np.array([1.0]), np.array([3]))

    # (rows, block rows, bad row): one block; the last row of a block and the
    # first of the next; and the lone last row, which joins the block before it.
    BLOCK_CASES = [(3, None, 1), (9, 4, 3), (9, 4, 4), (9, 4, 8)]

    def test_rejects_non_finite_values_naming_the_row(self, monkeypatch):
        for n, block, row in self.BLOCK_CASES:
            if block is not None:
                monkeypatch.setattr(core, "BLOCK_CELLS", 2 * block)
            for bad_f, bad_h in ((np.nan, 0.5), (0.5, np.nan), (0.5, np.inf), (-np.inf, 0.5)):
                ff, hh = np.full((n, 2), 0.5), np.full(n, 0.5)
                ff[row, 0], hh[row] = bad_f, bad_h
                with pytest.raises(ValidationError, match=f"row {row} has a non-finite value"):
                    RecordSet(ff, hh)
                with pytest.raises(ValidationError, match=f"row {row} has a non-finite value"):
                    RecordSet._adopt(ff, hh)

    def test_rejects_rows_off_the_simplex_naming_the_first(self, monkeypatch):
        for n, block, row in self.BLOCK_CASES:
            if block is not None:
                monkeypatch.setattr(core, "BLOCK_CELLS", 2 * block)
            f, h = np.full((n, 2), 0.5), np.full(n, 0.5)
            f[row] = [0.6, 0.5]
            f[n - 1, 1] = -0.1  # a later bad row is not the one named
            f = np.asfortranarray(f)
            with pytest.raises(ValidationError, match=f"row {row} of f is not a probability"):
                RecordSet(f, h)
            # A non-finite value is named first, even in a later block.
            f[n - 1, 1] = np.nan
            with pytest.raises(ValidationError, match=f"row {n - 1} has a non-finite value"):
                RecordSet(f, h)

    @pytest.mark.parametrize("bad", [1.9, -0.2, 1.0 + 2e-9])
    def test_rejects_h_outside_unit_interval_naming_the_row(self, bad):
        f = np.full((3, 2), 0.5)
        with pytest.raises(ValidationError, match="row 2 of h is not in"):
            RecordSet(f, np.array([0.5, 1.0 + 5e-10, bad]))

    def test_rejects_non_integral_labels(self):
        f, h = np.array([[0.5, 0.5], [0.5, 0.5]]), np.array([0.5, 0.5])
        for bad in (1.7, np.nan, np.inf):
            with pytest.raises(ValidationError, match="at row 1 is not an integer"):
                RecordSet(f, h, np.array([1.0, bad]))
        rs = RecordSet(f, h, np.array([3.0, 1.0]))
        assert rs.y.dtype == np.int64 and rs.y.tolist() == [3, 1]

    def test_with_h_and_take_check_what_they_change(self):
        rs = RecordSet(np.array([[0.5, 0.5], [0.25, 0.75]]), np.array([0.5, 0.5]),
                       np.array([1, 3]))
        for bad in ([0.5, 1.5], [0.5, np.nan], [0.5]):
            with pytest.raises(ValidationError):
                rs.with_h(np.array(bad))
        assert rs.with_h(np.array([0.0, 1.0 + 1e-12])).h.tolist() == [0.0, 1.0]
        with pytest.raises(ValidationError, match="empty record set"):
            rs.take(np.array([], dtype=int))
        taken = rs.take(np.array([1]))
        assert taken.f.tolist() == [[0.25, 0.75]] and taken.y.tolist() == [3]

    def test_with_h_makes_no_copy_of_f(self):
        n, k = 20_000, 50
        rng = np.random.default_rng(0)
        rs = RecordSet(rng.dirichlet(np.ones(k), size=n), rng.random(n))
        h = rng.random(n)
        tracemalloc.start()
        try:
            out = rs.with_h(h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.f is rs.f and np.array_equal(out.h, h) and not out.h.flags.writeable
        assert peak <= 3 * h.nbytes

    def test_immutable(self):
        rs = RecordSet(np.array([[0.5, 0.5]]), np.array([0.5]))
        with pytest.raises(ValueError):
            rs.f[0, 0] = 0.9
