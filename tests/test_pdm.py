import math

import numpy as np
import pytest

from nrfilter import (
    Chunk,
    ClassSchema,
    FeatureConfig,
    compute_pdm,
    cumulative_bins,
    decode_spans,
)
from nrfilter.errors import AnchorOutOfRange, NonPositiveDecayRate
from nrfilter.pdm import bin_edges, decay_table

from conftest import random_chunk
from oracles import brute_force_cumulative, brute_force_pdm

# Grid coordinates: row = bin (0 is lowest probability), col = class index
# with O at 0. The printed tables use "Bin-1" for row 0 and "Bin-10" for row 9.
O, B, I = 0, 1, 2


class TestDecayWeight:
    def test_distance_zero_is_one(self):
        for r in (0.5, 1.0, 3.7):
            assert decay_table(6, r)[0] == 1.0

    def test_known_values(self):
        table = decay_table(3, 1.0)
        assert table[1] == pytest.approx(math.exp(-0.5), abs=1e-15)
        assert table[2] == pytest.approx(math.exp(-2.0), abs=1e-15)

    def test_strictly_decreasing_in_distance(self):
        weights = decay_table(10, 1.3)
        assert all(a > b for a, b in zip(weights, weights[1:]))
        assert not weights.flags.writeable

    def test_nonpositive_rate_rejected(self):
        with pytest.raises(NonPositiveDecayRate):
            FeatureConfig(decay_rate=0.0)
        with pytest.raises(NonPositiveDecayRate):
            FeatureConfig(decay_rate=-1.0)


class TestWorkedExamples:
    def test_sentence1_cumulative(self, sentence1):
        grid = cumulative_bins(sentence1.chunk, 4, 10)
        assert grid[9][O] == pytest.approx(6.946, abs=0.001)
        assert grid[0][I] == pytest.approx(0.053, abs=0.001)
        assert grid[0][B] == pytest.approx(0.001, abs=0.001)

    def test_sentence2_cumulative(self, sentence2):
        grid = cumulative_bins(sentence2.chunk, 7, 10)
        # The printed table shows display-rounded 6.999 for an exact 7.0;
        # the inclusive +/-0.001 bound needs an ulp of slack in binary.
        assert grid[9][O] == pytest.approx(6.999, abs=0.001 * (1 + 1e-9))

    def test_sentence1_pdm(self, sentence1):
        pdm = compute_pdm(sentence1.chunk, 4)
        assert pdm[0][I] == pytest.approx(0.004, abs=0.0005)
        assert pdm[9][O] == pytest.approx(0.185, abs=0.0005)

    def test_sentence2_pdm(self, sentence2):
        pdm = compute_pdm(sentence2.chunk, 7)
        assert pdm[9][O] == pytest.approx(0.094, abs=0.0005)
        off = pdm.copy()
        off[9][O] = 0.0
        assert off.max() < 0.0005

    def test_single_token_chunk_all_zero(self):
        schema = ClassSchema(("",))
        chunk = Chunk("solo", schema, ("x",), np.array([[0.0, 1.0, 0.0]]))
        assert compute_pdm(chunk, 0).sum() == 0.0
        assert cumulative_bins(chunk, 0).sum() == 0.0


class TestAgainstBruteForce:
    def test_pdm_matches_oracle_cell_for_cell(self):
        rng = np.random.default_rng(42)
        for _ in range(250):
            chunk = random_chunk(rng)
            anchor = int(rng.integers(chunk.n_tokens))
            r = float(rng.uniform(0.3, 4.0))
            bins = int(rng.choice([4, 10, 16]))
            got = compute_pdm(chunk, anchor, FeatureConfig(r, bins))
            want = brute_force_pdm(chunk.probs.tolist(), anchor, r, bins)
            np.testing.assert_allclose(got, np.array(want), atol=1e-12, rtol=0)

    def test_cumulative_matches_oracle(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            chunk = random_chunk(rng)
            anchor = int(rng.integers(chunk.n_tokens))
            got = cumulative_bins(chunk, anchor, 10)
            want = brute_force_cumulative(chunk.probs.tolist(), anchor, 10)
            np.testing.assert_allclose(got, np.array(want), atol=1e-12, rtol=0)


class TestInvariants:
    def test_cells_nonnegative_and_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            chunk = random_chunk(rng)
            anchor = int(rng.integers(chunk.n_tokens))
            values = compute_pdm(chunk, anchor)
            assert (values >= 0).all()
            T = chunk.n_tokens
            assert values.max() <= (T - 1) / T + 1e-12

    def test_total_mass_strictly_below_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            chunk = random_chunk(rng)
            if chunk.n_tokens < 2:
                continue
            anchor = int(rng.integers(chunk.n_tokens))
            total = compute_pdm(chunk, anchor).sum()
            assert total < (chunk.n_tokens - 1) / chunk.n_tokens

    def test_cumulative_total_is_token_count_minus_one(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            chunk = random_chunk(rng)
            anchor = int(rng.integers(chunk.n_tokens))
            total = cumulative_bins(chunk, anchor, 10).sum()
            K = chunk.schema.K
            assert total == pytest.approx(chunk.n_tokens - 1, abs=K * 1e-4)

    def test_monotone_decay_when_neighbor_moves_away(self):
        # Same single contributing token placed farther from the anchor
        # never increases the cell it lands in.
        schema = ClassSchema(("",))
        previous = np.inf
        for distance in range(1, 8):
            probs = np.full((9, 3), [1.0, 0.0, 0.0])
            probs[distance] = [0.2, 0.25, 0.55]
            chunk = Chunk("m", schema, tuple("abcdefghi"), probs)
            cell = compute_pdm(chunk, 0)[2][B]  # B=0.25 lands in bin 2
            assert cell < previous
            previous = cell

    def test_anchor_out_of_range(self):
        chunk = random_chunk(np.random.default_rng(1))
        with pytest.raises(AnchorOutOfRange):
            compute_pdm(chunk, chunk.n_tokens)
        with pytest.raises(AnchorOutOfRange):
            cumulative_bins(chunk, -1)


class TestBinning:
    def test_probability_one_lands_in_top_bin(self):
        schema = ClassSchema(("",))
        probs = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        chunk = Chunk("edge", schema, ("a", "b"), probs)
        grid = cumulative_bins(chunk, 0, 10)
        assert grid[9][O] == 1.0

    def test_bin_edges_cover_unit_interval(self):
        edges = bin_edges(10)
        assert edges[0] == (0.0, 0.1)
        assert edges[-1] == (0.9, 1.0)
        assert len(edges) == 10


class TestSpanExclusion:
    def test_multi_token_span_contributes_nothing(self):
        schema = ClassSchema(("",))
        probs = np.array([
            [1.0, 0.0, 0.0],
            [0.0, 0.95, 0.05],
            [0.02, 0.03, 0.95],
            [0.9, 0.02, 0.08],
        ])
        chunk = Chunk("sp", schema, ("w0", "w1", "w2", "w3"), probs)
        (span,) = decode_spans(chunk)
        assert (span.start, span.end) == (1, 2)
        pdm = compute_pdm(chunk, span.anchor, exclude=span.positions)
        # Only tokens 0 and 3 may contribute; the span's own I token must not.
        want = brute_force_pdm(probs.tolist(), 1, 1.0, 10, exclude={1, 2})
        np.testing.assert_allclose(pdm, np.array(want), atol=1e-12, rtol=0)
        assert pdm[9][B] == 0.0  # anchor's 0.95 B mass is excluded

