import io
import json
import tracemalloc
import warnings
from dataclasses import asdict, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrfilter import (
    STRONG,
    FeatureConfig,
    iter_records,
    WEAK,
    PipelineConfig,
    SynthConfig,
    decode_spans,
    deserialize_model,
    feature_names,
    featurize_blocks,
    featurize_chunks,
    iter_generate,
    serialize_model,
    train_matrix,
)
from nrfilter import tree
from nrfilter.core import read_config
from nrfilter.features import read_feature_csv, write_feature_csv
from nrfilter.errors import (
    InvalidConfig,
    NoFeasibleThreshold,
    SchemaMismatch,
    SingleClassTrainingSet,
)
from nrfilter.tree import (
    Internal,
    Leaf,
    THRESHOLD_KEEP_ALL,
    TrainConfig,
    TreeModel,
    load_model,
)

from conftest import fixture_path
from oracles import (
    _reference_gini as gini,
    parse_decision_path,
    reference_cut_threshold,
    reference_decision_path,
    reference_leaf_for,
    reference_path_steps,
    reference_train_matrix,
)

NAMES = ("f0", "f1", "f2")


def make_separable(n=40, seed=0):
    """f1 > 0.5 means weak; f0/f2 are noise."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n, 3))
    labels = [WEAK if x > 0.5 else STRONG for x in X[:, 1]]
    return X, labels


class TestGini:
    def test_pure_node(self):
        assert gini(10, 0) == 0.0
        assert gini(0, 3) == 0.0

    def test_balanced_node(self):
        assert gini(50, 50) == 0.5

    def test_thirty_ten(self):
        assert gini(30, 10) == pytest.approx(0.375, abs=1e-15)


class TestTrain:
    def test_perfect_split_is_depth_one(self):
        X, labels = make_separable()
        model = train_matrix(X, labels, NAMES, TrainConfig(min_samples_leaf=1))
        root = model.nodes[0]
        assert isinstance(root, Internal)
        assert model.feature_names[root.feature] == "f1"
        left = model.nodes[root.left]
        right = model.nodes[root.right]
        assert isinstance(left, Leaf) and isinstance(right, Leaf)
        assert left.p_weak == 0.0 and right.p_weak == 1.0
        for row, label in zip(X, labels):
            assert model.verdict(model.nodes[model.leaf(row)].p_weak) == label

    def test_constant_features_single_leaf(self):
        X = np.ones((20, 3))
        labels = [STRONG] * 14 + [WEAK] * 6
        model = train_matrix(X, labels, NAMES)
        assert len(model.nodes) == 1
        leaf = model.nodes[0]
        assert isinstance(leaf, Leaf)
        assert (leaf.n_strong, leaf.n_weak) == (14, 6)
        p_weak = model.nodes[model.leaf(np.ones(3))].p_weak
        assert model.verdict(p_weak) == STRONG and p_weak == pytest.approx(0.3)

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).uniform(size=(10, 3))
        with pytest.raises(SingleClassTrainingSet):
            train_matrix(X, [STRONG] * 10, NAMES)

    def test_shape_checks(self):
        with pytest.raises(SchemaMismatch):
            train_matrix(np.ones((4, 2)), [STRONG, WEAK, STRONG, WEAK], NAMES)
        with pytest.raises(InvalidConfig):
            train_matrix(np.ones((2, 3)), [STRONG, "bogus"], NAMES)

    def test_min_samples_leaf_respected(self):
        X, labels = make_separable(n=60)
        model = train_matrix(X, labels, NAMES, TrainConfig(min_samples_leaf=8))
        for node in model.leaves:
            assert node.n_strong + node.n_weak >= 8

    def test_max_depth_limits_paths(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(200, 3))
        labels = [WEAK if rng.random() < 0.5 else STRONG for _ in range(200)]
        model = train_matrix(X, labels, NAMES, TrainConfig(max_depth=3, min_samples_leaf=1))
        for row in X:
            assert len(parse_decision_path(model.paths[model.leaf(row)])) <= 3

    def test_split_features_exist_in_schema(self):
        X, labels = make_separable(n=120, seed=3)
        model = train_matrix(X, labels, NAMES)
        for node in model.nodes:
            if isinstance(node, Internal):
                assert 0 <= node.feature < len(model.feature_names)

    def test_children_never_increase_impurity(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(size=(300, 3))
        labels = [WEAK if (x[0] + 0.3 * rng.random()) > 0.6 else STRONG for x in X]
        model = train_matrix(
            X, labels, NAMES, TrainConfig(class_weighted=False, min_samples_leaf=5)
        )

        def counts(index):
            node = model.nodes[index]
            if isinstance(node, Leaf):
                return node.n_strong, node.n_weak
            ls, lw = counts(node.left)
            rs, rw = counts(node.right)
            left_n, right_n = ls + lw, rs + rw
            parent = gini(ls + rs, lw + rw)
            child = (left_n * gini(ls, lw) + right_n * gini(rs, rw)) / (left_n + right_n)
            assert child <= parent + 1e-12
            return ls + rs, lw + rw

        counts(0)

    def test_adjacent_doubles_split_five_five(self):
        # The midpoint of 1 + 2**-52 and 1 + 2**-51 rounds onto the upper
        # value; the threshold must still separate the two.
        low, high = 1.0 + 2.0 ** -52, 1.0 + 2.0 ** -51
        assert (low + high) / 2.0 == high
        X = np.array([[low]] * 5 + [[high]] * 5)
        labels = [STRONG] * 5 + [WEAK] * 5
        model = train_matrix(X, labels, ("Context_I-tag_cov_prob",))
        root = model.nodes[0]
        assert isinstance(root, Internal)
        assert low <= root.threshold < high
        left, right = model.nodes[root.left], model.nodes[root.right]
        assert (left.n_strong, left.n_weak) == (5, 0)
        assert (right.n_strong, right.n_weak) == (0, 5)

    def test_thresholds_separate_adjacent_values(self):
        # A column of neighbouring doubles: every split must send some of
        # its node's values each way.
        rng = np.random.default_rng(12)
        column = 1.0 + np.arange(40) * 2.0 ** -52
        X = column[rng.permutation(40)][:, None]
        labels = [WEAK if rng.random() < 0.5 else STRONG for _ in range(40)]
        model = train_matrix(X, labels, ("f0",), TrainConfig(min_samples_leaf=1))

        def walk(index, values):
            node = model.nodes[index]
            if isinstance(node, Leaf):
                assert node.n_strong + node.n_weak == values.size > 0
                return
            left = values[values <= node.threshold]
            right = values[values > node.threshold]
            assert left.size and right.size
            assert left.max() <= node.threshold < right.min()
            walk(node.left, left)
            walk(node.right, right)

        walk(0, X[:, 0])

    def test_train_from_feature_vectors(self, sentence1, sentence2):
        records = (sentence1, sentence2)
        X = np.vstack([featurize_chunks([r.chunk], [decode_spans(r.chunk)]) for r in records])
        labels = [sentence1.label, sentence2.label]
        names = feature_names(sentence1.chunk.schema)
        model = train_matrix(X, labels, names, TrainConfig(min_samples_leaf=1))
        for row, label in zip(X, labels):
            assert model.verdict(model.nodes[model.leaf(row)].p_weak) == label


class TestPresortedSearch:
    """train_matrix sorts each column once per tree; reference_train_matrix
    sorts every column at every node. Their models must be byte-identical."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        X, labels = make_separable()
        X[7, 1] = bad
        with pytest.raises(InvalidConfig, match="NaN or infinite"):
            train_matrix(X, labels, NAMES)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_reference(self, data):
        X, labels, config = data.draw(training_sets())
        # Small blocks put a node's columns into several blocks, so the
        # strict > across blocks is exercised too.
        cells = data.draw(st.sampled_from((1, 40, tree._SPLIT_CELLS)))
        with mock.patch.object(tree, "_SPLIT_CELLS", cells):
            got = serialize_model(train_matrix(X, labels, names_for(X), config))
        assert got == serialize_model(reference_train_matrix(X, labels, names_for(X), config))

    def test_duplicate_columns_across_blocks_keep_lower_feature(self):
        # 2,000 rows: a block holds 32 columns. Columns 24-47 copy 0-23,
        # so every tie between a column and its copy, within a block or
        # across two, must go to the lower index.
        rng = np.random.default_rng(21)
        X = np.round(rng.uniform(size=(2000, 48)), 2)
        X[:, 24:] = X[:, :24]
        labels = [WEAK if rng.random() < 0.3 + 0.4 * x[5] else STRONG for x in X]
        config = TrainConfig(max_depth=6)
        model = train_matrix(X, labels, names_for(X), config)
        assert all(n.feature < 24 for n in model.nodes if isinstance(n, Internal))
        reference = reference_train_matrix(X, labels, names_for(X), config)
        assert serialize_model(model) == serialize_model(reference)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_later_copies_change_nothing(self, data):
        # Bit-identical copies of columns, each inserted somewhere after
        # its source: the tree is the one grown without them, its
        # features mapped to the first copy, and the reference's.
        X, labels, config = data.draw(training_sets())
        sources = list(range(X.shape[1]))  # the source column at each position
        for _ in range(data.draw(st.integers(1, 4))):
            j = data.draw(st.integers(0, X.shape[1] - 1))
            sources.insert(data.draw(st.integers(sources.index(j) + 1, len(sources))), j)
        wide = X[:, sources]
        first = {j: sources.index(j) for j in range(X.shape[1])}
        model = train_matrix(wide, labels, names_for(wide), config)
        narrow = train_matrix(X, labels, names_for(X), config)
        assert model.nodes == tuple(
            replace(n, feature=first[n.feature]) if isinstance(n, Internal) else n
            for n in narrow.nodes
        )
        assert all(n.feature in first.values() for n in model.nodes if isinstance(n, Internal))
        reference = reference_train_matrix(wide, labels, names_for(wide), config)
        assert serialize_model(model) == serialize_model(reference)

    @pytest.mark.parametrize("collide", [False, True])
    def test_first_copies_compare_bits(self, collide):
        X = np.array([[0.0, -0.0, 0.0, 1.0, 0.0],
                      [-1.0, -1.0, -1.0, 2.0, -1.0],
                      [2.0, 2.0, 2.0, -0.0, 2.0]])
        # With every digest equal, the bitwise comparison decides alone.
        digests = (lambda X: [0] * X.shape[1]) if collide else tree._column_digests
        with mock.patch.object(tree, "_column_digests", digests):
            # Column 1 differs from 0 only in the sign of a zero: searched.
            assert tree._first_copies(X, np.arange(5)).tolist() == [0, 1, 3]
            assert tree._first_copies(X, np.array([1, 2, 4])).tolist() == [1, 2]

    def test_signed_zero_column_keeps_its_thresholds(self):
        # Column 1 is column 0 with every 0.0 negated, so it is not a
        # copy. The root splits between -1.0 and the zeros. Every
        # threshold and path must be the reference's, signs included.
        rng = np.random.default_rng(8)
        base = rng.choice([-2.0, -1.0, 0.0, 1.0], size=200)
        noise = rng.uniform(size=200)
        X = np.column_stack([base, np.where(base == 0.0, -0.0, base), noise])
        labels = [WEAK if (b < 0.0) != (r < 0.1) else STRONG for b, r in zip(base, noise)]
        assert tree._first_copies(X, np.arange(3)).tolist() == [0, 1, 2]
        model = train_matrix(X, labels, names_for(X), TrainConfig(max_depth=4))
        reference = reference_train_matrix(X, labels, names_for(X), TrainConfig(max_depth=4))
        assert serialize_model(model) == serialize_model(reference)
        assert model.paths == reference.paths
        assert model.nodes[0] == Internal(0, -0.5, 1, model.nodes[0].right)
        assert "(f0 <= -0.5)" in model.paths[1]

    def test_nan_gain_does_not_hide_block(self):
        # A zero weight makes the first candidate of column 0 divide 0 by
        # 0. As in the per-column search, column 0 then cannot win, and
        # column 1 (the same split) must, not the lower-index column 0.
        X = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0], [3.0, 1.0]])
        is_weak = np.array([False, False, True, True])
        weights = np.array([0.0, 1.0, 1.0, 1.0])
        order = np.argsort(X, axis=0, kind="stable").T.astype(np.int32)
        found = tree._best_split(X, order, np.arange(2), np.arange(4), is_weak, weights, 1)
        assert found is not None and found[0] == 1 and found[1] == 0.5

    def test_peak_memory_under_twice_the_matrix(self):
        # 6,000 x 135 like the flipped-large benchmark features: 60
        # constant columns, and one column decides the label but 10% of
        # labels are flipped, so many splits peel off a few rows.
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(6000, 135))
        X[:, 75:] = 0.25
        weak = (X[:, 0] > 0.5) ^ (rng.random(6000) < 0.1)
        labels = [WEAK if w else STRONG for w in weak]
        tracemalloc.start()
        try:
            model = train_matrix(X, labels, names_for(X))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(model.nodes) > 100
        assert peak < 2 * X.nbytes, f"peak {peak} B for a {X.nbytes} B matrix"

    def test_retrain_from_feature_csv_is_byte_identical(self):
        # What pipeline featurizes in memory and what train reads back
        # from features.csv give the same model (repr floats round-trip).
        corpus = iter_generate(SynthConfig(n_strong=150, n_weak=150, noise_sigma=0.01, seed=5))
        config = PipelineConfig()
        blocks = [
            (feature_names(record.chunk.schema, config), spans, [record.label] * len(spans), matrix)
            for block in featurize_blocks(corpus, config, batch=True)
            for record, spans, matrix in block
        ]
        buffer = io.StringIO()
        write_feature_csv(buffer, blocks)
        buffer.seek(0)
        table = read_feature_csv(buffer)
        X = np.vstack([matrix for *_, matrix in blocks])
        labels = [label for _, _, block_labels, _ in blocks for label in block_labels]
        assert table.matrix.tobytes() == X.tobytes()
        in_memory = train_matrix(X, labels, blocks[0][0])
        assert len(in_memory.nodes) > 3
        from_csv = train_matrix(table.matrix, table.labels, table.names)
        assert serialize_model(from_csv) == serialize_model(in_memory)


def names_for(X):
    return tuple(f"f{j}" for j in range(X.shape[1]))


@st.composite
def training_sets(draw):
    """Small matrices whose columns have ties, adjacent doubles
    (1 + k * 2**-52), a constant or arbitrary finite values, both
    classes, and a TrainConfig from one-row leaves to deep trees."""
    n = draw(st.integers(2, 40))
    column = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("ties", "adjacent", "constant", "real")))
        if kind == "ties":
            columns.append([float(k) for k in draw(column)])
        elif kind == "adjacent":
            columns.append([1.0 + k * 2.0 ** -52 for k in draw(column)])
        elif kind == "constant":
            columns.append([draw(st.floats(-1e3, 1e3))] * n)
        else:
            columns.append(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    weak = draw(
        st.lists(st.booleans(), min_size=n, max_size=n).filter(lambda w: any(w) and not all(w))
    )
    config = TrainConfig(
        max_depth=draw(st.integers(1, 13)),
        min_samples_leaf=draw(st.integers(1, 5)),
        min_impurity_decrease=draw(st.sampled_from((0.0, 0.01))),
        class_weighted=draw(st.booleans()),
    )
    X = np.array(columns, dtype=np.float64).T.copy()
    return X, [WEAK if w else STRONG for w in weak], config


class TestClassify:
    def test_theta_zero_everything_weak(self):
        X, labels = make_separable()
        model = train_matrix(X, labels, NAMES, TrainConfig(min_samples_leaf=1))
        p_weak = model.p_weak(model.walk(X))
        assert all(model.with_threshold(0.0).verdict(p) == WEAK for p in p_weak)

    def test_theta_above_one_everything_strong(self):
        X, labels = make_separable()
        model = train_matrix(X, labels, NAMES, TrainConfig(min_samples_leaf=1))
        keep_all = model.with_threshold(THRESHOLD_KEEP_ALL)
        assert all(keep_all.verdict(p) == STRONG for p in keep_all.p_weak(keep_all.walk(X)))

    def test_pure_weak_leaf_at_default_threshold(self):
        X, labels = make_separable()
        model = train_matrix(X, labels, NAMES, TrainConfig(min_samples_leaf=1))
        weak_row = X[[label == WEAK for label in labels]][0]
        p_weak = model.nodes[model.leaf(weak_row)].p_weak
        assert model.with_threshold(0.5).verdict(p_weak) == WEAK and p_weak == 1.0

    def test_monotone_in_theta(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(150, 3))
        labels = [WEAK if rng.random() < x[1] else STRONG for x in X]
        model = train_matrix(X, labels, NAMES)
        p_weak = model.p_weak(model.walk(X))
        previous = None
        for theta in (0.0, 0.25, 0.5, 0.75, 1.0, THRESHOLD_KEEP_ALL):
            tuned = model.with_threshold(theta)
            weak_set = {i for i, p in enumerate(p_weak) if tuned.verdict(p) == WEAK}
            if previous is not None:
                assert weak_set <= previous
            previous = weak_set


class TestTuneThreshold:
    def test_zero_budget_with_mixed_leaves_drops_nothing(self):
        X = np.ones((20, 3))  # single mixed leaf
        labels = [STRONG] * 10 + [WEAK] * 10
        model = train_matrix(X, labels, NAMES)
        is_tp = [label == STRONG for label in labels]
        with pytest.warns(NoFeasibleThreshold):
            result = tree.cut_threshold(model.p_weak(model.walk(X)), is_tp, max_tp_drop=0.0)
        assert result.fp_drop == 0.0 and result.tp_drop == 0.0
        assert result.threshold == THRESHOLD_KEEP_ALL

    def test_perfect_model_drops_all_fps(self):
        X, labels = make_separable(n=80, seed=6)
        model = train_matrix(X, labels, NAMES, TrainConfig(min_samples_leaf=1))
        is_tp = [label == STRONG for label in labels]
        result = tree.cut_threshold(model.p_weak(model.walk(X)), is_tp, max_tp_drop=0.0)
        assert result.tp_drop == 0.0 and result.fp_drop == 1.0
        assert result.threshold == 1.0  # smallest leaf p_weak above all TP leaves

    def test_constraint_is_hard(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            X = rng.uniform(size=(120, 3))
            labels = [WEAK if rng.random() < x[0] else STRONG for x in X]
            if len(set(labels)) < 2:
                continue
            model = train_matrix(X, labels, NAMES)
            is_tp = [label == STRONG for label in labels]
            budget = float(rng.choice([0.0, 0.02, 0.06, 0.2]))
            result = tree.cut_threshold(model.p_weak(model.walk(X)), is_tp, budget)
            assert result.tp_drop <= budget

    def test_tie_prefers_higher_threshold(self):
        # Two pure weak leaves with distinct p_weak=1.0? Construct leaves
        # with p_weak 0.8 and 1.0 where dropping either alone removes no TP;
        # dropping at 0.8 and at 1.0 both catch all FPs only if every FP
        # sits in the 1.0 leaf, so both thresholds tie on fp_drop.
        X = np.array([[0.0], [0.0], [1.0], [1.0], [0.5], [0.5], [0.5], [0.5], [0.5]])
        labels = [STRONG, STRONG, WEAK, WEAK, STRONG, STRONG, STRONG, STRONG, WEAK]
        model = train_matrix(X, labels, ("f0",), TrainConfig(min_samples_leaf=1))
        is_tp = [label == STRONG for label in labels]
        result = tree.cut_threshold(model.p_weak(model.walk(X)), is_tp, max_tp_drop=0.0)
        leaf_ps = sorted({leaf.p_weak for leaf in model.leaves})
        assert result.threshold == max(p for p in leaf_ps if p >= result.threshold)

    def test_needs_both_classes(self):
        X, labels = make_separable()
        model = train_matrix(X, labels, NAMES)
        with pytest.raises(SingleClassTrainingSet):
            tree.cut_threshold(model.p_weak(model.walk(X[:2])), [True, True], 0.06)

    def test_bad_budget(self):
        X, labels = make_separable()
        model = train_matrix(X, labels, NAMES)
        is_tp = [label == STRONG for label in labels]
        with pytest.raises(InvalidConfig):
            tree.cut_threshold(model.p_weak(model.walk(X)), is_tp, 1.5)

    @settings(max_examples=200, deadline=None)
    @given(
        cells=st.lists(st.tuples(st.sampled_from([0.0, 0.2, 0.5, 0.75, 1.0]), st.booleans()),
                       min_size=2, max_size=30),
        budget=st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]),
    )
    def test_cut_equals_reference(self, cells, budget):
        scores, is_tp = (list(column) for column in zip(*cells))
        if all(is_tp) or not any(is_tp):
            with pytest.raises(SingleClassTrainingSet):
                tree.cut_threshold(scores, is_tp, budget)
            return
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NoFeasibleThreshold)
            result = tree.cut_threshold(scores, is_tp, budget)
        assert (result.threshold, result.tp_drop, result.fp_drop) \
            == reference_cut_threshold(scores, is_tp, budget)
        assert (result.n_tp, result.n_fp) == (sum(is_tp), len(is_tp) - sum(is_tp))

    def test_no_scores_is_single_class(self):
        with pytest.raises(SingleClassTrainingSet):
            tree.cut_threshold(np.zeros(0), [], 0.06)

    @pytest.mark.parametrize("shape", [(39,), (41,), (40, 1), ()])
    def test_score_shape_checked(self, shape):
        is_tp = [True, False] * 20
        with pytest.raises(SchemaMismatch, match=r"\(40,\) TP flags for"):
            tree.cut_threshold(np.zeros(shape), is_tp, 0.06)


class TestExplain:
    def test_depth_one_single_predicate(self):
        X, labels = make_separable()
        model = train_matrix(X, labels, NAMES, TrainConfig(min_samples_leaf=1))
        ((feature, _, _),) = parse_decision_path(model.paths[model.leaf(X[0])])
        assert feature == "f1"

    def test_predicates_hold_for_instance(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(size=(200, 3))
        labels = [WEAK if rng.random() < x[2] else STRONG for x in X]
        model = train_matrix(X, labels, NAMES)
        for row in X[:50]:
            steps = parse_decision_path(model.paths[model.leaf(row)])
            assert steps == reference_path_steps(model, row)
            for feature, op, threshold in steps:
                value = row[NAMES.index(feature)]
                assert value <= threshold if op == "<=" else value > threshold

    def test_serialize_parse_roundtrip(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(size=(150, 3))
        labels = [WEAK if rng.random() < x[1] * 0.9 else STRONG for x in X]
        model = train_matrix(X, labels, NAMES)
        for row in X[:30]:
            text = model.paths[model.leaf(row)]
            assert text == reference_decision_path(model, row)
            assert parse_decision_path(text) == reference_path_steps(model, row)

    def test_serialized_format(self):
        X, labels = make_separable(n=60, seed=10)
        model = train_matrix(X, labels, NAMES, TrainConfig(min_samples_leaf=2))
        text = model.paths[model.leaf(X[0])]
        first, *rest = text.split("\n")
        assert first.startswith("(") and first.endswith(")")
        assert all(line.startswith("& (") for line in rest)

    def test_verdict_matches_classify(self):
        X, labels = make_separable(n=40, seed=11)
        model = train_matrix(X, labels, NAMES, TrainConfig(min_samples_leaf=1))
        for row in X:
            # No other leaf has the stored path of the leaf a row reaches,
            # so the path printed names the leaf whose verdict is printed.
            text = model.paths[model.leaf(row)]
            (leaf,) = [i for i, node in enumerate(model.nodes)
                       if isinstance(node, Leaf) and model.paths[i] == text]
            assert leaf == model.leaf(row)


# Thresholds and values on one grid, so instances often sit exactly on a
# threshold and take the "<=" side.
GRID = (-1.5, 0.0, 0.25, 1 / 3, 0.5, 1.0, 7.0)


@st.composite
def random_trees(draw):
    """A TreeModel in preorder with up to ~60 nodes over 1-6 features."""
    n_features = draw(st.integers(1, 6))
    nodes: list = []

    def grow(depth):
        index = len(nodes)
        nodes.append(None)
        if depth == 0 or draw(st.booleans()) and draw(st.booleans()):
            n_strong, n_weak = draw(st.integers(0, 9)), draw(st.integers(1, 9))
            nodes[index] = Leaf(n_strong, n_weak, n_weak / (n_strong + n_weak))
        else:
            feature = draw(st.integers(0, n_features - 1))
            threshold = draw(st.sampled_from(GRID))
            left = grow(depth - 1)
            nodes[index] = Internal(feature, threshold, left, grow(depth - 1))
        return index

    grow(draw(st.integers(0, 5)))
    names = tuple(f"Scope_f{j}_stat" for j in range(n_features))
    return TreeModel(names, tuple(nodes), draw(st.sampled_from((0.0, 0.5, 1.0))), TrainConfig())


def assert_walk_matches_oracle(model, X):
    for row in X:
        leaf, _ = reference_leaf_for(model, row)
        path = reference_decision_path(model, row)
        assert model.leaf(row) == leaf
        assert model.paths[leaf] == path


class TestCompiledWalk:
    @settings(max_examples=200, deadline=None)
    @given(random_trees(), st.integers(0, 2**32 - 1))
    def test_random_trees_match_oracle(self, model, seed):
        rng = np.random.default_rng(seed)
        X = rng.choice(GRID, size=(40, len(model.feature_names)))
        assert_walk_matches_oracle(model, X)

    def test_committed_v1_model_matches_oracle(self):
        model = load_model(fixture_path("v1_model.json"))
        config = PipelineConfig()
        records = list(iter_records(fixture_path("v1_heldout.jsonl")))
        records += list(iter_generate(SynthConfig(n_strong=150, n_weak=150, seed=15)))
        X = np.concatenate([m for block in featurize_blocks(records, config, batch=True)
                            for *_, m in block])

        def leaf_rows(i, row):
            # One row per leaf below node i, on the thresholds where "<=" holds.
            node = model.nodes[i]
            if isinstance(node, Leaf):
                return [row]
            left, right = row.copy(), row.copy()
            left[node.feature] = node.threshold
            right[node.feature] = np.nextafter(node.threshold, np.inf)
            return leaf_rows(node.left, left) + leaf_rows(node.right, right)

        X = np.vstack([X, leaf_rows(0, X[0])])
        assert_walk_matches_oracle(model, X)
        reached = {model.leaf(row) for row in X}
        assert len(reached) == len(model.leaves) == 6

    def test_trained_model_matches_oracle(self):
        rng = np.random.default_rng(14)
        X = rng.uniform(size=(300, 3))
        labels = [WEAK if rng.random() < x[0] * x[2] else STRONG for x in X]
        model = train_matrix(X, labels, NAMES, TrainConfig(min_samples_leaf=2))
        assert len(model.nodes) > 15
        assert_walk_matches_oracle(model, X)

    @pytest.mark.parametrize("nodes", [
        (Internal(0, 0.5, 0, 1), Leaf(1, 1, 0.5)),  # a loop back to the root
        (Internal(0, 0.5, 1, 5), Leaf(1, 1, 0.5)),  # a child that does not exist
        (Internal(3, 0.5, 1, 2), Leaf(1, 1, 0.5), Leaf(1, 1, 0.5)),  # no feature 3
        (),
        (Internal(0, 0.5, 1, 1), Leaf(1, 1, 0.5)),  # both children one node
        (Internal(0, 0.5, 1, 2), Internal(1, 0.5, 3, 4), Internal(1, 0.7, 3, 4),
         Leaf(1, 1, 0.5), Leaf(1, 1, 0.5)),  # two parents: which path is node 3's?
        (Leaf(1, 1, 0.5), Leaf(1, 1, 0.5)),  # a node no walk reaches
        (Leaf(1, 1, float("nan")),),  # a p_weak that is not a probability
        (Leaf(1, 1, 7.5),),
        (Leaf(-3, 1, 0.5),),  # a negative count
        (Internal(0, float("nan"), 1, 2), Leaf(1, 1, 0.5), Leaf(1, 1, 0.5)),  # no finite split
    ])
    def test_malformed_trees_rejected(self, nodes):
        with pytest.raises(SchemaMismatch):
            TreeModel(NAMES, nodes, 0.5, TrainConfig())


class TestPersistence:
    def test_roundtrip(self):
        X, labels = make_separable(n=100, seed=12)
        model = train_matrix(X, labels, NAMES)
        clone = deserialize_model(serialize_model(model))
        assert clone == model
        p_weak = model.p_weak(model.walk(X))
        assert clone.p_weak(clone.walk(X)).tolist() == p_weak.tolist()
        assert [clone.verdict(p) for p in p_weak] == [model.verdict(p) for p in p_weak]

    def test_two_runs_byte_identical(self):
        X, labels = make_separable(n=100, seed=13)
        a = serialize_model(train_matrix(X.copy(), list(labels), NAMES))
        b = serialize_model(train_matrix(X.copy(), list(labels), NAMES))
        assert a.encode() == b.encode()

    def test_schema_hash_guard(self):
        X, labels = make_separable()
        payload = json.loads(serialize_model(train_matrix(X, labels, NAMES)))
        payload["feature_names"] = ["x0", "x1", "x2"]
        with pytest.raises(SchemaMismatch):
            deserialize_model(json.dumps(payload))

    def test_version_guard(self):
        X, labels = make_separable()
        payload = json.loads(serialize_model(train_matrix(X, labels, NAMES)))
        payload["format_version"] = 99
        with pytest.raises(SchemaMismatch):
            deserialize_model(json.dumps(payload))

    def test_threshold_survives_roundtrip(self):
        X, labels = make_separable()
        model = train_matrix(X, labels, NAMES).with_threshold(0.75)
        assert deserialize_model(serialize_model(model)).decision_threshold == 0.75

    def test_featurization_read_and_written_whole(self):
        """The object is a FeatureConfig read by read_config, written back
        whole, through a threshold change too; a model without the key
        was trained under FeatureConfig()."""
        X, labels = make_separable()
        payload = json.loads(serialize_model(train_matrix(X, labels, NAMES)))
        assert payload["featurization"] == json.loads(json.dumps(asdict(FeatureConfig())))
        payload["featurization"] = {"bins": 8, "decay_rate": 2, "scopes": ["Word"]}
        model = deserialize_model(json.dumps(payload)).with_threshold(0.75)
        assert model.featurization == read_config(FeatureConfig, payload["featurization"],
                                                  "featurization")
        written = json.loads(serialize_model(model))["featurization"]
        assert written == {**asdict(FeatureConfig()), "bins": 8, "decay_rate": 2.0,
                           "scopes": ["Word"]}
        assert type(written["decay_rate"]) is float
        del payload["featurization"]
        assert deserialize_model(json.dumps(payload)).featurization == FeatureConfig()
