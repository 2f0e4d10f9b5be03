import io
import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nrfilter import (
    STRONG,
    iter_records,
    WEAK,
    PipelineConfig,
    SynthConfig,
    build_feature_schema,
    classify,
    decode_spans,
    deserialize_model,
    explain,
    featurize_chunk,
    featurize_records,
    iter_generate,
    serialize_model,
    train_matrix,
    tune_threshold,
)
from nrfilter import tree
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
            verdict, _ = classify(model, row)
            assert verdict == label

    def test_constant_features_single_leaf(self):
        X = np.ones((20, 3))
        labels = [STRONG] * 14 + [WEAK] * 6
        model = train_matrix(X, labels, NAMES)
        assert len(model.nodes) == 1
        leaf = model.nodes[0]
        assert isinstance(leaf, Leaf)
        assert (leaf.n_strong, leaf.n_weak) == (14, 6)
        verdict, p_weak = classify(model, np.ones(3))
        assert verdict == STRONG and p_weak == pytest.approx(0.3)

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
            assert len(parse_decision_path(explain(model, row))) <= 3

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
        X = np.vstack([featurize_chunk(r.chunk, decode_spans(r.chunk)) for r in records])
        labels = [sentence1.label, sentence2.label]
        names = build_feature_schema(sentence1.chunk.schema).names
        model = train_matrix(X, labels, names, TrainConfig(min_samples_leaf=1))
        for row, label in zip(X, labels):
            assert classify(model, row)[0] == label

    def test_schema_mismatch_between_rows(self, sentence1):
        (row,) = featurize_chunk(sentence1.chunk, decode_spans(sentence1.chunk))
        X = np.vstack([row, row])
        model = train_matrix(X, [STRONG, WEAK], build_feature_schema(sentence1.chunk.schema).names,
                             TrainConfig(min_samples_leaf=1))
        with pytest.raises(SchemaMismatch):
            classify(model, np.ones(3))


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
        blocks = [
            (schema.names, spans, [record.label] * len(spans), matrix)
            for record, spans, schema, matrix in featurize_records(corpus, PipelineConfig())
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
        assert all(classify(model.with_threshold(0.0), row)[0] == WEAK for row in X)

    def test_theta_above_one_everything_strong(self):
        X, labels = make_separable()
        model = train_matrix(X, labels, NAMES, TrainConfig(min_samples_leaf=1))
        keep_all = model.with_threshold(THRESHOLD_KEEP_ALL)
        assert all(classify(keep_all, row)[0] == STRONG for row in X)

    def test_pure_weak_leaf_at_default_threshold(self):
        X, labels = make_separable()
        model = train_matrix(X, labels, NAMES, TrainConfig(min_samples_leaf=1))
        weak_row = X[[label == WEAK for label in labels]][0]
        verdict, p_weak = classify(model.with_threshold(0.5), weak_row)
        assert verdict == WEAK and p_weak == 1.0

    def test_monotone_in_theta(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(size=(150, 3))
        labels = [WEAK if rng.random() < x[1] else STRONG for x in X]
        model = train_matrix(X, labels, NAMES)
        previous = None
        for theta in (0.0, 0.25, 0.5, 0.75, 1.0, THRESHOLD_KEEP_ALL):
            tuned = model.with_threshold(theta)
            weak_set = {i for i, row in enumerate(X) if classify(tuned, row)[0] == WEAK}
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
            result = tune_threshold(model, X, is_tp, max_tp_drop=0.0)
        assert result.fp_drop == 0.0 and result.tp_drop == 0.0
        assert result.threshold == THRESHOLD_KEEP_ALL

    def test_perfect_model_drops_all_fps(self):
        X, labels = make_separable(n=80, seed=6)
        model = train_matrix(X, labels, NAMES, TrainConfig(min_samples_leaf=1))
        is_tp = [label == STRONG for label in labels]
        result = tune_threshold(model, X, is_tp, max_tp_drop=0.0)
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
            result = tune_threshold(model, X, is_tp, budget)
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
        result = tune_threshold(model, X, is_tp, max_tp_drop=0.0)
        leaf_ps = sorted({leaf.p_weak for leaf in model.leaves})
        assert result.threshold == max(p for p in leaf_ps if p >= result.threshold)

    def test_needs_both_classes(self):
        X, labels = make_separable()
        model = train_matrix(X, labels, NAMES)
        with pytest.raises(SingleClassTrainingSet):
            tune_threshold(model, X[:2], [True, True], 0.06)

    def test_bad_budget(self):
        X, labels = make_separable()
        model = train_matrix(X, labels, NAMES)
        is_tp = [label == STRONG for label in labels]
        with pytest.raises(InvalidConfig):
            tune_threshold(model, X, is_tp, 1.5)

    @pytest.mark.parametrize("shape", [(39, 3), (40, 2), (40,), (40, 3, 1)])
    def test_matrix_shape_checked(self, shape):
        X, labels = make_separable()
        model = train_matrix(X, labels, NAMES)
        is_tp = [label == STRONG for label in labels]
        assert X.shape == (40, 3)
        with pytest.raises(SchemaMismatch, match=r"is not \(40, 3\)"):
            tune_threshold(model, np.zeros(shape), is_tp)


class TestExplain:
    def test_depth_one_single_predicate(self):
        X, labels = make_separable()
        model = train_matrix(X, labels, NAMES, TrainConfig(min_samples_leaf=1))
        ((feature, _, _),) = parse_decision_path(explain(model, X[0]))
        assert feature == "f1"

    def test_predicates_hold_for_instance(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(size=(200, 3))
        labels = [WEAK if rng.random() < x[2] else STRONG for x in X]
        model = train_matrix(X, labels, NAMES)
        for row in X[:50]:
            steps = parse_decision_path(explain(model, row))
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
            text = explain(model, row)
            assert text == reference_decision_path(model, row)
            assert parse_decision_path(text) == reference_path_steps(model, row)

    def test_serialized_format(self):
        X, labels = make_separable(n=60, seed=10)
        model = train_matrix(X, labels, NAMES, TrainConfig(min_samples_leaf=2))
        text = explain(model, X[0])
        first, *rest = text.split("\n")
        assert first.startswith("(") and first.endswith(")")
        assert all(line.startswith("& (") for line in rest)

    def test_verdict_matches_classify(self):
        X, labels = make_separable(n=40, seed=11)
        model = train_matrix(X, labels, NAMES, TrainConfig(min_samples_leaf=1))
        for row in X:
            # The one leaf whose stored path explain returns is the leaf
            # whose verdict and p_weak classify reports.
            text = explain(model, row)
            (leaf,) = [i for i, node in enumerate(model.nodes)
                       if isinstance(node, Leaf) and model.paths[i] == text]
            p_weak = model.nodes[leaf].p_weak
            assert classify(model, row) == (model.verdict(p_weak), p_weak)


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
        p_weak = model.nodes[leaf].p_weak
        assert classify(model, row) == (model.verdict(p_weak), p_weak)
        assert model.paths[leaf] == explain(model, row) == path


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
        X = np.concatenate([m for *_, m in featurize_records(records, config, batch=True)])

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
        for row in X:
            assert classify(clone, row) == classify(model, row)

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

    def test_featurization_kept_as_read(self):
        """The object round-trips as read, through a threshold change too;
        the tree does not interpret it. Without the key it reads as {}."""
        X, labels = make_separable()
        payload = json.loads(serialize_model(train_matrix(X, labels, NAMES)))
        assert payload["featurization"] == {}
        payload["featurization"] = {"bins": 8, "anything": [1, "a"]}
        model = deserialize_model(json.dumps(payload)).with_threshold(0.75)
        assert json.loads(serialize_model(model))["featurization"] == payload["featurization"]
        del payload["featurization"]
        assert deserialize_model(json.dumps(payload)).featurization == {}
