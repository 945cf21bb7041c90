import os

import numpy as np
import pytest

import oracles
from pclc.autodiff import Tensor
from pclc.classifier import PrototypeMatrix
from pclc.errors import PclcError, ShapeError
from pclc.evaluate import (
    SpanPrediction,
    export_prototypes,
    seen_unseen_report,
    span_f1,
)
from pclc.rng import make_rng


def _sp(*triples):
    return [SpanPrediction(s, e, t) for s, e, t in triples]


def test_perfect_predictions_score_one():
    gold = [_sp((0, 1, "artist"), (3, 3, "service"))]
    report = span_f1(gold, [list(gold[0])])
    assert report.precision == report.recall == report.f1 == 1.0


def test_one_tp_one_fp_one_fn():
    gold = [_sp((0, 0, "a"), (2, 2, "b"))]
    pred = [_sp((0, 0, "a"), (4, 4, "c"))]
    report = span_f1(gold, pred)
    assert report.precision == pytest.approx(0.5)
    assert report.recall == pytest.approx(0.5)
    assert report.f1 == pytest.approx(0.5)


def test_boundary_or_type_mismatch_is_not_tp():
    gold = [_sp((0, 1, "a"))]
    assert span_f1(gold, [_sp((0, 0, "a"))]).f1 == 0.0  # boundary off
    assert span_f1(gold, [_sp((0, 1, "b"))]).f1 == 0.0  # type off


def test_zero_denominator_convention():
    report = span_f1([[]], [[]])
    assert report.precision == report.recall == report.f1 == 0.0


def test_overlapping_predictions_error():
    gold = [_sp((0, 1, "a"))]
    pred = [_sp((0, 1, "a"), (1, 2, "b"))]
    with pytest.raises(ShapeError):
        span_f1(gold, pred)


def test_length_mismatch_errors():
    with pytest.raises(ShapeError):
        span_f1([[]], [[], []])


def _random_prediction_sets(rng, n_utts=20):
    slots = ["a", "b", "c"]
    gold, pred = [], []
    for _ in range(n_utts):
        g, p = [], []
        cursor = 0
        while cursor < 8 and rng.random() < 0.7:
            length = int(rng.integers(1, 3))
            g.append(SpanPrediction(cursor, cursor + length - 1, slots[rng.integers(3)]))
            cursor += length + int(rng.integers(1, 3))
        cursor = 0
        while cursor < 8 and rng.random() < 0.7:
            length = int(rng.integers(1, 3))
            p.append(SpanPrediction(cursor, cursor + length - 1, slots[rng.integers(3)]))
            cursor += length + int(rng.integers(1, 3))
        gold.append(g)
        pred.append(p)
    return gold, pred


def test_span_f1_matches_reference_scorer():
    rng = make_rng(0)
    for _ in range(50):
        gold, pred = _random_prediction_sets(rng)
        report = span_f1(gold, pred)
        (tp, fp, fn), per_type = oracles.reference_span_counts(gold, pred)
        assert sum(c.tp for c in report.per_type.values()) == tp
        assert sum(c.fp for c in report.per_type.values()) == fp
        assert sum(c.fn for c in report.per_type.values()) == fn
        for slot, (rtp, rfp, rfn) in per_type.items():
            c = report.per_type[slot]
            assert (c.tp, c.fp, c.fn) == (rtp, rfp, rfn)


def test_span_f1_symmetric_under_utterance_permutation():
    rng = make_rng(1)
    gold, pred = _random_prediction_sets(rng)
    report_a = span_f1(gold, pred)
    order = rng.permutation(len(gold))
    report_b = span_f1([gold[i] for i in order], [pred[i] for i in order])
    assert report_a.f1 == report_b.f1
    assert report_a.precision == report_b.precision


def test_micro_f1_reproducible_from_per_type_counts():
    rng = make_rng(2)
    gold, pred = _random_prediction_sets(rng)
    report = span_f1(gold, pred)
    tp = sum(c.tp for c in report.per_type.values())
    fp = sum(c.fp for c in report.per_type.values())
    fn = sum(c.fn for c in report.per_type.values())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    assert report.f1 == pytest.approx(f1, abs=1e-15)


# ---------------------------------------------------------------------------
# seen / unseen groups


def test_groups_partition_counts_exactly():
    gold = [_sp((0, 0, "seen_a"), (2, 2, "unseen_b"))] * 3
    pred = [_sp((0, 0, "seen_a"), (2, 2, "seen_c"))] * 3
    report = span_f1(gold, pred)
    report = seen_unseen_report(report, ["seen_a", "seen_c"], ["unseen_b"])
    s, u = report.group_counts(["seen_a", "seen_c"]), report.group_counts(["unseen_b"])
    total_tp = sum(c.tp for c in report.per_type.values())
    total_fp = sum(c.fp for c in report.per_type.values())
    total_fn = sum(c.fn for c in report.per_type.values())
    assert s.tp + u.tp == total_tp
    assert s.fp + u.fp == total_fp
    assert s.fn + u.fn == total_fn
    # the wrong-type prediction is seen_c: its FP lands in the seen group
    assert s.fp == 3
    assert u.fp == 0
    assert u.fn == 3


def test_empty_unseen_group_reports_zero():
    gold = [_sp((0, 0, "a"))]
    report = seen_unseen_report(span_f1(gold, gold), ["a"], ["never_predicted"])
    assert report.seen_f1 == 1.0
    assert report.unseen_f1 == 0.0
    assert report.group_counts(["never_predicted"]).tp == 0


def test_perfect_predictions_both_groups_one():
    gold = [_sp((0, 0, "a"), (2, 2, "u"))]
    report = seen_unseen_report(span_f1(gold, gold), ["a"], ["u"])
    assert report.seen_f1 == 1.0
    assert report.unseen_f1 == 1.0


def test_slot_outside_both_groups_errors():
    gold = [_sp((0, 0, "mystery"))]
    with pytest.raises(PclcError):
        seen_unseen_report(span_f1(gold, gold), ["a"], ["u"])


def test_report_kv_lines_include_groups_and_counts():
    gold = [_sp((0, 0, "a"), (2, 2, "u"))]
    report = seen_unseen_report(span_f1(gold, gold), ["a"], ["u"])
    lines = report.to_kv_lines()
    assert any(line.startswith("seen_f1=") for line in lines)
    assert any(line.startswith("unseen_f1=") for line in lines)
    assert "type.a.tp=1" in lines


# ---------------------------------------------------------------------------
# prototype export


def _tiny_protos():
    matrix = np.array([[0.1, -0.25], [1.5, 2.0], [-3.125, 0.0]])
    return PrototypeMatrix(
        matrix=Tensor(matrix),
        source_labels=["s0", "s1"],
        target_labels=["t0"],
        target_domain="tgt",
        slots_of={"src": ["s0", "s1"], "tgt": ["t0"]},
    )


def test_export_prototypes_format(tmp_path):
    path = os.path.join(tmp_path, "protos.tsv")
    export_prototypes(_tiny_protos(), path)
    with open(path) as fh:
        rows = [line.rstrip("\n").split("\t") for line in fh]
    assert len(rows) == 3
    assert all(len(r) == 4 for r in rows)
    assert rows[0][:2] == ["s0", "source"]
    assert rows[2][:2] == ["t0", "target"]


def test_export_prototypes_deterministic_bytes(tmp_path):
    p1 = os.path.join(tmp_path, "a.tsv")
    p2 = os.path.join(tmp_path, "b.tsv")
    export_prototypes(_tiny_protos(), p1)
    export_prototypes(_tiny_protos(), p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_export_prototypes_round_trip_exact(tmp_path):
    protos = _tiny_protos()
    rng_matrix = make_rng(3).uniform(-10, 10, (3, 2))
    protos.matrix = Tensor(rng_matrix)
    path = os.path.join(tmp_path, "protos.tsv")
    export_prototypes(protos, path)
    labels, blocks, matrix = oracles.read_prototype_export(path)
    assert labels == ["s0", "s1", "t0"]
    assert blocks == ["source", "source", "target"]
    assert np.array_equal(matrix, rng_matrix)  # repr() round-trips float64 exactly
