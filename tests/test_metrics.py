import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from covox.metrics import (
    Detection,
    _may_overlap,
    average_precision,
    clip_polygon,
    iou_table,
    match_detections,
    polygon_area,
    pr_curve,
    recall_at,
)

from oracles import all_pairs_match, clip_polygon_of_vectors, rotated_iou, scores_of_matching


def box(cx, cy, yaw=0.0, l=1.0, w=1.0, score=1.0):
    return Detection(center=(cx, cy), yaw=yaw, extent=(l, w), score=score)


def iou_of(a, b):
    """The IoU of one pair as the program scores it: a 1 x 1 `iou_table`."""
    return iou_table([a], [b])[0, 0]


def ap(dets, gts, iou_thresh):
    return average_precision(dets, iou_table(dets, gts), iou_thresh)


def assert_clip_matches_vectors(subject, clipper):
    got, want = clip_polygon(subject, clipper), clip_polygon_of_vectors(subject, clipper)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    return got


def radius(b):
    return float(np.hypot(*b.extent)) / 2.0


def placed_near(gt, phi, gap, corner, l, w, yaw, score):
    """A box whose circumscribed circle sits `gap` (relative to the summed
    radii) beyond tangency with gt's, in direction phi. With `corner` the
    direction is that of one of gt's corners and the new box points a corner
    back at it, the layout where near-tangent circles bring boxes closest."""
    r = float(np.hypot(l, w)) / 2.0
    dist = (radius(gt) + r) * (1.0 + gap)
    if corner:
        phi = gt.yaw + np.arctan2(gt.extent[1], gt.extent[0])
        yaw = phi + np.pi - np.arctan2(w, l)
    center = (gt.center[0] + dist * np.cos(phi), gt.center[1] + dist * np.sin(phi))
    return Detection(center, yaw, (l, w), score)

yaws = st.floats(-np.pi, np.pi)
sizes = st.floats(0.2, 5.0)
scores = st.sampled_from([0.2, 0.5, 0.5, 0.9])  # repeats give tied scores
gaps = st.sampled_from([-0.3, -1e-3, -1e-6, -1e-12, 0.0, 1e-15, 1e-12, 1e-9, 1e-6, 0.2])


@st.composite
def box_sets(draw):
    gts = [
        Detection(
            (draw(st.floats(-8, 8)), draw(st.floats(-8, 8))),
            draw(yaws), (draw(sizes), draw(sizes)), draw(scores),
        )
        for _ in range(draw(st.integers(0, 15)))
    ]
    dets = []
    for _ in range(draw(st.integers(0, 15))):
        l, w, yaw, score = draw(sizes), draw(sizes), draw(yaws), draw(scores)
        if gts and draw(st.booleans()):
            gt = gts[draw(st.integers(0, len(gts) - 1))]
            if draw(st.booleans()):
                dets.append(placed_near(gt, draw(yaws), draw(gaps), draw(st.booleans()),
                                        l, w, yaw, score))
            else:  # a jittered copy, so that real matches happen
                dx, dy = draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5))
                dets.append(Detection((gt.center[0] + dx, gt.center[1] + dy),
                                      gt.yaw + draw(st.floats(-0.3, 0.3)), gt.extent, score))
        else:
            dets.append(Detection((draw(st.floats(-8, 8)), draw(st.floats(-8, 8))),
                                  yaw, (l, w), score))
    return dets, gts


class TestRotatedIou:
    def test_identical_boxes(self):
        b = box(1.0, 2.0, yaw=0.4, l=3.0, w=1.5)
        assert abs(iou_of(b, b) - 1.0) < 1e-9

    def test_disjoint_boxes(self):
        assert iou_of(box(0, 0), box(5, 5)) == 0.0

    def test_corners_nearly_touching(self):
        # Clipping leaves three nearly equal vertices, and the shoelace sum
        # at coordinates ~20 a 1e-14 area; the boxes' circles do not meet.
        a = Detection((8.59042826941294, -19.58608805542159), 0.2500489067040368,
                      (2.3960123157460025, 0.4546562740004104))
        b = Detection((11.298235877394017, -18.319318387779685), 2.4742523238713225,
                      (1.5902813648598224, 3.1628812379934255))
        assert iou_of(a, b) == 0.0 and iou_of(b, a) == 0.0

    def test_half_overlap_unit_squares(self):
        iou = iou_of(box(0, 0), box(0.5, 0))
        assert abs(iou - 1.0 / 3.0) < 1e-9

    def test_symmetry(self, rng):
        for _ in range(50):
            a = box(*rng.uniform(-2, 2, 2), rng.uniform(-3, 3), 2.0, 1.0)
            b = box(*rng.uniform(-2, 2, 2), rng.uniform(-3, 3), 1.5, 1.2)
            assert abs(iou_of(a, b) - iou_of(b, a)) < 1e-12

    def test_rotation_equivariance(self, rng):
        for _ in range(30):
            a = box(*rng.uniform(-2, 2, 2), rng.uniform(-3, 3), 2.0, 1.0)
            b = box(*rng.uniform(-2, 2, 2), rng.uniform(-3, 3), 1.5, 1.2)
            theta = rng.uniform(-np.pi, np.pi)
            c, s = np.cos(theta), np.sin(theta)

            def rot(d):
                x = c * d.center[0] - s * d.center[1]
                y = s * d.center[0] + c * d.center[1]
                return Detection((x, y), d.yaw + theta, d.extent, d.score)

            assert abs(iou_of(a, b) - iou_of(rot(a), rot(b))) < 1e-9

    @given(
        st.floats(-3, 3), st.floats(-3, 3), st.floats(-np.pi, np.pi),
        st.floats(0.2, 4), st.floats(0.2, 4),
    )
    @settings(max_examples=80, deadline=None)
    def test_iou_bounded(self, cx, cy, yaw, l, w):
        a = box(0, 0, 0.3, 2.0, 1.0)
        b = box(cx, cy, yaw, l, w)
        iou = iou_of(a, b)
        assert 0.0 <= iou <= 1.0


class TestPolygonOps:
    def test_area_unit_square(self):
        sq = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        assert polygon_area(sq) == 1.0

    def test_clip_contained(self):
        inner = np.array([[0.2, 0.2], [0.8, 0.2], [0.8, 0.8], [0.2, 0.8]])
        outer = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        clipped = clip_polygon(inner, outer)
        assert abs(polygon_area(clipped) - 0.36) < 1e-12

    def test_clip_disjoint_empty(self):
        a = np.array([[2, 2], [3, 2], [3, 3], [2, 3]], dtype=float)
        b = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
        assert clip_polygon(a, b).shape[0] == 0

    # Disjoint boxes with an edge of one collinear with an edge of the other.
    # The clip used to divide by ~0 there and put a vertex far off the
    # subject, for an IoU of 3.3e-17 in place of 0.0.
    COLLINEAR = (
        Detection((1.306082156351531, 0.7135159339553883), 0.5, (0.5, 0.5)),
        Detection((0, 0), 0.5, (1.1753233310131732, 0.5)),
    )
    # Equal boxes side by side: the shared edge zeroed the denominator.
    TOUCHING = (
        Detection((-0.05707662003021707, 4.906793631068826), 0.5, (2.0, 2.0)),
        Detection((-1.9, 3.9), 0.5, (2.0, 2.0)),
    )

    def test_clip_collinear_disjoint_boxes_is_empty(self):
        a, b = self.COLLINEAR
        assert clip_polygon(a.corners(), b.corners()).shape[0] == 0
        assert clip_polygon(b.corners(), a.corners()).shape[0] == 0
        assert iou_of(a, b) == 0.0 and iou_of(b, a) == 0.0

    def test_edge_sharing_boxes_have_zero_iou(self):
        # The boxes share a long edge and the clip is that segment, with
        # coordinates near 3; a shoelace over absolute coordinates gave it
        # an area of 3.6e-15, for an IoU of 1.8e-15.
        a = Detection((2.9, 2.9), 1.0471975511965976, (0.5, 2.0))
        b = Detection((3.15, 3.333012701892219), 1.0471975511965976, (0.5, 2.0))
        assert polygon_area(clip_polygon(a.corners(), b.corners())) == 0.0
        assert iou_of(a, b) == 0.0 and iou_of(b, a) == 0.0

    def test_clip_vertices_stay_on_the_subject(self):
        for a, b in (self.COLLINEAR, self.TOUCHING):
            for subject, clipper in ((a, b), (b, a)):
                corners = subject.corners()
                out = clip_polygon(corners, clipper.corners())
                assert np.all(np.isfinite(out))
                assert np.all(out >= corners.min(axis=0) - 1e-12)
                assert np.all(out <= corners.max(axis=0) + 1e-12)
                assert polygon_area(out) < 1e-12


class TestClipMatchesVectors:
    @given(box_sets())
    @settings(max_examples=200, deadline=None)
    def test_box_pairs(self, boxes):
        dets, gts = boxes
        for d in dets:
            for g in gts:
                assert_clip_matches_vectors(d.corners(), g.corners())

    @pytest.mark.parametrize(
        "subject",
        [
            [[1.0, -0.5], [2.0, -0.5], [2.0, 0.5], [1.0, 0.5]],  # an edge on x = 1
            [[1.0, 0.0], [2.0, 1.5], [0.0, 1.5]],  # a vertex on x = 1, the rest across y = 1
            [[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]],  # every vertex on an edge
            [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]],  # the clipper itself
            [[0.5, 1.0], [0.5, 2.0], [-0.5, 2.0]],  # one vertex on y = 1, outside otherwise
        ],
    )
    def test_subject_vertex_on_a_clip_edge(self, subject):
        clipper = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
        assert_clip_matches_vectors(np.array(subject), clipper)
        assert_clip_matches_vectors(clipper, np.array(subject))

    def test_rotated_corner_on_an_edge(self):
        a = box(0.0, 0.0, 0.0, 2.0, 2.0)
        b = Detection((1.0 + np.sqrt(0.5), 0.0), np.pi / 4, (1.0, 1.0))
        for subject, clipper in ((a, b), (b, a)):
            assert_clip_matches_vectors(subject.corners(), clipper.corners())


class TestAveragePrecision:
    def test_perfect_detections(self):
        gts = [box(0, 0), box(5, 5)]
        dets = [box(0, 0, score=0.9), box(5, 5, score=0.8)]
        assert ap(dets, gts, 0.5) == 1.0

    def test_no_detections(self):
        assert ap([], [box(0, 0)], 0.5) == 0.0

    def test_correct_first_gives_full_ap(self):
        gts = [box(0, 0)]
        dets = [box(0, 0, score=0.9), box(5, 5, score=0.8)]
        assert ap(dets, gts, 0.5) == 1.0

    def test_correct_second_gives_half_ap(self):
        gts = [box(0, 0)]
        dets = [box(5, 5, score=0.9), box(0, 0, score=0.8)]
        assert ap(dets, gts, 0.5) == 0.5

    def test_threshold_ordering_random_sets(self, rng):
        for _ in range(100):
            n_gt = int(rng.integers(1, 6))
            gts = [box(*rng.uniform(-8, 8, 2), rng.uniform(-3, 3), 2.0, 1.0) for _ in range(n_gt)]
            dets = []
            for g in gts:
                if rng.uniform() < 0.8:
                    dx, dy = rng.uniform(-0.6, 0.6, 2)
                    dets.append(
                        Detection(
                            (g.center[0] + dx, g.center[1] + dy),
                            g.yaw + rng.uniform(-0.2, 0.2),
                            g.extent,
                            float(rng.uniform(0.1, 1.0)),
                        )
                    )
            for _ in range(int(rng.integers(0, 4))):
                dets.append(box(*rng.uniform(-8, 8, 2), 0.0, 2.0, 1.0, float(rng.uniform(0.1, 1.0))))
            ap50 = ap(dets, gts, 0.5)
            ap70 = ap(dets, gts, 0.7)
            assert 0.0 <= ap70 <= ap50 <= 1.0

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            ap([], [], 1.0)

    def test_score_ties_break_by_insertion_order(self):
        gts = [box(0, 0)]
        hit_first = [box(0, 0, score=0.5), box(9, 9, score=0.5)]
        miss_first = [box(9, 9, score=0.5), box(0, 0, score=0.5)]
        assert ap(hit_first, gts, 0.5) == 1.0
        assert ap(miss_first, gts, 0.5) == 0.5


class TestPrCurveAndRecall:
    def test_recall_non_decreasing(self, rng):
        gts = [box(*rng.uniform(-5, 5, 2)) for _ in range(4)]
        dets = [box(*rng.uniform(-5, 5, 2), score=float(rng.uniform())) for _ in range(10)]
        curve = pr_curve(dets, iou_table(dets, gts), 0.3)
        recalls = [r for r, _ in curve]
        assert recalls == sorted(recalls)

    def test_recall_at(self):
        gts = [box(0, 0), box(5, 5)]
        dets = [box(0, 0, score=0.9)]
        assert recall_at(dets, iou_table(dets, gts), 0.5) == 0.5
        assert recall_at([], iou_table([], gts), 0.5) == 0.0


class TestMatchingPrefilter:
    @given(box_sets(), st.sampled_from([0.3, 0.5, 0.7]))
    @example(([], []), 0.5)
    @example(([], [box(0, 0)]), 0.5)
    @example(([box(0, 0), box(1, 1, score=2.0)], []), 0.5)
    @settings(max_examples=300, deadline=None)
    def test_matches_all_pairs_oracle(self, boxes, thresh):
        """The matching read from one IoU table equals that of matching
        that scores every pair afresh."""
        dets, gts = boxes
        ious = iou_table(dets, gts)
        assert ious.shape == (len(dets), len(gts))
        tp, order = match_detections(dets, ious, thresh)
        tp_ref, order_ref = all_pairs_match(dets, gts, thresh)
        assert np.array_equal(tp, tp_ref)
        assert order == order_ref

    @given(box_sets())
    @settings(max_examples=200, deadline=None)
    def test_prefilter_keeps_every_overlapping_pair(self, boxes):
        dets, gts = boxes
        near = _may_overlap(dets, gts)
        assert near.shape == (len(dets), len(gts))
        for i, d in enumerate(dets):
            for j, g in enumerate(gts):
                if rotated_iou(d, g) > 0.0:
                    assert near[i, j]

    @given(
        st.floats(-30, 30), st.floats(-30, 30), yaws, sizes, sizes,
        yaws, st.sampled_from([0.0, 1e-16, 1e-12, 1e-6, 0.5]), st.booleans(),
        st.sampled_from([None, 0.0, np.pi / 2]), yaws, sizes, sizes,
    )
    @settings(max_examples=400, deadline=None)
    def test_disjoint_circumscribed_circles_give_no_overlap(
        self, cx, cy, yaw_a, l_a, w_a, phi, gap, corner, turn, yaw_b, l_b, w_b
    ):
        """Boxes whose circles do not meet get an IoU of exactly 0.0, also
        where corners nearly touch or where an edge of one box is collinear
        with an edge of the other: a `turn` puts a copy of a on a's long (0)
        or short (pi/2) axis."""
        a = Detection((cx, cy), yaw_a, (l_a, w_a))
        if turn is not None:
            phi, corner, yaw_b, (l_b, w_b) = yaw_a + turn, False, yaw_a, a.extent
        b = placed_near(a, phi, gap, corner, l_b, w_b, yaw_b, 1.0)
        dist = np.hypot(b.center[0] - a.center[0], b.center[1] - a.center[1])
        if dist > radius(a) + radius(b):
            assert not _may_overlap([a], [b])[0, 0]
            assert iou_of(a, b) == 0.0
            assert iou_of(b, a) == 0.0

    def test_empty_inputs(self):
        tp, order = match_detections([], iou_table([], [box(0, 0)]), 0.5)
        assert tp.shape == (0,) and order == []
        dets = [box(0, 0), box(1, 1, score=2.0)]
        tp, order = match_detections(dets, iou_table(dets, []), 0.5)
        assert not tp.any() and order == [1, 0]

    @pytest.mark.parametrize("thresh", [0.0, 1.0, 1.5, -0.2])
    def test_recall_at_rejects_threshold(self, thresh):
        with pytest.raises(ValueError):
            recall_at([box(0, 0)], np.ones((1, 1)), thresh)

    @pytest.mark.parametrize("thresh", [0.0, 1.0, 1.5, -0.2])
    def test_pr_curve_rejects_threshold(self, thresh):
        with pytest.raises(ValueError):
            pr_curve([box(0, 0)], np.ones((1, 1)), thresh)

    @pytest.mark.parametrize(
        "ious",
        [np.ones((2, 1)), np.ones((0, 1)), np.ones(1), np.ones((1, 1, 1)), np.float64(1.0)],
    )
    def test_match_rejects_a_table_of_another_shape(self, ious):
        with pytest.raises(ValueError, match="table"):
            match_detections([box(0, 0)], ious, 0.5)


class TestScoresFromOneTable:
    """Every score read from one IoU table equals that of the boxes matched
    afresh at its threshold, and the table holds the IoU of every pair as
    one pair alone scores it."""

    @given(box_sets(), st.sampled_from([0.3, 0.5, 0.7]))
    @example(([], []), 0.5)
    @example(([], [box(0, 0)]), 0.5)
    @example(([box(0, 0), box(1, 1, score=2.0)], []), 0.5)
    @settings(max_examples=300, deadline=None)
    def test_matches_per_threshold_oracle(self, boxes, thresh):
        dets, gts = boxes
        ious = iou_table(dets, gts)
        tp_ref, _ = all_pairs_match(dets, gts, thresh)
        curve, ap_ref, recall_ref = scores_of_matching(tp_ref, len(gts))
        assert pr_curve(dets, ious, thresh) == curve
        assert average_precision(dets, ious, thresh) == ap_ref
        assert recall_at(dets, ious, thresh) == recall_ref

    @given(box_sets())
    @settings(max_examples=100, deadline=None)
    def test_table_equals_scoring_every_pair(self, boxes):
        dets, gts = boxes
        ious = iou_table(dets, gts)
        for i, d in enumerate(dets):
            for j, g in enumerate(gts):
                assert ious[i, j] == rotated_iou(d, g)
