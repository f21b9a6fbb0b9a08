import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covox import scene
from covox.geometry import (
    CameraIntrinsics,
    Pose,
    compose,
    invert,
    pixel_rays,
    planar_parts,
    project_points,
    transform_points,
)
from covox.metrics import Detection
from covox.scene import (
    DEFAULT_CAMERA_MOUNT,
    DEFAULT_LIDAR_MOUNT,
    AgentState,
    BoxObject,
    GenerationFailure,
    LidarSpec,
    ScenarioConfig,
    SensorAbsent,
    Wall,
    generate_scene,
    lidar_rng,
    raycast,
    simulate_camera,
    simulate_lidar,
)

from oracles import equivalent, oracle_raycast

INTR = CameraIntrinsics(70.0, 70.0, 48.0, 32.0, 96, 64)


def still_agent(x=0.0, y=0.0, yaw=0.0, **kw) -> AgentState:
    pose = Pose.from_planar(x, y, yaw)
    return AgentState(0, pose, pose, **kw)


NAN = float("nan")
INF = float("inf")


# Each constructor with one size, range or sigma set to NaN, which passes a
# `<= 0` or `< 0` check.
@pytest.mark.parametrize(
    "build",
    [
        lambda: Detection((0.0, 0.0), 0.0, (NAN, 1.0)),
        lambda: Detection((0.0, 0.0), 0.0, (1.0, NAN)),
        lambda: BoxObject((0.0, 0.0), 0.0, (1.0, 1.0, NAN)),
        lambda: Wall((0.0, 0.0), (1.0, 0.0), NAN),
        lambda: LidarSpec(max_range=NAN),
        lambda: CameraIntrinsics(NAN, 70.0, 48.0, 32.0, 96, 64),
        lambda: CameraIntrinsics(70.0, NAN, 48.0, 32.0, 96, 64),
        lambda: ScenarioConfig(pose_noise_sigma_xy=NAN),
        lambda: ScenarioConfig(pose_noise_sigma_yaw=NAN),
        lambda: ScenarioConfig(comm_range=NAN),
    ],
    ids=[
        "Detection.length", "Detection.width", "BoxObject.height", "Wall.height",
        "LidarSpec.max_range", "CameraIntrinsics.fx", "CameraIntrinsics.fy",
        "ScenarioConfig.pose_noise_sigma_xy", "ScenarioConfig.pose_noise_sigma_yaw",
        "ScenarioConfig.comm_range",
    ],
)
def test_nan_size_is_rejected(build):
    with pytest.raises(ValueError):
        build()


def test_infinite_sizes_are_kept():
    assert LidarSpec(max_range=INF).max_range == INF
    assert ScenarioConfig(comm_range=INF).comm_range == INF
    assert Wall((0.0, 0.0), (1.0, 0.0), INF).height == INF
    assert BoxObject((0.0, 0.0), 0.0, (1.0, 1.0, INF)).extent[2] == INF
    assert LidarSpec(range_noise_sigma=INF).range_noise_sigma == INF
    assert ScenarioConfig(pose_noise_sigma_xy=INF, pose_noise_sigma_yaw=INF).pose_noise_sigma_yaw == INF


# Fields that `load_experiment` rejects: a sigma that is NaN or negative,
# and a coordinate that is not finite.
@pytest.mark.parametrize(
    "build",
    [
        lambda: ScenarioConfig(pose_noise_sigma_xy=NAN),
        lambda: ScenarioConfig(pose_noise_sigma_xy=-1.0),
        lambda: ScenarioConfig(pose_noise_sigma_yaw=NAN),
        lambda: ScenarioConfig(pose_noise_sigma_yaw=-1.0),
        lambda: LidarSpec(range_noise_sigma=NAN),
        lambda: LidarSpec(range_noise_sigma=-1.0),
        lambda: Wall((NAN, 0.0), (1.0, 0.0), 1.0),
        lambda: Wall((0.0, 0.0), (1.0, INF), 1.0),
        lambda: Wall((0.0, 0.0), (1.0, 0.0), 1.0, z0=NAN),
        lambda: Wall((0.0, 0.0), (1.0, 0.0), 1.0, z0=-INF),
        lambda: CameraIntrinsics(70.0, 70.0, NAN, 32.0, 96, 64),
        lambda: CameraIntrinsics(70.0, 70.0, 48.0, INF, 96, 64),
    ],
    ids=[
        "sigma_xy-nan", "sigma_xy-negative", "sigma_yaw-nan", "sigma_yaw-negative",
        "range_noise_sigma-nan", "range_noise_sigma-negative", "Wall.p1-nan", "Wall.p2-inf",
        "Wall.z0-nan", "Wall.z0-inf", "CameraIntrinsics.u0-nan", "CameraIntrinsics.v0-inf",
    ],
)
def test_constructors_reject_what_the_loader_rejects(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("bad", [NAN, INF, -INF], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["x", "y", "yaw", "score"])
def test_box_coordinates_must_be_finite(field, bad):
    kw = {"x": 1.0, "y": 2.0, "yaw": 0.3, "score": 0.5, field: bad}
    with pytest.raises(ValueError, match="finite"):
        Detection((kw["x"], kw["y"]), kw["yaw"], (1.0, 1.0), kw["score"])
    if field != "score":
        with pytest.raises(ValueError, match="finite"):
            BoxObject((kw["x"], kw["y"]), kw["yaw"], (1.0, 1.0, 1.0))


class TestGenerateScene:
    def test_deterministic(self):
        cfg = ScenarioConfig(seed=7, n_agents=3, n_objects=5)
        agents_a, objects_a = generate_scene(cfg)
        agents_b, objects_b = generate_scene(cfg)
        assert objects_a == objects_b
        for a, b in zip(agents_a, agents_b):
            assert np.array_equal(a.true_pose.matrix, b.true_pose.matrix)
            assert np.array_equal(a.believed_pose.matrix, b.believed_pose.matrix)

    def test_no_objects(self):
        agents, objects = generate_scene(ScenarioConfig(seed=1, n_objects=0))
        assert objects == []
        assert len(agents) == 2

    def test_objects_inside_area(self):
        cfg = ScenarioConfig(seed=3, n_objects=8)
        _, objects = generate_scene(cfg)
        x0, x1, y0, y1 = cfg.area
        for o in objects:
            assert x0 < o.center[0] < x1
            assert y0 < o.center[1] < y1

    def test_five_agents_separated(self):
        cfg = ScenarioConfig(seed=11, n_agents=5, n_objects=4)
        agents, objects = generate_scene(cfg)
        assert len({a.id for a in agents}) == 5
        spots = [(a.true_pose.translation, 1.5) for a in agents]
        spots += [((*o.center, 0.0), np.hypot(*o.extent[:2]) / 2.0) for o in objects]
        for i in range(len(spots)):
            for j in range(i + 1, len(spots)):
                (pa, ra), (pb, rb) = spots[i], spots[j]
                d = np.hypot(pa[0] - pb[0], pa[1] - pb[1])
                assert d > ra + rb

    def test_noise_changes_believed_only(self):
        base = ScenarioConfig(seed=5, n_objects=3)
        noisy = ScenarioConfig(seed=5, n_objects=3, pose_noise_sigma_xy=0.5)
        agents_a, objects_a = generate_scene(base)
        agents_b, objects_b = generate_scene(noisy)
        assert objects_a == objects_b
        for a, b in zip(agents_a, agents_b):
            assert np.array_equal(a.true_pose.matrix, b.true_pose.matrix)
            assert not np.array_equal(b.true_pose.matrix, b.believed_pose.matrix)

    def test_dropout_applied(self):
        cfg = ScenarioConfig(seed=2, n_agents=2, dropout={1: ("camera",)})
        agents, _ = generate_scene(cfg)
        assert agents[1].has_lidar and not agents[1].has_camera

    def test_generation_failure(self):
        cfg = ScenarioConfig(seed=0, area=(-5, 5, -5, 5), n_objects=40)
        with pytest.raises(GenerationFailure):
            generate_scene(cfg)

    def test_negative_object_count_is_rejected(self):
        with pytest.raises(ValueError, match="n_objects"):
            ScenarioConfig(n_objects=-1)

    def test_agent_needs_a_sensor(self):
        pose = Pose(np.eye(4))
        with pytest.raises(ValueError):
            AgentState(0, pose, pose, has_lidar=False, has_camera=False)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_agent_rejects_a_tilted_true_pose(self, axis):
        """The sensors' fans are turned by the agent's yaw alone, so a true
        pose must rotate about +z only, to within the pose tolerance."""
        def tilted(angle):
            c, s = np.cos(angle), np.sin(angle)
            rot = np.eye(3)
            other = 1 - axis  # rotate about x (axis 0) or y (axis 1)
            rot[np.ix_([other, 2], [other, 2])] = [[c, -s], [s, c]]
            return compose(Pose.from_planar(3.0, -2.0, 0.7), Pose.from_rt(rot, (0.0, 0.0, 0.0)))

        flat = Pose.from_planar(3.0, -2.0, 0.7)
        with pytest.raises(ValueError, match="true_pose"):
            AgentState(0, tilted(0.01), flat)
        AgentState(0, tilted(1e-12), flat)


class TestSimulateLidar:
    def test_box_front_face_range(self):
        spec = LidarSpec(n_azimuth=4, elevation_angles=(0.0,), max_range=30.0)
        box = BoxObject((5.0, 0.0), 0.0, (1.0, 1.0, 3.0))
        pts = simulate_lidar(still_agent(), [box], [], spec, lidar_rng(0, 0))
        assert pts.shape[0] == 1  # only the +x ray hits
        assert abs(np.linalg.norm(pts[0]) - 4.5) < 1e-9

    def test_empty_scene_horizontal(self):
        spec = LidarSpec(n_azimuth=8, elevation_angles=(0.0,), max_range=30.0)
        pts = simulate_lidar(still_agent(), [], [], spec, lidar_rng(0, 0))
        assert pts.shape == (0, 3)

    def test_occluded_object_unhit(self):
        spec = LidarSpec(n_azimuth=360, elevation_angles=(0.0, -0.05), max_range=40.0)
        wall = Wall((3.0, -4.0), (3.0, 4.0), 4.0)
        box = BoxObject((8.0, 0.0), 0.0, (2.0, 2.0, 3.0))
        pts = simulate_lidar(still_agent(), [box], [wall], spec, lidar_rng(0, 0))
        world = transform_points(DEFAULT_LIDAR_MOUNT, pts)
        # Ground and wall returns are fine; no point may lie on the box.
        on_box = (
            (np.abs(world[:, 0] - 8.0) <= 1.0 + 1e-6)
            & (np.abs(world[:, 1]) <= 1.0 + 1e-6)
            & (world[:, 2] >= -1e-6)
            & (world[:, 2] <= 3.0 + 1e-6)
        )
        assert not np.any(on_box)
        # Sanity: with the wall removed the box is hit.
        pts_clear = simulate_lidar(still_agent(), [box], [], spec, lidar_rng(0, 0))
        world_clear = transform_points(DEFAULT_LIDAR_MOUNT, pts_clear)
        assert np.any(np.abs(world_clear[:, 0] - 7.0) < 1e-6)

    def test_zero_noise_points_on_surfaces(self):
        spec = LidarSpec(n_azimuth=90, elevation_angles=(-0.3, -0.1, 0.0), max_range=40.0)
        box = BoxObject((6.0, 1.0), 0.4, (3.0, 2.0, 2.0))
        agent = still_agent(yaw=0.2)
        pts = simulate_lidar(agent, [box], [], spec, lidar_rng(0, 0))
        world = transform_points(compose(agent.true_pose, DEFAULT_LIDAR_MOUNT), pts)
        c, s = np.cos(box.yaw), np.sin(box.yaw)
        rot = np.array([[c, s], [-s, c]])
        local = (world[:, :2] - np.asarray(box.center)) @ rot.T
        for p, (lx, ly) in zip(world, local):
            on_ground = abs(p[2]) < 1e-9
            dx = abs(lx) - box.extent[0] / 2
            dy = abs(ly) - box.extent[1] / 2
            dz = min(abs(p[2] - 0.0), abs(p[2] - box.extent[2]))
            on_box = max(dx, dy, min(dz, 0.0)) < 1e-9 and (
                abs(dx) < 1e-9 or abs(dy) < 1e-9 or dz < 1e-9
            )
            assert on_ground or on_box

    def test_reproducible(self):
        spec = LidarSpec(range_noise_sigma=0.05)
        box = BoxObject((6.0, 0.0), 0.0, (3.0, 2.0, 2.0))
        a = simulate_lidar(still_agent(), [box], [], spec, lidar_rng(3, 0))
        b = simulate_lidar(still_agent(), [box], [], spec, lidar_rng(3, 0))
        assert np.array_equal(a, b)

    def test_requires_lidar(self):
        agent = still_agent(has_lidar=False)
        with pytest.raises(SensorAbsent):
            simulate_lidar(agent, [], [], LidarSpec(), lidar_rng(0, 0))


class TestSimulateCamera:
    def test_empty_scene_all_inf(self):
        # Camera looks along +x from 1.5 m; with no ground in upper half and
        # a ground-free scene requires looking up; drop the ground by tilting:
        # easier to assert sky pixels (upper half) are inf in an empty scene.
        depth, feats = simulate_camera(still_agent(), [], [], INTR, 8)
        upper = depth[: INTR.height // 2 - 2]
        assert np.all(np.isinf(upper))
        assert np.all(feats[: INTR.height // 2 - 2, :, 0] == 1.0)

    def test_wall_fills_frustum(self):
        # At 3 m the wall is nearer than any ground pixel, so it covers the
        # whole image: every pixel reads the planar-intersection depth.
        wall = Wall((3.0, -4.0), (3.0, 4.0), 3.5)
        depth, feats = simulate_camera(still_agent(), [], [wall], INTR, 8)
        assert np.allclose(depth, 3.0, atol=1e-9)
        assert np.all(feats[:, :, 2] == 1.0)

    def test_object_edge_discontinuity(self):
        box = BoxObject((8.0, 0.0), 0.0, (2.0, 2.0, 3.0))
        depth, _ = simulate_camera(still_agent(), [box], [], INTR, 8)
        row = depth[32]
        both_finite = np.isfinite(row[:-1]) & np.isfinite(row[1:])
        jumps = np.abs(row[1:][both_finite] - row[:-1][both_finite])
        edge_to_sky = np.isfinite(row[:-1]) != np.isfinite(row[1:])
        assert np.any(jumps > 1.0) or np.any(edge_to_sky)

    def test_depth_is_pinhole_z(self):
        wall = Wall((10.0, -40.0), (10.0, 40.0), 60.0)
        depth, _ = simulate_camera(still_agent(), [], [wall], INTR, 8)
        # Corner pixels see the wall obliquely; their euclidean distance is
        # longer than 10 but the pinhole depth must still be 10.
        assert abs(depth[0, 0] - 10.0) < 1e-9

    def test_feature_channels(self):
        box = BoxObject((8.0, 0.0), 0.0, (4.0, 4.0, 3.0))
        depth, feats = simulate_camera(still_agent(), [box], [], INTR, 8)
        v, u = 32, 48  # principal pixel looks straight at the box face
        assert feats[v, u, 3] == 1.0  # object one-hot
        assert abs(feats[v, u, 4] - 1.0 / depth[v, u]) < 1e-12
        assert np.all(feats[:, :, 5] == 1.0)  # bias channel
        assert np.all(feats[:, :, 6:] == 0.0)

    def test_requires_camera(self):
        agent = still_agent(has_camera=False)
        with pytest.raises(SensorAbsent):
            simulate_camera(agent, [], [], INTR, 8)


def test_camera_lidar_depth_agreement():
    """Co-located sensors: lidar ranges projected into the image agree with
    the rendered depth at the same pixel, within parallax tolerance.

    Pixels adjacent to a depth discontinuity are skipped: there the sub-pixel
    offset between the lidar ray and the pixel-center ray can straddle an
    object edge, which is a property of the scene, not an inconsistency.
    """
    box = BoxObject((7.0, 0.5), 0.3, (3.5, 2.0, 2.5))
    wall = Wall((12.0, -6.0), (12.0, 6.0), 4.0)
    agent = still_agent()
    spec = LidarSpec(n_azimuth=240, elevation_angles=tuple(np.deg2rad([-8, -4, 0, 2])))
    pts = simulate_lidar(agent, [box], [wall], spec, lidar_rng(0, 0))
    depth, _ = simulate_camera(agent, [box], [wall], INTR, 8)
    cam_from_lidar = compose(invert(DEFAULT_CAMERA_MOUNT), DEFAULT_LIDAR_MOUNT)
    cam_pts = transform_points(cam_from_lidar, pts)
    pix, d, _ = project_points(INTR, cam_pts)
    checked = 0
    for (u, v), dz in zip(pix, d):
        if not (1 <= u < INTR.width - 1 and 1 <= v < INTR.height - 1):
            continue
        window = depth[v - 1 : v + 2, u - 1 : u + 2]
        if not np.all(np.isfinite(window)) or window.max() - window.min() > 0.5:
            continue
        assert abs(depth[v, u] - dz) < 0.75
        checked += 1
    assert checked > 20


def assert_matches_oracle(origin, dirs, boxes, walls, max_range=np.inf):
    t, kind = raycast(origin, dirs, scene._AzimuthFan(dirs), boxes, walls, max_range)
    t_ref, kind_ref = oracle_raycast(origin, dirs, None, boxes, walls, max_range)
    assert equivalent((t, kind), (t_ref, kind_ref))
    return t, kind


# Rays the azimuth cull must not lose: straight up and down, nearly vertical,
# and horizontal along -x, where the azimuth is +pi or -pi by the sign of y.
_AWKWARD_RAYS = np.array([
    [0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1e-13, 0.0, 1.0], [3e-7, -2e-7, -1.0],
    [-1.0, 0.0, 0.0], [-1.0, -0.0, 0.0], [-1.0, 0.0, -0.1], [-1.0, -0.0, -0.1],
])


def _box_corners(box):
    c, s = np.cos(box.yaw), np.sin(box.yaw)
    hx, hy = box.extent[0] / 2, box.extent[1] / 2
    return [
        (box.center[0] + c * x - s * y, box.center[1] + s * x + c * y, z)
        for x in (-hx, hx) for y in (-hy, hy) for z in (0.0, box.extent[2])
    ]


def _wall_corners(wall):
    return [(*p, z) for p in (wall.p1, wall.p2) for z in (wall.z0, wall.z0 + wall.height)]


def _ray_scene_wall(draw, origin, coord):
    """A wall anywhere, one whose circle holds the origin, or one across the
    -x axis from the origin (straddling azimuth +-pi)."""
    where = draw(st.sampled_from(["anywhere", "around", "behind_x"]))
    if where == "anywhere":
        p1, p2 = (draw(coord), draw(coord)), (draw(coord), draw(coord))
    elif where == "around":
        mx, my = origin[0] + draw(st.floats(-1.0, 1.0)), origin[1] + draw(st.floats(-1.0, 1.0))
        half, phi = draw(st.floats(1.5, 8.0)), draw(st.floats(-np.pi, np.pi))
        dx, dy = half * np.cos(phi), half * np.sin(phi)
        p1, p2 = (mx + dx, my + dy), (mx - dx, my - dy)
    else:
        x = origin[0] - draw(st.floats(1.0, 15.0))
        p1 = (x + draw(st.floats(-1.0, 1.0)), origin[1] - draw(st.floats(0.05, 6.0)))
        p2 = (x + draw(st.floats(-1.0, 1.0)), origin[1] + draw(st.floats(0.05, 6.0)))
    return Wall(p1, p2, draw(st.floats(0.5, 4.0)), draw(st.sampled_from([0.0, 0.5])))


@st.composite
def ray_scenes(draw):
    """An origin, a ray bundle and boxes and walls around it.  Boxes and
    walls sit anywhere, with the origin inside their circle, or across the
    -x axis from the origin (straddling azimuth +-pi); rays include the
    awkward set above, rays through every box and wall corner and random
    ones of any length and direction."""
    coord = st.floats(-12.0, 12.0)
    origin = np.array([draw(coord), draw(coord), draw(st.floats(0.05, 3.0))])
    boxes = []
    for _ in range(draw(st.integers(0, 6))):
        where = draw(st.sampled_from(["anywhere", "around", "behind_x"]))
        if where == "anywhere":
            center = (draw(coord), draw(coord))
        elif where == "around":
            center = (origin[0] + draw(st.floats(-1.5, 1.5)), origin[1] + draw(st.floats(-1.5, 1.5)))
        else:
            center = (origin[0] - draw(st.floats(2.0, 15.0)), origin[1] + draw(st.floats(-0.5, 0.5)))
        extent = (draw(st.floats(0.2, 5.0)), draw(st.floats(0.2, 3.0)), draw(st.floats(0.3, 2.5)))
        boxes.append(BoxObject(center, draw(st.floats(-np.pi, np.pi)), extent))
    walls = [_ray_scene_wall(draw, origin, coord) for _ in range(draw(st.integers(0, 3)))]
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    random_rays = rng.standard_normal((draw(st.integers(0, 300)), 3))
    random_rays *= rng.uniform(0.01, 10.0, (len(random_rays), 1))
    corners = [p for b in boxes for p in _box_corners(b)] + [p for w in walls for p in _wall_corners(w)]
    corner_rays = [np.subtract(p, origin) for p in corners]
    dirs = np.concatenate([_AWKWARD_RAYS, random_rays, np.reshape(corner_rays, (-1, 3))])
    max_range = draw(st.one_of(st.just(np.inf), st.floats(0.5, 30.0)))
    return origin, dirs, boxes, walls, max_range


class TestRaycastOracle:
    @given(ray_scenes())
    @settings(max_examples=400, deadline=None)
    def test_random_scenes_match_every_box_on_every_ray(self, case):
        assert_matches_oracle(*case)

    def test_zero_length_wall_is_never_hit(self):
        """A wall whose ends coincide has no face: every ray misses it."""
        origin = np.array([0.0, 0.0, 1.0])
        dirs = np.concatenate([_AWKWARD_RAYS, [[1.0, 0.0, 0.0], [0.0, 1.0, -0.5]]])
        t = scene._ray_wall_t(origin, dirs, Wall((0.0, 0.0), (0.0, 0.0), 1.0), np.arange(len(dirs)))
        assert np.all(t == np.inf)
        walls = [Wall((1.0, 0.0), (1.0, 0.0), 2.0)]
        _, kind = raycast(origin, dirs, scene._AzimuthFan(dirs), [], walls)
        assert not np.any(kind == scene.HIT_WALL)

    def test_walls_across_pi_and_around_the_sensor(self):
        """Walls culled by azimuth: one across the -x axis from the sensor,
        hit on both sides of azimuth +-pi, and one whose circle holds the
        sensor, which is tested on every ray."""
        origin = np.array([1.0, -2.0, 1.5])
        walls = [
            Wall((-7.0, -2.5), (-6.0, -1.5), 2.0),
            Wall((-3.0, -5.0), (5.0, 3.0), 3.0),
            Wall((8.0, -2.0), (8.0, 2.0), 2.5, z0=0.5),
        ]
        spec = LidarSpec(n_azimuth=720, elevation_angles=(-0.3, -0.05, 0.0, 0.2))
        corners = [np.subtract(p, origin) for w in walls for p in _wall_corners(w)]
        dirs = np.concatenate([scene._lidar_bundle(spec)[0], _AWKWARD_RAYS, corners])
        t, kind = raycast(origin, dirs, scene._AzimuthFan(dirs), [], walls)
        t_ref, kind_ref = oracle_raycast(origin, dirs, None, [], walls)
        assert np.array_equal(t, t_ref)
        assert np.array_equal(kind, kind_ref)
        az = np.arctan2(dirs[:, 1], dirs[:, 0])
        on_wall = kind == scene.HIT_WALL
        assert np.any(on_wall & (az > 3.1)) and np.any(on_wall & (az < -3.1))
        for wall in walls:
            alone, _ = raycast(origin, dirs, scene._AzimuthFan(dirs), [], [wall])
            assert np.any(alone < np.inf)

    def test_wall_end_ray_alone_in_its_window(self):
        """A ray aimed at a wall's end is the only ray in the wall's window.
        Its along-edge coordinate is exactly 1, so it hits the wall, whether
        it is cast alone or with the whole bundle.  A matrix product over
        two or more rows rounds that coordinate past 1 on some hosts."""
        origin = np.array([4.3, 7.7, 1.5])
        wall = Wall((-4.7, -3.9), (-8.9, 4.3), 2.0)
        end = np.array([-8.9, 4.3, 1.0]) - origin
        dirs = np.array([end, -end])
        mid = ((wall.p1[0] + wall.p2[0]) / 2.0, (wall.p1[1] + wall.p2[1]) / 2.0)
        radius = np.hypot(wall.p2[0] - wall.p1[0], wall.p2[1] - wall.p1[1]) / 2.0
        assert scene._AzimuthFan(dirs).toward(origin, mid, radius).tolist() == [0]
        _, kind = assert_matches_oracle(origin, dirs, [], [wall])
        assert kind[0] == scene.HIT_WALL

    def test_box_reached_by_one_ray(self):
        """The box's window holds one ray, so the box multiplies one row
        into its frame; its entry distance matches the reference's, which
        multiplies the whole bundle, within the tolerance."""
        origin = np.array([0.1, 4.5, 1.5])
        box = BoxObject((9.0, -3.8), -0.46, (4.8, 1.9, 1.6))
        ray = np.array([8.95, -8.77, -0.7])
        dirs = np.array([ray, -ray])
        radius = np.hypot(box.extent[0], box.extent[1]) / 2.0
        assert scene._AzimuthFan(dirs).toward(origin, box.center, radius).tolist() == [0]
        _, kind = assert_matches_oracle(origin, dirs, [box], [])
        assert kind[0] == scene.HIT_OBJECT

    def test_short_ray_just_outside_a_box_window(self):
        """A ray 2e-6 long horizontally whose box-frame x component, 9e-13,
        is below the slab test's _EPS: the slab test takes it as parallel to
        the x faces, so from the plane of a face it enters a thin box,
        although the ray's azimuth lies 3.5e-7 rad outside the box's
        window.  Only the cull's angular margin keeps that ray a candidate."""
        origin = np.array([2.0, -20.0, 0.8])
        box = BoxObject((0.0, 0.0), 0.0, (4.0, 0.004, 1.6))
        ray = np.array([9e-13, 2e-6, 0.0])
        dirs = np.array([ray, -ray])
        radius = np.hypot(box.extent[0], box.extent[1]) / 2.0
        edge = math.atan2(20.0, -2.0) - math.asin(
            (radius + scene._AzimuthFan._CULL_PAD) / math.hypot(2.0, 20.0))
        assert -1e-6 < math.atan2(ray[1], ray[0]) - edge < 0.0
        assert scene._AzimuthFan(dirs).toward(origin, box.center, radius).tolist() == [0]
        _, kind = assert_matches_oracle(origin, dirs, [box], [])
        assert kind[0] == scene.HIT_OBJECT

    def test_box_across_pi(self):
        """A box across the -x axis from the sensor is hit on both sides of
        azimuth +-pi."""
        origin = np.array([1.0, -2.0, 1.5])
        boxes = [BoxObject((-7.0, -2.0), 0.3, (4.0, 2.0, 1.6)),
                 BoxObject((4.0, 3.0), -1.0, (4.4, 1.9, 1.5))]
        spec = LidarSpec(n_azimuth=720, elevation_angles=(-0.3, -0.05, 0.0, 0.2))
        corners = [np.subtract(p, origin) for b in boxes for p in _box_corners(b)]
        dirs = np.concatenate([scene._lidar_bundle(spec)[0], _AWKWARD_RAYS, corners])
        _, kind = assert_matches_oracle(origin, dirs, boxes, [])
        az = np.arctan2(dirs[:, 1], dirs[:, 0])
        on_box = kind == scene.HIT_OBJECT
        assert np.any(on_box & (az > 3.1)) and np.any(on_box & (az < -3.1))

    def test_boxes_tied_on_a_ray(self):
        """Two boxes share the plane of their near faces and a third repeats
        the first, so the rays through the faces enter them at the same t,
        in front of a wall."""
        origin = np.array([0.0, 0.0, 1.0])
        boxes = [BoxObject((6.0, 0.0), 0.0, (2.0, 2.0, 1.5)),
                 BoxObject((7.0, 0.0), 0.0, (4.0, 1.0, 1.0)),
                 BoxObject((6.0, 0.0), 0.0, (2.0, 2.0, 1.5))]
        walls = [Wall((8.5, -3.0), (8.5, 3.0), 2.0)]
        y, z = np.meshgrid(np.linspace(-1.2, 1.2, 25), np.linspace(-1.0, 0.6, 9))
        dirs = np.stack([np.full(y.size, 5.0), y.ravel(), z.ravel()], axis=1)
        t, kind = assert_matches_oracle(origin, dirs, boxes, walls)
        alone = [raycast(origin, dirs, scene._AzimuthFan(dirs), [b], walls)[0] for b in boxes[:2]]
        tied = (alone[0] == alone[1]) & (kind == scene.HIT_OBJECT)
        assert np.any(tied)
        assert np.array_equal(t[tied], np.full(np.count_nonzero(tied), 1.0))

    @pytest.mark.parametrize("seed", range(6))
    def test_camera_and_lidar_bundles_in_generated_scenes(self, seed):
        """Every agent's real bundles, with boxes behind and beside its camera."""
        walls = (Wall((-6.0, 9.0), (6.0, 9.0), 2.5),)
        cfg = ScenarioConfig(seed=seed, n_agents=4, n_objects=10, occluders=walls)
        agents, boxes = generate_scene(cfg)
        for agent in agents:
            for mount, local in (
                (DEFAULT_CAMERA_MOUNT, pixel_rays(INTR).reshape(-1, 3)),
                (DEFAULT_LIDAR_MOUNT, scene._lidar_bundle(cfg.lidar)[0]),
            ):
                sensor = compose(agent.true_pose, mount)
                dirs = local @ sensor.rotation.T
                for max_range in (np.inf, cfg.lidar.max_range, 8.0):
                    assert_matches_oracle(sensor.translation, dirs, boxes, walls, max_range)


# --- one fan per sensor, turned by the agent's yaw ----------------------------

SEAM_LIDAR = LidarSpec(n_azimuth=360, elevation_angles=(-0.2, -0.05, 0.0, 0.1),
                       max_range=30.0, range_noise_sigma=0.05)


def raycast_world_fan(origin, dirs, fan, objects, occluders, max_range=np.inf):
    """raycast with a fan built from the world directions; `fan` is not read."""
    return raycast(origin, dirs, scene._AzimuthFan(dirs), objects, occluders, max_range)


@st.composite
def seam_scenes(draw):
    """An agent at any yaw in (-pi, pi], +-pi included, with boxes and walls
    across the azimuth seam of its own frame (behind it), across the world
    frame's seam (toward -x) and ahead of its camera."""
    yaw = draw(st.one_of(st.sampled_from([np.pi, -np.pi, 0.0, np.pi / 2]),
                         st.floats(-np.pi, np.pi)))
    x, y = draw(st.floats(-10.0, 10.0)), draw(st.floats(-10.0, 10.0))
    boxes, walls = [], []
    for heading in (yaw + np.pi, np.pi, yaw):
        for _ in range(draw(st.integers(0, 2))):
            d, off = draw(st.floats(3.0, 15.0)), draw(st.floats(-0.3, 0.3))
            center = (x + d * np.cos(heading + off), y + d * np.sin(heading + off))
            extent = (draw(st.floats(0.5, 5.0)), draw(st.floats(0.5, 3.0)), draw(st.floats(0.5, 2.5)))
            boxes.append(BoxObject(center, draw(st.floats(-np.pi, np.pi)), extent))
        if draw(st.booleans()):
            d, half = draw(st.floats(2.0, 15.0)), draw(st.floats(0.2, 6.0))
            cx, cy = x + d * np.cos(heading), y + d * np.sin(heading)
            tx, ty = -np.sin(heading) * half, np.cos(heading) * half
            walls.append(Wall((cx - tx, cy - ty + draw(st.floats(-0.5, 0.5))), (cx + tx, cy + ty),
                              draw(st.floats(0.5, 3.0))))
    return still_agent(x, y, yaw), boxes, walls


def assert_sensors_match_world_fan(agent, boxes, walls):
    got_l = simulate_lidar(agent, boxes, walls, SEAM_LIDAR, lidar_rng(3, 0))
    got_c = simulate_camera(agent, boxes, walls, INTR, 8)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(scene, "raycast", raycast_world_fan)
        want_l = simulate_lidar(agent, boxes, walls, SEAM_LIDAR, lidar_rng(3, 0))
        want_c = simulate_camera(agent, boxes, walls, INTR, 8)
    assert got_l.tobytes() == want_l.tobytes()
    for got, want in zip(got_c, want_c):
        assert got.tobytes() == want.tobytes()
    return got_l


class TestSensorFans:
    @given(seam_scenes())
    @settings(max_examples=60, deadline=None)
    def test_turned_fan_matches_a_world_fan(self, case):
        """The cached agent-frame fan turned by the yaw gives the bits of a
        fan sorted in the world, for the LiDAR and the camera, and windows
        as narrow: they differ at most in a ray on a window's edge."""
        agent, boxes, walls = case
        assert_sensors_match_world_fan(agent, boxes, walls)
        sensor = compose(agent.true_pose, DEFAULT_LIDAR_MOUNT)
        local, fan = scene._lidar_bundle(SEAM_LIDAR)
        dirs = local @ sensor.rotation.T
        turned = fan.turned(planar_parts(agent.true_pose)[2])
        world = scene._AzimuthFan(dirs)
        circles = [(b.center, math.hypot(*b.extent[:2]) / 2.0) for b in boxes]
        circles += [(np.add(w.p1, w.p2) / 2.0, math.dist(w.p1, w.p2) / 2.0) for w in walls]
        for center, radius in circles:
            got = set(turned.toward(sensor.translation, center, radius).tolist())
            want = set(world.toward(sensor.translation, center, radius).tolist())
            assert len(got ^ want) <= 2

    @pytest.mark.parametrize("yaw", [np.pi, -np.pi, 0.0, 2.5])
    def test_box_behind_the_agent_across_its_seam(self, yaw):
        """A box right behind the agent is hit by rays on both sides of
        azimuth +-pi in the agent frame."""
        x, y = 1.0, -2.0
        box = BoxObject((x - 6.0 * np.cos(yaw), y - 6.0 * np.sin(yaw)), yaw + 0.3, (2.0, 4.0, 1.6))
        wall = Wall((x + 8.0, y - 3.0), (x + 8.0, y + 3.0), 2.0)
        pts = assert_sensors_match_world_fan(still_agent(x, y, yaw), [box], [wall])
        az = np.arctan2(pts[:, 1], pts[:, 0])
        assert np.any(az > 3.1) and np.any(az < -3.1)

    def test_each_sensor_shape_builds_one_fan(self):
        """Every agent of every trial shares its sensors' fans: one per
        LiDAR spec and one per camera, whatever the agents' poses."""
        built = []

        class CountedFan(scene._AzimuthFan):
            def __init__(self, dirs):
                built.append(len(dirs))
                super().__init__(dirs)

        caches = (scene._lidar_bundle, scene._camera_bundle)
        other = LidarSpec(n_azimuth=90, elevation_angles=(-0.1, 0.0))
        with pytest.MonkeyPatch.context() as m:
            m.setattr(scene, "_AzimuthFan", CountedFan)
            for cache in caches:
                cache.cache_clear()
            try:
                for seed in range(3):
                    cfg = ScenarioConfig(seed=seed, n_agents=3, n_objects=4)
                    agents, boxes = generate_scene(cfg)
                    for agent in agents:
                        for spec in (cfg.lidar, other):
                            simulate_lidar(agent, boxes, [], spec, lidar_rng(seed, agent.id))
                        simulate_camera(agent, boxes, [], cfg.camera, 8)
            finally:
                for cache in caches:
                    cache.cache_clear()
        n_lidar = len(cfg.lidar.elevation_angles) * cfg.lidar.n_azimuth
        assert sorted(built) == sorted([n_lidar, 2 * 90, cfg.camera.width * cfg.camera.height])

    def test_shared_directions_are_read_only(self):
        spec = LidarSpec(n_azimuth=8, elevation_angles=(0.0,))
        assert scene._lidar_bundle(spec) is scene._lidar_bundle(spec)
        with pytest.raises(ValueError):
            scene._lidar_bundle(spec)[0][0, 0] = 1.0
