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
    project_points,
    transform_points,
)
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

INTR = CameraIntrinsics(70.0, 70.0, 48.0, 32.0, 96, 64)


def still_agent(x=0.0, y=0.0, yaw=0.0, **kw) -> AgentState:
    pose = Pose.from_planar(x, y, yaw)
    return AgentState(0, pose, pose, **kw)


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

    def test_agent_needs_a_sensor(self):
        pose = Pose(np.eye(4))
        with pytest.raises(ValueError):
            AgentState(0, pose, pose, has_lidar=False, has_camera=False)


class TestSimulateLidar:
    def test_box_front_face_range(self):
        spec = LidarSpec(n_azimuth=4, elevation_angles=(0.0,), max_range=30.0)
        box = BoxObject(0, (5.0, 0.0), 0.0, (1.0, 1.0, 3.0))
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
        box = BoxObject(0, (8.0, 0.0), 0.0, (2.0, 2.0, 3.0))
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
        box = BoxObject(0, (6.0, 1.0), 0.4, (3.0, 2.0, 2.0))
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
        box = BoxObject(0, (6.0, 0.0), 0.0, (3.0, 2.0, 2.0))
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
        box = BoxObject(0, (8.0, 0.0), 0.0, (2.0, 2.0, 3.0))
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
        box = BoxObject(0, (8.0, 0.0), 0.0, (4.0, 4.0, 3.0))
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
    box = BoxObject(0, (7.0, 0.5), 0.3, (3.5, 2.0, 2.5))
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


def oracle_ray_box_t(origin, dirs, box):
    """Slab-method entry distance of every ray (inf where the box is missed)."""
    c, s = np.cos(box.yaw), np.sin(box.yaw)
    rot = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])  # world -> box
    o = rot @ (np.asarray(origin, dtype=np.float64) - np.array([*box.center, 0.0]))
    d = np.asarray(dirs, dtype=np.float64) @ rot.T
    lo = np.array([-box.extent[0] / 2, -box.extent[1] / 2, 0.0])
    hi = np.array([box.extent[0] / 2, box.extent[1] / 2, box.extent[2]])
    near = np.full(d.shape[0], -np.inf)
    far = np.full(d.shape[0], np.inf)
    for ax in range(3):
        da = d[:, ax]
        moving = np.abs(da) > scene._EPS
        with np.errstate(divide="ignore"):
            t1 = (lo[ax] - o[ax]) / np.where(moving, da, 1.0)
            t2 = (hi[ax] - o[ax]) / np.where(moving, da, 1.0)
        a_near = np.minimum(t1, t2)
        a_far = np.maximum(t1, t2)
        inside = lo[ax] <= o[ax] <= hi[ax]
        a_near = np.where(moving, a_near, -np.inf if inside else np.inf)
        a_far = np.where(moving, a_far, np.inf if inside else -np.inf)
        near = np.maximum(near, a_near)
        far = np.minimum(far, a_far)
    hit = (near <= far) & (near > scene._EPS)
    return np.where(hit, near, np.inf)


def oracle_raycast(origin, dirs, objects, occluders, max_range=np.inf):
    """raycast as first written: every box tested on every ray."""
    dirs = np.asarray(dirs, dtype=np.float64).reshape(-1, 3)
    best = scene._ray_ground_t(origin, dirs)
    kind = np.where(best < np.inf, scene.HIT_GROUND, scene.HIT_NONE).astype(np.uint8)
    hits = [(scene._ray_wall_t(origin, dirs, w), scene.HIT_WALL) for w in occluders]
    hits += [(oracle_ray_box_t(origin, dirs, b), scene.HIT_OBJECT) for b in objects]
    for t, cls in hits:
        closer = t < best
        best[closer] = t[closer]
        kind[closer] = cls
    out_of_range = best > max_range
    best[out_of_range] = np.inf
    kind[out_of_range] = scene.HIT_NONE
    return best, kind


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


@st.composite
def ray_scenes(draw):
    """An origin, a ray bundle and boxes around it.  Boxes sit anywhere, with
    the origin inside their circle, or across the -x axis from the origin
    (straddling azimuth +-pi); rays include the awkward set above, rays
    through every box corner and random ones of any length and direction."""
    coord = st.floats(-12.0, 12.0)
    origin = np.array([draw(coord), draw(coord), draw(st.floats(0.05, 3.0))])
    boxes = []
    for oid in range(draw(st.integers(0, 6))):
        where = draw(st.sampled_from(["anywhere", "around", "behind_x"]))
        if where == "anywhere":
            center = (draw(coord), draw(coord))
        elif where == "around":
            center = (origin[0] + draw(st.floats(-1.5, 1.5)), origin[1] + draw(st.floats(-1.5, 1.5)))
        else:
            center = (origin[0] - draw(st.floats(2.0, 15.0)), origin[1] + draw(st.floats(-0.5, 0.5)))
        extent = (draw(st.floats(0.2, 5.0)), draw(st.floats(0.2, 3.0)), draw(st.floats(0.3, 2.5)))
        boxes.append(BoxObject(oid, center, draw(st.floats(-np.pi, np.pi)), extent))
    walls = [
        Wall((draw(coord), draw(coord)), (draw(coord), draw(coord)), draw(st.floats(0.5, 4.0)))
        for _ in range(draw(st.integers(0, 2)))
    ]
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    random_rays = rng.standard_normal((draw(st.integers(0, 300)), 3))
    random_rays *= rng.uniform(0.01, 10.0, (len(random_rays), 1))
    corner_rays = [np.subtract(p, origin) for b in boxes for p in _box_corners(b)]
    dirs = np.concatenate([_AWKWARD_RAYS, random_rays, np.reshape(corner_rays, (-1, 3))])
    max_range = draw(st.one_of(st.just(np.inf), st.floats(0.5, 30.0)))
    return origin, dirs, boxes, walls, max_range


class TestRaycastOracle:
    @given(ray_scenes())
    @settings(max_examples=400, deadline=None)
    def test_random_scenes_match_every_box_on_every_ray(self, case):
        origin, dirs, boxes, walls, max_range = case
        t, kind = raycast(origin, dirs, boxes, walls, max_range)
        t_ref, kind_ref = oracle_raycast(origin, dirs, boxes, walls, max_range)
        assert np.array_equal(t, t_ref)
        assert np.array_equal(kind, kind_ref)

    @pytest.mark.parametrize("seed", range(6))
    def test_camera_and_lidar_bundles_in_generated_scenes(self, seed):
        """Every agent's real bundles, with boxes behind and beside its camera."""
        walls = (Wall((-6.0, 9.0), (6.0, 9.0), 2.5),)
        cfg = ScenarioConfig(seed=seed, n_agents=4, n_objects=10, occluders=walls)
        agents, boxes = generate_scene(cfg)
        for agent in agents:
            for mount, local in (
                (DEFAULT_CAMERA_MOUNT, pixel_rays(INTR).reshape(-1, 3)),
                (DEFAULT_LIDAR_MOUNT, scene.lidar_directions(cfg.lidar)),
            ):
                sensor = compose(agent.true_pose, mount)
                dirs = local @ sensor.rotation.T
                for max_range in (np.inf, cfg.lidar.max_range, 8.0):
                    t, kind = raycast(sensor.translation, dirs, boxes, walls, max_range)
                    t_ref, kind_ref = oracle_raycast(sensor.translation, dirs, boxes, walls, max_range)
                    assert np.array_equal(t, t_ref)
                    assert np.array_equal(kind, kind_ref)
