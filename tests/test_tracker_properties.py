"""Tracker invariants over random small scenarios, checked after every frame."""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from pointtrack.lifecycle import LifecycleConfig, ScoreColumnValidator
from pointtrack.pipeline import PointTracker, TrackerConfig, run_sequence
from pointtrack.simulate import ScenarioConfig, generate


@st.composite
def scenarios(draw) -> ScenarioConfig:
    """Up to 8 agents over 1-60 frames, with misses, clutter, ghosts,
    occlusion windows, camera motion and feature maps each on or off."""
    n_agents = draw(st.integers(0, 8))
    frames = draw(st.integers(1, 60))
    windows = draw(st.lists(st.tuples(st.integers(1, 8), st.integers(0, 59), st.integers(0, 20)),
                            max_size=2)) if n_agents else []
    return ScenarioConfig(
        n_agents=n_agents, frames=frames, arena_width=128.0, arena_height=128.0,
        agent_speed_sigma=draw(st.sampled_from([0.5, 2.0])),
        camera_rotation_deg=draw(st.sampled_from([0.0, 0.5])),
        camera_translation_x=draw(st.sampled_from([0.0, 1.5])),
        fn_rate=draw(st.sampled_from([0.0, 0.2, 0.6])),
        fp_clutter_rate=draw(st.sampled_from([0.0, 1.0])),
        persistent_fp_count=draw(st.integers(0, 2)),
        jitter_sigma=draw(st.sampled_from([0.0, 0.5])),
        occlusion_windows=tuple((min(agent, n_agents), start, start + length)
                                for agent, start, length in windows),
        feature_channels=draw(st.sampled_from([0, 2])),
        seed=draw(st.integers(0, 2**16)),
    )


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(scenario=scenarios(), flags=st.tuples(*[st.booleans()] * 4), min_hits=st.integers(4, 6))
def test_tracker_invariants_hold_every_frame(scenario, flags, min_hits):
    use_cmc, use_alt, use_cls, use_ddcf = flags
    config = replace(TrackerConfig(), use_cmc=use_cmc, use_alt=use_alt, use_cls=use_cls,
                     use_ddcf=use_ddcf, lifecycle=LifecycleConfig(min_hits=min_hits))
    bundle = generate(scenario)
    tracker = PointTracker(config, ScoreColumnValidator())
    outputs, live, gone, last_id = [], set(), set(), 0
    for frame_input in bundle.frames:
        out = tracker.process_frame(frame_input)
        outputs.append(out)
        emitted = [r.track_id for r in out.records]
        assert len(emitted) == len(set(emitted)), "an id emitted twice in one frame"
        now = {t.track_id for t in tracker.tracks}
        assert len(now) == len(tracker.tracks)
        assert not now & gone, "a track id came back after leaving the tracker"
        born = now - live
        assert not born or min(born) > last_id, "a new id does not exceed every earlier id"
        last_id = max(born | {last_id})
        gone |= live - now
        live = now
        assert set(emitted) <= {t.track_id for t in tracker.tracks if t.is_confirmed}
        assert tracker.summary.births - tracker.summary.deaths == len(tracker.tracks)
    rerun = run_sequence(bundle.frames, config, ScoreColumnValidator())
    assert [o.records for o in rerun.outputs] == [o.records for o in outputs]
