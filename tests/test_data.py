import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import write_windows
from stglow import data as dt
from stglow.errors import ConfigError, DataError, ParseError


@st.composite
def synth_spec_text(draw) -> str:
    """A `synth:` spec from valid and invalid pieces: mostly the `synth`
    head, up to three kinds joined by `+`, mostly known ones, then up to
    four fields, mostly `key=value` with a known key."""
    head = draw(st.sampled_from(["synth", "synth", "synth", "Synth", "", "file.txt"]))
    kind = st.one_of(st.sampled_from(dt.SYNTH_KINDS), st.sampled_from(dt.SYNTH_KINDS), st.text(max_size=8))
    kinds = draw(st.lists(kind, max_size=3))
    value = st.one_of(st.integers(-2, 3).map(str), st.integers().map(str), st.floats().map(repr), st.text(max_size=8))
    field = st.tuples(st.sampled_from(["n", "seed", "noise", "n", "seed", "noise", "to", ""]), value).map("=".join)
    fields = draw(st.lists(st.one_of(field, field, st.text(max_size=8)), max_size=4))
    return ":".join([head, "+".join(kinds), *fields])


def write(tmp_path, text, name="scene.txt"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadTracks:
    def test_two_rows_one_pedestrian(self, tmp_path):
        p = write(tmp_path, "10 1 0.5 0.25\n20 1 1.0 0.5\n")
        tracks = dt.load_tracks(p)
        assert len(tracks) == 1
        assert tracks[0].ped_id == 1
        assert np.array_equal(tracks[0].frames, [10, 20])
        assert np.allclose(tracks[0].positions, [[0.5, 0.25], [1.0, 0.5]])

    def test_empty_file(self, tmp_path):
        assert dt.load_tracks(write(tmp_path, "")) == []

    def test_shuffled_rows_match_sorted(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = [f"{10 * t} {ped} {rng.normal():.6f} {rng.normal():.6f}" for ped in (1, 2) for t in range(5)]
        sorted_file = write(tmp_path, "\n".join(rows) + "\n", "sorted.txt")
        shuffled = list(rows)
        rng.shuffle(shuffled)
        shuffled_file = write(tmp_path, "\n".join(shuffled) + "\n", "shuffled.txt")
        a = dt.load_tracks(sorted_file)
        b = dt.load_tracks(shuffled_file)
        for ta, tb in zip(a, b):
            assert ta.ped_id == tb.ped_id
            assert np.array_equal(ta.frames, tb.frames)
            assert np.array_equal(ta.positions, tb.positions)

    def test_float_style_ids_accepted(self, tmp_path):
        tracks = dt.load_tracks(write(tmp_path, "840.0 1.0 8.46 3.59\n"))
        assert tracks[0].ped_id == 1

    def test_malformed_row_reports_line(self, tmp_path):
        p = write(tmp_path, "10 1 0.0 0.0\n20 1 0.0\n")
        with pytest.raises(ParseError, match="line 2"):
            dt.load_tracks(p)

    def test_non_numeric_field(self, tmp_path):
        with pytest.raises(ParseError, match="line 1"):
            dt.load_tracks(write(tmp_path, "10 1 abc 0.0\n"))

    def test_non_utf8_file(self, tmp_path):
        p = tmp_path / "utf16.txt"
        p.write_bytes(b"\xff\xfe1\x000\x00 \x001\x00")
        with pytest.raises(ParseError, match="utf16.txt: not a UTF-8 text file"):
            dt.load_tracks(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot open dataset file"):
            dt.load_windows(tmp_path / "missing.txt")

    def test_non_uniform_stride_rejected(self, tmp_path):
        p = write(tmp_path, "10 1 0 0\n20 1 1 1\n35 1 2 2\n")
        with pytest.raises(DataError, match="stride"):
            dt.load_tracks(p)


def straight_tracks(n_frames, ped_id=1, start_frame=0, stride=10):
    frames = np.arange(n_frames, dtype=np.int64) * stride + start_frame
    positions = np.stack([np.arange(n_frames, dtype=np.float64) * 0.5, np.zeros(n_frames)], axis=1)
    return dt.RawTrack(ped_id=ped_id, frames=frames, positions=positions)


# two pedestrians over five frames: two (t_obs=2, t_pred=2) windows per target
TRACK_TEXT = "".join(f"{10 * t} {ped} {0.5 * t:.2f} {ped - 0.25 * t:.2f}\n" for t in range(5) for ped in (1, 2))


@st.composite
def mutated_track_text(draw) -> str:
    """TRACK_TEXT with one to three fields or lines mutated: a field replaced
    by a number or arbitrary text, a line replaced or duplicated."""
    lines = TRACK_TEXT.splitlines()
    numbers = st.one_of(
        st.integers(-3, 60).map(str),
        st.floats().map(repr),
        st.sampled_from(["inf", "-inf", "nan", "1e999", "1.5", "1e308", "-1e308", "9007199254740993", "1e17"]),
    )
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["number", "text", "line", "duplicate"]))
        if kind in ("number", "text"):
            fields = lines[i].split() or [""]
            fields[draw(st.integers(0, len(fields) - 1))] = draw(numbers if kind == "number" else st.text(max_size=8))
            lines[i] = " ".join(fields)
        elif kind == "line":
            lines[i] = draw(st.text(max_size=30))
        else:
            lines.insert(i, lines[i])
    return "\n".join(lines) + "\n"


class TestTrackFileFuzz:
    @settings(max_examples=150)
    @given(text=mutated_track_text())
    @example(text=TRACK_TEXT.replace("20 1", "inf 1", 1))
    @example(text=TRACK_TEXT.replace("20 1", "1e999 1", 1))
    @example(text=TRACK_TEXT.replace("20 1", "20.5 1", 1))
    @example(text=TRACK_TEXT.replace("20 1", "20 1.5", 1))
    @example(text=TRACK_TEXT.replace("20 1 1.00", "20 1 nan", 1))
    @example(text=TRACK_TEXT.replace("20 1 1.00", "20 1 inf", 1))
    @example(text=TRACK_TEXT.replace("20 1 1.00", "20 1 1e308", 1).replace("20 2 1.00", "20 2 -1e308", 1))
    @example(text=TRACK_TEXT.replace("20 1", "1e300 1", 1))
    def test_fuzzed_track_file_loads_or_raises_a_typed_error(self, tmp_path_factory, text):
        path = tmp_path_factory.getbasetemp() / "fuzz.txt"
        path.write_text(text, encoding="utf-8")
        try:
            windows = dt.load_windows(path, t_obs=2, t_pred=2)
        except (ParseError, DataError):
            return
        for w in windows:
            assert np.all(np.isfinite(w.obs)) and np.all(np.isfinite(w.fut)) and np.all(np.isfinite(w.origin))

    @pytest.mark.parametrize(
        "row, message",
        [
            ("inf 1 0.0 0.0", "line 2: non-finite field"),
            ("1e999 1 0.0 0.0", "line 2: non-finite field"),
            ("10 1 nan 0.0", "line 2: non-finite field"),
            ("10.5 1 0.0 0.0", "line 2: frame and pedestrian ids must be integers"),
            ("10 1.5 0.0 0.0", "line 2: frame and pedestrian ids must be integers"),
            ("1e300 1 0.0 0.0", "line 2: frame and pedestrian ids must be integers within"),
            ("10 1 2e6 0.0", "line 2: position beyond"),
        ],
    )
    def test_bad_row_rejected_at_its_line(self, tmp_path, row, message):
        with pytest.raises(ParseError, match=message):
            dt.load_tracks(write(tmp_path, f"0 1 0.0 0.0\n{row}\n"))


class TestWindowScenes:
    def test_exact_length_gives_one_window(self):
        windows = dt.window_scenes([straight_tracks(20)], t_obs=8, t_pred=12)
        assert len(windows) == 1

    def test_one_extra_frame_gives_two_windows(self):
        windows = dt.window_scenes([straight_tracks(21)], t_obs=8, t_pred=12)
        assert len(windows) == 2

    def test_pedestrian_with_missing_frame_excluded(self):
        full = straight_tracks(20, ped_id=1)
        holey_frames = np.delete(np.arange(20) * 10, 10)
        holey = dt.RawTrack(
            ped_id=2,
            frames=holey_frames.astype(np.int64),
            positions=np.zeros((19, 2)),
        )
        windows = dt.window_scenes([full, holey], t_obs=8, t_pred=12)
        assert len(windows) == 1
        assert windows[0].ped_ids == [1]

    def test_target_sits_at_origin(self):
        windows = dt.window_scenes([straight_tracks(22)], t_obs=8, t_pred=12)
        for w in windows:
            assert np.array_equal(w.obs[w.target_index, -1], [0.0, 0.0])

    def test_one_window_per_target(self):
        tracks = [straight_tracks(20, ped_id=1), straight_tracks(20, ped_id=2)]
        tracks[1].positions = tracks[1].positions + 1.0
        windows = dt.window_scenes(tracks, t_obs=8, t_pred=12)
        assert len(windows) == 2
        assert {w.target_index for w in windows} == {0, 1}

    def test_world_frame_round_trip(self):
        windows = dt.window_scenes([straight_tracks(20)], t_obs=8, t_pred=12)
        w = windows[0]
        world = np.concatenate([w.world_obs(), w.world_fut()], axis=1)
        assert np.allclose(world[0, :, 0], np.arange(20) * 0.5, atol=0)

    def test_retarget_moves_origin(self):
        tracks = [straight_tracks(20, ped_id=1), straight_tracks(20, ped_id=2)]
        tracks[1].positions = tracks[1].positions + np.array([0.0, 2.0])
        w = dt.window_scenes(tracks, t_obs=8, t_pred=12)[0]
        other = 1 - w.target_index
        r = w.retarget(other)
        assert np.array_equal(r.obs[other, -1], [0.0, 0.0])
        assert np.allclose(r.world_obs(), w.world_obs(), atol=1e-12)

    @given(
        tracks=st.lists(
            st.tuples(
                st.sampled_from([10, 20, 30]),  # the track's frame stride
                st.integers(0, 12),  # first frame, in steps of 5, so tracks can be out of phase
                st.integers(1, 14),  # frames, before any are dropped
                st.sets(st.integers(2, 13), max_size=3),  # dropped frame indices (never the first two)
            ),
            min_size=1,
            max_size=5,
        ),
        t_obs=st.integers(1, 4),
        t_pred=st.integers(1, 4),
    )
    @settings(max_examples=150, deadline=None)
    def test_windows_hold_exactly_the_fully_present_pedestrians(self, tracks, t_obs, t_pred):
        raw, frame_sets = [], {}
        for ped, (stride, first, length, gaps) in enumerate(tracks, start=1):
            frames = np.array([first * 5 + i * stride for i in range(length) if i not in gaps], dtype=np.int64)
            # dyadic positions keep the origin shift exact; x encodes the frame, y the pedestrian
            raw.append(dt.RawTrack(ped, frames, np.stack([frames * 0.5, np.full(len(frames), ped * 0.25)], axis=1)))
            frame_sets[ped] = set(frames.tolist())
        step = min((stride for stride, _, length, _ in tracks if length > 1), default=1)  # the scene's frame step
        expected = set()
        for start in set().union(*frame_sets.values()):
            required = {start + i * step for i in range(t_obs + t_pred)}
            expected |= {(start, ped) for ped, frames in frame_sets.items() if required <= frames}
        windows = dt.window_scenes(raw, t_obs=t_obs, t_pred=t_pred)
        assert len(windows) == len(expected)
        seen = set()
        for w in windows:
            assert np.array_equal(w.obs[w.target_index, -1], [0.0, 0.0])
            world = np.concatenate([w.world_obs(), w.world_fut()], axis=1)
            start = int(world[0, 0, 0] * 2)
            required = [start + i * step for i in range(t_obs + t_pred)]
            assert w.ped_ids == [ped for ped in sorted(frame_sets) if set(required) <= frame_sets[ped]]
            for row, ped in enumerate(w.ped_ids):
                assert np.array_equal(world[row, :, 0], np.array(required) * 0.5)
                assert np.all(world[row, :, 1] == ped * 0.25)
            seen.add((start, w.ped_ids[w.target_index]))
        assert seen == expected


class TestLeaveOneOut:
    def make_scenes(self):
        return {
            name: dt.window_scenes([straight_tracks(20 + i)], t_obs=8, t_pred=12, dataset=name)
            for i, name in enumerate(["eth", "hotel", "univ", "zara1", "zara2"])
        }

    def test_holdout_covers_rest(self):
        scenes = self.make_scenes()
        train, test = dt.leave_one_out_split("eth", scenes)
        assert all(w.dataset == "eth" for w in test)
        assert {w.dataset for w in train} == {"hotel", "univ", "zara1", "zara2"}

    def test_disjoint_and_complete(self):
        scenes = self.make_scenes()
        train, test = dt.leave_one_out_split("univ", scenes)
        total = sum(len(v) for v in scenes.values())
        assert len(train) + len(test) == total
        assert not (set(map(id, train)) & set(map(id, test)))

    def test_unknown_scene(self):
        with pytest.raises(ConfigError, match="unknown scene"):
            dt.leave_one_out_split("sdd", self.make_scenes())


class TestSynthScenes:
    def test_straight_noiseless_future_is_linear_extrapolation(self):
        spec = dt.SynthSpec(kinds=("straight",), count=5, seed=3, noise_std=0.0)
        for w in dt.synth_scenes(spec):
            v = w.obs[w.target_index, -1] - w.obs[w.target_index, -2]
            steps = np.arange(1, w.t_pred + 1)[:, None]
            predicted = w.obs[w.target_index, -1] + steps * v
            assert np.allclose(predicted, w.fut[w.target_index], atol=1e-9)

    def test_crossing_pair_paths_intersect(self):
        spec = dt.SynthSpec(kinds=("crossing_pair",), count=8, seed=4, noise_std=0.0)
        windows = dt.synth_scenes(spec)
        for w in windows[::2]:  # one window per scene is enough
            world = np.concatenate([w.world_obs(), w.world_fut()], axis=1)
            dist = np.linalg.norm(world[0] - world[1], axis=1).min()
            assert dist < 0.5

    def test_same_seed_identical(self):
        spec = dt.SynthSpec(kinds=("straight", "turn"), count=6, seed=9)
        a = dt.synth_scenes(spec)
        b = dt.synth_scenes(spec)
        assert len(a) == len(b)
        for wa, wb in zip(a, b):
            assert wa.obs.tobytes() == wb.obs.tobytes()
            assert wa.fut.tobytes() == wb.fut.tobytes()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown scenario kind"):
            dt.synth_scenes(dt.SynthSpec(kinds=("teleport",), count=1))

    @pytest.mark.parametrize("kind", dt.SYNTH_KINDS)
    def test_every_kind_generates_valid_windows(self, kind):
        windows = dt.synth_scenes(dt.SynthSpec(kinds=(kind,), count=2, seed=1))
        assert windows
        for w in windows:
            assert w.obs.shape[1:] == (8, 2)
            assert w.fut.shape[1:] == (12, 2)
            assert np.array_equal(w.obs[w.target_index, -1], [0.0, 0.0])
            assert np.all(np.isfinite(w.obs)) and np.all(np.isfinite(w.fut))

    def test_spec_parser(self):
        spec = dt.parse_synth_spec("synth:straight+turn:n=64:seed=5:noise=0.01")
        assert spec.kinds == ("straight", "turn")
        assert spec.count == 64
        assert spec.seed == 5
        assert spec.noise_std == 0.01

    def test_spec_parser_rejects_garbage(self):
        with pytest.raises(ConfigError):
            dt.parse_synth_spec("synth:straight:bogus")
        with pytest.raises(ConfigError):
            dt.parse_synth_spec("file.txt")
        for key in ("n", "seed", "noise"):
            with pytest.raises(ConfigError, match=f"synth-spec field '{key}'"):
                dt.parse_synth_spec(f"synth:straight:{key}=abc")
        for key in ("to", "tp"):  # window steps come from the model, not the spec
            with pytest.raises(ConfigError, match=f"unknown synth-spec field '{key}'"):
                dt.parse_synth_spec(f"synth:straight:{key}=6")
        for field in ("n=0", "n=-3", "seed=-1", "noise=-1", "noise=nan", "noise=inf"):
            key = field.split("=")[0]
            with pytest.raises(ConfigError, match=f"synth-spec field '{key}' must be"):
                dt.parse_synth_spec(f"synth:straight:{field}")

    @settings(max_examples=150)
    @given(text=synth_spec_text())
    def test_fuzzed_spec_parses_or_raises_config_error(self, text):
        try:
            spec = dt.parse_synth_spec(text)
        except ConfigError:
            return
        assert spec.kinds and set(spec.kinds) <= set(dt.SYNTH_KINDS)
        assert type(spec.count) is int and spec.count >= 1
        assert type(spec.seed) is int and spec.seed >= 0
        assert type(spec.noise_std) is float and 0.0 <= spec.noise_std < float("inf")


class TestRoundTrip:
    def test_windows_survive_serialization(self, tmp_path):
        spec = dt.SynthSpec(kinds=("crossing_pair", "straight"), count=4, seed=7)
        windows = dt.synth_scenes(spec)
        path = tmp_path / "dump.txt"
        write_windows(windows, path)
        recovered = dt.window_scenes(dt.load_tracks(path), t_obs=8, t_pred=12)
        # every saved window block reappears with positions intact
        originals = {np.round(w.world_obs()[w.target_index].sum(), 4): w for w in windows}
        hit_keys = set()
        for r in recovered:
            key = np.round(r.world_obs()[r.target_index].sum(), 4)
            assert key in originals
            o = originals[key]
            assert np.max(np.abs(r.world_obs() - o.world_obs())) < 1e-6
            assert np.max(np.abs(r.world_fut() - o.world_fut())) < 1e-6
            hit_keys.add(key)
        assert hit_keys == set(originals)
